import re
import tracemalloc

import numpy as np
import pytest

import emolex.solver as solver_module
from emolex import (ConvergenceError, EmotionSet, LabelMatrix,
                    PropagationParams, SeedLexicon, cross_validate, expand,
                    init_label_matrix, kl_divergence, label_prop_expander,
                    propagate_cg, propagate_closed_form, propagate_folds,
                    propagate_iterative)
import emolex.graph
from emolex.graph import (EUCLIDEAN_RBF, NumericalDegeneracyError,
                          TransitionOperator, build_transition)
from emolex.solver import MAX_CONDITION, expand_folds

from conftest import (MIXTURE_PARAMS, DenseOperator, dense_weights,
                      keep_panels, make_store, mixture_instance,
                      two_cluster_seed, two_cluster_store)


def half_transition():
    """Two-node operator whose matrix is 0.5 everywhere."""
    store = make_store([[1.0, 0.0], [0.0, 1.0]])
    return build_transition(store, PropagationParams(alpha=0.0, b=0.0),
                            [True, False])


def two_node_instance():
    lm = LabelMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]), [True, False])
    return half_transition(), lm


def random_instance(rng, n, n_labeled, m=6, epsilon=0.01):
    store = make_store(rng.normal(size=(n, 8)))
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=n_labeled, replace=False)] = True
    params = PropagationParams(alpha=float(rng.uniform(0.5, 6.0)),
                               b=float(rng.uniform(-2, 1)), epsilon=epsilon)
    tm = build_transition(store, params, mask)
    rows = rng.dirichlet(np.ones(m), size=n)
    rows[~mask] = 1.0 / m
    return tm, LabelMatrix(rows, mask)


def ill_conditioned_instance():
    """epsilon = 0 and a steep kernel: the unlabeled cluster opposite the
    seeds sends them about 1e-26 of its mass in one step."""
    rng = np.random.default_rng(6)
    near = np.array([1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=(4, 3))
    far = np.array([-1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=(4, 3))
    store = make_store(np.vstack([near, far]))
    mask = np.array([True, True] + [False] * 6)
    params = PropagationParams(alpha=40.0, b=-20.0, epsilon=0.0)
    tm = build_transition(store, params, mask)
    rows = np.full((8, 2), 0.5)
    rows[0], rows[1] = [1.0, 0.0], [0.0, 1.0]
    return tm, LabelMatrix(rows, mask)


class TestIterative:
    def test_geometric_convergence(self):
        tm, lm = two_node_instance()
        solved, report = propagate_iterative(tm, lm, tol=1e-12, max_iter=500)
        assert np.allclose(solved.rows[1], [1.0, 0.0], atol=1e-10)
        assert report.converged
        assert report.residual < 1e-10

    def test_labeled_rows_bit_equal(self):
        tm, lm = two_node_instance()
        solved, _ = propagate_iterative(tm, lm)
        assert np.array_equal(solved.rows[0], lm.rows[0])

    def test_fixed_point_single_sweep(self):
        tm = half_transition()
        lm = LabelMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]), [True, False])
        _, report = propagate_iterative(tm, lm, tol=1e-9)
        assert report.iterations == 1
        assert report.converged

    def test_near_uniform_transition_gives_label_mean(self):
        rng = np.random.default_rng(0)
        store = make_store(rng.normal(size=(6, 4)))
        mask = np.array([True, True, False, False, False, False])
        params = PropagationParams(alpha=1.0, b=0.0, epsilon=1 - 1e-12)
        tm = build_transition(store, params, mask)
        rows = np.full((6, 3), 1 / 3)
        rows[0] = [1, 0, 0]
        rows[1] = [0, 1, 0]
        lm = LabelMatrix(rows, mask)
        solved, _ = propagate_iterative(tm, lm, tol=1e-12, max_iter=2000)
        # uniform transition mixes each unlabeled row toward the global mean;
        # with clamping the fixed point weights labeled rows equally
        expected = np.array([0.5, 0.5, 0.0])
        assert np.allclose(solved.rows[2:], expected, atol=1e-6)

    def test_non_convergence_flagged(self):
        tm, lm = two_node_instance()
        with pytest.raises(ConvergenceError,
                           match="in 3 iterations: error bound"):
            propagate_iterative(tm, lm, tol=1e-15, max_iter=3)

    def test_bad_tol(self):
        tm, lm = two_node_instance()
        with pytest.raises(ValueError):
            propagate_iterative(tm, lm, tol=0.0)

    # The sweep used to stop at a change below tol, which left its answer
    # about 1e-4 from the fixed point at 1% seeds and tol 1e-6.
    @pytest.mark.parametrize("n_labeled", [4, 40])
    def test_error_within_bound_within_tol(self, n_labeled):
        tm, lm = random_instance(np.random.default_rng(9), 400, n_labeled)
        closed, _ = propagate_closed_form(tm, lm)
        solved, report = propagate_iterative(tm, lm, tol=1e-6, max_iter=10000)
        error = np.max(np.abs(solved.rows - closed.rows))
        assert report.converged
        assert error <= report.error_bound <= 1e-6


class TestClosedForm:
    def test_two_node_exact(self):
        tm, lm = two_node_instance()
        solved, report = propagate_closed_form(tm, lm)
        assert np.allclose(solved.rows[1], [1.0, 0.0], atol=1e-14)
        assert report.residual < 1e-14

    def test_agrees_with_iterative(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            n = int(rng.integers(8, 24))
            tm, lm = random_instance(rng, n, max(2, n // 5))
            closed, _ = propagate_closed_form(tm, lm)
            iterative, _ = propagate_iterative(tm, lm, tol=1e-13, max_iter=20000)
            assert np.max(np.abs(closed.rows - iterative.rows)) < 1e-8

    def test_rows_stochastic(self):
        rng = np.random.default_rng(2)
        tm, lm = random_instance(rng, 15, 4)
        solved, _ = propagate_closed_form(tm, lm)
        assert np.allclose(solved.rows.sum(axis=1), 1.0, atol=1e-8)


    def test_condition_bound_reported(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            n = int(rng.integers(8, 24))
            tm, lm = random_instance(rng, n, max(2, n // 5))
            _, report = propagate_closed_form(tm, lm)
            u = ~lm.labeled_mask
            t_uu = tm.apply(np.eye(n))[np.ix_(u, u)]
            mass = np.min(1.0 - t_uu.sum(axis=1))
            assert report.min_labeled_mass == pytest.approx(mass, rel=1e-9)
            system = np.eye(int(u.sum())) - t_uu
            assert report.cond_bound >= np.linalg.cond(system, np.inf) * (1 - 1e-9)
            assert report.to_dict()["cond_bound"] == report.cond_bound
            assert (report.error_bound
                    == report.residual / report.min_labeled_mass)

    def test_ill_conditioned_system_refused(self):
        tm, lm = ill_conditioned_instance()
        with pytest.raises(NumericalDegeneracyError, match="ill-conditioned"):
            propagate_closed_form(tm, lm)

    def test_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("O(u^3) condition number computed")
        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        tm, lm = random_instance(np.random.default_rng(7), 20, 4)
        _, report = propagate_closed_form(tm, lm)
        assert report.cond_bound <= MAX_CONDITION


def fold_instance(epsilon, k, seed, n_per_cluster=15, n_seeds=20, m=6):
    """A two-cluster graph with random seed rows and the seeds split into k
    folds."""
    rng = np.random.default_rng(seed)
    store = two_cluster_store(n_per_cluster, dim=6, separation=3.0, seed=seed)
    n = len(store)
    seeds = rng.choice(n, size=n_seeds, replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[seeds] = True
    params = PropagationParams(alpha=6.0, b=-2.0, epsilon=epsilon)
    tm = build_transition(store, params, mask)
    rows = np.full((n, m), 1.0 / m)
    rows[mask] = rng.dirichlet(np.ones(m), size=n_seeds)
    return tm, LabelMatrix(rows, mask), np.array_split(seeds, k)


class TestFolds:
    @pytest.mark.parametrize("epsilon, k, seed", [
        (1e-4, 4, 0), (0.01, 5, 1), (0.3, 10, 2), (0.01, 10, 3), (1e-4, 5, 4),
        (0.3, 4, 5)])
    def test_matches_closed_form_per_fold(self, epsilon, k, seed):
        tm, lm, folds = fold_instance(epsilon, k, seed)
        solved = list(propagate_folds(tm, lm, folds, tol=1e-9))
        assert len(solved) == k
        for hidden, (fold, report) in zip(folds, solved):
            mask = lm.labeled_mask.copy()
            mask[hidden] = False
            expected, expected_report = propagate_closed_form(
                tm, LabelMatrix(lm.rows, mask), tol=1e-9)
            assert np.array_equal(fold.labeled_mask, mask)
            assert np.max(np.abs(fold.rows - expected.rows)) <= 1e-12
            assert np.array_equal(fold.rows[mask], lm.rows[mask])
            gold = lm.rows[hidden]
            assert np.max(np.abs(kl_divergence(gold, fold.rows[hidden])
                                 - kl_divergence(gold, expected.rows[hidden]))
                          ) <= 1e-12
            assert report.min_labeled_mass == pytest.approx(
                expected_report.min_labeled_mass, abs=1e-12)
            assert report.cond_bound == pytest.approx(
                expected_report.cond_bound, rel=1e-12)
            assert report.method == "closed-form"
            assert report.converged
            assert report.error_bound <= 1e-9
            assert (report.error_bound
                    == report.residual / report.min_labeled_mass)

    def test_all_seeded_vocabulary(self):
        # No row is unlabeled in the all-seeds system, so Z is empty and the
        # folds' hidden seeds are the whole unknown.
        tm, _, _ = fold_instance(0.01, 3, 7, n_per_cluster=4, n_seeds=7)
        lm = LabelMatrix(np.random.default_rng(7).dirichlet(np.ones(6), size=8),
                         np.ones(8, dtype=bool))
        folds = [np.array([0, 5]), np.array([1, 2, 6]), np.array([3, 4, 7])]
        for hidden, (fold, report) in zip(folds,
                                          propagate_folds(tm, lm, folds)):
            mask = ~np.isin(np.arange(8), hidden)
            expected, _ = propagate_closed_form(tm, LabelMatrix(lm.rows, mask))
            assert np.max(np.abs(fold.rows - expected.rows)) <= 1e-12
            assert report.converged

    def test_ill_conditioned_fold_refused(self):
        tm, lm = ill_conditioned_instance()
        with pytest.raises(NumericalDegeneracyError,
                           match="^fold 0: .*ill-conditioned"):
            propagate_folds(tm, lm, [[0], [1]])

    def test_only_labeled_rows_hidden(self):
        tm, lm, folds = fold_instance(0.01, 4, 8)
        unlabeled = np.flatnonzero(~lm.labeled_mask)[:1]
        with pytest.raises(ValueError, match="only labeled rows"):
            list(propagate_folds(tm, lm, folds[:1] + [unlabeled]))

    # Every fold is checked before the first is solved.
    def test_bad_fold_raised_before_first_solve(self):
        tm, lm, folds = fold_instance(0.01, 4, 8)
        unlabeled = np.flatnonzero(~lm.labeled_mask)[:1]
        with pytest.raises(ValueError, match="^fold 1 hides an unlabeled "
                           "row: a fold may hide only labeled rows$"):
            propagate_folds(tm, lm, [folds[0], unlabeled])

    def test_out_of_range_index_raised_before_first_solve(self):
        tm, lm, folds = fold_instance(0.01, 4, 8)
        with pytest.raises(IndexError):
            propagate_folds(tm, lm, [folds[0], [tm.n]])

    def test_no_folds_yield_nothing(self):
        tm, lm, _ = fold_instance(0.01, 4, 8)
        assert list(propagate_folds(tm, lm, [])) == []

    def test_input_contract(self):
        tm, lm, folds = fold_instance(0.01, 4, 8)
        with pytest.raises(ValueError, match="tol must be positive"):
            propagate_folds(tm, lm, folds, tol=0.0)
        every_seed = [np.flatnonzero(lm.labeled_mask)]
        with pytest.raises(ValueError, match="one labeled and one unlabeled"):
            propagate_folds(tm, lm, every_seed)

    def test_nan_tol_refused(self):
        tm, lm, folds = fold_instance(0.01, 4, 8)
        with pytest.raises(ValueError, match="tol must be positive"):
            propagate_folds(tm, lm, folds, tol=float("nan"))

    # The solver options are refused before the n x n build, as in `expand`.
    # The seed split is not: an all-seeded vocabulary still cross-validates.
    @pytest.mark.parametrize("options, message", [
        ({"tol": float("inf")}, "tol must be finite"),
        ({"tol": 0.0}, "tol must be positive")])
    def test_expand_folds_refused_before_graph_build(self, monkeypatch, ekman,
                                                     options, message):
        def no_build(*args):
            raise AssertionError("the graph was built")
        monkeypatch.setattr(solver_module, "build_transition", no_build)
        store = two_cluster_store(4, dim=4, seed=4)
        seed = two_cluster_seed(store, ekman, 1)
        params = PropagationParams(alpha=2.0, b=0.0, epsilon=0.1)
        with pytest.raises(ValueError, match="^%s$" % message):
            expand_folds(store, seed, params, [["c0_0"]], **options)

    def test_no_folds_expand_to_nothing(self, ekman):
        store = two_cluster_store(4, dim=4, seed=4)
        seed = two_cluster_seed(store, ekman, 1)
        params = PropagationParams(alpha=2.0, b=0.0, epsilon=0.1)
        assert expand_folds(store, seed, params, []) == []


    def test_batched_reports_match_fold_by_fold(self):
        # One product gives every fold's labeled mass and one more every
        # fold's residual; each is the fold's own product with T.
        tm, lm, folds = fold_instance(0.01, 10, 9)
        for fold, report in propagate_folds(tm, lm, folds, tol=1e-9):
            mask = fold.labeled_mask
            mass = np.min(tm.apply(mask[:, None].astype(np.float64))[~mask])
            residual = np.max(np.abs(fold.rows - tm.apply(fold.rows))[~mask])
            assert report.min_labeled_mass == pytest.approx(mass, abs=1e-12)
            assert report.cond_bound == pytest.approx((2.0 - mass) / mass,
                                                      rel=1e-12)
            assert report.residual == pytest.approx(residual, abs=1e-12)
            assert report.error_bound == report.residual / report.min_labeled_mass

    # Every fold's condition is checked before the factorization or the
    # first per-fold solve, so a refused fold 2 raises before any system is
    # solved, on either path.
    @pytest.mark.parametrize("solver", ["closed", "cg"])
    def test_refused_fold_raised_before_factorization(self, monkeypatch,
                                                       solver):
        if solver == "cg":
            monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", 0)
        # A seed in the far cluster too: only hiding it leaves that cluster
        # without mass onto the seeds.
        tm, lm = ill_conditioned_instance()
        mask = lm.labeled_mask.copy()
        mask[4] = True
        rows = lm.rows.copy()
        rows[4] = [1.0, 0.0]
        solves = []

        def counting(module, name):
            original = getattr(module, name)

            def count(*args, **kwargs):
                solves.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, count)
        counting(np.linalg, "solve")
        for name in ("propagate_closed_form", "propagate_iterative",
                     "propagate_cg"):
            counting(solver_module, name)
        with pytest.raises(NumericalDegeneracyError,
                           match="^fold 2: .*ill-conditioned") as err:
            propagate_folds(tm, LabelMatrix(rows, mask), [[0], [1], [4]])
        assert isinstance(err.value.__cause__, NumericalDegeneracyError)
        assert solves == []


class TestSolve:
    # A single expansion is a CG solve at every size: the closed form's
    # threshold on unlabeled rows applies only to cross-validation folds.
    def test_auto_switches_on_unlabeled_count(self, ekman):
        threshold = solver_module.CLOSED_FORM_MAX_UNLABELED
        rng = np.random.default_rng(8)
        for n_unlabeled in (threshold, threshold + 1):
            store = make_store(rng.normal(size=(n_unlabeled + 2, 8)))
            seed = SeedLexicon({"w0": [1, 0, 0, 0, 0, 0],
                                "w1": [0, 0, 1, 0, 0, 0]}, ekman)
            result = expand(store, seed, PropagationParams(
                alpha=6.0, b=-2.0, epsilon=0.02))
            assert result.report.method == "cg"
            assert result.report.error_bound <= 1e-6

    # Row 1 sends no mass to the seed row 0 at epsilon 0 (W = I: the
    # orthogonal pair's weight underflows to 0), so no error bound holds for
    # any solver.
    @pytest.mark.parametrize("solver", ["closed", "iterative", "cg"])
    def test_zero_labeled_mass_refused(self, solver):
        tm = TransitionOperator(np.eye(2), PropagationParams(alpha=1000.0,
                                                             b=-800.0))
        assert np.array_equal(tm.apply(np.eye(2)), np.eye(2))
        lm = LabelMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]), [True, False])
        with pytest.raises(NumericalDegeneracyError, match="ill-conditioned"):
            SOLVERS[solver](tm, lm)


class TestInputContract:
    @pytest.mark.parametrize("solve", [propagate_closed_form,
                                       propagate_iterative, propagate_cg])
    @pytest.mark.parametrize("labeled", [[True, True], [False, False]])
    def test_both_partitions_required(self, solve, labeled):
        lm = LabelMatrix(np.full((2, 2), 0.5), labeled)
        with pytest.raises(ValueError, match="one labeled and one unlabeled"):
            solve(half_transition(), lm)

    # NaN compares false with 0, so `tol <= 0` lets it through to the solve.
    @pytest.mark.parametrize("solve", [propagate_closed_form,
                                       propagate_iterative, propagate_cg])
    def test_nan_tol_refused(self, solve):
        tm, lm = two_node_instance()
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(tm, lm, tol=float("nan"))

    @pytest.mark.parametrize("solve", [propagate_closed_form,
                                       propagate_iterative, propagate_cg])
    def test_infinite_tol_refused(self, solve):
        tm, lm = two_node_instance()
        with pytest.raises(ValueError, match="tol must be finite"):
            solve(tm, lm, tol=float("inf"))

    # Only the reference sweep takes max_iter; CG stops at its rounding
    # floor or after solver.MAX_ITER iterations.
    @pytest.mark.parametrize("solve", [propagate_iterative])
    def test_zero_iterations_refused(self, solve):
        tm, lm = two_node_instance()
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            solve(tm, lm, max_iter=0)

    def test_report_dict_has_every_field(self):
        tm, lm = two_node_instance()
        _, report = propagate_iterative(tm, lm)
        assert set(report.to_dict()) == {
            "method", "iterations", "residual", "converged", "error_bound",
            "min_labeled_mass", "cond_bound"}


def first_fold(tm, label_matrix):
    """propagate_folds on one fold that hides the first seed."""
    hidden = np.flatnonzero(label_matrix.labeled_mask)[:1]
    return propagate_folds(tm, label_matrix, [hidden])[0]


# "auto" is the solve of `expand`, which runs CG at every size.
SOLVERS = {"iterative": propagate_iterative, "closed": propagate_closed_form,
           "cg": propagate_cg, "auto": propagate_cg, "folds": first_fold}


class TestSolveContract:
    """Which systems are refused, and what a returned report means, do not
    depend on the solver."""

    @pytest.mark.parametrize("method", sorted(SOLVERS))
    def test_every_solver_refuses_ill_conditioned_system(self, method):
        tm, lm = ill_conditioned_instance()
        with pytest.raises(NumericalDegeneracyError,
                           match="ill-conditioned: condition bound"):
            SOLVERS[method](tm, lm)

    @pytest.mark.parametrize("method", ["iterative", "cg"])
    def test_refused_before_first_iteration(self, monkeypatch, method):
        calls = []
        apply = TransitionOperator.apply

        def counting_apply(self, y):
            calls.append(y.shape)
            return apply(self, y)
        monkeypatch.setattr(TransitionOperator, "apply", counting_apply)
        tm, lm = ill_conditioned_instance()
        with pytest.raises(NumericalDegeneracyError):
            SOLVERS[method](tm, lm)
        # The one product is the opening one: the first product's m columns
        # and, beside them, the labeled-mass column the check reads.
        assert calls == [(8, lm.rows.shape[1] + 1)]

    @pytest.mark.parametrize("method", sorted(SOLVERS))
    def test_cond_bound_reported_by_every_solver(self, method):
        tm, lm = random_instance(np.random.default_rng(14), 30, 6)
        _, report = SOLVERS[method](tm, lm)
        mass = report.min_labeled_mass
        assert report.cond_bound == (2.0 - mass) / mass
        assert 1.0 <= report.cond_bound <= MAX_CONDITION
        assert report.converged and report.error_bound <= 1e-6


class TestCG:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(202)
        for trial in range(50):
            n = int(rng.integers(10, 201))
            epsilon = 0.01 if trial % 2 == 0 else 0.1
            tm, lm = random_instance(rng, n, max(2, n // 10), epsilon=epsilon)
            closed, _ = propagate_closed_form(tm, lm)
            solved, report = propagate_cg(tm, lm, tol=1e-9)
            assert report.converged
            assert np.max(np.abs(closed.rows - solved.rows)) <= 1e-8
        # Benchmark-like mixtures on both sides of the closed form's
        # threshold: at tol 1e-12, CG gives the closed form's digits.
        for n in (1000, 2200):
            store, seed = mixture_instance(n, EmotionSet())
            lm, _ = init_label_matrix(store.vocab, seed)
            tm = build_transition(store, MIXTURE_PARAMS, lm.labeled_mask)
            closed, _ = propagate_closed_form(tm, lm, tol=1e-12)
            solved, report = propagate_cg(tm, lm, tol=1e-12)
            assert report.error_bound <= 1e-12
            assert np.max(np.abs(closed.rows - solved.rows)) <= 1e-12

    @pytest.mark.parametrize("n_labeled", [4, 40])
    def test_error_within_bound_within_tol(self, n_labeled):
        tm, lm = random_instance(np.random.default_rng(10), 400, n_labeled)
        closed, _ = propagate_closed_form(tm, lm)
        solved, report = propagate_cg(tm, lm, tol=1e-6)
        error = np.max(np.abs(solved.rows - closed.rows))
        assert report.method == "cg" and report.converged
        assert error <= report.error_bound <= 1e-6
        assert report.error_bound == report.residual / report.min_labeled_mass
        assert np.array_equal(solved.rows[lm.labeled_mask],
                              lm.rows[lm.labeled_mask])
        assert np.allclose(solved.rows.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    def test_zero_right_hand_side_column(self):
        tm, lm = two_node_instance()
        solved, report = propagate_cg(tm, lm, tol=1e-12)
        assert report.converged
        assert np.allclose(solved.rows[1], [1.0, 0.0], atol=1e-12)

        tm, lm = random_instance(np.random.default_rng(11), 60, 6)
        rows = lm.rows.copy()
        rows[lm.labeled_mask, 2] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        lm = LabelMatrix(rows, lm.labeled_mask)
        closed, _ = propagate_closed_form(tm, lm)
        solved, report = propagate_cg(tm, lm, tol=1e-10)
        assert report.converged
        assert np.all(solved.rows[:, 2] == 0.0)
        assert np.max(np.abs(closed.rows - solved.rows)) <= 1e-10

    def test_non_convergence_flagged(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_ITER", 1)
        tm, lm = random_instance(np.random.default_rng(12), 200, 2)
        with pytest.raises(ConvergenceError,
                           match="cg solve did not converge in 1 iterations: "
                                 "error bound .* exceeds tol 1e-06"):
            propagate_cg(tm, lm, tol=1e-6)

    # A breakdown at the first step leaves only the uniform rows, which are
    # settled and checked like any iterate; MAX_ITER 0 stops at that point.
    def test_no_step_settles_uniform_rows(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_ITER", 0)
        tm, lm = random_instance(np.random.default_rng(12), 200, 2)
        with pytest.raises(ConvergenceError, match="in 0 iterations: error "
                                                   "bound [0-9.e-]+ exceeds"):
            propagate_cg(tm, lm)

    # No caller caps CG's iterations: benchmark-like mixtures are certified
    # in 11, 25 and 33 iterations, up to condition bound 2e7.
    @pytest.mark.parametrize("alpha, b, epsilon", [
        (8.0, -4.0, 0.02), (50.0, -40.0, 1e-3), (50.0, -40.0, 0.0)])
    def test_certified_in_few_iterations(self, alpha, b, epsilon):
        store, seed = mixture_instance(400, EmotionSet())
        lm, _ = init_label_matrix(store.vocab, seed)
        params = PropagationParams(alpha=alpha, b=b, epsilon=epsilon)
        tm = build_transition(store, params, lm.labeled_mask)
        _, report = propagate_cg(tm, lm, tol=1e-6)
        assert report.iterations <= 60

    # `condition` makes (I - T_uu) positive definite, so p^T A p <= 0 is
    # CG's rounding floor. It used to be refused as "not positive definite;
    # consider epsilon smoothing", though the threshold graph certifies at
    # tol 1e-6.
    @pytest.mark.parametrize("n, alpha, b, epsilon, tol", [
        (400, 8.0, -4.0, 0.02, 1e-14), (200, 50.0, -40.0, 0.0, 1e-8)])
    def test_rounding_floor_is_not_certified(self, n, alpha, b, epsilon, tol):
        store, seed = mixture_instance(n, EmotionSet())
        lm, _ = init_label_matrix(store.vocab, seed)
        params = PropagationParams(alpha=alpha, b=b, epsilon=epsilon)
        tm = build_transition(store, params, lm.labeled_mask)
        with pytest.raises(ConvergenceError,
                           match="^cg solve did not converge in [0-9]+ "
                                 "iterations: error bound .* exceeds tol %g$"
                                 % tol):
            propagate_cg(tm, lm, tol=tol)
        _, report = propagate_cg(tm, lm, tol=1e-6)
        assert report.converged

    def test_no_unlabeled_gather(self, monkeypatch):
        def refuse(self, index):
            raise AssertionError("u x u block gathered")
        monkeypatch.setattr(TransitionOperator, "submatrix", refuse)
        tm, lm = random_instance(np.random.default_rng(13), 40, 4)
        solved, report = propagate_cg(tm, lm)
        assert report.method == "cg" and report.converged


def streamed_instance(monkeypatch, kernel_params, kept=0):
    """The operator of a dense W, and an operator of the same graph on 300
    words that keeps `kept` of its two 150-row panels, and a label matrix
    with 30 seeds."""
    rng = np.random.default_rng(31)
    store = make_store(rng.normal(size=(300, 8)))
    x = store.vectors if kernel_params.get("kernel") else store.unit_vectors
    params = PropagationParams(epsilon=0.02, **kernel_params)
    mask = np.zeros(300, dtype=bool)
    mask[rng.choice(300, size=30, replace=False)] = True
    rows = np.full((300, 6), 1.0 / 6)
    rows[mask] = np.eye(6)[rng.integers(0, 6, size=30)]
    held = DenseOperator(dense_weights(x, params), params.epsilon)
    with monkeypatch.context() as patch:
        patch.setattr(emolex.graph, "_BLOCK_ENTRIES", 150 * 300)
        patch.setattr(emolex.graph, "_PANEL_BLOCKS", 1)
        keep_panels(patch, 300, kept)
        tm = TransitionOperator(x, params)
    return held, tm, LabelMatrix(rows, mask)


class TestStreamed:
    # The diagonal comes from the vectors alone, so CG runs on an operator
    # that keeps no panel as on the held operator.
    @pytest.mark.parametrize("kernel_params", [
        {"alpha": 6.0, "b": -2.0},
        {"alpha": np.linspace(1.0, 8.0, 8), "b": -3.0},
        {"kernel": EUCLIDEAN_RBF, "sigma": 1.5}],
        ids=["scalar", "vector", "rbf"])
    def test_cg_matches_held(self, monkeypatch, kernel_params):
        held, streamed, lm = streamed_instance(monkeypatch, kernel_params)
        assert np.allclose(streamed.diagonal, held.diagonal,
                           rtol=1e-14, atol=0)
        tol = 1e-8
        expected, _ = propagate_cg(held, lm, tol=tol)
        solved, report = propagate_cg(streamed, lm, tol=tol)
        assert report.converged
        assert np.max(np.abs(solved.rows - expected.rows)) <= 2 * tol

    # The closed form gathers T_uu from recomputed panels as from kept ones,
    # so an operator that keeps none of its two panels, or only the first,
    # gives the rows and report of one that keeps both.
    def test_closed_form_matches_kept(self, monkeypatch):
        kernel_params = {"alpha": 6.0, "b": -2.0}
        _, kept, lm = streamed_instance(monkeypatch, kernel_params, 2)
        expected, expected_report = propagate_closed_form(kept, lm)
        for n_kept in (0, 1):
            _, streamed, _ = streamed_instance(monkeypatch, kernel_params,
                                               n_kept)
            assert len(streamed._kept) == n_kept
            solved, report = propagate_closed_form(streamed, lm)
            assert np.array_equal(solved.rows, expected.rows)
            assert report == expected_report

    # `expand` takes CG on an operator that does not keep every panel, as
    # on one that does.
    def test_auto_solves_by_cg(self, monkeypatch, ekman):
        store = two_cluster_store(150, dim=6, separation=3.0, seed=31)
        seed = two_cluster_seed(store, ekman, 10)
        params = PropagationParams(alpha=6.0, b=-2.0, epsilon=0.02)
        expected = expand(store, seed, params)
        monkeypatch.setattr(emolex.graph, "_BLOCK_ENTRIES", 150 * 300)
        monkeypatch.setattr(emolex.graph, "_PANEL_BLOCKS", 1)
        for kept in (0, 1):
            keep_panels(monkeypatch, 300, kept)
            result = expand(store, seed, params)
            assert result.report.method == "cg"
            assert np.max(np.abs(result.distributions
                                 - expected.distributions)) <= 2e-6

    # The threshold sends every fold to CG, on the dense reference as on
    # the operators that keep none or the first of their two panels.
    def test_auto_folds_by_cg(self, monkeypatch):
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", 0)
        for kept in (0, 1):
            held, streamed, lm = streamed_instance(
                monkeypatch, {"alpha": 6.0, "b": -2.0}, kept)
            folds = np.array_split(np.flatnonzero(lm.labeled_mask), 3)
            solved = propagate_folds(streamed, lm, folds)
            assert [report.method for _, report in solved] == ["cg"] * 3
            for (fold, _), (expected, _) in zip(
                    solved, propagate_folds(held, lm, folds)):
                assert np.max(np.abs(fold.rows - expected.rows)) <= 2e-6


class TestMemoryOrder:
    # The solvers build their work arrays C-ordered whatever the memory order
    # of the label matrix's rows, so the rows and reports are the same bits
    # for C-ordered, F-ordered and column-sliced rows, on an operator that
    # keeps its panels and on one that keeps none. "auto" is the CG solve of
    # `expand` on both; "folds" is `propagate_folds`, from the factorization
    # on both.
    @pytest.mark.parametrize("solver, keep", [
        (solver, keep) for solver in ("iterative", "closed", "cg", "auto",
                                      "folds")
        for keep in (True, False)])
    def test_results_independent_of_layout(self, monkeypatch, solver, keep):
        rng = np.random.default_rng(41)
        store = make_store(rng.normal(size=(300, 8)))
        params = PropagationParams(alpha=6.0, b=-2.0, epsilon=0.02)
        if not keep:
            keep_panels(monkeypatch, 300)
        tm = TransitionOperator(store.unit_vectors, params)
        mask = np.zeros(300, dtype=bool)
        mask[rng.choice(300, size=30, replace=False)] = True
        rows = np.full((300, 6), 1.0 / 6)
        rows[mask] = np.eye(6)[rng.integers(0, 6, size=30)]
        layouts = [rows, np.asfortranarray(rows), np.hstack([rows, rows])[:, 6:]]
        assert layouts[1].flags.f_contiguous
        assert not layouts[2].flags.c_contiguous
        (expected, report), *others = [
            SOLVERS[solver](tm, LabelMatrix(r, mask)) for r in layouts]
        if solver == "auto":
            assert report.method == "cg"
        if solver == "folds":
            assert report.method == "closed-form"
        for solved, other_report in others:
            assert np.array_equal(solved.rows, expected.rows)
            assert other_report == report


class TestPartition:
    @pytest.mark.parametrize("solve", [propagate_closed_form,
                                       propagate_iterative, propagate_cg])
    def test_each_label_matrix_keeps_its_own_partition(self, solve):
        rng = np.random.default_rng(4)
        store = make_store(rng.normal(size=(6, 3)))
        first = np.array([True, False, False, False, False, False])
        tm = build_transition(store, PropagationParams(alpha=2.0, b=0.0,
                                                       epsilon=0.1), first)
        for labeled, seed_row in ((first, [1.0, 0.0]),
                                  (np.roll(first, 3), [0.0, 1.0])):
            rows = np.full((6, 2), 0.5)
            rows[labeled] = seed_row
            lm = LabelMatrix(rows, labeled)
            solved, _ = solve(tm, lm)
            assert np.array_equal(solved.labeled_mask, labeled)
            assert np.array_equal(solved.rows[labeled], lm.rows[labeled])
            assert np.all(solved.rows[~labeled] != 0.5)


class TestPermutationInvariance:
    def test_unlabeled_order_permutes_output(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(8, 4))
        words = ["w%d" % i for i in range(8)]
        emotions = EmotionSet(("a", "b"))
        entries = {"w0": [1, 0], "w1": [0, 1]}
        seed = SeedLexicon(entries, emotions)
        params = PropagationParams(alpha=2.0, b=-0.5, epsilon=0.05)

        base = expand(make_store(vectors, words), seed, params)
        perm = [0, 1, 5, 7, 2, 6, 3, 4]  # labeled rows stay in front
        store2 = make_store(vectors[perm], [words[p] for p in perm])
        permuted = expand(store2, seed, params)
        for w in words:
            assert np.allclose(base.distribution(w), permuted.distribution(w),
                               atol=1e-12)


class TestMonotoneEpsilon:
    def test_larger_epsilon_moves_toward_label_mean(self):
        store = make_store([[1.0, 0.1], [0.1, 1.0], [0.8, 0.6]])
        emotions = EmotionSet(("a", "b"))
        seed = SeedLexicon({"w0": [1, 0], "w1": [0, 1]}, emotions)
        label_mean = np.array([0.5, 0.5])
        tv_prev = None
        for eps in (0.0, 0.3, 0.6, 0.9):
            params = PropagationParams(alpha=4.0, b=0.0, epsilon=eps)
            result = expand(store, seed, params)
            tv = 0.5 * np.abs(result.distribution("w2") - label_mean).sum()
            if tv_prev is not None:
                assert tv <= tv_prev + 1e-12
            tv_prev = tv


class TestExpand:
    # Under a budget that keeps none or 1 of its 4 panels, expand and every
    # fold of expand_folds return the same bits and reports as with every
    # panel kept, on either fold path: "cg" patches the threshold to send
    # the folds to CG, "closed-form" factorizes them.
    @pytest.mark.parametrize("solver", ["cg", "closed-form"])
    def test_partly_kept_matches_kept(self, ekman, monkeypatch, solver):
        if solver == "cg":
            monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", 0)
        monkeypatch.setattr(emolex.graph, "_BLOCK_ENTRIES", 10 * 80)
        monkeypatch.setattr(emolex.graph, "_PANEL_BLOCKS", 2)
        store = two_cluster_store(40, dim=6, separation=5.0, seed=4)
        seed = two_cluster_seed(store, ekman, 6)
        params = PropagationParams(alpha=10.0, b=-5.0, epsilon=0.01)
        folds = [["c0_%d" % i, "c1_%d" % i] for i in range(3)]
        fold_reports = []
        folded = solver_module.propagate_folds

        def recording(*args):
            solved = folded(*args)
            fold_reports.append([report for _, report in solved])
            return solved
        monkeypatch.setattr(solver_module, "propagate_folds", recording)

        def run():
            result = expand(store, seed, params)
            return result, expand_folds(store, seed, params, folds)
        (expected, expected_folds) = run()
        assert [r.method for r in fold_reports[0]] == [solver] * 3
        for kept in (0, 1):
            keep_panels(monkeypatch, 80, kept)
            result, solved_folds = run()
            assert np.array_equal(result.distributions, expected.distributions)
            assert result.report == expected.report
            assert result.report.method == "cg"
            assert fold_reports[-1] == fold_reports[0]
            assert len(solved_folds) == 3
            for rows, expected_rows in zip(solved_folds, expected_folds):
                assert np.array_equal(rows, expected_rows)

    def test_two_cluster_argmax(self, ekman):
        store = two_cluster_store(10, dim=6, separation=5.0, seed=4)
        seed = two_cluster_seed(store, ekman, 2)
        params = PropagationParams(alpha=10.0, b=-5.0, epsilon=0.01)
        result = expand(store, seed, params)
        for i in range(10):
            assert result.argmax_label("c0_%d" % i) == "joy"
            assert result.argmax_label("c1_%d" % i) == "anger"

    def test_all_labeled_vocabulary_is_error(self):
        # No unlabeled word means no solve, so no report: even invalid solver
        # options must not pass through as a "converged" expansion.
        emotions = EmotionSet(("a", "b"))
        store = make_store([[1.0, 0.0], [0.0, 1.0]], ["x", "y"])
        seed = SeedLexicon({"x": [1, 0], "y": [0, 1]}, emotions)
        params = PropagationParams(alpha=1.0, b=0.0)
        with pytest.raises(ValueError, match="unlabeled"):
            expand(store, seed, params)
        with pytest.raises(ValueError):
            expand(store, seed, params, tol=-1)

    # The seed split and the solver options are refused before the n x n
    # build.
    @pytest.mark.parametrize("seeded, options, message", [
        ("xy", {}, "need at least one labeled and one unlabeled node"),
        ("x", {"tol": 0.0}, "tol must be positive"),
        ("x", {"tol": float("inf")}, "tol must be finite")])
    def test_refused_before_graph_build(self, monkeypatch, seeded, options,
                                        message):
        def no_build(*args):
            raise AssertionError("the graph was built")
        monkeypatch.setattr(solver_module, "build_transition", no_build)
        emotions = EmotionSet(("a", "b"))
        store = make_store([[1.0, 0.0], [0.0, 1.0]], ["x", "y"])
        flags = {"x": [1, 0], "y": [0, 1]}
        seed = SeedLexicon({t: flags[t] for t in seeded}, emotions)
        with pytest.raises(ValueError, match="^%s$" % message):
            expand(store, seed, PropagationParams(alpha=1.0, b=0.0),
                   **options)

    def test_identical_embeddings_give_label_average(self):
        emotions = EmotionSet(("a", "b"))
        vectors = np.tile([0.3, 0.4], (5, 1)) * np.arange(1, 6)[:, None]
        store = make_store(vectors)
        seed = SeedLexicon({"w0": [1, 0], "w1": [0, 1]}, emotions)
        params = PropagationParams(alpha=2.0, b=0.0, epsilon=0.0)
        result = expand(store, seed, params)
        assert np.allclose(result.distributions[2:], 0.5, atol=1e-9)

    def test_no_seed_in_vocab_is_error(self):
        emotions = EmotionSet(("a", "b"))
        store = make_store([[1.0, 0.0]], ["x"])
        seed = SeedLexicon({"zzz": [1, 0]}, emotions)
        with pytest.raises(ValueError, match="no seed token"):
            expand(store, seed, PropagationParams(alpha=1.0, b=0.0))

    # The emotion set is the seed's: a call that still passes one fails at
    # the call instead of binding the set to params.
    def test_emotion_set_argument_refused(self, ekman):
        store = two_cluster_store(4, dim=4, seed=4)
        seed = two_cluster_seed(store, ekman, 1)
        params = PropagationParams(alpha=2.0, b=0.0, epsilon=0.1)
        with pytest.raises(TypeError):
            expand(store, seed, ekman, params)

    # One expansion holds the operator's panels, about n^2 / 2, and CG's
    # n x 7 arrays. The closed form used to gather T_uu beside them and
    # copy it into `np.linalg.solve`, about 2 n^2 on this input.
    def test_peak_below_one_and_a_half_n2(self, ekman):
        n = 1200
        store, seed = mixture_instance(n, ekman)
        tracemalloc.start()
        try:
            expand(store, seed, MIXTURE_PARAMS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_sidecar_contents(self):
        emotions = EmotionSet(("a", "b"))
        store = make_store([[1.0, 0.0], [0.5, 0.5]], ["x", "y"])
        seed = SeedLexicon({"x": [1, 0]}, emotions)
        params = PropagationParams(alpha=1.0, b=0.0, epsilon=0.1)
        result = expand(store, seed, params)
        sidecar = result.sidecar()
        assert sidecar["solve"]["method"] == "cg"
        mass = sidecar["solve"]["min_labeled_mass"]
        assert sidecar["solve"]["cond_bound"] == (2.0 - mass) / mass
        assert sidecar["params"]["epsilon"] == 0.1


class TestOptionTypes:
    """A solver or fold option that is not a number of its kind is refused
    by the function that takes it, before the graph is built. tol True used
    to certify a solve at tol 1.0, max_iter 2.5 to run three iterations and
    rng_seed True to run and report true."""

    @staticmethod
    def call(entry, store, seed, params, options):
        if entry == "expand":
            return expand(store, seed, params, **options)
        if entry == "expand_folds":
            return expand_folds(store, seed, params, [["c0_0"]], **options)
        if entry == "cross_validate":
            return cross_validate(store, seed, label_prop_expander(params),
                                  **options)
        label_matrix, _ = init_label_matrix(store.vocab, seed)
        tm = build_transition(store, params, label_matrix.labeled_mask)
        if entry == "propagate_folds":
            return propagate_folds(tm, label_matrix, [[0]], **options)
        # Only the reference sweep takes max_iter.
        solve = propagate_iterative if "max_iter" in options else propagate_cg
        return solve(tm, label_matrix, **options)

    @pytest.mark.parametrize("entry, key, value", [
        (entry, key, value)
        for entry in ("expand", "expand_folds", "propagate_folds", "solve")
        for key, value in (("tol", True), ("tol", "1e-6"))] + [
        ("solve", "max_iter", 2.5), ("solve", "max_iter", True)] + [
        ("cross_validate", key, value)
        for key, value in (("k", 3.5), ("k", True),
                           ("rng_seed", 1.5), ("rng_seed", True))])
    def test_refused_before_graph_build(self, monkeypatch, ekman, entry, key,
                                        value):
        built = []
        build = solver_module.build_transition

        def counting_build(*args):
            built.append(args)
            return build(*args)
        monkeypatch.setattr(solver_module, "build_transition", counting_build)
        store = two_cluster_store(4, dim=4, seed=4)
        seed = two_cluster_seed(store, ekman, 2)
        params = PropagationParams(alpha=2.0, b=0.0, epsilon=0.1)
        kind = "a number" if key == "tol" else "an integer"
        with pytest.raises(ValueError, match="^%s must be %s, not %s$"
                           % (key, kind, re.escape(repr(value)))):
            self.call(entry, store, seed, params, {key: value})
        assert built == []
