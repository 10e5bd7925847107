import numpy as np
import pytest

import emolex.solver as solver_module
from emolex import (EmotionSet, LabelMatrix, PropagationParams, SeedLexicon,
                    expand, propagate_cg, propagate_closed_form,
                    propagate_iterative)
from emolex.graph import (NumericalDegeneracyError, TransitionOperator,
                          build_transition)
from emolex.solver import MAX_CONDITION, solve

from conftest import make_store, two_cluster_seed, two_cluster_store


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
        _, report = propagate_iterative(tm, lm, tol=1e-15, max_iter=3)
        assert not report.converged
        assert report.iterations == 3

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
        # epsilon = 0 and a steep kernel: the unlabeled cluster opposite the
        # seeds sends them about 1e-26 of its mass in one step.
        rng = np.random.default_rng(6)
        near = np.array([1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=(4, 3))
        far = np.array([-1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=(4, 3))
        store = make_store(np.vstack([near, far]))
        mask = np.array([True, True] + [False] * 6)
        params = PropagationParams(alpha=40.0, b=-20.0, epsilon=0.0)
        tm = build_transition(store, params, mask)
        rows = np.full((8, 2), 0.5)
        rows[0], rows[1] = [1.0, 0.0], [0.0, 1.0]
        with pytest.raises(NumericalDegeneracyError, match="ill-conditioned"):
            propagate_closed_form(tm, LabelMatrix(rows, mask))

    def test_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("O(u^3) condition number computed")
        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        tm, lm = random_instance(np.random.default_rng(7), 20, 4)
        _, report = propagate_closed_form(tm, lm)
        assert report.cond_bound <= MAX_CONDITION


class TestSolve:
    def test_auto_switches_on_unlabeled_count(self, monkeypatch):
        tm, lm = random_instance(np.random.default_rng(8), 12, 3)
        assert solve(tm, lm)[1].method == "closed-form"
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", 8)
        assert solve(tm, lm)[1].method == "cg"

    def test_unknown_solver(self):
        tm, lm = two_node_instance()
        with pytest.raises(ValueError, match="unknown solver"):
            solve(tm, lm, "gmres")

    # Row 1 sends no mass to the seed row 0 at epsilon 0, so no error bound
    # holds for any solver.
    @pytest.mark.parametrize("solver", ["closed", "iterative", "cg"])
    def test_zero_labeled_mass_refused(self, solver):
        tm = TransitionOperator(np.eye(2), 0.0)
        lm = LabelMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]), [True, False])
        with pytest.raises(NumericalDegeneracyError, match="ill-conditioned"):
            solve(tm, lm, solver)


class TestInputContract:
    @pytest.mark.parametrize("solve", [propagate_closed_form,
                                       propagate_iterative, propagate_cg])
    @pytest.mark.parametrize("labeled", [[True, True], [False, False]])
    def test_both_partitions_required(self, solve, labeled):
        lm = LabelMatrix(np.full((2, 2), 0.5), labeled)
        with pytest.raises(ValueError, match="one labeled and one unlabeled"):
            solve(half_transition(), lm)

    @pytest.mark.parametrize("solve", [propagate_iterative, propagate_cg])
    def test_zero_iterations_refused(self, solve):
        tm, lm = two_node_instance()
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            solve(tm, lm, max_iter=0)

    def test_report_dict_drops_unset_fields(self):
        tm, lm = two_node_instance()
        _, report = propagate_iterative(tm, lm)
        assert set(report.to_dict()) == {
            "method", "iterations", "residual", "converged", "error_bound",
            "min_labeled_mass"}


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

    def test_non_convergence_flagged(self):
        tm, lm = random_instance(np.random.default_rng(12), 200, 2)
        _, report = propagate_cg(tm, lm, tol=1e-6, max_iter=1)
        assert report.iterations == 1
        assert not report.converged
        assert report.error_bound > 1e-6

    def test_no_unlabeled_gather(self, monkeypatch):
        def refuse(self, index):
            raise AssertionError("u x u block gathered")
        monkeypatch.setattr(TransitionOperator, "submatrix", refuse)
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", 8)
        tm, lm = random_instance(np.random.default_rng(13), 40, 4)
        solved, report = solve(tm, lm)
        assert report.method == "cg" and report.converged


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

        base = expand(make_store(vectors, words), seed, emotions, params,
                      solver="closed")
        perm = [0, 1, 5, 7, 2, 6, 3, 4]  # labeled rows stay in front
        store2 = make_store(vectors[perm], [words[p] for p in perm])
        permuted = expand(store2, seed, emotions, params, solver="closed")
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
            result = expand(store, seed, emotions, params, solver="closed")
            tv = 0.5 * np.abs(result.distribution("w2") - label_mean).sum()
            if tv_prev is not None:
                assert tv <= tv_prev + 1e-12
            tv_prev = tv


class TestExpand:
    def test_two_cluster_argmax(self, ekman):
        store = two_cluster_store(10, dim=6, separation=5.0, seed=4)
        seed = two_cluster_seed(store, ekman, 2)
        params = PropagationParams(alpha=10.0, b=-5.0, epsilon=0.01)
        result = expand(store, seed, ekman, params, solver="closed")
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
            expand(store, seed, emotions, params)
        with pytest.raises(ValueError):
            expand(store, seed, emotions, params, solver="cg", tol=-1,
                   max_iter=0)

    def test_identical_embeddings_give_label_average(self):
        emotions = EmotionSet(("a", "b"))
        vectors = np.tile([0.3, 0.4], (5, 1)) * np.arange(1, 6)[:, None]
        store = make_store(vectors)
        seed = SeedLexicon({"w0": [1, 0], "w1": [0, 1]}, emotions)
        params = PropagationParams(alpha=2.0, b=0.0, epsilon=0.0)
        result = expand(store, seed, emotions, params, solver="closed")
        assert np.allclose(result.distributions[2:], 0.5, atol=1e-9)

    def test_no_seed_in_vocab_is_error(self):
        emotions = EmotionSet(("a", "b"))
        store = make_store([[1.0, 0.0]], ["x"])
        seed = SeedLexicon({"zzz": [1, 0]}, emotions)
        with pytest.raises(ValueError, match="no seed token"):
            expand(store, seed, emotions, PropagationParams(alpha=1.0, b=0.0))

    def test_sidecar_contents(self):
        emotions = EmotionSet(("a", "b"))
        store = make_store([[1.0, 0.0], [0.5, 0.5]], ["x", "y"])
        seed = SeedLexicon({"x": [1, 0]}, emotions)
        params = PropagationParams(alpha=1.0, b=0.0, epsilon=0.1)
        result = expand(store, seed, emotions, params, solver="iterative")
        sidecar = result.sidecar()
        assert sidecar["solve"]["method"] == "iterative"
        assert "cond_bound" not in sidecar["solve"]
        assert sidecar["params"]["epsilon"] == 0.1
