import math
import weakref

import numpy as np
import pytest

import emolex.evaluate as evaluate_module
import emolex.solver as solver_module
from emolex import (ConvergenceError, EmotionSet, PropagationParams,
                    SeedLexicon, TransitionOperator, baseline_expander,
                    corpus_lexicon_stats, count_classify, cross_validate,
                    expand, kl_divergence, label_prop_expander, load_corpus,
                    load_seed_lexicon, make_folds, micro_prf)
from emolex.evaluate import CorpusFormatError
from emolex.graph import NumericalDegeneracyError, build_transition
from emolex.lexicon import init_label_matrix
from emolex.solver import propagate_folds

from conftest import data_path, make_store, two_cluster_seed, two_cluster_store

HASHTAG_COUNTS = [1555, 761, 2816, 8240, 3830, 3849]


def without(seed, held_out):
    """The seed lexicon less the tokens in `held_out`."""
    return SeedLexicon({t: f for t, f in seed.entries.items()
                        if t not in held_out}, seed.emotions)


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = [0.2, 0.3, 0.5]
        assert kl_divergence(p, p) == 0.0

    def test_hand_value(self):
        # 0.5 ln 2 + 0.5 ln(2/3)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            0.1438, abs=1e-4)

    def test_floor_active_on_zero_prediction(self):
        kl = kl_divergence([1.0, 0.0], [0.0, 1.0])
        assert kl == pytest.approx(math.log(1e12), rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.7, 0.7], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.5, -0.5])

    # Every comparison with NaN is false, so a check for entries that fail
    # the bounds passed a NaN component, and the KL came out NaN.
    @pytest.mark.parametrize("side", ["gold", "predicted"])
    def test_nan_component_rejected(self, side):
        pair = {"gold": [0.5, 0.5], "predicted": [0.5, 0.5]}
        pair[side] = [math.nan, 1.0]
        with pytest.raises(ValueError, match="^inputs must be probability "
                                             "distributions$"):
            kl_divergence(pair["gold"], pair["predicted"])
        stacked = {key: np.full((3, 2), 0.5) for key in pair}
        stacked[side][1] = pair[side]
        with pytest.raises(ValueError, match="probability distributions"):
            kl_divergence(stacked["gold"], stacked["predicted"])

    @pytest.mark.parametrize("m", [6, 12])
    def test_rows_match_single_calls_bit_for_bit(self, m):
        rng = np.random.default_rng(1)
        gold = rng.dirichlet(np.ones(m), size=8)
        gold[::2, 1:4] = 0.0
        gold /= gold.sum(axis=1, keepdims=True)
        predicted = rng.dirichlet(np.ones(m), size=8)
        predicted[1::3, :2] = 0.0  # floored where gold has mass
        predicted /= predicted.sum(axis=1, keepdims=True)
        rows = kl_divergence(gold, predicted)
        assert rows.shape == (8,)
        assert rows.tolist() == [kl_divergence(g, p)
                                 for g, p in zip(gold, predicted)]
        assert np.all(np.isfinite(rows))

    def test_one_non_stochastic_row_rejected(self):
        gold = np.full((3, 2), 0.5)
        predicted = np.full((3, 2), 0.5)
        predicted[1] = [0.7, 0.7]
        with pytest.raises(ValueError):
            kl_divergence(gold, predicted)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert kl_divergence(p, q) >= 0.0


class TestMakeFolds:
    def test_sizes_within_one(self):
        folds = make_folds(["t%d" % i for i in range(23)], 10, rng_seed=1)
        sizes = [len(fold) for fold in folds]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        tokens = ["t%d" % i for i in range(15)]
        a = make_folds(tokens, 5, rng_seed=7)
        b = make_folds(tokens, 5, rng_seed=7)
        assert a == b

    def test_pinned_plan(self):
        # Fold order sets the order of the pooled scores and so the bytes of
        # eval_report.json; these lists pin the plan against a rewrite.
        folds = make_folds(["t%d" % i for i in range(10)], 3, rng_seed=0)
        assert folds == [["t4", "t7", "t9", "t1"], ["t6", "t3", "t0"],
                         ["t2", "t5", "t8"]]

    def test_too_few_tokens(self):
        with pytest.raises(ValueError):
            make_folds(["a", "b"], 3, rng_seed=0)

    @pytest.mark.parametrize("k", [0, 1, -2])
    def test_fewer_than_two_folds_refused(self, k):
        with pytest.raises(ValueError, match="k must be at least 2"):
            make_folds(["t%d" % i for i in range(5)], k, rng_seed=0)

    # numpy used to refuse it with its bare "expected non-negative integer".
    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="^rng_seed must be >= 0$"):
            make_folds(["t%d" % i for i in range(5)], 2, rng_seed=-1)


class TestBaselineExpander:
    def test_majority_is_one_hot_joy(self, ekman):
        store = make_store([[1.0, 0.0]], ["x"])
        run = baseline_expander("majority", HASHTAG_COUNTS)
        (dists,) = run(store, SeedLexicon({}, ekman), [["x"]])
        assert np.array_equal(dists, [[0, 0, 0, 1, 0, 0]])

    def test_prior_joy_component(self, ekman):
        store = make_store([[1.0, 0.0]], ["x"])
        run = baseline_expander("prior", HASHTAG_COUNTS)
        (dists,) = run(store, SeedLexicon({}, ekman), [["x"]])
        dist = dists[0]
        assert dist[3] == pytest.approx(8240 / 21051, abs=1e-4)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self, ekman):
        store = make_store([[1.0, 0.0], [0.0, 1.0]], ["x", "y"])
        folds = [["x"], ["y"]]
        arrays = list(baseline_expander("uniform")(
            store, SeedLexicon({}, ekman), folds))
        assert len(arrays) == 2
        for dists in arrays:
            assert dists.shape == (2, 6)
            assert np.allclose(dists, 1 / 6)

    def test_counts_required(self):
        for kind in ("majority", "prior"):
            with pytest.raises(ValueError):
                baseline_expander(kind)
            with pytest.raises(ValueError):
                baseline_expander(kind, [])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            baseline_expander("oracle")

    # A string or a bool count used to be read as a number, and a negative
    # count to fail only in the KL score, after a divide-by-zero warning.
    @pytest.mark.parametrize("counts, message", [
        (["3", 1], "class count must be a number, not '3'"),
        ([True, 1], "class count must be a number, not True"),
        ([-5, 1], "class counts must be finite and not negative"),
        ([math.inf, 1], "class counts must be finite and not negative"),
        ([0, 0], "class counts must not all be zero")])
    @pytest.mark.parametrize("kind", ["majority", "prior"])
    def test_bad_counts_refused(self, kind, counts, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            baseline_expander(kind, counts)


class TestCrossValidate:
    # The emotion set is the seed's: a call that still passes one fails at
    # the call instead of binding the set to the expander.
    def test_emotion_set_argument_refused(self, ekman):
        store = two_cluster_store(10, dim=4, seed=1)
        seed = two_cluster_seed(store, ekman, 6)
        with pytest.raises(TypeError):
            cross_validate(store, seed, ekman, baseline_expander("uniform"),
                           k=4)

    def test_perfect_expander_scores_zero(self, ekman):
        store = two_cluster_store(10, dim=4, seed=1)
        seed = two_cluster_seed(store, ekman, 6)

        def oracle(store_, seed_, folds):
            dists = np.full((len(store_.vocab), len(seed_.emotions)),
                            1.0 / len(seed_.emotions))
            for t in seed.entries:
                dists[store_.vocab.index[t]] = seed.distribution(t)
            for _ in folds:
                yield dists
        report = cross_validate(store, seed, oracle, k=4, rng_seed=0)
        assert report.overall == 0.0
        assert report.pooled == 0.0

    def test_uniform_on_one_hot_gold_is_ln_m(self, ekman):
        store = two_cluster_store(10, dim=4, seed=2)
        seed = two_cluster_seed(store, ekman, 6)
        report = cross_validate(store, seed,
                                baseline_expander("uniform"), k=4, rng_seed=0)
        assert report.overall == pytest.approx(math.log(6), abs=1e-9)
        assert report.pooled == pytest.approx(math.log(6), abs=1e-9)

    def test_majority_strictly_worst_on_spread_gold(self, ekman):
        store = two_cluster_store(10, dim=4, seed=3)
        seed = two_cluster_seed(store, ekman, 6)
        counts = [4, 0, 0, 8, 0, 0]
        scores = {}
        for kind in ("uniform", "majority", "prior"):
            expander = (baseline_expander(kind) if kind == "uniform"
                        else baseline_expander(kind, counts))
            scores[kind] = cross_validate(store, seed, expander,
                                          k=4, rng_seed=0).overall
        assert scores["majority"] > scores["prior"]
        assert scores["majority"] > scores["uniform"]

    def test_overall_is_mean_of_fold_means(self, ekman):
        store = two_cluster_store(8, dim=4, seed=4)
        seed = two_cluster_seed(store, ekman, 5)
        params = PropagationParams(alpha=4.0, b=-1.0, epsilon=0.05)
        report = cross_validate(store, seed, label_prop_expander(params),
                                k=5, rng_seed=3)
        assert report.overall == pytest.approx(np.mean(report.per_fold),
                                               abs=1e-12)
        assert len(report.per_fold) == 5
        assert report.method == "label-propagation"

    # An integral float is read as its int, so the report is the integer
    # call's; k 3.0 used to fail in the fold slicing with a TypeError.
    def test_integral_float_options_read_as_int(self, ekman):
        store = two_cluster_store(8, dim=4, seed=4)
        seed = two_cluster_seed(store, ekman, 5)
        params = PropagationParams(alpha=4.0, b=-1.0, epsilon=0.05)

        def report(k, rng_seed):
            return cross_validate(store, seed, label_prop_expander(params),
                                  k=k, rng_seed=rng_seed).to_dict()
        floats = report(3.0, 7.0)
        assert floats == report(3, 7)
        assert type(floats["k"]) is int and type(floats["rng_seed"]) is int

    def test_label_prop_beats_uniform_on_clusters(self, ekman):
        store = two_cluster_store(15, dim=6, separation=5.0, seed=5)
        seed = two_cluster_seed(store, ekman, 8)
        params = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.01)
        lp = cross_validate(store, seed, label_prop_expander(params),
                            k=4, rng_seed=0)
        uni = cross_validate(store, seed, baseline_expander("uniform"),
                             k=4, rng_seed=0)
        assert lp.overall < uni.overall

    def test_label_prop_builds_one_operator_per_run(self, ekman, monkeypatch):
        store = two_cluster_store(15, dim=6, separation=5.0, seed=5)
        seed = two_cluster_seed(store, ekman, 10)
        params = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.01)
        builds = []
        build = solver_module.build_transition

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)
        monkeypatch.setattr(solver_module, "build_transition", counting_build)
        expander = label_prop_expander(params)
        report = cross_validate(store, seed, expander, k=10, rng_seed=0)
        assert len(builds) == 1

        # The same folds, each expanded on its own build. Each expansion is
        # a CG solve, certified at the tol it is given: at 1e-13 it agrees
        # with the one factorization for all folds within both error bounds.
        eligible = sorted(seed.entries)
        per_fold = []
        for held_out in make_folds(eligible, 10, 0):
            result = expand(store, without(seed, held_out), params, tol=1e-13)
            per_fold.append(float(np.mean(
                [kl_divergence(seed.distribution(t), result.distribution(t))
                 for t in held_out])))
        assert np.max(np.abs(np.subtract(report.per_fold, per_fold))) <= 1e-12
        assert len(builds) == 11

        # The operator lives as long as the run: a second run on the same
        # expander builds one more.
        cross_validate(store, seed, expander, k=10, rng_seed=0)
        assert len(builds) == 12

    # The graph does not judge the seed split: with every word seeded, each
    # fold's hidden seeds are its only unlabeled rows.
    def test_all_seeded_vocabulary_cross_validates(self, ekman):
        store = two_cluster_store(20, dim=6, separation=2.0, seed=6)
        seed = two_cluster_seed(store, ekman, 20)
        params = PropagationParams(alpha=4.0, b=-1.0, epsilon=0.05)
        report = cross_validate(store, seed, label_prop_expander(params),
                                k=3, rng_seed=0)
        assert len(report.per_fold) == 3
        per_fold = []
        for held_out in make_folds(sorted(seed.entries), 3, 0):
            result = expand(store, without(seed, held_out), params, tol=1e-13)
            per_fold.append(float(np.mean(
                [kl_divergence(seed.distribution(t), result.distribution(t))
                 for t in held_out])))
        assert np.max(np.abs(np.subtract(report.per_fold, per_fold))) <= 1e-12

    # The expander returns every fold's array, so its graph operator is
    # freed before the first fold is scored, whichever solver the folds take.
    @pytest.mark.parametrize("solver", ["closed", "cg"])
    def test_operator_freed_when_expander_returns(self, ekman, monkeypatch,
                                                  solver):
        if solver == "cg":
            monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", 0)
        store = two_cluster_store(15, dim=6, separation=5.0, seed=5)
        seed = two_cluster_seed(store, ekman, 10)
        params = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.01)
        built = []
        build = solver_module.build_transition

        def tracking_build(*args, **kwargs):
            tm = build(*args, **kwargs)
            built.append(weakref.ref(tm))
            return tm
        monkeypatch.setattr(solver_module, "build_transition", tracking_build)
        folds = make_folds(sorted(seed.entries), 10, 0)
        arrays = label_prop_expander(params)(store, seed, folds)
        assert len(built) == 1 and built[0]() is None
        assert len(arrays) == 10

    def test_unconverged_fold_fails(self, ekman, monkeypatch):
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", 0)
        monkeypatch.setattr(solver_module, "MAX_ITER", 1)
        store = two_cluster_store(15, dim=6, separation=5.0, seed=5)
        seed = two_cluster_seed(store, ekman, 8)
        params = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.01)
        expander = label_prop_expander(params)
        with pytest.raises(RuntimeError, match="fold 0") as err:
            cross_validate(store, seed, expander, k=4, rng_seed=0)
        assert isinstance(err.value.__cause__, ConvergenceError)

    # An expander's own error propagates unwrapped, with its own type; a
    # fold's solve names its fold itself.
    def test_expander_failure_names_fold(self, ekman):
        store = two_cluster_store(6, dim=4, seed=6)
        seed = two_cluster_seed(store, ekman, 4)

        def broken(store_, seed_, folds):
            raise ValueError("boom")
        with pytest.raises(ValueError, match="^boom$"):
            cross_validate(store, seed, broken, k=4, rng_seed=0)

    # The ids pair each count with the first fold it leaves wrong.
    @pytest.mark.parametrize("count", [0, 3, 5], ids=["0-0", "3-3", "5-4"])
    def test_wrong_number_of_arrays_names_fold(self, ekman, count):
        store = two_cluster_store(6, dim=4, seed=6)
        seed = two_cluster_seed(store, ekman, 4)
        uniform = baseline_expander("uniform")

        def miscounted(store_, seed_, folds):
            return uniform(store_, seed_, [[]] * count)
        with pytest.raises(RuntimeError, match="^expander returned %d arrays "
                                               "for 4 folds$" % count):
            cross_validate(store, seed, miscounted, k=4, rng_seed=0)

    @pytest.mark.parametrize("shape", [(12, 7), (11, 6), (6,)])
    def test_wrong_shape_names_fold(self, ekman, shape):
        store = two_cluster_store(6, dim=4, seed=6)
        seed = two_cluster_seed(store, ekman, 4)

        def misshaped(store_, seed_, folds):
            for fold in range(len(folds)):
                good = fold != 1
                yield np.full((12, 6) if good else shape,
                              1.0 / (6 if good else shape[-1]))
        with pytest.raises(RuntimeError, match="fold 1"):
            cross_validate(store, seed, misshaped, k=4, rng_seed=0)

    def test_folds_passed_in_order(self, ekman):
        store = two_cluster_store(6, dim=4, seed=6)
        seed = two_cluster_seed(store, ekman, 4)
        seen = []

        def recording(store_, seed_, folds):
            assert seed_ is seed
            seen.extend(folds)
            return baseline_expander("uniform")(store_, seed_, folds)
        cross_validate(store, seed, recording, k=4, rng_seed=2)
        assert seen == make_folds(sorted(seed.entries), 4, 2)


class TestFactorizedFolds:
    """Label-propagation CV solves every fold on one operator: from one
    factorization when the largest fold is within the closed form's
    threshold, and by CG per fold otherwise."""

    @staticmethod
    def setup_run(n_per_cluster=15):
        ekman = EmotionSet()
        store = two_cluster_store(n_per_cluster, dim=6, separation=5.0, seed=5)
        seed = two_cluster_seed(store, ekman, 10)
        params = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.01)
        return store, seed, ekman, params

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
        return calls

    def test_one_gather_and_one_factorization(self, monkeypatch):
        # u = 30 exceeds every other block: l = 20 seeds, |H| = 2.
        store, seed, ekman, params = self.setup_run(n_per_cluster=25)
        u = len(store) - len(seed.entries)
        gathers = []
        gather = TransitionOperator.submatrix

        def counting_gather(self, rows, cols=None):
            block = gather(self, rows, cols)
            gathers.append(block.shape)
            return block
        monkeypatch.setattr(TransitionOperator, "submatrix", counting_gather)
        solves = self.count_calls(monkeypatch, np.linalg, "solve")
        cross_validate(store, seed, label_prop_expander(params), k=10,
                       rng_seed=0)
        assert [s for s in gathers if s[0] == s[1] and s[0] >= u] == [(u, u)]
        shapes = [a.shape for a, _ in solves]
        assert [s for s in shapes if s[0] >= u] == [(u, u)]
        # The other solves are the folds' |H| x |H| systems.
        assert sorted(s[0] for s in shapes if s[0] < u) == [2] * 10

    def test_ill_conditioned_fold_refused(self):
        # The setup of TestClosedForm::test_ill_conditioned_system_refused:
        # epsilon = 0 and a steep kernel, so the cluster opposite the seeds
        # sends them about 1e-26 of its mass in one step.
        rng = np.random.default_rng(6)
        near = np.array([1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=(4, 3))
        far = np.array([-1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=(4, 3))
        store = make_store(np.vstack([near, far]))
        emotions = EmotionSet(["a", "b"])
        seed = SeedLexicon({"w0": np.array([1, 0]), "w1": np.array([0, 1])},
                           emotions)
        params = PropagationParams(alpha=40.0, b=-20.0, epsilon=0.0)
        with pytest.raises(RuntimeError, match="fold 0") as err:
            cross_validate(store, seed, label_prop_expander(params),
                           k=2, rng_seed=0)
        assert isinstance(err.value.__cause__, NumericalDegeneracyError)

    def test_refused_fold_named_by_its_index(self):
        # As above, with a third seed in the far cluster: only the fold that
        # hides it, fold 2 at rng_seed 1, leaves that cluster without mass.
        rng = np.random.default_rng(6)
        near = np.array([1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=(4, 3))
        far = np.array([-1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=(4, 3))
        store = make_store(np.vstack([near, far]))
        emotions = EmotionSet(["a", "b"])
        seed = SeedLexicon({"w0": np.array([1, 0]), "w1": np.array([0, 1]),
                            "w4": np.array([1, 0])}, emotions)
        assert make_folds(list(seed.entries), 3, 1)[2] == ["w4"]
        params = PropagationParams(alpha=40.0, b=-20.0, epsilon=0.0)
        with pytest.raises(NumericalDegeneracyError,
                           match="^fold 2: ") as err:
            cross_validate(store, seed, label_prop_expander(params),
                           k=3, rng_seed=1)
        assert isinstance(err.value.__cause__, NumericalDegeneracyError)

    def test_uncertified_fold_named_by_its_index(self):
        # A tol between the folds' error bounds certifies every fold before
        # the first whose bound exceeds those before it.
        store, seed, ekman, params = self.setup_run()
        label_matrix, _ = init_label_matrix(store.vocab, seed, ekman)
        hidden = [[store.vocab.index[t] for t in held_out]
                  for held_out in make_folds(list(seed.entries), 10, 0)]
        tm = build_transition(store, params, label_matrix.labeled_mask)
        bounds = [report.error_bound for _, report in
                  propagate_folds(tm, label_matrix, hidden, tol=1.0)]
        fold = next(f for f in range(1, 10) if bounds[f] > max(bounds[:f]))
        with pytest.raises(ConvergenceError, match="^fold %d: closed-form "
                           "solve did not converge" % fold) as err:
            cross_validate(store, seed,
                           label_prop_expander(params, tol=max(bounds[:fold])),
                           k=10, rng_seed=0)
        assert isinstance(err.value.__cause__, ConvergenceError)

    # Above the threshold each fold takes CG on the run's operator.
    @pytest.mark.parametrize("solver", ["cg"])
    def test_iterating_solvers_expand_each_fold(self, monkeypatch, solver):
        store, seed, ekman, params = self.setup_run()
        closed = cross_validate(store, seed, label_prop_expander(params),
                                k=10, rng_seed=0)
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", 0)
        builds = self.count_calls(monkeypatch, solver_module,
                                  "build_transition")
        expands = self.count_calls(monkeypatch, evaluate_module, "expand")
        per_fold = self.count_calls(monkeypatch, solver_module,
                                    "propagate_" + solver)
        solves = self.count_calls(monkeypatch, np.linalg, "solve")
        report = cross_validate(store, seed, label_prop_expander(params),
                                k=10, rng_seed=0)
        assert (len(builds), len(expands), len(per_fold)) == (1, 0, 10)
        assert solves == []
        assert np.allclose(report.per_fold, closed.per_fold, atol=1e-5)

    def test_auto_split_follows_threshold(self, monkeypatch):
        store, seed, ekman, params = self.setup_run()
        u = len(store) - len(seed.entries)
        solves = self.count_calls(monkeypatch, np.linalg, "solve")
        per_fold_cg = self.count_calls(monkeypatch, solver_module,
                                       "propagate_cg")

        def factorizations():
            return [a.shape for a, _ in solves if a.shape[0] >= u]
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", u + 2)
        at = cross_validate(store, seed, label_prop_expander(params),
                            k=10, rng_seed=0)
        assert (factorizations(), len(per_fold_cg)) == ([(u, u)], 0)
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", u + 1)
        above = cross_validate(store, seed, label_prop_expander(params),
                               k=10, rng_seed=0)
        assert (factorizations(), len(per_fold_cg)) == ([(u, u)], 10)
        assert np.allclose(at.per_fold, above.per_fold, atol=1e-5)


class TestPerFoldSolves:
    """Folds that do not take the factorization: each is the expansion of
    the seeds without its held-out tokens, solved on the run's operator."""

    # The threshold is the unlabeled count of the all-seeds system, so every
    # fold, which hides at least one seed more, takes CG, as does its
    # expansion. A leak of the held-out labels into the start of the solve
    # would show at the loose tol.
    @pytest.mark.parametrize("solver, tol", [("cg", 1e-6), ("cg", 1e-2)])
    def test_fold_is_expand_without_its_seeds(self, monkeypatch, solver, tol):
        store, seed, ekman, params = TestFactorizedFolds.setup_run()
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED",
                            len(store) - len(seed.entries))
        folds = make_folds(sorted(seed.entries), 10, 0)
        expander = label_prop_expander(params, tol=tol)
        arrays = list(expander(store, seed, folds))
        assert len(arrays) == len(folds)
        for held_out, array in zip(folds, arrays):
            expected = expand(store, without(seed, held_out), params, tol=tol)
            assert expected.report.method == solver
            assert np.array_equal(array, expected.distributions)

    def test_auto_split_across_unequal_folds(self, monkeypatch):
        # 10 seeds in 4 folds hide 3, 3, 2 and 2 of them; the threshold
        # admits the folds that hide 2 but not those that hide 3, so no
        # factorization serves every fold, and each fold takes CG, as its
        # expansion does.
        store, _, ekman, params = TestFactorizedFolds.setup_run()
        seed = two_cluster_seed(store, ekman, 5)
        folds = make_folds(sorted(seed.entries), 4, 0)
        assert [len(held_out) for held_out in folds] == [3, 3, 2, 2]
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED",
                            len(store) - len(seed.entries) + 2)
        label_matrix, _ = init_label_matrix(store.vocab, seed, ekman)
        tm = build_transition(store, params, label_matrix.labeled_mask)
        hidden = [[store.vocab.index[t] for t in held_out]
                  for held_out in folds]
        methods = [report.method for _, report in
                   propagate_folds(tm, label_matrix, hidden)]
        assert methods == ["cg"] * 4
        assert methods == [expand(store, without(seed, held_out),
                                  params).report.method
                           for held_out in folds]


class TestCountClassify:
    def test_direct_counts(self):
        lexicon = {"sun": np.array([0.0, 1.0]), "sky": np.array([0.0, 1.0]),
                   "dark": np.array([1.0, 0.0])}
        dist, flag = count_classify(["sun", "sky", "dark"], lexicon, 2)
        assert np.allclose(dist, [1 / 3, 2 / 3])
        assert not flag

    def test_split_flags_contribute_fractions(self):
        lexicon = {"mixed": np.array([0.5, 0.5, 0.0])}
        dist, _ = count_classify(["mixed"], lexicon, 3)
        assert np.allclose(dist, [0.5, 0.5, 0.0])

    def test_no_hits_uniform_with_flag(self):
        dist, flag = count_classify(["nothing", "here"], {}, 4)
        assert np.allclose(dist, 0.25)
        assert flag

    def test_repeated_token_counted_each_time(self):
        lexicon = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        dist, _ = count_classify(["a", "a", "b"], lexicon, 2)
        assert np.allclose(dist, [2 / 3, 1 / 3])


class TestLoadCorpus:
    def test_fixture_parses(self, ekman):
        corpus = load_corpus(data_path("mini_corpus.tsv"), ekman)
        assert len(corpus) == 5
        assert corpus[0] == ("joy", ["love", "love", "table"])

    def test_unknown_label(self, tmp_path, ekman):
        path = tmp_path / "bad.tsv"
        path.write_text("serenity\tcalm words\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(str(path), ekman)
        assert err.value.line_no == 1

    # Blank lines are skipped, and still count in line numbers.
    def test_blank_lines_skipped(self, tmp_path, ekman):
        path = tmp_path / "bad.tsv"
        path.write_text("\njoy\tgood day\n\nserenity\tcalm\n",
                        encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(str(path), ekman)
        assert err.value.line_no == 4

    def test_crlf_tolerated(self, tmp_path, ekman):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(b"joy\tgood day\r\n\r\nfear\tdark\r\n")
        assert load_corpus(str(path), ekman) == [("joy", ["good", "day"]),
                                                 ("fear", ["dark"])]

    def test_missing_tab(self, tmp_path, ekman):
        path = tmp_path / "bad.tsv"
        path.write_text("joy no tab separator here\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_corpus(str(path), ekman)


class TestCorpusLexiconStats:
    @pytest.fixture
    def stats(self, ekman):
        seed = load_seed_lexicon(data_path("mini_nrc.tsv"), ekman)
        corpus = load_corpus(data_path("mini_corpus.tsv"), ekman)
        return corpus_lexicon_stats(corpus, seed)

    def test_labels_per_lemma_histogram(self, stats):
        assert stats["labels_per_lemma"] == {"0": 2, "1": 1, "2": 1, "3": 1,
                                             "4": 1, "5": 1, "6": 1}

    def test_average_labels_per_lemma(self, stats):
        assert stats["avg_labels_per_lemma"] == pytest.approx(21 / 8, abs=1e-12)

    def test_lexicon_class_counts(self, stats):
        assert stats["lexicon_class_counts"] == {"anger": 4, "disgust": 4,
                                                 "fear": 4, "joy": 2,
                                                 "sadness": 4, "surprise": 3}

    def test_corpus_class_counts(self, stats):
        assert stats["corpus_class_counts"] == {"anger": 1, "disgust": 0,
                                                "fear": 1, "joy": 2,
                                                "sadness": 1, "surprise": 0}

    def test_emotion_words_per_text(self, stats):
        assert stats["emotion_words_per_text"] == {"0": 1, "1": 2, "2": 2}
        assert stats["avg_emotion_words_per_text"] == pytest.approx(1.2)
        assert stats["texts_without_emotion_words"] == 1

    def test_top_emotion_words(self, stats):
        top = stats["top_emotion_words"]
        assert top[0] == {"frequency": 3, "token": "love", "labels": ["joy"]}
        assert stats["lemmas_occurring"] == 4
        assert stats["avg_emotion_word_frequency"] == pytest.approx(1.5)

    def test_empty_corpus(self, ekman):
        seed = load_seed_lexicon(data_path("mini_nrc.tsv"), ekman)
        stats = corpus_lexicon_stats([], seed)
        assert stats["emotion_words_per_text"] == {}
        assert stats["avg_emotion_words_per_text"] == 0.0
        assert stats["top_emotion_words"] == []


class TestMicroPrf:
    def test_single_label_collapses_to_accuracy(self):
        metrics = micro_prf(["joy", "fear", "joy"], ["joy", "joy", "joy"])
        assert metrics == {"precision": 2 / 3, "recall": 2 / 3, "f1": 2 / 3}

    def test_empty(self):
        assert micro_prf([], []) == {"precision": 0.0, "recall": 0.0,
                                     "f1": 0.0}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            micro_prf(["joy"], [])
