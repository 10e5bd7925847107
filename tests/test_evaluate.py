import math

import numpy as np
import pytest

import emolex.solver as solver_module
from emolex import (ConvergenceError, EmotionSet, PropagationParams,
                    baseline_expander, corpus_lexicon_stats, count_classify,
                    cross_validate, expand, kl_divergence,
                    label_prop_expander, load_corpus, load_seed_lexicon,
                    make_folds, micro_prf)
from emolex.evaluate import CorpusFormatError

from conftest import data_path, make_store, two_cluster_seed, two_cluster_store

HASHTAG_COUNTS = [1555, 761, 2816, 8240, 3830, 3849]


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


class TestBaselineExpander:
    def test_majority_is_one_hot_joy(self, ekman):
        store = make_store([[1.0, 0.0]], ["x"])
        run = baseline_expander("majority", HASHTAG_COUNTS)
        assert np.array_equal(run(store, None, ekman), [[0, 0, 0, 1, 0, 0]])

    def test_prior_joy_component(self, ekman):
        store = make_store([[1.0, 0.0]], ["x"])
        run = baseline_expander("prior", HASHTAG_COUNTS)
        dist = run(store, None, ekman)[0]
        assert dist[3] == pytest.approx(8240 / 21051, abs=1e-4)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self, ekman):
        store = make_store([[1.0, 0.0], [0.0, 1.0]], ["x", "y"])
        dists = baseline_expander("uniform")(store, None, ekman)
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


class TestCrossValidate:
    def test_perfect_expander_scores_zero(self, ekman):
        store = two_cluster_store(10, dim=4, seed=1)
        seed = two_cluster_seed(store, ekman, 6)

        def oracle(store_, train, emotions_):
            dists = np.full((len(store_.vocab), len(emotions_)),
                            1.0 / len(emotions_))
            for t in seed.entries:
                dists[store_.vocab.index[t]] = seed.distribution(t)
            return dists
        report = cross_validate(store, seed, ekman, oracle, k=4, rng_seed=0)
        assert report.overall == 0.0
        assert report.pooled == 0.0

    def test_uniform_on_one_hot_gold_is_ln_m(self, ekman):
        store = two_cluster_store(10, dim=4, seed=2)
        seed = two_cluster_seed(store, ekman, 6)
        report = cross_validate(store, seed, ekman,
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
            scores[kind] = cross_validate(store, seed, ekman, expander,
                                          k=4, rng_seed=0).overall
        assert scores["majority"] > scores["prior"]
        assert scores["majority"] > scores["uniform"]

    def test_overall_is_mean_of_fold_means(self, ekman):
        store = two_cluster_store(8, dim=4, seed=4)
        seed = two_cluster_seed(store, ekman, 5)
        params = PropagationParams(alpha=4.0, b=-1.0, epsilon=0.05)
        report = cross_validate(store, seed, ekman,
                                label_prop_expander(params, solver="closed"),
                                k=5, rng_seed=3)
        assert report.overall == pytest.approx(np.mean(report.per_fold),
                                               abs=1e-12)
        assert len(report.per_fold) == 5
        assert report.method == "label-propagation"

    def test_label_prop_beats_uniform_on_clusters(self, ekman):
        store = two_cluster_store(15, dim=6, separation=5.0, seed=5)
        seed = two_cluster_seed(store, ekman, 8)
        params = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.01)
        lp = cross_validate(store, seed, ekman,
                            label_prop_expander(params, solver="closed"),
                            k=4, rng_seed=0)
        uni = cross_validate(store, seed, ekman, baseline_expander("uniform"),
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
        expander = label_prop_expander(params, solver="closed")
        report = cross_validate(store, seed, ekman, expander, k=10, rng_seed=0)
        assert len(builds) == 1

        # The same folds, each expanded on its own build.
        eligible = sorted(seed.entries)
        per_fold = []
        for held_out in make_folds(eligible, 10, 0):
            train = seed.subset(set(eligible) - set(held_out))
            result = expand(store, train, ekman, params, solver="closed")
            per_fold.append(float(np.mean(
                [kl_divergence(seed.distribution(t), result.distribution(t))
                 for t in held_out])))
        assert report.per_fold == per_fold
        assert len(builds) == 11

        # The operator lives as long as the expander: a second run on the
        # same expander builds nothing.
        cross_validate(store, seed, ekman, expander, k=10, rng_seed=0)
        assert len(builds) == 11

    def test_unconverged_fold_fails(self, ekman):
        store = two_cluster_store(15, dim=6, separation=5.0, seed=5)
        seed = two_cluster_seed(store, ekman, 8)
        params = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.01)
        expander = label_prop_expander(params, solver="iterative", max_iter=1)
        with pytest.raises(RuntimeError, match="fold 0") as err:
            cross_validate(store, seed, ekman, expander, k=4, rng_seed=0)
        assert isinstance(err.value.__cause__, ConvergenceError)

    def test_expander_failure_names_fold(self, ekman):
        store = two_cluster_store(6, dim=4, seed=6)
        seed = two_cluster_seed(store, ekman, 4)

        def broken(store_, train, emotions_):
            raise ValueError("boom")
        with pytest.raises(RuntimeError, match="fold 0"):
            cross_validate(store, seed, ekman, broken, k=4, rng_seed=0)


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
