import numpy as np
import pytest
from hypothesis import given, strategies as st

from emolex import (EmotionSet, Vocabulary, init_label_matrix,
                    load_seed_lexicon, seed_to_distribution)
from emolex.lexicon import LexiconFormatError


def write_tsv(tmp_path, rows, name="seed.tsv"):
    path = tmp_path / name
    path.write_text("".join("%s\t%s\t%s\n" % r for r in rows), encoding="utf-8")
    return str(path)


class TestLoadSeedLexicon:
    def test_out_of_set_emotions_ignored(self, tmp_path, ekman):
        path = write_tsv(tmp_path, [("abandon", "fear", 1), ("abandon", "joy", 0),
                                    ("abandon", "trust", 1)])
        seed = load_seed_lexicon(path, ekman)
        assert np.array_equal(seed.entries["abandon"], [0, 0, 1, 0, 0, 0])

    def test_all_zero_flags_become_neutral(self, tmp_path, ekman):
        path = write_tsv(tmp_path, [("thing", "joy", 0), ("thing", "fear", 0)])
        seed = load_seed_lexicon(path, ekman)
        assert "thing" not in seed
        assert "thing" in seed.neutral_tokens

    def test_conflicting_duplicate_is_error(self, tmp_path, ekman):
        path = write_tsv(tmp_path, [("w", "fear", 1), ("w", "fear", 0)])
        with pytest.raises(LexiconFormatError, match="conflicting"):
            load_seed_lexicon(path, ekman)

    def test_repeated_consistent_row_ok(self, tmp_path, ekman):
        path = write_tsv(tmp_path, [("w", "fear", 1), ("w", "fear", 1)])
        seed = load_seed_lexicon(path, ekman)
        assert np.array_equal(seed.entries["w"], [0, 0, 1, 0, 0, 0])

    def test_bad_flag_value(self, tmp_path, ekman):
        path = write_tsv(tmp_path, [("w", "fear", 2)])
        with pytest.raises(LexiconFormatError, match="0 or 1"):
            load_seed_lexicon(path, ekman)

    def test_malformed_row(self, tmp_path, ekman):
        path = tmp_path / "bad.tsv"
        path.write_text("just-one-field\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError) as err:
            load_seed_lexicon(str(path), ekman)
        assert err.value.line_no == 1


class TestSeedToDistribution:
    def test_two_positive_flags(self):
        dist = seed_to_distribution([1, 0, 1, 0, 0, 0])
        assert np.allclose(dist, [0.5, 0, 0.5, 0, 0, 0])

    def test_one_hot(self):
        assert np.array_equal(seed_to_distribution([0, 0, 0, 1, 0, 0]),
                              [0, 0, 0, 1, 0, 0])

    def test_all_positive_is_uniform(self):
        assert np.allclose(seed_to_distribution([1] * 6), np.full(6, 1 / 6))

    def test_all_zero_is_error(self):
        with pytest.raises(ValueError):
            seed_to_distribution([0, 0, 0])

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=8).filter(any),
           st.randoms())
    def test_permutation_equivariance(self, flags, rnd):
        perm = list(range(len(flags)))
        rnd.shuffle(perm)
        base = seed_to_distribution(flags)
        permuted = seed_to_distribution([flags[p] for p in perm])
        assert np.allclose(permuted, [base[p] for p in perm])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=10).filter(any))
    def test_stochastic(self, flags):
        dist = seed_to_distribution(flags)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist >= 0)


class TestInitLabelMatrix:
    def test_single_seed(self, tmp_path, ekman):
        vocab = Vocabulary(["a", "b", "c", "d"])
        path = write_tsv(tmp_path, [("b", "joy", 1)])
        seed = load_seed_lexicon(path, ekman)
        lm, missing = init_label_matrix(vocab, seed, ekman)
        assert missing == 0
        assert np.array_equal(lm.rows[1], [0, 0, 0, 1, 0, 0])
        assert np.allclose(lm.rows[[0, 2, 3]], 1 / 6)
        assert list(lm.labeled_mask) == [False, True, False, False]

    def test_empty_seed(self, tmp_path, ekman):
        vocab = Vocabulary(["a", "b"])
        path = write_tsv(tmp_path, [("a", "joy", 0)])
        seed = load_seed_lexicon(path, ekman)
        lm, missing = init_label_matrix(vocab, seed, ekman)
        assert not lm.labeled_mask.any()
        assert np.allclose(lm.rows, 1 / 6)

    def test_missing_seed_tokens_counted(self, tmp_path, ekman):
        vocab = Vocabulary(["a"])
        path = write_tsv(tmp_path, [("a", "joy", 1), ("zzz", "fear", 1)])
        seed = load_seed_lexicon(path, ekman)
        lm, missing = init_label_matrix(vocab, seed, ekman)
        assert missing == 1
        assert lm.n_labeled == 1

    def test_rows_stochastic(self, tmp_path, ekman):
        vocab = Vocabulary(["a", "b", "c"])
        path = write_tsv(tmp_path, [("a", "joy", 1), ("a", "fear", 1),
                                    ("c", "anger", 1)])
        seed = load_seed_lexicon(path, ekman)
        lm, _ = init_label_matrix(vocab, seed, ekman)
        assert np.allclose(lm.rows.sum(axis=1), 1.0, atol=1e-9)


class TestEmotionSet:
    def test_default_is_alphabetical_ekman(self, ekman):
        assert ekman.names == ("anger", "disgust", "fear", "joy",
                               "sadness", "surprise")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            EmotionSet(("joy", "joy"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmotionSet(())
