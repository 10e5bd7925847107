import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from emolex import (EKMAN_SIX, EmotionSet, LabelMatrix, SeedLexicon,
                    Vocabulary, init_label_matrix, load_seed_lexicon,
                    seed_to_distribution, write_lexicon_json,
                    write_lexicon_tsv)
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

    # Blank lines are skipped, and still count in line numbers.
    def test_blank_lines_skipped(self, tmp_path, ekman):
        path = tmp_path / "seed.tsv"
        path.write_text("\nw\tfear\t1\n\nbad\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError) as err:
            load_seed_lexicon(str(path), ekman)
        assert err.value.line_no == 4

    def test_crlf_tolerated(self, tmp_path, ekman):
        path = tmp_path / "seed.tsv"
        path.write_bytes(b"w\tfear\t1\r\n\r\nv\tjoy\t1\r\n")
        seed = load_seed_lexicon(str(path), ekman)
        assert np.array_equal(seed.entries["w"], [0, 0, 1, 0, 0, 0])
        assert np.array_equal(seed.entries["v"], [0, 0, 0, 1, 0, 0])

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

    # The reversed set used to relabel an anger seed as surprise, and a set
    # of another length failed with a broadcast error.
    @pytest.mark.parametrize("names", [EKMAN_SIX[::-1], EKMAN_SIX[:5],
                                       EKMAN_SIX + ("trust",)])
    def test_mismatched_emotion_set_refused(self, tmp_path, ekman, names):
        vocab = Vocabulary(["a", "b"])
        seed = load_seed_lexicon(write_tsv(tmp_path, [("a", "anger", 1)]),
                                 ekman)
        with pytest.raises(ValueError, match="does not match the seed"):
            init_label_matrix(vocab, seed, EmotionSet(names))
        lm, _ = init_label_matrix(vocab, seed, EmotionSet(EKMAN_SIX))
        assert np.array_equal(lm.rows[0], [1, 0, 0, 0, 0, 0])


class TestSeedLexicon:
    @pytest.mark.parametrize("flags, message", [
        ([1, 0, 0], "flag vector for 'w' has wrong length"),
        ([0] * 6, "entry 'w' has no positive flag")])
    def test_malformed_entry_refused(self, ekman, flags, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            SeedLexicon({"w": flags}, ekman)


class TestLabelMatrix:
    @pytest.mark.parametrize("rows, mask, message", [
        ([0.5, 0.5], [True], "inconsistent label matrix shapes"),
        ([[0.5, 0.5]], [True, False], "inconsistent label matrix shapes"),
        ([[1.5, -0.5]], [True], "negative probability component"),
        ([[0.5, 0.4]], [True], "rows must sum to 1")])
    def test_malformed_rows_refused(self, rows, mask, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            LabelMatrix(rows, mask)


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

    # A bare string used to become the set of its letters.
    @pytest.mark.parametrize("names", ["joy", ["joy", 1], {"joy": 1}])
    def test_not_a_list_of_names_rejected(self, names):
        with pytest.raises(ValueError, match="^emotions must be a list of "
                           "names, not %s$" % re.escape(repr(names))):
            EmotionSet(names)


def reference_tsv(fh, tokens, distributions, emotions, labeled):
    fh.write("token\t" + "\t".join(emotions.names) + "\tsource\n")
    for token, row, flag in zip(tokens, distributions, labeled):
        fh.write("%s\t%s\t%s\n" % (token, "\t".join("%.17g" % p for p in row),
                                   "labeled" if flag else "propagated"))


def reference_json(fh, tokens, distributions, emotions, labeled):
    json.dump({"emotions": list(emotions.names),
               "entries": [{"token": token,
                            "distribution": [float(p) for p in row],
                            "source": "labeled" if flag else "propagated"}
                           for token, row, flag
                           in zip(tokens, distributions, labeled)]},
              fh, indent=2, sort_keys=True)
    fh.write("\n")


WRITERS = [(write_lexicon_tsv, reference_tsv),
           (write_lexicon_json, reference_json)]
# Tokens and emotion names with quotes, backslashes, control characters
# and non-ASCII text; probabilities with 0, 1 and subnormals.
NAMES = (st.text(min_size=1, max_size=6)
         | st.sampled_from(['"', "\\", '\\"x', "\u00e9\u4e2d", "\U0001f600",
                            "\x00\x1f"]))
PROBABILITIES = (st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072009e-308,
                                  1e-310, 0.1, 1.0 / 3.0])
                 | st.floats(0.0, 1.0))


@st.composite
def lexicons(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    tokens = draw(st.lists(NAMES, min_size=0, max_size=6, unique=True))
    values = draw(st.lists(PROBABILITIES, min_size=len(tokens) * len(names),
                           max_size=len(tokens) * len(names)))
    labeled = draw(st.lists(st.booleans(), min_size=len(tokens),
                            max_size=len(tokens)))
    return (tokens, np.array(values).reshape(len(tokens), len(names)),
            EmotionSet(names), labeled)


class TestWriters:
    @pytest.mark.parametrize("writer, reference", WRITERS)
    @given(lexicon=lexicons())
    def test_bytes_of_the_reference_format(self, tmp_path_factory, writer,
                                           reference, lexicon):
        tokens, distributions, emotions, labeled = lexicon
        directory = tmp_path_factory.mktemp("lexicon")
        written, expected = directory / "written", directory / "expected"
        writer(str(written), Vocabulary(tokens), distributions, emotions,
               labeled)
        with open(expected, "w", encoding="utf-8") as fh:
            reference(fh, tokens, distributions, emotions, labeled)
        assert written.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("writer", [w for w, _ in WRITERS])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, tmp_path, writer, value):
        path = tmp_path / "lexicon"
        distributions = np.array([[0.5, 0.5], [0.25, 0.75], [value, 0.5]])
        with pytest.raises(ValueError, match="non-finite probability for "
                                             "token 'storm'"):
            writer(str(path), Vocabulary(["calm", "wind", "storm"]),
                   distributions, EmotionSet(["a", "b"]), [True, False, False])
        assert not path.exists()
