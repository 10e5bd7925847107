"""Seed lexicon parsing, flag-to-distribution conversion, label matrix setup."""

import json

import numpy as np

from .embeddings import FormatError

EKMAN_SIX = ("anger", "disgust", "fear", "joy", "sadness", "surprise")


class LexiconFormatError(FormatError):
    """A malformed seed lexicon file."""


class EmotionSet:
    """Ordered set of class labels; the order fixes distribution components."""

    def __init__(self, names=EKMAN_SIX):
        names = tuple(names)
        if not names:
            raise ValueError("emotion set must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("emotion names must be unique")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name):
        return name in self.index

    def __eq__(self, other):
        return isinstance(other, EmotionSet) and self.names == other.names


class SeedLexicon:
    """Gold word -> emotion-flag entries, plus the neutral tokens seen in the file.

    `entries` maps each token with at least one in-set flag to its 0/1 flag
    vector. Tokens that appeared in the source file but have no positive
    in-set flag are kept in `neutral_tokens`: they become ordinary unlabeled
    graph nodes, and corpus statistics still need to count them.
    """

    def __init__(self, entries, emotions, neutral_tokens=()):
        self.emotions = emotions
        self.entries = {}
        for token, flags in entries.items():
            flags = np.asarray(flags, dtype=np.int64)
            if flags.shape != (len(emotions),):
                raise ValueError("flag vector for %r has wrong length" % token)
            if not np.any(flags):
                raise ValueError("entry %r has no positive flag" % token)
            self.entries[token] = flags
        self.neutral_tokens = set(neutral_tokens)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, token):
        return token in self.entries

    def distribution(self, token):
        return seed_to_distribution(self.entries[token])

    def subset(self, tokens):
        """A new lexicon restricted to `tokens` (used for cross-validation folds)."""
        keep = {t: f for t, f in self.entries.items() if t in tokens}
        return SeedLexicon(keep, self.emotions, self.neutral_tokens)


def seed_to_distribution(flags):
    """Spread probability mass uniformly over the positive flags."""
    flags = np.asarray(flags, dtype=np.float64)
    k = flags.sum()
    if k <= 0:
        raise ValueError("at least one positive flag required")
    return flags / k


def load_seed_lexicon(path, emotions):
    """Parse an NRC-style TSV of "token<TAB>emotion<TAB>{0|1}" rows.

    Rows for emotions outside `emotions` are ignored. Tokens whose in-set
    flags are all zero end up in `neutral_tokens` rather than in `entries`.
    Contradictory duplicate rows for the same (token, emotion) are errors.
    """
    flags = {}
    seen_pairs = {}
    with open(path, encoding="utf-8", newline=None) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise LexiconFormatError("expected 3 tab-separated fields", line_no)
            token, emotion, value = parts
            if value not in ("0", "1"):
                raise LexiconFormatError("flag must be 0 or 1, got %r" % value, line_no)
            flag = int(value)
            prev = seen_pairs.get((token, emotion))
            if prev is not None and prev != flag:
                raise LexiconFormatError(
                    "conflicting duplicate row for (%s, %s)" % (token, emotion), line_no)
            seen_pairs[(token, emotion)] = flag
            if token not in flags:
                flags[token] = np.zeros(len(emotions), dtype=np.int64)
            if emotion in emotions:
                flags[token][emotions.index[emotion]] = flag

    entries = {t: f for t, f in flags.items() if np.any(f)}
    neutral = {t for t, f in flags.items() if not np.any(f)}
    return SeedLexicon(entries, emotions, neutral)


class LabelMatrix:
    """(l+u) x m distributions in vocabulary order, with a labeled-row mask."""

    def __init__(self, rows, labeled_mask):
        rows = np.asarray(rows, dtype=np.float64)
        labeled_mask = np.asarray(labeled_mask, dtype=bool)
        if rows.ndim != 2 or labeled_mask.shape != (rows.shape[0],):
            raise ValueError("inconsistent label matrix shapes")
        if np.any(rows < 0):
            raise ValueError("negative probability component")
        if not np.allclose(rows.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("rows must sum to 1")
        self.rows = rows
        self.labeled_mask = labeled_mask

    @property
    def n_labeled(self):
        return int(self.labeled_mask.sum())

    @property
    def labeled_rows(self):
        return self.rows[self.labeled_mask]


def init_label_matrix(vocab, seed, emotions=None):
    """Initial Y: seed distributions on labeled rows, uniform 1/m elsewhere.

    Returns (LabelMatrix, missing) where `missing` counts seed tokens absent
    from the vocabulary (reported, not fatal: they cannot be graph nodes).
    """
    if emotions is None:
        emotions = seed.emotions
    m = len(emotions)
    n = len(vocab)
    rows = np.full((n, m), 1.0 / m)
    mask = np.zeros(n, dtype=bool)
    missing = 0
    for token in seed.entries:
        i = vocab.index.get(token)
        if i is None:
            missing += 1
            continue
        rows[i] = seed.distribution(token)
        mask[i] = True
    return LabelMatrix(rows, mask), missing


def write_lexicon_tsv(path, vocab, distributions, emotions, labeled_mask):
    """Expanded-lexicon TSV: header naming the emotion order, one row per token.

    Seed rows pass through unchanged and are flagged "labeled"; the rest are
    flagged "propagated".
    """
    distributions = np.asarray(distributions)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("token\t" + "\t".join(emotions.names) + "\tsource\n")
        for i, token in enumerate(vocab):
            probs = "\t".join("%.17g" % p for p in distributions[i])
            source = "labeled" if labeled_mask[i] else "propagated"
            fh.write("%s\t%s\t%s\n" % (token, probs, source))


def write_lexicon_json(path, vocab, distributions, emotions, labeled_mask):
    """JSON export mirroring the TSV fields."""
    distributions = np.asarray(distributions)
    payload = {
        "emotions": list(emotions.names),
        "entries": [
            {
                "token": token,
                "distribution": [float(p) for p in distributions[i]],
                "source": "labeled" if labeled_mask[i] else "propagated",
            }
            for i, token in enumerate(vocab)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
