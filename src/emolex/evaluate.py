"""Cross-validated KL scoring, baseline expanders, the count-based
classifier, and corpus/lexicon statistics."""

import collections
from dataclasses import asdict, dataclass, field

import numpy as np

from .embeddings import FormatError
from .graph import integer, real
# `expand` is not called here; the bench hooks it until it reads a run log.
from .solver import TOL, expand, expand_folds

PREDICTION_FLOOR = 1e-12


class CorpusFormatError(FormatError):
    """A malformed corpus file."""


def kl_divergence(gold, predicted):
    """KL(gold || predicted) with PREDICTION_FLOOR under predicted components.

    Works row-wise over the last axis: a float for one distribution, an
    array of per-row values for a stack of them. Gold-first direction
    penalizes missing mass on true classes; zero gold components contribute
    nothing (0 ln 0 := 0, and their log is never taken).
    """
    gold = np.asarray(gold, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if gold.shape != predicted.shape:
        raise ValueError("distribution length mismatch")
    for dist in (gold, predicted):
        if not (np.all(dist >= 0)
                and np.all(abs(dist.sum(axis=-1) - 1.0) <= 1e-6)):
            raise ValueError("inputs must be probability distributions")
    ratio = np.divide(gold, np.maximum(predicted, PREDICTION_FLOOR),
                      out=np.ones_like(gold), where=gold > 0)
    kl = np.sum(gold * np.log(ratio), axis=-1)
    return float(kl) if kl.ndim == 0 else kl


def check_folds(k, rng_seed):
    """(k, rng_seed) as ints; refuses a value that is not an integer, fewer
    than two folds or a negative fold seed."""
    k, rng_seed = integer("k", k), integer("rng_seed", rng_seed)
    if k < 2:
        raise ValueError("k must be at least 2")
    if rng_seed < 0:
        raise ValueError("rng_seed must be >= 0")
    return k, rng_seed


def make_folds(tokens, k, rng_seed):
    """Seeded shuffle into k token lists whose sizes differ by at most one.

    Fold f holds the sorted tokens at positions f, f + k, f + 2k, ... of one
    seeded permutation, in that order.
    """
    k, rng_seed = check_folds(k, rng_seed)
    tokens = sorted(tokens)
    if len(tokens) < k:
        raise ValueError("need at least k seed tokens")
    order = np.random.default_rng(rng_seed).permutation(len(tokens))
    return [[tokens[j] for j in order[f::k]] for f in range(k)]


@dataclass
class EvalReport:
    method: str
    per_fold: list
    overall: float
    pooled: float
    k: int
    rng_seed: int
    params: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def label_prop_expander(params, tol=TOL):
    """Expander running label propagation with fixed parameters.

    Each run is `expand_folds`: one graph operator serves every fold of the
    run and is freed when the run returns its k arrays. A fold whose solve
    is refused or not certified within tol raises NumericalDegeneracyError
    or ConvergenceError, its message prefixed "fold <f>: ".
    """
    def run(store, seed, folds):
        return expand_folds(store, seed, params, folds, tol=tol)
    run.label = "label-propagation"
    run.params = params.to_dict()
    return run


def baseline_expander(kind, class_counts=None):
    """Constant-distribution expanders: uniform, majority class, or prior.

    class_counts (per-emotion counts in emotion order) is required for the
    majority and prior kinds; majority ties break by emotion order. A count
    that is not a number, or is negative or infinite, is refused, and so
    are counts that sum to zero.
    """
    if kind not in ("uniform", "majority", "prior"):
        raise ValueError("unknown baseline kind %r" % kind)
    if kind != "uniform":
        if class_counts is None or len(class_counts) == 0:
            raise ValueError("%s baseline requires class counts" % kind)
        class_counts = np.array([real("class count", count)
                                 for count in class_counts], dtype=np.float64)
        if not np.all((class_counts >= 0) & np.isfinite(class_counts)):
            raise ValueError("class counts must be finite and not negative")
        if class_counts.sum() == 0:
            raise ValueError("class counts must not all be zero")

    def run(store, seed, folds):
        m = len(seed.emotions)
        if kind == "uniform":
            dist = np.full(m, 1.0 / m)
        elif kind == "majority":
            dist = np.zeros(m)
            dist[int(np.argmax(class_counts))] = 1.0
        else:
            dist = class_counts / class_counts.sum()
        return [np.broadcast_to(dist, (len(store.vocab), m))] * len(folds)
    run.label = kind
    run.params = {}
    return run


def cross_validate(store, seed, expander, *, k=10, rng_seed=0):
    """Hide each fold's seed labels in turn, expand, and score the hidden
    tokens' predictions against their gold distributions with KL divergence.

    An expander is called once per run, as expander(store, seed, folds)
    with the k lists of held-out tokens of `make_folds`, and returns k
    (len(store), m) arrays of distributions in vocabulary order, in fold
    order, m being the number of the seed's emotions: fold f's array must
    not depend on the labels of its held-out tokens. Only seed tokens
    present in the vocabulary participate. Reports per-fold means, the mean
    of fold means, and the pooled per-word mean. An expander's own error
    propagates; a count of arrays other than k, or an array of the wrong
    shape, raises RuntimeError, naming the fold for the shape.
    """
    k, rng_seed = check_folds(k, rng_seed)
    eligible = [t for t in seed.entries if t in store.vocab]
    folds = make_folds(eligible, k, rng_seed)
    arrays = list(expander(store, seed, folds))
    if len(arrays) != k:
        raise RuntimeError("expander returned %d arrays for %d folds"
                           % (len(arrays), k))
    shape = (len(store), len(seed.emotions))
    per_fold = []
    pooled = []
    for fold, (held_out, predictions) in enumerate(zip(folds, arrays)):
        if np.shape(predictions) != shape:
            raise RuntimeError("expander returned a %s array for fold %d, "
                               "expected %s" % (np.shape(predictions), fold,
                                                shape))
        rows = [store.vocab.index[t] for t in held_out]
        scores = kl_divergence([seed.distribution(t) for t in held_out],
                               predictions[rows])
        per_fold.append(float(np.mean(scores)))
        pooled.extend(scores)
    return EvalReport(getattr(expander, "label", "custom"), per_fold,
                      float(np.mean(per_fold)), float(np.mean(pooled)),
                      k, rng_seed, getattr(expander, "params", {}))


def count_classify(tokens, lexicon, m):
    """Count-based emotion distribution of a token sequence.

    `lexicon` maps token -> distribution over m classes; each hit adds its
    distribution to the class counts. Texts without any lexicon hit get the
    uniform distribution and a no-evidence flag.
    """
    counts = np.zeros(m)
    hits = 0
    for token in tokens:
        dist = lexicon.get(token)
        if dist is not None:
            counts += dist
            hits += 1
    if hits == 0:
        return np.full(m, 1.0 / m), True
    return counts / counts.sum(), False


def load_corpus(path, emotions):
    """Corpus TSV of "label<TAB>text" rows; text tokenized on whitespace."""
    texts = []
    with open(path, encoding="utf-8", newline=None) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise CorpusFormatError("expected 'label<TAB>text'", line_no)
            label, text = parts
            if label not in emotions:
                raise CorpusFormatError("unknown label %r" % label, line_no)
            texts.append((label, text.split()))
    return texts


def corpus_lexicon_stats(corpus, seed):
    """Descriptive statistics of a labeled corpus against a seed lexicon.

    Covers class distributions (corpus and lexicon), the labels-per-lemma
    histogram over all lexicon tokens (neutral ones included), the
    emotion-words-per-text histogram, top-frequency emotion words, and the
    average label count per lemma.
    """
    emotions = seed.emotions
    corpus_class_counts = collections.Counter(label for label, _ in corpus)

    lexicon_class_counts = {name: 0 for name in emotions}
    labels_per_lemma = collections.Counter()
    for token, flags in seed.entries.items():
        labels_per_lemma[int(flags.sum())] += 1
        for i, name in enumerate(emotions):
            lexicon_class_counts[name] += int(flags[i])
    labels_per_lemma[0] = len(seed.neutral_tokens)
    total_lemmas = len(seed.entries) + len(seed.neutral_tokens)
    total_labels = sum(int(f.sum()) for f in seed.entries.values())

    emotion_word_freq = collections.Counter()
    words_per_text = collections.Counter()
    for _, tokens in corpus:
        hits = 0
        for token in tokens:
            if token in seed.entries:
                emotion_word_freq[token] += 1
                hits += 1
        words_per_text[hits] += 1

    n_texts = len(corpus)
    total_hits = sum(emotion_word_freq.values())
    occurring = len(emotion_word_freq)
    top = [(count, token, [emotions.names[i]
                           for i in np.flatnonzero(seed.entries[token])])
           for token, count in emotion_word_freq.most_common(10)]

    return {
        "corpus_class_counts": {name: corpus_class_counts.get(name, 0)
                                for name in emotions},
        "lexicon_class_counts": lexicon_class_counts,
        "labels_per_lemma": {str(k): labels_per_lemma[k]
                             for k in sorted(labels_per_lemma)},
        "avg_labels_per_lemma": (total_labels / total_lemmas
                                 if total_lemmas else 0.0),
        "emotion_words_per_text": {str(k): words_per_text[k]
                                   for k in sorted(words_per_text)},
        "avg_emotion_words_per_text": (total_hits / n_texts if n_texts else 0.0),
        "texts_without_emotion_words": words_per_text.get(0, 0),
        "lemmas_occurring": occurring,
        "avg_emotion_word_frequency": (total_hits / occurring
                                       if occurring else 0.0),
        "top_emotion_words": [{"frequency": c, "token": t, "labels": labs}
                              for c, t, labs in top],
    }


def micro_prf(gold_labels, predicted_labels):
    """Micro-averaged precision/recall/F1; with single-label classification
    of every text the three coincide with accuracy."""
    if len(gold_labels) != len(predicted_labels):
        raise ValueError("label list length mismatch")
    if not gold_labels:
        return {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    correct = sum(g == p for g, p in zip(gold_labels, predicted_labels))
    acc = correct / len(gold_labels)
    return {"precision": acc, "recall": acc, "f1": acc}
