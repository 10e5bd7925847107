"""Independent numpy reference for the benchmark's err_digits.

Written from the method's definition, not from the program's code: a
tanh-form logistic edge weight, column-then-row normalization, epsilon
smoothing towards the uniform matrix, and the clamped harmonic solution by
np.linalg.solve. Everything works in vocabulary order with boolean masks.
"""

import numpy as np

FLOOR = 1e-12
SELF_CHECK_TOL = 1e-10


def unit(vectors):
    return vectors / np.linalg.norm(vectors, axis=1)[:, None]


def logistic(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def transition(unit_vectors, alpha, b, epsilon):
    """Dense smoothed transition matrix of the cosine-logistic graph."""
    t = logistic(alpha * (unit_vectors @ unit_vectors.T) + b)
    t /= t.sum(axis=0)[None, :]
    t /= t.sum(axis=1)[:, None]
    t *= 1.0 - epsilon
    t += epsilon / t.shape[0]
    return t


def harmonic(t, labeled, y_l):
    """Unlabeled rows of Y = T Y with the labeled rows clamped to y_l."""
    u = ~labeled
    system = -t[np.ix_(u, u)]
    system[np.diag_indices_from(system)] += 1.0
    return np.linalg.solve(system, t[np.ix_(u, labeled)] @ y_l)


def unrolled_entropy(t, labeled, y_l, steps):
    """Mean per-row entropy after `steps` clamped sweeps from uniform rows."""
    u = ~labeled
    a = t[np.ix_(u, u)]
    b_mat = t[np.ix_(u, labeled)] @ y_l
    y = np.full((a.shape[0], y_l.shape[1]), 1.0 / y_l.shape[1])
    for _ in range(steps):
        y = a @ y + b_mat
    pos = y > 0
    return float(-np.sum(y[pos] * np.log(y[pos])) / a.shape[0])


def kl(gold, predicted):
    pos = gold > 0
    return float(np.sum(gold[pos] * np.log(gold[pos] / np.maximum(predicted[pos], FLOOR))))


def cross_validate_kl(inputs, params, k, rng_seed):
    """Per-fold mean KL(gold || predicted) of k-fold label propagation.

    Folds are a seeded permutation of the sorted in-vocabulary seed tokens,
    dealt round-robin. The transition matrix does not depend on which rows
    are labeled, so it is built once.
    """
    index = {w: i for i, w in enumerate(inputs.words)}
    tokens = sorted(t for t in inputs.seed_flags if t in index)
    order = np.random.default_rng(rng_seed).permutation(len(tokens))
    fold_of = {tokens[j]: i % k for i, j in enumerate(order)}
    gold = {t: inputs.seed_flags[t] / inputs.seed_flags[t].sum() for t in tokens}
    t = transition(unit(inputs.vectors), params["alpha"], params["b"],
                   params["epsilon"])
    per_fold = []
    for fold in range(k):
        labeled = np.zeros(len(inputs.words), dtype=bool)
        train = [tok for tok in tokens if fold_of[tok] != fold]
        labeled[[index[tok] for tok in train]] = True
        y_l = np.array([gold[tok] for tok in sorted(train, key=index.get)])
        y_u = harmonic(t, labeled, y_l)
        row_of = {i: r for r, i in enumerate(np.flatnonzero(~labeled))}
        held = [tok for tok in tokens if fold_of[tok] == fold]
        per_fold.append(np.mean([kl(gold[tok], y_u[row_of[index[tok]]])
                                 for tok in held]))
    return np.array(per_fold)


def self_check(emolex, n=60, seed=12345):
    """Max deviation of harmonic() from the program's closed form on a small
    graph; the reference is trusted only when it is within SELF_CHECK_TOL."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, 8))
    vectors[: n // 2, 0] += 3.0
    words = ["s%d" % i for i in range(n)]
    store = emolex.EmbeddingStore(emolex.Vocabulary(words), vectors)
    emotions = emolex.EmotionSet()
    entries = {}
    for i in range(0, n, 5):
        flags = np.zeros(len(emotions), dtype=np.int64)
        flags[i % len(emotions)] = 1
        entries[words[i]] = flags
    seed_lex = emolex.SeedLexicon(entries, emotions)
    params = emolex.PropagationParams(alpha=8.0, b=-4.0, epsilon=0.02)
    labels, _ = emolex.init_label_matrix(store.vocab, seed_lex, emotions)
    tm = emolex.build_transition(store, params, labels.labeled_mask)
    solved, _ = emolex.propagate_closed_form(tm, labels)
    mask = labels.labeled_mask
    t = transition(unit(vectors), 8.0, -4.0, 0.02)
    y_u = harmonic(t, mask, labels.rows[mask])
    return float(np.max(np.abs(solved.rows[~mask] - y_u)))
