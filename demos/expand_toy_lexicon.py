"""Expand a tiny seed lexicon over synthetic word embeddings.

Two gaussian clusters stand in for a "joyful" and an "angry" region of
embedding space. A handful of seed words per cluster is enough for label
propagation to push the right distribution onto every other word.
"""

import numpy as np

from emolex import EmotionSet, PropagationParams, SeedLexicon, expand
from emolex.embeddings import EmbeddingStore, Vocabulary


def synthetic_store(n_per_cluster=20, dim=8, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    sunny = rng.normal(0.0, 0.5, size=(n_per_cluster, dim))
    sunny[:, 0] += 4.0
    grim = rng.normal(0.0, 0.5, size=(n_per_cluster, dim))
    grim[:, 0] -= 4.0
    words = (["sunny_%d" % i for i in range(n_per_cluster)]
             + ["grim_%d" % i for i in range(n_per_cluster)])
    return EmbeddingStore(Vocabulary(words), np.vstack([sunny, grim]))


def main():
    store = synthetic_store()
    seed = SeedLexicon({"sunny_0": [0, 0, 0, 1, 0, 0],
                        "sunny_1": [0, 0, 0, 1, 0, 0],
                        "grim_0": [1, 0, 0, 0, 0, 0],
                        "grim_1": [1, 1, 0, 0, 0, 0]}, EmotionSet())
    params = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.02)

    result = expand(store, seed, params)
    print("solver: %s, iterations: %s, residual: %.2e, error bound: %.2e" % (
        result.report.method, result.report.iterations,
        result.report.residual, result.report.error_bound))
    print()
    print("%-10s %-10s %s" % ("word", "argmax", "distribution"))
    for word in ("sunny_0", "sunny_7", "sunny_15", "grim_0", "grim_7",
                 "grim_15"):
        dist = result.distribution(word)
        print("%-10s %-10s %s" % (
            word, result.argmax_label(word),
            " ".join("%.3f" % p for p in dist)))


if __name__ == "__main__":
    main()
