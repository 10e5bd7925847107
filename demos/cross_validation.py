"""Score lexicon expansion against constant baselines with k-fold CV.

Each fold hides part of the seed lexicon, re-expands, and measures the KL
divergence from the hidden gold distributions. Label propagation should
beat all three constant baselines on a clustered instance.
"""

import numpy as np

from emolex import (EmotionSet, PropagationParams, SeedLexicon,
                    baseline_expander, cross_validate, label_prop_expander)
from emolex.embeddings import EmbeddingStore, Vocabulary


def instance(n_per_cluster=30, dim=6, rng_seed=3):
    rng = np.random.default_rng(rng_seed)
    a = rng.normal(0.0, 0.5, size=(n_per_cluster, dim))
    a[:, 0] += 4.0
    b = rng.normal(0.0, 0.5, size=(n_per_cluster, dim))
    b[:, 0] -= 4.0
    words = (["a%d" % i for i in range(n_per_cluster)]
             + ["b%d" % i for i in range(n_per_cluster)])
    store = EmbeddingStore(Vocabulary(words), np.vstack([a, b]))
    entries = {}
    for i in range(12):
        entries["a%d" % i] = [0, 0, 0, 1, 0, 0]
        entries["b%d" % i] = [1, 0, 0, 0, 0, 0]
    return store, SeedLexicon(entries, EmotionSet())


def main():
    store, seed = instance()
    class_counts = [12, 0, 0, 12, 0, 0]
    params = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.02)

    expanders = [
        baseline_expander("uniform"),
        baseline_expander("majority", class_counts),
        baseline_expander("prior", class_counts),
        label_prop_expander(params),
    ]
    print("%-22s %12s %12s" % ("expander", "mean KL", "pooled KL"))
    print("-" * 48)
    for expander in expanders:
        report = cross_validate(store, seed, expander, k=6, rng_seed=0)
        print("%-22s %12.4f %12.4f" % (report.method, report.overall,
                                       report.pooled))


if __name__ == "__main__":
    main()
