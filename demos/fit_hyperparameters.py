"""Fit edge-weight hyperparameters by entropy minimization.

Runs the full-graph gradient descent and the subsampled batch variant on
the same synthetic instance and shows that both land on nearly the same
(alpha, b, epsilon) and that the fitted expansion is much more confident
than the initial one.
"""

import numpy as np

from emolex import (EmotionSet, PropagationParams, SeedLexicon, entropy,
                    expand, fit_batched, fit_full)
from emolex.embeddings import EmbeddingStore, Vocabulary
from emolex.optimize import OptimizerConfig


def instance(n_per_cluster=50, dim=6, rng_seed=10):
    rng = np.random.default_rng(rng_seed)
    a = rng.normal(0.0, 0.5, size=(n_per_cluster, dim))
    a[:, 0] += 4.0
    b = rng.normal(0.0, 0.5, size=(n_per_cluster, dim))
    b[:, 0] -= 4.0
    words = (["a%d" % i for i in range(n_per_cluster)]
             + ["b%d" % i for i in range(n_per_cluster)])
    store = EmbeddingStore(Vocabulary(words), np.vstack([a, b]))
    entries = {}
    for i in range(10):
        entries["a%d" % i] = [0, 0, 0, 1, 0, 0]
        entries["b%d" % i] = [1, 0, 0, 0, 0, 0]
    return store, SeedLexicon(entries, EmotionSet())


def report(tag, params, store, seed):
    result = expand(store, seed, params)
    h = entropy(result.distributions[~result.labeled_mask])
    alpha = float(np.mean(params.alpha))
    print("%-8s alpha=%7.3f  b=%7.3f  epsilon=%.4f  unlabeled entropy=%8.3f"
          % (tag, alpha, params.b, params.epsilon, h))


def main():
    store, seed = instance()
    init = {"alpha": 3.0, "b": 0.0, "epsilon": 0.1}
    report("init", PropagationParams(alpha=init["alpha"], b=init["b"],
                                     epsilon=init["epsilon"]),
           store, seed)

    full_cfg = OptimizerConfig(mode="full", learning_rate=0.5, epochs=150,
                               init=init)
    full_params, trace = fit_full(store, seed, full_cfg)
    report("full", full_params, store, seed)

    batch_cfg = OptimizerConfig(mode="batch", learning_rate=0.5,
                                batch_size=40, num_batches=50,
                                epochs_per_batch=3, rng_seed=0, init=init)
    batch_params, _ = fit_batched(store, seed, batch_cfg)
    report("batch", batch_params, store, seed)

    print()
    print("full-fit objective every 30 epochs:")
    for i in range(0, len(trace.entropies), 30):
        print("  epoch %3d  mean entropy %.4f" % (i, trace.entropies[i]))


if __name__ == "__main__":
    main()
