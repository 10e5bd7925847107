import os
import re

import numpy as np
import pytest

import emolex.graph as graph
from emolex import (EmbeddingStore, EmotionSet, PropagationParams,
                    SeedLexicon, Vocabulary)
from emolex.graph import _weight_kernel

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA_DIR, name)


def make_store(vectors, words=None):
    vectors = np.asarray(vectors, dtype=np.float64)
    if words is None:
        words = ["w%d" % i for i in range(vectors.shape[0])]
    return EmbeddingStore(Vocabulary(words), vectors)


def dense_weights(x, params):
    """W over the rows of `x` as one n x n array, from one GEMM of the weight
    kernel's factors: the dense reference for the operator's panels."""
    left, right, transform = _weight_kernel(x, params)
    return transform(left @ right.T)


def kept_weights(tm):
    """The n x n W of an operator, rebuilt from its panels and their
    mirror, so the diagonal blocks come from the panels alone."""
    w = np.empty((tm.n, tm.n))
    for rows, panel in tm.panels():
        w[rows, rows.start:] = panel
        w[rows.stop:, rows] = panel[:, len(panel):].T
    return w


def keep_panels(monkeypatch, n, kept=0):
    """Set `graph._KEEP_BYTES` through `monkeypatch` so that an operator on
    n rows keeps its first `kept` panels and recomputes the others, at the
    block and panel sizes in force; returns that budget in bytes."""
    step = graph._PANEL_BLOCKS * graph.row_blocks(n)[0].stop
    budget = sum(8 * (min(start + step, n) - start) * (n - start)
                 for start in range(0, min(kept * step, n), step))
    monkeypatch.setattr(graph, "_KEEP_BYTES", budget)
    return budget


class DenseOperator:
    """The transition operator of an n x n W with T formed whole: the
    reference for the panel operator in the solvers and the fit, on which
    `propagate_folds` takes the same paths."""

    def __init__(self, w, epsilon):
        self.w, self.epsilon, self.n = w, epsilon, len(w)
        self.diagonal = np.diagonal(w)
        self.col = w.sum(axis=0)
        self.row = (w / self.col).sum(axis=1)
        self.t = ((1.0 - epsilon) * w / self.col / self.row[:, None]
                  + epsilon / self.n)

    def apply(self, y):
        return self.t @ y

    def apply_transpose(self, y):
        return self.t.T @ y

    def w_product(self, v):
        return self.w @ v

    def submatrix(self, rows, cols=None):
        return self.t[np.ix_(rows, rows if cols is None else cols)]


# The kernel parameters of the benchmark's workloads.
MIXTURE_PARAMS = PropagationParams(alpha=8.0, b=-4.0, epsilon=0.02)


def mixture_instance(n, emotions, seed=7):
    """A store and seed lexicon like the benchmark's: n words in d = 100
    drawn from one Gaussian component per emotion around equal-norm
    centers, a tenth of them seeded with their component's emotion."""
    rng = np.random.default_rng(seed)
    m, dim = len(emotions), 100
    centers = rng.normal(size=(m, dim))
    centers *= np.sqrt(dim) / np.linalg.norm(centers, axis=1)[:, None]
    component = rng.permutation(np.arange(n) % m)
    store = make_store(centers[component] + rng.normal(size=(n, dim)))
    flags = np.eye(m, dtype=np.int64)
    seeded = rng.choice(n, size=n // 10, replace=False)
    seed = SeedLexicon({"w%d" % i: flags[component[i]] for i in seeded},
                       emotions)
    return store, seed


def two_cluster_store(n_per_cluster, dim=10, separation=6.0, seed=0,
                      spread=0.5):
    """Two well-separated gaussian clusters; words c0_* and c1_*."""
    rng = np.random.default_rng(seed)
    c0 = rng.normal(0.0, spread, size=(n_per_cluster, dim))
    c1 = rng.normal(0.0, spread, size=(n_per_cluster, dim))
    c0[:, 0] += separation
    c1[:, 0] -= separation
    words = (["c0_%d" % i for i in range(n_per_cluster)]
             + ["c1_%d" % i for i in range(n_per_cluster)])
    return make_store(np.vstack([c0, c1]), words)


def two_cluster_seed(store, emotions, n_seeds_per_cluster,
                     labels=("joy", "anger")):
    entries = {}
    m = len(emotions)
    for cluster, label in enumerate(labels):
        flags = np.zeros(m, dtype=np.int64)
        flags[emotions.index[label]] = 1
        for i in range(n_seeds_per_cluster):
            entries["c%d_%d" % (cluster, i)] = flags
    return SeedLexicon(entries, emotions)


# A full fit from this init at learning rate 3e3 for 40 epochs reaches a
# graph that expand refuses (see `refused_fit_instance`).
REFUSED_FIT_INIT = {"alpha": 20.0, "b": -10.0, "epsilon": 0.01}

# On the instance of store seed 3, a full fit from REFUSED_FIT_INIT at this
# rate for 40 epochs reaches alpha 22.752, b -4.541 and epsilon 5.9e-65: a
# condition bound within MAX_CONDITION, but a system that every solver of
# expand refuses or does not certify.
UNCERTIFIED_FIT_SEED, UNCERTIFIED_FIT_RATE = 3, 1e4


def refused_fit_instance(emotions, store_seed=1):
    """Two clusters of 15 words and four seeds in cluster 0, anger and joy
    in turn."""
    store = two_cluster_store(15, dim=5, separation=3.0, seed=store_seed)
    entries = {}
    for i, label in enumerate(["anger", "joy"] * 2):
        flags = np.zeros(len(emotions), dtype=np.int64)
        flags[emotions.index[label]] = 1
        entries["c0_%d" % i] = flags
    return store, SeedLexicon(entries, emotions)


@pytest.fixture
def ekman():
    return EmotionSet()


ACCEPTANCE_TITLES = {
    1: "edge-weight formula reproduction",
    2: "closed-form and iterative solver agreement",
    3: "analytic gradients match finite differences",
    4: "batch optimization approximates full-graph fit",
    5: "cluster recovery from sparse seeds",
    6: "baseline cross-validation analytics",
    7: "corpus and lexicon statistics reproduction",
    8: "byte-identical reruns",
    9: "real-data expansion beats uniform baseline",
}
_RANK = {"SKIP": 0, "PASS": 1, "FAIL": 2}
_acceptance_results = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::.*test_criterion_(\d+)_",
                  report.nodeid)
    if not m:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        outcome = ("SKIP" if report.skipped
                   else "PASS" if report.passed else "FAIL")
        num = int(m.group(1))
        prev = _acceptance_results.get(num, "SKIP")
        if _RANK[outcome] >= _RANK[prev]:
            _acceptance_results[num] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(ACCEPTANCE_TITLES):
        outcome = _acceptance_results.get(num, "SKIP")
        terminalreporter.write_line(
            "criterion %d (%s): %s" % (num, ACCEPTANCE_TITLES[num], outcome))
