"""Label propagation solvers: clamped fixed-point iteration and the
closed-form linear solve, plus the end-to-end expansion entry point."""

from dataclasses import dataclass, field

import numpy as np

from .graph import NumericalDegeneracyError, build_transition
from .lexicon import LabelMatrix, init_label_matrix

# Closed form is auto-selected below this many unlabeled nodes; above it the
# u x u factorization becomes the expensive path.
CLOSED_FORM_MAX_UNLABELED = 2000

# The closed form refuses (I - T_uu) when the bound on its infinity-norm
# condition number exceeds this.
MAX_CONDITION = 1e12


@dataclass
class SolveReport:
    """How a solve went. `cond_bound` and `min_labeled_mass` are set by the
    closed form only: the condition bound it checked and the smallest
    one-step probability mass of an unlabeled row onto the seeds."""

    method: str
    iterations: int
    final_delta: float
    residual: float
    converged: bool = True
    cond_bound: float = None
    min_labeled_mass: float = None

    def to_dict(self):
        d = {"method": self.method, "iterations": self.iterations,
             "final_delta": self.final_delta, "residual": self.residual,
             "converged": self.converged}
        if self.cond_bound is not None:
            d["cond_bound"] = self.cond_bound
            d["min_labeled_mass"] = self.min_labeled_mass
        return d


def _residual(tm, y, unlabeled):
    """Max-abs violation of Y_U = (T Y)_U."""
    if not np.any(unlabeled):
        return 0.0
    return float(np.max(np.abs(y[unlabeled] - tm.apply(y)[unlabeled])))


def propagate_iterative(tm, label_matrix, tol=1e-6, max_iter=1000):
    """Repeat Y <- T Y, then clamp the labeled rows again.

    The labeled/unlabeled partition is the LabelMatrix's mask; the operator
    does not depend on it. Stops when the max-abs change of a sweep drops
    below tol. Rows are re-normalized each sweep to cap floating-point drift
    (a guard, not an algorithm change). Labeled rows are returned bit-equal
    to the input.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    labeled = label_matrix.labeled_mask
    if not np.any(labeled):
        raise ValueError("need at least one labeled row")
    seeds = label_matrix.labeled_rows
    y = label_matrix.rows.copy()

    iterations = 0
    delta = np.inf
    converged = False
    while iterations < max_iter:
        new = tm.apply(y)
        new /= new.sum(axis=1, keepdims=True)
        new[labeled] = seeds
        delta = float(np.max(np.abs(new - y)))
        y = new
        iterations += 1
        if delta < tol:
            converged = True
            break

    report = SolveReport("iterative", iterations, delta,
                         _residual(tm, y, ~labeled), converged)
    return LabelMatrix(y, labeled), report


def propagate_closed_form(tm, label_matrix):
    """Solve Y_U = (I - T_uu)^{-1} T_ul Y_L by factorization.

    The labeled/unlabeled partition is the LabelMatrix's mask; T_uu is
    gathered from the operator by that mask. The system is checked in O(n^2)
    before it is factored: T is row-stochastic, so the mass m_i = (T 1_L)_i
    an unlabeled row sends to the seeds in one step is 1 - sum_j (T_uu)_ij,
    ||(I - T_uu)^{-1}||_inf <= 1 / min m and the infinity-norm condition
    number is at most (2 - min m) / min m. Fails with a diagnostic when that
    bound exceeds MAX_CONDITION, when (I - T_uu) is singular, or when the
    solution is not finite (possible only at epsilon = 0 with a component
    disconnected in probability from the labeled set).
    """
    labeled = label_matrix.labeled_mask
    if not np.any(labeled):
        raise ValueError("need at least one labeled row")
    unlabeled = np.flatnonzero(~labeled)
    y = label_matrix.rows.copy()
    if unlabeled.size == 0:
        return LabelMatrix(y, labeled), SolveReport("closed-form", 0, 0.0, 0.0)
    mass = float(np.min(tm.apply(labeled[:, None].astype(np.float64))[unlabeled]))
    cond_bound = (2.0 - mass) / mass if mass > 0 else np.inf
    if not cond_bound <= MAX_CONDITION:
        raise NumericalDegeneracyError(
            "(I - T_uu) is ill-conditioned: condition bound %.3g, minimum "
            "labeled mass %.3g; consider epsilon smoothing" % (cond_bound, mass))
    y[unlabeled] = 0.0
    rhs = tm.apply(y)[unlabeled]
    system = tm.submatrix(unlabeled)
    np.negative(system, out=system)
    system[np.diag_indices_from(system)] += 1.0
    try:
        y_u = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(
            "(I - T_uu) is singular; epsilon = 0 with a component disconnected "
            "in probability from the labeled set") from exc
    if not np.all(np.isfinite(y_u)):
        raise NumericalDegeneracyError(
            "(I - T_uu) is ill-conditioned; consider epsilon smoothing")
    y[unlabeled] = y_u
    report = SolveReport("closed-form", 1, 0.0, _residual(tm, y, ~labeled),
                         cond_bound=cond_bound, min_labeled_mass=mass)
    return LabelMatrix(y, labeled), report


def solve(tm, label_matrix, solver="auto", tol=1e-6, max_iter=1000):
    """Propagate `label_matrix` on `tm`; returns (LabelMatrix, SolveReport).

    `solver` is "iterative", "closed", or "auto": the closed form up to
    CLOSED_FORM_MAX_UNLABELED unlabeled rows, the iterative solver above.
    """
    if solver == "auto":
        n_unlabeled = tm.n - label_matrix.n_labeled
        solver = "closed" if n_unlabeled <= CLOSED_FORM_MAX_UNLABELED else "iterative"
    if solver == "closed":
        return propagate_closed_form(tm, label_matrix)
    if solver == "iterative":
        return propagate_iterative(tm, label_matrix, tol=tol, max_iter=max_iter)
    raise ValueError("unknown solver %r" % solver)


class OperatorCache:
    """Keeps the last transition operator built through it.

    The operator depends on the store and the params, never on the seeds, so
    expansions of one store with different seed sets (the folds of a
    cross-validation) can all solve on one build. The old operator is
    dropped before a new one is built, so the cache never holds two.
    """

    def __init__(self):
        self.clear()

    def get(self, store, params, labeled_mask):
        if self._store is not store or self._params is not params:
            self.clear()
            self._tm = build_transition(store, params, labeled_mask)
            self._store, self._params = store, params
        return self._tm

    def clear(self):
        self._store = self._params = self._tm = None


@dataclass
class ExpansionResult:
    """Per-word distributions for the whole vocabulary plus run provenance."""

    vocab: object
    emotions: object
    distributions: np.ndarray
    labeled_mask: np.ndarray
    params: object
    report: SolveReport
    seed_tokens_missing: int = 0
    extra: dict = field(default_factory=dict)

    def distribution(self, token):
        return self.distributions[self.vocab.index[token]]

    def argmax_label(self, token):
        return self.emotions.names[int(np.argmax(self.distribution(token)))]

    def sidecar(self):
        return {"params": self.params.to_dict(), "solve": self.report.to_dict(),
                "seed_tokens_missing": self.seed_tokens_missing, **self.extra}


def expand(store, seed, emotions=None, params=None, solver="auto",
           tol=1e-6, max_iter=1000, cache=None):
    """End-to-end expansion: init Y, build the transition operator, solve,
    and return token -> distribution for every vocabulary word.

    Seed rows pass through unchanged. `solver` is passed to `solve`. With an
    OperatorCache as `cache`, the operator comes from it, and is built only
    if the cache holds none for this store and params.
    """
    if emotions is None:
        emotions = seed.emotions
    if params is None:
        raise ValueError("propagation params are required")
    label_matrix, missing = init_label_matrix(store.vocab, seed, emotions)
    if label_matrix.n_labeled == 0:
        raise ValueError("no seed token is present in the vocabulary")

    if label_matrix.n_labeled == len(store.vocab):
        # Empty U: nothing to propagate, pass seed rows through.
        report = SolveReport("closed-form", 0, 0.0, 0.0)
        return ExpansionResult(store.vocab, emotions, label_matrix.rows,
                               label_matrix.labeled_mask, params, report, missing)

    if cache is None:
        tm = build_transition(store, params, label_matrix.labeled_mask)
    else:
        tm = cache.get(store, params, label_matrix.labeled_mask)
    solved, report = solve(tm, label_matrix, solver, tol, max_iter)
    return ExpansionResult(store.vocab, emotions, solved.rows,
                           solved.labeled_mask, params, report, missing)
