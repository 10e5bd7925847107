"""Label propagation solvers: clamped fixed-point iteration and the
closed-form linear solve, plus the end-to-end expansion entry point."""

from dataclasses import dataclass, field

import numpy as np

from .graph import NumericalDegeneracyError, build_transition
from .lexicon import LabelMatrix, init_label_matrix

# Closed form is auto-selected below this many unlabeled nodes; above it the
# u x u factorization becomes the expensive path.
CLOSED_FORM_MAX_UNLABELED = 2000


@dataclass
class SolveReport:
    method: str
    iterations: int
    final_delta: float
    residual: float
    converged: bool = True

    def to_dict(self):
        return {"method": self.method, "iterations": self.iterations,
                "final_delta": self.final_delta, "residual": self.residual,
                "converged": self.converged}


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
    gathered from the operator by that mask. Fails with a diagnostic when
    (I - T_uu) is singular or the solve is numerically degenerate (possible
    only at epsilon = 0 with a component disconnected in probability from
    the labeled set).
    """
    labeled = label_matrix.labeled_mask
    if not np.any(labeled):
        raise ValueError("need at least one labeled row")
    unlabeled = np.flatnonzero(~labeled)
    y = label_matrix.rows.copy()
    if unlabeled.size == 0:
        return LabelMatrix(y, labeled), SolveReport("closed-form", 0, 0.0, 0.0)
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
    if not np.all(np.isfinite(y_u)) or np.linalg.cond(system) > 1e12:
        raise NumericalDegeneracyError(
            "(I - T_uu) is ill-conditioned; consider epsilon smoothing")
    y[unlabeled] = y_u
    report = SolveReport("closed-form", 1, 0.0, _residual(tm, y, ~labeled))
    return LabelMatrix(y, labeled), report


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
           tol=1e-6, max_iter=1000):
    """End-to-end expansion: init Y, build the transition operator, solve,
    and return token -> distribution for every vocabulary word.

    Seed rows pass through unchanged. `solver` is "iterative", "closed", or
    "auto" (closed form when the unlabeled count is small).
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

    tm = build_transition(store, params, label_matrix.labeled_mask)
    if solver == "auto":
        n_unlabeled = len(store.vocab) - label_matrix.n_labeled
        solver = "closed" if n_unlabeled <= CLOSED_FORM_MAX_UNLABELED else "iterative"
    if solver == "closed":
        solved, report = propagate_closed_form(tm, label_matrix)
    elif solver == "iterative":
        solved, report = propagate_iterative(tm, label_matrix, tol=tol,
                                             max_iter=max_iter)
    else:
        raise ValueError("unknown solver %r" % solver)
    return ExpansionResult(store.vocab, emotions, solved.rows,
                           solved.labeled_mask, params, report, missing)
