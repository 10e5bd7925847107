"""Label propagation solvers: clamped fixed-point iteration, the
closed-form linear solve and preconditioned conjugate gradients, plus the
end-to-end expansion entry point."""

from dataclasses import asdict, dataclass

import numpy as np

from .graph import NumericalDegeneracyError, build_transition
from .lexicon import LabelMatrix, init_label_matrix

# Closed form is auto-selected below this many unlabeled nodes; above it the
# u x u factorization becomes the expensive path.
CLOSED_FORM_MAX_UNLABELED = 2000

# The closed form refuses (I - T_uu) when the bound on its infinity-norm
# condition number exceeds this.
MAX_CONDITION = 1e12


class ConvergenceError(RuntimeError):
    """The solve ended without certifying its result within tol."""


@dataclass
class SolveReport:
    """How a solve went.

    `error_bound` bounds the max-abs error of the returned unlabeled rows:
    their residual divided by `min_labeled_mass`, the smallest one-step
    probability mass of an unlabeled row onto the seeds. `converged` means
    that bound is within the solve's tol. `cond_bound`, the condition bound
    the closed form checks before it factors, is set by that method only.
    """

    method: str
    iterations: int
    residual: float
    converged: bool
    error_bound: float
    min_labeled_mass: float
    cond_bound: float = None

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


def _residual(tm, y, unlabeled):
    """Max-abs violation of Y_U = (T Y)_U."""
    return float(np.max(np.abs(y[unlabeled] - tm.apply(y)[unlabeled])))


def _labeled_mass(tm, labeled):
    """The smallest one-step mass m_i = (T 1_L)_i of an unlabeled row onto
    the seeds.

    T is row-stochastic, so m_i = 1 - sum_j (T_uu)_ij and
    ||(I - T_uu)^{-1}||_inf <= 1 / min m: a solution of the unlabeled system
    with residual r is within r / min m of the exact one, and the fixed-point
    sweep contracts by 1 - min m. Raises when min m is not positive, since
    then no bound holds.
    """
    mass = float(np.min(tm.apply(labeled[:, None].astype(np.float64))[~labeled]))
    if not mass > 0:
        raise NumericalDegeneracyError(
            "(I - T_uu) is ill-conditioned: an unlabeled row sends %.3g of its "
            "mass to the seeds; consider epsilon smoothing" % mass)
    return mass


def _certified(method, iterations, residual, mass, tol, **extra):
    bound = residual / mass
    return SolveReport(method, iterations, residual, bound <= tol, bound,
                       mass, **extra)


def _check_inputs(label_matrix, tol, max_iter=1):
    """The input contract of every solver: a positive tol, at least one
    iteration for the solvers that iterate, and at least one labeled and one
    unlabeled row."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 < label_matrix.n_labeled < len(label_matrix.rows):
        raise ValueError("need at least one labeled and one unlabeled row")


def propagate_iterative(tm, label_matrix, tol=1e-6, max_iter=1000):
    """Repeat Y <- T Y, then clamp the labeled rows again.

    The labeled/unlabeled partition is the LabelMatrix's mask; the operator
    does not depend on it. The sweep contracts the error by rho = 1 - min m
    (see `_labeled_mass`), so a sweep that changes Y by delta leaves it
    within delta * rho / (1 - rho) of the fixed point; the loop stops once
    that is at most tol. Rows are re-normalized each sweep to cap
    floating-point drift (a guard, not an algorithm change). Labeled rows
    are returned bit-equal to the input.
    """
    _check_inputs(label_matrix, tol, max_iter)
    labeled = label_matrix.labeled_mask
    seeds = label_matrix.labeled_rows
    y = label_matrix.rows.copy()
    mass = _labeled_mass(tm, labeled)
    contraction = (1.0 - mass) / mass

    iterations = 0
    while iterations < max_iter:
        new = tm.apply(y)
        new /= new.sum(axis=1, keepdims=True)
        new[labeled] = seeds
        delta = float(np.max(np.abs(new - y)))
        y = new
        iterations += 1
        if delta * contraction <= tol:
            break

    report = _certified("iterative", iterations, _residual(tm, y, ~labeled),
                        mass, tol)
    return LabelMatrix(y, labeled), report


def propagate_closed_form(tm, label_matrix, tol=1e-6):
    """Solve Y_U = (I - T_uu)^{-1} T_ul Y_L by factorization.

    The labeled/unlabeled partition is the LabelMatrix's mask; T_uu is
    gathered from the operator by that mask. The system is checked in O(n^2)
    before it is factored: with m = T 1_L (see `_labeled_mass`) the
    infinity-norm condition number is at most (2 - min m) / min m. Fails
    with a diagnostic when that bound exceeds MAX_CONDITION, when
    (I - T_uu) is singular, or when the solution is not finite (possible
    only at epsilon = 0 with a component disconnected in probability from
    the labeled set). `tol` only decides whether the error bound of the
    solution counts as converged.
    """
    _check_inputs(label_matrix, tol)
    labeled = label_matrix.labeled_mask
    unlabeled = np.flatnonzero(~labeled)
    y = label_matrix.rows.copy()
    mass = _labeled_mass(tm, labeled)
    cond_bound = (2.0 - mass) / mass
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
    report = _certified("closed-form", 1, _residual(tm, y, ~labeled), mass,
                        tol, cond_bound=cond_bound)
    return LabelMatrix(y, labeled), report


def propagate_cg(tm, label_matrix, tol=1e-6, max_iter=1000):
    """Solve (I - T_uu) Y_U = T_ul Y_L by Jacobi-preconditioned conjugate
    gradients, without gathering T_uu.

    With B = I - (1 - eps) D_r^-1 W_uu D_c^-1 the system is
    B y - (eps/n) 1 1^T y = rhs. Substituting y = D_c x and multiplying by
    D_r turns B y = b into A x = D_r b with A = D_r D_c - (1 - eps) W_uu,
    symmetric positive definite. The rank-one term is handled by
    Sherman-Morrison: with B y1 = rhs and B s = 1, the solution is
    y1 + sigma s, sigma = (eps/n) 1^T y1 / (1 - (eps/n) 1^T s). All m + 1
    columns run in lockstep, each with its own step, so one iteration is
    one product with W. A column whose residual is zero (an emotion no seed
    carries) is converged, not a breakdown.

    The recurrence residuals give a cheap estimate of ||(I - T_uu) y - rhs||;
    once that estimate divided by min m (see `_labeled_mass`) is within tol,
    the rows are clipped at 0 and re-normalized, and one true product with
    T confirms the bound before the solve counts as converged.
    """
    _check_inputs(label_matrix, tol, max_iter)
    labeled = label_matrix.labeled_mask
    unlabeled = np.flatnonzero(~labeled)
    y = label_matrix.rows.copy()
    mass = _labeled_mass(tm, labeled)
    n, m = y.shape
    row, col = tm.row[unlabeled], tm.col[unlabeled]
    keep = 1.0 - tm.epsilon
    smooth = tm.epsilon / n
    scale = (row * col)[:, None]
    y[unlabeled] = 0.0
    b = np.empty((unlabeled.size, m + 1))
    b[:, :m] = tm.apply(y)[unlabeled]
    b[:, m] = 1.0
    b *= row[:, None]
    precondition = 1.0 / (row * col - keep * tm.w[unlabeled, unlabeled])[:, None]
    pad = np.zeros((n, m + 1))

    def apply_a(p):
        # W_uu p through the whole of W (symmetric), never gathered.
        pad[unlabeled] = p
        out = (pad.T @ tm.w).T[unlabeled]
        out *= -keep
        out += scale * p
        return out

    def combine(x):
        y1 = x * col[:, None]
        sigma = smooth * y1[:, :m].sum(axis=0) / (1.0 - smooth * y1[:, m].sum())
        return y1[:, :m] + y1[:, m:] * sigma, sigma

    def settle(y_u):
        # Clip, re-normalize and place the rows; return their true residual.
        rows = np.maximum(y_u, 0.0)
        rows /= rows.sum(axis=1, keepdims=True)
        y[unlabeled] = rows
        return _residual(tm, y, ~labeled)

    x = np.zeros_like(b)
    res = b.copy()
    z = res * precondition
    p = z.copy()
    rz = np.einsum("ij,ij->j", res, z)
    iterations = 0
    residual = None
    while iterations < max_iter:
        q = apply_a(p)
        pq = np.einsum("ij,ij->j", p, q)
        live = rz > 0
        if np.any(pq[live] <= 0):
            raise NumericalDegeneracyError(
                "(I - T_uu) is not positive definite; consider epsilon smoothing")
        step = np.divide(rz, pq, out=np.zeros_like(rz), where=live)
        x += step * p
        res -= step * q
        iterations += 1
        y_u, sigma = combine(x)
        residual = None
        estimate = np.max(np.abs(res[:, :m] + res[:, m:] * sigma) / row[:, None])
        if estimate / mass <= tol:
            residual = settle(y_u)
            if residual / mass <= tol:
                break
        z = res * precondition
        rz_next = np.einsum("ij,ij->j", res, z)
        p *= np.divide(rz_next, rz, out=np.zeros_like(rz), where=live)
        p += z
        rz = rz_next
    if residual is None:
        residual = settle(y_u)
    report = _certified("cg", iterations, residual, mass, tol)
    return LabelMatrix(y, labeled), report


def solve(tm, label_matrix, solver="auto", tol=1e-6, max_iter=1000):
    """Propagate `label_matrix` on `tm`; returns (LabelMatrix, SolveReport).

    `solver` is "iterative", "closed", "cg", or "auto": the closed form up
    to CLOSED_FORM_MAX_UNLABELED unlabeled rows, conjugate gradients above.
    """
    if solver == "auto":
        n_unlabeled = tm.n - label_matrix.n_labeled
        solver = "closed" if n_unlabeled <= CLOSED_FORM_MAX_UNLABELED else "cg"
    if solver == "closed":
        return propagate_closed_form(tm, label_matrix, tol=tol)
    if solver == "iterative":
        return propagate_iterative(tm, label_matrix, tol=tol, max_iter=max_iter)
    if solver == "cg":
        return propagate_cg(tm, label_matrix, tol=tol, max_iter=max_iter)
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

    def distribution(self, token):
        return self.distributions[self.vocab.index[token]]

    def argmax_label(self, token):
        return self.emotions.names[int(np.argmax(self.distribution(token)))]

    def sidecar(self):
        return {"params": self.params.to_dict(), "solve": self.report.to_dict(),
                "seed_tokens_missing": self.seed_tokens_missing}


def expand(store, seed, emotions=None, params=None, solver="auto",
           tol=1e-6, max_iter=1000, cache=None):
    """End-to-end expansion: init Y, build the transition operator, solve,
    and return the distributions of every vocabulary word in vocabulary order.

    Seed rows pass through unchanged. `solver` is passed to `solve`; raises
    ConvergenceError when the solve does not certify its result within tol.
    With an OperatorCache as `cache`, the operator comes from it, and is
    built only if the cache holds none for this store and params.
    """
    if emotions is None:
        emotions = seed.emotions
    if params is None:
        raise ValueError("propagation params are required")
    label_matrix, missing = init_label_matrix(store.vocab, seed, emotions)
    if label_matrix.n_labeled == 0:
        raise ValueError("no seed token is present in the vocabulary")
    if cache is None:
        tm = build_transition(store, params, label_matrix.labeled_mask)
    else:
        tm = cache.get(store, params, label_matrix.labeled_mask)
    solved, report = solve(tm, label_matrix, solver, tol, max_iter)
    if not report.converged:
        raise ConvergenceError(
            "%s solve did not converge in %d iterations: error bound %.3g "
            "exceeds tol %g" % (report.method, report.iterations,
                                report.error_bound, tol))
    return ExpansionResult(store.vocab, emotions, solved.rows,
                           solved.labeled_mask, params, report, missing)
