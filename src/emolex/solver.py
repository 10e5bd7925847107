"""Label propagation solvers: clamped fixed-point iteration, the
closed-form linear solve and preconditioned conjugate gradients, plus the
end-to-end expansion entry point and its cross-validation folds."""

from dataclasses import asdict, dataclass

import numpy as np

from .graph import NumericalDegeneracyError, build_transition, integer, real
from .lexicon import LabelMatrix, init_label_matrix

# `propagate_folds` factors all folds at once up to this many unlabeled rows
# in its largest fold; above it the u x u factorization costs too much.
CLOSED_FORM_MAX_UNLABELED = 2000

# Every solver refuses (I - T_uu) when the bound on its infinity-norm
# condition number exceeds this.
MAX_CONDITION = 1e12

# Every solve's default tol, and the most iterations CG runs.
TOL, MAX_ITER = 1e-6, 1000


class ConvergenceError(RuntimeError):
    """The solve ended without certifying its result within tol."""


@dataclass
class SolveReport:
    """How a solve went.

    `error_bound` bounds the max-abs error of the returned unlabeled rows:
    their residual divided by `min_labeled_mass`, the smallest one-step
    probability mass of an unlabeled row onto the seeds. `cond_bound` is
    the bound (2 - min m) / min m on the condition number of the system.
    A solver returns a report only when that system was accepted and the
    error bound is within its tol, so `converged` is always true.
    """

    method: str
    iterations: int
    residual: float
    converged: bool
    error_bound: float
    min_labeled_mass: float
    cond_bound: float

    def to_dict(self):
        return asdict(self)


def _residual(tm, y, unlabeled):
    """Max-abs violation of Y_U = (T Y)_U."""
    return float(np.max(np.abs(y[unlabeled] - tm.apply(y)[unlabeled])))


def condition(mass):
    """(min m, cond_bound) for `mass`, the smallest one-step mass
    m_i = (T 1_L)_i of an unlabeled row onto the seeds: the condition bound
    it gives.

    T is row-stochastic, so m_i = 1 - sum_j (T_uu)_ij and
    ||(I - T_uu)^{-1}||_inf <= 1 / min m: a solution of the unlabeled system
    with residual r is within r / min m of the exact one, the fixed-point
    sweep contracts by 1 - min m, and the infinity-norm condition number of
    (I - T_uu) is at most (2 - min m) / min m. The condition belongs to the
    system, not to the method that solves it, so every solver refuses the
    system here, before its first sweep or factorization, when that bound
    exceeds MAX_CONDITION or min m is not positive.
    """
    mass = float(mass)
    cond_bound = (2.0 - mass) / mass if mass > 0 else np.inf
    if not cond_bound <= MAX_CONDITION:
        raise NumericalDegeneracyError(
            "(I - T_uu) is ill-conditioned: condition bound %.3g, minimum "
            "labeled mass %.3g; consider epsilon smoothing" % (cond_bound, mass))
    return mass, cond_bound


def _opening_product(tm, y, labeled):
    """(T y, min m, cond_bound) for an n x m array y: one product with
    T [y, 1_L] gives the solve its first product and the labeled mass of
    `condition`, which refuses the system before anything else is done."""
    cols = np.empty((tm.n, y.shape[1] + 1))
    cols[:, :-1] = y
    cols[:, -1] = labeled
    product = tm.apply(cols)
    mass, cond_bound = condition(np.min(product[~labeled, -1]))
    return product[:, :-1], mass, cond_bound


def _certified(method, iterations, residual, mass, cond_bound, tol):
    """The report of a solve whose error bound residual / min m is within
    tol; raises ConvergenceError otherwise."""
    bound = residual / mass
    if not bound <= tol:
        raise ConvergenceError(
            "%s solve did not converge in %d iterations: error bound %.3g "
            "exceeds tol %g" % (method, iterations, bound, tol))
    return SolveReport(method, iterations, residual, True, bound, mass,
                       cond_bound)


def check_solver_options(tol):
    """Refuse a tol that is not a positive and finite number."""
    if not real("tol", tol) > 0:
        raise ValueError("tol must be positive")
    if tol == np.inf:
        raise ValueError("tol must be finite")


def check_seed_split(label_matrix):
    """Refuse a label matrix without a labeled and an unlabeled row."""
    if not 0 < label_matrix.n_labeled < len(label_matrix.rows):
        raise ValueError("need at least one labeled and one unlabeled node")


def _check_inputs(label_matrix, tol):
    """The input contract of every solve, which every entry point checks
    before any work: `check_seed_split`, then `check_solver_options`."""
    check_seed_split(label_matrix)
    check_solver_options(tol)


def propagate_iterative(tm, label_matrix, tol=TOL, max_iter=MAX_ITER):
    """Repeat Y <- T Y, then clamp the labeled rows again.

    The labeled/unlabeled partition is the LabelMatrix's mask; the operator
    does not depend on it. The sweep contracts the error by rho = 1 - min m
    (see `condition`), so a sweep that changes Y by delta leaves it
    within delta * rho / (1 - rho) of the fixed point; the loop stops once
    that is at most tol. Rows are re-normalized each sweep to cap
    floating-point drift (a guard, not an algorithm change). Labeled rows
    are returned bit-equal to the input. Raises ConvergenceError when
    max_iter sweeps, at least 1, leave the error bound above tol.
    """
    _check_inputs(label_matrix, tol)
    if integer("max_iter", max_iter) < 1:
        raise ValueError("max_iter must be at least 1")
    labeled = label_matrix.labeled_mask
    y = label_matrix.rows
    seeds = y[labeled]
    new, mass, cond_bound = _opening_product(tm, y, labeled)
    contraction = (1.0 - mass) / mass

    iterations = 0
    while True:
        new /= new.sum(axis=1, keepdims=True)
        new[labeled] = seeds
        delta = float(np.max(np.abs(new - y)))
        y = new
        iterations += 1
        if delta * contraction <= tol or iterations == max_iter:
            break
        new = tm.apply(y)

    report = _certified("iterative", iterations, _residual(tm, y, ~labeled),
                        mass, cond_bound, tol)
    return LabelMatrix(y, labeled), report


def _solve_clamped(block, rhs):
    """Solve (I - block) x = rhs, overwriting `block`; fails with a
    diagnostic when the system is singular or the solution not finite."""
    np.negative(block, out=block)
    block[np.diag_indices_from(block)] += 1.0
    try:
        x = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(
            "(I - T_uu) is singular; epsilon = 0 with a component disconnected "
            "in probability from the labeled set") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalDegeneracyError(
            "(I - T_uu) is ill-conditioned; consider epsilon smoothing")
    return x


def propagate_closed_form(tm, label_matrix, tol=TOL):
    """Solve Y_U = (I - T_uu)^{-1} T_ul Y_L by factorization.

    The labeled/unlabeled partition is the LabelMatrix's mask; T_uu is
    gathered from the operator by that mask, after `condition` has
    checked its condition in O(n^2). Fails with a diagnostic when
    (I - T_uu) is singular or the solution is not finite (possible only at
    epsilon = 0 with a component disconnected in probability from the
    labeled set), and with ConvergenceError when rounding leaves the error
    bound of the solution above tol.
    """
    _check_inputs(label_matrix, tol)
    labeled = label_matrix.labeled_mask
    unlabeled = ~labeled
    y = label_matrix.rows.copy()
    y[unlabeled] = 0.0
    rhs, mass, cond_bound = _opening_product(tm, y, labeled)
    y[unlabeled] = _solve_clamped(tm.submatrix(unlabeled), rhs[unlabeled])
    report = _certified("closed-form", 1, _residual(tm, y, unlabeled), mass,
                        cond_bound, tol)
    return LabelMatrix(y, labeled), report


def propagate_cg(tm, label_matrix, tol=TOL):
    """Solve (I - T_uu) Y_U = T_ul Y_L by Jacobi-preconditioned conjugate
    gradients, without gathering T_uu.

    With B = I - (1 - eps) D_r^-1 W_uu D_c^-1 the system is
    B y - (eps/n) 1 1^T y = rhs. Substituting y = D_c x and multiplying by
    D_r turns B y = b into A x = D_r b with A = D_r D_c - (1 - eps) W_uu,
    symmetric positive definite. The rank-one term is handled by
    Sherman-Morrison: with B y1 = rhs and B s = 1, the solution is
    y1 + sigma s, sigma = (eps/n) 1^T y1 / (1 - (eps/n) 1^T s). All m + 1
    columns run in lockstep, each with its own step, so one iteration is
    one product with W: every column is an n-vector in vocabulary order,
    zero on the seeds, so W_uu p is W p on the unlabeled rows. A column
    whose residual is zero (an emotion no seed carries) is converged.

    The recurrence residuals give a cheap estimate of ||(I - T_uu) y - rhs||;
    once that estimate divided by min m (see `condition`) is within tol,
    the rows are clipped at 0 and re-normalized, and one true product with
    T confirms the bound. `condition` makes A positive definite, so
    p^T A p <= 0 on a live column is CG's rounding floor. The solve stops
    there or after MAX_ITER iterations, and raises ConvergenceError unless
    its settled rows are certified within tol.
    """
    _check_inputs(label_matrix, tol)
    labeled = label_matrix.labeled_mask
    unlabeled = ~labeled
    y = label_matrix.rows.copy()
    y[unlabeled] = 0.0
    rhs, mass, cond_bound = _opening_product(tm, y, labeled)
    n, m = y.shape
    row, col = tm.row, tm.col
    keep = 1.0 - tm.epsilon
    smooth = tm.epsilon / n
    scale = (row * col)[:, None]
    b = np.empty((n, m + 1))
    b[:, :m], b[:, m] = rhs, 1.0
    b *= (row * unlabeled)[:, None]
    precondition = np.divide(1.0, row * col - keep * tm.diagonal,
                             out=np.zeros(n), where=unlabeled)[:, None]

    def apply_a(p):
        out = tm.w_product(p)
        out[labeled] = 0.0
        out *= -keep
        out += scale * p
        return out

    def combine(x):
        y1 = x * col[:, None]
        # Unlabeled rows only: a pairwise sum rounds by where its zeros sit.
        sigma = (smooth * y1[:, :m].sum(axis=0)
                 / (1.0 - smooth * y1[unlabeled, m].sum()))
        return y1[:, :m] + y1[:, m:] * sigma, sigma

    def settle(y_u):
        # Clip, re-normalize and place the rows; return their true residual.
        rows = np.maximum(y_u[unlabeled], 0.0)
        y[unlabeled] = rows / rows.sum(axis=1, keepdims=True)
        return _residual(tm, y, unlabeled)

    x = np.zeros_like(b)
    res = b.copy()
    z = res * precondition
    p = z.copy()
    rz = np.einsum("ij,ij->j", res, z)
    iterations = 0
    residual = None
    y_u = np.ones((n, m))  # uniform rows until the first step
    while iterations < MAX_ITER:
        q = apply_a(p)
        pq = np.einsum("ij,ij->j", p, q)
        live = rz > 0
        if np.any(pq[live] <= 0):
            break
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
    report = _certified("cg", iterations, residual, mass, cond_bound, tol)
    return LabelMatrix(y, labeled), report


def _as_fold(f, call, *args):
    """call(*args), with a refused or uncertified solve raised as fold f's:
    the same error type, its message prefixed "fold f: ", chained from it."""
    try:
        return call(*args)
    except (NumericalDegeneracyError, ConvergenceError) as exc:
        raise type(exc)("fold %d: %s" % (f, exc)) from exc


def _factorized_folds(tm, label_matrix, set_up, checks, tol):
    """The closed-form solution of every fold that `propagate_folds` has set
    up, as (hidden, LabelMatrix) pairs, and checked, with each fold's
    (min m, cond_bound) from `condition` in `checks`, from one
    factorization; returns [(LabelMatrix, SolveReport), ...], in fold order.

    With U the rows no seed of `label_matrix` labels, L its seeds and H, S
    a fold's hidden and training seeds, Z = (I - T_UU)^{-1} T_UL is
    factored once, and G = T_LL + T_LU Z holds the probabilities that a
    walk leaving a seed is next absorbed at each seed. Eliminating U from a
    fold's system (the block form of the harmonic update of Zhu,
    Ghahramani & Lafferty 2003, section 5) leaves

        (I - G_HH) Y_H = G_HS Y_S,  an |H| x |H| solve, and
        Y_U = Z_S Y_S + Z_H Y_H.

    Each fold is the solution `propagate_closed_form` finds on its mask and
    is checked the same way: its report carries its own residual, minimum
    labeled mass and error bound, and one product with T gives every
    fold's residual. A fold's min m is at most that of the all-seeds
    system, so the folds' checks also cover the factorization of
    (I - T_UU). The first fold not certified raises at once.
    """
    labeled = label_matrix.labeled_mask
    unlabeled = ~labeled
    position = np.cumsum(labeled) - 1  # a seed's row of G
    z = _solve_clamped(tm.submatrix(unlabeled), tm.submatrix(unlabeled, labeled))
    g = tm.submatrix(labeled) + tm.submatrix(labeled, unlabeled) @ z
    for f, (hidden, fold) in enumerate(set_up):
        mask = fold.labeled_mask
        h = position[hidden]
        s = position[mask]
        fold.rows[hidden] = _as_fold(f, _solve_clamped, g[np.ix_(h, h)],
                                     g[np.ix_(h, s)] @ fold.rows[mask])
        fold.rows[unlabeled] = z @ fold.rows[labeled]
    m = label_matrix.rows.shape[1]
    stacked = np.hstack([fold.rows for _, fold in set_up])
    violation = np.abs(stacked - tm.apply(stacked))
    solved = []
    for f, ((_, fold), (mass, cond_bound)) in enumerate(zip(set_up, checks)):
        cols = slice(f * m, (f + 1) * m)
        residual = float(np.max(violation[~fold.labeled_mask, cols]))
        solved.append((fold, _as_fold(f, _certified, "closed-form", 1,
                                      residual, mass, cond_bound, tol)))
    return solved


def propagate_folds(tm, label_matrix, folds, tol=TOL):
    """Every fold of a cross-validation, solved on the one operator `tm`;
    returns [(LabelMatrix, SolveReport), ...], one pair per fold in fold
    order, and [] when there are no folds.

    `label_matrix` labels all seeds L; each fold is an index array of the
    seed rows H it hides, and trains on the rest, S = L \\ H. A fold is the
    system of an expansion without the seeds H: its hidden rows start at
    uniform 1/m, as unlabeled rows do in `init_label_matrix`. Where the
    largest fold has at most CLOSED_FORM_MAX_UNLABELED unlabeled rows, all
    folds come from one factorization (`_factorized_folds`); otherwise each
    fold is `propagate_cg(tm, fold, tol)`, as `expand` solves it.
    How much of W the operator keeps changes neither the path nor the
    bits. Either way every fold is certified within tol. Every fold is
    checked before any is solved, on either path: a fold that hides an
    unlabeled row, fails the solvers' input contract or whose system
    `condition` refuses (NumericalDegeneracyError) raises before any solve.
    The first fold not certified (ConvergenceError) raises at once. A
    fold's error has its message prefixed "fold <f>: ".
    """
    labeled = label_matrix.labeled_mask
    m = label_matrix.rows.shape[1]
    check_solver_options(tol)
    set_up = []
    for f, hidden in enumerate(folds):
        hidden = np.asarray(hidden, dtype=np.intp)
        if not np.all(labeled[hidden]):
            raise ValueError("fold %d hides an unlabeled row: a fold may hide "
                             "only labeled rows" % f)
        mask = labeled.copy()
        mask[hidden] = False
        rows = label_matrix.rows.copy()
        rows[hidden] = 1.0 / m
        fold = LabelMatrix(rows, mask)
        check_seed_split(fold)
        set_up.append((hidden, fold))
    if not set_up:
        return []
    masses = tm.apply(np.array([fold.labeled_mask for _, fold in set_up],
                               dtype=np.float64).T)
    checks = [_as_fold(f, condition, np.min(masses[~fold.labeled_mask, f]))
              for f, (_, fold) in enumerate(set_up)]
    largest = tm.n - min(fold.n_labeled for _, fold in set_up)
    if largest <= CLOSED_FORM_MAX_UNLABELED:
        return _factorized_folds(tm, label_matrix, set_up, checks, tol)
    return [_as_fold(f, propagate_cg, tm, fold, tol)
            for f, (_, fold) in enumerate(set_up)]


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


def expand(store, seed, params, *, tol=TOL):
    """End-to-end expansion: init Y, build the transition operator, solve
    it by conjugate gradients (`propagate_cg`) at every size, and return the
    distributions of every vocabulary word in vocabulary order.

    The emotion set is the seed lexicon's. Seed rows pass through unchanged.
    Raises ConvergenceError when the solve does not certify its result
    within tol; the digits are the caller's, through tol.
    """
    label_matrix, missing = init_label_matrix(store.vocab, seed)
    if label_matrix.n_labeled == 0:
        raise ValueError("no seed token is present in the vocabulary")
    _check_inputs(label_matrix, tol)
    tm = build_transition(store, params, label_matrix.labeled_mask)
    solved, report = propagate_cg(tm, label_matrix, tol)
    return ExpansionResult(store.vocab, seed.emotions, solved.rows,
                           solved.labeled_mask, params, report, missing)


def expand_folds(store, seed, params, folds, *, tol=TOL):
    """The folds of a cross-validation of `expand`: for each list of
    held-out seed tokens in `folds`, returns, in order, the distributions
    `expand` returns for the seed without those tokens. All folds share one
    label matrix and one operator, which `propagate_folds` solves them on
    and which is freed when this returns. The solver options are checked
    before the operator is built; the seed split is checked per fold, so an
    all-seeded vocabulary still cross-validates. A fold whose solve is
    refused or not certified raises, its message prefixed "fold <f>: ".
    """
    label_matrix, _ = init_label_matrix(store.vocab, seed)
    hidden = [[store.vocab.index[t] for t in held_out] for held_out in folds]
    check_solver_options(tol)
    tm = build_transition(store, params, label_matrix.labeled_mask)
    return [solved.rows for solved, _ in
            propagate_folds(tm, label_matrix, hidden, tol)]
