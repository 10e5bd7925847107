"""Similarity graph construction: edge weights and the epsilon-smoothed
transition operator."""

import numpy as np

COSINE_LOGISTIC = "cosine-logistic"
EUCLIDEAN_RBF = "euclidean-rbf"

# Weights are transformed (and, when streamed, computed) this many entries at
# a time, so the temporaries of the elementwise kernel stay a few megabytes
# at every n.
_BLOCK_ENTRIES = 1 << 18


class NumericalDegeneracyError(RuntimeError):
    """A transition-matrix row or column underflowed to zero mass."""


class PropagationParams:
    """Kernel choice plus its trainable/settable parameters.

    cosine-logistic needs alpha (scalar or d-vector) and b; euclidean-rbf
    needs sigma. epsilon in [0, 1) interpolates the transition matrix with
    the uniform matrix.
    """

    def __init__(self, kernel=COSINE_LOGISTIC, alpha=None, b=None,
                 epsilon=0.0, sigma=None):
        if kernel not in (COSINE_LOGISTIC, EUCLIDEAN_RBF):
            raise ValueError("unknown kernel %r" % kernel)
        if not (0.0 <= epsilon < 1.0):
            raise ValueError("epsilon must be in [0, 1)")
        if kernel == COSINE_LOGISTIC:
            if alpha is None or b is None:
                raise ValueError("cosine-logistic kernel requires alpha and b")
            alpha = np.asarray(alpha, dtype=np.float64)
            if alpha.ndim > 1:
                raise ValueError("alpha must be a scalar or a 1-D vector")
        else:
            if sigma is None or sigma <= 0:
                raise ValueError("euclidean-rbf kernel requires positive sigma")
        self.kernel = kernel
        self.alpha = alpha
        self.b = None if b is None else float(b)
        self.epsilon = float(epsilon)
        self.sigma = None if sigma is None else float(sigma)

    @property
    def alpha_is_vector(self):
        return self.alpha is not None and self.alpha.ndim == 1

    def to_dict(self):
        alpha = self.alpha
        if alpha is not None:
            alpha = alpha.tolist() if alpha.ndim else float(alpha)
        return {"kernel": self.kernel, "alpha": alpha, "b": self.b,
                "epsilon": self.epsilon, "sigma": self.sigma}

    @classmethod
    def from_dict(cls, d):
        return cls(kernel=d.get("kernel", COSINE_LOGISTIC), alpha=d.get("alpha"),
                   b=d.get("b"), epsilon=d.get("epsilon", 0.0), sigma=d.get("sigma"))


def logistic(z, out=None, scratch=None):
    """Numerically safe logistic, exact in both saturation tails.

    With e = exp(-|z|) this is 1 / (1 + e) for z >= 0 and e / (1 + e) below,
    so exp never overflows and the negative tail keeps its relative
    precision. `out` may be `z` itself. The numerator is max(z >= 0, e),
    since 0 <= e <= 1: a branch-free select, and every pass runs in place
    on `out` and one scratch array, `scratch` (of z's shape) when it is
    given. A 0-d input returns a scalar.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.abs(z, out=np.empty_like(z) if scratch is None else scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.greater_equal(z, 0.0, out=np.empty_like(z) if out is None else out)
    np.maximum(num, e, out=num)
    e += 1.0
    np.divide(num, e, out=num)
    return num if out is not None or num.ndim else num[()]


def edge_weight(x_i, x_j, params):
    """Pairwise edge weight under the configured kernel.

    cosine-logistic: logistic(alpha * cos(x_i, x_j) + b) for scalar alpha, or
    logistic(sum_k alpha_k (x_hat_i x_hat_j)_k + b) for a d-vector alpha.
    euclidean-rbf: exp(-||x_i - x_j||^2 / sigma^2).
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if params.kernel == EUCLIDEAN_RBF:
        d2 = float(np.sum((x_i - x_j) ** 2))
        return float(np.exp(-d2 / params.sigma ** 2))
    ui = x_i / np.linalg.norm(x_i)
    uj = x_j / np.linalg.norm(x_j)
    if params.alpha_is_vector:
        z = float(params.alpha @ (ui * uj)) + params.b
    else:
        z = float(params.alpha) * float(ui @ uj) + params.b
    w = float(logistic(z))
    if not np.isfinite(w):
        raise NumericalDegeneracyError("non-finite edge weight")
    return w


def _block_rows(n):
    return max(1, _BLOCK_ENTRIES // max(n, 1))


def row_blocks(n):
    """Slices that cover the rows of an n x n array in fixed-size blocks."""
    step = _block_rows(n)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _weight_kernel(x, params):
    """(left, transform) of the weight kernel over the rows of `x`: the
    rows `rows` of W are transform(rows, left[rows] @ x.T), where
    transform(rows, out) works in place on `out` and returns it.

    `x` holds unit vectors under cosine-logistic and raw vectors under
    euclidean-rbf. The logistic's scratch is one array of `row_blocks`'
    block size, shared by every block.
    """
    rbf = params.kernel == EUCLIDEAN_RBF
    if rbf:
        left = -2.0 * x
        sq = np.sum(x * x, axis=1)
    elif params.alpha_is_vector:
        if x.shape[1] != params.alpha.shape[0]:
            raise ValueError("alpha vector length %d != embedding dim %d"
                             % (params.alpha.shape[0], x.shape[1]))
        left = x * params.alpha
    else:
        left = x * float(params.alpha)
    if not rbf:
        scratch = np.empty((min(_block_rows(len(x)), len(x)), len(x)))

    def transform(rows, out):
        if rbf:
            out += sq[rows, None]
            out += sq[None, :]
            np.maximum(out, 0.0, out=out)
            out /= -params.sigma ** 2
            np.exp(out, out=out)
        else:
            out += params.b
            logistic(out, out=out, scratch=scratch[:len(out)])
        return out
    return left, transform


def raw_weights(x, params, out=None):
    """Dense symmetric edge weights between the rows of `x`, written into
    `out` (an n x n array) when it is given.

    One GEMM writes every inner product into the result, which is then
    transformed in place in fixed-size row blocks, so the only n x n array
    is the result and the kernel's temporaries stay a few megabytes.
    """
    n = x.shape[0]
    w = np.empty((n, n)) if out is None else out
    left, transform = _weight_kernel(x, params)
    np.matmul(left, x.T, out=w)
    for rows in row_blocks(n):
        transform(rows, w[rows])
    return w


def _check_mass(mass, side):
    """Refuse a graph with a zero or non-finite column or row mass."""
    if np.any(mass <= 0) or not np.all(np.isfinite(mass)):
        raise NumericalDegeneracyError(
            "zero or non-finite %s mass; consider epsilon smoothing" % side)


def labeled_mass(x, params, labeled):
    """m = T 1_L, L the rows where the boolean mask `labeled` is true, for
    the operator TransitionOperator builds on raw_weights(x, params),
    refused where it refuses. W is streamed in
    `row_blocks`, so no n x n array is built: one pass takes its column
    sums, a second its row sums and the mass each row sends to the seeds.
    """
    n = x.shape[0]
    left, transform = _weight_kernel(x, params)
    blocks = row_blocks(n)
    buf = np.empty((blocks[0].stop, n))

    def weights(rows):
        out = np.matmul(left[rows], x.T, out=buf[:rows.stop - rows.start])
        return transform(rows, out)
    col = np.zeros(n)
    for rows in blocks:
        col += weights(rows).sum(axis=0)
    _check_mass(col, "column")
    sums = np.column_stack([1.0 / col, labeled / col])
    row, to_seeds = np.empty(n), np.empty(n)
    for rows in blocks:
        row[rows], to_seeds[rows] = (weights(rows) @ sums).T
    _check_mass(row, "row")
    eps = params.epsilon
    return (1.0 - eps) * to_seeds / row + eps * np.count_nonzero(labeled) / n


class TransitionOperator:
    """T = (1 - eps) D_r^-1 W D_c^-1 + (eps / n) 11^T over the vocabulary.

    T is the column-then-row-normalized weight matrix blended with the
    uniform matrix. It is held in factored form and applied, never stored:
    `w` is the symmetric weight matrix, `col` its column sums and `row` the
    row sums of W D_c^-1. Nothing here depends on which words are labeled,
    so one operator serves every seed split.
    """

    def __init__(self, w, epsilon):
        col = w.sum(axis=0)
        _check_mass(col, "column")
        row = w @ (1.0 / col)
        _check_mass(row, "row")
        self.w = w
        self.col = col
        self.row = row
        self.epsilon = float(epsilon)

    @property
    def n(self):
        return self.w.shape[0]

    # Both products are formed transposed, (y^T W^T)^T and (y^T W)^T: with
    # a few columns OpenBLAS runs that form 1.5-2x faster than W y or W^T y
    # (n = 4000, m = 6, two cores).
    def apply(self, y, product=None):
        """T @ y for an n x m array. W D_c^-1 y is also written into
        `product`, an n x m array, when it is given."""
        out = ((y / self.col[:, None]).T @ self.w.T).T
        if product is not None:
            product[...] = out
        out *= ((1.0 - self.epsilon) / self.row)[:, None]
        out += (self.epsilon / self.n) * y.sum(axis=0)
        return out

    def apply_transpose(self, y, product=None):
        """T^T @ y for an n x m array. W^T (1 - eps) D_r^-1 y is also
        written into `product`, an n x m array, when it is given."""
        out = ((y * ((1.0 - self.epsilon) / self.row)[:, None]).T @ self.w).T
        if product is not None:
            product[...] = out
        out /= self.col[:, None]
        out += (self.epsilon / self.n) * y.sum(axis=0)
        return out

    def submatrix(self, rows, cols=None):
        """Dense T[rows][:, cols] for index arrays; `cols` defaults to
        `rows`."""
        if cols is None:
            cols = rows
        t = self.w[np.ix_(rows, cols)]
        t /= self.col[cols]
        t *= ((1.0 - self.epsilon) / self.row[rows])[:, None]
        t += self.epsilon / self.n
        return t


def build_transition(store, params, labeled_mask):
    """Build the transition operator of the whole vocabulary graph.

    `labeled_mask` is validated (at least one labeled and one unlabeled word)
    but does not shape the operator: the solvers take the partition from
    their LabelMatrix.
    """
    labeled_mask = np.asarray(labeled_mask, dtype=bool)
    if labeled_mask.shape != (len(store),):
        raise ValueError("labeled mask length mismatch")
    n_labeled = int(labeled_mask.sum())
    if n_labeled == 0 or n_labeled == len(store):
        raise ValueError("need at least one labeled and one unlabeled node")
    x = store.vectors if params.kernel == EUCLIDEAN_RBF else store.unit_vectors
    return TransitionOperator(raw_weights(x, params), params.epsilon)
