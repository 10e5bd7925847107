"""Similarity graph construction: edge weights and the epsilon-smoothed
transition operator."""

import numbers

import numpy as np

COSINE_LOGISTIC = "cosine-logistic"
EUCLIDEAN_RBF = "euclidean-rbf"

# Weights are transformed (and, when streamed, computed) this many entries at
# a time, so the temporaries of the elementwise kernel stay a few megabytes
# at every n.
_BLOCK_ENTRIES = 1 << 18


class NumericalDegeneracyError(RuntimeError):
    """A transition-matrix row or column underflowed to zero mass."""


def is_real(value):
    """Whether `value` is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def real(name, value):
    """`value`, refused with a ValueError naming `name` unless it is a real
    number and not a bool."""
    if not is_real(value):
        raise ValueError("%s must be a number, not %r" % (name, value))
    return value


def integer(name, value):
    """`value` as an int; a bool, a number with a fraction or a value that
    is not a number is refused with a ValueError naming `name`, rather than
    truncated or parsed."""
    if not (is_real(value) and (isinstance(value, numbers.Integral)
                                or float(value).is_integer())):
        raise ValueError("%s must be an integer, not %r" % (name, value))
    return int(value)


class PropagationParams:
    """Kernel choice plus its trainable/settable parameters.

    cosine-logistic needs alpha (scalar or d-vector) and b; euclidean-rbf
    needs sigma. epsilon in [0, 1) interpolates the transition matrix with
    the uniform matrix. alpha, b and sigma must be finite. Each value must
    be a number (alpha a number or a list of numbers), not a bool or a
    string; that is checked first.
    """

    def __init__(self, kernel=COSINE_LOGISTIC, alpha=None, b=None,
                 epsilon=0.0, sigma=None):
        if kernel not in (COSINE_LOGISTIC, EUCLIDEAN_RBF):
            raise ValueError("unknown kernel %r" % (kernel,))
        # A numeric array, as each fit step passes, is checked by its dtype.
        if alpha is not None and not (isinstance(alpha, np.ndarray)
                                      and alpha.dtype.kind in "iuf"):
            for value in np.ravel(np.array(alpha, dtype=object)):
                real("alpha", value)
        self.kernel = kernel
        self.alpha = None if alpha is None else np.asarray(alpha, np.float64)
        self.b = None if b is None else float(real("b", b))
        self.epsilon = float(real("epsilon", epsilon))
        self.sigma = None if sigma is None else float(real("sigma", sigma))
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError("epsilon must be in [0, 1)")
        if kernel == COSINE_LOGISTIC:
            if alpha is None or b is None:
                raise ValueError("cosine-logistic kernel requires alpha and b")
        elif sigma is None or not sigma > 0:
            raise ValueError("euclidean-rbf kernel requires positive sigma")
        if self.alpha is not None and self.alpha.ndim > 1:
            raise ValueError("alpha must be a scalar or a 1-D vector")
        for key in ("alpha", "b", "sigma"):
            value = getattr(self, key)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError("%s must be finite" % key)

    @property
    def alpha_is_vector(self):
        return self.alpha is not None and self.alpha.ndim == 1

    def to_dict(self):
        alpha = None if self.alpha is None else self.alpha.tolist()
        return {"kernel": self.kernel, "alpha": alpha, "b": self.b,
                "epsilon": self.epsilon, "sigma": self.sigma}

    @classmethod
    def from_dict(cls, d):
        """Params from `to_dict`'s keys; any other key is refused, not dropped."""
        unknown = sorted(set(d) - {"kernel", "alpha", "b", "epsilon", "sigma"})
        if unknown:
            raise ValueError("unknown params key(s) %s: params take only "
                             "kernel, alpha, b, epsilon and sigma"
                             % ", ".join(unknown))
        return cls(**d)


def logistic(z, out=None):
    """The logistic 1 / (1 + exp(-z)), in four in-place passes over `out`:
    negate, exp, add 1, reciprocal. `out` may be `z` itself.

    exp(-z) overflows to inf below z = -709.78, where the result is then
    exactly 0; above that the negative tail keeps its relative precision,
    since no difference of nearly equal numbers is formed. A 0-d input
    returns a scalar.
    """
    z = np.asarray(z, dtype=np.float64)
    res = np.negative(z, out=np.empty_like(z) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(res, out=res)
    res += 1.0
    np.reciprocal(res, out=res)
    return res if out is not None or res.ndim else res[()]


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


def row_blocks(n):
    """Slices that cover the rows of an n x n array in fixed-size blocks."""
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _weight_kernel(x, params):
    """(left, right, transform) of the weight kernel over the rows of `x`,
    unit vectors under cosine-logistic and raw ones under euclidean-rbf:
    W[I, J] = transform(left[I] @ right[J].T), in place on the product.

    cosine-logistic: left = [alpha x, b], right = [x, 1], transform the
    logistic. euclidean-rbf: left = [2x, -|x|^2, -1] / sigma^2 and right =
    [x, 1, |x|^2], whose product is -|x_i - x_j|^2 / sigma^2, transform
    exp(min(., 0)): the clip drops the rounding above 0 at zero distance.
    """
    ones = np.ones((len(x), 1))
    if params.kernel == EUCLIDEAN_RBF:
        sq = np.sum(x * x, axis=1)[:, None]
        left = np.hstack([2.0 * x, -sq, -ones]) / params.sigma ** 2
        right = np.hstack([x, ones, sq])

        def transform(out):
            return np.exp(np.minimum(out, 0.0, out=out), out=out)
    else:
        if params.alpha_is_vector and x.shape[1] != params.alpha.shape[0]:
            raise ValueError("alpha vector length %d != embedding dim %d"
                             % (params.alpha.shape[0], x.shape[1]))
        left = np.hstack([x * params.alpha, params.b * ones])
        right = np.hstack([x, ones])

        def transform(out):
            return logistic(out, out=out)
    return left, right, transform


def raw_weights(x, params, out=None):
    """Dense symmetric edge weights between the rows of `x`, written into
    `out` (an n x n array) when it is given.

    One GEMM of the kernel's factors writes every entry's argument into the
    result, which is then transformed in place in fixed-size row blocks, so
    the only n x n array is the result and the kernel's temporaries stay a
    few megabytes.
    """
    left, right, transform = _weight_kernel(x, params)
    w = np.matmul(left, right.T, out=out)
    for rows in row_blocks(len(w)):
        transform(w[rows])
    return w


def _checked(mass, side):
    """`mass`, refused when a column or row mass is zero or not finite."""
    if np.any(mass <= 0) or not np.all(np.isfinite(mass)):
        raise NumericalDegeneracyError(
            "zero or non-finite %s mass; consider epsilon smoothing" % side)
    return mass


class TransitionOperator:
    """T = (1 - eps) D_r^-1 W D_c^-1 + (eps / n) 11^T over the vocabulary.

    T is the column-then-row-normalized weight matrix blended with the
    uniform matrix. It is held in factored form and applied, never stored:
    `col` is W 1, W's column sums to rounding, `row` the row sums of
    W D_c^-1. W is read only by `w_product`, `panels`, `w_diagonal` and
    `submatrix`, from the n x n `w` here and recomputed from the kernel's
    factors in StreamedOperator. Nothing depends on which words are
    labeled: one operator serves every seed split.
    """

    gathers = True  # `submatrix` can gather T's blocks

    def __init__(self, w, epsilon):
        self.w = w
        self.epsilon = float(epsilon)
        self.col = _checked(self.w_product(np.ones(self.n)), "column")
        self.row = _checked(self.w_product(1.0 / self.col), "row")

    @property
    def n(self):
        return self.w.shape[0]

    def w_product(self, v):
        """W v for an n-vector (a gemv) or an n x m array, as (v^T W)^T: with
        a few columns OpenBLAS runs that form of the symmetric W's product
        1.5-2x faster than W v (n = 4000, m = 6, two cores)."""
        return self.w @ v if v.ndim == 1 else (v.T @ self.w).T

    def panels(self):
        """W's upper triangle, as (rows, W[rows, rows.start:]) per block."""
        for rows in row_blocks(self.n):
            yield rows, self.w[rows, rows.start:]

    def w_diagonal(self):
        """The diagonal of W, as an n-vector."""
        return np.diagonal(self.w)

    def apply(self, y, product=None):
        """T @ y for an n x m array. W D_c^-1 y is also written into
        `product`, an n x m array, when it is given."""
        out = self.w_product(y / self.col[:, None])
        if product is not None:
            product[...] = out
        out *= ((1.0 - self.epsilon) / self.row)[:, None]
        out += (self.epsilon / self.n) * y.sum(axis=0)
        return out

    def apply_transpose(self, y, product=None):
        """T^T @ y for an n x m array. W^T (1 - eps) D_r^-1 y is also
        written into `product`, an n x m array, when it is given."""
        out = self.w_product(y * ((1.0 - self.epsilon) / self.row)[:, None])
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


class StreamedOperator(TransitionOperator):
    """The operator of raw_weights(x, params) without an n x n array, from
    the weight kernel's factors and transform alone. Each pass recomputes
    W's panels into one buffer, valid until the next panel or product; a
    product uses each panel W_IJ twice, for W_IJ v_J and W_IJ^T v_I. Its
    diagonal is the transform of the factors' row-wise products."""

    gathers = False

    def __init__(self, x, params):
        self._left, self._right, self._transform = _weight_kernel(x, params)
        self._buf = np.empty(row_blocks(self.n)[0].stop * self.n)
        self._diagonal = self._transform(
            np.einsum("ij,ij->i", self._left, self._right))
        super().__init__(None, params.epsilon)

    @property
    def n(self):
        return len(self._left)

    def panels(self):
        for rows in row_blocks(self.n):
            c = self.n - rows.start  # W's last c columns
            panel = self._buf[:(rows.stop - rows.start) * c].reshape(-1, c)
            np.matmul(self._left[rows], self._right[rows.start:].T, out=panel)
            yield rows, self._transform(panel)

    def w_product(self, v):
        out = np.zeros(v.shape)
        for rows, panel in self.panels():
            out[rows] += (v[rows.start:].T @ panel.T).T
            out[rows.stop:] += (v[rows].T @ panel[:, len(panel):]).T
        return out

    def w_diagonal(self):
        return self._diagonal

    def submatrix(self, rows, cols=None):
        raise ValueError("a streamed operator holds no W to gather")


def build_transition(store, params, labeled_mask):
    """Build the transition operator of the whole vocabulary graph.

    The graph comes from the embeddings alone; the solvers check the seed
    split. `labeled_mask` is checked only for its length: it stays because
    the benchmark's reference solver passes it.
    """
    if np.shape(labeled_mask) != (len(store),):
        raise ValueError("labeled mask length mismatch")
    x = store.vectors if params.kernel == EUCLIDEAN_RBF else store.unit_vectors
    return TransitionOperator(raw_weights(x, params), params.epsilon)
