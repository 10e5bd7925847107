"""Similarity graph construction: edge weights and the epsilon-smoothed
transition operator."""

import numbers

import numpy as np

COSINE_LOGISTIC = "cosine-logistic"
EUCLIDEAN_RBF = "euclidean-rbf"

# W's rows are walked in blocks of this many entries: the fit's gradient
# pass takes two scratch arrays of one block, a few megabytes at every n.
_BLOCK_ENTRIES = 1 << 18

# W is kept, or recomputed, in panels of this many row blocks (2^21 entries):
# at n = 4000, 8 and 16 build in 0.07 s against 0.10 s for one n x n GEMM and
# run CG alike; at n = 2000, 8 keep 0.75 n^2 where 16 keep all of W.
_PANEL_BLOCKS = 8

# Bytes of W's panels kept, in order; the rest are recomputed on each pass.
# 4 GiB, half of an 8 GB machine, keeps every panel up to n = 32,736.
_KEEP_BYTES = 1 << 32

# A gather takes kept panel rows this many entries at a time: temporaries of
# at most 128 KB gathered W_uu at n = 2000 in 10 ms, against 19 ms for whole
# row blocks and 14 ms from one n x n W (2 vCPU, bench malloc settings).
_GATHER_ENTRIES = 1 << 14


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


def _slices(start, stop, step):
    """Slices that cover range(start, stop) in runs of `step`."""
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def row_blocks(n):
    """Slices that cover the rows of an n x n array in fixed-size blocks."""
    return _slices(0, n, max(1, _BLOCK_ENTRIES // max(n, 1)))


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


def _checked(mass, side):
    """`mass`, refused when a column or row mass is zero or not finite."""
    if np.any(mass <= 0) or not np.all(np.isfinite(mass)):
        raise NumericalDegeneracyError(
            "zero or non-finite %s mass; consider epsilon smoothing" % side)
    return mass


class TransitionOperator:
    """T = (1 - eps) D_r^-1 W D_c^-1 + (eps / n) 11^T over the rows of `x`,
    with W the weight kernel of `params` and eps its epsilon.

    T is applied from its factors, never stored. W is stored at most once,
    as its upper-triangle panels W[I, I.start:], kept in order while their
    bytes sum to at most `_KEEP_BYTES` and past that recomputed into one
    buffer on each pass; `submatrix` gathers only when all are kept
    (`gathers`). One method, `_panel`, builds a panel either way, so the two
    agree bit for bit; it mirrors the panel's diagonal block, so W is
    exactly symmetric and `col`, W 1, is both its column and its row sums.
    `row` is the row sums of W D_c^-1 and `diagonal` W's diagonal. W is read
    only by `w_product`, `panels` and `submatrix`. Nothing depends on which
    words are labeled: one operator serves every seed split.
    """

    def __init__(self, x, params):
        self._left, self._right, self._transform = _weight_kernel(x, params)
        self.n, self.epsilon = len(x), params.epsilon
        self._height = row_blocks(self.n)[0].stop  # rows per row block
        self._rows = _slices(0, self.n, _PANEL_BLOCKS * self._height)
        sizes = [(r.stop - r.start) * (self.n - r.start) for r in self._rows]
        self._kept = [self._panel(rows) for rows, size in zip(
            self._rows, np.cumsum(sizes)) if 8 * size <= _KEEP_BYTES]
        self.gathers = len(self._kept) == len(self._rows)
        if not self.gathers:
            self._buf = np.empty(self._rows[0].stop * self.n)
        self.diagonal = self._transform(
            np.einsum("ij,ij->i", self._left, self._right))
        self.col = _checked(self.w_product(np.ones(self.n)), "column")
        self.row = _checked(self.w_product(1.0 / self.col), "row")

    def _panel(self, rows, out=None):
        """W[rows, rows.start:], written into `out` when it is given; the
        lower triangle of its diagonal block is copied from the upper."""
        panel = self._transform(np.matmul(
            self._left[rows], self._right[rows.start:].T, out=out))
        for i in range(1, len(panel)):
            panel[i, :i] = panel[:i, i]
        return panel

    def _walk(self):
        """(rows, W[rows, rows.start:]) per panel: the kept one, or one
        recomputed into a contiguous view of the buffer, valid until the
        next."""
        for k, rows in enumerate(self._rows):
            shape = (rows.stop - rows.start, self.n - rows.start)
            yield rows, (self._kept[k] if k < len(self._kept) else self._panel(
                rows, self._buf[:shape[0] * shape[1]].reshape(shape)))

    def w_product(self, v):
        """W v for an n-vector or an n x m array, C-ordered. Each panel
        W_IJ serves W_IJ v_J and, past its diagonal block, W_IJ^T v_I, as
        (v^T W)^T: 1.8x faster than W v at n = 4000, m = 7 (two cores)."""
        out = np.zeros(v.shape)
        for rows, panel in self._walk():
            out[rows] += (v[rows.start:].T @ panel.T).T
            out[rows.stop:] += (v[rows].T @ panel[:, len(panel):]).T
        return out

    def panels(self):
        """W's upper triangle, as (rows, W[rows, rows.start:]) per row block
        of `row_blocks`: views of the panels, valid until the next panel."""
        for rows, panel in self._walk():
            for block in _slices(rows.start, rows.stop, self._height):
                top = block.start - rows.start
                yield block, panel[top:block.stop - rows.start, top:]

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
        """Dense T[rows][:, cols] for boolean masks, gathered from the kept
        panels; `cols` defaults to `rows`. The panel W[I, I.start:] gives
        W[i, j] for i in I and j from I.start on, and W[j, i] for j in I
        and i past I; a block W[rows, rows] is symmetric, so its lower part
        is copied from its upper part."""
        if not self.gathers:
            raise ValueError("W is not kept whole, so it cannot be gathered")
        r = np.flatnonzero(rows)
        c = r if cols is None else np.flatnonzero(cols)
        t = np.empty((len(r), len(c)))
        step = max(1, _GATHER_ENTRIES // self.n)
        for panel_rows, panel in self._walk():
            s = panel_rows.start
            a, b = np.searchsorted(r, (s, panel_rows.stop))
            e, f = np.searchsorted(c, (s, panel_rows.stop))
            for k in _slices(a, b, step):
                t[k, e:] = panel.take(r[k] - s, 0).take(c[e:] - s, 1)
            if cols is None:
                t[b:, a:b] = t[a:b, b:].T
            else:
                for k in _slices(e, f, step):
                    t[b:, k] = panel.take(c[k] - s, 0).take(r[b:] - s, 1).T
        t /= self.col[c]
        t *= ((1.0 - self.epsilon) / self.row[r])[:, None]
        t += self.epsilon / self.n
        return t


def build_transition(store, params, labeled_mask):
    """Build the transition operator of the whole vocabulary graph.

    The graph comes from the embeddings alone; the solvers check the seed
    split. `labeled_mask` is checked only for its length: it stays because
    the benchmark's reference solver passes it.
    """
    if np.shape(labeled_mask) != (len(store),):
        raise ValueError("labeled mask length mismatch")
    x = store.vectors if params.kernel == EUCLIDEAN_RBF else store.unit_vectors
    return TransitionOperator(x, params)
