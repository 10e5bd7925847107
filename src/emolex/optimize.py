"""Entropy-minimizing hyperparameter search for the propagation graph.

The objective is the entropy of the unlabeled predictions after K unrolled
clamped propagation sweeps, with the transition matrix rebuilt from the
current (alpha, b, epsilon) at every evaluation. Gradients are accumulated
in reverse through the unrolled sweeps, the smoothing, and both
normalization passes. epsilon is trained through a logit reparameterization
so it stays in (0, 1).
"""

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .graph import (COSINE_LOGISTIC, NumericalDegeneracyError,
                    PropagationParams, TransitionOperator, integer, is_real,
                    logistic, real)
from .lexicon import init_label_matrix
from .solver import (MAX_ITER, TOL, ConvergenceError, check_seed_split,
                     check_solver_options, expand)


class GradientError(RuntimeError):
    """A non-finite gradient, annotated with the parameter at fault."""


_DEFAULT_INIT = {"alpha": 0.0, "b": 0.0, "epsilon": 0.1}


@dataclass
class OptimizerConfig:
    mode: str = "full"
    learning_rate: float = 0.1
    epochs: int = 100
    unroll_steps: int = 10
    batch_size: int = 5000
    num_batches: int = 1000
    epochs_per_batch: int = 3
    rng_seed: int = 0
    init: dict = None  # the start, resolved over _DEFAULT_INIT, JSON-ready

    def __post_init__(self):
        if self.mode not in ("full", "batch"):
            raise ValueError("mode must be 'full' or 'batch'")
        if not real("learning_rate", self.learning_rate) > 0:
            raise ValueError("learning_rate must be positive")
        if not math.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")
        for name in ("epochs", "unroll_steps", "batch_size", "num_batches",
                     "epochs_per_batch", "rng_seed"):
            value = integer(name, getattr(self, name))
            setattr(self, name, value)
            floor = 0 if name == "rng_seed" else 1
            if value < floor:
                raise ValueError("%s must be >= %d" % (name, floor))
        init = {} if self.init is None else self.init
        if not isinstance(init, dict):
            raise ValueError("init must be an object, not %r" % (init,))
        init = dict(_DEFAULT_INIT, **init)
        unknown = sorted(set(init) - set(_DEFAULT_INIT))
        if unknown:
            raise ValueError("unknown init key(s) %s: init takes only alpha, "
                             "b and epsilon" % ", ".join(unknown))
        # A value that is not a number is PropagationParams' to refuse.
        if is_real(init["epsilon"]) and not 0.0 < init["epsilon"] < 1.0:
            raise ValueError("init epsilon must be in the open interval (0, 1)")
        start = PropagationParams(**init)
        self.init = {"alpha": start.alpha.tolist(), "b": start.b,
                     "epsilon": start.epsilon}

    @classmethod
    def from_dict(cls, d):
        """The config of `to_dict`'s keys; any other key is refused, not
        dropped."""
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(d) - set(names))
        if unknown:
            raise ValueError("unknown fit key(s) %s: a fit takes only %s"
                             % (", ".join(unknown), ", ".join(names)))
        return cls(**d)

    def to_dict(self):
        return asdict(self)


@dataclass
class OptTrace:
    """One row per descent step. `params_epoch` is the row whose
    parameters the fit returned, when it returns a recorded iterate."""

    entropies: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    bs: list = field(default_factory=list)
    epsilons: list = field(default_factory=list)
    params_epoch: int = None

    def record(self, entropy_value, grad_norm, alpha, b, epsilon):
        self.entropies.append(float(entropy_value))
        self.grad_norms.append(float(grad_norm))
        alpha = np.asarray(alpha, dtype=np.float64)
        self.alphas.append(float(alpha.mean()))
        self.bs.append(float(b))
        self.epsilons.append(float(epsilon))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,entropy,grad_norm,alpha_mean,b,epsilon\n")
            for i in range(len(self.entropies)):
                fh.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                    i, self.entropies[i], self.grad_norms[i], self.alphas[i],
                    self.bs[i], self.epsilons[i]))


def entropy(y_u):
    """Natural-log entropy summed over rows and classes, with 0 log 0 := 0."""
    y_u = np.asarray(y_u, dtype=np.float64)
    if np.any(y_u < 0):
        raise ValueError("negative probability component")
    pos = y_u > 0
    return float(-np.sum(y_u[pos] * np.log(y_u[pos])))


def _logit(p):
    return math.log(p) - math.log1p(-p)


def _held(unit, alpha, b, epsilon):
    """The operator at (alpha, b, epsilon) on `unit`; a degenerate graph is
    a divergence, a GradientError, which _descend halves the rate on."""
    try:
        return TransitionOperator(unit, PropagationParams(
            alpha=alpha, b=b, epsilon=epsilon))
    except NumericalDegeneracyError as exc:
        raise GradientError(str(exc)) from exc


def _forward_backward(tm, unit, labeled, y, alpha, unroll_steps):
    """Mean entropy H/u of the u unlabeled rows after K unrolled
    propagation sweeps, and its analytic gradient.

    `tm` is the graph on the unit vectors `unit`, whatever panels it keeps,
    and `y` holds label rows in the same node order; W is read only through
    `tm`. The rows where `labeled` is true are clamped to `y`, the others
    start uniform. Returns (H/u, {"alpha", "b", "eps_logit"}) with the
    gradients of the shape of `alpha`, which is read for nothing else. The
    mean makes batch-subgraph gradients scale-comparable to full-graph ones.
    """
    n, m = y.shape
    unlabeled = ~labeled

    # dH/dT = sum_t G_t Y_{t-1}^T = G Y^T has rank K m and is never formed
    # whole. The sweeps write the iterates Y_{t-1} into `right` and the
    # products F_t = W D_c^-1 Y_{t-1} into `forward`; column block t-1 of
    # `left` takes G_t, the gradient of H by Y_t with the labeled rows zero.
    # `left` and `right` are the first two column blocks of `lrl`. Its last
    # block holds `forward` until the products are reduced, then a copy of
    # the final L, so that [L R] and [R L] are both views of it.
    km = unroll_steps * m
    k = km + 2
    lrl = np.empty((n, 3 * k))
    left, right, forward = lrl[:, :k], lrl[:, k:2 * k], lrl[:, 2 * k:-2]
    seeds = y[labeled]
    state = y.copy()
    state[unlabeled] = 1.0 / m
    for t in range(unroll_steps):
        cols = slice(t * m, (t + 1) * m)
        right[:, cols] = state
        state = tm.apply(state, product=forward[:, cols])
        state[labeled] = seeds
    y_final = state[unlabeled]
    scale = 1.0 / len(y_final)
    h = entropy(y_final) * scale

    # Every row of Y_{t-1} sums to 1, so adding a constant to a row of G_t
    # adds it to a whole row of dH/dT, which T's row normalization cancels
    # exactly in every gradient below. Each G_t is therefore centered over
    # the emotions: that drops the +1 of dH/dY and keeps the differences
    # below small. yb accumulates the row sums of Y_{t-1} * B_t with
    # B_t = W^T (1-eps) D_r^-1 G_t, the product the backward sweep forms.
    g = np.zeros((n, m))
    g[unlabeled] = -scale * np.log(np.maximum(y_final, 1e-300))
    back = np.empty((n, m + 1))
    yb = np.zeros(n)
    for t in range(unroll_steps, 0, -1):
        g -= g.mean(axis=1)[:, None]
        cols = slice((t - 1) * m, t * m)
        left[:, cols] = g
        if t > 1:
            g = tm.apply_transpose(g, product=back[:, :m])
            g[labeled] = 0.0
            yb += np.einsum("ij,ij->i", right[:, cols], back[:, :m])

    # Through T = (1-eps) D_r^-1 W D_c^-1 + (eps/n) 11^T, with r = (1-eps)
    # / row and c the column sums of Y:
    #   s_i = sum_j dH/dT_ij W_ij / (row_i col_j) = sum (G * F)_i / row_i,
    #   dH/deps = sum_i (G c / n)_i - s_i,
    #   a = r s, q_j = (yb - W^T a)_j / col_j, and
    #   dH/dW_ij = (r_i dH/dT_ij - a_i - q_j) / col_j.
    # The last product with W, of m + 1 columns, gives B_1 and W^T a.
    col, row = tm.col, tm.row
    big_g = left[:, :km]
    s = np.einsum("ij,ij->i", big_g, forward) / row
    c = right[:, :km].sum(axis=0)
    g_eps = float(np.sum(big_g @ (c / n) - s))
    tm.apply_transpose(np.column_stack([left[:, :m], s]), product=back)
    yb += np.einsum("ij,ij->i", right[:, :m], back[:, :m])
    r = (1.0 - tm.epsilon) / row
    big_g *= r[:, None]
    left[:, km] = -r * s
    left[:, km + 1] = -1.0
    right[:, km] = 1.0
    right[:, km + 1] = (yb - back[:, m]) / col
    right /= col[:, None]

    # One pass over W's upper triangle. dW/dz = W (1 - W) and the factors
    # that take dH/dz_ij to the gradients, x_i x_j for alpha and 1 for b,
    # are symmetric in (i, j), so only the symmetric part of dH/dW = L R^T
    # counts. Over row block I and the columns from I's first row on, twice
    # that part is the one GEMM [L R]_I [R L]^T; halving the block on the
    # diagonal then makes every pair (i, j) count once.
    lrl[:, 2 * k:] = left
    pair, swapped = lrl[:, :2 * k], lrl[:, k:]
    buf = scratch = None
    g_b = 0.0
    g_alpha = np.zeros(unit.shape[1])
    for rows, w_panel in tm.panels():
        if buf is None:  # the first panel is the largest
            buf, scratch = np.empty(w_panel.size), np.empty(w_panel.size)
        shape, size = w_panel.shape, w_panel.size
        panel = np.matmul(pair[rows], swapped[rows.start:].T,
                          out=buf[:size].reshape(shape))
        panel *= w_panel
        panel *= np.subtract(1.0, w_panel, out=scratch[:size].reshape(shape))
        panel[:, :shape[0]] *= 0.5
        g_b += float(panel.sum())
        g_alpha += np.sum((panel @ unit[rows.start:]) * unit[rows], axis=0)

    if np.ndim(alpha) == 0:
        g_alpha = float(np.sum(g_alpha))
    g_eps_logit = g_eps * tm.epsilon * (1.0 - tm.epsilon)

    grads = {"alpha": g_alpha, "b": g_b, "eps_logit": g_eps_logit}
    for name, value in grads.items():
        if not np.all(np.isfinite(value)):
            raise GradientError("non-finite gradient for %s" % name)
    return h, grads


def entropy_gradient(store, label_matrix, params, unroll_steps=10):
    """Analytic (entropy, gradient) of the unrolled objective at `params`.

    The entropy is H/u, the mean over the u unlabeled rows: the objective
    the fits descend on and `trace.csv` records. Gradients are reported for
    alpha (matching its scalar/vector shape), b, and the logit of epsilon.
    """
    if params.kernel != COSINE_LOGISTIC:
        raise ValueError("gradients are defined for the cosine-logistic kernel")
    unit = store.unit_vectors
    tm = _held(unit, params.alpha, params.b, params.epsilon)
    return _forward_backward(tm, unit, label_matrix.labeled_mask,
                             label_matrix.rows, params.alpha, unroll_steps)


def _epsilon(eps_logit):
    return float(logistic(np.asarray(eps_logit)))


def _step(state, grads, lr):
    """The (alpha, b, eps_logit) triple one descent step after `state`."""
    alpha, b, eps_logit = state
    eps_logit = eps_logit - lr * grads["eps_logit"]
    epsilon = _epsilon(eps_logit)
    if not 0.0 < epsilon < 1.0:
        raise GradientError("epsilon rounds to %g at logit %g"
                            % (epsilon, eps_logit))
    alpha, b = alpha - lr * grads["alpha"], b - lr * grads["b"]
    if not (np.all(np.isfinite(alpha)) and math.isfinite(b)):
        raise GradientError("alpha or b overflows at learning rate %g" % lr)
    return alpha, b, eps_logit


def _params(state):
    alpha, b, eps_logit = state
    return PropagationParams(COSINE_LOGISTIC, alpha=alpha, b=b,
                             epsilon=_epsilon(eps_logit))


def _grad_norm(grads):
    parts = [np.ravel(np.asarray(grads["alpha"], dtype=np.float64)),
             np.array([grads["b"], grads["eps_logit"]])]
    return float(np.linalg.norm(np.concatenate(parts)))


def _descend(store, label_matrix, batches, steps, config):
    """Gradient descent on the per-row unrolled entropy, batch by batch.

    The parameters are an (alpha, b, eps_logit) triple that no step
    modifies in place. Each batch (an index into the vocabulary) takes
    `steps` descent steps on its own subgraph, each on its own operator,
    freed before the next step builds one. A step diverges when the entropy
    or a gradient is non-finite, the graph is degenerate, epsilon rounds to
    0 or 1, or alpha or b overflows; the batch is then retried from its
    start at half the rate, up to three halvings in the whole descent. Only
    an attempt that succeeds adds its rows to the trace. Returns the triple
    after the last step, the trace row and triple of the lowest-entropy
    iterate of the last batch, and the trace.
    """
    state = (np.array(config.init["alpha"]), config.init["b"],
             _logit(config.init["epsilon"]))
    trace = OptTrace()
    lr = config.learning_rate
    halvings = 0
    for batch in batches:
        unit = store.unit_vectors[batch]
        labeled = label_matrix.labeled_mask[batch]
        y = label_matrix.rows[batch]
        while True:
            rows, best, current = [], (math.inf, None, state), state
            try:
                for _ in range(steps):
                    alpha, b, eps_logit = current
                    epsilon = _epsilon(eps_logit)
                    h, grads = _forward_backward(
                        _held(unit, alpha, b, epsilon), unit, labeled, y,
                        alpha, config.unroll_steps)
                    if not math.isfinite(h):
                        raise GradientError("entropy diverged")
                    if h < best[0]:
                        best = (h, len(trace.entropies) + len(rows), current)
                    rows.append((h, _grad_norm(grads), alpha, b, epsilon))
                    current = _step(current, grads, lr)
                break
            except GradientError as exc:
                if halvings == 3:
                    raise GradientError(
                        "entropy diverged after 3 learning-rate halvings: %s"
                        % exc) from exc
                halvings += 1
                lr /= 2.0
        for row in rows:
            trace.record(*row)
        state = current
    return state, best[1:], trace


def _accepted(store, seed, params, tol, max_iter):
    """Raise GradientError when `expand` refuses `seed` at `params`: its
    graph is degenerate, or its solve at (tol, max_iter) is refused or not
    certified."""
    try:
        expand(store, seed, params, tol=tol, max_iter=max_iter)
    except (NumericalDegeneracyError, ConvergenceError) as exc:
        raise GradientError("fitted parameters give a graph that expand "
                            "refuses: %s" % exc) from exc


def fit_full(store, seed, config, tol=TOL, max_iter=MAX_ITER):
    """Plain gradient descent on the full-graph unrolled entropy.

    One batch of the whole vocabulary taking config.epochs steps, so a
    divergence restarts the fit from config.init at half the rate. Returns
    the lowest-entropy iterate; the trace's `params_epoch` is its row. It
    ends in `_accepted`: `expand`'s own build and solve at (tol, max_iter),
    once the descent has freed its graph.
    """
    check_solver_options(tol, max_iter)
    label_matrix, _ = init_label_matrix(store.vocab, seed)
    check_seed_split(label_matrix)
    _, (epoch, best), trace = _descend(store, label_matrix, [slice(None)],
                                       config.epochs, config)
    trace.params_epoch = epoch
    params = _params(best)
    _accepted(store, seed, params, tol, max_iter)
    return params, trace


def _sample_batch(rng, labeled_idx, unlabeled_idx, batch_size, total,
                  classes=None):
    """Sorted batch indices preserving the global labeled fraction and each
    seed class's share of the seeds, `classes[i]` being the class of
    `labeled_idx[i]` (one class when None), by largest remainders: seeds
    drawn at random bias the batch gradients away from the full one."""
    n_lab = math.ceil(batch_size * len(labeled_idx) / total)
    n_unl = batch_size - n_lab
    if n_lab < 1 or n_unl < 1:
        raise ValueError("batch has no labeled or no unlabeled nodes")
    if classes is None:
        classes = np.zeros(len(labeled_idx), dtype=np.intp)
    quota = n_lab * np.bincount(classes) / len(labeled_idx)
    counts = np.floor(quota).astype(np.intp)
    counts[np.argsort(counts - quota, kind="stable")[:n_lab - counts.sum()]] += 1
    lab = [rng.choice(labeled_idx[classes == c], size=k, replace=False)
           for c, k in enumerate(counts)]
    unl = rng.choice(unlabeled_idx, size=n_unl, replace=False)
    return np.sort(np.concatenate(lab + [unl]))


def fit_batched(store, seed, config, tol=TOL, max_iter=MAX_ITER):
    """Shared-parameter descent over random vocabulary subsamples.

    Each batch fixes the labeled/unlabeled proportion of the full graph
    and each seed class's share of its seeds, builds only its own
    submatrix, and takes config.epochs_per_batch descent steps on the
    shared parameters. The last iterate is returned: entropies of different
    subgraphs do not rank parameters. It ends as `fit_full` does, in
    `_accepted`, `expand`'s own build and solve.
    """
    check_solver_options(tol, max_iter)
    if config.batch_size >= len(store):
        raise ValueError("batch_size must be smaller than the vocabulary")
    label_matrix, _ = init_label_matrix(store.vocab, seed)
    check_seed_split(label_matrix)
    labeled = label_matrix.labeled_mask
    labeled_idx = np.flatnonzero(labeled)
    unlabeled_idx = np.flatnonzero(~labeled)
    classes = label_matrix.rows[labeled_idx].argmax(axis=1)
    rng = np.random.default_rng(config.rng_seed)
    batches = (_sample_batch(rng, labeled_idx, unlabeled_idx,
                             config.batch_size, len(store), classes)
               for _ in range(config.num_batches))
    state, _, trace = _descend(store, label_matrix, batches,
                               config.epochs_per_batch, config)
    params = _params(state)
    _accepted(store, seed, params, tol, max_iter)
    return params, trace
