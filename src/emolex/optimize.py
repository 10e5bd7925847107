"""Entropy-minimizing hyperparameter search for the propagation graph.

The objective is the entropy of the unlabeled predictions after K unrolled
clamped propagation sweeps, with the transition matrix rebuilt from the
current (alpha, b, epsilon) at every evaluation. Gradients are accumulated
in reverse through the unrolled sweeps, the smoothing, and both
normalization passes. epsilon is trained through a logit reparameterization
so it stays in (0, 1).
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import (COSINE_LOGISTIC, NumericalDegeneracyError,
                    PropagationParams, TransitionOperator, labeled_mass,
                    logistic, raw_weights, row_blocks)
from .lexicon import init_label_matrix
from .solver import condition


class GradientError(RuntimeError):
    """A non-finite gradient, annotated with the parameter at fault."""


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

    def __post_init__(self):
        if self.mode not in ("full", "batch"):
            raise ValueError("mode must be 'full' or 'batch'")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("epochs", "unroll_steps", "batch_size", "num_batches",
                     "epochs_per_batch"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)

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

    def truncate(self, length):
        """Drop the records after the first `length`."""
        for values in (self.entropies, self.grad_norms, self.alphas, self.bs,
                       self.epsilons):
            del values[length:]

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


def _forward_backward(unit, labeled, y, alpha, b, epsilon, unroll_steps,
                      per_row=False, weights=None):
    """Entropy of the K-step unrolled propagation and its analytic gradient.

    `unit` holds unit vectors and `y` label rows in the same node order;
    the rows where `labeled` is true are clamped to `y`, the others start
    uniform. Returns (H, {"alpha", "b", "eps_logit"}) with gradients matching
    alpha's shape. With per_row the objective is the mean entropy per
    unlabeled row, which leaves the full-graph minimizer unchanged but makes
    batch-subgraph gradients scale-comparable to full-graph ones. The weight
    matrix is written into `weights`, an n x n buffer, when it is given.
    """
    n, m = y.shape
    unlabeled = ~labeled
    w = raw_weights(unit, PropagationParams(alpha=alpha, b=b), out=weights)
    # A graph with an empty row or column at these parameters means the
    # descent diverged; _descend recovers from that by halving the rate.
    try:
        tm = TransitionOperator(w, epsilon)
    except NumericalDegeneracyError as exc:
        raise GradientError(str(exc)) from exc

    # dH/dT = sum_t G_t Y_{t-1}^T = G Y^T has rank K m and is never formed
    # whole. The sweeps write the iterates Y_{t-1} into `right` and the
    # products F_t = W D_c^-1 Y_{t-1} into `forward`; column block t-1 of
    # `left` takes G_t, the gradient of H by Y_t with the labeled rows zero.
    km = unroll_steps * m
    left = np.empty((n, km + 2))
    right = np.empty((n, km + 2))
    forward = np.empty((n, km))
    seeds = y[labeled]
    state = y.copy()
    state[unlabeled] = 1.0 / m
    for t in range(unroll_steps):
        cols = slice(t * m, (t + 1) * m)
        right[:, cols] = state
        state = tm.apply(state, product=forward[:, cols])
        state[labeled] = seeds
    y_final = state[unlabeled]
    scale = 1.0 / len(y_final) if per_row else 1.0
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
    del forward  # freed before the pass over W allocates its buffers
    c = right[:, :km].sum(axis=0)
    g_eps = float(np.sum(big_g @ (c / n) - s))
    tm.apply_transpose(np.column_stack([left[:, :m], s]), product=back)
    yb += np.einsum("ij,ij->i", right[:, :m], back[:, :m])
    r = (1.0 - epsilon) / row
    big_g *= r[:, None]
    left[:, km] = -r * s
    left[:, km + 1] = -1.0
    right[:, km] = 1.0
    right[:, km + 1] = (yb - back[:, m]) / col
    right /= col[:, None]

    # One pass over W: the rows of dH/dW from one GEMM, times dW/dz =
    # W (1 - W), reduced into the b and alpha gradients.
    blocks = row_blocks(n)
    buf = np.empty((blocks[0].stop, n))
    scratch = np.empty_like(buf)
    g_b = 0.0
    g_alpha = np.zeros(unit.shape[1])
    for rows in blocks:
        block = np.matmul(left[rows], right.T, out=buf[:rows.stop - rows.start])
        w_rows = w[rows]
        block *= w_rows
        block *= np.subtract(1.0, w_rows, out=scratch[:len(block)])
        g_b += float(block.sum())
        g_alpha += np.sum((block @ unit) * unit[rows], axis=0)

    if np.ndim(alpha) == 0:
        g_alpha = float(np.sum(g_alpha))
    g_eps_logit = g_eps * epsilon * (1.0 - epsilon)

    grads = {"alpha": g_alpha, "b": g_b, "eps_logit": g_eps_logit}
    for name, value in grads.items():
        if not np.all(np.isfinite(value)):
            raise GradientError("non-finite gradient for %s" % name)
    return h, grads


def entropy_gradient(store, label_matrix, params, unroll_steps=10):
    """Analytic (entropy, gradient) of the unrolled objective at `params`.

    Gradients are reported for alpha (matching its scalar/vector shape), b,
    and the logit of epsilon.
    """
    if params.kernel != COSINE_LOGISTIC:
        raise ValueError("gradients are defined for the cosine-logistic kernel")
    return _forward_backward(store.unit_vectors, label_matrix.labeled_mask,
                             label_matrix.rows, params.alpha, params.b,
                             params.epsilon, unroll_steps)


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
    return alpha - lr * grads["alpha"], b - lr * grads["b"], eps_logit


def _params(state):
    alpha, b, eps_logit = state
    return PropagationParams(COSINE_LOGISTIC, alpha=alpha, b=b,
                             epsilon=_epsilon(eps_logit))


def _grad_norm(grads):
    parts = [np.ravel(np.asarray(grads["alpha"], dtype=np.float64)),
             np.array([grads["b"], grads["eps_logit"]])]
    return float(np.linalg.norm(np.concatenate(parts)))


_DEFAULT_INIT = {"alpha": 0.0, "b": 0.0, "epsilon": 0.1}


def _descend(store, label_matrix, batches, steps, config, init):
    """Gradient descent on the per-row unrolled entropy, batch by batch.

    The parameters are an (alpha, b, eps_logit) triple that no step
    modifies in place. Each batch (an index into the vocabulary) takes
    `steps` descent steps on its own subgraph, every step writing its
    weights into one buffer per batch size. A step diverges when the
    entropy or a gradient is non-finite, the graph is degenerate, or epsilon
    rounds to 0 or 1; the parameters and trace are then restored to their
    values before the batch and the batch is retried at half the rate, up
    to three halvings in the whole descent. Returns the triple after the
    last step, the trace row and triple of the lowest-entropy iterate of
    the last batch, and the trace.
    """
    init = dict(_DEFAULT_INIT, **(init or {}))
    unknown = sorted(set(init) - set(_DEFAULT_INIT))
    if unknown:
        raise ValueError("unknown init key(s) %s: init takes only alpha, "
                         "b and epsilon" % ", ".join(unknown))
    if not 0.0 < init["epsilon"] < 1.0:
        raise ValueError("init epsilon must be in the open interval (0, 1)")
    state = (np.array(init["alpha"], dtype=np.float64), float(init["b"]),
             _logit(init["epsilon"]))
    trace = OptTrace()
    lr = config.learning_rate
    halvings = 0
    weights = None
    for batch in batches:
        unit = store.unit_vectors[batch]
        if weights is None or len(weights) != len(unit):
            weights = np.empty((len(unit), len(unit)))
        labeled = label_matrix.labeled_mask[batch]
        rows = label_matrix.rows[batch]
        start, recorded = state, len(trace.entropies)
        while True:
            best = (math.inf, None, state)
            try:
                for _ in range(steps):
                    alpha, b, eps_logit = state
                    epsilon = _epsilon(eps_logit)
                    h, grads = _forward_backward(unit, labeled, rows, alpha, b,
                                                 epsilon, config.unroll_steps,
                                                 per_row=True, weights=weights)
                    if not math.isfinite(h):
                        raise GradientError("entropy diverged")
                    trace.record(h, _grad_norm(grads), alpha, b, epsilon)
                    if h < best[0]:
                        best = (h, len(trace.entropies) - 1, state)
                    state = _step(state, grads, lr)
                break
            except GradientError as exc:
                if halvings == 3:
                    raise GradientError(
                        "entropy diverged after 3 learning-rate halvings: %s"
                        % exc) from exc
                halvings += 1
                lr /= 2.0
                state = start
                trace.truncate(recorded)
    return state, best[1:], trace


def _label_matrix(store, seed):
    """The seeds' LabelMatrix over the whole vocabulary; raises unless it
    has at least one labeled and one unlabeled node."""
    label_matrix, _ = init_label_matrix(store.vocab, seed)
    if not 0 < label_matrix.n_labeled < len(store):
        raise ValueError("need at least one labeled and one unlabeled node")
    return label_matrix


def fit_full(store, seed, config, init=None):
    """Plain gradient descent on the full-graph unrolled entropy.

    One batch of the whole vocabulary taking config.epochs steps, so a
    divergence restarts the fit from `init` at half the rate. Returns the
    lowest-entropy iterate; the trace's `params_epoch` is its row.
    """
    label_matrix = _label_matrix(store, seed)
    _, (epoch, best), trace = _descend(store, label_matrix, [slice(None)],
                                       config.epochs, config, init)
    trace.params_epoch = epoch
    return _params(best), trace


def _sample_batch(rng, labeled_idx, unlabeled_idx, batch_size, total):
    """Sorted batch indices preserving the global labeled fraction."""
    n_lab = math.ceil(batch_size * len(labeled_idx) / total)
    n_unl = batch_size - n_lab
    if n_lab < 1 or n_unl < 1:
        raise ValueError("batch has no labeled or no unlabeled nodes")
    lab = rng.choice(labeled_idx, size=n_lab, replace=False)
    unl = rng.choice(unlabeled_idx, size=n_unl, replace=False)
    return np.sort(np.concatenate([lab, unl]))


def _check_condition(store, labeled, params):
    """Raise GradientError unless `expand` accepts `params` on the whole
    vocabulary, where `labeled_mass` streams W and refuses a zero row or
    column mass and `condition` refuses the bound m = T 1_L gives."""
    try:
        mass = labeled_mass(store.unit_vectors, params, labeled)
        condition(np.min(mass[~labeled]))
    except NumericalDegeneracyError as exc:
        raise GradientError("fitted parameters give a graph that expand "
                            "refuses: %s" % exc) from exc


def fit_batched(store, seed, config, init=None):
    """Shared-parameter descent over random vocabulary subsamples.

    Each batch fixes the labeled/unlabeled proportion of the full graph,
    builds only its own submatrix, and takes config.epochs_per_batch
    descent steps on the shared parameters. The last iterate is returned:
    entropies of different subgraphs do not rank parameters. It is checked
    on the full graph, and a GradientError is raised when `expand` would
    refuse it.
    """
    if config.batch_size >= len(store):
        raise ValueError("batch_size must be smaller than the vocabulary")
    label_matrix = _label_matrix(store, seed)
    labeled_idx = np.flatnonzero(label_matrix.labeled_mask)
    unlabeled_idx = np.flatnonzero(~label_matrix.labeled_mask)
    rng = np.random.default_rng(config.rng_seed)
    batches = (_sample_batch(rng, labeled_idx, unlabeled_idx,
                             config.batch_size, len(store))
               for _ in range(config.num_batches))
    state, _, trace = _descend(store, label_matrix, batches,
                               config.epochs_per_batch, config, init)
    params = _params(state)
    _check_condition(store, label_matrix.labeled_mask, params)
    return params, trace
