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
                    PropagationParams, TransitionOperator, logistic,
                    raw_weights, row_blocks)
from .lexicon import init_label_matrix


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
                      per_row=False):
    """Entropy of the K-step unrolled propagation and its analytic gradient.

    `unit` holds unit vectors and `y` label rows in the same node order;
    the rows where `labeled` is true are clamped to `y`, the others start
    uniform. Returns (H, {"alpha", "b", "eps_logit"}) with gradients matching
    alpha's shape. With per_row the objective is the mean entropy per
    unlabeled row, which leaves the full-graph minimizer unchanged but makes
    batch-subgraph gradients scale-comparable to full-graph ones.
    """
    n, m = y.shape
    unlabeled = ~labeled
    weights = raw_weights(unit, PropagationParams(alpha=alpha, b=b))
    # A graph with an empty row or column at these parameters means the
    # descent diverged; _descend recovers from that by halving the rate.
    try:
        tm = TransitionOperator(weights, epsilon)
    except NumericalDegeneracyError as exc:
        raise GradientError(str(exc)) from exc

    seeds = y[labeled]
    state = y.copy()
    state[unlabeled] = 1.0 / m
    iterates = [state]
    for _ in range(unroll_steps):
        state = tm.apply(state)
        state[labeled] = seeds
        iterates.append(state)
    y_final = state[unlabeled]
    scale = 1.0 / len(y_final) if per_row else 1.0
    h = entropy(y_final) * scale

    # dH/dY of each iterate after the first, labeled rows zero: the clamp
    # cuts them off.
    g = np.zeros((n, m))
    g[unlabeled] = -scale * (np.log(np.maximum(y_final, 1e-300)) + 1.0)
    g_iterates = [g]
    for _ in range(unroll_steps - 1):
        g = tm.apply_transpose(g)
        g[labeled] = 0.0
        g_iterates.append(g)
    # dH/dT = sum_t g_t Y_{t-1}^T as one GEMM; it is reduced in place to
    # dH/dz through T = (1-eps) D_r^-1 W D_c^-1 + (eps/n) 11^T.
    grad = np.hstack(g_iterates[::-1]) @ np.hstack(iterates[:-1]).T
    w, col, row = tm.w, tm.col, tm.row
    g_eps = grad.sum() / n
    grad /= col
    s = np.einsum("ij,ij->i", grad, w) / row
    g_eps -= s.sum()
    grad *= ((1.0 - epsilon) / row)[:, None]
    a = (1.0 - epsilon) * s / row
    q = np.einsum("ij,ij->j", grad, w) - (w.T @ a) / col
    for rows in row_blocks(n):
        block = grad[rows]
        block -= (a[rows, None] + q) / col
        block *= w[rows]
        block *= 1.0 - w[rows]

    g_alpha = np.sum((grad @ unit) * unit, axis=0)
    if np.ndim(alpha) == 0:
        g_alpha = float(np.sum(g_alpha))
    g_b = float(np.sum(grad))
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
    `steps` descent steps on its own subgraph. A step diverges when the
    entropy or a gradient is non-finite, the graph is degenerate, or epsilon
    rounds to 0 or 1; the parameters and trace are then restored to their
    values before the batch and the batch is retried at half the rate, up
    to three halvings in the whole descent. Returns the triple after the
    last step, the trace row and triple of the lowest-entropy iterate of
    the last batch, and the trace.
    """
    init = dict(_DEFAULT_INIT, **(init or {}))
    state = (np.array(init["alpha"], dtype=np.float64), float(init["b"]),
             _logit(init["epsilon"]))
    trace = OptTrace()
    lr = config.learning_rate
    halvings = 0
    for batch in batches:
        unit = store.unit_vectors[batch]
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
                                                 per_row=True)
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


def fit_batched(store, seed, config, init=None):
    """Shared-parameter descent over random vocabulary subsamples.

    Each batch fixes the labeled/unlabeled proportion of the full graph,
    builds only its own submatrix, and takes config.epochs_per_batch
    descent steps on the shared parameters. The last iterate is returned:
    entropies of different subgraphs do not rank parameters.
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
    return _params(state), trace
