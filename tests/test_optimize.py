import math

import numpy as np
import pytest

import emolex.optimize
from emolex import (EmotionSet, PropagationParams, SeedLexicon,
                    cross_validate, entropy, entropy_gradient, expand,
                    fit_batched, fit_full, init_label_matrix,
                    label_prop_expander)
from emolex.graph import (TransitionOperator, logistic, raw_weights,
                          row_blocks)
from emolex.optimize import (GradientError, OptimizerConfig,
                             _check_condition, _forward_backward,
                             _sample_batch)

from conftest import make_store, two_cluster_seed, two_cluster_store


def count_steps(monkeypatch):
    """Record every forward/backward pass; retried steps are recorded too."""
    calls = []
    forward_backward = emolex.optimize._forward_backward

    def counting(*args, **kwargs):
        calls.append(None)
        return forward_backward(*args, **kwargs)

    monkeypatch.setattr(emolex.optimize, "_forward_backward", counting)
    return calls


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy([[1.0, 0.0]]) == 0.0

    def test_uniform_two_classes(self):
        assert entropy([[0.5, 0.5]]) == pytest.approx(math.log(2), abs=1e-12)

    def test_sum_of_rows(self):
        h = entropy([[1.0, 0.0], [0.5, 0.5]])
        assert h == pytest.approx(0.6931, abs=1e-4)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            entropy([[1.1, -0.1]])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.dirichlet(np.ones(6), size=5)
        perm = rng.permutation(6)
        assert entropy(y) == pytest.approx(entropy(y[:, perm]), abs=1e-12)


def small_instance(n=10, m=3, n_labeled=3, seed=0, dim=5):
    rng = np.random.default_rng(seed)
    store = make_store(rng.normal(size=(n, dim)))
    emotions = EmotionSet(tuple("e%d" % i for i in range(m)))
    entries = {}
    for i in range(n_labeled):
        flags = np.zeros(m, dtype=np.int64)
        flags[i % m] = 1
        entries["w%d" % i] = flags
    seed_lex = SeedLexicon(entries, emotions)
    lm, _ = init_label_matrix(store.vocab, seed_lex, emotions)
    return store, seed_lex, lm


def fd_gradient(store, lm, params, unroll_steps, h=1e-5):
    """Central finite differences in (alpha, b, eps-logit) space."""
    alpha = np.atleast_1d(np.asarray(params.alpha, dtype=np.float64))
    scalar = np.asarray(params.alpha).ndim == 0
    eps_logit = math.log(params.epsilon) - math.log1p(-params.epsilon)

    def objective(alpha_v, b, rho):
        eps = 1.0 / (1.0 + math.exp(-rho))
        a = float(alpha_v[0]) if scalar else alpha_v
        p = PropagationParams(alpha=a, b=b, epsilon=eps)
        return entropy_gradient(store, lm, p, unroll_steps)[0]

    g_alpha = np.zeros_like(alpha)
    for k in range(alpha.size):
        up, down = alpha.copy(), alpha.copy()
        up[k] += h
        down[k] -= h
        g_alpha[k] = (objective(up, params.b, eps_logit)
                      - objective(down, params.b, eps_logit)) / (2 * h)
    g_b = (objective(alpha, params.b + h, eps_logit)
           - objective(alpha, params.b - h, eps_logit)) / (2 * h)
    g_rho = (objective(alpha, params.b, eps_logit + h)
             - objective(alpha, params.b, eps_logit - h)) / (2 * h)
    return (float(g_alpha[0]) if scalar else g_alpha), g_b, g_rho


class TestGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_alpha_matches_finite_differences(self, seed):
        store, _, lm = small_instance(seed=seed)
        params = PropagationParams(alpha=1.5, b=-0.4, epsilon=0.2)
        _, grads = entropy_gradient(store, lm, params, unroll_steps=5)
        fd_a, fd_b, fd_rho = fd_gradient(store, lm, params, 5)
        assert grads["alpha"] == pytest.approx(fd_a, rel=1e-4, abs=1e-10)
        assert grads["b"] == pytest.approx(fd_b, rel=1e-4, abs=1e-10)
        assert grads["eps_logit"] == pytest.approx(fd_rho, rel=1e-4, abs=1e-10)

    def test_vector_alpha_matches_finite_differences(self):
        store, _, lm = small_instance(seed=3, dim=6)
        alpha = np.linspace(0.3, 2.0, 6)
        params = PropagationParams(alpha=alpha, b=0.3, epsilon=0.1)
        _, grads = entropy_gradient(store, lm, params, unroll_steps=4)
        fd_a, fd_b, fd_rho = fd_gradient(store, lm, params, 4)
        assert np.allclose(grads["alpha"], fd_a, rtol=1e-4, atol=1e-10)
        assert grads["b"] == pytest.approx(fd_b, rel=1e-4, abs=1e-10)
        assert grads["eps_logit"] == pytest.approx(fd_rho, rel=1e-4, abs=1e-10)

    def test_constant_vector_alpha_sums_to_scalar_gradient(self):
        store, _, lm = small_instance(seed=4, dim=5)
        scalar = PropagationParams(alpha=1.2, b=-0.2, epsilon=0.15)
        vector = PropagationParams(alpha=np.full(5, 1.2), b=-0.2, epsilon=0.15)
        h_s, g_s = entropy_gradient(store, lm, scalar, unroll_steps=6)
        h_v, g_v = entropy_gradient(store, lm, vector, unroll_steps=6)
        assert h_s == pytest.approx(h_v, abs=1e-10)
        assert float(np.sum(g_v["alpha"])) == pytest.approx(g_s["alpha"], abs=1e-8)

    def test_symmetric_instance_has_zero_b_gradient(self):
        # labeled pair mirrored across the diagonal, unlabeled nodes on the
        # mirror axis: the class-swap automorphism forces uniform predictions
        # for every b, so H is constant in b
        emotions = EmotionSet(("a", "b"))
        vectors = np.array([[1.0, 0.2], [0.2, 1.0], [1.0, 1.0], [2.0, 2.0]])
        store = make_store(vectors)
        seed = SeedLexicon({"w0": [1, 0], "w1": [0, 1]}, emotions)
        lm, _ = init_label_matrix(store.vocab, seed, emotions)
        params = PropagationParams(alpha=2.0, b=0.0, epsilon=0.1)
        _, grads = entropy_gradient(store, lm, params, unroll_steps=8)
        assert grads["b"] == pytest.approx(0.0, abs=1e-10)

    def test_requires_cosine_kernel(self):
        store, _, lm = small_instance()
        params = PropagationParams(kernel="euclidean-rbf", sigma=1.0)
        with pytest.raises(ValueError):
            entropy_gradient(store, lm, params)


def sweeps(tm, labeled, y, steps):
    """The iterates Y_0..Y_K of K clamped `tm.apply` sweeps and the
    gradients G_K..G_1 of their entropy, from `tm.apply_transpose`."""
    m = y.shape[1]
    iterates = [y.copy()]
    iterates[0][~labeled] = 1.0 / m
    for _ in range(steps):
        state = tm.apply(iterates[-1])
        state[labeled] = y[labeled]
        iterates.append(state)
    g = np.zeros(y.shape)
    g[~labeled] = -(np.log(iterates[-1][~labeled]) + 1.0)
    g_iterates = [g]
    for _ in range(steps - 1):
        g = tm.apply_transpose(g_iterates[-1])
        g[labeled] = 0.0
        g_iterates.append(g)
    return iterates, g_iterates


def dense_forward_backward(unit, labeled, y, alpha, b, epsilon, steps):
    """The unrolled entropy and its gradient with dH/dT formed as one n x n
    array and reduced densely to dH/dz, the reference for the blocked
    reduction."""
    n = len(y)
    w = logistic((unit * alpha) @ unit.T + b)
    tm = TransitionOperator(w, epsilon)
    iterates, g_iterates = sweeps(tm, labeled, y, steps)
    y_final = iterates[-1][~labeled]
    # dH/dT = sum_t dH/dY_t Y_{t-1}^T
    grad = sum(g_t @ y_prev.T
               for g_t, y_prev in zip(g_iterates[::-1], iterates[:-1]))
    col, row = tm.col, tm.row
    g_eps = grad.sum() / n
    grad /= col
    s = np.einsum("ij,ij->i", grad, w) / row
    g_eps -= s.sum()
    grad *= ((1.0 - epsilon) / row)[:, None]
    a = (1.0 - epsilon) * s / row
    q = np.einsum("ij,ij->j", grad, w) - (w.T @ a) / col
    grad -= (a[:, None] + q) / col
    grad *= w * (1.0 - w)
    g_alpha = np.sum((grad @ unit) * unit, axis=0)
    if np.ndim(alpha) == 0:
        g_alpha = np.sum(g_alpha)
    return entropy(y_final), {"alpha": g_alpha, "b": grad.sum(),
                              "eps_logit": g_eps * epsilon * (1.0 - epsilon)}


def blocked_instance():
    """1100 nodes over five or more row blocks, 10% of them labeled."""
    n, m = 1100, 4
    assert len(row_blocks(n)) >= 5
    rng = np.random.default_rng(12)
    x = rng.normal(size=(n, 8))
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    labeled = np.zeros(n, dtype=bool)
    labeled[rng.choice(n, 110, replace=False)] = True
    y = np.full((n, m), 1.0 / m)
    y[labeled] = np.eye(m)[rng.integers(0, m, size=110)]
    return unit, labeled, y


def longdouble_reduction(unit, w, epsilon, iterates, g_iterates, alpha):
    """dH/dT = G Y^T formed whole in long double from float64 G, Y and W,
    and reduced to the gradients of alpha, b and the epsilon logit."""
    ld = np.longdouble
    n = len(w)
    p = np.hstack(g_iterates[::-1]).astype(ld) @ np.hstack(iterates[:-1]).astype(ld).T
    w = w.astype(ld)
    eps = ld(epsilon)
    col = w.sum(axis=0)
    row = (w / col).sum(axis=1)
    pw = p * w / col
    s = pw.sum(axis=1) / row
    r = (1 - eps) / row
    q = (r[:, None] * pw).sum(axis=0) - (w.T @ (r * s)) / col
    dz = (r[:, None] * p - (r * s)[:, None] - q) / col * w * (1 - w)
    unit = unit.astype(ld)
    g_alpha = np.sum((dz @ unit) * unit, axis=0)
    if np.ndim(alpha) == 0:
        g_alpha = np.sum(g_alpha)
    g_eps = np.sum(p.sum(axis=1) / n - s)
    return {"alpha": g_alpha, "b": dz.sum(),
            "eps_logit": g_eps * eps * (1 - eps)}


class TestBlockedReduction:
    # The gradient checks above run on one row block; these graphs span
    # five or more, so the one GEMM per block must see the whole of the
    # row and column terms (s, a and q) that the sweeps' products give.
    @pytest.mark.parametrize("alpha", [2.5, np.linspace(0.5, 4.0, 8)])
    def test_matches_dense_reduction(self, alpha):
        unit, labeled, y = blocked_instance()
        args = (unit, labeled, y, alpha, -1.0, 0.05, 4)
        h, grads = _forward_backward(*args)
        h_ref, ref = dense_forward_backward(*args)
        assert h == pytest.approx(h_ref, rel=1e-10)
        assert np.shape(grads["alpha"]) == np.shape(alpha)
        for name in ("alpha", "b", "eps_logit"):
            assert np.allclose(grads[name], ref[name], rtol=1e-10, atol=0)

    # dH/deps is a sum of differences of nearly equal terms; at this
    # small-gradient point the float64 reduction must keep 11 digits of
    # it and 12 of the alpha and b gradients.
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64 here")
    def test_within_long_double_reference(self):
        unit, labeled, y = blocked_instance()
        alpha, b, epsilon, steps = 3.0, 0.0, 0.1, 4
        _, grads = _forward_backward(unit, labeled, y, alpha, b, epsilon,
                                     steps)
        w = raw_weights(unit, PropagationParams(alpha=alpha, b=b))
        tm = TransitionOperator(w, epsilon)
        ref = longdouble_reduction(unit, w, epsilon,
                                   *sweeps(tm, labeled, y, steps), alpha)
        for name, rel in (("alpha", 1e-12), ("b", 1e-12), ("eps_logit", 1e-11)):
            error = abs(np.longdouble(grads[name]) - ref[name])
            assert error <= rel * abs(ref[name]), name

    def test_entropy_is_that_of_the_sweeps(self):
        unit, labeled, y = blocked_instance()
        alpha, b, epsilon, steps = 2.5, -1.0, 0.05, 4
        h, _ = _forward_backward(unit, labeled, y, alpha, b, epsilon, steps)
        tm = TransitionOperator(
            raw_weights(unit, PropagationParams(alpha=alpha, b=b)), epsilon)
        iterates, _ = sweeps(tm, labeled, y, steps)
        assert h == entropy(iterates[-1][~labeled])

    def test_weights_written_into_buffer(self):
        store, _, lm = small_instance(n=12)
        args = (store.unit_vectors, lm.labeled_mask, lm.rows, 1.5, -0.4, 0.2, 3)
        buf = np.full((12, 12), np.nan)
        h, grads = _forward_backward(*args, weights=buf)
        assert np.array_equal(buf, logistic(1.5 * store.unit_vectors
                                            @ store.unit_vectors.T - 0.4))
        assert (h, grads) == _forward_backward(*args)


class TestFitFull:
    def test_improves_on_zero_init(self, ekman):
        store = two_cluster_store(15, dim=8, separation=4.0, seed=5)
        seed = two_cluster_seed(store, ekman, 3)
        config = OptimizerConfig(mode="full", learning_rate=0.05, epochs=40)
        params, trace = fit_full(store, seed, config)
        lm, _ = init_label_matrix(store.vocab, seed, ekman)
        h_init = entropy_gradient(
            store, lm, PropagationParams(alpha=0.0, b=0.0, epsilon=0.1),
            config.unroll_steps)[0]
        h_fit = entropy_gradient(store, lm, params, config.unroll_steps)[0]
        assert h_fit < h_init

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(epochs=0)

    def test_descent_with_small_rate(self, ekman):
        store, _, _ = None, None, None
        store = two_cluster_store(5, dim=4, separation=3.0, seed=6)
        seed = two_cluster_seed(store, ekman, 1)
        config = OptimizerConfig(mode="full", learning_rate=1e-3, epochs=10)
        _, trace = fit_full(store, seed, config)
        assert all(a >= b - 1e-12
                   for a, b in zip(trace.entropies, trace.entropies[1:]))

    # At these rates a step drives the epsilon logit below about -745, where
    # epsilon rounds to 0. From 1e4 the fit restarts once from init and then
    # finishes; from 1e7 three halvings of the rate do not recover.
    def test_divergence_restarts_at_half_rate(self, ekman, monkeypatch):
        store = two_cluster_store(50, dim=6, separation=4.0, seed=10)
        seed = two_cluster_seed(store, ekman, 10)
        steps = count_steps(monkeypatch)
        config = OptimizerConfig(mode="full", learning_rate=1e4, epochs=6)
        init = {"alpha": 5.0, "b": 0.0}
        params, trace = fit_full(store, seed, config, init=init)
        assert len(steps) > config.epochs
        assert len(trace.entropies) == config.epochs
        assert np.all(np.isfinite(trace.entropies))
        lm, _ = init_label_matrix(store.vocab, seed, ekman)
        h_init = entropy_gradient(
            store, lm, PropagationParams(alpha=5.0, b=0.0, epsilon=0.1),
            config.unroll_steps)[0]
        n_unlabeled = int(np.sum(~lm.labeled_mask))
        assert trace.entropies[0] == pytest.approx(h_init / n_unlabeled,
                                                   rel=1e-12)
        assert np.isfinite(params.alpha) and np.isfinite(params.b)
        assert 0.0 < params.epsilon < 1.0

    # At 3e3 the entropy bottoms out at the third step and then creeps up.
    def test_params_epoch_names_returned_row(self, ekman):
        store = two_cluster_store(50, dim=6, separation=4.0, seed=10)
        seed = two_cluster_seed(store, ekman, 10)
        config = OptimizerConfig(mode="full", learning_rate=3e3, epochs=6)
        params, trace = fit_full(store, seed, config,
                                 init={"alpha": 5.0, "b": 0.0})
        epoch = trace.params_epoch
        assert epoch == int(np.argmin(trace.entropies))
        assert epoch < config.epochs - 1
        assert params.b == trace.bs[epoch]
        assert params.epsilon == trace.epsilons[epoch]

    def test_divergence_gives_up_after_three_halvings(self, ekman):
        store = two_cluster_store(50, dim=6, separation=4.0, seed=10)
        seed = two_cluster_seed(store, ekman, 10)
        config = OptimizerConfig(mode="full", learning_rate=1e7, epochs=6)
        with pytest.raises(GradientError, match="3 learning-rate halvings"):
            fit_full(store, seed, config, init={"alpha": 5.0, "b": 0.0})

    # The paper's own score of a graph: 5-fold label-propagation CV KL on a
    # two-cluster mixture. Fitted, it read 0.394 / 0.426 / 0.360 / 0.539
    # against the init's 0.705 / 0.709 / 0.692 / 0.720.
    @pytest.mark.parametrize("mixture_seed", [3, 4, 5, 6])
    def test_fit_lowers_cv_kl(self, ekman, mixture_seed):
        store = two_cluster_store(100, dim=10, separation=2.0, spread=1.0,
                                  seed=mixture_seed)
        seed = two_cluster_seed(store, ekman, 10)
        init = {"alpha": 3.0, "b": 0.0, "epsilon": 0.1}
        config = OptimizerConfig(mode="full", learning_rate=100.0, epochs=30)
        params, _ = fit_full(store, seed, config, init=init)

        def cv_kl(p):
            return cross_validate(store, seed, ekman, label_prop_expander(p),
                                  k=5, rng_seed=0).overall
        assert cv_kl(params) <= cv_kl(PropagationParams(**init)) - 0.15

    # With no seed in the vocabulary the fit used to return `init` after a
    # flat descent; with every word a seed it divided by zero unlabeled rows.
    @pytest.mark.parametrize("seeded", ["none", "all"])
    def test_needs_labeled_and_unlabeled_nodes(self, ekman, seeded):
        store = two_cluster_store(3, dim=3, seed=9)
        flags = np.eye(len(ekman), dtype=np.int64)[ekman.index["joy"]]
        words = ["absent"] if seeded == "none" else list(store.vocab)
        seed = SeedLexicon({word: flags for word in words}, ekman)
        with pytest.raises(ValueError, match="one labeled and one unlabeled"):
            fit_full(store, seed, OptimizerConfig(mode="full", epochs=2))


class TestFitBatched:
    def test_proportion_arithmetic(self):
        rng = np.random.default_rng(0)
        labeled = np.arange(3000)
        unlabeled = np.arange(3000, 30000)
        batch = _sample_batch(rng, labeled, unlabeled, 5000, 30000)
        assert np.isin(batch, labeled).sum() == 500
        assert len(batch) == 5000

    def test_labeled_fraction_within_one_node(self):
        rng = np.random.default_rng(1)
        labeled = np.arange(137)
        unlabeled = np.arange(137, 1000)
        for _ in range(10):
            batch = _sample_batch(rng, labeled, unlabeled, 200, 1000)
            n_lab = np.isin(batch, labeled).sum()
            exact = 200 * 137 / 1000
            assert abs(n_lab - exact) <= 1

    def test_deterministic_given_seed(self, ekman):
        store = two_cluster_store(20, dim=5, separation=3.0, seed=8)
        seed = two_cluster_seed(store, ekman, 4)
        config = OptimizerConfig(mode="batch", learning_rate=0.05,
                                 batch_size=12, num_batches=5,
                                 epochs_per_batch=2, rng_seed=42)
        p1, t1 = fit_batched(store, seed, config)
        p2, t2 = fit_batched(store, seed, config)
        assert np.array_equal(p1.alpha, p2.alpha)
        assert p1.b == p2.b and p1.epsilon == p2.epsilon
        assert t1.entropies == t2.entropies

    def test_batch_size_must_be_smaller_than_vocab(self, ekman):
        store = two_cluster_store(4, dim=3, seed=9)
        seed = two_cluster_seed(store, ekman, 1)
        config = OptimizerConfig(mode="batch", batch_size=8, num_batches=1)
        with pytest.raises(ValueError, match="smaller"):
            fit_batched(store, seed, config)

    # At these rates a batch drives the epsilon logit below about -745, where
    # epsilon rounds to 0, or every column mass of the graph to zero. From
    # 3e4 three halvings of the rate recover; from 1e8 they do not.
    def test_divergence_halves_rate(self, ekman, monkeypatch):
        store = two_cluster_store(20, dim=5, separation=3.0, seed=8)
        seed = two_cluster_seed(store, ekman, 4)
        steps = count_steps(monkeypatch)
        config = OptimizerConfig(mode="batch", learning_rate=3e4,
                                 batch_size=12, num_batches=5,
                                 epochs_per_batch=2, rng_seed=42)
        params, trace = fit_batched(store, seed, config,
                                    init={"alpha": 5.0, "b": 0.0})
        assert len(steps) > 10
        assert len(trace.entropies) == 10
        assert np.all(np.isfinite(trace.entropies))
        assert np.isfinite(params.alpha) and np.isfinite(params.b)
        assert expand(store, seed, ekman, params).report.converged

    # At 1e4 the last batch ends at alpha 175, b -221 and a subnormal
    # epsilon 3.8e-255, a graph whose condition bound 2.43e12 expand refuses.
    def test_params_expand_refuses_raise(self, ekman):
        store = two_cluster_store(20, dim=5, separation=3.0, seed=8)
        seed = two_cluster_seed(store, ekman, 4)
        config = OptimizerConfig(mode="batch", learning_rate=1e4,
                                 batch_size=12, num_batches=5,
                                 epochs_per_batch=2, rng_seed=42)
        with pytest.raises(GradientError, match="condition bound 2.43e"):
            fit_batched(store, seed, config, init={"alpha": 5.0, "b": 0.0})

    # Before epsilon rounding to 0 counted as divergence, this fit "recovered"
    # to epsilon = 0.0 with alpha 2834, b -3312, a graph on which expand
    # refuses to solve.
    def test_underflowed_epsilon_is_divergence(self, ekman):
        store = two_cluster_store(20, dim=5, separation=3.0, seed=8)
        seed = two_cluster_seed(store, ekman, 4)
        config = OptimizerConfig(mode="batch", learning_rate=3e5,
                                 batch_size=12, num_batches=5,
                                 epochs_per_batch=2, rng_seed=42)
        with pytest.raises(GradientError, match="epsilon rounds to 0"):
            fit_batched(store, seed, config, init={"alpha": 5.0, "b": 0.0})

    # At b = -800 every weight underflows to 0: the full-graph check refuses
    # with the operator's own message.
    def test_zero_mass_is_expand_refusal(self, ekman):
        store = two_cluster_store(6, dim=4, seed=8)
        labeled = np.arange(12) < 3
        params = PropagationParams(alpha=3.0, b=-800.0, epsilon=0.1)
        with pytest.raises(GradientError, match="graph that expand refuses: "
                           "zero or non-finite column mass"):
            _check_condition(store, labeled, params)

    def test_divergence_gives_up_after_three_halvings(self, ekman):
        store = two_cluster_store(20, dim=5, separation=3.0, seed=8)
        seed = two_cluster_seed(store, ekman, 4)
        config = OptimizerConfig(mode="batch", learning_rate=1e8,
                                 batch_size=12, num_batches=5,
                                 epochs_per_batch=2, rng_seed=42)
        with pytest.raises(GradientError, match="3 learning-rate halvings"):
            fit_batched(store, seed, config, init={"alpha": 5.0, "b": 0.0})

    # A step of 1e6 pushes the epsilon logit past ~37, where its logistic
    # rounds to exactly 1; that counts as divergence like any other.
    def test_saturated_epsilon_is_divergence(self, ekman):
        store = two_cluster_store(20, dim=5, separation=3.0, seed=8)
        seed = two_cluster_seed(store, ekman, 4)
        config = OptimizerConfig(mode="batch", learning_rate=1e6,
                                 batch_size=12, num_batches=5,
                                 epochs_per_batch=2, rng_seed=42)
        with pytest.raises(GradientError, match="3 learning-rate halvings"):
            fit_batched(store, seed, config, init={"alpha": 5.0, "b": 5.0})

    def test_batch_of_one_fails_on_first_draw(self, ekman, monkeypatch):
        store = two_cluster_store(20, dim=5, separation=3.0, seed=8)
        seed = two_cluster_seed(store, ekman, 4)
        draws = []
        sample = emolex.optimize._sample_batch

        def counting_sample(*args):
            draws.append(args)
            return sample(*args)

        monkeypatch.setattr(emolex.optimize, "_sample_batch", counting_sample)
        config = OptimizerConfig(mode="batch", batch_size=1, num_batches=5)
        with pytest.raises(ValueError, match="no labeled or no unlabeled"):
            fit_batched(store, seed, config)
        assert len(draws) == 1

    def test_approximates_full_fit(self, ekman):
        # init must sit inside the shared descent basin; alpha=0 is a
        # stationary plateau where batch noise and full gradients diverge
        store = two_cluster_store(50, dim=6, separation=4.0, seed=10)
        seed = two_cluster_seed(store, ekman, 10)
        init = {"alpha": 3.0, "b": 0.0, "epsilon": 0.1}
        full_cfg = OptimizerConfig(mode="full", learning_rate=0.5, epochs=150)
        full_params, _ = fit_full(store, seed, full_cfg, init=init)
        batch_cfg = OptimizerConfig(mode="batch", learning_rate=0.5,
                                    batch_size=40, num_batches=50,
                                    epochs_per_batch=3, rng_seed=0)
        batch_params, _ = fit_batched(store, seed, batch_cfg, init=init)
        assert float(batch_params.alpha) == pytest.approx(
            float(full_params.alpha), rel=0.1)
        assert batch_params.b == pytest.approx(full_params.b, rel=0.1)


class TestInit:
    @pytest.mark.parametrize("fit", [fit_full, fit_batched])
    @pytest.mark.parametrize("init,match", [
        ({"alpa": 3.0, "b": 0.0, "epsilon": 0.1}, "unknown init key.*alpa"),
        ({"alpha": 3.0, "epsilon": 0.0}, r"init epsilon .*\(0, 1\)"),
        ({"alpha": 3.0, "epsilon": 1.0}, r"init epsilon .*\(0, 1\)"),
        ({"alpha": 3.0, "epsilon": -0.1}, r"init epsilon .*\(0, 1\)")],
        ids=["misspelt-key", "epsilon-0", "epsilon-1", "epsilon-negative"])
    def test_bad_init_refused(self, ekman, fit, init, match):
        store = two_cluster_store(10, dim=4, seed=8)
        seed = two_cluster_seed(store, ekman, 2)
        config = OptimizerConfig(mode="full", epochs=2, batch_size=8,
                                 num_batches=2)
        with pytest.raises(ValueError, match=match):
            fit(store, seed, config, init=init)


class TestTrace:
    def test_csv_export(self, tmp_path, ekman):
        store = two_cluster_store(5, dim=3, separation=3.0, seed=11)
        seed = two_cluster_seed(store, ekman, 1)
        config = OptimizerConfig(mode="full", learning_rate=0.01, epochs=3)
        _, trace = fit_full(store, seed, config)
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,entropy,grad_norm,alpha_mean,b,epsilon"
        assert len(lines) == 4
