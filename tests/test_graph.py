import math

import numpy as np
import pytest

import emolex.graph as graph
from emolex.graph import (EUCLIDEAN_RBF, NumericalDegeneracyError,
                          PropagationParams, TransitionOperator,
                          build_transition, edge_weight, labeled_mass,
                          logistic, raw_weights)

from conftest import make_store


def cos_pair(c):
    """Two unit vectors with the requested cosine."""
    return np.array([1.0, 0.0]), np.array([c, math.sqrt(1 - c * c)])


def dense(tm):
    """The operator's matrix, recovered by applying it to the identity."""
    return tm.apply(np.eye(tm.n))


def normalized_oracle(store, params):
    """Independent scalar recomputation of col-then-row normalization."""
    n = len(store)
    w = [[edge_weight(store.vectors[i], store.vectors[j], params)
          for j in range(n)] for i in range(n)]
    t = [[w[i][j] / sum(w[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return np.array([[t[i][j] / sum(t[i][k] for k in range(n))
                      for j in range(n)] for i in range(n)])


class TestEdgeWeight:
    def test_steep_slope_reference_values(self):
        params = PropagationParams(alpha=100, b=-100)
        x, y = cos_pair(0.8)
        assert edge_weight(x, y, params) == pytest.approx(2.06e-9, rel=0.02)
        x, y = cos_pair(0.7)
        assert edge_weight(x, y, params) == pytest.approx(9.36e-14, rel=0.02)

    def test_zero_params_give_half(self):
        params = PropagationParams(alpha=0.0, b=0.0)
        x, y = cos_pair(0.3)
        assert edge_weight(x, y, params) == 0.5

    def test_rbf_identical_points(self):
        params = PropagationParams(kernel=EUCLIDEAN_RBF, sigma=2.0)
        x = np.array([1.0, 2.0, 3.0])
        assert edge_weight(x, x, params) == 1.0

    def test_scalar_equals_constant_vector_alpha(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=4), rng.normal(size=4)
        scalar = PropagationParams(alpha=2.5, b=-1.0)
        vector = PropagationParams(alpha=np.full(4, 2.5), b=-1.0)
        assert edge_weight(x, y, scalar) == pytest.approx(
            edge_weight(x, y, vector), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for params in (PropagationParams(alpha=3.0, b=0.5),
                       PropagationParams(kernel=EUCLIDEAN_RBF, sigma=1.5)):
            for _ in range(5):
                x, y = rng.normal(size=3), rng.normal(size=3)
                assert edge_weight(x, y, params) == edge_weight(y, x, params)

    def test_no_overflow_deep_in_tails(self):
        params = PropagationParams(alpha=500.0, b=-500.0)
        x, y = cos_pair(-1.0)
        assert edge_weight(x, y, params) == pytest.approx(0.0, abs=1e-300)
        x, y = cos_pair(1.0)
        w = edge_weight(x, y, PropagationParams(alpha=500.0, b=500.0))
        assert w == 1.0


class TestParams:
    def test_cosine_requires_alpha_and_b(self):
        with pytest.raises(ValueError):
            PropagationParams(alpha=1.0)

    def test_rbf_requires_sigma(self):
        with pytest.raises(ValueError):
            PropagationParams(kernel=EUCLIDEAN_RBF)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            PropagationParams(alpha=1.0, b=0.0, epsilon=1.0)

    def test_round_trip_dict(self):
        params = PropagationParams(alpha=np.array([1.0, 2.0]), b=0.3, epsilon=0.1)
        again = PropagationParams.from_dict(params.to_dict())
        assert again.to_dict() == params.to_dict()


class TestBuildTransition:
    def test_two_node_symmetric(self):
        store = make_store([[1.0, 0.0], [0.0, 1.0]])
        params = PropagationParams(alpha=0.0, b=0.0)
        tm = build_transition(store, params, [True, False])
        assert np.allclose(dense(tm), 0.5)

    def test_three_node_hand_oracle(self):
        rng = np.random.default_rng(5)
        store = make_store(rng.normal(size=(3, 4)))
        params = PropagationParams(alpha=2.0, b=-0.5)
        tm = build_transition(store, params, [True, False, False])
        assert np.allclose(dense(tm), normalized_oracle(store, params),
                           atol=1e-12)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(6)
        store = make_store(rng.normal(size=(12, 5)))
        mask = np.zeros(12, dtype=bool)
        mask[[2, 7]] = True
        params = PropagationParams(alpha=5.0, b=-2.0, epsilon=0.05)
        t = dense(build_transition(store, params, mask))
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(t >= 0)

    def test_independent_of_labeled_mask(self):
        rng = np.random.default_rng(7)
        store = make_store(rng.normal(size=(5, 3)))
        params = PropagationParams(alpha=1.0, b=0.0)
        a = build_transition(store, params, [False, True, False, True, False])
        b = build_transition(store, params, [True, False, False, False, False])
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.col, b.col)
        assert np.array_equal(a.row, b.row)
        for i in range(5):
            for j in range(5):
                assert a.w[i, j] == pytest.approx(
                    edge_weight(store.vectors[i], store.vectors[j], params),
                    rel=1e-12)

    def test_transpose_and_submatrix_match_dense(self):
        rng = np.random.default_rng(14)
        store = make_store(rng.normal(size=(7, 4)))
        params = PropagationParams(alpha=3.0, b=-1.0, epsilon=0.2)
        tm = build_transition(store, params, [True] + [False] * 6)
        t = dense(tm)
        assert np.allclose(tm.apply_transpose(np.eye(7)), t.T, atol=1e-15)
        index = np.array([1, 4, 5])
        assert np.allclose(tm.submatrix(index), t[np.ix_(index, index)],
                           atol=1e-15)
        cols = np.array([0, 6])
        assert np.allclose(tm.submatrix(index, cols), t[np.ix_(index, cols)],
                           atol=1e-15)

    def test_products_written_beside_the_result(self):
        rng = np.random.default_rng(15)
        store = make_store(rng.normal(size=(7, 4)))
        params = PropagationParams(alpha=3.0, b=-1.0, epsilon=0.2)
        tm = build_transition(store, params, [True] + [False] * 6)
        y = rng.random((7, 3))
        product = np.full((7, 3), np.nan)
        assert np.array_equal(tm.apply(y, product=product), tm.apply(y))
        assert np.allclose(product, tm.w @ (y / tm.col[:, None]), rtol=1e-14)
        assert np.array_equal(tm.apply_transpose(y, product=product),
                              tm.apply_transpose(y))
        assert np.allclose(product, tm.w.T @ (y * (0.8 / tm.row)[:, None]),
                           rtol=1e-14)

    def test_blocked_matches_unblocked(self, monkeypatch):
        rng = np.random.default_rng(8)
        store = make_store(rng.normal(size=(9, 4)))
        for x, params in (
                (store.unit_vectors,
                 PropagationParams(alpha=np.linspace(0.5, 2.0, 4), b=-0.2)),
                (store.vectors, PropagationParams(kernel=EUCLIDEAN_RBF, sigma=1.5))):
            full = raw_weights(x, params)
            monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 18)  # 2 rows a block
            blocked = raw_weights(x, params)
            monkeypatch.undo()
            assert np.array_equal(full, blocked)

    # labeled_mass streams W block by block; the operator normalizes the
    # dense W of one GEMM. Their T 1_L agree to rounding at any block size.
    @pytest.mark.parametrize("block_entries,n_blocks", [(None, 1), (1200, 134)])
    def test_streamed_mass_matches_operator(self, monkeypatch, block_entries,
                                            n_blocks):
        rng = np.random.default_rng(16)
        store = make_store(rng.normal(size=(400, 5)))
        labeled = np.zeros(400, dtype=bool)
        labeled[rng.choice(400, size=40, replace=False)] = True
        if block_entries is not None:
            monkeypatch.setattr(graph, "_BLOCK_ENTRIES", block_entries)
        assert len(graph.row_blocks(400)) == n_blocks
        for x, params in (
                (store.unit_vectors, PropagationParams(alpha=4.0, b=-1.5,
                                                       epsilon=0.05)),
                (store.unit_vectors,
                 PropagationParams(alpha=np.linspace(0.5, 6.0, 5), b=-1.0)),
                (store.vectors, PropagationParams(kernel=EUCLIDEAN_RBF,
                                                  sigma=2.5, epsilon=0.1))):
            tm = TransitionOperator(raw_weights(x, params), params.epsilon)
            expected = tm.apply(labeled[:, None].astype(float))[:, 0]
            got = labeled_mass(x, params, labeled)
            assert np.max(np.abs(got - expected) / expected) <= 1e-14

    def test_underflowed_graph_refused_alike(self):
        rng = np.random.default_rng(17)
        x = make_store(rng.normal(size=(12, 4))).unit_vectors
        params = PropagationParams(alpha=3.0, b=-800.0, epsilon=0.1)
        labeled = np.arange(12) < 3
        message = "zero or non-finite column mass"
        with pytest.raises(NumericalDegeneracyError, match=message):
            TransitionOperator(raw_weights(x, params), params.epsilon)
        with pytest.raises(NumericalDegeneracyError, match=message):
            labeled_mass(x, params, labeled)

    def test_weights_written_into_out(self):
        rng = np.random.default_rng(9)
        store = make_store(rng.normal(size=(7, 3)))
        for x, params in (
                (store.unit_vectors, PropagationParams(alpha=2.0, b=-0.5)),
                (store.vectors, PropagationParams(kernel=EUCLIDEAN_RBF, sigma=1.5))):
            buf = np.full((7, 7), np.nan)
            assert raw_weights(x, params, out=buf) is buf
            assert np.array_equal(buf, raw_weights(x, params))

    def test_all_labeled_rejected(self):
        store = make_store(np.eye(2))
        with pytest.raises(ValueError):
            build_transition(store, PropagationParams(alpha=1.0, b=0.0),
                             [True, True])


class TestSmoothing:
    def test_epsilon_zero_is_identity(self):
        rng = np.random.default_rng(10)
        store = make_store(rng.normal(size=(4, 3)))
        params = PropagationParams(alpha=2.0, b=0.5, epsilon=0.0)
        tm = build_transition(store, params, [True, False, False, False])
        assert np.allclose(dense(tm), normalized_oracle(store, params),
                           atol=1e-12)

    def test_epsilon_near_one_is_uniform(self):
        store = make_store(np.eye(2))
        params = PropagationParams(alpha=1.0, b=0.0, epsilon=1 - 1e-15)
        tm = build_transition(store, params, [True, False])
        assert np.allclose(dense(tm), 0.5, atol=1e-12)

    def test_half_on_identity(self):
        # orthogonal pair, steep kernel: off-diagonal weights are ~1e-217, so
        # the normalized matrix is the identity to double precision
        store = make_store(np.eye(2))
        params = PropagationParams(alpha=1000.0, b=-500.0, epsilon=0.5)
        tm = build_transition(store, params, [True, False])
        assert np.allclose(dense(tm), [[0.75, 0.25], [0.25, 0.75]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            PropagationParams(alpha=1.0, b=0.0, epsilon=-0.1)
        with pytest.raises(ValueError):
            PropagationParams(alpha=1.0, b=0.0, epsilon=1.0)

    def test_affine_in_epsilon(self):
        rng = np.random.default_rng(10)
        store = make_store(rng.normal(size=(4, 3)))

        def smoothed(eps):
            params = PropagationParams(alpha=1.5, b=0.0, epsilon=eps)
            return dense(build_transition(store, params, [True, False, False, False]))

        mid = smoothed(0.4)
        assert np.allclose(mid, (smoothed(0.2) + smoothed(0.6)) / 2, atol=1e-12)


class TestLogistic:
    def test_tails_and_center(self):
        assert logistic(np.array(0.0)) == 0.5
        assert logistic(np.array(800.0)) == 1.0
        assert logistic(np.array(-800.0)) == 0.0

    def test_matches_naive_in_safe_range(self):
        z = np.linspace(-30, 30, 61)
        assert np.allclose(logistic(z), 1 / (1 + np.exp(-z)), atol=1e-15)

    def test_bit_equal_to_masked_form(self):
        z = np.concatenate([np.linspace(-800, 800, 4001), [-745.0, -40.0, 0.0]])
        masked = np.empty_like(z)
        pos = z >= 0
        masked[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        masked[~pos] = ez / (1.0 + ez)
        assert np.array_equal(logistic(z), masked)
        out = z.copy()
        logistic(out, out=out, scratch=np.full_like(z, np.nan))
        assert np.array_equal(out, masked)

    def test_weight_blocks_share_one_scratch(self, monkeypatch):
        scratches = []
        kernel = graph.logistic

        def recording(z, out=None, scratch=None):
            scratches.append(scratch)
            return kernel(z, out=out, scratch=scratch)

        def fresh(z, out=None, scratch=None):
            return kernel(z, out=out)

        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 4))
        x /= np.linalg.norm(x, axis=1)[:, None]
        params = PropagationParams(alpha=3.0, b=-1.0)
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 36)  # 4 rows a block
        monkeypatch.setattr(graph, "logistic", fresh)
        unshared = raw_weights(x, params)
        monkeypatch.setattr(graph, "logistic", recording)
        assert np.array_equal(raw_weights(x, params), unshared)
        assert [len(s) for s in scratches] == [4, 4, 1]
        assert all(np.shares_memory(s, scratches[0]) for s in scratches)

    def test_deep_negative_tail(self):
        assert logistic(-40.0) == pytest.approx(
            math.exp(-40.0) / (1.0 + math.exp(-40.0)), rel=1e-15)
        assert logistic(-745.0) > 0.0

    def test_scalar_input_returns_scalar(self):
        assert type(logistic(-40.0)) is np.float64
        assert type(logistic(np.array(0.0))) is np.float64
