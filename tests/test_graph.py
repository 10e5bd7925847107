import math
import re
import tracemalloc

import numpy as np
import pytest

import emolex.graph as graph
from emolex.graph import (EUCLIDEAN_RBF, NumericalDegeneracyError,
                          PropagationParams, TransitionOperator,
                          build_transition, edge_weight, logistic)
from emolex.optimize import _forward_backward
from emolex.lexicon import LabelMatrix
from emolex.solver import propagate_cg

from conftest import (DenseOperator, dense_weights, keep_panels, kept_weights,
                      make_store)


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

    @pytest.mark.parametrize("raw, message", [
        ({"kernel": "cosine", "alpha": 1.0, "b": 0.0}, "unknown kernel 'cosine'"),
        ({"alpha": [[1.0, 2.0]], "b": 0.0},
         "alpha must be a scalar or a 1-D vector"),
        ({"alpha": "8", "b": 0.0}, "alpha must be a number, not '8'"),
        ({"alpha": [True, 2.0], "b": 0.0}, "alpha must be a number, not True"),
        ({"alpha": 8.0, "b": True}, "b must be a number, not True"),
        ({"alpha": 8.0, "b": 0.0, "epsilon": "0.1"},
         "epsilon must be a number, not '0.1'"),
        ({"kernel": EUCLIDEAN_RBF, "sigma": True},
         "sigma must be a number, not True")])
    def test_malformed_params_refused(self, raw, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            PropagationParams(**raw)

    # The weight kernel, not the params, knows the embedding dimension.
    def test_alpha_vector_length_must_match_dimension(self):
        store = make_store(np.eye(3))
        params = PropagationParams(alpha=[1.0, 2.0], b=0.0)
        with pytest.raises(ValueError, match="^alpha vector length 2 != "
                           "embedding dim 3$"):
            build_transition(store, params, [True, False, False])

    # A dropped misspelt key would leave its parameter at its default.
    def test_unknown_key_refused(self):
        with pytest.raises(ValueError, match="unknown params key.*epsilom"):
            PropagationParams.from_dict({"alpha": 6.0, "b": -2.0,
                                         "epsilom": 0.1})

    # to_dict reads alpha as an array under either kernel.
    def test_rbf_with_alpha_round_trips(self):
        raw = {"kernel": EUCLIDEAN_RBF, "alpha": 6.0, "b": -2.0,
               "epsilon": 0.1, "sigma": 1.5}
        assert PropagationParams.from_dict(raw).to_dict() == raw

    # JSON reads Infinity and NaN; no weight can be built from either.
    @pytest.mark.parametrize("key, value", [
        (key, value) for key in ("alpha", "b")
        for value in (float("nan"), float("inf"), -float("inf"))]
        + [("alpha", [6.0, float("nan")])])
    def test_non_finite_cosine_param_refused(self, key, value):
        raw = dict({"alpha": [6.0, 1.0], "b": -2.0}, **{key: value})
        with pytest.raises(ValueError, match="^%s must be finite$" % key):
            PropagationParams(**raw)

    # NaN compares false with 0, so `sigma <= 0` used to let it through.
    @pytest.mark.parametrize("value, message", [
        (float("nan"), "euclidean-rbf kernel requires positive sigma"),
        (-float("inf"), "euclidean-rbf kernel requires positive sigma"),
        (float("inf"), "sigma must be finite")])
    def test_non_finite_sigma_refused(self, value, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            PropagationParams(kernel=EUCLIDEAN_RBF, sigma=value)
        with pytest.raises(ValueError, match="^sigma must be finite$"):
            PropagationParams(alpha=6.0, b=-2.0, sigma=float(value))


class TestBuildTransition:
    def test_mask_length_mismatch_refused(self):
        store = make_store(np.eye(3))
        with pytest.raises(ValueError, match="^labeled mask length mismatch$"):
            build_transition(store, PropagationParams(alpha=1.0, b=0.0), [True])

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

    # The graph comes from the embeddings alone: even a mask with no
    # unlabeled or no labeled word builds the same operator.
    def test_independent_of_labeled_mask(self):
        rng = np.random.default_rng(7)
        store = make_store(rng.normal(size=(5, 3)))
        params = PropagationParams(alpha=1.0, b=0.0)
        a = build_transition(store, params, [False, True, False, True, False])
        for mask in ([True, False, False, False, False], [True] * 5,
                     [False] * 5):
            b = build_transition(store, params, mask)
            assert np.array_equal(kept_weights(a), kept_weights(b))
            assert np.array_equal(a.col, b.col)
            assert np.array_equal(a.row, b.row)
        w = kept_weights(a)
        for i in range(5):
            for j in range(5):
                assert w[i, j] == pytest.approx(
                    edge_weight(store.vectors[i], store.vectors[j], params),
                    rel=1e-12)

    def test_transpose_and_submatrix_match_dense(self):
        rng = np.random.default_rng(14)
        store = make_store(rng.normal(size=(7, 4)))
        params = PropagationParams(alpha=3.0, b=-1.0, epsilon=0.2)
        tm = build_transition(store, params, [True] + [False] * 6)
        t = dense(tm)
        assert np.allclose(tm.apply_transpose(np.eye(7)), t.T, atol=1e-15)
        index = np.isin(np.arange(7), [1, 4, 5])
        assert np.allclose(tm.submatrix(index), t[np.ix_(index, index)],
                           atol=1e-15)
        cols = np.isin(np.arange(7), [0, 6])
        assert np.allclose(tm.submatrix(index, cols), t[np.ix_(index, cols)],
                           atol=1e-15)

    # Every block is gathered from the kept panels and their mirror, across
    # 6-row panels and 2-row takes: each entry is the panel's own, bit for
    # bit, normalized as T is.
    @pytest.mark.parametrize("cols", [None, "complement", "random"])
    def test_submatrix_gathers_across_panels(self, monkeypatch, cols):
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 3 * 40)  # 3 rows
        monkeypatch.setattr(graph, "_PANEL_BLOCKS", 2)
        monkeypatch.setattr(graph, "_GATHER_ENTRIES", 2 * 40)
        rng = np.random.default_rng(24)
        store = make_store(rng.normal(size=(40, 5)))
        params = PropagationParams(alpha=3.0, b=-1.0, epsilon=0.1)
        tm = TransitionOperator(store.unit_vectors, params)
        rows = rng.random(40) < 0.6
        other = {None: rows, "complement": ~rows,
                 "random": rng.random(40) < 0.3}[cols]
        expected = kept_weights(tm)[np.ix_(rows, other)]
        expected /= tm.col[other]
        expected *= (0.9 / tm.row[rows])[:, None]
        expected += 0.1 / 40
        assert np.array_equal(tm.submatrix(rows, None if cols is None
                                           else other), expected)

    # W is symmetric, so its column sums are taken as the product W 1, and
    # T y as (y^T W)^T: both agree with the dense forms to rounding.
    def test_column_sums_and_apply_match_dense(self):
        rng = np.random.default_rng(18)
        store = make_store(rng.normal(size=(60, 5)))
        params = PropagationParams(alpha=np.linspace(1.0, 5.0, 5), b=-2.0,
                                   epsilon=0.1)
        tm = build_transition(store, params, [True] * 6 + [False] * 54)
        w = dense_weights(store.unit_vectors, params)
        col = w.sum(axis=0)
        assert np.max(np.abs(tm.col - col) / col) <= 1e-14
        t = 0.9 * w / col / (w / col).sum(axis=1)[:, None] + 0.1 / 60
        y = rng.random((60, 4))
        assert np.allclose(tm.apply(y), t @ y, rtol=1e-14, atol=0)

    def test_products_written_beside_the_result(self):
        rng = np.random.default_rng(15)
        store = make_store(rng.normal(size=(7, 4)))
        params = PropagationParams(alpha=3.0, b=-1.0, epsilon=0.2)
        tm = build_transition(store, params, [True] + [False] * 6)
        w = dense_weights(store.unit_vectors, params)
        y = rng.random((7, 3))
        product = np.full((7, 3), np.nan)
        assert np.array_equal(tm.apply(y, product=product), tm.apply(y))
        assert np.allclose(product, w @ (y / tm.col[:, None]), rtol=1e-14)
        assert np.array_equal(tm.apply_transpose(y, product=product),
                              tm.apply_transpose(y))
        assert np.allclose(product, w.T @ (y * (0.8 / tm.row)[:, None]),
                           rtol=1e-14)

    # One panel of all 9 rows, or panels of two 2-row blocks each.
    def test_blocked_matches_unblocked(self, monkeypatch):
        rng = np.random.default_rng(8)
        store = make_store(rng.normal(size=(9, 4)))
        for x, params in (
                (store.unit_vectors,
                 PropagationParams(alpha=np.linspace(0.5, 2.0, 4), b=-0.2)),
                (store.vectors, PropagationParams(kernel=EUCLIDEAN_RBF, sigma=1.5))):
            full = kept_weights(TransitionOperator(x, params))
            monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 18)  # 2 rows a block
            monkeypatch.setattr(graph, "_PANEL_BLOCKS", 2)
            assert len(graph.row_blocks(9)) == 5
            blocked = kept_weights(TransitionOperator(x, params))
            monkeypatch.undo()
            assert np.array_equal(full, blocked)

    # An operator under a zero budget recomputes each panel on every pass,
    # the kept one builds it once, by the same code: their panels, sums and
    # products are equal bit for bit at any block size, and agree with the
    # dense W of one GEMM to rounding.
    @pytest.mark.parametrize("block_entries,n_blocks", [(None, 1), (1200, 134)])
    def test_streamed_mass_matches_operator(self, monkeypatch, block_entries,
                                            n_blocks):
        rng = np.random.default_rng(16)
        store = make_store(rng.normal(size=(400, 5)))
        y = rng.random((400, 6))
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
            held = TransitionOperator(x, params)
            with monkeypatch.context() as patch:
                keep_panels(patch, 400)
                streamed = TransitionOperator(x, params)
            dense_tm = DenseOperator(dense_weights(x, params), params.epsilon)
            assert streamed.n == held.n == 400
            for (rows, panel), (kept_rows, kept) in zip(streamed.panels(),
                                                        held.panels()):
                assert rows == kept_rows and np.array_equal(panel, kept)
            for name in ("col", "row"):
                expected = getattr(dense_tm, name)
                got = getattr(streamed, name)
                assert np.array_equal(got, getattr(held, name))
                assert np.max(np.abs(got - expected) / expected) <= 1e-14
            for name in ("apply", "apply_transpose"):
                expected = getattr(dense_tm, name)(y)
                got = getattr(streamed, name)(y)
                assert np.array_equal(got, getattr(held, name)(y))
                assert np.max(np.abs(got - expected) / expected) <= 1e-14

    # At d = 100 OpenBLAS rounds a panel's own GEMM apart from the whole
    # one's, so kept and recomputed panels are equal bit for bit only because
    # one method builds both, and so is everything computed from them, under
    # a budget that keeps none of the two panels or only the first. They
    # agree with the dense W of one GEMM to rounding, and the W they hold is
    # exactly symmetric: each diagonal block mirrors its upper triangle.
    @pytest.mark.parametrize("params", [
        PropagationParams(alpha=8.0, b=-4.0),
        PropagationParams(alpha=7.3, b=-4.0),
        PropagationParams(kernel=EUCLIDEAN_RBF, sigma=1.3)],
        ids=["alpha-8", "alpha-7.3", "rbf"])
    def test_streamed_panels_match_held_at_d100(self, monkeypatch, params):
        rng = np.random.default_rng(7)
        n = 2000
        x = make_store(rng.normal(size=(n, 100))).unit_vectors
        held = TransitionOperator(x, params)
        assert held.gathers and len(held._kept) == 2
        dense_w = dense_weights(x, params)
        n_blocks = 0
        for rows, panel in held.panels():
            assert np.allclose(panel, dense_w[rows, rows.start:], rtol=1e-14,
                               atol=0)
            n_blocks += 1
        assert n_blocks == 16
        w = kept_weights(held)
        assert np.array_equal(w, w.T)
        v = rng.random((n, 7))
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, 200, replace=False)] = True
        y = np.full((n, 6), 1.0 / 6)
        y[mask] = np.eye(6)[rng.integers(0, 6, size=200)]
        lm = LabelMatrix(y, mask)
        kept_lm, kept_report = propagate_cg(held, lm)
        step = _forward_backward(held, x, mask, y, 1.0, 2)
        for kept in (0, 1):
            with monkeypatch.context() as patch:
                keep_panels(patch, n, kept)
                streamed = TransitionOperator(x, params)
            assert len(streamed._kept) == kept and not streamed.gathers
            for (rows, panel), (kept_rows, kept_panel) in zip(
                    streamed.panels(), held.panels()):
                assert rows == kept_rows and np.array_equal(panel, kept_panel)
            for arg in (v, v[:, 0]):
                assert np.array_equal(held.w_product(arg),
                                      streamed.w_product(arg))
            for name in ("col", "row", "diagonal"):
                assert np.array_equal(getattr(held, name),
                                      getattr(streamed, name))
            streamed_lm, report = propagate_cg(streamed, lm)
            assert np.array_equal(kept_lm.rows, streamed_lm.rows)
            assert kept_report == report
            assert _forward_backward(streamed, x, mask, y, 1.0, 2) == step

    def test_underflowed_graph_refused_alike(self, monkeypatch):
        rng = np.random.default_rng(17)
        x = make_store(rng.normal(size=(12, 4))).unit_vectors
        params = PropagationParams(alpha=3.0, b=-800.0, epsilon=0.1)
        message = "zero or non-finite column mass"
        for kept in (1, 0):
            keep_panels(monkeypatch, 12, kept)
            with pytest.raises(NumericalDegeneracyError, match=message):
                TransitionOperator(x, params)

    # An operator holds the panels its budget keeps, one panel buffer, and
    # n x (d + m) arrays and numpy's fixed ufunc buffer (within 100
    # n-vectors), never an n x n array: under a zero budget, and under one
    # that keeps 4 of its 8 panels of 50 rows.
    def test_streamed_operator_allocates_less_than_one_n2(self, monkeypatch):
        rng = np.random.default_rng(19)
        x = make_store(rng.normal(size=(400, 5))).unit_vectors
        params = PropagationParams(alpha=4.0, b=-1.5, epsilon=0.05)
        y = rng.random((400, 6))
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 400 * 25)  # 25 rows
        monkeypatch.setattr(graph, "_PANEL_BLOCKS", 2)
        for kept in (0, 4):
            budget = keep_panels(monkeypatch, 400, kept)
            tracemalloc.start()
            try:
                TransitionOperator(x, params).apply(y)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < budget + 50 * 400 * 8 + 100 * 400 * 8
            assert peak < 400 * 400 * 8

    # W = f(L R^T) of the kernel's two factors matches the per-pair formula
    # entry by entry. Under euclidean-rbf the factors' |x|^2 terms cancel to
    # the squared distance, which rtol 1e-13 leaves room for at norm 10;
    # rows 2 and 7 are equal, a zero distance off the diagonal.
    @pytest.mark.parametrize("kernel_params, norm", [
        ({"alpha": 7.0, "b": -3.0}, 1.0),
        ({"alpha": np.linspace(-4.0, 6.0, 4), "b": -1.0}, 1.0),
        ({"kernel": EUCLIDEAN_RBF, "sigma": 1.5}, 1.0),
        ({"kernel": EUCLIDEAN_RBF, "sigma": 15.0}, 10.0)],
        ids=["scalar", "vector", "rbf-norm1", "rbf-norm10"])
    def test_factor_form_matches_edge_weight(self, kernel_params, norm):
        rng = np.random.default_rng(23)
        vectors = rng.normal(size=(12, 4))
        vectors *= (norm * rng.uniform(0.8, 1.2, size=(12, 1))
                    / np.linalg.norm(vectors, axis=1)[:, None])
        vectors[7] = vectors[2]
        store = make_store(vectors)
        params = PropagationParams(**kernel_params)
        x = (store.vectors if params.kernel == EUCLIDEAN_RBF
             else store.unit_vectors)
        expected = [[edge_weight(a, b, params) for b in vectors]
                    for a in vectors]
        np.testing.assert_allclose(kept_weights(TransitionOperator(x, params)),
                                   expected, rtol=1e-13, atol=0)


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

    # The kernel is the plain form 1 / (1 + exp(-z)), to the bit, also in
    # place and through both saturation tails.
    def test_bit_equal_to_plain_form(self):
        z = np.concatenate([np.linspace(-800, 800, 4001), [-745.0, -40.0, 0.0]])
        with np.errstate(over="ignore"):
            plain = 1.0 / (1.0 + np.exp(-z))
        assert np.array_equal(logistic(z), plain)
        out = z.copy()
        assert logistic(out, out=out) is out
        assert np.array_equal(out, plain)

    # The weight kernel runs in place on each panel's GEMM output: beside
    # the kept panels, the build's only temporaries are the kernel's factors
    # and n-vectors, far less than one row block.
    def test_weights_allocate_less_than_a_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 4))
        x /= np.linalg.norm(x, axis=1)[:, None]
        params = PropagationParams(alpha=3.0, b=-1.0)
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 300 * 50)  # 50 rows
        monkeypatch.setattr(graph, "_PANEL_BLOCKS", 2)  # 100-row panels
        tracemalloc.start()
        try:
            tm = TransitionOperator(x, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(100 * (300 - start) * 8 for start in (0, 100, 200))
        assert peak < kept + 50 * 300 * 8
        np.testing.assert_allclose(kept_weights(tm), dense_weights(x, params),
                                   rtol=1e-14, atol=0)

    # Above z = -709.78 the tail keeps its relative precision; below it
    # exp(-z) overflows and the weight is exactly 0.
    def test_deep_negative_tail(self):
        assert logistic(-40.0) == pytest.approx(
            math.exp(-40.0) / (1.0 + math.exp(-40.0)), rel=1e-15)
        assert logistic(-700.0) == pytest.approx(math.exp(-700.0), rel=1e-15)
        assert logistic(-745.0) == 0.0

    def test_scalar_input_returns_scalar(self):
        assert type(logistic(-40.0)) is np.float64
        assert type(logistic(np.array(0.0))) is np.float64
