import numpy as np
import pytest

from emolex.embeddings import EmbeddingFormatError, load_embeddings

from conftest import make_store


def write_file(tmp_path, text, name="vecs.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = "3 2\na 1 0\nb 0 1\nc 1 1\n"


class TestLoad:
    def test_basic_parse(self, tmp_path):
        store = load_embeddings(write_file(tmp_path, BASIC))
        assert list(store.vocab) == ["a", "b", "c"]
        assert store.vectors.shape[1] == 2
        assert np.array_equal(store.vectors[2], [1.0, 1.0])

    def test_arity_error_has_line_number(self, tmp_path):
        path = write_file(tmp_path, "2 2\na 1 0\nb 1 2 3\n")
        with pytest.raises(EmbeddingFormatError) as err:
            load_embeddings(path)
        assert err.value.line_no == 3

    def test_duplicate_token(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="duplicate"):
            load_embeddings(write_file(tmp_path, "2 2\na 1 0\na 0 1\n"))

    def test_non_finite_component(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_embeddings(write_file(tmp_path, "1 2\na nan 1\n"))

    def test_zero_vector_rejected(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="zero vector"):
            load_embeddings(write_file(tmp_path, "1 2\na 0 0\n"))

    def test_malformed_header(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(write_file(tmp_path, "banana\na 1 0\n"))

    def test_crlf_tolerated(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"2 2\r\na 1 0\r\nb 0 1\r\n")
        store = load_embeddings(str(path))
        assert list(store.vocab) == ["a", "b"]


def cosine(store, i, j):
    u = store.unit_vectors
    return float(u[i] @ u[j])


class TestCosine:
    def test_orthogonal(self):
        store = make_store([[1, 0], [0, 1]])
        assert cosine(store, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_collinear(self):
        store = make_store([[1, 1], [2, 2]])
        assert cosine(store, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        store = make_store([[1, 0], [1, 1]])
        assert cosine(store, 0, 1) == pytest.approx(0.7071, abs=1e-4)

    def test_self_cosine_is_one(self):
        store = make_store([[3.0, 4.0, 12.0]])
        assert cosine(store, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        store = make_store(rng.normal(size=(6, 4)))
        for i in range(6):
            for j in range(6):
                assert cosine(store, i, j) == cosine(store, j, i)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(5, 4))
        scaled = base.copy()
        scaled[2] *= 17.5
        a, b = make_store(base), make_store(scaled)
        for i in range(5):
            for j in range(5):
                assert cosine(a, i, j) == pytest.approx(cosine(b, i, j), abs=1e-12)


class TestCosineBlock:
    def test_single_entry(self):
        u = make_store([[2.0, 1.0]]).unit_vectors
        assert (u @ u.T)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_identity(self):
        u = make_store(np.eye(3)).unit_vectors
        assert np.allclose(u @ u.T, np.eye(3))

    def test_matches_elementwise(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 5))
        u = make_store(x).unit_vectors
        rows, cols = [1, 3, 4, 6, 7], [0, 2, 3, 5, 7]
        block = u[rows] @ u[cols].T
        for r, i in enumerate(rows):
            for c, j in enumerate(cols):
                oracle = (sum(x[i, k] * x[j, k] for k in range(5))
                          / np.linalg.norm(x[i]) / np.linalg.norm(x[j]))
                assert block[r, c] == pytest.approx(oracle, abs=1e-12)
