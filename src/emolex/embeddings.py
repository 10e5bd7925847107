"""Word vector storage: vocabulary and unit-normalized vectors."""

import numpy as np


class FormatError(ValueError):
    """A malformed input file, with the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


class EmbeddingFormatError(FormatError):
    """A malformed embedding file."""


class RowError(ValueError):
    """A word that Vocabulary or EmbeddingStore refuses, with its row."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row


class Vocabulary:
    """Ordered, duplicate-free token list with a token -> index map."""

    def __init__(self, words):
        self.words = list(words)
        self.index = {}
        for i, w in enumerate(self.words):
            if w in self.index:
                raise RowError("duplicate token: %r" % w, i)
            self.index[w] = i

    def __len__(self):
        return len(self.words)

    def __contains__(self, token):
        return token in self.index

    def __iter__(self):
        return iter(self.words)

    def __getitem__(self, i):
        return self.words[i]


class EmbeddingStore:
    """Dense word vectors plus cached row-normalized copies.

    Read-only after construction. `vocab` gives the node <-> row mapping;
    `unit_vectors` are computed once and reused for all cosine computations.
    """

    def __init__(self, vocab, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if vectors.shape[0] != len(vocab):
            raise ValueError("vector count %d != vocabulary size %d"
                             % (vectors.shape[0], len(vocab)))
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            raise RowError("non-finite vector component",
                           int(np.argmin(finite)))
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.flatnonzero(norms == 0.0)[0])
            raise RowError("zero vector for token %r" % vocab[bad], bad)
        self.vocab = vocab
        self.vectors = vectors
        self._norms = norms
        self._unit = None

    def __len__(self):
        return self.vectors.shape[0]

    @property
    def unit_vectors(self):
        if self._unit is None:
            self._unit = self.vectors / self._norms[:, None]
        return self._unit


def _parse_header(line, line_no):
    parts = line.split()
    if len(parts) != 2:
        raise EmbeddingFormatError("expected header '<count> <dim>'", line_no)
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise EmbeddingFormatError("non-integer header field", line_no) from None
    if count < 0 or dim <= 0:
        raise EmbeddingFormatError("header counts must be positive", line_no)
    return count, dim


def load_embeddings(path):
    """Load a word2vec-style text embedding file.

    The file starts with a "<count> <dim>" header, followed by one line per
    word: the token and dim whitespace-separated components, each what
    `np.loadtxt` reads as a float. UTF-8, LF or CRLF. Tokens are taken as
    written. Returns an EmbeddingStore whose `vocab` holds every word in
    file order; for a subset, build
    `EmbeddingStore(Vocabulary(words), store.vectors[keep])`.

    Errors name their line and are reported by kind: a row count other
    than the header's (too few at the header, too many at the first extra
    row), a row's field count or unparseable component, a duplicate token,
    a non-finite component, then a zero vector, each at its first line.
    """
    with open(path, encoding="utf-8", newline=None) as fh:
        text = fh.read()
    if not text:
        raise EmbeddingFormatError("empty file", 1)
    lines = text.split("\n")
    count, dim = _parse_header(lines[0], 1)
    rows = [(n, line) for n, line in enumerate(lines[1:], start=2) if line]
    if len(rows) > count:
        raise EmbeddingFormatError(
            "more rows than the header's %d words" % count, rows[count][0])
    if len(rows) < count:
        raise EmbeddingFormatError("header declares %d words, the file has %d"
                                   % (count, len(rows)), 1)
    if not rows:
        return EmbeddingStore(Vocabulary([]), np.empty((0, dim)))
    pairs = [line.split(None, 1) for _, line in rows]
    vectors = (_components([rest for _, rest in pairs], dim)
               if all(len(pair) == 2 for pair in pairs) else None)
    if vectors is None:
        _refuse_unread_row(rows, dim)
    try:
        return EmbeddingStore(Vocabulary(token for token, _ in pairs), vectors)
    except RowError as exc:
        raise EmbeddingFormatError(str(exc), rows[exc.row][0]) from None


def _components(texts, dim):
    """The (len(texts), dim) array np.loadtxt reads from the component
    texts, or None when it refuses them or reads another shape."""
    try:
        vectors = np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return vectors if vectors.shape == (len(texts), dim) else None


def _refuse_unread_row(rows, dim):
    """Raise for the first row that is not a token and dim components
    `_components` reads; np.loadtxt reads each row on its own."""
    for line_no, line in rows:
        fields = line.split()
        if len(fields) != dim + 1:
            raise EmbeddingFormatError(
                "expected token + %d components, got %d fields"
                % (dim, len(fields)), line_no)
        if _components([line.split(None, 1)[1]], dim) is None:
            raise EmbeddingFormatError("unparseable vector component", line_no)
    raise AssertionError("np.loadtxt refused the rows but none alone")

