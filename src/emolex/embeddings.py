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


class Vocabulary:
    """Ordered, duplicate-free token list with a token -> index map."""

    def __init__(self, words):
        self.words = list(words)
        self.index = {}
        for i, w in enumerate(self.words):
            if w in self.index:
                raise ValueError("duplicate token: %r" % w)
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
        if not np.all(np.isfinite(vectors)):
            raise ValueError("non-finite vector component")
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.flatnonzero(norms == 0.0)[0])
            raise ValueError("zero vector for token %r" % vocab[bad])
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
    word: the token and dim whitespace-separated decimals. UTF-8, LF or CRLF.
    Tokens are taken as written.

    Returns an EmbeddingStore whose `vocab` holds every word in file order.
    Malformed rows, duplicates, non-finite components, and zero vectors are
    errors reported with their line number. For a subset, build
    `EmbeddingStore(Vocabulary(words), store.vectors[keep])`.
    """
    words = []
    rows = []
    seen = set()
    dim = None
    with open(path, encoding="utf-8", newline=None) as fh:
        header = fh.readline()
        if not header:
            raise EmbeddingFormatError("empty file", 1)
        _, dim = _parse_header(header, 1)
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise EmbeddingFormatError(
                    "expected token + %d components, got %d fields"
                    % (dim, len(parts)), line_no)
            token = parts[0]
            if token in seen:
                raise EmbeddingFormatError("duplicate token %r" % token, line_no)
            seen.add(token)
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError("unparseable vector component", line_no) from None
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError("non-finite vector component", line_no)
            if not np.any(vec):
                raise EmbeddingFormatError("zero vector for token %r" % token, line_no)
            words.append(token)
            rows.append(vec)

    vocab = Vocabulary(words)
    vectors = np.vstack(rows) if rows else np.empty((0, dim))
    return EmbeddingStore(vocab, vectors)
