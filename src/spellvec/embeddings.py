"""Word embedding tables: text-format I/O and policy-based lookup, one word or a batch.

File format: a header line "V d", then V lines of "word v1 ... vd" with
single-space separators, UTF-8, LF line endings. A row for the reserved
token <UNK> is captured as the table's UNK vector instead of a regular
entry. Values are written with 17 significant digits, which round-trips
float64 exactly; a nan or infinite value is rejected when read.
"""

from __future__ import annotations

from typing import IO, Iterable

import numpy as np

from .fileio import text_lines

UNK_TOKEN = "<UNK>"

# lookup policies for out-of-vocabulary words
UNK_LOWERCASE = "unk-with-lowercase-backoff"
MIMICK_DIRECT = "mimick-direct"
TABLE_ONLY = "table-only"
POLICIES = (UNK_LOWERCASE, MIMICK_DIRECT, TABLE_ONLY)


class EmbeddingParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OovLookupError(KeyError):
    """Raised for an out-of-vocabulary word under the table-only policy."""


class EmbeddingTable:
    """Ordered word -> vector mapping of fixed dimension, immutable once built."""

    def __init__(
        self,
        dim: int,
        entries: Iterable[tuple[str, np.ndarray]] = (),
        unk: np.ndarray | None = None,
    ):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self._entries: dict[str, np.ndarray] = {}
        for word, vec in entries.items() if isinstance(entries, dict) else entries:
            if word in self._entries:
                raise ValueError(f"duplicate word {word!r}")
            self._entries[word] = self._check_vector(word, vec)
        self.unk = None if unk is None else self._check_vector(UNK_TOKEN, unk)
        self._words: list[str] | None = None
        self._matrix: np.ndarray | None = None
        self._scaled: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._norms: np.ndarray | None = None

    def _check_vector(self, word: str, vec) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector for {word!r} has shape {vec.shape}, expected ({self.dim},)")
        return vec

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def vector(self, word: str) -> np.ndarray:
        return self._entries[word]

    def get(self, word: str) -> np.ndarray | None:
        return self._entries.get(word)

    def words(self) -> list[str]:
        """The words in table order, cached: every call returns the same list,
        which callers must not modify."""
        if self._words is None:
            self._words = list(self._entries)
        return self._words

    def items(self):
        return self._entries.items()

    def matrix(self) -> np.ndarray:
        """All entry vectors stacked in table order, cached."""
        if self._matrix is None:
            if self._entries:
                self._matrix = np.stack(list(self._entries.values()))
            else:
                self._matrix = np.zeros((0, self.dim))
        return self._matrix

    def norms(self) -> np.ndarray:
        """The Euclidean norm of each entry vector, in table order, cached;
        finite wherever it is representable."""
        if self._norms is None:
            _, norms, exponents = self._scaled_rows()
            self._norms = np.ldexp(norms, exponents)
        return self._norms

    def _scaled_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entry vectors, each row whose largest magnitude is beyond
        2**±500 times the power of two 2**-e that brings it into [0.5, 1), so
        no norm or dot product overflows; their norms; and each e (0 for a row
        left as it is, and a table of such rows is not copied); cached."""
        if self._scaled is None:
            matrix = self.matrix()
            exponents = np.frexp(np.abs(matrix).max(axis=1))[1]
            exponents[np.abs(exponents) <= 500] = 0
            rows = np.ldexp(matrix, -exponents[:, None]) if exponents.any() else matrix
            self._scaled = (rows, np.linalg.norm(rows, axis=1), exponents)
        return self._scaled


def parse_header(line: str | None) -> tuple[int, int]:
    """The row count V and dimension d of a header line "V d" (None: the
    file has no lines)."""
    if line is None:
        raise EmbeddingParseError(1, "missing header")
    header = line.split(" ")
    if len(header) != 2:
        raise EmbeddingParseError(1, f"expected header 'V d', got {line!r}")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingParseError(1, f"expected integer header 'V d', got {line!r}") from None
    if count < 0 or dim < 1:
        raise EmbeddingParseError(1, f"invalid header counts {count} {dim}")
    return count, dim


def read_embeddings(source: IO[str] | str) -> EmbeddingTable:
    lines = text_lines(source)
    count, dim = parse_header(lines[0] if lines else None)

    entries: dict[str, np.ndarray] = {}
    unk = None
    # one row per line, checked for finiteness in place; allocated once a row
    # has shown the header's dimension, so a header alone claims no memory
    matrix = None
    for offset in range(count):
        line_no = 2 + offset
        if offset + 1 >= len(lines):
            raise EmbeddingParseError(line_no, f"expected {count} rows, file ends after {offset}")
        fields = lines[offset + 1].split(" ")
        if len(fields) != dim + 1:
            raise EmbeddingParseError(
                line_no, f"expected 1 word and {dim} values, got {len(fields)} fields"
            )
        if matrix is None:
            matrix = np.empty((min(count, len(lines) - 1), dim))
        word = fields[0]
        vec = matrix[offset]
        try:
            vec[:] = [float(v) for v in fields[1:]]
        except ValueError:
            raise EmbeddingParseError(line_no, "unparseable number") from None
        if word == UNK_TOKEN:
            if unk is not None:
                raise EmbeddingParseError(line_no, f"duplicate {UNK_TOKEN} row")
            unk = vec
        elif word in entries:
            raise EmbeddingParseError(line_no, f"duplicate word {word!r}")
        else:
            entries[word] = vec
    if matrix is not None:
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise EmbeddingParseError(2 + int(np.argmin(finite)), "value is nan or infinite")
    for extra, line in enumerate(lines[count + 1 :]):
        if line.strip():
            raise EmbeddingParseError(count + 2 + extra, "content past the declared row count")
    return EmbeddingTable(dim, entries, unk)


def write_embeddings(table: EmbeddingTable, sink: IO[str]) -> None:
    """Emit the text format deterministically, UNK row (if any) first."""
    total = len(table) + (1 if table.unk is not None else 0)
    sink.write(f"{total} {table.dim}\n")
    if table.unk is not None:
        sink.write(_format_row(UNK_TOKEN, table.unk))
    for word, vec in table.items():
        sink.write(_format_row(word, vec))


def check_word(word: str) -> None:
    """Raise ValueError unless word can be written as a row's word."""
    if not word or " " in word or "\n" in word:
        raise ValueError(f"word {word!r} cannot be represented in the text format")


def _format_row(word: str, vec: np.ndarray) -> str:
    check_word(word)
    return word + (" %.17g" * len(vec)) % tuple(vec.tolist()) + "\n"


def lookup(
    table: EmbeddingTable,
    policy: str,
    word: str,
    mimick=None,
) -> tuple[np.ndarray, str]:
    """One word's (vector, provenance): lookup_many() of [word]."""
    vectors, provenance = lookup_many(table, policy, [word], mimick)
    return vectors[0], provenance[0]


def lookup_many(
    table: EmbeddingTable, policy: str, words: list[str], mimick=None
) -> tuple[np.ndarray, list[str]]:
    """Resolve words to vectors under an OOV backoff policy.

    Returns a fresh (len(words), d) matrix and one provenance per word: in-vocab,
    lowercase, unk or mimicked. In-vocabulary words resolve to their own vector
    under every policy. Under mimick-direct, `mimick` needs only forward_many:
    the words outside the table go to it in one call, in input order, and it
    returns their (n, d) vectors; there is no call when every word is in the table.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    vectors = np.empty((len(words), table.dim))
    provenance = []
    oov = []  # indices of the words left to Mimick
    for i, word in enumerate(words):
        vec = table.get(word)
        if vec is not None:
            vectors[i] = vec
            provenance.append("in-vocab")
        elif policy == UNK_LOWERCASE:
            if table.unk is None:
                raise ValueError(f"policy {policy!r} requires an UNK vector")
            lowered = table.get(word.lower())
            vectors[i] = table.unk if lowered is None else lowered
            provenance.append("unk" if lowered is None else "lowercase")
        elif policy == MIMICK_DIRECT:
            oov.append(i)
            provenance.append("mimicked")
        else:
            raise OovLookupError(word)
    if oov:
        if mimick is None:
            raise ValueError(f"policy {policy!r} requires a trained mimick model")
        inferred = np.asarray(mimick.forward_many([words[i] for i in oov]), dtype=np.float64)
        if inferred.shape != (len(oov), table.dim):
            raise ValueError(
                f"mimick output has shape {inferred.shape}, expected {(len(oov), table.dim)}"
            )
        vectors[oov] = inferred
    return vectors, provenance
