"""Word embedding tables: text-format I/O, policy-based lookup (one word or a
batch) and cosine nearest neighbours.

File format: a header line "V d", then V lines of "word v1 ... vd" with
single-space separators, UTF-8, LF line endings. A row for the reserved
token <UNK> is captured as the table's UNK vector instead of a regular
entry. Values are written with 17 significant digits, which round-trips
float64 exactly; a nan or infinite value is rejected when read.
"""

from __future__ import annotations

import math
import os
from functools import cached_property
from itertools import islice
from stat import S_ISREG
from typing import IO, Iterable

import numpy as np

from .fileio import LineError, text_lines
from .nn import DimensionError

UNK_TOKEN = "<UNK>"

# lookup policies for out-of-vocabulary words
UNK_LOWERCASE = "unk-with-lowercase-backoff"
MIMICK_DIRECT = "mimick-direct"
TABLE_ONLY = "table-only"
POLICIES = (UNK_LOWERCASE, MIMICK_DIRECT, TABLE_ONLY)

# rows per block where a table is read (lines per np.loadtxt call) or its
# norms are taken: a block's temporaries stay near 1 MB at d = 64
READ_CHUNK = 1024
# what np.loadtxt reads differently from float(): "\r" and "\n" end its
# line, and it strips "\x1c"-"\x1f" from a field's ends as whitespace
_LOADTXT_ONLY = ("\r", "\n", "\x1c", "\x1d", "\x1e", "\x1f")


class EmbeddingParseError(LineError):
    """A line of the embedding text format that does not parse."""


class OovLookupError(KeyError):
    """Raised for an out-of-vocabulary word under the table-only policy."""


class EmbeddingTable:
    """Ordered word -> vector mapping of fixed dimension, immutable once built:
    one read-only (V, d) matrix whose rows are the entries in table order, a
    word -> row dict, and the word list. vector() and items() hand out views
    into the matrix."""

    def __init__(
        self,
        dim: int,
        entries: Iterable[tuple[str, np.ndarray]] = (),
        unk: np.ndarray | None = None,
    ):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        words, vectors = [], []
        for word, vec in entries.items() if isinstance(entries, dict) else entries:
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (dim,):
                raise ValueError(f"vector for {word!r} has shape {vec.shape}, expected ({dim},)")
            words.append(word)
            vectors.append(vec)
        self._adopt(words, np.stack(vectors) if vectors else np.zeros((0, dim)), unk)

    @classmethod
    def over(
        cls, words: list[str], matrix: np.ndarray, unk: np.ndarray | None = None
    ) -> "EmbeddingTable":
        """The table whose row i is words[i] -> matrix[i]. It adopts a C-contiguous
        float64 matrix without copying it, so the caller must not write to it later."""
        table = cls.__new__(cls)
        table._adopt(list(words), matrix, unk)
        return table

    def _adopt(self, words: list[str], matrix: np.ndarray, unk: np.ndarray | None) -> None:
        # C order gives a row's dot product the same bits in any gather of rows
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(words) or matrix.shape[1] < 1:
            raise ValueError(
                f"matrix has shape {matrix.shape}, expected ({len(words)}, d) with d >= 1"
            )
        self.dim = matrix.shape[1]
        self._rows = {word: i for i, word in enumerate(words)}
        if len(self._rows) != len(words):
            seen: set[str] = set()
            for word in words:
                if word in seen:
                    raise ValueError(f"duplicate word {word!r}")
                seen.add(word)
        # the text format reads a <UNK> row as the UNK vector, not as an entry
        if UNK_TOKEN in self._rows:
            raise ValueError(f"word {UNK_TOKEN!r} is reserved for the UNK vector")
        self._words = words
        # a read-only view, so a write through any row view raises
        self._matrix = matrix.view()
        self._matrix.flags.writeable = False
        self.unk = None
        if unk is not None:
            unk = np.array(unk, dtype=np.float64)
            if unk.shape != (self.dim,):
                raise ValueError(
                    f"vector for {UNK_TOKEN!r} has shape {unk.shape}, expected ({self.dim},)"
                )
            unk.flags.writeable = False
            self.unk = unk

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._rows

    def vector(self, word: str) -> np.ndarray:
        return self._matrix[self._rows[word]]

    def words(self) -> list[str]:
        """The words in table order: every call returns the same list, which
        callers must not modify."""
        return self._words

    def items(self):
        """An iterator over (word, row view) pairs in table order."""
        return zip(self._words, self._matrix)

    def matrix(self) -> np.ndarray:
        """The read-only (V, d) matrix of entry vectors in table order."""
        return self._matrix

    @cached_property
    def _screen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What nearest_neighbors reads, built on its first query: the rows,
        each beyond 2**±500 scaled by the power of two that brings it into
        [0.5, 1) so that no norm or dot product overflows (a table of no such
        rows is not copied); their norms; the float32 unit rows (a zero row
        stays zero) that screen a query; and the indices of the zero-norm rows.
        No float64 temporary the size of the table is made."""
        matrix = self.matrix()
        exponents = np.frexp(np.maximum(matrix.max(axis=1), -matrix.min(axis=1)))[1]
        exponents[np.abs(exponents) <= 500] = 0
        rows = np.ldexp(matrix, -exponents[:, None]) if exponents.any() else matrix
        # the bits of one norm over the table, a block of rows at a time
        blocks = np.split(rows, range(READ_CHUNK, len(rows), READ_CHUNK))
        norms = np.concatenate([np.linalg.norm(block, axis=1) for block in blocks])
        unit32 = np.empty(rows.shape, np.float32)
        np.divide(rows, np.where(norms == 0.0, 1.0, norms)[:, None], out=unit32)
        return rows, norms, unit32, np.flatnonzero(norms == 0.0)


def pow2_scaled(x: np.ndarray) -> np.ndarray:
    """x scaled by the power of two that brings its largest magnitude into
    [0.5, 1). The scaling is exact, so no norm or dot product of the result
    overflows or underflows, and a cosine that needed no scaling keeps its
    bits."""
    return np.ldexp(x, -np.frexp(np.abs(x).max())[1])


def nearest_neighbors(table: EmbeddingTable, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-k table words by cosine similarity, descending; ties broken by
    table order; zero-norm table vectors rank last; the first k of a full stable
    sort. A float32 screen of the unit rows keeps the rows that can place, and
    only those get the exact float64 similarity."""
    # A query costs a fixed part (its checks and scaling, a dozen numpy calls,
    # the exact pass over its few candidates) plus the screen and the
    # partition, which grow with the row count.
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (table.dim,):
        raise DimensionError(f"query shape {query.shape}, expected ({table.dim},)")
    # the largest magnitude: nan or inf if the query holds one, 0 if it is zero
    top = np.abs(query).max()
    if not math.isfinite(top):
        raise ValueError("query vector must be finite")
    # the scaled query's largest magnitude lies in [0.5, 1), so its norm is 0
    # exactly when top is
    if top == 0.0:
        raise ValueError("query vector must be non-zero")
    if not 1 <= k <= len(table):
        raise ValueError(f"k must be in [1, {len(table)}], got {k}")
    # the query (as pow2_scaled scales it) and the rows scaled by powers of
    # two: nothing overflows, and a similarity that needed no scaling keeps
    # its bits
    query = np.ldexp(query, -math.frexp(top)[1])
    # np.linalg.norm's bits for a vector
    qnorm = math.sqrt(query.dot(query))
    rows, norms, unit32, zero_norm = table._screen
    # Both screen operands have norm <= 1, so a screened score is within E =
    # (d + 4) * 2**-24 of the exact one (two float32 roundings and the dot's,
    # in any order). The k best screened rows score >= screen_kth - E, so a row
    # that can place, ties included, screens >= screen_kth - 2E; the margin is 4E.
    # The threshold is float32, so the screen is compared in float32 (a float64
    # one makes numpy 2 promote the whole screen): rounding it moves it by at
    # most about 2**-24 * |screen_kth|, some 6e-8, well inside the slack of 2E,
    # some 8e-6 at d = 64. numpy < 2 compares in float32 even against a float64
    # threshold, by its value-based casting.
    screened = unit32 @ (query / qnorm).astype(np.float32)
    screened[zero_norm] = -np.inf
    screen_kth = np.partition(screened, -k)[-k]
    # in table order, so the stable sort keeps ties in table order
    candidates = np.flatnonzero(
        screened >= screen_kth - np.float32((4 * table.dim + 16) * 2.0**-24)
    )
    if len(candidates) < len(rows):
        rows, norms = rows[candidates], norms[candidates]
    # einsum, unlike BLAS, scores identical rows identically
    sims = np.einsum("ij,j->i", rows, query)
    if screen_kth > -np.inf:
        sims /= norms * qnorm
    else:
        # the zero-norm rows screen -inf, so they are candidates only when the
        # k-th screened score is -inf: each scores 0 / 0 and is ranked last
        with np.errstate(invalid="ignore"):
            sims /= norms * qnorm
        sims[norms == 0.0] = -np.inf
    best = np.argsort(-sims, kind="stable")[:k]
    words = table.words()
    return [(words[i], s) for i, s in zip(candidates[best].tolist(), sims[best].tolist())]


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
    # numpy shapes no float64 matrix, not even an empty one, wider than this
    if count < 0 or not 1 <= dim <= (2**63 - 1) // 8:
        raise EmbeddingParseError(1, f"invalid header counts {count} {dim}")
    return count, dim


def _size_bound(source: IO[str] | str) -> int:
    """A likely bound on the characters of source: a string's length, a
    regular file's size in bytes (too low only if it is compressed), or 0 for
    a stream of unknown size."""
    if isinstance(source, str):
        return len(source)
    try:
        stat = os.fstat(source.fileno())
    except (AttributeError, OSError):
        return 0
    return stat.st_size if S_ISREG(stat.st_mode) else 0


class _Rows:
    """The rows of a table being read: its entries' words and the matrix
    their values fill in file order, and the <UNK> row."""

    def __init__(self, count: int, dim: int, size: int):
        self.count, self.dim = count, dim
        # a row line holds at least a space and a digit per value, so a
        # header that claims more rows than the input can hold claims no
        # memory for them
        self.matrix = np.empty((min(count, size // (2 * dim)), dim))
        self.words: list[str] = []
        self.seen: set[str] = set()
        self.unk: np.ndarray | None = None

    def make_room(self, rows: int) -> None:
        """Grow the matrix, if it must, to take `rows` more entries; past the
        size bound (a stream or a compressed file) it at least doubles."""
        filled = len(self.words)
        if filled + rows > len(self.matrix):
            grown = np.empty((min(self.count, max(filled + rows, 2 * filled + 1)), self.dim))
            grown[:filled] = self.matrix[:filled]
            self.matrix = grown

    def add_chunk(self, lines: list[str]) -> bool:
        """Add the rows of lines, their values parsed by one np.loadtxt call,
        and return True; or add nothing and return False, leaving the chunk to
        add_lines, if it repeats a word, has an empty word or a character of
        _LOADTXT_ONLY in any field (so no word check_word refuses is added
        here), holds an empty value field, or np.loadtxt refuses it, reads
        it to another shape or reads a non-finite value."""
        parts = [line.partition(" ") for line in lines]
        words = [part[0] for part in parts]
        values = [part[2] for part in parts]
        fresh = set(words)
        if len(fresh) != len(words) or "" in fresh or not self.seen.isdisjoint(fresh):
            return False
        if UNK_TOKEN in fresh and self.unk is not None:
            return False
        text = "".join(lines)
        # np.loadtxt skips an empty line, and warns if it finds no others
        if "" in values or any(char in text for char in _LOADTXT_ONLY):
            return False
        try:
            block = np.loadtxt(values, delimiter=" ", comments=None, quotechar=None, ndmin=2)
        except ValueError:
            return False
        if block.shape != (len(lines), self.dim) or not np.isfinite(block).all():
            return False
        if UNK_TOKEN in fresh:
            at = words.index(UNK_TOKEN)
            self.unk = block[at].copy()
            block = np.delete(block, at, axis=0)
            del words[at]
        self.make_room(len(words))
        self.matrix[len(self.words) : len(self.words) + len(words)] = block
        self.words += words
        self.seen.update(words)
        return True

    def add_lines(self, lines: list[str], first_line: int) -> None:
        """Add the rows of lines, the first on line first_line, one at a time:
        the definition of a valid row, and of the error its first bad line
        raises."""
        for line_no, line in enumerate(lines, first_line):
            fields = line.split(" ")
            if len(fields) != self.dim + 1:
                raise EmbeddingParseError(
                    line_no, f"expected 1 word and {self.dim} values, got {len(fields)} fields"
                )
            row = len(self.words)
            self.make_room(1)
            try:  # numpy converts each str by float()'s rules
                self.matrix[row] = fields[1:]
            except ValueError:
                raise EmbeddingParseError(line_no, "unparseable number") from None
            if not np.isfinite(self.matrix[row]).all():
                raise EmbeddingParseError(line_no, "value is nan or infinite")
            word = fields[0]
            if word == UNK_TOKEN:
                if self.unk is not None:
                    raise EmbeddingParseError(line_no, f"duplicate {UNK_TOKEN} row")
                self.unk = self.matrix[row].copy()
                continue
            check_word(word, line_no)
            if word in self.seen:
                raise EmbeddingParseError(line_no, f"duplicate word {word!r}")
            self.seen.add(word)
            self.words.append(word)


def read_embeddings(source: IO[str] | str) -> EmbeddingTable:
    """Parse the text format READ_CHUNK lines at a time straight into the
    table's matrix. A chunk's values go through np.loadtxt, whose C reader
    gives the bits float() gives; a chunk it refuses, or one that holds a
    non-finite value, is parsed row by row, so the accepted spellings are
    float()'s, and the first bad line in file order is the one reported."""
    size = _size_bound(source)
    lines = text_lines(source)
    count, dim = parse_header(next(lines, None))
    rows = _Rows(count, dim, size)
    for start in range(0, count, READ_CHUNK):
        want = min(READ_CHUNK, count - start)
        chunk = list(islice(lines, want))
        if len(chunk) < want or not rows.add_chunk(chunk):
            rows.add_lines(chunk, 2 + start)
        if len(chunk) < want:
            read = start + len(chunk)
            raise EmbeddingParseError(2 + read, f"expected {count} rows, file ends after {read}")
    for extra, line in enumerate(lines):
        if line.strip():
            raise EmbeddingParseError(count + 2 + extra, "content past the declared row count")
    # the entries fill the first rows in file order, and the table adopts a
    # view of them with no copy
    return EmbeddingTable.over(rows.words, rows.matrix[: len(rows.words)], rows.unk)


def write_embeddings(table: EmbeddingTable, sink: IO[str]) -> None:
    """Emit the text format deterministically, UNK row (if any) first."""
    total = len(table) + (1 if table.unk is not None else 0)
    sink.write(f"{total} {table.dim}\n")
    values = " %.17g" * table.dim + "\n"
    if table.unk is not None:
        sink.write(UNK_TOKEN + values % tuple(table.unk.tolist()))
    for word, vec in table.items():
        check_word(word)
        sink.write(word + values % tuple(vec.tolist()))


def check_word(word: str, line: int | None = None) -> None:
    """Raise ValueError, or an EmbeddingParseError naming the line if one is
    given, unless word can be written as an entry row's word: not the
    reserved UNK token, which reads back as the table's UNK vector."""
    if word == UNK_TOKEN:
        message = f"word {UNK_TOKEN!r} is reserved for the UNK vector"
    elif not word or " " in word or "\n" in word or "\r" in word:
        message = f"word {word!r} cannot be represented in the text format"
    else:
        return
    raise ValueError(message) if line is None else EmbeddingParseError(line, message)


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
    found, rows = [], []  # indices of the words resolved to a table row, and those rows
    unk = []  # indices of the words resolved to the UNK vector
    oov = []  # indices of the words left to Mimick
    for i, word in enumerate(words):
        row = table._rows.get(word)
        if row is not None:
            found.append(i)
            rows.append(row)
            provenance.append("in-vocab")
        elif policy == UNK_LOWERCASE:
            if table.unk is None:
                raise ValueError(f"policy {policy!r} requires an UNK vector")
            row = table._rows.get(word.lower())
            if row is None:
                unk.append(i)
                provenance.append("unk")
            else:
                found.append(i)
                rows.append(row)
                provenance.append("lowercase")
        elif policy == MIMICK_DIRECT:
            oov.append(i)
            provenance.append("mimicked")
        else:
            raise OovLookupError(word)
    # one gather for every table row
    vectors[found] = table.matrix()[rows]
    if unk:
        vectors[unk] = table.unk
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
