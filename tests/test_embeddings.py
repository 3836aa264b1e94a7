import gzip
import io
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spellvec import embeddings
from spellvec.embeddings import (
    MIMICK_DIRECT,
    TABLE_ONLY,
    UNK_LOWERCASE,
    EmbeddingParseError,
    EmbeddingTable,
    OovLookupError,
    lookup,
    lookup_many,
    read_embeddings,
    write_embeddings,
)


def round_trip(table):
    sink = io.StringIO()
    write_embeddings(table, sink)
    return read_embeddings(sink.getvalue())


class TestReadEmbeddings:
    def test_two_word_table(self):
        table = read_embeddings("2 3\ndog 1 2 3\ncat 4 5 6\n")
        assert len(table) == 2
        assert table.dim == 3
        assert np.array_equal(table.vector("dog"), [1, 2, 3])
        assert table.unk is None

    def test_unk_row_captured_separately(self):
        table = read_embeddings("2 2\n<UNK> 0 0\ndog 1 2\n")
        assert len(table) == 1
        assert np.array_equal(table.unk, [0, 0])

    def test_short_row_names_line(self):
        with pytest.raises(EmbeddingParseError, match="line 3"):
            read_embeddings("2 3\ndog 1 2 3\ncat 4 5\n")

    def test_bad_number_names_line(self):
        with pytest.raises(EmbeddingParseError, match="line 2"):
            read_embeddings("1 2\ndog 1 x\n")

    def test_duplicate_word(self):
        with pytest.raises(EmbeddingParseError, match="duplicate"):
            read_embeddings("2 1\ndog 1\ndog 2\n")

    def test_missing_rows(self):
        with pytest.raises(EmbeddingParseError, match="ends after"):
            read_embeddings("3 1\ndog 1\n")

    def test_extra_rows_rejected(self):
        with pytest.raises(EmbeddingParseError, match="past the declared"):
            read_embeddings("1 1\ndog 1\ncat 2\n")

    def test_bad_header(self):
        with pytest.raises(EmbeddingParseError, match="line 1"):
            read_embeddings("hello\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-Infinity"])
    def test_non_finite_value_names_line(self, value):
        with pytest.raises(EmbeddingParseError, match="^line 3: value is nan or infinite$"):
            read_embeddings(f"3 2\ndog 1 2\ncat 1 {value}\n<UNK> 0 0\n")
        with pytest.raises(EmbeddingParseError, match="^line 2: "):
            read_embeddings(f"2 2\n<UNK> {value} 0\ndog 1 {value}\n")

    def test_accepts_stream(self):
        table = read_embeddings(io.StringIO("1 1\ndog 7\n"))
        assert np.array_equal(table.vector("dog"), [7])

    def test_header_claiming_too_many_rows_claims_no_memory(self, tmp_path):
        text = "1000000000 64\nw " + " ".join(["1.5"] * 64) + "\n"
        (tmp_path / "t.txt").write_text(text, encoding="utf-8")
        with open(tmp_path / "t.txt", encoding="utf-8") as handle:
            for source in (text, handle, io.StringIO(text)):
                with pytest.raises(EmbeddingParseError, match="^line 3: .*file ends after 1$"):
                    read_embeddings(source)

    @pytest.mark.parametrize("dim", [100_000_000_000, (2**63 - 1) // 8])
    @pytest.mark.parametrize("count", [1, 2])
    def test_header_claiming_a_huge_dimension_claims_no_memory(self, tmp_path, dim, count):
        # one row line: a full chunk, or one short of the declared rows
        text = f"{count} {dim}\nw 1 2\n"
        (tmp_path / "t.txt").write_text(text, encoding="utf-8")
        with open(tmp_path / "t.txt", encoding="utf-8") as handle:
            for source in (text, handle, io.StringIO(text)):
                with pytest.raises(
                    EmbeddingParseError, match=f"^line 2: expected 1 word and {dim} values, got 3 fields$"
                ):
                    read_embeddings(source)

    def test_compressed_file_larger_than_its_size_parses(self, tmp_path):
        rows = [f"w{i} " + " ".join(["0.5"] * 8) for i in range(300)]
        text = "300 8\n" + "\n".join(rows) + "\n"
        with gzip.open(tmp_path / "t.txt.gz", "wt", encoding="utf-8") as sink:
            sink.write(text)
        assert (tmp_path / "t.txt.gz").stat().st_size < len(text) / 10
        with gzip.open(tmp_path / "t.txt.gz", "rt", encoding="utf-8") as handle:
            table = read_embeddings(handle)
        assert table.words() == [f"w{i}" for i in range(300)]
        assert table.matrix().tobytes() == np.full((300, 8), 0.5).tobytes()

    @pytest.mark.parametrize("kind", ["file", "pipe"])
    def test_file_and_pipe_parse_like_their_text(self, tmp_path, kind):
        text = "3 2\ndog 1 -2.5\n<UNK> 0 1e-300\ncat 3 4\n\n"
        if kind == "file":
            (tmp_path / "t.txt").write_text(text, encoding="utf-8")
            handle = open(tmp_path / "t.txt", encoding="utf-8")
        else:
            read_end, write_end = os.pipe()
            os.write(write_end, text.encode("utf-8"))
            os.close(write_end)
            handle = os.fdopen(read_end, encoding="utf-8")
        with handle:
            from_file = read_embeddings(handle)
        from_text = read_embeddings(text)
        assert from_file.words() == from_text.words() == ["dog", "cat"]
        assert from_file.matrix().tobytes() == from_text.matrix().tobytes()
        assert from_file.unk.tobytes() == from_text.unk.tobytes()


finite_values = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def table_texts(draw):
    """A table's text, its (word, row) pairs in file order with <UNK> at any
    position, and the line of the one row given a non-finite value, if any."""
    dim = draw(st.integers(1, 4))
    words = draw(st.lists(st.text("abcXY", min_size=1, max_size=3), max_size=6, unique=True))
    rows = [(w, draw(st.lists(finite_values, min_size=dim, max_size=dim))) for w in words]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    ("<UNK>", draw(st.lists(finite_values, min_size=dim, max_size=dim))))
    bad_line = None
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, dim - 1))
        rows[i][1][j] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        bad_line = 2 + i
    lines = [f"{len(rows)} {dim}"] + [" ".join([w] + ["%.17g" % v for v in r]) for w, r in rows]
    return "\n".join(lines) + "\n", rows, bad_line


# lines per chunk the reader is tested with, so that a table's <UNK> row,
# repeated words and bad values fall at every place in a chunk
CHUNK_SIZES = (1, 2, 3, embeddings.READ_CHUNK)


def read_in_chunks(source, chunk):
    """read_embeddings(source), reading chunk lines at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "READ_CHUNK", chunk)
        return read_embeddings(source)


@settings(max_examples=200, deadline=None)
@given(table_texts(), st.booleans())
def test_read_embeddings_fills_one_matrix_in_file_order(case, stream):
    text, rows, bad_line = case
    for chunk in CHUNK_SIZES:
        source = io.StringIO(text) if stream else text
        if bad_line is not None:
            with pytest.raises(EmbeddingParseError, match=f"^line {bad_line}: value is nan or infinite$"):
                read_in_chunks(source, chunk)
            continue
        table = read_in_chunks(source, chunk)
        entries = [(w, r) for w, r in rows if w != "<UNK>"]
        matrix = table.matrix()
        assert matrix is table.matrix()
        assert table.words() == [w for w, _ in entries]
        assert matrix.tobytes() == np.array([r for _, r in entries]).reshape(-1, table.dim).tobytes()
        for word, _ in entries:
            assert np.shares_memory(table.vector(word), matrix)
        unk = [r for w, r in rows if w == "<UNK>"]
        assert (table.unk is None) if not unk else (table.unk.tobytes() == np.array(unk[0]).tobytes())


# spellings float() accepts, with a finite or a non-finite value, or rejects;
# np.loadtxt also takes the whitespace-wrapped ones, with float()'s values,
# refuses "1_0" and "\u0661\u0662", and takes "1\x1c", which float() rejects
number_spellings = [
    "1_0", "1e400", "Infinity", "-0", "1e-400", "\u0661\u0662", "0x10", "", "abc",
    "+2.5", ".5", "5.", "1E3", "1..2", "\x0c1", "1\xa0", "\u20281", "1\x1c",
]


def float_or_none(field):
    try:
        return float(field)
    except ValueError:
        return None


@st.composite
def spelled_tables(draw):
    """A table's text and its (word, fields) rows, <UNK> possibly among
    them; each value field is a spelling from number_spellings or a finite
    float written with 17 or 6 digits, and an empty field makes a double space."""
    dim = draw(st.integers(1, 3))
    words = draw(st.lists(st.text("abc", min_size=1, max_size=3), max_size=5, unique=True))
    if draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), "<UNK>")
    field = st.one_of(
        st.sampled_from(number_spellings),
        finite_values.map(lambda v: "%.17g" % v),
        finite_values.map(lambda v: "%.6f" % v),
    )
    rows = [(w, draw(st.lists(field, min_size=dim, max_size=dim))) for w in words]
    lines = [f"{len(rows)} {dim}"] + [" ".join([w] + fields) for w, fields in rows]
    return "\n".join(lines) + "\n", rows


@settings(max_examples=300, deadline=None)
@given(spelled_tables(), st.booleans())
def test_values_parse_as_float_does_or_fail_on_its_first_line(case, stream):
    text, rows = case
    values = [[float_or_none(f) for f in fields] for _, fields in rows]
    # the first line whose values are not all finite numbers, and its error:
    # an unparseable field is found before a non-finite one on the same line
    bad = [
        (2 + i, "unparseable number" if None in row else "value is nan or infinite")
        for i, row in enumerate(values)
        if None in row or not np.isfinite(row).all()
    ]
    for chunk in CHUNK_SIZES:
        source = io.StringIO(text) if stream else text
        if bad:
            with pytest.raises(EmbeddingParseError, match="^line %d: %s$" % bad[0]):
                read_in_chunks(source, chunk)
        else:
            table = read_in_chunks(source, chunk)
            entries = [v for (w, _), v in zip(rows, values) if w != "<UNK>"]
            expected = np.array(entries, dtype=np.float64).reshape(-1, table.dim)
            assert table.matrix().tobytes() == expected.tobytes()
            unk = [v for (w, _), v in zip(rows, values) if w == "<UNK>"]
            assert (table.unk is None) if not unk else (table.unk.tobytes() == np.array(unk[0]).tobytes())


@pytest.mark.parametrize(
    "text", ["2 1\ndog 1\ndog x\n", "2 1\n<UNK> 1\n<UNK> 1..2\n", "3 2\ndog 1 2\ncat 3 4\ncat  6\n"]
)
def test_a_bad_number_is_reported_before_a_repeated_word(text):
    with pytest.raises(EmbeddingParseError, match=f"^line {text.count(chr(10))}: unparseable number$"):
        read_embeddings(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1\ndog 1\ndog 2\ncat x\n", "line 3: duplicate word 'dog'"),
        ("3 1\n<UNK> 1\n<UNK> 2\ncat 1..2\n", "line 3: duplicate <UNK> row"),
    ],
)
def test_a_repeated_word_is_reported_before_a_later_bad_number(text, message):
    # in one chunk, and in two with chunks of 1 or 2 lines
    for chunk in CHUNK_SIZES:
        with pytest.raises(EmbeddingParseError, match=f"^{message}$"):
            read_in_chunks(text, chunk)


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 1\ndog nan\ncat 1\ncat 2\n", 2),  # before a later repeated word
        ("3 1\n<UNK> inf\ncat 1\n<UNK> 2\n", 2),  # before a later <UNK> row
        ("3 1\ndog 1e400\ncat 1\nbird x\n", 2),  # before a later bad number
        ("3 2\na nan 1\nb 1 2\nc 1\n", 2),  # before a later short row
        ("3 2\na nan 1\nb 1 2\n", 2),  # before the end of a short file
        ("2 1\ndog -inf\ncat 1\nbird 2\n", 2),  # before content past the row count
        ("3 1\ncat 1\ndog nan\ncat 2\n", 3),  # on a later line of a chunk
    ],
)
def test_a_non_finite_value_is_reported_on_its_own_line_before_any_later_fault(text, line):
    for chunk in CHUNK_SIZES:
        for source in (text, io.StringIO(text)):
            with pytest.raises(EmbeddingParseError, match=f"^line {line}: value is nan or infinite$"):
                read_in_chunks(source, chunk)


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 2\n 0.5 0.25\nab 1 2\ncd 3 4\n", 2),
        ("3 2\nab 1 2\ncd 3 4\n 0.5 0.25\n", 4),
        ("3 2\nab 1 2\n 0.5 0.25\nab 3 4\n", 3),  # before a later repeated word
        ("3 2\nab 1 2\n 0.5 0.25\ncd 3 x\n", 3),  # before a later bad number
        ("4 2\nab 1 2\n 0.5 0.25\n", 3),  # a short file, read row by row
    ],
)
def test_an_empty_word_names_its_line(text, line):
    # write_embeddings refuses the word '' (check_word): every chunk that
    # holds it falls back to the row-by-row reader, which refuses it too
    message = f"^line {line}: word '' cannot be represented in the text format$"
    for chunk in CHUNK_SIZES:
        for source in (text, io.StringIO(text)):
            with pytest.raises(EmbeddingParseError, match=message):
                read_in_chunks(source, chunk)


def test_a_word_with_a_line_break_from_a_stream_is_refused_in_any_chunk():
    # a StringIO's default newline="\n" keeps a "\r" in a line
    text = "2 1\na\rb 1\ncd 2\n"
    for chunk in CHUNK_SIZES:
        with pytest.raises(EmbeddingParseError, match=r"^line 2: word 'a\\rb' cannot be represented"):
            read_in_chunks(io.StringIO(text), chunk)


@pytest.mark.parametrize(
    "text",
    ["1 1\ndog \n", "2 1\ndog \ncat \n", "1 1\r\ndog \r\n"],
)
def test_parsing_emits_no_warning(text):
    # every row line's value fields hold no data, so np.loadtxt would skip
    # them all and warn; a StringIO's default newline="\n" keeps the "\r"s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in (text, io.StringIO(text)):
            with pytest.raises(EmbeddingParseError, match="^line 2: unparseable number$"):
                read_embeddings(source)


def test_a_valid_table_takes_one_reader_call_per_chunk(monkeypatch):
    loadtxt, calls, reparsed = np.loadtxt, [], []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(embeddings, "READ_CHUNK", 4)
    monkeypatch.setattr(np, "loadtxt", spy)
    monkeypatch.setattr(embeddings._Rows, "add_lines", lambda *args: reparsed.append(args))
    words = [f"w{i}" for i in range(9)]
    words.insert(5, "<UNK>")
    text = "10 2\n" + "".join(f"{w} {i}.5 -{i}\n" for i, w in enumerate(words))
    table = read_embeddings(text)
    assert [len(lines) for lines in calls] == [4, 4, 2]
    assert reparsed == []
    assert table.words() == [w for w in words if w != "<UNK>"]
    assert table.unk.tolist() == [5.5, -5.0]
    assert table.matrix().tolist() == [[i + 0.5, -i] for i in range(10) if i != 5]


@pytest.mark.parametrize("mark", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1e"])
def test_word_with_a_unicode_line_break_reads_back_from_a_string_and_a_file(tmp_path, mark):
    table = EmbeddingTable(2, [(f"a{mark}b", np.array([1.5, -2.0])), ("c", np.array([0.0, 3.0]))])
    sink = io.StringIO()
    write_embeddings(table, sink)
    path = tmp_path / "t.txt"
    path.write_text(sink.getvalue(), encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        from_file = read_embeddings(handle)
    for back in (read_embeddings(sink.getvalue()), from_file):
        assert back.words() == table.words()
        assert back.matrix().tobytes() == table.matrix().tobytes()


@pytest.mark.parametrize("word", ["a\rb", "a\r", "\r", "a\nb"])
def test_word_with_a_text_line_break_cannot_be_written(word):
    table = EmbeddingTable(1, [(word, np.array([1.0]))])
    with pytest.raises(ValueError, match="text format"):
        write_embeddings(table, io.StringIO())


class TestTableStorage:
    def test_matrix_is_the_rows_and_vectors_are_views(self):
        table = EmbeddingTable(2, {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert table.matrix() is table.matrix()
        assert np.array_equal(table.matrix(), [[1.0, 2.0], [3.0, 4.0]])
        assert all(np.shares_memory(vec, table.matrix()) for _, vec in table.items())

    def test_writes_through_the_table_raise(self):
        table = EmbeddingTable(2, [("a", np.zeros(2)), ("b", np.ones(2))], unk=np.zeros(2))
        with pytest.raises(ValueError, match="read-only"):
            table.vector("b")[:] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            table.matrix()[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            table.unk[0] = 5.0
        assert np.array_equal(table.matrix(), [[0.0, 0.0], [1.0, 1.0]])

    def test_over_adopts_the_matrix(self):
        matrix = np.arange(6.0).reshape(3, 2)
        table = EmbeddingTable.over(["a", "b", "c"], matrix, unk=[0.5, 0.5])
        assert table.dim == 2 and len(table) == 3 and "c" in table
        assert np.shares_memory(table.matrix(), matrix)
        assert np.array_equal(table.vector("c"), [4.0, 5.0])
        assert matrix.flags.writeable
        with pytest.raises(ValueError, match="shape"):
            EmbeddingTable.over(["a", "b"], matrix)
        with pytest.raises(ValueError, match="shape"):
            EmbeddingTable.over(["a", "b", "c"], matrix, unk=[1.0])
        with pytest.raises(ValueError, match="duplicate word 'b'"):
            EmbeddingTable.over(["b", "a", "b"], matrix)
        assert EmbeddingTable.over([], np.zeros((0, 4))).matrix().shape == (0, 4)


class TestWriteEmbeddings:
    def test_empty_table_is_header_only(self):
        sink = io.StringIO()
        write_embeddings(EmbeddingTable(4), sink)
        assert sink.getvalue() == "0 4\n"

    def test_one_word_table_is_two_lines(self):
        sink = io.StringIO()
        write_embeddings(EmbeddingTable(2, [("dog", np.array([1.0, 2.0]))]), sink)
        assert sink.getvalue().count("\n") == 2

    def test_round_trip_preserves_full_precision(self):
        rng = np.random.default_rng(3)
        entries = [
            (f"w{i}", rng.normal(size=5) * 10.0 ** float(rng.integers(-8, 8)))
            for i in range(50)
        ]
        table = EmbeddingTable(5, entries, unk=rng.normal(size=5))
        back = round_trip(table)
        assert back.words() == table.words()
        for word, vec in table.items():
            assert np.array_equal(back.vector(word), vec)
        assert np.array_equal(back.unk, table.unk)

    def test_rows_match_per_value_formatting_byte_for_byte(self):
        rng = np.random.default_rng(4)
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                   1.7976931348623157e308, 0.1, 1.0, -3.0, 123456789.0]
        rows = [rng.normal(size=64) * 10.0 ** float(rng.integers(-300, 300)) for _ in range(40)]
        rows += [rng.choice(special, size=64) for _ in range(10)]
        table = EmbeddingTable(64, [(f"w{i}", row) for i, row in enumerate(rows)], unk=rows[-1])
        sink = io.StringIO()
        write_embeddings(table, sink)
        expected = [f"{len(rows) + 1} 64", "<UNK> " + " ".join("%.17g" % v for v in rows[-1])]
        expected += [f"w{i} " + " ".join("%.17g" % v for v in row) for i, row in enumerate(rows)]
        assert sink.getvalue() == "\n".join(expected) + "\n"
        assert "-0 " in sink.getvalue() and "4.9406564584124654e-324" in sink.getvalue()

    def test_serialization_is_deterministic(self):
        table = EmbeddingTable(2, [("a", np.array([0.1, 0.2])), ("b", np.array([0.3, 0.4]))])
        first, second = io.StringIO(), io.StringIO()
        write_embeddings(table, first)
        write_embeddings(table, second)
        assert first.getvalue() == second.getvalue()

    def test_word_with_space_rejected(self):
        table = EmbeddingTable(1, [("two words", np.array([1.0]))])
        with pytest.raises(ValueError, match="text format"):
            write_embeddings(table, io.StringIO())

    @pytest.mark.parametrize("unk", [None, np.array([5.0, 6.0])])
    def test_an_entry_named_unk_is_refused_so_every_table_reads_back(self, unk):
        # written, such an entry reads back as the UNK vector, or next to one
        # not at all ("duplicate <UNK> row")
        words, matrix = ["a", "<UNK>"], np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="^word '<UNK>' is reserved for the UNK vector$"):
            round_trip(EmbeddingTable(2, zip(words, matrix), unk))
        with pytest.raises(ValueError, match="^word '<UNK>' is reserved for the UNK vector$"):
            round_trip(EmbeddingTable.over(words, matrix, unk))
        back = round_trip(EmbeddingTable.over(words[:1], matrix[:1], unk))
        assert back.words() == ["a"] and back.matrix().tolist() == [[1.0, 2.0]]
        assert (back.unk is None) if unk is None else np.array_equal(back.unk, unk)

    def test_duplicate_entries_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingTable(1, [("a", np.array([1.0])), ("a", np.array([2.0]))])

    @pytest.mark.parametrize("dim, entries, message", [
        (0, [], r"dimension must be positive, got 0"),
        (-1, [], r"dimension must be positive, got -1"),
        (2, [("a", np.zeros(3))], r"vector for 'a' has shape \(3,\), expected \(2,\)"),
        (2, [("a", np.zeros((1, 2)))], r"vector for 'a' has shape \(1, 2\), expected \(2,\)"),
    ])
    def test_bad_dimension_or_vector_shape_rejected_at_construction(self, dim, entries, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EmbeddingTable(dim, entries)


class FakeMimick:
    def __init__(self, dim):
        self.dim = dim
        self.calls = []

    def forward_many(self, words):
        self.calls.append(list(words))
        return np.array([np.full(self.dim, float(len(word))) for word in words])


@pytest.fixture
def table():
    return EmbeddingTable(
        2,
        [("dog", np.array([1.0, 0.0])), ("cat", np.array([0.0, 1.0]))],
        unk=np.array([0.5, 0.5]),
    )


class TestLookup:
    def test_in_vocab_word_under_every_policy(self, table):
        for policy in (UNK_LOWERCASE, TABLE_ONLY):
            vec, provenance = lookup(table, policy, "dog")
            assert provenance == "in-vocab"
            assert np.array_equal(vec, [1.0, 0.0])
        vec, provenance = lookup(table, MIMICK_DIRECT, "dog", mimick=FakeMimick(2))
        assert provenance == "in-vocab"

    def test_lowercase_backoff(self, table):
        vec, provenance = lookup(table, UNK_LOWERCASE, "Dog")
        assert provenance == "lowercase"
        assert np.array_equal(vec, table.vector("dog"))

    def test_unk_fallback(self, table):
        vec, provenance = lookup(table, UNK_LOWERCASE, "zebra")
        assert provenance == "unk"
        assert np.array_equal(vec, table.unk)

    def test_mimick_direct_skips_lowercase(self, table):
        mimick = FakeMimick(2)
        vec, provenance = lookup(table, MIMICK_DIRECT, "Dog", mimick=mimick)
        assert provenance == "mimicked"
        assert mimick.calls == [["Dog"]]
        assert np.array_equal(vec, [3.0, 3.0])

    def test_table_only_raises_on_oov(self, table):
        with pytest.raises(OovLookupError):
            lookup(table, TABLE_ONLY, "zebra")

    def test_unknown_policy_rejected(self, table):
        with pytest.raises(ValueError, match="^unknown policy 'nearest'$"):
            lookup_many(table, "nearest", ["dog"])

    def test_policy_prerequisites(self, table):
        bare = EmbeddingTable(2, [("dog", np.array([1.0, 0.0]))])
        with pytest.raises(ValueError, match="UNK"):
            lookup(bare, UNK_LOWERCASE, "zebra")
        with pytest.raises(ValueError, match="mimick"):
            lookup(table, MIMICK_DIRECT, "zebra")

    def test_provenance_order_is_exhaustive(self, table):
        """Randomized words only ever produce the documented transitions."""
        rng = np.random.default_rng(17)
        mimick = FakeMimick(2)
        alphabet = "dDoOgGcCaAtTzZ"
        for _ in range(300):
            word = "".join(rng.choice(list(alphabet), size=rng.integers(1, 6)))
            vec, provenance = lookup(table, UNK_LOWERCASE, word)
            if word in table:
                assert provenance == "in-vocab"
            elif word.lower() in table:
                assert provenance == "lowercase"
            else:
                assert provenance == "unk"
            assert vec.shape == (table.dim,)
            vec, provenance = lookup(table, MIMICK_DIRECT, word, mimick=mimick)
            assert provenance == ("in-vocab" if word in table else "mimicked")
            assert vec.shape == (table.dim,)

    def test_dimension_always_matches_table(self, table):
        vec, _ = lookup(table, MIMICK_DIRECT, "xyzzy", mimick=FakeMimick(2))
        assert vec.shape == (2,)
        with pytest.raises(ValueError, match="shape"):
            lookup(table, MIMICK_DIRECT, "xyzzy", mimick=FakeMimick(3))


# repeats, case variants of in-table words, and OOV words
batch_words = st.lists(
    st.sampled_from(["dog", "cat", "Dog", "CAT", "zebra"])
    | st.text("dDoOgGcCaAtTzZ", min_size=1, max_size=5),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(batch_words)
def test_lookup_many_equals_per_word_lookup(words):
    table = EmbeddingTable(
        2,
        [("dog", np.array([1.0, -0.0])), ("cat", np.array([0.1, 1e-310]))],
        unk=np.array([0.5, -2.5]),
    )
    oov = [word for word in words if word not in table]
    for policy in (UNK_LOWERCASE, MIMICK_DIRECT):
        mimick = FakeMimick(2)
        vectors, provenance = lookup_many(table, policy, words, mimick=mimick)
        single = [lookup(table, policy, word, mimick=FakeMimick(2)) for word in words]
        expected = np.array([vec for vec, _ in single]).reshape(len(words), 2)
        assert vectors.shape == expected.shape
        assert vectors.tobytes() == expected.tobytes()
        assert provenance == [origin for _, origin in single]
        assert mimick.calls == ([oov] if policy == MIMICK_DIRECT and oov else [])
    if oov:
        with pytest.raises(OovLookupError):
            lookup_many(table, TABLE_ONLY, words)
    else:
        vectors, provenance = lookup_many(table, TABLE_ONLY, words)
        rows = np.array([table.vector(word) for word in words]).reshape(len(words), 2)
        assert vectors.tobytes() == rows.tobytes()
        assert provenance == ["in-vocab"] * len(words)
