import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_norms_are_cached_row_norms(self):
        rng = np.random.default_rng(5)
        table = EmbeddingTable(3, [(f"w{i}", rng.normal(size=3)) for i in range(4)]
                               + [("zero", np.zeros(3))])
        norms = table.norms()
        assert np.array_equal(norms, np.linalg.norm(table.matrix(), axis=1))
        assert norms[-1] == 0.0
        assert table.norms() is norms
        assert EmbeddingTable(3).norms().shape == (0,)

    def test_duplicate_entries_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingTable(1, [("a", np.array([1.0])), ("a", np.array([2.0]))])


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
