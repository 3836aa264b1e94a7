import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spellvec.conllu import (
    ConlluParseError,
    SchemaError,
    Sentence,
    Token,
    build_schema,
    parse_conllu,
    serialize_conllu,
    subsample,
    token_count,
)

SAMPLE = """\
# sent_id = s1
# text = Dogs bark
1\tDogs\tdog\tNOUN\t_\tCase=Nom|Number=Plur\t2\tnsubj\t_\t_
2\tbark\tbark\tVERB\t_\t_\t0\troot\t_\t_

1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_
1\tde\t_\tADP\t_\t_\t0\t_\t_\t_
2\tel\t_\tDET\t_\tDefinite=Def\t1\t_\t_\t_
3.1\tghost\t_\tX\t_\t_\t_\t_\t_\t_
3\tfin\t_\tNOUN\t_\tGender=Masc\t1\t_\t_\t_
"""


class TestParse:
    def test_empty_input(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n") == []

    def test_feats_parsed_into_attribute_map(self):
        sentences = parse_conllu(SAMPLE)
        dogs = sentences[0].tokens[0]
        assert dogs.form == "Dogs"
        assert dogs.upos == "NOUN"
        assert dogs.attrs == {"Case": "Nom", "Number": "Plur"}

    def test_underscore_feats_is_empty_map(self):
        sentences = parse_conllu(SAMPLE)
        assert sentences[0].tokens[1].attrs == {}

    def test_sent_id_captured(self):
        assert parse_conllu(SAMPLE)[0].sent_id == "s1"

    def test_multiword_range_and_empty_node_skipped(self):
        second = parse_conllu(SAMPLE)[1]
        assert [t.form for t in second.tokens] == ["de", "el", "fin"]

    def test_wrong_column_count_names_line(self):
        with pytest.raises(ConlluParseError, match="line 1"):
            parse_conllu("1\tdog\tNOUN\n")

    def test_malformed_feats_pair_names_line(self):
        bad = "1\tdog\t_\tNOUN\t_\tCase\t_\t_\t_\t_\n"
        with pytest.raises(ConlluParseError, match="line 1.*FEATS"):
            parse_conllu(bad)

    def test_duplicate_attribute_rejected(self):
        bad = "1\tdog\t_\tNOUN\t_\tCase=Nom|Case=Acc\t_\t_\t_\t_\n"
        with pytest.raises(ConlluParseError, match="twice"):
            parse_conllu(bad)

    def test_empty_form_names_line(self):
        with pytest.raises(ConlluParseError, match="^line 2: empty FORM$"):
            parse_conllu("# c\n1\t\t_\tNOUN\t_\t_\t_\t_\t_\t_\n")

    def test_malformed_id_names_line(self):
        bad = "x\tdog\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
        with pytest.raises(ConlluParseError, match="token id"):
            parse_conllu(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="07\u0661\u0662\u00b2-.x ", max_size=6))
    @example("\u0661\u0662")
    @example("\u00b2")
    @example("1-")
    @example("1-2-3")
    @example("1.")
    @example("\u0661-\u0662")
    @example("1.2-3")
    def test_token_ids_follow_the_unicode_digit_rules(self, token_id):
        """A word ID is one run of Unicode decimal digits (Nd, what \\d
        matches), a multiword range or an empty node two runs around one "-"
        or "."; the last two are skipped and any other ID names its line."""
        line = f"{token_id}\tdog\t_\tNOUN\t_\t_\t_\t_\t_\t_"
        if re.fullmatch(r"\d+", token_id):
            assert parse_conllu(f"# c\n{line}\n") == [Sentence([Token("dog", "NOUN")])]
        elif re.fullmatch(r"\d+-\d+|\d+\.\d+", token_id):
            assert parse_conllu(f"{line}\n") == []
        else:
            with pytest.raises(ConlluParseError, match="line 2: malformed token id"):
                parse_conllu(f"# c\n{line}\n")

    @pytest.mark.parametrize("blank", ["", " ", "\t" * 9, "\x0b\u3000"])
    def test_a_whitespace_line_ends_a_sentence(self, blank):
        word = "1\tdog\t_\tNOUN\t_\t_\t_\t_\t_\t_"
        assert [len(s) for s in parse_conllu(f"{word}\n{blank}\n{word}\n")] == [1, 1]

    @pytest.mark.parametrize("mark", ["\u2028", "\x85", "\x0b", "\x1c"])
    def test_form_with_a_unicode_line_break_parses_from_a_string_like_a_file(self, tmp_path, mark):
        text = SAMPLE.replace("Dogs\tdog", f"Do{mark}gs\tdog")
        (tmp_path / "c.conllu").write_text(text, encoding="utf-8")
        with open(tmp_path / "c.conllu", encoding="utf-8") as handle:
            from_file = parse_conllu(handle)
        from_text = parse_conllu(text)
        assert from_text == from_file
        assert from_text[0].tokens[0].form == f"Do{mark}gs"

    def test_feats_order_insensitive(self):
        a = parse_conllu("1\tw\t_\tX\t_\tA=x|B=y\t_\t_\t_\t_\n")
        b = parse_conllu("1\tw\t_\tX\t_\tB=y|A=x\t_\t_\t_\t_\n")
        assert a[0].tokens[0].attrs == b[0].tokens[0].attrs


def random_corpus(rng, n_sentences):
    forms = ["dog", "Dogs", "barks", "la", "casa", "ran"]
    pos = ["NOUN", "VERB", "DET"]
    attrs = {"Case": ["Nom", "Acc"], "Gender": ["Masc", "Fem"], "Number": ["Sing", "Plur"]}
    sentences = []
    for i in range(n_sentences):
        tokens = []
        for _ in range(rng.integers(1, 6)):
            chosen = {
                name: values[rng.integers(0, len(values))]
                for name, values in attrs.items()
                if rng.random() < 0.5
            }
            tokens.append(
                Token(forms[rng.integers(0, len(forms))], pos[rng.integers(0, len(pos))], chosen)
            )
        sentences.append(Sentence(tokens, sent_id=f"s{i}"))
    return sentences


class TestSerialize:
    def test_empty_list(self):
        assert serialize_conllu([]) == ""

    def test_one_token_sentence_line_count(self):
        text = serialize_conllu([Sentence([Token("dog", "NOUN")])])
        assert text == "1\tdog\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n"

    def test_round_trip_preserves_retained_fields(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            corpus = random_corpus(rng, int(rng.integers(1, 6)))
            back = parse_conllu(serialize_conllu(corpus))
            assert back == corpus, f"trial {trial}"


class TestSchema:
    def test_saturated_attribute_has_proportion_one(self):
        corpus = [Sentence([Token("a", "X", {"Case": "Nom"}), Token("b", "X", {"Case": "Acc"})])]
        schema = build_schema(corpus)
        assert schema.proportions["Case"] == 1.0

    def test_direct_count_proportion(self):
        tokens = [Token(f"w{i}", "X") for i in range(10)]
        for i in range(3):
            tokens[i].attrs["Gender"] = "Masc"
        schema = build_schema([Sentence(tokens)])
        assert schema.proportions["Gender"] == pytest.approx(0.3)

    def test_unseen_dev_value_not_in_inventory(self):
        train = [Sentence([Token("a", "X", {"Case": "Nom"})])]
        schema = build_schema(train)
        assert "Dat" not in schema.attrs["Case"]
        assert schema.value_labels("Case") == ["<NONE>", "Nom"]

    @pytest.mark.parametrize("lookup, args", [("value_labels", ()), ("value_index", ("Ind",))])
    def test_unknown_attribute_rejected(self, lookup, args):
        schema = build_schema([Sentence([Token("a", "X", {"Case": "Nom"})])])
        with pytest.raises(SchemaError, match="^unknown attribute 'Mood'$"):
            getattr(schema, lookup)("Mood", *args)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_schema([])

    def test_pos_inventory_sorted_and_complete(self):
        corpus = [Sentence([Token("a", "VERB"), Token("b", "ADJ"), Token("c", "VERB")])]
        assert build_schema(corpus).pos == ["ADJ", "VERB"]


def sized_sentences(sizes):
    return [
        Sentence([Token(f"w{i}_{j}", "X") for j in range(size)], sent_id=str(i))
        for i, size in enumerate(sizes)
    ]


class TestSubsample:
    def test_limit_covers_corpus_returns_original_order(self):
        corpus = sized_sentences([3, 4, 5])
        assert subsample(corpus, 12, seed=0) == corpus
        assert subsample(corpus, 100, seed=3) == corpus

    def test_stopping_rule_sizes_3_4_5_limit_5(self):
        """The draw stops after one sentence iff the first draw already has
        >= 5 tokens, else after exactly two; checked over many seeds."""
        corpus = sized_sentences([3, 4, 5])
        for seed in range(40):
            picked = subsample(corpus, 5, seed=seed)
            if len(picked[0]) >= 5:
                assert len(picked) == 1
            else:
                assert len(picked) == 2
            assert len({s.sent_id for s in picked}) == len(picked)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_a_limit_below_one_is_rejected(self, limit):
        with pytest.raises(ValueError, match=f"^token limit must be positive, got {limit}$"):
            subsample(sized_sentences([3, 4]), limit, seed=0)

    def test_same_seed_identical_sample(self):
        corpus = sized_sentences([2, 3, 4, 5, 6, 7])
        assert subsample(corpus, 9, seed=11) == subsample(corpus, 9, seed=11)

    def test_token_count_bounds(self):
        rng = np.random.default_rng(2)
        corpus = sized_sentences(list(rng.integers(1, 9, size=30)))
        total = token_count(corpus)
        longest = max(len(s) for s in corpus)
        for seed in range(10):
            limit = int(rng.integers(1, total + 10))
            picked = subsample(corpus, limit, seed=seed)
            assert token_count(picked) >= min(limit, total)
            assert token_count(picked) < limit + longest
