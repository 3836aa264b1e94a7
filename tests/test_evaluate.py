import inspect
import math

import numpy as np
import pytest

from spellvec.conllu import Sentence, Token
from spellvec.embeddings import MIMICK_DIRECT, TABLE_ONLY, EmbeddingTable
from spellvec.evaluate import (
    AlignmentError,
    TaggedCorpusPair,
    average_ranks,
    cosine,
    mcnemar,
    micro_f1,
    pos_accuracy,
    pos_correctness,
    read_similarity_dataset,
    render_report,
    spearman,
)
from spellvec.fileio import LineError


def sent(*tokens):
    return Sentence([Token(form, pos, dict(attrs)) for form, pos, attrs in tokens])


def pair_of(gold, pred, vocab=None):
    return TaggedCorpusPair(gold, pred, vocab)


class TestAlignment:
    def test_sentence_count_mismatch(self):
        with pytest.raises(AlignmentError, match="sentence counts"):
            pair_of([sent(("a", "X", {}))], [])

    def test_token_count_mismatch_names_sentence(self):
        gold = [sent(("a", "X", {}), ("b", "X", {}))]
        pred = [sent(("a", "X", {}))]
        with pytest.raises(AlignmentError, match="sentence 1"):
            pair_of(gold, pred)

    def test_form_mismatch_names_position(self):
        gold = [sent(("a", "X", {}), ("b", "X", {}))]
        pred = [sent(("a", "X", {}), ("c", "X", {}))]
        with pytest.raises(AlignmentError, match="sentence 1 token 2"):
            pair_of(gold, pred)


class TestPosAccuracy:
    def test_identical_corpora(self):
        gold = [sent(("a", "NOUN", {}), ("b", "VERB", {}))]
        assert pos_accuracy(pair_of(gold, gold)) == 1.0

    def test_three_of_four(self):
        gold = [sent(("a", "N", {}), ("b", "N", {}), ("c", "N", {}), ("d", "N", {}))]
        pred = [sent(("a", "N", {}), ("b", "N", {}), ("c", "N", {}), ("d", "V", {}))]
        assert pos_accuracy(pair_of(gold, pred)) == 0.75

    def test_oov_restriction_matches_manual_count(self):
        gold = [sent(("seen", "N", {}), ("new1", "N", {}), ("new2", "V", {}))]
        pred = [sent(("seen", "V", {}), ("new1", "N", {}), ("new2", "N", {}))]
        pair = pair_of(gold, pred, vocab={"seen"})
        assert pos_accuracy(pair, "oov") == 0.5  # new1 right, new2 wrong
        assert pos_accuracy(pair, "in-vocab") == 0.0
        assert pos_correctness(pair, "oov") == [True, False]

    def test_empty_restriction_is_an_error(self):
        gold = [sent(("seen", "N", {}))]
        pair = pair_of(gold, gold, vocab={"seen"})
        with pytest.raises(ValueError, match="selects no tokens"):
            pos_accuracy(pair, "oov")

    def test_restriction_requires_vocabulary(self):
        gold = [sent(("a", "N", {}))]
        with pytest.raises(ValueError, match="vocabulary"):
            pos_accuracy(pair_of(gold, gold), "oov")

    def test_unknown_restriction_rejected(self):
        gold = [sent(("a", "N", {}))]
        with pytest.raises(ValueError, match="^unknown restriction 'rare'$"):
            pos_accuracy(pair_of(gold, gold, vocab={"a"}), "rare")

    def test_mixture_identity(self):
        rng = np.random.default_rng(0)
        forms = [f"w{i}" for i in range(30)]
        gold = [
            sent(*[(forms[rng.integers(0, 30)], "AB"[rng.integers(0, 2)], {}) for _ in range(8)])
            for _ in range(6)
        ]
        pred = [
            Sentence([Token(t.form, "AB"[rng.integers(0, 2)]) for t in s.tokens]) for s in gold
        ]
        vocab = set(forms[:15])
        pair = pair_of(gold, pred, vocab)
        flags = [f for row in pair.oov_flags for f in row]
        n_oov, n_inv = sum(flags), len(flags) - sum(flags)
        if n_oov and n_inv:
            mixture = (
                pos_accuracy(pair, "oov") * n_oov + pos_accuracy(pair, "in-vocab") * n_inv
            ) / (n_oov + n_inv)
            assert pos_accuracy(pair, "all") == pytest.approx(mixture, abs=1e-12)


def brute_force_micro(gold, pred):
    """Independent slot-by-slot counter over the full attribute universe."""
    universe = set()
    for corpus in (gold, pred):
        for s in corpus:
            for t in s.tokens:
                universe.update(t.attrs)
    tp = fp = fn = 0
    for gs, ps in zip(gold, pred):
        for gt, pt in zip(gs.tokens, ps.tokens):
            for attr in universe:
                g = gt.attrs.get(attr)
                p = pt.attrs.get(attr)
                if p is not None and p == g:
                    tp += 1
                if p is not None and p != g:
                    fp += 1
                if g is not None and p != g:
                    fn += 1
    return tp, fp, fn


class TestMicroF1:
    def test_perfect_prediction(self):
        gold = [sent(("a", "N", {"Case": "Nom"}), ("b", "V", {"Tense": "Past"}))]
        report = micro_f1(pair_of(gold, gold))
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_documented_single_token_example(self):
        gold = [sent(("a", "N", {"Case": "Nom", "Num": "Sing"}))]
        pred = [sent(("a", "N", {"Case": "Nom", "Gender": "Masc"}))]
        report = micro_f1(pair_of(gold, pred))
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert report.f1 == pytest.approx(0.5)

    def test_all_none_predictions_score_zero(self):
        gold = [sent(("a", "N", {"Case": "Nom"}))]
        pred = [sent(("a", "N", {}))]
        report = micro_f1(pair_of(gold, pred))
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_vacuously_perfect_when_both_all_none(self):
        gold = [sent(("a", "N", {}))]
        report = micro_f1(pair_of(gold, gold))
        assert report.f1 == 1.0

    def test_count_identities_and_brute_force_agreement(self):
        rng = np.random.default_rng(1)
        attrs = ["Case", "Num", "Gender"]
        values = ["a", "b", "c"]

        def random_corpus():
            gold, pred = [], []
            for _ in range(rng.integers(1, 4)):
                tokens = []
                for _ in range(rng.integers(1, 8)):
                    tokens.append(Token(f"w{rng.integers(0, 9)}", "X"))
                gold.append(Sentence([Token(t.form, "X", _random_attrs()) for t in tokens]))
                pred.append(Sentence([Token(t.form, "X", _random_attrs()) for t in tokens]))
            return gold, pred

        def _random_attrs():
            return {
                a: values[rng.integers(0, 3)] for a in attrs if rng.random() < 0.4
            }

        for _ in range(300):
            gold, pred = random_corpus()
            pair = pair_of(gold, pred)
            report = micro_f1(pair)
            assert (report.tp, report.fp, report.fn) == brute_force_micro(gold, pred)
            gold_slots = sum(len(t.attrs) for s in gold for t in s.tokens)
            pred_slots = sum(len(t.attrs) for s in pred for t in s.tokens)
            assert report.tp + report.fn == gold_slots
            assert report.tp + report.fp == pred_slots

    def test_per_attribute_breakdown_sums_to_totals(self):
        gold = [sent(("a", "N", {"Case": "Nom", "Num": "Sing"}), ("b", "V", {"Case": "Acc"}))]
        pred = [sent(("a", "N", {"Case": "Acc"}), ("b", "V", {"Case": "Acc", "Num": "Plur"}))]
        report = micro_f1(pair_of(gold, pred))
        assert sum(r.tp for r in report.per_attribute.values()) == report.tp
        assert sum(r.fp for r in report.per_attribute.values()) == report.fp
        assert sum(r.fn for r in report.per_attribute.values()) == report.fn

    def test_the_report_always_carries_its_breakdown(self):
        # no knob skips it: a corpus with no attributes gets an empty dict
        assert list(inspect.signature(micro_f1).parameters) == ["pair"]
        gold = [sent(("a", "N", {}))]
        assert micro_f1(pair_of(gold, gold)).per_attribute == {}


def naive_spearman(sims, scores):
    """O(n^2) average ranks plus hand-rolled Pearson."""

    def ranks(values):
        out = []
        for v in values:
            less = sum(1 for u in values if u < v)
            equal = sum(1 for u in values if u == v)
            out.append(less + (equal + 1) / 2.0)
        return out

    ra, rb = ranks(sims), ranks(scores)
    n = len(ra)
    ma, mb = sum(ra) / n, sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


class TestCosine:
    def test_huge_vectors_do_not_overflow(self):
        assert cosine(np.array([1e200, 1e200]), np.array([1e200, 1e200])) == pytest.approx(
            1.0, rel=1e-15)
        assert cosine(np.array([1e300, 0.0]), np.array([-1e300, 1e300])) == pytest.approx(
            -(2 ** -0.5), rel=1e-15)

    def test_tiny_vectors_do_not_underflow(self):
        assert cosine(np.array([1e-200, 1e-200]), np.array([1e-200, 0.0])) == pytest.approx(
            2 ** -0.5, rel=1e-15)
        assert cosine(np.array([5e-324, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            2 ** -0.5, rel=1e-15)

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_normal_range_similarities_keep_their_bits(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            dim = int(rng.integers(1, 70))
            u = rng.normal(size=dim) * 10.0 ** float(rng.integers(-100, 100))
            v = rng.normal(size=dim) * 10.0 ** float(rng.integers(-100, 100))
            plain = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
            assert cosine(u, v) == plain


class TestSpearman:
    def table(self):
        # vectors arranged so cosine(w0, wk) decreases with k
        entries = []
        for i in range(6):
            angle = i * 0.25
            entries.append((f"w{i}", np.array([math.cos(angle), math.sin(angle)])))
        return EmbeddingTable(2, entries)

    def test_identical_ranking_gives_one(self):
        table = self.table()
        dataset = [("w0", f"w{k}", 10.0 - k) for k in range(1, 6)]
        rho, n = spearman(dataset, table, TABLE_ONLY)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert n == 5

    def test_reversed_ranking_gives_minus_one(self):
        table = self.table()
        dataset = [("w0", f"w{k}", float(k)) for k in range(1, 6)]
        rho, _ = spearman(dataset, table, TABLE_ONLY)
        assert rho == pytest.approx(-1.0, abs=1e-12)

    def test_ties_match_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            sims = list(rng.integers(0, 4, size=n).astype(float))  # many ties
            scores = list(rng.integers(0, 4, size=n).astype(float))
            if len(set(sims)) < 2 or len(set(scores)) < 2:
                continue
            got = naive_spearman(sims, scores)
            mine = average_ranks(sims), average_ranks(scores)
            da = mine[0] - mine[0].mean()
            db = mine[1] - mine[1].mean()
            ours = float(np.dot(da, db) / math.sqrt(np.dot(da, da) * np.dot(db, db)))
            assert ours == pytest.approx(got, abs=1e-12)

    def test_monotone_transform_invariance(self):
        table = self.table()
        dataset = [("w0", f"w{k}", 10.0 - k) for k in range(1, 6)]
        rho_raw, _ = spearman(dataset, table, TABLE_ONLY)
        scaled = EmbeddingTable(2, [(w, v * 3.0) for w, v in table.items()])
        rho_scaled, _ = spearman(dataset, scaled, TABLE_ONLY)
        assert rho_scaled == pytest.approx(rho_raw, abs=1e-12)

    def test_unresolvable_pairs_excluded_and_counted(self):
        table = self.table()
        dataset = [("w0", "w1", 5.0), ("w0", "zzz", 4.0), ("w2", "w3", 3.0), ("w4", "w5", 1.0)]
        rho, n = spearman(dataset, table, TABLE_ONLY)
        assert n == 3

    def test_mimick_direct_resolves_everything(self):
        class Stub:
            def forward_many(self, words):
                return np.array([[1.0, float(len(word))] for word in words])

        table = self.table()
        dataset = [("w0", "zz", 5.0), ("qqq", "w1", 4.0), ("a", "b", 3.0)]
        rho, n = spearman(dataset, table, MIMICK_DIRECT, mimick=Stub())
        assert n == 3

    def test_the_distinct_words_are_resolved_in_one_mimick_pass(self):
        class Stub:
            calls = []

            def forward_many(self, words):
                self.calls.append(list(words))
                return np.array([[1.0, float(len(word))] for word in words])

        table = self.table()
        dataset = [("w0", "zz", 5.0), ("qqq", "w1", 4.0), ("zz", "qqq", 3.0), ("w2", "w3", 1.0)]
        rho, n = spearman(dataset, table, MIMICK_DIRECT, mimick=Stub())
        assert Stub.calls == [["zz", "qqq"]]
        assert n == 4

    def test_too_few_pairs_rejected(self):
        table = self.table()
        with pytest.raises(ValueError, match="resolvable"):
            spearman([("w0", "zz", 1.0), ("yy", "w1", 2.0)], table, TABLE_ONLY)

    def test_an_empty_dataset_is_rejected(self):
        with pytest.raises(ValueError, match="^empty similarity dataset$"):
            spearman([], self.table(), TABLE_ONLY)

    def test_equal_human_scores_have_no_rank_correlation(self):
        dataset = [("w0", "w1", 2.0), ("w0", "w2", 2.0), ("w1", "w3", 2.0)]
        with pytest.raises(ValueError, match="^rank variance is zero$"):
            spearman(dataset, self.table(), TABLE_ONLY)

    def test_reader_skips_blank_lines(self):
        assert read_similarity_dataset("\na\tb\t1\n \t \nc\td\t-2e3\n") == [
            ("a", "b", 1.0), ("c", "d", -2000.0)
        ]

    @pytest.mark.parametrize("text, message", [
        ("a\tb\t1\nc\td\tx\n", "line 2: unparseable score 'x'"),
        ("a\tb\t1\n\nc\td\tnan\n", "line 3: non-finite score"),
        ("a\tb\t-inf\n", "line 1: non-finite score"),
        ("a\tb\t1e400\n", "line 1: non-finite score"),
    ])
    def test_reader_names_the_line_of_a_bad_score(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_similarity_dataset(text)

    @pytest.mark.parametrize("text, line", [("\tcat\t0.5\n", 1), ("a\tb\t1\ncat\t\t0.5\n", 2)],
                             ids=["first", "second"])
    def test_reader_refuses_an_empty_word_naming_its_line(self, text, line):
        with pytest.raises(LineError, match=f"^line {line}: empty word$") as caught:
            read_similarity_dataset(text)
        assert caught.value.line == line

    def test_reader_validates(self):
        assert read_similarity_dataset("a\tb\t1.5\n") == [("a", "b", 1.5)]
        with pytest.raises(ValueError, match="duplicate"):
            read_similarity_dataset("a\tb\t1\na\tb\t2\n")
        with pytest.raises(ValueError, match="3 tab"):
            read_similarity_dataset("a b 1\n")


class TestMcNemar:
    def test_symmetric_discordance_gives_one(self):
        a = [True] * 5 + [False] * 5
        b = [False] * 5 + [True] * 5
        assert mcnemar(a, b).p_value == 1.0

    def test_ten_zero_matches_enumeration(self):
        a = [True] * 10
        b = [False] * 10
        result = mcnemar(a, b)
        assert result.b == 10 and result.c == 0
        assert result.p_value == pytest.approx(2 * 0.5**10)
        assert result.significant

    def test_no_discordant_pairs(self):
        result = mcnemar([True, False], [True, False])
        assert result.p_value == 1.0
        assert not result.significant

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            mcnemar([True], [True, False])

    def test_exact_matches_integer_enumeration_up_to_30(self):
        for b in range(0, 16):
            for c in range(0, 16):
                if b + c == 0 or b + c > 30:
                    continue
                a_seq = [True] * b + [False] * c
                b_seq = [False] * b + [True] * c
                p = mcnemar(a_seq, b_seq).p_value
                n = b + c
                tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
                expected = min(1.0, (2 * tail) / (2**n))
                assert p == expected, (b, c)

    def test_exact_agrees_with_chi_squared_for_large_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(200, 800))
            b = int(rng.integers(0, n + 1))
            c = n - b
            a_seq = [True] * b + [False] * c
            b_seq = [False] * b + [True] * c
            exact = mcnemar(a_seq, b_seq, exact_limit=1000).p_value
            approx = mcnemar(a_seq, b_seq, exact_limit=0).p_value
            assert abs(exact - approx) <= 0.02, (b, c, exact, approx)


class TestReport:
    def test_report_round_trip_values(self):
        gold = [sent(("a", "N", {"Case": "Nom"}), ("b", "V", {}))]
        pred = [sent(("a", "N", {"Case": "Nom"}), ("b", "N", {}))]
        pair = pair_of(gold, pred, vocab={"a"})
        text = render_report(pair, comparison=mcnemar([True, False], [True, True]))
        rows = dict(
            line.split("\t", 1) for line in text.splitlines() if "\t" in line and "[" not in line
        )
        assert rows["tokens"] == "2"
        assert float(rows["pos_accuracy"]) == 0.5
        assert rows["oov_tokens"] == "1"
        assert float(rows["micro_f1"]) == 1.0
        assert rows["mcnemar_c"] == "1"
        assert "[attributes]" in text
