"""Tagging and similarity metrics.

Micro F1 counts every (token, attribute) slot, POS excluded: a matching
non-NONE assignment is a true positive; a non-NONE prediction that differs
from gold is a false positive; a non-NONE gold value that was not predicted
is a false negative (so one mismatching non-NONE pair counts as both). A
precision or recall with an empty denominator is 0, except when gold and
prediction are both entirely NONE, which scores a vacuous 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .conllu import Sentence
from .embeddings import TABLE_ONLY, EmbeddingTable, lookup_many, pow2_scaled
from .fileio import InputError, text_lines


class AlignmentError(InputError):
    """Gold and predicted corpora differ in sentences, lengths or forms."""


class TaggedCorpusPair:
    """Token-aligned gold and predicted corpora with optional OOV flags.

    A token is flagged OOV when its form is absent (case-sensitively) from
    the supplied training vocabulary.
    """

    def __init__(
        self,
        gold: list[Sentence],
        predicted: list[Sentence],
        train_vocabulary: set[str] | None = None,
    ):
        if len(gold) != len(predicted):
            raise AlignmentError(
                f"sentence counts differ: {len(gold)} gold vs {len(predicted)} predicted"
            )
        for i, (g, p) in enumerate(zip(gold, predicted)):
            if len(g.tokens) != len(p.tokens):
                raise AlignmentError(
                    f"sentence {i + 1}: token counts differ ({len(g.tokens)} vs {len(p.tokens)})"
                )
            for j, (gt, pt) in enumerate(zip(g.tokens, p.tokens)):
                if gt.form != pt.form:
                    raise AlignmentError(
                        f"sentence {i + 1} token {j + 1}: forms differ "
                        f"({gt.form!r} vs {pt.form!r})"
                    )
        self.gold = gold
        self.predicted = predicted
        if train_vocabulary is None:
            self.oov_flags = None
        else:
            self.oov_flags = [
                [t.form not in train_vocabulary for t in s.tokens] for s in gold
            ]

    def token_pairs(self):
        for si, (g, p) in enumerate(zip(self.gold, self.predicted)):
            for ti, (gt, pt) in enumerate(zip(g.tokens, p.tokens)):
                oov = self.oov_flags[si][ti] if self.oov_flags is not None else None
                yield gt, pt, oov


RESTRICTIONS = ("all", "oov", "in-vocab")


def pos_accuracy(pair: TaggedCorpusPair, restrict: str = "all") -> float:
    correct = pos_correctness(pair, restrict)
    if not correct:
        raise InputError(f"restriction {restrict!r} selects no tokens")
    return sum(correct) / len(correct)


def pos_correctness(pair: TaggedCorpusPair, restrict: str = "all") -> list[bool]:
    """Per-token POS correctness sequence, in corpus order."""
    if restrict not in RESTRICTIONS:
        raise ValueError(f"unknown restriction {restrict!r}")
    out = []
    for gt, pt, oov in pair.token_pairs():
        if restrict != "all":
            if oov is None:
                raise ValueError("OOV restriction requires a training vocabulary")
            if (restrict == "oov") != oov:
                continue
        out.append(gt.upos == pt.upos)
    return out


@dataclass
class MicroF1Report:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    per_attribute: dict[str, "MicroF1Report"] | None = None


def _scores(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0, 1.0, 1.0  # gold and prediction both all-NONE
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def micro_f1(pair: TaggedCorpusPair) -> MicroF1Report:
    counts: dict[str, list[int]] = {}
    for gt, pt, _ in pair.token_pairs():
        for attr in gt.attrs.keys() | pt.attrs.keys():
            tally = counts.setdefault(attr, [0, 0, 0])
            gold = gt.attrs.get(attr)
            pred = pt.attrs.get(attr)
            if pred is not None and pred == gold:
                tally[0] += 1
            else:
                if pred is not None:
                    tally[1] += 1
                if gold is not None:
                    tally[2] += 1
    tp = sum(t[0] for t in counts.values())
    fp = sum(t[1] for t in counts.values())
    fn = sum(t[2] for t in counts.values())
    per_attribute = {
        attr: MicroF1Report(*tally, *_scores(*tally)) for attr, tally in sorted(counts.items())
    }
    return MicroF1Report(tp, fp, fn, *_scores(tp, fp, fn), per_attribute)


# ----------------------------------------------------------------------
# word-pair similarity


def read_similarity_dataset(source: IO[str] | str) -> list[tuple[str, str, float]]:
    """Tab-separated "word1 word2 score" lines; pairs must be unique."""
    lines = text_lines(source)
    dataset = []
    seen = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"line {line_no}: expected 3 tab-separated fields")
        try:
            score = float(fields[2])
        except ValueError:
            raise ValueError(f"line {line_no}: unparseable score {fields[2]!r}") from None
        if not math.isfinite(score):
            raise ValueError(f"line {line_no}: non-finite score")
        key = (fields[0], fields[1])
        if key in seen:
            raise ValueError(f"line {line_no}: duplicate pair {key!r}")
        seen.add(key)
        dataset.append((fields[0], fields[1], score))
    return dataset


def average_ranks(values: Iterable[float]) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    values = np.asarray(list(values), dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float(np.dot(da, da)) * float(np.dot(db, db)))
    if denom == 0.0:
        raise ValueError("rank variance is zero")
    return float(np.dot(da, db)) / denom


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    u, v = pow2_scaled(u), pow2_scaled(v)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def spearman(
    dataset: list[tuple[str, str, float]],
    table: EmbeddingTable,
    policy: str,
    mimick=None,
) -> tuple[float, int]:
    """Spearman rank correlation between model cosine similarities and human
    scores; pairs unresolvable under the policy are excluded and the count of
    resolvable pairs is reported. The dataset's distinct words are resolved
    in one lookup_many call; under table-only, those outside the table are
    left out, and so are their pairs."""
    if not dataset:
        raise ValueError("empty similarity dataset")
    words = list(dict.fromkeys(w for w1, w2, _ in dataset for w in (w1, w2)))
    if policy == TABLE_ONLY:
        words = [w for w in words if w in table]
    vectors, _ = lookup_many(table, policy, words, mimick)
    row = {w: i for i, w in enumerate(words)}
    pairs = [(w1, w2, score) for w1, w2, score in dataset if w1 in row and w2 in row]
    sims = [cosine(vectors[row[w1]], vectors[row[w2]]) for w1, w2, _ in pairs]
    scores = [score for _, _, score in pairs]
    if len(sims) < 2:
        raise ValueError(f"only {len(sims)} resolvable pairs; need at least 2")
    rho = _pearson(average_ranks(sims), average_ranks(scores))
    return rho, len(sims)


# ----------------------------------------------------------------------
# paired significance


@dataclass
class McNemarResult:
    b: int  # first correct, second wrong
    c: int  # first wrong, second correct
    p_value: float
    significant: bool


def mcnemar(
    correct_a: list[bool],
    correct_b: list[bool],
    alpha: float = 0.01,
    exact_limit: int = 1000,
) -> McNemarResult:
    """Two-sided McNemar test on paired correctness sequences.

    Exact binomial (doubled smaller tail of Binomial(b+c, 1/2), capped at 1)
    while b+c <= exact_limit, else chi-squared with continuity correction.
    """
    if len(correct_a) != len(correct_b):
        raise ValueError(
            f"sequences differ in length: {len(correct_a)} vs {len(correct_b)}"
        )
    b = sum(1 for x, y in zip(correct_a, correct_b) if x and not y)
    c = sum(1 for x, y in zip(correct_a, correct_b) if y and not x)
    n = b + c
    if n == 0:
        p = 1.0
    elif n <= exact_limit:
        tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
        p = min(1.0, (2 * tail) / (2**n))
    else:
        stat = (abs(b - c) - 1.0) ** 2 / n
        p = math.erfc(math.sqrt(stat / 2.0))
    return McNemarResult(b, c, p, p < alpha)


# ----------------------------------------------------------------------
# report rendering


def render_report(
    pair: TaggedCorpusPair,
    comparison: McNemarResult | None = None,
) -> str:
    """Key/value lines, then a per-attribute sub-table."""
    lines = []

    def put(key, value):
        if isinstance(value, float):
            value = "%.12g" % value
        lines.append(f"{key}\t{value}\n")

    total = sum(len(s) for s in pair.gold)
    put("tokens", total)
    put("pos_accuracy", pos_accuracy(pair, "all"))
    if pair.oov_flags is not None:
        flags = [f for row in pair.oov_flags for f in row]
        put("oov_tokens", sum(flags))
        if any(flags):
            put("pos_accuracy_oov", pos_accuracy(pair, "oov"))
        if not all(flags):
            put("pos_accuracy_in_vocab", pos_accuracy(pair, "in-vocab"))
    report = micro_f1(pair)
    put("micro_tp", report.tp)
    put("micro_fp", report.fp)
    put("micro_fn", report.fn)
    put("micro_precision", report.precision)
    put("micro_recall", report.recall)
    put("micro_f1", report.f1)
    if comparison is not None:
        put("mcnemar_b", comparison.b)
        put("mcnemar_c", comparison.c)
        put("mcnemar_p", comparison.p_value)
        put("mcnemar_significant", str(comparison.significant).lower())
    if report.per_attribute:
        lines.append("[attributes]\n")
        lines.append("attribute\ttp\tfp\tfn\tprecision\trecall\tf1\n")
        for attr, sub in report.per_attribute.items():
            lines.append(
                f"{attr}\t{sub.tp}\t{sub.fp}\t{sub.fn}\t"
                + "\t".join("%.12g" % v for v in (sub.precision, sub.recall, sub.f1))
                + "\n"
            )
    return "".join(lines)
