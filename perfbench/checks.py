"""Output checks, computed apart from the program.

Each function recomputes an expected output with the benchmark's own code and
returns a list of problems (empty when the check passes).
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np


def parse_embedding_text(text: str) -> tuple[list[str], np.ndarray]:
    """Rows of an embedding text file, parsed without the program's reader."""
    lines = text.split("\n")
    count, dim = (int(x) for x in lines[0].split(" "))
    words, rows = [], []
    for line in lines[1 : count + 1]:
        fields = line.split(" ")
        words.append(fields[0])
        rows.append([float(v) for v in fields[1:]])
    if any(line for line in lines[count + 1 :]):
        raise ValueError("content past the declared row count")
    return words, np.array(rows, dtype=np.float64).reshape(count, dim)


def written_rows(words_written: list[str], requested: list[str]) -> list[str]:
    expected = list(dict.fromkeys(requested))
    if words_written != expected:
        return [f"written rows {len(words_written)} != distinct requested words {len(expected)} in order"]
    return []


def brute_force_neighbors(words: list[str], matrix: np.ndarray, query: np.ndarray, k: int):
    """Cosine ranking: descending similarity, table order on ties, zero-norm
    rows last."""
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    dots = np.einsum("ij,j->i", matrix, query)
    qnorm = float(np.sqrt(query @ query))
    sims = [d / (n * qnorm) if n > 0.0 else -np.inf for d, n in zip(dots.tolist(), norms.tolist())]
    order = heapq.nsmallest(k, range(len(words)), key=lambda i: (-sims[i], i))
    return [(words[i], sims[i]) for i in order]


def neighbors_agree(program, expected, tol: float = 1e-12) -> list[str]:
    """The program's list must hold the expected similarities rank by rank.
    Words may differ only where the expected similarities are within `tol`
    of each other: the library's matrix-vector product can give identical
    rows different last bits, so exact ties are not reliably kept."""
    if len(program) != len(expected):
        return [f"{len(program)} neighbours, expected {len(expected)}"]
    expected_sim = dict(expected)
    for rank, ((word, sim), (want, want_sim)) in enumerate(zip(program, expected), start=1):
        if abs(sim - want_sim) > tol:
            return [f"rank {rank}: similarity {sim!r}, expected {want_sim!r}"]
        if word != want and abs(expected_sim.get(word, -np.inf) - want_sim) > tol:
            return [f"rank {rank}: {word!r}, expected {want!r}"]
    return []


def same_sentences_and_forms(gold, predicted) -> list[str]:
    if len(gold) != len(predicted):
        return [f"{len(predicted)} tagged sentences for {len(gold)} input sentences"]
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if g.sent_id != p.sent_id or [t.form for t in g.tokens] != [t.form for t in p.tokens]:
            return [f"sentence {i + 1} changed its id or forms"]
    return []


def recount(gold, predicted, train_forms: set[str]) -> dict[str, float]:
    """POS accuracy overall and on forms absent from training, and attribute
    micro-F1, counted token by token."""
    correct = total = oov_correct = oov_total = tp = fp = fn = 0
    for g_sent, p_sent in zip(gold, predicted):
        for g, p in zip(g_sent.tokens, p_sent.tokens):
            hit = g.upos == p.upos
            total += 1
            correct += hit
            if g.form not in train_forms:
                oov_total += 1
                oov_correct += hit
            for attr in set(g.attrs) | set(p.attrs):
                gv, pv = g.attrs.get(attr), p.attrs.get(attr)
                if pv is not None and pv == gv:
                    tp += 1
                else:
                    fp += pv is not None
                    fn += gv is not None
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    if tp == fp == fn == 0:
        f1 = 1.0  # gold and prediction both without attributes
    return {
        "pos_accuracy": correct / total,
        "pos_accuracy_oov": oov_correct / oov_total if oov_total else float("nan"),
        "micro_f1": f1,
        "oov_rate": oov_total / total,
    }


def report_values(report: str) -> dict[str, float]:
    values = {}
    for line in report.splitlines():
        if line.startswith("["):
            break
        key, _, value = line.partition("\t")
        try:
            values[key] = float(value)
        except ValueError:
            pass
    return values


def report_matches(report: dict[str, float], counted: dict[str, float]) -> list[str]:
    problems = []
    for key in ("pos_accuracy", "pos_accuracy_oov", "micro_f1"):
        # the report prints 12 significant digits
        if key not in report or float("%.12g" % counted[key]) != report[key]:
            problems.append(f"eval {key} {report.get(key)!r}, recount {counted[key]!r}")
    return problems


def majority_baseline(train, test) -> float:
    """Accuracy of tagging every test token with the training split's most
    frequent POS."""
    tag, _ = Counter(t.upos for s in train for t in s.tokens).most_common(1)[0]
    tokens = [t for s in test for t in s.tokens]
    return sum(t.upos == tag for t in tokens) / len(tokens)


def same_tags(a, b) -> list[str]:
    if len(a) != len(b):
        return [f"{len(a)} vs {len(b)} sentences"]
    for i, (x, y) in enumerate(zip(a, b)):
        if [(t.upos, t.attrs) for t in x.tokens] != [(t.upos, t.attrs) for t in y.tokens]:
            return [f"sentence {i + 1} tagged differently"]
    return []
