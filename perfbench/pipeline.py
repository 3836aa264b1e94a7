"""The six-stage pipeline: one checked quality pass, then timed blocks.

Quality pass: train the spelling model, infer the OOV list and write it as
embedding text, query neighbours, train the tagger, tag the test split and
score it, each once at the workload's full size, calling the same library
functions as the CLI commands. Quality metrics and output checks come from
this pass.

Timed blocks: one set-up sample, then eight rounds, each timing the
reference kernel and one slice of every stage on a fixed chunk (round r
always uses chunk r). Every block is the same work, so runs that differ in
block count still mix the same slices. Blocks repeat until the run's seconds
are spent, and at least MIN_BLOCKS times, so every rate rests on at least 40
slices.
"""

from __future__ import annotations

import dataclasses
import io
import os
import resource
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from spellvec import conllu as C
from spellvec import embeddings as E
from spellvec import evaluate as V
from spellvec import fileio as F
from spellvec import mimick as M
from spellvec import tagger as T

import checks
from spans import Tracer, per_layer_metrics
from workloads import NN_K, ROUNDS_PER_BLOCK, TIE_WORD, ZERO_WORD, Workload, build_inputs

MIN_BLOCKS = 5
TRACE_BLOCKS = 4  # untraced and traced blocks, alternating
DEV_FRACTION = 0.05
# At the CLI default of 0.01 one epoch does not beat the mean-vector
# baseline on vectors of this scale (norms near 9).
MIMICK_LR = 0.002
# The CLI default of 0.5 leaves the tagger bimodal, sometimes at the
# majority tag, after the few hundred updates a run can afford.
TAGGER_DROPOUT = 0.2
BITWISE_SAMPLE = 64
# Rates are reported at the machine speed that runs reference_kernel() in
# this time: its median on the 2-core machine that the reference figures in
# README.md come from.
REFERENCE_KERNEL_S = 0.03
clock = time.perf_counter


class _Node:
    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = data
        self.grad = np.zeros_like(data)


def reference_kernel(steps: int = 800) -> None:
    """Fixed work of the same kind as the library's tape: small matrix
    products, elementwise numpy calls, a gradient buffer and a closure per
    node, then a reverse sweep. It shares no code with spellvec, so it runs
    at the machine's current speed whatever the program does."""
    rng = np.random.default_rng(0)
    w = 0.1 * rng.standard_normal((50, 70))
    x = _Node(rng.standard_normal(70))
    records = []
    for _ in range(steps):
        z = _Node(w @ x.data)
        s = _Node(np.exp(-np.logaddexp(0.0, -z.data)))
        t = _Node(np.tanh(z.data) * s.data)
        records.append((z, lambda g, x=x: np.outer(g, x.data)))
        x = _Node(np.concatenate([t.data, x.data[:20]]))
    for node, backward in reversed(records):
        backward(node.grad + 1.0)


def normalized_rate(samples: list[tuple[int, float, float, float]]) -> float:
    """Work per second from (chunk, work, seconds, speed) slices.

    The machine's speed drifts by tens of percent over seconds and minutes,
    so each slice's time is first multiplied by `speed`: the reference
    kernel's time on the reference machine over its time in the slice's
    round. Every block runs the same chunks, so a chunk's time is the median
    of its scaled slices; the rate is one block's work over their sum.
    """
    scaled: dict[int, list[float]] = defaultdict(list)
    work: dict[int, float] = {}
    for chunk, w, seconds, speed in samples:
        scaled[chunk].append(seconds * speed)
        work[chunk] = w
    return sum(work.values()) / sum(statistics.median(t) for t in scaled.values())


def _read_table(path):
    with open(path, encoding="utf-8") as handle:
        return E.read_embeddings(handle)


def _read_corpus(path):
    with open(path, encoding="utf-8") as handle:
        return C.parse_conllu(handle)


def _mimick_words(table_size: int, epochs: int) -> int:
    """Type-level updates of one train_mimick call (its dev split excluded)."""
    return (table_size - int(round(DEV_FRACTION * table_size))) * epochs


class Run:
    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, workdir: str,
                 min_blocks: int = MIN_BLOCKS, trace_blocks: int = TRACE_BLOCKS):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.min_blocks = trace_blocks if trace else min_blocks
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks: dict[str, list[str]] = {}
        self.slices: dict[str, list[tuple[int, float, float, float]]] = defaultdict(list)
        self.kernel_times: list[float] = []
        self.setup_times: list[float] = []
        self.block_times: dict[bool, list[float]] = {False: [], True: []}
        self.tracer = Tracer() if trace else None
        self.traced_work = {"mimick_words_trained": 0, "tagger_tokens_trained": 0}
        self.diagnostics: dict = {}

    # ------------------------------------------------------------------
    # bookkeeping

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        self.checks[name] = problems
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)

    def timed(self, stage: str, chunk: int, work: float, fn, *args):
        """One slice: an operation whose duration counts towards a rate,
        paired with the reference kernel time of its round."""
        self.attempted += 1
        start = clock()
        try:
            result = fn(*args)
        except Exception as err:  # counted as a failed operation; the run goes on
            self.failed += 1
            self.problems.append(f"{stage}: {type(err).__name__}: {err}")
            return None
        self.slices[stage].append((chunk, work, clock() - start, self.speed))
        return result

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # ------------------------------------------------------------------
    # the run

    def execute(self) -> dict:
        self.inputs = build_inputs(self.w, self.seed, self.workdir)
        if self.tracer:
            self.tracer.install()
        self.quality_pass()
        if self.tracer:
            self.tracer.uninstall()
        self.prepare_chunks()
        self.timed_blocks()
        self.output_checks()
        return self.metrics()

    def quality_pass(self) -> None:
        w, inp, seed = self.w, self.inputs, self.seed
        self.attempted += 1
        table = _read_table(inp.table_path)
        train_all = _read_corpus(inp.train_path)
        dev = _read_corpus(inp.dev_path)
        test = _read_corpus(inp.test_path)
        self.table, self.train_all, self.dev, self.test = table, train_all, dev, test

        # 1. spelling model
        self.attempted += 1
        self.mimick_table = E.EmbeddingTable(
            table.dim, [(word, table.vector(word)) for word in table.words()[: w.mimick_rows]]
        )
        self.mimick_cfg = M.MimickTrainConfig(
            epochs=w.mimick_epochs, dev_fraction=DEV_FRACTION, lr=MIMICK_LR, seed=seed
        )
        model, _ = M.train_mimick(self.mimick_table, self.mimick_cfg)
        if self.tracer:
            self.traced_work["mimick_words_trained"] += _mimick_words(
                len(self.mimick_table), w.mimick_epochs)
        model.save(self.path("mimick.svm"))
        self.model = model

        # 2. inference, written as embedding text
        self.attempted += 1
        with open(inp.oov_path, encoding="utf-8") as handle:
            self.oov_words = [line.strip() for line in handle if line.strip()]
        extension = M.infer_oov(model, table, self.oov_words)
        sink = io.StringIO()
        E.write_embeddings(extension, sink)
        F.atomic_write_text(self.path("oov-vectors.txt"), sink.getvalue())

        # 3. neighbour queries: in-vocabulary rows (the first one has an exact
        # duplicate) alternating with inferred vectors
        words = table.words()
        count = ROUNDS_PER_BLOCK * w.nn_chunk
        stride = max(1, len(words) // count)
        queries = []
        for i in range(count):
            if i % 2 == 0:
                queries.append(table.vector(words[(i // 2) * stride]))
            else:
                queries.append(extension.vector(self.oov_words[i // 2]))
        self.queries = queries
        self.attempted += 1
        self.nn_results = [M.nearest_neighbors(table, q, NN_K) for q in queries]
        self.attempted += 1
        self.full_ranking = M.nearest_neighbors(table, queries[1], len(table))

        # 4. tagger
        self.attempted += 1
        train = C.subsample(train_all, w.token_limit, seed) if w.token_limit else train_all
        self.train = train
        self.train_forms = {t.form for s in train for t in s.tokens}
        self.rep = T.WordRepSpec(w.variant, table, model if w.variant in ("mimick", "both") else None)
        self.tagger_cfg = T.TaggerTrainConfig(
            epochs=w.tagger_epochs, hidden=w.hidden, char_hidden=w.char_hidden,
            dropout=TAGGER_DROPOUT, seed=seed,
        )
        tagger, _ = T.train_tagger(C.CorpusSplit(train, dev, []), self.rep, self.tagger_cfg)
        if self.tracer:
            n = C.token_count(train)
            self.traced_work["tagger_tokens_trained"] += n * T.effective_epochs(w.tagger_epochs, n)
        rows_after_training = len(tagger.rows)
        tagger.save(self.path("tagger.svm"))
        self.tagger = tagger

        # 5. tagging
        self.attempted += 1
        self.predicted = T.tag_corpus(tagger, test)
        F.atomic_write_text(self.path("predicted.conllu"), C.serialize_conllu(self.predicted))
        self.diagnostics["rows"] = {
            "training_forms": len(self.train_forms),
            "after_training": rows_after_training,
            "after_tagging": len(tagger.rows),
        }

        # 6. scoring, as `spellvec eval --train` does it
        self.attempted += 1
        gold = _read_corpus(inp.test_path)
        predicted = _read_corpus(self.path("predicted.conllu"))
        self.report = V.render_report(V.TaggedCorpusPair(gold, predicted, self.train_forms))

    def prepare_chunks(self) -> None:
        """Round r of every block runs chunk r of each stage. The Mimick and
        infer chunks split whole 31-word length-profile blocks, so one
        block's characters are the same for every seed."""
        w, n = self.w, ROUNDS_PER_BLOCK
        rows = list(self.mimick_table.items())
        self.mimick_chunks = [
            E.EmbeddingTable(self.table.dim, [rows[i] for i in part])
            for part in np.array_split(np.arange(w.mimick_slice_words), n)
        ]
        self.infer_chunks = [
            [self.oov_words[i] for i in part]
            for part in np.array_split(np.arange(w.infer_slice_words), n)
        ]
        self.nn_chunks = [self.queries[i * w.nn_chunk : (i + 1) * w.nn_chunk] for i in range(n)]
        self.train_chunks = [([self.train_all[i]], [self.dev[i % len(self.dev)]]) for i in range(n)]
        per = 2 * w.tag_chunk
        self.tag_chunks = [self.test[i * per : (i + 1) * per] for i in range(n)]
        self.block_predictions: list[list] = []

    def setup_sample(self):
        """Load every input the way the commands do: table text, CoNLL-U
        splits and both archives."""
        inp = self.inputs
        _read_table(inp.table_path)
        for path in (inp.train_path, inp.dev_path, inp.test_path):
            _read_corpus(path)
        M.MimickModel.load(self.path("mimick.svm"))
        return T.TaggerModel.load(self.path("tagger.svm"))

    def timed_blocks(self) -> None:
        start = clock()
        blocks = 0
        while blocks < self.min_blocks or (
            not self.trace and clock() - start < self.seconds
        ):
            traced = self.trace and blocks % 2 == 1
            if traced:
                self.tracer.install()
            block_start = clock()
            self.block(traced)
            self.block_times[traced].append(clock() - block_start)
            if traced:
                self.tracer.uninstall()
            blocks += 1

    def block(self, traced: bool) -> None:
        predictions = []
        self.attempted += 1
        self.time_reference_kernel()
        start = clock()
        fresh = self.setup_sample()
        if not traced:
            self.setup_times.append((clock() - start) * self.speed)
        # slices train one epoch (two below LOW_RESOURCE_TOKENS)
        mimick_cfg = dataclasses.replace(self.mimick_cfg, epochs=1)
        tagger_cfg = dataclasses.replace(self.tagger_cfg, epochs=1)
        for r in range(ROUNDS_PER_BLOCK):
            self.time_reference_kernel()
            chunk = self.mimick_chunks[r]
            words = _mimick_words(len(chunk), 1)
            self.timed("mimick_train", r, words, M.train_mimick, chunk, mimick_cfg)

            self.timed("infer", r, len(self.infer_chunks[r]), self.infer_slice, self.infer_chunks[r])

            queries = self.nn_chunks[r]
            self.timed("nn", r, len(queries), self.nn_slice, queries)

            train, dev = self.train_chunks[r]
            n = C.token_count(train)
            tokens = n * T.effective_epochs(tagger_cfg.epochs, n)
            self.timed("tagger_train", r, tokens, T.train_tagger,
                       C.CorpusSplit(train, dev, []), self.rep, tagger_cfg)

            sentences = self.tag_chunks[r]
            predictions.append(
                self.timed("tag", r, C.token_count(sentences), self.tag_slice, fresh, sentences)
            )
            if traced:
                self.traced_work["mimick_words_trained"] += words
                self.traced_work["tagger_tokens_trained"] += tokens
        self.block_predictions.append(predictions)

    def time_reference_kernel(self) -> None:
        start = clock()
        reference_kernel()
        self.kernel_times.append(clock() - start)
        self.speed = REFERENCE_KERNEL_S / self.kernel_times[-1]

    def infer_slice(self, words):
        E.write_embeddings(M.infer_oov(self.model, self.table, words), io.StringIO())

    def nn_slice(self, queries):
        for q in queries:
            M.nearest_neighbors(self.table, q, NN_K)

    @staticmethod
    def tag_slice(model, sentences):
        predicted = T.tag_corpus(model, sentences)
        C.serialize_conllu(predicted)
        return predicted

    # ------------------------------------------------------------------
    # checks and metrics

    def output_checks(self) -> None:
        inp = self.inputs
        # inferred vectors, as written
        with open(self.path("oov-vectors.txt"), encoding="utf-8") as handle:
            written_words, written = checks.parse_embedding_text(handle.read())
        self.check("infer_rows_in_order", checks.written_rows(written_words, self.oov_words))
        step = max(1, len(written_words) // BITWISE_SAMPLE)
        mismatched = [
            word for i, word in enumerate(written_words[::step])
            if not np.array_equal(written[i * step], self.model.forward(word))
        ]
        self.check("infer_equals_forward", [f"{len(mismatched)} rows differ from forward, e.g. {mismatched[:3]}"] if mismatched else [])
        truth = np.stack([inp.lexicon.true_vector(word, inp.word_class[word]) for word in written_words])
        table_mean = np.mean([self.table.vector(word) for word in inp.table_words], axis=0)
        self.infer_sq_error = float(np.mean(np.sum((written - truth) ** 2, axis=1)))
        self.mean_baseline = float(np.mean(np.sum((table_mean - truth) ** 2, axis=1)))
        self.check("infer_beats_mean_vector", [] if self.infer_sq_error < self.mean_baseline else [
            f"infer_sq_error {self.infer_sq_error:.4g} >= mean-vector error {self.mean_baseline:.4g}"])

        # neighbours
        words = self.table.words()
        matrix = np.stack([self.table.vector(word) for word in words])
        problems = []
        for q, got in zip(self.queries, self.nn_results):
            problems += checks.neighbors_agree(got, checks.brute_force_neighbors(words, matrix, q, NN_K))
        problems += checks.neighbors_agree(
            self.full_ranking, checks.brute_force_neighbors(words, matrix, self.queries[1], len(words)))
        # informational: exact ties are not reliably kept (see checks.neighbors_agree)
        self.diagnostics["nn_duplicate_row_tie_in_table_order"] = (
            [word for word, _ in self.nn_results[0][:2]] == [words[0], TIE_WORD])
        if self.full_ranking[-1][0] != ZERO_WORD:
            problems.append("the zero-norm row does not rank last")
        self.check("neighbors_equal_brute_force", problems)

        # tagging and scoring
        problems = checks.same_sentences_and_forms(self.test, self.predicted)
        self.check("tagging_keeps_sentences_and_forms", problems)
        counted = checks.recount(self.test, self.predicted, self.train_forms)
        self.quality = checks.report_values(self.report)
        self.check("eval_equals_recount", checks.report_matches(self.quality, counted))
        baseline = checks.majority_baseline(self.train, self.test)
        self.check("pos_beats_majority_tag", [] if counted["pos_accuracy"] > baseline else [
            f"POS accuracy {counted['pos_accuracy']:.4f} <= majority baseline {baseline:.4f}"])
        problems = []
        for b, predictions in enumerate(self.block_predictions):
            if any(p is None for p in predictions):
                problems.append(f"block {b}: a tagging slice failed")
                continue
            problems += [f"block {b}: {p}" for p in checks.same_tags(
                [s for chunk in predictions for s in chunk], self.predicted)]
        self.check("reloaded_tagger_tags_identically", problems)

        forms = Counter(t.form for s in self.test for t in s.tokens)
        tokens = sum(forms.values())
        self.diagnostics["inputs"] = {
            "table_rows": len(self.table),
            "oov_words": len(self.oov_words),
            "train_tokens": C.token_count(self.train),
            "train_forms": len(self.train_forms),
            "test_tokens": tokens,
            "test_repeated_form_share": sum(c for c in forms.values() if c > 1) / tokens,
            "test_oov_rate_vs_train": counted["oov_rate"],
            "test_oov_rate_vs_table": sum(c for f, c in forms.items() if f not in self.table) / tokens,
            "majority_tag_baseline": baseline,
            "mean_vector_sq_error": self.mean_baseline,
        }

    def metrics(self) -> dict:
        rows = self.diagnostics["rows"]
        if self.trace:
            untraced, traced = sum(self.block_times[False]), sum(self.block_times[True])
            self.traced_work["trace_overhead_fraction"] = traced / untraced - 1.0
            self.traced_work["rows_added_by_tagging"] = rows["after_tagging"] - rows["training_forms"]
            return per_layer_metrics(self.tracer, self.traced_work)
        rate = {stage: normalized_rate(samples) for stage, samples in self.slices.items()}
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
            "mimick_train_words_per_s": (rate["mimick_train"], "words/s"),
            "infer_words_per_s": (rate["infer"], "words/s"),
            "infer_sq_error": (self.infer_sq_error, "sq_distance"),
            "nn_queries_per_s": (rate["nn"], "queries/s"),
            "tagger_train_tokens_per_s": (rate["tagger_train"], "tokens/s"),
            "tag_tokens_per_s": (rate["tag"], "tokens/s"),
            "tag_pos_accuracy": (self.quality["pos_accuracy"], "fraction"),
            "tag_oov_pos_accuracy": (self.quality["pos_accuracy_oov"], "fraction"),
            "tag_micro_f1": (self.quality["micro_f1"], "fraction"),
            "tagger_archive_mb": (os.path.getsize(self.path("tagger.svm")) / 1e6, "MB"),
        }

    def slice_summary(self) -> dict:
        out = {}
        for stage, samples in sorted(self.slices.items()):
            rates = [w / s for _, w, s, _ in samples]
            q1, q2, q3 = statistics.quantiles(rates, n=4)
            out[stage] = {"slices": len(rates), "raw_rate_q1": q1, "raw_rate_median": q2,
                          "raw_rate_q3": q3, "normalized_rate": normalized_rate(samples),
                          "seconds": sum(s for _, _, s, _ in samples)}
        q1, q2, q3 = statistics.quantiles(self.kernel_times, n=4)
        out["reference_kernel_s"] = {"q1": q1, "median": q2, "q3": q3}
        out["setup"] = {"samples": self.setup_times}
        out["blocks"] = {"untraced_s": self.block_times[False], "traced_s": self.block_times[True]}
        return out
