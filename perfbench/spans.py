"""Per-layer spans, installed at run time around public spellvec functions.

Only the traced run installs the wrappers; untraced runs call the library
unchanged. A span records its self time: its duration minus the time its
child spans cover. Self times are aggregated per call path (the names of
the open spans, outermost first), which is what lets a metric say "lstm_step
under states_on_tape" or "forward outside train_mimick".

A target that a later version of the library no longer has is skipped; the
metrics that depend on it then read 0.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import defaultdict

import numpy as np

# (module, attribute path, span name)
TARGETS = [
    ("spellvec.nn", "Tape.backward", "backward"),
    ("spellvec.nn", "lstm_step", "lstm_step"),
    ("spellvec.nn", "MomentumSgd.zero_grad", "optimizer"),
    ("spellvec.nn", "MomentumSgd.step", "optimizer"),
    ("spellvec.mimick", "train_mimick", "train_mimick"),
    ("spellvec.mimick", "mimick_loss", "mimick_loss"),
    ("spellvec.mimick", "MimickModel.forward", "mimick_forward"),
    ("spellvec.mimick", "MimickModel.forward_on_tape", "mimick_forward_on_tape"),
    ("spellvec.mimick", "nearest_neighbors", "nearest_neighbors"),
    ("spellvec.mimick", "MimickModel.save", "archive_save"),
    ("spellvec.mimick", "MimickModel.load", "archive_load"),
    ("spellvec.tagger", "train_tagger", "train_tagger"),
    ("spellvec.tagger", "tag_corpus", "tag_corpus"),
    ("spellvec.tagger", "TaggerModel.states_on_tape", "states_on_tape"),
    ("spellvec.tagger", "CharToTag.forward_on_tape", "char_encoder"),
    ("spellvec.tagger", "Head.logits", "head_logits"),
    ("spellvec.tagger", "TaggerModel.save", "archive_save"),
    ("spellvec.tagger", "TaggerModel.load", "archive_load"),
    ("spellvec.embeddings", "lookup", "lookup"),
    ("spellvec.embeddings", "read_embeddings", "read_embeddings"),
    ("spellvec.embeddings", "write_embeddings", "write_embeddings"),
    ("spellvec.archive", "save_archive", "archive_save"),
    ("spellvec.archive", "load_archive", "archive_load"),
    ("spellvec.conllu", "parse_conllu", "parse_conllu"),
    ("spellvec.conllu", "serialize_conllu", "serialize_conllu"),
]
SPELLVEC_MODULES = [
    "spellvec", "spellvec.nn", "spellvec.mimick", "spellvec.tagger", "spellvec.embeddings",
    "spellvec.archive", "spellvec.conllu", "spellvec.evaluate", "spellvec.cli",
]


class Tracer:
    """Collects spans while installed; `self_time[path]` and `calls[path]`
    are keyed by the tuple of open span names, outermost first."""

    def __init__(self):
        self.self_time: dict[tuple, float] = defaultdict(float)
        self.calls: dict[tuple, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [path, child_time]
        self._patches: list[tuple[object, str, object]] = []
        self._optimizer_params: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # spans

    def _span(self, name: str, fn, before=None, after=None):
        stack = self._stack
        self_time, calls = self.self_time, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            path = (stack[-1][0] if stack else ()) + (name,)
            if before is not None:
                before(path, args)
            entry = [path, 0.0]
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_time[path] += elapsed - entry[1]
                calls[path] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(path, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # hooks that count work where it happens

    def _backward_before(self, path, args):
        self.counters[("tape_records", "train_mimick" in path, "train_tagger" in path)] += len(args[0])

    def _step_before(self, path, args):
        if "train_tagger" not in path:
            return
        params = self._optimizer_params.get(args[0])
        if params is None:
            return
        self.counters["tagger_steps"] += 1
        self.counters["tagger_step_tensors"] += len(params)
        self.counters["tagger_step_touched"] += sum(1 for p in params if np.any(p.grad))

    def _read_after(self, path, args, table):
        self.counters["read_values"] += len(table) * table.dim + (
            table.dim if table.unk is not None else 0
        )

    def install(self) -> None:
        hooks = {
            "Tape.backward": (self._backward_before, None),
            "MomentumSgd.step": (self._step_before, None),
            "read_embeddings": (None, self._read_after),
        }
        for module_name, attr_path, name in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            before, after = hooks.get(attr_path, (None, None))
            wrapped = self._span(name, original, before, after)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            # module-level functions: rebind every module-level reference
            for other_name in SPELLVEC_MODULES:
                other = importlib.import_module(other_name)
                if getattr(other, attr, None) is original:
                    self._patch(other, attr, wrapped)
        self._hook_optimizer_init()

    def _hook_optimizer_init(self) -> None:
        nn = importlib.import_module("spellvec.nn")
        cls = getattr(nn, "MomentumSgd", None)
        if cls is None:
            return
        original = cls.__init__
        registry = self._optimizer_params

        def __init__(opt, params, *args, **kwargs):
            original(opt, params, *args, **kwargs)
            registry[opt] = list(dict(params).values())

        self._patch(cls, "__init__", __init__)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # queries

    def total(self, names: set[str], where=lambda path: True) -> float:
        return sum(t for path, t in self.self_time.items() if path[-1] in names and where(path))

    def count(self, names: set[str], where=lambda path: True) -> int:
        return sum(c for path, c in self.calls.items() if path[-1] in names and where(path))


def per_layer_metrics(tracer: Tracer, work: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run; `work` holds the benchmark's
    own counts of what the traced stages processed."""
    t, c, k = tracer.total, tracer.count, tracer.counters

    def inside(name):
        return lambda path: name in path[:-1]

    def ratio(a, b):
        return a / b if b else 0.0

    mimick_layer = {"mimick_forward", "mimick_forward_on_tape"}
    nn_calls = c({"nearest_neighbors"})
    read_s = t({"read_embeddings"})
    steps = k["tagger_steps"]
    return {
        "nn.backward_s": (t({"backward"}), "s"),
        "nn.lstm_step_s": (t({"lstm_step"}), "s"),
        "nn.lstm_steps": (c({"lstm_step"}), "count"),
        "nn.tape_records_per_word": (
            ratio(k[("tape_records", True, False)], work["mimick_words_trained"]), "count"),
        "nn.tape_records_per_token": (
            ratio(k[("tape_records", False, True)], work["tagger_tokens_trained"]), "count"),
        "nn.optimizer_s": (t({"optimizer"}, inside("train_tagger")), "s"),
        "nn.optimizer_tensors_per_step": (ratio(k["tagger_step_tensors"], steps), "count"),
        "nn.optimizer_touched_fraction": (
            ratio(k["tagger_step_touched"], k["tagger_step_tensors"]), "fraction"),
        "mimick.train_forward_s": (
            t({"mimick_forward_on_tape"}, lambda p: p[-2:-1] == ("train_mimick",)), "s"),
        "mimick.dev_loss_s": (
            t({"mimick_loss"} | mimick_layer,
              lambda p: "train_mimick" in p and "mimick_loss" in p), "s"),
        "mimick.infer_s": (
            t(mimick_layer, lambda p: "train_mimick" not in p and "mimick_forward" in p), "s"),
        "mimick.nn_query_ms": (1000.0 * ratio(t({"nearest_neighbors"}), nn_calls), "ms"),
        "tagger.char_encoder_s": (t({"char_encoder"}), "s"),
        "tagger.sentence_lstm_s": (
            t({"lstm_step"}, lambda p: p[-2:-1] == ("states_on_tape",)), "s"),
        "tagger.heads_s": (t({"head_logits"}), "s"),
        "tagger.dev_eval_s": (t({"tag_corpus"}, inside("train_tagger")), "s"),
        "tagger.lookup_s": (t({"lookup"}), "s"),
        "tagger.word_row_misses": (c({"lookup"}), "count"),
        "tagger.rows_added_by_tagging": (work["rows_added_by_tagging"], "count"),
        "embeddings.read_s": (read_s, "s"),
        "embeddings.read_values_per_s": (ratio(k["read_values"], read_s), "values/s"),
        "embeddings.write_s": (t({"write_embeddings"}), "s"),
        "archive.save_s": (t({"archive_save"}), "s"),
        "archive.load_s": (t({"archive_load"}), "s"),
        "conllu.parse_s": (t({"parse_conllu"}), "s"),
        "conllu.serialize_s": (t({"serialize_conllu"}), "s"),
        "trace.overhead_fraction": (work["trace_overhead_fraction"], "fraction"),
    }
