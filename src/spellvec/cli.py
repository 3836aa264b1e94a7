"""Command-line surface: train models, infer vectors, tag and evaluate.

The two training commands take their settings from the defaults of their
config dataclass, overridden by an optional JSON --config file, overridden by
explicit flags. The fully resolved configuration is logged to stderr and stored
in output manifests, and all randomness flows from the single --seed value. Output files are
written atomically; a failing command leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import astuple, fields

from .conllu import CorpusSplit, parse_conllu, serialize_conllu, subsample
from .embeddings import (
    EmbeddingTable,
    check_word,
    parse_header,
    read_embeddings,
    write_embeddings,
)
from .evaluate import TaggedCorpusPair, mcnemar, pos_correctness, render_report
from .fileio import InputError, atomic_write_text
from .mimick import MimickModel, MimickTrainConfig, infer_oov, nearest_neighbors, train_mimick
from .tagger import (
    LOSS_MODES,
    MIMICK_VARIANTS,
    TaggerModel,
    TaggerTrainConfig,
    VARIANTS,
    WordRepSpec,
    tag_corpus,
    train_tagger,
)

# config-file key (and flag name) -> config field; unk_char_rate stays library-only
MIMICK_FIELDS = {f.name: f.name for f in fields(MimickTrainConfig) if f.name != "unk_char_rate"}
TAGGER_FIELDS = {
    "loss" if f.name == "loss_mode" else f.name: f.name for f in fields(TaggerTrainConfig)
}
MIMICK_DEFAULTS = {k: getattr(MimickTrainConfig, f) for k, f in MIMICK_FIELDS.items()}
TAGGER_DEFAULTS = {
    **{k: getattr(TaggerTrainConfig, f) for k, f in TAGGER_FIELDS.items()},
    "variant": "no-char",
    "token_limit": None,
}


class CliError(ValueError):
    pass


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    resolved = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            try:
                overrides = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise CliError(f"config {args.config}: {err}") from None
        if not isinstance(overrides, dict):
            raise CliError(f"config {args.config}: expected a JSON object")
        unknown = sorted(set(overrides) - set(defaults))
        if unknown:
            raise CliError(f"config {args.config}: unknown keys {unknown}")
        for key, value in overrides.items():
            _check_type(args.config, key, value, defaults[key])
        resolved.update(overrides)
    for key in defaults:  # explicit flags win over the config file
        value = getattr(args, key, None)
        if value is not None and value is not False:
            resolved[key] = value
    print(
        "config: " + " ".join(f"{k}={resolved[k]}" for k in sorted(resolved)),
        file=sys.stderr,
    )
    return resolved


def _setting_type(default) -> type:
    """A setting's type: its default's, or int for token_limit, whose default is None."""
    return int if default is None else type(default)


def _check_type(path: str, key: str, value, default) -> None:
    """A config-file value must have its setting's type, or be null where the
    default is; ints pass as floats, bools never as numbers."""
    if value is None and default is None:
        return
    expected = _setting_type(default)
    accepted = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
        got = "null" if value is None else type(value).__name__
        raise CliError(f"config {path}: key {key!r} must be {expected.__name__}, got {got}")


@contextmanager
def _naming(path: str):
    """An InputError (a parse error names its line) or a decoding error in the
    block becomes a CliError that names the file at path."""
    try:
        yield
    except InputError as err:
        raise CliError(f"{path}: {err}") from None
    except UnicodeDecodeError as err:
        raise CliError(f"{path}: {_undecodable_line(path, err)}") from None


@contextmanager
def _reading(path: str):
    """The UTF-8 text file at path, open for a block that _naming(path) wraps."""
    with _naming(path), open(path, encoding="utf-8") as handle:
        yield handle


def _undecodable_line(path: str, err: UnicodeDecodeError) -> str:
    """The first line of path that is not UTF-8, with its decoding error.

    The text reader decodes in chunks, so err's position is an offset into
    a chunk, not into the file; a newline byte never occurs inside a UTF-8
    sequence, so the file can be decoded line by line instead."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as line_err:
                return f"line {number}: {line_err}"
    return str(err)


def _read_table(path: str):
    with _reading(path) as handle:
        return read_embeddings(handle)


def _read_corpus(path: str):
    with _reading(path) as handle:
        return parse_conllu(handle)


def _read_words(path: str) -> list[str]:
    """The non-blank lines of a word list, stripped; each must be a word the
    embedding text format can write as an entry row (see check_word)."""
    words = []
    with _reading(path) as handle:
        for number, line in enumerate(handle, 1):
            word = line.strip()
            if not word:
                continue
            check_word(word, number)
            words.append(word)
    return words


def _finish_run(args, resolved: dict, model, trace) -> None:
    """Warn if training diverged, then save the model with its resolved config
    and the trace TSV (the epoch record's field names, then one row per epoch).
    The warning names the first epoch whose mean train loss exceeds 1e100 times
    epoch 1's, or 1e100 if epoch 1's is above 1 (a run can diverge within epoch
    1 and stay finite); the factor is a heuristic, and the run is saved as is."""
    reference = 1e100 * min(1.0, trace[0].train_loss)
    for e in trace:
        if e.train_loss > reference:
            print(
                f"warning: epoch {e.epoch}: mean train loss {e.train_loss:.3g} exceeds "
                f"{reference:.3g}; training has likely diverged",
                file=sys.stderr,
            )
            break
    model.save(args.out, extra_meta={"config": resolved})
    rows = ["\t".join(f.name for f in fields(trace[0]))]
    rows += ["\t".join(f"{value:.17g}" for value in astuple(e)) for e in trace]
    atomic_write_text(args.trace or args.out + ".trace.tsv", "\n".join(rows) + "\n")


# ----------------------------------------------------------------------
# subcommands


def cmd_train_mimick(args) -> int:
    resolved = _resolve_config(args, MIMICK_DEFAULTS)
    table = _read_table(args.embeddings)
    cfg = MimickTrainConfig(**{f: resolved[k] for k, f in MIMICK_FIELDS.items()})
    with _naming(args.embeddings):
        model, trace = train_mimick(table, cfg)
    _finish_run(args, resolved, model, trace)
    return 0


def cmd_infer(args) -> int:
    model = MimickModel.load(args.model)
    # only the table's dimension is needed: read the header, not the rows
    with _reading(args.embeddings) as handle:
        header = handle.readline()
        _, dim = parse_header(header.rstrip("\n") if header else None)
    extension = infer_oov(model, EmbeddingTable(dim), _read_words(args.words))
    sink = io.StringIO()
    write_embeddings(extension, sink)
    atomic_write_text(args.out, sink.getvalue())
    return 0


def cmd_nn(args) -> int:
    table = _read_table(args.embeddings)
    if args.word in table:
        query = table.vector(args.word)
    elif args.model:
        model = MimickModel.load(args.model)
        model.check_dim(table.dim)
        query = model.forward(args.word)
    else:
        raise CliError(f"{args.word!r} is out of vocabulary; pass --model to infer it")
    for word, similarity in nearest_neighbors(table, query, args.k):
        print(f"{word}\t{similarity:.6f}")
    return 0


def cmd_train_tagger(args) -> int:
    resolved = _resolve_config(args, TAGGER_DEFAULTS)
    table = _read_table(args.embeddings)
    train = _read_corpus(args.train)
    dev = _read_corpus(args.dev) if args.dev else []
    if args.dev and not dev:
        raise CliError(f"{args.dev}: no sentences to score")
    if resolved["token_limit"] is not None:
        train = subsample(train, int(resolved["token_limit"]), resolved["seed"])
    mimick = None
    if resolved["variant"] in MIMICK_VARIANTS:
        if not args.mimick:
            raise CliError(f"variant {resolved['variant']!r} requires --mimick MODEL")
        mimick = MimickModel.load(args.mimick)
    with _naming(args.embeddings):
        rep = WordRepSpec(resolved["variant"], table, mimick)
    cfg = TaggerTrainConfig(**{f: resolved[k] for k, f in TAGGER_FIELDS.items()})
    with _naming(args.train):
        model, trace = train_tagger(CorpusSplit(train, dev, []), rep, cfg)
    _finish_run(args, resolved, model, trace)
    return 0


def cmd_tag(args) -> int:
    model = TaggerModel.load(args.model)
    corpus = _read_corpus(args.input)
    atomic_write_text(args.out, serialize_conllu(tag_corpus(model, corpus)))
    return 0


def cmd_eval(args) -> int:
    gold = _read_corpus(args.gold)
    predicted = _read_corpus(args.pred)
    vocabulary = None
    if args.train:
        vocabulary = {t.form for s in _read_corpus(args.train) for t in s.tokens}
    # a misaligned file is the prediction's, unless the gold holds no
    # sentences; a corpus of no tokens is the gold's
    with _naming(args.pred if gold else args.gold):
        pair = TaggedCorpusPair(gold, predicted, vocabulary)
    comparison = None
    if args.compare:
        with _naming(args.compare if gold else args.gold):
            other = TaggedCorpusPair(gold, _read_corpus(args.compare), vocabulary)
        comparison = mcnemar(pos_correctness(pair), pos_correctness(other))
    with _naming(args.gold):
        report = render_report(pair, comparison)
    if args.out:
        atomic_write_text(args.out, report)
    else:
        sys.stdout.write(report)
    return 0


# ----------------------------------------------------------------------
# parser


def _add_setting_flags(p: argparse.ArgumentParser, defaults: dict, trace_help: str) -> None:
    """--config, --trace and one flag per setting: the key with "-" for "_",
    typed as its default (a bool is a store_true switch)."""
    p.add_argument("--config", help="JSON file of setting overrides")
    p.add_argument("--trace", help=trace_help)
    choices = {"loss": LOSS_MODES, "variant": VARIANTS}
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=_setting_type(default), choices=choices.get(key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spellvec",
        description="Spelling-based embedding inference and morphosyntactic tagging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-mimick", help="train a spelling-to-vector model")
    p.add_argument("embeddings", help="embedding table in text format")
    p.add_argument("out", help="output model archive")
    _add_setting_flags(p, MIMICK_DEFAULTS, "per-epoch loss file (default: OUT.trace.tsv)")
    p.set_defaults(run=cmd_train_mimick)

    p = sub.add_parser("infer", help="infer vectors for a word list")
    p.add_argument("model", help="mimick model archive")
    p.add_argument("embeddings", help="embedding table the model was trained on")
    p.add_argument("words", help="file with one word per line")
    p.add_argument("out", help="output embedding text file")
    p.set_defaults(run=cmd_infer)

    p = sub.add_parser("nn", help="nearest in-vocabulary words by cosine")
    p.add_argument("embeddings")
    p.add_argument("word")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--model", help="mimick archive used when WORD is out of vocabulary")
    p.set_defaults(run=cmd_nn)

    p = sub.add_parser("train-tagger", help="train the joint POS/attribute tagger")
    p.add_argument("--train", required=True, help="training corpus (CoNLL-U)")
    p.add_argument("--dev", help="development corpus for per-epoch metrics")
    p.add_argument("--embeddings", required=True, help="embedding table in text format")
    p.add_argument("--out", required=True, help="output model archive")
    p.add_argument("--mimick", help="mimick archive for the mimick/both variants")
    _add_setting_flags(p, TAGGER_DEFAULTS, "per-epoch metric file (default: OUT.trace.tsv)")
    p.set_defaults(run=cmd_train_tagger)

    p = sub.add_parser("tag", help="tag a corpus with a trained model")
    p.add_argument("model")
    p.add_argument("input", help="CoNLL-U file to tag")
    p.add_argument("out", help="tagged CoNLL-U output")
    p.set_defaults(run=cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold annotation")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--train", help="training corpus for OOV-restricted accuracy")
    p.add_argument("--compare", help="second prediction file for a McNemar test")
    p.add_argument("--out", help="report file (default: stdout)")
    p.set_defaults(run=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    invocation = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "run" and value is not None
    }
    print(
        "invocation: " + " ".join(f"{k}={v}" for k, v in invocation.items()),
        file=sys.stderr,
    )
    try:
        return args.run(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
