import argparse
import io
import json
import os
import re
import struct
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spellvec
from synthetic import make_stems, suffix_sentences, suffix_table
from spellvec.archive import MAGIC, load_archive
from spellvec.cli import MIMICK_DEFAULTS, TAGGER_DEFAULTS, build_parser, main
from spellvec.conllu import Sentence, Token, parse_conllu, serialize_conllu
from spellvec.embeddings import (
    EmbeddingParseError,
    EmbeddingTable,
    read_embeddings,
    write_embeddings,
)
from spellvec.mimick import (
    CharVocabulary,
    EpochLoss,
    MimickModel,
    MimickTrainConfig,
    nearest_neighbors,
    train_mimick,
)
from spellvec.tagger import LOSS_MODES, VARIANTS, TaggerModel


def write_table(path, table):
    sink = io.StringIO()
    write_embeddings(table, sink)
    path.write_text(sink.getvalue(), encoding="utf-8")


def small_table(seed=0, n=12, dim=4, unk=True):
    rng = np.random.default_rng(seed)
    alphabet = list("abcdef")
    words = []
    while len(words) < n:
        w = "".join(rng.choice(alphabet, size=rng.integers(2, 5)))
        if w not in words:
            words.append(w)
    return EmbeddingTable(
        dim,
        [(w, rng.normal(size=dim)) for w in words],
        unk=np.zeros(dim) if unk else None,
    )


@pytest.fixture
def emb_path(tmp_path):
    path = tmp_path / "emb.txt"
    write_table(path, small_table())
    return path


MIMICK_FLAGS = ["--epochs", "2", "--char-dim", "3", "--hidden", "4", "--seed", "5"]


class TestTrainMimick:
    def test_writes_archive_and_trace(self, tmp_path, emb_path):
        out = tmp_path / "model.svm"
        assert main(["train-mimick", str(emb_path), str(out), *MIMICK_FLAGS]) == 0
        model = MimickModel.load(str(out))
        assert model.dim == 4
        trace_lines = (tmp_path / "model.svm.trace.tsv").read_text().splitlines()
        assert trace_lines[0] == "epoch\ttrain_loss\tdev_loss"
        assert len(trace_lines) == 3

    def test_matches_library_training(self, tmp_path, emb_path):
        out = tmp_path / "model.svm"
        main(["train-mimick", str(emb_path), str(out), *MIMICK_FLAGS])
        loaded = MimickModel.load(str(out))
        expected, _ = train_mimick(
            small_table(), MimickTrainConfig(char_dim=3, hidden=4, epochs=2, seed=5)
        )
        for name, param in expected.parameters().items():
            assert np.array_equal(loaded.parameters()[name].data, param.data), name

    def test_missing_input_fails_without_partial_output(self, tmp_path):
        out = tmp_path / "model.svm"
        code = main(["train-mimick", str(tmp_path / "absent.txt"), str(out)])
        assert code == 1
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp*"))

    def test_fixed_seed_byte_identical_archives(self, tmp_path, emb_path):
        a, b = tmp_path / "a.svm", tmp_path / "b.svm"
        main(["train-mimick", str(emb_path), str(a), *MIMICK_FLAGS])
        main(["train-mimick", str(emb_path), str(b), *MIMICK_FLAGS])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.svm.trace.tsv").read_bytes() == (
            tmp_path / "b.svm.trace.tsv"
        ).read_bytes()

    def test_config_file_applies_and_flags_win(self, tmp_path, emb_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 1, "hidden": 3}), encoding="utf-8")
        out = tmp_path / "m.svm"
        assert main(["train-mimick", str(emb_path), str(out), "--config", str(config),
                     "--hidden", "5"]) == 0
        err = capsys.readouterr().err
        assert "epochs=1" in err
        assert "hidden=5" in err
        assert MimickModel.load(str(out)).hidden == 5

    def test_unknown_config_key_rejected(self, tmp_path, emb_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"leaning_rate": 0.1}), encoding="utf-8")
        assert main(["train-mimick", str(emb_path), str(tmp_path / "m.svm"),
                     "--config", str(config)]) == 1


@pytest.fixture
def mimick_model_path(tmp_path, emb_path):
    out = tmp_path / "mimick.svm"
    main(["train-mimick", str(emb_path), str(out), *MIMICK_FLAGS])
    return out


def overflowing_model(tmp_path, dim=4):
    """The archive of a Mimick model whose finite weights overflow: an archive
    cannot hold NaN (see TestNonFiniteArchives), but every word's vector has
    inf first."""
    model = MimickModel(CharVocabulary("abcdef"), dim=dim, char_dim=2, hidden=2,
                        rng=np.random.default_rng(0))
    model.t_h.data[...] = 0.0
    model.b_h.data[...] = 10.0
    model.o_t.data[0] = 1e308
    path = tmp_path / "overflow.svm"
    model.save(str(path))
    return path


class TestInfer:
    def test_a_model_inferring_inf_fails_with_one_line(self, tmp_path, emb_path, capsys):
        path = overflowing_model(tmp_path)
        words = tmp_path / "words.txt"
        words.write_text("abc\nzzzzz\n", encoding="utf-8")
        out = tmp_path / "oov.txt"
        assert main(["infer", str(path), str(emb_path), str(words), str(out)]) == 1
        captured = capsys.readouterr()
        # the invocation line, then the error, and no numpy warning
        assert captured.err.splitlines()[1:] == [
            f"error: {path}: inferred vector for 'abc' is not finite"
        ]
        assert not out.exists()

    def test_output_matches_library_and_is_deterministic(self, tmp_path, emb_path, mimick_model_path):
        words = tmp_path / "words.txt"
        words.write_text("zzz\nabq\n\n", encoding="utf-8")
        out = tmp_path / "oov.txt"
        assert main(["infer", str(mimick_model_path), str(emb_path), str(words), str(out)]) == 0
        table = read_embeddings(out.read_text(encoding="utf-8"))
        model = MimickModel.load(str(mimick_model_path))
        assert table.words() == ["zzz", "abq"]
        assert np.array_equal(table.vector("zzz"), model.forward("zzz"))
        first = out.read_bytes()
        main(["infer", str(mimick_model_path), str(emb_path), str(words), str(out)])
        assert out.read_bytes() == first

    def test_dimension_mismatch_fails(self, tmp_path, mimick_model_path):
        other = tmp_path / "other.txt"
        write_table(other, EmbeddingTable(3, [("x", np.zeros(3))]))
        words = tmp_path / "w.txt"
        words.write_text("zzz\n", encoding="utf-8")
        assert main(["infer", str(mimick_model_path), str(other), str(words),
                     str(tmp_path / "out.txt")]) == 1

    def test_reads_only_the_table_header(self, tmp_path, emb_path, mimick_model_path):
        words = tmp_path / "words.txt"
        words.write_text("zzz\nabq\n", encoding="utf-8")
        header = emb_path.read_text(encoding="utf-8").splitlines()[0]
        rowless = tmp_path / "rowless.txt"
        rowless.write_text(header + "\nnot a row\n", encoding="utf-8")
        expected, out = tmp_path / "expected.txt", tmp_path / "out.txt"
        assert main(["infer", str(mimick_model_path), str(emb_path), str(words), str(expected)]) == 0
        assert main(["infer", str(mimick_model_path), str(rowless), str(words), str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("content", ["", "\n", "12\n", "12 four\n", "12 0\n"])
    def test_bad_header_fails_as_the_table_reader_does(
        self, tmp_path, mimick_model_path, capsys, content
    ):
        table = tmp_path / "table.txt"
        table.write_text(content, encoding="utf-8")
        words = tmp_path / "words.txt"
        words.write_text("zzz\n", encoding="utf-8")
        with pytest.raises(EmbeddingParseError) as caught:
            read_embeddings(content)
        assert str(caught.value).startswith("line 1: ")
        assert main(["infer", str(mimick_model_path), str(table), str(words),
                     str(tmp_path / "out.txt")]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {table}: {caught.value}"

    def test_an_unwritable_word_fails_before_inference(
        self, tmp_path, emb_path, mimick_model_path, capsys, monkeypatch
    ):
        words = tmp_path / "words.txt"
        words.write_text("zzz\n\nfoo bar\nabq\n", encoding="utf-8")
        out = tmp_path / "oov.txt"

        def forward_many(self, batch):
            raise AssertionError("forward_many ran before the word list was checked")

        monkeypatch.setattr(MimickModel, "forward_many", forward_many)
        assert main(["infer", str(mimick_model_path), str(emb_path), str(words), str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {words}: line 3: word 'foo bar' cannot be represented in the text format"
        )
        assert not out.exists()


    def test_the_reserved_unk_token_fails_before_inference(
        self, tmp_path, emb_path, mimick_model_path, capsys, monkeypatch
    ):
        words = tmp_path / "words.txt"
        words.write_text("zzz\n<UNK>\n", encoding="utf-8")
        out = tmp_path / "oov.txt"

        def forward_many(self, batch):
            raise AssertionError("forward_many ran before the word list was checked")

        monkeypatch.setattr(MimickModel, "forward_many", forward_many)
        assert main(["infer", str(mimick_model_path), str(emb_path), str(words), str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {words}: line 2: word '<UNK>' is reserved for the UNK vector"
        )
        assert not out.exists()

    def test_an_archive_naming_a_tensor_twice_fails_with_one_line(
        self, tmp_path, emb_path, mimick_model_path, capsys
    ):
        manifest, tensors = load_archive(str(mimick_model_path))
        manifest["tensors"].append({"name": "b_t", "shape": list(tensors["b_t"].shape)})
        blob = json.dumps(manifest).encode("utf-8")
        payload = b"".join(a.astype("<f8").tobytes() for a in [*tensors.values(), tensors["b_t"]])
        archive = tmp_path / "twice.svm"
        archive.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)
        words = tmp_path / "words.txt"
        words.write_text("zzz\n", encoding="utf-8")
        out = tmp_path / "oov.txt"
        assert main(["infer", str(archive), str(emb_path), str(words), str(out)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error")] == [
            f"error: {archive}: duplicate tensor 'b_t'"
        ]
        assert err.splitlines()[-1].startswith("error") and "Traceback" not in err
        assert not out.exists()


class TestNearestNeighbors:
    def test_in_vocab_query_returns_itself_first(self, emb_path, capsys):
        table = small_table()
        word = table.words()[0]
        assert main(["nn", str(emb_path), word, "--k", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[0] == word
        assert float(lines[0].split("\t")[1]) == pytest.approx(1.0)

    def test_k_larger_than_vocabulary_fails(self, emb_path):
        word = small_table().words()[0]
        assert main(["nn", str(emb_path), word, "--k", "100"]) == 1

    def test_oov_without_model_fails(self, emb_path):
        assert main(["nn", str(emb_path), "zzzzz"]) == 1

    def test_matches_library_scan(self, emb_path, mimick_model_path, capsys):
        assert main(["nn", str(emb_path), "zzzzz", "--k", "4",
                     "--model", str(mimick_model_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = small_table()
        model = MimickModel.load(str(mimick_model_path))
        expected = nearest_neighbors(table, model.forward("zzzzz"), 4)
        assert [ln.split("\t")[0] for ln in lines] == [w for w, _ in expected]

    def test_the_spelling_of_the_unk_token_is_inferred_like_any_other(
        self, emb_path, mimick_model_path, capsys
    ):
        # the query builds no table, so the reserved word is no table entry
        assert main(["nn", str(emb_path), "<UNK>", "--k", "3",
                     "--model", str(mimick_model_path)]) == 0
        model = MimickModel.load(str(mimick_model_path))
        expected = nearest_neighbors(small_table(), model.forward("<UNK>"), 3)
        assert capsys.readouterr().out == "".join(f"{w}\t{s:.6f}\n" for w, s in expected)

    def test_a_model_inferring_nan_fails_with_one_line(self, tmp_path, emb_path, capsys):
        # no numpy warning escapes: the suite turns a RuntimeWarning into an error
        path = overflowing_model(tmp_path)
        assert main(["nn", str(emb_path), "zzzzz", "--model", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[1:] == [
            f"error: {path}: inferred vector for 'zzzzz' is not finite"
        ]

    def test_runs_as_a_module_and_scores_huge_rows(self, tmp_path):
        # norms and dot products of 1e200 rows overflow unless the rows are scaled
        table = tmp_path / "huge.txt"
        table.write_text("3 2\na 1 0\nb 1e200 1e200\nc 0 0\n", encoding="utf-8")
        src = str(Path(spellvec.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "spellvec.cli", "nn", str(table), "a", "--k", "3"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "a\t1.000000\nb\t0.707107\nc\t-inf\n"
        assert run.stderr == f"invocation: command=nn embeddings={table} k=3 word=a\n"


def build_tagger_corpus(tmp_path, seed=0, n_train=10, n_dev=3):
    rng = np.random.default_rng(seed)
    stems = make_stems(rng, 8)
    table = suffix_table(rng, stems, n_suffixes=3, dim=6)
    train = suffix_sentences(rng, stems, n_train, n_suffixes=3)
    dev = suffix_sentences(rng, stems, n_dev, n_suffixes=3)
    emb = tmp_path / "tag-emb.txt"
    write_table(emb, table)
    train_path = tmp_path / "train.conllu"
    train_path.write_text(serialize_conllu(train), encoding="utf-8")
    dev_path = tmp_path / "dev.conllu"
    dev_path.write_text(serialize_conllu(dev), encoding="utf-8")
    return emb, train_path, dev_path


TAGGER_FLAGS = ["--epochs", "1", "--hidden", "4", "--seed", "3", "--dropout", "0.2"]


class TestTrainTagger:
    def test_trains_and_doubles_epochs_on_small_corpus(self, tmp_path):
        emb, train, dev = build_tagger_corpus(tmp_path)
        out = tmp_path / "tagger.svm"
        assert main(["train-tagger", "--train", str(train), "--dev", str(dev),
                     "--embeddings", str(emb), "--out", str(out), *TAGGER_FLAGS]) == 0
        trace = (tmp_path / "tagger.svm.trace.tsv").read_text().splitlines()
        assert len(trace) == 3  # header + doubled single epoch
        model = TaggerModel.load(str(out))
        assert model.schema.pos == ["ADJ", "NOUN", "VERB"]

    def test_seeded_determinism_byte_identical(self, tmp_path):
        emb, train, dev = build_tagger_corpus(tmp_path)
        a, b = tmp_path / "a.svm", tmp_path / "b.svm"
        for out in (a, b):
            main(["train-tagger", "--train", str(train), "--dev", str(dev),
                  "--embeddings", str(emb), "--out", str(out), *TAGGER_FLAGS])
        assert a.read_bytes() == b.read_bytes()

    def test_token_limit_subsamples(self, tmp_path):
        emb, train, dev = build_tagger_corpus(tmp_path, n_train=20)
        out = tmp_path / "t.svm"
        assert main(["train-tagger", "--train", str(train), "--embeddings", str(emb),
                     "--out", str(out), "--token-limit", "12", *TAGGER_FLAGS]) == 0
        model = TaggerModel.load(str(out))
        trained_rows = [w for w in model.rows]
        all_train_forms = {t.form for s in parse_conllu(train.read_text()) for t in s.tokens}
        assert set(trained_rows) <= all_train_forms
        assert len(trained_rows) < len(all_train_forms)

    def test_mimick_variant_requires_model(self, tmp_path):
        emb, train, dev = build_tagger_corpus(tmp_path)
        assert main(["train-tagger", "--train", str(train), "--embeddings", str(emb),
                     "--out", str(tmp_path / "t.svm"), "--variant", "mimick",
                     *TAGGER_FLAGS]) == 1


# per training command: its defaults, its required arguments and its input flags
SETTING_COMMANDS = {
    "train-mimick": (MIMICK_DEFAULTS, ["emb.txt", "m.svm"], set()),
    "train-tagger": (TAGGER_DEFAULTS, ["--train", "t", "--embeddings", "e", "--out", "o"],
                     {"train", "dev", "embeddings", "out", "mimick"}),
}


def setting_flags(command):
    """dest -> option strings of the command's setting flags, in parser order."""
    inputs = SETTING_COMMANDS[command][2]
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a.option_strings for a in commands.choices[command]._actions
            if a.option_strings and a.dest not in {"help", "config", "trace", *inputs}}


@pytest.mark.parametrize("command", SETTING_COMMANDS)
def test_setting_flags_are_the_defaults_keys_typed_as_their_defaults(command):
    defaults, required, _ = SETTING_COMMANDS[command]
    flags = setting_flags(command)
    assert list(flags) == list(defaults)  # field order, as --help lists them
    parser = build_parser()
    unset = parser.parse_args([command, *required])
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        assert flags[key] == [flag]
        assert getattr(unset, key) in (None, False)  # the config's value applies
        if isinstance(default, bool):
            value = []
        elif isinstance(default, str):
            value = [default]
        else:
            value = ["7" if default is None or isinstance(default, int) else "0.25"]
        parsed = getattr(parser.parse_args([command, *required, flag, *value]), key)
        assert type(parsed) is (int if default is None else type(default)), key


@pytest.mark.parametrize("flag, allowed", [("--loss", LOSS_MODES), ("--variant", VARIANTS)])
def test_choice_settings_take_only_their_choices(capsys, flag, allowed):
    required = SETTING_COMMANDS["train-tagger"][1]
    parser = build_parser()
    for value in allowed:
        args = parser.parse_args(["train-tagger", *required, flag, value])
        assert getattr(args, flag[2:]) == value
    with pytest.raises(SystemExit) as exited:
        parser.parse_args(["train-tagger", *required, flag, "other"])
    assert exited.value.code == 2
    assert "invalid choice: 'other'" in capsys.readouterr().err


# one malformed file per reader the CLI uses, and the argument it goes into
BAD_INPUTS = {
    "table": "2 3\ndog 1 2 3\ncat 4 five 6\n",
    "header": "3\n",
    "conllu": "# sent_id = 1\n1\tdog\n",
}


# each argument position a text input goes into, with the kind of file it reads
READER_ARGVS = [
    ("table", ["train-tagger", "--train", "{train}", "--dev", "{dev}", "--embeddings", "{bad}",
               "--out", "{out}"]),
    ("conllu", ["train-tagger", "--train", "{bad}", "--embeddings", "{emb}", "--out", "{out}"]),
    ("conllu", ["train-tagger", "--train", "{train}", "--dev", "{bad}", "--embeddings", "{emb}",
                "--out", "{out}"]),
    ("conllu", ["eval", "{bad}", "{dev}"]),
    ("conllu", ["eval", "{dev}", "{bad}"]),
    ("conllu", ["eval", "{dev}", "{dev}", "--train", "{bad}"]),
    ("conllu", ["eval", "{dev}", "{dev}", "--compare", "{bad}"]),
    ("table", ["nn", "{bad}", "dog"]),
    ("header", ["infer", "{model}", "{bad}", "{words}", "{out}"]),
]


def reader_paths(tmp_path, bad):
    """The argv placeholders of READER_ARGVS, bad given."""
    emb, train, dev = build_tagger_corpus(tmp_path)
    model = tmp_path / "mimick.svm"
    MimickModel(CharVocabulary("abc"), dim=4, char_dim=2, hidden=2,
                rng=np.random.default_rng(0)).save(str(model))
    words = tmp_path / "words.txt"
    words.write_text("zzz\n", encoding="utf-8")
    return dict(emb=emb, train=train, dev=dev, bad=bad, model=model, words=words,
                out=tmp_path / "out.txt")


@pytest.mark.parametrize("kind, argv", READER_ARGVS)
def test_a_parse_error_names_the_file(tmp_path, capsys, kind, argv):
    bad = tmp_path / f"bad-{kind}.txt"
    bad.write_text(BAD_INPUTS[kind], encoding="utf-8")
    paths = reader_paths(tmp_path, bad)
    parse = parse_conllu if kind == "conllu" else read_embeddings
    with pytest.raises(ValueError) as caught:
        parse(BAD_INPUTS[kind])
    assert re.fullmatch(r"line \d+: .+", str(caught.value))
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error")] == [
        f"error: {bad}: {caught.value}"
    ]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [argv for _, argv in READER_ARGVS if argv[0] in ("nn", "infer")])
def test_a_header_dimension_numpy_cannot_shape_is_a_line_1_error(tmp_path, capsys, argv):
    text = "3 4611686018427387904\nw 1 2\n"
    bad = tmp_path / "huge.txt"
    bad.write_text(text, encoding="utf-8")
    message = "line 1: invalid header counts 3 4611686018427387904"
    with open(bad, encoding="utf-8") as handle:
        for source in (text, handle, io.StringIO(text)):
            with pytest.raises(EmbeddingParseError, match=f"^{message}$"):
                read_embeddings(source)
    paths = reader_paths(tmp_path, bad)
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {bad}: {message}"


@pytest.mark.parametrize("argv", [argv for _, argv in READER_ARGVS] + [
    ["infer", "{model}", "{emb}", "{bad}", "{out}"],
])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    # a valid table, corpus and word list but for one Latin-1 byte (0xff)
    bad.write_bytes(b"2 3\ndog 1 2 3\nc\xffat 4 5 6\n")
    paths = reader_paths(tmp_path, bad)
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error")] == [
        f"error: {bad}: line 3: 'utf-8' codec can't decode byte 0xff in position 1: "
        "invalid start byte"
    ]
    assert "Traceback" not in err
    assert not paths["out"].exists()


def test_a_decoding_error_past_the_first_chunk_names_its_line(tmp_path, capsys):
    table = tmp_path / "big.txt"
    # the text reader decodes 8 KiB chunks; the bad byte is in a later one
    rows = "".join(f"w{i} 1 2 3\n" for i in range(1500)).encode("utf-8")
    table.write_bytes(b"1501 3\n" + rows + b"c\xffat 4 5 6\n")
    assert main(["nn", str(table), "w0"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {table}: line 1502: 'utf-8' codec can't decode byte 0xff in position 1: "
        "invalid start byte"
    )


def test_a_config_that_is_not_utf8_is_named(tmp_path, capsys):
    emb, train, dev = build_tagger_corpus(tmp_path)
    config = tmp_path / "config.json"
    config.write_bytes(b'{"epochs": "\xff"}')
    assert main(["train-tagger", "--train", str(train), "--embeddings", str(emb),
                 "--out", str(tmp_path / "t.svm"), "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: config {config}: ")


@pytest.fixture
def trained_tagger(tmp_path):
    emb, train, dev = build_tagger_corpus(tmp_path)
    out = tmp_path / "tagger.svm"
    main(["train-tagger", "--train", str(train), "--dev", str(dev),
          "--embeddings", str(emb), "--out", str(out), *TAGGER_FLAGS])
    return out, train, dev


class TestTagAndEval:
    def test_tag_round_trips_forms(self, tmp_path, trained_tagger):
        model_path, train, dev = trained_tagger
        out = tmp_path / "pred.conllu"
        assert main(["tag", str(model_path), str(dev), str(out)]) == 0
        predicted = parse_conllu(out.read_text(encoding="utf-8"))
        gold = parse_conllu(dev.read_text(encoding="utf-8"))
        assert [[t.form for t in s.tokens] for s in predicted] == [
            [t.form for t in s.tokens] for s in gold
        ]

    def test_eval_identical_files_is_perfect(self, tmp_path, trained_tagger, capsys):
        _, train, dev = trained_tagger
        assert main(["eval", str(dev), str(dev), "--train", str(train)]) == 0
        rows = dict(
            line.split("\t", 1)
            for line in capsys.readouterr().out.splitlines()
            if "\t" in line and not line.startswith("attribute")
        )
        assert float(rows["pos_accuracy"]) == 1.0
        assert float(rows["micro_f1"]) == 1.0

    def test_eval_report_matches_library(self, tmp_path, trained_tagger, capsys):
        model_path, train, dev = trained_tagger
        pred = tmp_path / "pred.conllu"
        main(["tag", str(model_path), str(dev), str(pred)])
        assert main(["eval", str(dev), str(pred), "--train", str(train)]) == 0
        rows = dict(
            line.split("\t", 1)
            for line in capsys.readouterr().out.splitlines()
            if "\t" in line and not line.startswith("attribute")
        )
        from spellvec.evaluate import TaggedCorpusPair, micro_f1, pos_accuracy

        gold = parse_conllu(dev.read_text(encoding="utf-8"))
        predicted = parse_conllu(pred.read_text(encoding="utf-8"))
        vocab = {t.form for s in parse_conllu(train.read_text(encoding="utf-8")) for t in s.tokens}
        pair = TaggedCorpusPair(gold, predicted, vocab)
        assert float(rows["pos_accuracy"]) == pytest.approx(pos_accuracy(pair), abs=1e-9)
        assert float(rows["micro_f1"]) == pytest.approx(micro_f1(pair).f1, abs=1e-9)

    def test_eval_with_comparison_emits_mcnemar(self, tmp_path, trained_tagger, capsys):
        model_path, train, dev = trained_tagger
        pred = tmp_path / "pred.conllu"
        main(["tag", str(model_path), str(dev), str(pred)])
        assert main(["eval", str(dev), str(pred), "--compare", str(dev)]) == 0
        out = capsys.readouterr().out
        assert "mcnemar_p" in out

    def test_misaligned_corpora_fail_naming_divergence(self, tmp_path, trained_tagger, capsys):
        _, train, dev = trained_tagger
        gold = parse_conllu(dev.read_text(encoding="utf-8"))
        gold[0].tokens[0].form = "zzzchanged"
        other = tmp_path / "other.conllu"
        other.write_text(serialize_conllu(gold), encoding="utf-8")
        assert main(["eval", str(dev), str(other)]) == 1
        assert "sentence 1 token 1" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["pred", "compare"])
    def test_a_file_that_does_not_align_is_named(self, tmp_path, trained_tagger, capsys, role):
        _, _, dev = trained_tagger
        gold = parse_conllu(dev.read_text(encoding="utf-8"))
        short = tmp_path / "short.conllu"
        short.write_text(serialize_conllu(gold[:-1]), encoding="utf-8")
        files = [short, "--compare", dev] if role == "pred" else [dev, "--compare", short]
        assert main(["eval", str(dev), *map(str, files)]) == 1
        err = capsys.readouterr().err.splitlines()[1:]
        n = len(gold)
        assert err == [f"error: {short}: sentence counts differ: {n} gold vs {n - 1} predicted"]

    def test_eval_writes_report_file_atomically(self, tmp_path, trained_tagger):
        _, train, dev = trained_tagger
        report = tmp_path / "report.txt"
        assert main(["eval", str(dev), str(dev), "--out", str(report)]) == 0
        assert report.exists()
        assert "pos_accuracy" in report.read_text(encoding="utf-8")


MISTYPED_CONFIGS = [
    ("train-mimick", {"epochs": "3"}, "key 'epochs' must be int, got str"),
    ("train-mimick", {"hidden": 2.5}, "key 'hidden' must be int, got float"),
    ("train-mimick", {"char_dim": True}, "key 'char_dim' must be int, got bool"),
    ("train-mimick", {"epochs": 1, "lr": "0.1"}, "key 'lr' must be float, got str"),
    ("train-tagger", {"pos_only": "no"}, "key 'pos_only' must be bool, got str"),
    ("train-mimick", [{"epochs": 1}], "expected a JSON object"),
]


class TestConfigValues:
    def command(self, tmp_path, emb_path, name, out):
        if name == "train-mimick":
            return ["train-mimick", str(emb_path), str(out)]
        emb, train, _ = build_tagger_corpus(tmp_path)
        return ["train-tagger", "--train", str(train), "--embeddings", str(emb), "--out", str(out)]

    @pytest.mark.parametrize(
        "name, settings, message",
        MISTYPED_CONFIGS,
        ids=["str-epochs", "float-hidden", "bool-char-dim", "str-lr", "str-pos-only", "list"],
    )
    def test_mistyped_value_fails_with_one_line(self, tmp_path, emb_path, capsys, name,
                                                settings, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(settings), encoding="utf-8")
        out = tmp_path / "m.svm"
        argv = self.command(tmp_path, emb_path, name, out)
        assert main([*argv, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: config {config}: {message}"
        assert "Traceback" not in err
        assert not out.exists()

    def test_well_typed_values_pass_and_are_stored_as_written(self, tmp_path, capsys):
        # passes without the type check too: it guards the check against rejecting
        # an int where a float is expected, a null token_limit or a bool pos_only
        settings = {"loss": "weighted", "pos_only": True, "token_limit": None, "momentum": 0}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(settings), encoding="utf-8")
        out = tmp_path / "t.svm"
        assert main([*self.command(tmp_path, None, "train-tagger", out),
                     "--config", str(config), *TAGGER_FLAGS]) == 0
        err = capsys.readouterr().err
        assert "loss=weighted" in err and "momentum=0 " in err and "token_limit=None" in err
        stored = load_archive(str(out))[0]["meta"]["config"]
        assert {k: stored[k] for k in settings} == settings
        assert type(stored["momentum"]) is int
        assert TaggerModel.load(str(out)).attr_heads == {}


@pytest.mark.filterwarnings("error")
def test_diverging_mimick_run_fails_with_one_line_and_writes_nothing(tmp_path, capsys):
    base = small_table()
    table = EmbeddingTable(4, [*((w, base.vector(w)) for w in base.words()),
                               ("huge", np.full(4, 1e200))])
    emb = tmp_path / "emb.txt"
    write_table(emb, table)
    out = tmp_path / "m.svm"
    assert main(["train-mimick", str(emb), str(out), *MIMICK_FLAGS]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        "error: epoch 1: loss inf on word 'huge'; training diverged"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]


def warning_lines(err):
    return [line for line in err.splitlines() if line.startswith("warning:")]


def test_a_finitely_diverging_tagger_run_warns_once_and_is_saved(tmp_path, capsys):
    # lr 1e300 saturates the units: every mean loss is near 1e302, and finite
    emb, train, dev = build_tagger_corpus(tmp_path)
    out = tmp_path / "tagger.svm"
    assert main(["train-tagger", "--train", str(train), "--dev", str(dev), "--embeddings",
                 str(emb), "--out", str(out), *TAGGER_FLAGS, "--lr", "1e300"]) == 0
    (line,) = warning_lines(capsys.readouterr().err)
    assert re.fullmatch(
        r"warning: epoch 1: mean train loss \S+ exceeds 1e\+100; training has likely diverged",
        line,
    ), line
    TaggerModel.load(str(out))
    assert len((tmp_path / "tagger.svm.trace.tsv").read_text().splitlines()) == 3


@pytest.mark.parametrize("losses, warned", [
    ([0.5, 0.4, 0.3], None),
    ([0.5, 4e99, 6e99, 1e300], 3),  # 1e100 times epoch 1's 0.5
    ([2.0, 9e99, 2e100], 3),  # epoch 1's loss counts as 1
    ([1e101, 1e101], 1),
])
def test_mimick_divergence_warning_compares_with_epoch_one(
    tmp_path, emb_path, capsys, monkeypatch, losses, warned
):
    def fake_train(table, cfg):
        model, _ = train_mimick(table, cfg)
        return model, [EpochLoss(i + 1, loss, 0.0) for i, loss in enumerate(losses)]

    monkeypatch.setattr("spellvec.cli.train_mimick", fake_train)
    out = tmp_path / "m.svm"
    assert main(["train-mimick", str(emb_path), str(out), *MIMICK_FLAGS]) == 0
    warnings = warning_lines(capsys.readouterr().err)
    if warned is None:
        assert warnings == []
    else:
        (line,) = warnings
        assert line.startswith(f"warning: epoch {warned}: mean train loss "), line
    MimickModel.load(str(out))
    assert len((tmp_path / "m.svm.trace.tsv").read_text().splitlines()) == len(losses) + 1


def with_one_value(path, name, value, out):
    """A copy at out of the archive at path, value written into tensor name."""
    manifest, tensors = load_archive(str(path))
    tensors[name].flat[0] = value
    blob = json.dumps(manifest).encode("utf-8")
    payload = b"".join(a.astype("<f8").tobytes() for a in tensors.values())
    out.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)
    return out


def fails_naming(capsys, path, tensor):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {path}: tensor {tensor!r} holds a non-finite value"
    ]
    return True


class TestNonFiniteArchives:
    """An archive holding NaN or an infinity fails every command that reads it."""

    def test_infer(self, tmp_path, emb_path, mimick_model_path, capsys):
        bad = with_one_value(mimick_model_path, "char_emb", np.nan, tmp_path / "nan.svm")
        words, out = tmp_path / "words.txt", tmp_path / "oov.txt"
        words.write_text("zzq\n", encoding="utf-8")
        assert main(["infer", str(bad), str(emb_path), str(words), str(out)]) == 1
        assert fails_naming(capsys, bad, "char_emb") and not out.exists()

    def test_train_tagger_with_a_spelling_model(self, tmp_path, capsys):
        emb, train, _ = build_tagger_corpus(tmp_path)
        mimick = mimick_for_the_tagger_corpus(tmp_path)
        bad = with_one_value(mimick, "b_t", -np.inf, tmp_path / "inf.svm")
        out = tmp_path / "t.svm"
        assert main(["train-tagger", "--train", str(train), "--embeddings", str(emb), "--out",
                     str(out), "--variant", "mimick", "--mimick", str(bad), *TAGGER_FLAGS]) == 1
        assert fails_naming(capsys, bad, "b_t") and not out.exists()

    def test_tag(self, tmp_path, trained_tagger, capsys):
        model_path, _, dev = trained_tagger
        bad = with_one_value(model_path, "rows", np.inf, tmp_path / "inf.svm")
        out = tmp_path / "pred.conllu"
        assert main(["tag", str(bad), str(dev), str(out)]) == 1
        assert fails_naming(capsys, bad, "rows") and not out.exists()


# a sentence whose one form is in no table build_tagger_corpus writes
UNSEEN_SENTENCE = serialize_conllu([Sentence([Token("zzqan", "NOUN", {"Case": "Nom"})], "unseen")])


@pytest.mark.filterwarnings("error")
class TestOverflowingSpellingModel:
    """A Mimick model whose finite weights overflow fails the commands that
    run it with one line naming the archive it was loaded from, and no file."""

    @staticmethod
    def errors(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        return [line for line in err.splitlines() if line.startswith("error:")]

    @pytest.mark.parametrize("variant", ["mimick", "both"])
    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_train_tagger_names_the_spelling_model(self, tmp_path, capsys, variant, split):
        emb, train, dev = build_tagger_corpus(tmp_path)
        unseen = train if split == "train" else dev
        unseen.write_text(unseen.read_text(encoding="utf-8") + UNSEEN_SENTENCE, encoding="utf-8")
        mimick, out = overflowing_model(tmp_path, dim=6), tmp_path / "t.svm"
        assert main(["train-tagger", "--train", str(train), "--dev", str(dev), "--embeddings",
                     str(emb), "--out", str(out), "--variant", variant, "--mimick", str(mimick),
                     *TAGGER_FLAGS]) == 1
        assert self.errors(capsys) == [f"error: {mimick}: inferred vector for 'zzqan' is not finite"]
        assert not out.exists() and not (tmp_path / "t.svm.trace.tsv").exists()

    @pytest.mark.parametrize("variant", ["mimick", "both"])
    def test_tag_names_the_tagger(self, tmp_path, capsys, variant):
        emb, train, dev = build_tagger_corpus(tmp_path)
        tagger = tmp_path / "t.svm"
        # every training form is in the table and there is no dev split: Mimick never runs
        assert main(["train-tagger", "--train", str(train), "--embeddings", str(emb), "--out",
                     str(tagger), "--variant", variant, "--mimick",
                     str(overflowing_model(tmp_path, dim=6)), *TAGGER_FLAGS]) == 0
        corpus, out = tmp_path / "unseen.conllu", tmp_path / "pred.conllu"
        corpus.write_text(dev.read_text(encoding="utf-8") + UNSEEN_SENTENCE, encoding="utf-8")
        assert main(["tag", str(tagger), str(corpus), str(out)]) == 1
        assert self.errors(capsys) == [f"error: {tagger}: inferred vector for 'zzqan' is not finite"]
        assert not out.exists()


def mimick_for_the_tagger_corpus(tmp_path):
    """A spelling-model archive as wide as build_tagger_corpus's table."""
    path = tmp_path / "mimick.svm"
    MimickModel(CharVocabulary("abcdefghijklmnopqrstuvwxyz"), dim=6, char_dim=2, hidden=2,
                rng=np.random.default_rng(0)).save(str(path))
    return path


@pytest.mark.parametrize("command", ["infer", "nn", "train-tagger"])
def test_a_spelling_model_of_another_width_is_named(tmp_path, capsys, command):
    emb, train, _ = build_tagger_corpus(tmp_path)
    mimick, out = tmp_path / "wide.svm", tmp_path / "out"
    MimickModel(CharVocabulary("ab"), dim=8).save(str(mimick))
    words = tmp_path / "words.txt"
    words.write_text("zzqan\n", encoding="utf-8")
    argv = {
        "infer": ["infer", str(mimick), str(emb), str(words), str(out)],
        "nn": ["nn", str(emb), "zzqan", "--model", str(mimick)],
        "train-tagger": ["train-tagger", "--train", str(train), "--embeddings", str(emb),
                         "--out", str(out), "--variant", "mimick", "--mimick", str(mimick),
                         *TAGGER_FLAGS],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {mimick}: model dimension 8 != table dimension 6"]
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("train-mimick", ["--char-dim", "0"], "char_dim must be positive, got 0"),
    ("train-tagger", ["--variant", "char2tag", "--char-dim", "0"],
     "char_dim must be positive, got 0"),
    ("train-tagger", ["--variant", "both", "--char-dim", "-2"],
     "char_dim must be positive, got -2"),
    ("train-mimick", ["--lr", "nan"], "learning rate must be positive and finite, got nan"),
    ("train-mimick", ["--lr", "inf"], "learning rate must be positive and finite, got inf"),
    ("train-tagger", ["--lr", "nan"], "learning rate must be positive and finite, got nan"),
    ("train-tagger", ["--lr", "inf"], "learning rate must be positive and finite, got inf"),
])
def test_a_setting_no_model_can_train_with_fails_with_one_line(
    tmp_path, emb_path, capsys, command, flags, message
):
    out = tmp_path / "out.svm"
    if command == "train-mimick":
        argv = [command, str(emb_path), str(out), *MIMICK_FLAGS, *flags]
    else:
        emb, train, _ = build_tagger_corpus(tmp_path)
        argv = [command, "--train", str(train), "--embeddings", str(emb), "--out", str(out),
                "--mimick", str(mimick_for_the_tagger_corpus(tmp_path)), *TAGGER_FLAGS, *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]
    assert not out.exists()


def test_a_no_char_tagger_builds_no_encoder_and_takes_any_char_dim(tmp_path):
    emb, train, _ = build_tagger_corpus(tmp_path)
    out = tmp_path / "tagger.svm"
    assert main(["train-tagger", "--train", str(train), "--embeddings", str(emb), "--out",
                 str(out), "--variant", "no-char", *TAGGER_FLAGS, "--char-dim", "0"]) == 0
    assert TaggerModel.load(str(out)).c2t is None


@pytest.mark.parametrize("argv", [
    ["train-mimick", "{table}", "{out}"], ["nn", "{table}", "", "--k", "2"],
])
def test_an_empty_word_in_a_table_fails_naming_the_file_and_line(tmp_path, capsys, argv):
    table, out = tmp_path / "emb.txt", tmp_path / "m.svm"
    table.write_text("3 2\n 0.5 0.25\nab 1 2\ncd 3 4\n", encoding="utf-8")
    assert main([arg.format(table=table, out=out) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        f"error: {table}: line 2: word '' cannot be represented in the text format"
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]


def test_an_unknown_variant_in_a_config_file_fails_with_one_line(tmp_path, capsys):
    emb, train, _ = build_tagger_corpus(tmp_path)
    config, out = tmp_path / "cfg.json", tmp_path / "t.svm"
    config.write_text(json.dumps({"variant": "chars"}), encoding="utf-8")
    assert main(["train-tagger", "--train", str(train), "--embeddings", str(emb), "--out",
                 str(out), "--config", str(config), *TAGGER_FLAGS]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"error: unknown variant 'chars'; expected one of {VARIANTS}"
    assert not out.exists()


@pytest.mark.parametrize("case", ["eval", "train-mimick", "no-char", "char2tag", "train-tagger"])
def test_an_input_that_parses_but_no_command_can_use_is_named(tmp_path, capsys, case):
    emb, train, dev = build_tagger_corpus(tmp_path)
    empty, out = tmp_path / "empty.conllu", tmp_path / "out.svm"
    empty.write_text("", encoding="utf-8")
    if case == "eval":
        argv, named, message = ["eval", str(empty), str(empty)], empty, \
            "restriction 'all' selects no tokens"
    elif case == "train-mimick":
        write_table(emb, EmbeddingTable(2, [("ab", np.ones(2))], unk=np.zeros(2)))
        argv, named, message = ["train-mimick", str(emb), str(out), *MIMICK_FLAGS], emb, \
            "need at least 2 vocabulary words, got 1"
    elif case == "train-tagger":
        argv, named, message = ["train-tagger", "--train", str(empty), "--embeddings", str(emb),
                                "--out", str(out), *TAGGER_FLAGS], empty, "empty training split"
    else:
        table = read_embeddings(emb.read_text(encoding="utf-8"))
        write_table(emb, EmbeddingTable.over(table.words(), table.matrix()))
        argv = ["train-tagger", "--train", str(train), "--embeddings", str(emb), "--out",
                str(out), "--variant", case, *TAGGER_FLAGS]
        named, message = emb, f"variant {case!r} requires a table with an UNK vector"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {named}: {message}"
    ]
    assert not out.exists()


def error_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("text", ["", "# sent_id = 1\n\n"])
def test_train_tagger_refuses_a_dev_file_with_no_sentences(tmp_path, capsys, text):
    emb, train, _ = build_tagger_corpus(tmp_path)
    empty, out = tmp_path / "empty.conllu", tmp_path / "out.svm"
    empty.write_text(text, encoding="utf-8")
    assert main(["train-tagger", "--train", str(train), "--dev", str(empty), "--embeddings",
                 str(emb), "--out", str(out), *TAGGER_FLAGS]) == 1
    assert error_lines(capsys) == [f"error: {empty}: no sentences to score"]
    assert not out.exists() and not Path(f"{out}.trace.tsv").exists()


def test_eval_names_a_gold_file_with_no_sentences_and_a_misaligned_prediction(tmp_path, capsys):
    _, _, dev = build_tagger_corpus(tmp_path)
    empty, short = tmp_path / "empty.conllu", tmp_path / "short.conllu"
    empty.write_text("", encoding="utf-8")
    sentences = parse_conllu(dev.read_text(encoding="utf-8"))
    short.write_text(serialize_conllu(sentences[:-1]), encoding="utf-8")
    n = len(sentences)
    cases = [
        (["eval", str(empty), str(dev)],
         f"error: {empty}: sentence counts differ: 0 gold vs {n} predicted"),
        (["eval", str(empty), str(empty), "--compare", str(dev)],
         f"error: {empty}: sentence counts differ: 0 gold vs {n} predicted"),
        (["eval", str(dev), str(short)],
         f"error: {short}: sentence counts differ: {n} gold vs {n - 1} predicted"),
    ]
    for argv, line in cases:
        assert main(argv) == 1
        assert error_lines(capsys) == [line], argv


# every command, its arguments written over the inputs of mutation_inputs
MUTATED_COMMANDS = {
    "train-mimick": ["train-mimick", "{table}", "{out}", "--config", "{config}", "--char-dim",
                     "3", "--hidden", "4"],
    "infer": ["infer", "{mimick}", "{table}", "{words}", "{out}"],
    "nn": ["nn", "{table}", "zzqan", "--k", "3", "--model", "{mimick}"],
    "train-tagger": ["train-tagger", "--train", "{train}", "--dev", "{dev}", "--embeddings",
                     "{table}", "--out", "{out}", "--mimick", "{mimick}", "--config", "{config}",
                     "--char-dim", "3", "--char-hidden", "4", *TAGGER_FLAGS],
    "tag": ["tag", "{tagger}", "{dev}", "{out}"],
    # a corpus scored against itself: no mutation misaligns the pair, so a
    # fault is the mutated file's own
    "eval": ["eval", "{dev}", "{dev}", "--train", "{train}"],
}
# which mutations apply to each input
MUTATIONS = {
    "table": ["emptied", "non-finite", "field-dropped", "no-unk"],
    "train": ["emptied", "column-cut"],
    "dev": ["emptied", "column-cut"],
    "words": ["emptied", "reserved-word", "empty-word", "spaced-word"],
    "config": ["emptied", "wrong-type"],
    "mimick": ["manifest-char", "payload-float"],
    "tagger": ["manifest-char", "payload-float"],
}


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """One valid file for each input name of MUTATED_COMMANDS: a table, a
    training and a dev corpus, a word list, a config, a Mimick archive and a
    tagger archive (the both variant, which embeds the Mimick model)."""
    tmp_path = tmp_path_factory.mktemp("inputs")
    emb, train, dev = build_tagger_corpus(tmp_path)
    paths = dict(table=emb, train=train, dev=dev, words=tmp_path / "words.txt",
                 config=tmp_path / "config.json", mimick=tmp_path / "mimick.svm",
                 tagger=tmp_path / "tagger.svm")
    paths["words"].write_text("zzqan\nbadan\n", encoding="utf-8")
    paths["config"].write_text(json.dumps({"epochs": 1, "seed": 2}), encoding="utf-8")
    with redirect_stderr(io.StringIO()):
        assert main(["train-mimick", str(emb), str(paths["mimick"]), "--epochs", "1",
                     "--char-dim", "3", "--hidden", "4"]) == 0
        assert main(["train-tagger", "--train", str(train), "--embeddings", str(emb), "--out",
                     str(paths["tagger"]), "--variant", "both", "--mimick", str(paths["mimick"]),
                     "--char-dim", "3", "--char-hidden", "4", *TAGGER_FLAGS]) == 0
    return paths


def mutate(path, mutation, draw):
    """Apply mutation to the file at path, drawing its choices with draw."""

    def lines_of(path):
        return path.read_text(encoding="utf-8").splitlines(keepends=True)

    if mutation == "emptied":
        path.write_text("", encoding="utf-8")
    elif mutation in ("non-finite", "field-dropped"):
        lines = lines_of(path)
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].rstrip("\n").split(" ")
        j = draw(st.integers(1, len(fields) - 1))
        if mutation == "field-dropped":
            del fields[j]
        else:
            fields[j] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))
        lines[i] = " ".join(fields) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
    elif mutation == "no-unk":
        lines = [line for line in lines_of(path) if not line.startswith("<UNK> ")]
        count, dim = lines[0].split()
        path.write_text(f"{int(count) - 1} {dim}\n" + "".join(lines[1:]), encoding="utf-8")
    elif mutation == "column-cut":
        lines = lines_of(path)
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if line[0].isdigit()]))
        lines[i] = lines[i].rsplit("\t", 1)[0] + "\n"
        path.write_text("".join(lines), encoding="utf-8")
    elif mutation in ("reserved-word", "empty-word", "spaced-word"):
        word = {"reserved-word": "<UNK>", "empty-word": " ", "spaced-word": "a b"}[mutation]
        lines = lines_of(path)
        lines.insert(draw(st.integers(0, len(lines))), word + "\n")
        path.write_text("".join(lines), encoding="utf-8")
    elif mutation == "wrong-type":
        key, value = draw(st.sampled_from([("epochs", "1"), ("seed", 1.5), ("lr", "0.1"),
                                           ("hidden", True), ("momentum", None)]))
        path.write_text(json.dumps({"epochs": 1, key: value}), encoding="utf-8")
    else:
        data = bytearray(path.read_bytes())
        header = len(MAGIC) + 8 + struct.unpack_from("<Q", data, len(MAGIC))[0]
        if mutation == "manifest-char":
            at = draw(st.integers(len(MAGIC) + 8, header - 1))
            data[at] = ord(draw(st.characters(min_codepoint=32, max_codepoint=126)))
        else:
            at = header + 8 * draw(st.integers(0, (len(data) - header) // 8 - 1))
            value = draw(st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 1e300]),
                                   st.floats(-4, 4)))
            struct.pack_into("<d", data, at, value)
        path.write_bytes(bytes(data))


def assert_finite_outputs(command, out, stdout):
    """Every number a successful command wrote is finite, but train-mimick's
    dev loss, which is NaN when the table is too small to hold a word out;
    train-tagger is given --dev, whose sentences it scores every epoch."""
    if command in ("train-mimick", "train-tagger"):
        load_archive(str(out))  # refuses a non-finite tensor
        header, *rows = Path(f"{out}.trace.tsv").read_text(encoding="utf-8").splitlines()
        for row in rows:
            for name, value in zip(header.split("\t"), map(float, row.split("\t"))):
                assert np.isfinite(value) or (name == "dev_loss" and np.isnan(value)), row
    elif command == "infer":
        read_embeddings(out.read_text(encoding="utf-8"))  # refuses a non-finite value
    elif command == "tag":
        parse_conllu(out.read_text(encoding="utf-8"))
    else:
        numbers = [f for line in stdout.splitlines() for f in line.split("\t")[1:]]
        for field in numbers:
            assert field in ("tp", "fp", "fn", "precision", "recall", "f1") or np.isfinite(
                float(field)), field


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_command_on_one_mutated_input_succeeds_or_names_the_file(mutation_inputs, data):
    command = data.draw(st.sampled_from(sorted(MUTATED_COMMANDS)))
    argv = MUTATED_COMMANDS[command]
    name = data.draw(st.sampled_from([a[1:-1] for a in argv if a[1:-1] in MUTATIONS]))
    if command == "train-tagger":
        argv = [*argv, "--variant", data.draw(st.sampled_from(VARIANTS))]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: Path(shutil.copy(path, tmp)) for key, path in mutation_inputs.items()}
        paths["out"] = Path(tmp) / "out"
        mutate(paths[name], data.draw(st.sampled_from(MUTATIONS[name])), data.draw)
        argv = [arg.format(**paths) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(argv)
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        if code == 0:
            assert errors == []
            assert_finite_outputs(command, paths["out"], stdout.getvalue())
        else:
            assert code == 1
            assert len(errors) == 1 and f"{paths[name]}: " in errors[0], (errors, name)
            assert not paths["out"].exists()
