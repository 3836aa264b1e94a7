import io
import json

import numpy as np
import pytest

from synthetic import make_stems, suffix_sentences, suffix_table
from spellvec.archive import load_archive
from spellvec.cli import main
from spellvec.conllu import parse_conllu, serialize_conllu
from spellvec.embeddings import EmbeddingTable, read_embeddings, write_embeddings
from spellvec.mimick import MimickModel, MimickTrainConfig, nearest_neighbors, train_mimick
from spellvec.tagger import TaggerModel


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


class TestInfer:
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
        ids=["str-epochs", "float-hidden", "bool-char-dim", "str-lr", "str-pos-only"],
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
