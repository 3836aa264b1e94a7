"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a PASS line with its
runtime (visible with `pytest -s` or in the captured-output section).
"""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from synthetic import (
    make_stems,
    single_char_typos,
    suffix_sentences,
    suffix_table,
    syllable_bigram_table,
)
from spellvec.cli import MIMICK_DEFAULTS, TAGGER_DEFAULTS, main
from spellvec.conllu import AttributeSchema, CorpusSplit, Sentence, Token, parse_conllu, serialize_conllu
from spellvec.embeddings import (
    TABLE_ONLY,
    EmbeddingTable,
    read_embeddings,
    write_embeddings,
)
from spellvec.evaluate import (
    TaggedCorpusPair,
    mcnemar,
    micro_f1,
    pos_accuracy,
    pos_correctness,
    spearman,
)
from spellvec.mimick import (
    CharVocabulary,
    MimickModel,
    MimickTrainConfig,
    nearest_neighbors,
    train_mimick,
)
from spellvec.nn import Tape, Tensor, gradient_check
from spellvec.tagger import (
    TaggerModel,
    TaggerTrainConfig,
    WordRepSpec,
    effective_epochs,
    tag_corpus,
    train_tagger,
)


def report(number, label, started):
    print(f"ACCEPTANCE PASS {number}: {label} ({time.monotonic() - started:.1f}s)")


# ----------------------------------------------------------------------
# 1. gradient fidelity


@pytest.mark.slow
def test_1_gradient_fidelity():
    started = time.monotonic()
    eps, tol = 1e-5, 1e-4

    # mimick squared-distance loss, words up to 6 characters
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        model = MimickModel(CharVocabulary("abcdefg"), dim=5, char_dim=3, hidden=4, rng=rng)
        word = "".join(rng.choice(list("abcdefg"), size=rng.integers(1, 7)))
        target = Tensor(rng.normal(size=(1, 1, 5)))
        indices = model.chars.encode(word)

        def forward():
            tape = Tape()
            out = model.forward_on_tape(tape, [[indices]])
            return tape, tape.sum_squares(tape.sub(out, target))

        result = gradient_check(forward, model.parameters(), eps=eps, tol=tol)
        assert result.passed, f"mimick seed {seed}: {result}"

    # joint tagger loss, sentences up to 3 tokens, both loss modes and
    # both word-representation families
    pos_tags = ["N", "V"]
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        mode = "sum" if seed % 2 == 0 else "weighted"
        variant = "no-char" if seed < 6 else "both"
        forms = ["ga", "bo", "du"]
        table = EmbeddingTable(
            3, [(w, rng.normal(size=3)) for w in forms[:2]], unk=rng.normal(size=3)
        )
        schema = AttributeSchema(
            pos=pos_tags, attrs={"Case": ["Acc", "Nom"]}, proportions={"Case": 0.7}
        )
        mimick = None
        if variant == "both":
            mimick = MimickModel(CharVocabulary("abdgou"), dim=3, char_dim=2, hidden=2, rng=rng)
        model = TaggerModel(
            schema,
            WordRepSpec(variant, table, mimick),
            hidden=3,
            char_dim=2,
            char_hidden=3,
            c2t_chars=CharVocabulary("abdgou") if variant == "both" else None,
            rng=rng,
        )
        tokens = []
        for _ in range(rng.integers(1, 4)):
            attrs = {"Case": ["Acc", "Nom"][rng.integers(0, 2)]} if rng.random() < 0.6 else {}
            tokens.append(Token(forms[rng.integers(0, 3)], pos_tags[rng.integers(0, 2)], attrs))
        sentence = Sentence(tokens)
        model.init_rows([token.form for token in tokens])
        params = model.parameters()

        def forward():
            tape = Tape()
            return tape, model.loss_on_tape(tape, sentence, mode)

        result = gradient_check(forward, params, eps=eps, tol=tol)
        assert result.passed, f"tagger seed {seed} {variant}/{mode}: {result}"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient fidelity took {elapsed:.1f}s"
    report(1, "analytic gradients match central differences (22 seeds, tol 1e-4)", started)


# ----------------------------------------------------------------------
# 2. mimick learnability and typo robustness


@pytest.mark.slow
def test_2_mimick_learnability_and_typo_neighbors():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    table, words = syllable_bigram_table(rng, 200, dim=16)
    cfg = MimickTrainConfig(
        char_dim=8, hidden=48, epochs=60, lr=0.01, momentum=0.5, seed=2, unk_char_rate=0.0
    )
    model, trace = train_mimick(table, cfg)
    assert trace[-1].train_loss < 0.10 * trace[0].train_loss, (
        f"final {trace[-1].train_loss:.4f} vs epoch-1 {trace[0].train_loss:.4f}"
    )
    for earlier, later in zip(trace[-10:], trace[-9:]):
        assert later.train_loss <= earlier.train_loss * 1.05, (
            f"epoch {later.epoch} rose past 5% noise"
        )

    typos = single_char_typos(rng, table, words, 20)
    assert len(typos) == 20
    hits = sum(
        original in [w for w, _ in nearest_neighbors(table, model.forward(typo), k=5)]
        for typo, original in typos
    )
    assert hits >= 16, f"typo nearest-neighbor hits {hits}/20"

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"mimick learnability took {elapsed:.1f}s"
    report(2, f"train loss to {trace[-1].train_loss / trace[0].train_loss:.1%} of epoch 1, "
              f"typo neighbors {hits}/20", started)


# ----------------------------------------------------------------------
# 3. OOV tagging gain


@pytest.mark.slow
def test_3_oov_tagging_gain():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    stems = make_stems(rng, 80)
    train_stems = stems[:40]  # the other 40 stems never occur in training
    table = suffix_table(rng, train_stems, n_suffixes=6, dim=12, noise=0.08)
    train_corpus = suffix_sentences(rng, train_stems, 120)
    test_corpus = suffix_sentences(rng, stems, 60)
    train_vocab = {t.form for s in train_corpus for t in s.tokens}

    mimick, _ = train_mimick(
        table, MimickTrainConfig(char_dim=8, hidden=24, epochs=25, lr=0.01, seed=3)
    )

    split = CorpusSplit(train_corpus, [], [])
    pairs = {}
    for variant in ("no-char", "mimick"):
        rep = WordRepSpec(variant, table, mimick if variant == "mimick" else None)
        cfg = TaggerTrainConfig(epochs=6, hidden=24, dropout=0.5, seed=5)
        model, trace = train_tagger(split, rep, cfg)
        assert trace[-1].train_loss < 0.25 * trace[0].train_loss, f"{variant} loss plateaued"
        train_pair = TaggedCorpusPair(train_corpus, tag_corpus(model, train_corpus))
        assert pos_accuracy(train_pair) >= 0.99, f"{variant} underfits its training set"
        pairs[variant] = TaggedCorpusPair(
            test_corpus, tag_corpus(model, test_corpus), train_vocab
        )

    oov_gap = pos_accuracy(pairs["mimick"], "oov") - pos_accuracy(pairs["no-char"], "oov")
    assert oov_gap >= 0.10, f"OOV accuracy gap {oov_gap:.3f}"
    stat = mcnemar(pos_correctness(pairs["mimick"]), pos_correctness(pairs["no-char"]))
    assert stat.b + stat.c <= 1000  # exact-binomial branch
    assert stat.p_value < 0.01, f"McNemar p {stat.p_value:.4g}"

    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"OOV tagging gain took {elapsed:.1f}s"
    report(3, f"OOV gap {oov_gap:.1%}, exact McNemar p {stat.p_value:.2g}", started)


# ----------------------------------------------------------------------
# 4. metric oracles


def brute_force_micro(gold, pred):
    universe = set()
    for corpus in (gold, pred):
        for s in corpus:
            for t in s.tokens:
                universe.update(t.attrs)
    tp = fp = fn = 0
    for gs, ps in zip(gold, pred):
        for gt, pt in zip(gs.tokens, ps.tokens):
            for attr in universe:
                g, p = gt.attrs.get(attr), pt.attrs.get(attr)
                if p is not None and p == g:
                    tp += 1
                if p is not None and p != g:
                    fp += 1
                if g is not None and p != g:
                    fn += 1
    return tp, fp, fn


def naive_spearman(sims, scores):
    def ranks(values):
        return [
            sum(1 for u in values if u < v) + (sum(1 for u in values if u == v) + 1) / 2.0
            for v in values
        ]

    ra, rb = ranks(sims), ranks(scores)
    n = len(ra)
    ma, mb = sum(ra) / n, sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def test_4_metric_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(11)

    # micro F1 against a brute-force slot counter, exact integer agreement
    attrs, values = ["Case", "Num", "Gen"], ["a", "b", "c"]
    for _ in range(1000):
        def random_attrs():
            return {a: values[rng.integers(0, 3)] for a in attrs if rng.random() < 0.4}

        length = int(rng.integers(1, 21))
        forms = [f"w{i}" for i in range(length)]
        gold = [Sentence([Token(f, "X", random_attrs()) for f in forms])]
        pred = [Sentence([Token(f, "X", random_attrs()) for f in forms])]
        got = micro_f1(TaggedCorpusPair(gold, pred))
        assert (got.tp, got.fp, got.fn) == brute_force_micro(gold, pred)

    # spearman against a naive average-rank + Pearson oracle, with ties
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 12))
        table = EmbeddingTable(4, [(f"w{i}", rng.normal(size=4)) for i in range(n)])
        dataset = []
        for _ in range(int(rng.integers(3, 9))):
            i, j = rng.integers(0, n, size=2)
            pair = (f"w{i}", f"w{j}")
            if pair in {(a, b) for a, b, _ in dataset}:
                continue
            dataset.append((pair[0], pair[1], float(rng.integers(0, 4))))
        if len(dataset) < 3 or len({s for _, _, s in dataset}) < 2:
            continue
        sims = []
        for w1, w2, _ in dataset:
            u, v = table.vector(w1), table.vector(w2)
            sims.append(float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))))
        if len(set(sims)) < 2:
            continue
        rho, resolved = spearman(dataset, table, TABLE_ONLY)
        assert resolved == len(dataset)
        assert abs(rho - naive_spearman(sims, [s for _, _, s in dataset])) <= 1e-12
        checked += 1

    # exact McNemar against binomial enumeration for every b + c <= 30
    for b in range(0, 31):
        for c in range(0, 31 - b):
            if b + c == 0:
                continue
            result = mcnemar([True] * b + [False] * c, [False] * b + [True] * c)
            n = b + c
            tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
            assert result.p_value == min(1.0, (2 * tail) / (2**n)), (b, c)

    report(4, "micro-F1, Spearman and McNemar match independent oracles", started)


# ----------------------------------------------------------------------
# 5. format round trips


def test_5_format_round_trips(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(13)

    # embedding text format
    for trial in range(30):
        dim = int(rng.integers(1, 8))
        words = [f"w{i}x" for i in range(rng.integers(0, 40))]
        entries = [
            (w, rng.normal(size=dim) * 10.0 ** float(rng.integers(-8, 9))) for w in words
        ]
        unk = rng.normal(size=dim) if rng.random() < 0.5 else None
        table = EmbeddingTable(dim, entries, unk=unk)
        first, second = io.StringIO(), io.StringIO()
        write_embeddings(table, first)
        write_embeddings(table, second)
        assert first.getvalue() == second.getvalue()
        back = read_embeddings(first.getvalue())
        assert back.words() == table.words()
        for word, vec in table.items():
            assert np.array_equal(back.vector(word), vec), (trial, word)
        assert (back.unk is None) == (table.unk is None)
        if table.unk is not None:
            assert np.array_equal(back.unk, table.unk)

    # CoNLL-U
    pos = ["NOUN", "VERB", "ADJ"]
    for _ in range(50):
        corpus = []
        for i in range(rng.integers(1, 5)):
            tokens = [
                Token(
                    f"tok{rng.integers(0, 30)}",
                    pos[rng.integers(0, 3)],
                    {
                        a: f"v{rng.integers(0, 3)}"
                        for a in ("Case", "Num")
                        if rng.random() < 0.5
                    },
                )
                for _ in range(rng.integers(1, 7))
            ]
            corpus.append(Sentence(tokens, sent_id=f"s{i}"))
        assert parse_conllu(serialize_conllu(corpus)) == corpus

    # model archives are bit-exact
    mimick = MimickModel(
        CharVocabulary("abcdef"), dim=4, char_dim=3, hidden=4, rng=np.random.default_rng(3)
    )
    path_a, path_b = str(tmp_path / "m1"), str(tmp_path / "m2")
    mimick.save(path_a)
    MimickModel.load(path_a).save(path_b)
    assert (tmp_path / "m1").read_bytes() == (tmp_path / "m2").read_bytes()

    stems = make_stems(rng, 6)
    table = suffix_table(rng, stems, n_suffixes=3, dim=6)
    split = CorpusSplit(suffix_sentences(rng, stems, 6, n_suffixes=3), [], [])
    tagger, _ = train_tagger(
        split, WordRepSpec("no-char", table), TaggerTrainConfig(epochs=1, hidden=4, seed=1)
    )
    path_c, path_d = str(tmp_path / "t1"), str(tmp_path / "t2")
    tagger.save(path_c)
    TaggerModel.load(path_c).save(path_d)
    assert (tmp_path / "t1").read_bytes() == (tmp_path / "t2").read_bytes()

    report(5, "embedding text, CoNLL-U and archives round-trip losslessly", started)


# ----------------------------------------------------------------------
# 6. configuration fidelity


def test_6_default_hyperparameters():
    started = time.monotonic()
    mimick_cfg = MimickTrainConfig()
    assert mimick_cfg.char_dim == 20
    assert mimick_cfg.hidden == 50
    assert mimick_cfg.epochs == 60
    assert mimick_cfg.dev_fraction == 0.01
    assert mimick_cfg.lr == 0.01

    tagger_cfg = TaggerTrainConfig()
    assert tagger_cfg.epochs == 40
    assert tagger_cfg.dropout == 0.5
    assert tagger_cfg.lr == 0.01
    assert tagger_cfg.hidden == 128
    assert tagger_cfg.char_dim == 20
    assert tagger_cfg.char_hidden == 128
    assert effective_epochs(tagger_cfg.epochs, 5000) == 80
    assert effective_epochs(tagger_cfg.epochs, 5001) == 40

    # a default-constructed model has two 128-wide BiLSTM layers and
    # 256-wide per-token states
    table = EmbeddingTable(4, [("a", np.zeros(4))], unk=np.zeros(4))
    schema = AttributeSchema(["N"], {"Case": ["Nom"]}, {"Case": 1.0})
    model = TaggerModel(schema, WordRepSpec("no-char", table))
    for cell in (model.l1f, model.l1b, model.l2f, model.l2b):
        assert cell.hidden_size == 128
    assert model.l2f.input_size == 256
    assert model.pos_head.w_h.shape[1] == 256

    assert MIMICK_DEFAULTS["epochs"] == 60
    assert MIMICK_DEFAULTS["hidden"] == 50
    assert MIMICK_DEFAULTS["char_dim"] == 20
    assert TAGGER_DEFAULTS["epochs"] == 40
    assert TAGGER_DEFAULTS["dropout"] == 0.5
    assert TAGGER_DEFAULTS["lr"] == 0.01
    assert TAGGER_DEFAULTS["hidden"] == 128
    assert TAGGER_DEFAULTS["char_dim"] == 20
    assert TAGGER_DEFAULTS["char_hidden"] == 128
    report(6, "default hyperparameters match the published settings", started)


# ----------------------------------------------------------------------
# 7. command determinism


def run_captured(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"command failed: {argv}"
    return out.getvalue()


def test_7_commands_byte_identical_across_runs(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(17)
    stems = make_stems(rng, 8)
    table = suffix_table(rng, stems, n_suffixes=3, dim=6)
    emb = tmp_path / "emb.txt"
    sink = io.StringIO()
    write_embeddings(table, sink)
    emb.write_text(sink.getvalue(), encoding="utf-8")
    train = tmp_path / "train.conllu"
    train.write_text(
        serialize_conllu(suffix_sentences(rng, stems, 10, n_suffixes=3)), encoding="utf-8"
    )
    dev = tmp_path / "dev.conllu"
    dev.write_text(
        serialize_conllu(suffix_sentences(rng, stems, 3, n_suffixes=3)), encoding="utf-8"
    )
    words = tmp_path / "words.txt"
    words.write_text("zebraak\nqok\n", encoding="utf-8")

    def run_twice(label, build_argv, outputs):
        blobs = []
        for round_no in ("x", "y"):
            argv, stdout_captured = build_argv(round_no)
            stdout_text = run_captured(argv)
            blob = [stdout_text if stdout_captured else ""]
            for template in outputs:
                blob.append((tmp_path / template.format(round_no)).read_bytes())
            blobs.append(blob)
        assert blobs[0] == blobs[1], f"{label} differs across identical runs"

    mimick_flags = ["--epochs", "2", "--char-dim", "3", "--hidden", "4", "--seed", "9"]
    run_twice(
        "train-mimick",
        lambda r: (["train-mimick", str(emb), str(tmp_path / f"m{r}.svm"), *mimick_flags], False),
        ["m{}.svm", "m{}.svm.trace.tsv"],
    )
    run_twice(
        "infer",
        lambda r: (
            ["infer", str(tmp_path / "mx.svm"), str(emb), str(words), str(tmp_path / f"i{r}.txt")],
            False,
        ),
        ["i{}.txt"],
    )
    run_twice(
        "nn",
        lambda r: (["nn", str(emb), "qok", "--k", "4", "--model", str(tmp_path / "mx.svm")], True),
        [],
    )
    tagger_flags = ["--epochs", "1", "--hidden", "4", "--char-dim", "3", "--char-hidden", "4",
                    "--seed", "9"]
    # char2tag and both run the character BiLSTM on the tape as well
    for variant in ("mimick", "char2tag", "both"):
        run_twice(
            f"train-tagger {variant}",
            lambda r: (
                ["train-tagger", "--train", str(train), "--dev", str(dev), "--embeddings", str(emb),
                 "--out", str(tmp_path / f"{variant}-t{r}.svm"), "--variant", variant,
                 "--mimick", str(tmp_path / "mx.svm"), *tagger_flags],
                False,
            ),
            [f"{variant}-t{{}}.svm", f"{variant}-t{{}}.svm.trace.tsv"],
        )
        run_twice(
            f"tag {variant}",
            lambda r: (
                ["tag", str(tmp_path / f"{variant}-tx.svm"), str(dev),
                 str(tmp_path / f"{variant}-p{r}.conllu")],
                False,
            ),
            [f"{variant}-p{{}}.conllu"],
        )
    run_twice(
        "eval",
        lambda r: (
            ["eval", str(dev), str(tmp_path / "mimick-px.conllu"), "--train", str(train),
             "--compare", str(tmp_path / "both-px.conllu")],
            True,
        ),
        [],
    )
    report(7, "all commands byte-identical across same-seed runs", started)
