import math

import numpy as np
import pytest

from synthetic import make_stems, suffix_sentences, suffix_table
from spellvec.conllu import (
    AttributeSchema,
    CorpusSplit,
    SchemaError,
    Sentence,
    Token,
)
from spellvec.embeddings import EmbeddingTable
from spellvec.mimick import CharVocabulary, MimickModel
from spellvec.nn import Tape, dropout_mask, gradient_check
from spellvec.tagger import (
    POS_HEAD,
    TaggerModel,
    TaggerTrainConfig,
    WordRepSpec,
    attribute_distribution,
    effective_epochs,
    joint_loss,
    sentence_forward,
    tag,
    tag_corpus,
    train_tagger,
)


def tiny_table(rng, words, dim=3, with_unk=True):
    entries = [(w, rng.normal(size=dim)) for w in words]
    return EmbeddingTable(dim, entries, unk=np.zeros(dim) if with_unk else None)


def tiny_model(seed=0, dim=3, hidden=3, pos=("A", "B"), attrs=None, words=("aa", "bb", "cc")):
    rng = np.random.default_rng(seed)
    table = tiny_table(rng, words, dim)
    schema = AttributeSchema(
        pos=list(pos),
        attrs=dict(attrs or {"Case": ["Acc", "Nom"]}),
        proportions={a: 0.5 for a in (attrs or {"Case": ["Acc", "Nom"]})},
    )
    rep = WordRepSpec("no-char", table)
    return TaggerModel(schema, rep, hidden=hidden, rng=rng)


def sentence(*forms_tags):
    return Sentence([Token(f, p, dict(a)) for f, p, a in forms_tags])


def cell_step(cell, x, h, c):
    z = np.concatenate([x, h])
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = sig(cell.w_i.data @ z + cell.b_i.data)
    f = sig(cell.w_f.data @ z + cell.b_f.data)
    o = sig(cell.w_o.data @ z + cell.b_o.data)
    g = np.tanh(cell.w_c.data @ z + cell.b_c.data)
    c = f * c + i * g
    return o * np.tanh(c), c


def straight_line_states(model, sentence):
    """Independent numpy evaluation of the two-layer BiLSTM."""

    def sweep(cell, xs):
        h = c = np.zeros(model.hidden)
        out = []
        for x in xs:
            h, c = cell_step(cell, x, h, c)
            out.append(h)
        return out

    def bilstm(fwd, bwd, xs):
        f = sweep(fwd, xs)
        b = sweep(bwd, xs[::-1])[::-1]
        return [np.concatenate(p) for p in zip(f, b)]

    reps = [model.word_row(t.form).data for t in sentence.tokens]
    return bilstm(model.l2f, model.l2b, bilstm(model.l1f, model.l1b, reps))


class TestAttributeDistribution:
    def test_zero_heads_give_uniform(self):
        model = tiny_model()
        for head in [model.pos_head, *model.attr_heads.values()]:
            for p in head.parameters("x.").values():
                p.data[...] = 0.0
        h = np.random.default_rng(0).normal(size=6)
        assert np.allclose(attribute_distribution(model, h, "Case"), [1 / 3] * 3, atol=1e-15)
        assert np.allclose(attribute_distribution(model, h, POS_HEAD), [0.5, 0.5], atol=1e-15)

    def test_sums_to_one_for_random_parameters(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            model = tiny_model(seed=seed)
            dist = attribute_distribution(model, rng.normal(size=6), "Case")
            assert abs(dist.sum() - 1.0) <= 1e-12
            assert np.all(dist > 0)

    def test_matches_independent_mlp_plus_naive_softmax(self):
        model = tiny_model(seed=5)
        h = np.random.default_rng(2).normal(size=6)
        head = model.attr_heads["Case"]
        logits = head.o_w.data @ np.tanh(head.w_h.data @ h + head.b_h.data) + head.b_w.data
        naive = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(attribute_distribution(model, h, "Case"), naive, atol=1e-12)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            attribute_distribution(tiny_model(), np.zeros(6), "Tense")


class TestSentenceForward:
    def test_single_token_state_width(self):
        model = tiny_model()
        states = sentence_forward(model, sentence(("aa", "A", {})))
        assert len(states) == 1
        assert states[0].shape == (6,)

    def test_eval_mode_deterministic(self):
        model = tiny_model(seed=3)
        s = sentence(("aa", "A", {}), ("bb", "B", {}))
        first = sentence_forward(model, s)
        second = sentence_forward(model, s)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_train_mode_deterministic_under_fixed_seed(self):
        model = tiny_model(seed=3)
        s = sentence(("aa", "A", {}), ("bb", "B", {}))
        first = sentence_forward(model, s, "train", 0.5, np.random.default_rng(7))
        second = sentence_forward(model, s, "train", 0.5, np.random.default_rng(7))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_three_token_sentence_matches_straight_line_reference(self):
        model = tiny_model(seed=11)
        s = sentence(("aa", "A", {}), ("bb", "B", {}), ("cc", "A", {}))
        got = sentence_forward(model, s)
        expected = straight_line_states(model, s)
        for a, b in zip(got, expected):
            assert np.allclose(a, b, atol=1e-12)
        reversed_sentence = Sentence(list(reversed(s.tokens)))
        got_rev = sentence_forward(model, reversed_sentence)
        expected_rev = straight_line_states(model, reversed_sentence)
        for a, b in zip(got_rev, expected_rev):
            assert np.allclose(a, b, atol=1e-12)


def test_train_mode_dropout_matches_straight_line_oracle_with_per_token_masks():
    """Masks come from the rng one token at a time: the input width for every
    token, then 2 * hidden for every token, so a seed keeps its stream."""
    model = tiny_model(seed=4)
    s = sentence(("aa", "A", {}), ("bb", "B", {}), ("aa", "A", {}), ("cc", "B", {}))
    got = sentence_forward(model, s, "train", 0.5, np.random.default_rng(7))

    def sweep(cell, xs):
        h = c = np.zeros(cell.hidden_size)
        out = []
        for x in xs:
            h, c = cell_step(cell, x, h, c)
            out.append(h)
        return out

    def bilstm(fwd, bwd, xs):
        return [np.concatenate(p) for p in zip(sweep(fwd, xs), sweep(bwd, xs[::-1])[::-1])]

    rng = np.random.default_rng(7)
    reps = [model.word_row(t.form).data * dropout_mask(model.width, 0.5, rng) for t in s.tokens]
    layer1 = [h * dropout_mask(2 * model.hidden, 0.5, rng) for h in bilstm(model.l1f, model.l1b, reps)]
    expected = bilstm(model.l2f, model.l2b, layer1)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)
    assert not np.allclose(got, sentence_forward(model, s), rtol=0.0, atol=1e-6)


class TestJointLoss:
    def test_uniform_heads_single_token(self):
        # one attribute with 3 values + NONE (4 classes) and 17 POS tags
        pos = [f"P{i:02d}" for i in range(17)]
        model = tiny_model(pos=pos, attrs={"Case": ["Acc", "Dat", "Nom"]})
        for head in [model.pos_head, *model.attr_heads.values()]:
            for p in head.parameters("x.").values():
                p.data[...] = 0.0
        loss = joint_loss(model, sentence(("aa", "P03", {"Case": "Dat"})))
        assert loss == pytest.approx(math.log(4) + math.log(17), abs=1e-12)

    def test_sum_equals_weighted_when_proportions_are_one(self):
        model = tiny_model(seed=6)
        model.schema.proportions["Case"] = 1.0
        s = sentence(("aa", "A", {"Case": "Nom"}), ("bb", "B", {"Case": "Acc"}))
        assert joint_loss(model, s, "sum") == pytest.approx(
            joint_loss(model, s, "weighted"), abs=1e-12
        )

    def test_weighted_mode_scales_attribute_terms(self):
        model = tiny_model(seed=6)
        model.schema.proportions["Case"] = 0.25
        s = sentence(("aa", "A", {"Case": "Nom"}))
        pos_model = tiny_model(seed=6)
        pos_model.attr_heads = {}
        pos_part = joint_loss(pos_model, s)
        full_sum = joint_loss(model, s, "sum")
        full_weighted = joint_loss(model, s, "weighted")
        assert full_weighted == pytest.approx(pos_part + 0.25 * (full_sum - pos_part), abs=1e-12)

    def test_removing_attribute_heads_leaves_pos_cross_entropy(self):
        model = tiny_model(seed=8)
        s = sentence(("aa", "A", {"Case": "Nom"}), ("cc", "B", {}))
        model.attr_heads = {}
        states = sentence_forward(model, s)
        expected = -sum(
            math.log(attribute_distribution(model, h, POS_HEAD)[model.schema.pos.index(t.upos)])
            for h, t in zip(states, s.tokens)
        )
        assert joint_loss(model, s) == pytest.approx(expected, abs=1e-12)

    def test_gold_value_outside_inventory_rejected(self):
        model = tiny_model()
        with pytest.raises(SchemaError):
            joint_loss(model, sentence(("aa", "A", {"Case": "Gen"})))
        with pytest.raises(SchemaError):
            joint_loss(model, sentence(("aa", "Z", {})))

    @pytest.mark.parametrize("mode", ["sum", "weighted"])
    def test_gradient_matches_finite_differences(self, mode):
        model = tiny_model(seed=9)
        s = sentence(("aa", "A", {"Case": "Nom"}), ("bb", "B", {}))
        for token in s.tokens:
            model.word_row(token.form)
        params = model.parameters()

        def forward():
            tape = Tape()
            return tape, model.loss_on_tape(tape, s, mode)

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, report


class TestVariants:
    def test_mimick_variant_initializes_oov_rows_from_mimick(self):
        rng = np.random.default_rng(0)
        table = tiny_table(rng, ["aa"], dim=3, with_unk=False)
        mimick = MimickModel(CharVocabulary("abz"), dim=3, char_dim=2, hidden=2, rng=rng)
        schema = AttributeSchema(["A"], {}, {})
        model = TaggerModel(schema, WordRepSpec("mimick", table, mimick), hidden=2, rng=rng)
        row = model.word_row("zz")
        assert np.array_equal(row.data, mimick.forward("zz"))
        assert np.array_equal(model.word_row("aa").data, table.vector("aa"))

    def test_mimick_not_invoked_without_oov_tokens(self, monkeypatch):
        rng = np.random.default_rng(1)
        table = tiny_table(rng, ["aa", "bb"], dim=3, with_unk=False)
        mimick = MimickModel(CharVocabulary("ab"), dim=3, char_dim=2, hidden=2, rng=rng)
        calls = []
        original = mimick.forward
        monkeypatch.setattr(mimick, "forward", lambda w: (calls.append(w), original(w))[1])
        schema = AttributeSchema(["A"], {}, {})
        model = TaggerModel(schema, WordRepSpec("mimick", table, mimick), hidden=2, rng=rng)
        tag(model, sentence(("aa", "A", {}), ("bb", "A", {})))
        assert calls == []
        model.word_row("oops")
        assert calls == ["oops"]

    def test_no_char_variant_backs_off_to_lowercase_then_unk(self):
        rng = np.random.default_rng(2)
        table = EmbeddingTable(
            2, [("dog", np.array([1.0, 0.0]))], unk=np.array([0.25, 0.25])
        )
        schema = AttributeSchema(["A"], {}, {})
        model = TaggerModel(schema, WordRepSpec("no-char", table), hidden=2, rng=rng)
        assert np.array_equal(model.word_row("Dog").data, [1.0, 0.0])
        assert np.array_equal(model.word_row("cat").data, [0.25, 0.25])

    def test_char2tag_widens_word_representation(self):
        rng = np.random.default_rng(3)
        table = tiny_table(rng, ["aa", "bb"], dim=3)
        schema = AttributeSchema(["A"], {}, {})
        model = TaggerModel(
            schema,
            WordRepSpec("char2tag", table),
            hidden=2,
            char_dim=2,
            char_hidden=3,
            c2t_chars=CharVocabulary("ab"),
            rng=rng,
        )
        assert model.width == 3 + 6
        states = sentence_forward(model, sentence(("aa", "A", {})))
        assert states[0].shape == (4,)

    def test_char2tag_representation_matches_straight_line_char_bilstm(self):
        rng = np.random.default_rng(8)
        table = tiny_table(rng, ["a", "aba"], dim=3)
        model = TaggerModel(
            AttributeSchema(["A"], {}, {}),
            WordRepSpec("char2tag", table),
            hidden=2,
            char_dim=2,
            char_hidden=3,
            c2t_chars=CharVocabulary("ab"),
            rng=rng,
        )
        c2t = model.c2t

        def sweep(cell, xs):
            h = c = np.zeros(cell.hidden_size)
            states = []
            for x in xs:
                h, c = cell_step(cell, x, h, c)
                states.append(h)
            return states

        def representation(form):
            xs = [c2t.char_emb.data[i] for i in c2t.chars.encode(form)]
            ends = [sweep(c2t.fwd, xs)[-1], sweep(c2t.bwd, xs[::-1])[-1]]
            return np.concatenate([model.word_row(form).data, *ends])

        s = sentence(("a", "A", {}), ("aba", "A", {}))
        reps = [representation(t.form) for t in s.tokens]
        tape = Tape()
        for token, expected in zip(s.tokens, reps):
            got = tape.concat([model.word_row(token.form), c2t.forward_on_tape(tape, token.form)])
            assert np.allclose(got.data, expected, rtol=0.0, atol=1e-12), token.form
        # the same representations feed the sentence BiLSTM
        for fwd, bwd in ((model.l1f, model.l1b), (model.l2f, model.l2b)):
            reps = [np.concatenate(p) for p in zip(sweep(fwd, reps), sweep(bwd, reps[::-1])[::-1])]
        for got, expected in zip(sentence_forward(model, s), reps):
            assert np.allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_variant_prerequisites_validated(self):
        rng = np.random.default_rng(4)
        no_unk = tiny_table(rng, ["aa"], with_unk=False)
        with pytest.raises(ValueError, match="UNK"):
            WordRepSpec("no-char", no_unk)
        with pytest.raises(ValueError, match="mimick"):
            WordRepSpec("mimick", no_unk)
        with pytest.raises(ValueError, match="variant"):
            WordRepSpec("fancy", no_unk)


class TestTag:
    def test_forced_none_head_emits_empty_attribute_map(self):
        model = tiny_model(seed=10)
        model.attr_heads["Case"].b_w.data[...] = [50.0, 0.0, 0.0]
        model.attr_heads["Case"].o_w.data[...] = 0.0
        tagged = tag(model, sentence(("aa", "A", {}), ("bb", "B", {})))
        assert all(attrs == {} for _, attrs in tagged)

    def test_shift_invariance_of_argmax(self):
        model = tiny_model(seed=12)
        s = sentence(("aa", "A", {}), ("cc", "B", {}))
        before = tag(model, s)
        model.pos_head.b_w.data += 13.5
        model.attr_heads["Case"].b_w.data += -4.0
        assert tag(model, s) == before

    def test_matches_brute_force_argmax_over_distributions(self):
        model = tiny_model(seed=13)
        s = sentence(("aa", "A", {}), ("bb", "B", {}), ("cc", "A", {}))
        states = sentence_forward(model, s)
        expected = []
        for h in states:
            pos_dist = attribute_distribution(model, h, POS_HEAD)
            best_pos = max(range(len(pos_dist)), key=lambda i: (pos_dist[i], -i))
            attrs = {}
            labels = ["<NONE>"] + model.schema.attrs["Case"]
            dist = attribute_distribution(model, h, "Case")
            best = max(range(len(dist)), key=lambda i: (dist[i], -i))
            if best != 0:
                attrs["Case"] = labels[best]
            expected.append((model.schema.pos[best_pos], attrs))
        assert tag(model, s) == expected

    def test_predictions_stay_inside_training_inventory(self):
        model = tiny_model(seed=14)
        rng = np.random.default_rng(0)
        words = list(model.rep.table.words())
        for _ in range(20):
            forms = [words[rng.integers(0, len(words))] for _ in range(rng.integers(1, 5))]
            s = Sentence([Token(f, "A") for f in forms])
            for pos, attrs in tag(model, s):
                assert pos in model.schema.pos
                for attr, value in attrs.items():
                    assert value in model.schema.attrs[attr]


def small_split(rng, n_train=12, n_dev=3, n_stems=8, n_suffixes=3):
    stems = make_stems(rng, n_stems)
    train = suffix_sentences(rng, stems, n_train, n_suffixes)
    dev = suffix_sentences(rng, stems, n_dev, n_suffixes)
    return CorpusSplit(train, dev, []), stems


class TestTraining:
    def test_loss_decreases_on_suffix_language(self):
        rng = np.random.default_rng(0)
        split, stems = small_split(rng)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        cfg = TaggerTrainConfig(epochs=3, hidden=6, dropout=0.0, seed=1)
        model, trace = train_tagger(split, WordRepSpec("no-char", table), cfg)
        assert len(trace) == 6  # low-resource doubling
        assert trace[-1].train_loss < trace[0].train_loss
        pair_accuracy = trace[-1].dev_pos_accuracy
        assert 0.0 <= pair_accuracy <= 1.0

    def test_same_seed_identical_trace(self):
        rng = np.random.default_rng(1)
        split, stems = small_split(rng, n_train=6, n_dev=2)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        cfg = TaggerTrainConfig(epochs=1, hidden=4, seed=9)
        _, first = train_tagger(split, WordRepSpec("no-char", table), cfg)
        _, second = train_tagger(split, WordRepSpec("no-char", table), cfg)
        assert first == second

    def test_epoch_doubling_rule(self):
        assert effective_epochs(40, 5000) == 80
        assert effective_epochs(40, 5001) == 40
        assert effective_epochs(7, 120) == 14

    def test_empty_train_split_rejected(self):
        table = EmbeddingTable(2, [("x", np.zeros(2))], unk=np.zeros(2))
        with pytest.raises(ValueError):
            train_tagger(CorpusSplit([], [], []), WordRepSpec("no-char", table), TaggerTrainConfig())

    def test_pos_only_mode_drops_attribute_heads(self):
        rng = np.random.default_rng(2)
        split, stems = small_split(rng, n_train=4, n_dev=0)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        cfg = TaggerTrainConfig(epochs=1, hidden=4, pos_only=True, seed=0)
        model, _ = train_tagger(split, WordRepSpec("no-char", table), cfg)
        assert model.attr_heads == {}

    def test_archive_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(3)
        split, stems = small_split(rng, n_train=5, n_dev=2, n_suffixes=3)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        cfg = TaggerTrainConfig(epochs=1, hidden=4, seed=4)
        model, _ = train_tagger(split, WordRepSpec("no-char", table), cfg)
        path = str(tmp_path / "tagger.svm")
        model.save(path, extra_meta={"seed": 4})
        loaded = TaggerModel.load(path)
        for name, param in model.parameters().items():
            assert np.array_equal(loaded.parameters()[name].data, param.data), name
        probe = split.dev or split.train
        assert tag_corpus(loaded, probe) == tag_corpus(model, probe)

    def test_archive_round_trip_with_mimick_and_char_lstm(self, tmp_path):
        rng = np.random.default_rng(4)
        split, stems = small_split(rng, n_train=4, n_dev=1, n_suffixes=3)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        forms = [t.form for s in split.train for t in s.tokens]
        mimick = MimickModel(CharVocabulary.from_words(forms), dim=6, char_dim=3, hidden=4,
                             rng=np.random.default_rng(5))
        cfg = TaggerTrainConfig(epochs=1, hidden=4, char_dim=3, char_hidden=3, seed=6)
        model, _ = train_tagger(split, WordRepSpec("both", table, mimick), cfg)
        path = str(tmp_path / "tagger.svm")
        model.save(path)
        loaded = TaggerModel.load(path)
        unseen = Sentence([Token(stems[0] + "zz", "NOUN")])
        assert tag(loaded, unseen) == tag(model, unseen)
