import math
import pickle
import re

import numpy as np
import pytest

from synthetic import (
    assert_gradients_released,
    make_stems,
    naive_lstm,
    suffix_sentences,
    suffix_table,
    traced_bytes,
    watched_tapes,
)
from spellvec.archive import ArchiveError, load_archive, save_archive
from spellvec import nn
from spellvec import tagger as tagger_module
from spellvec.conllu import (
    AttributeSchema,
    CorpusSplit,
    SchemaError,
    Sentence,
    Token,
    build_schema,
)
from spellvec.embeddings import MIMICK_DIRECT, UNK_LOWERCASE, EmbeddingTable
from spellvec.mimick import CharVocabulary, MimickModel
from spellvec.nn import (
    DimensionError,
    MomentumSgd,
    Tape,
    Tensor,
    dropout_mask,
    gradient_check,
    length_slices,
)
from spellvec.tagger import (
    MIMICK_VARIANTS,
    POS_HEAD,
    VARIANTS,
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


def tiny_model(seed=0, dim=3, hidden=3, pos=("A", "B"), attrs=None, words=("aa", "bb", "cc"),
               forms=()):
    rng = np.random.default_rng(seed)
    table = tiny_table(rng, words, dim)
    schema = AttributeSchema(
        pos=list(pos),
        attrs=dict(attrs or {"Case": ["Acc", "Nom"]}),
        proportions={a: 0.5 for a in (attrs or {"Case": ["Acc", "Nom"]})},
    )
    rep = WordRepSpec("no-char", table)
    return TaggerModel(schema, rep, hidden=hidden, rng=rng, forms=forms)


def sentence(*forms_tags):
    return Sentence([Token(f, p, dict(a)) for f, p, a in forms_tags])


def straight_line_states(model, sentence):
    """Independent numpy evaluation of the two-layer BiLSTM."""

    def sweep(cell, xs):
        h = c = np.zeros(model.hidden)
        out = []
        for x in xs:
            h, c = naive_lstm(cell, x, h, c)
            out.append(h)
        return out

    def bilstm(fwd, bwd, xs):
        f = sweep(fwd, xs)
        b = sweep(bwd, xs[::-1])[::-1]
        return [np.concatenate(p) for p in zip(f, b)]

    reps = [model.word_vectors([t.form])[0] for t in sentence.tokens]
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

    def test_logits_near_a_thousand_stay_finite_and_a_shift_changes_nothing(self):
        model = tiny_model(seed=3)
        bias = model.attr_heads["Case"].b_w.data
        h = np.random.default_rng(4).normal(size=6)
        dist = attribute_distribution(model, h, "Case")
        bias += 17.5
        assert np.allclose(attribute_distribution(model, h, "Case"), dist, atol=1e-12)
        bias[:] = [1000.0, -1000.0, 999.0]
        dist = attribute_distribution(model, h, "Case")
        assert np.all(np.isfinite(dist)) and abs(dist.sum() - 1.0) <= 1e-12
        assert dist[0] > 0 and dist[2] > 0 and dist[1] < 1e-12

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            attribute_distribution(tiny_model(), np.zeros(6), "Tense")

    @pytest.mark.parametrize("shape", [(5,), (1, 6)])
    def test_a_state_of_another_shape_is_rejected(self, shape):
        with pytest.raises(DimensionError, match=rf"^state shape {re.escape(str(shape))}, expected \(6,\)$"):
            attribute_distribution(tiny_model(), np.zeros(shape), "Case")


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

    def test_an_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="^mode must be 'train' or 'eval', got 'test'$"):
            sentence_forward(tiny_model(), sentence(("aa", "A", {})), mode="test")

    def test_train_mode_with_dropout_needs_a_random_generator(self):
        with pytest.raises(ValueError, match="^train mode with dropout needs a random generator$"):
            sentence_forward(tiny_model(), sentence(("aa", "A", {})), mode="train", dropout=0.5)

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
            h, c = naive_lstm(cell, x, h, c)
            out.append(h)
        return out

    def bilstm(fwd, bwd, xs):
        return [np.concatenate(p) for p in zip(sweep(fwd, xs), sweep(bwd, xs[::-1])[::-1])]

    rng = np.random.default_rng(7)
    vectors = model.word_vectors([t.form for t in s.tokens])
    reps = [v * dropout_mask(model.width, 0.5, rng) for v in vectors]
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

    def test_an_unknown_loss_mode_is_rejected(self):
        with pytest.raises(ValueError, match="^loss mode must be 'sum' or 'weighted', got 'mean'$"):
            tiny_model().loss_on_tape(Tape(), sentence(("aa", "A", {})), mode="mean")

    def test_gold_value_outside_inventory_rejected(self):
        model = tiny_model()
        with pytest.raises(SchemaError):
            joint_loss(model, sentence(("aa", "A", {"Case": "Gen"})))
        with pytest.raises(SchemaError):
            joint_loss(model, sentence(("aa", "Z", {})))

    @pytest.mark.parametrize("mode", ["sum", "weighted"])
    def test_gradient_matches_finite_differences(self, mode):
        s = sentence(("aa", "A", {"Case": "Nom"}), ("bb", "B", {}))
        model = tiny_model(seed=9, forms=[token.form for token in s.tokens])
        params = model.parameters()

        def forward():
            tape = Tape()
            return tape, model.loss_on_tape(tape, s, mode)

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, report


class TestVariants:
    def test_the_optimizer_moves_rows_and_network_into_one_store(self):
        model = tiny_model(seed=4, forms=["bb", "aa", "bb"])
        network = {k: p.data.copy() for k, p in model.network_parameters().items()}
        params = model.parameters()
        MomentumSgd(params, lr=0.1, momentum=0.9)
        store, grads = model.embeddings.data.base, model.embeddings.grad.base
        assert store is not None and grads is not None
        assert all(p.data.base is store and p.grad.base is grads for p in params.values())
        assert store.size == grads.size == sum(p.data.size for p in params.values())
        for name, value in network.items():
            assert np.array_equal(params[name].data, value), name
        expected_rows = np.stack([model.rep.table.vector(w) for w in ("bb", "aa")])
        assert np.array_equal(params["rows"].data, expected_rows)

    def test_mimick_variant_initializes_oov_rows_from_mimick(self):
        rng = np.random.default_rng(0)
        table = tiny_table(rng, ["aa"], dim=3, with_unk=False)
        mimick = MimickModel(CharVocabulary("abz"), dim=3, char_dim=2, hidden=2, rng=rng)
        schema = AttributeSchema(["A"], {}, {})
        model = TaggerModel(schema, WordRepSpec("mimick", table, mimick), hidden=2, rng=rng,
                            forms=["zz", "aa"])
        assert np.array_equal(model.embeddings.data[model.rows["zz"]], mimick.forward("zz"))
        assert np.array_equal(model.embeddings.data[model.rows["aa"]], table.vector("aa"))

    def test_mimick_not_invoked_without_oov_tokens(self, monkeypatch):
        rng = np.random.default_rng(1)
        table = tiny_table(rng, ["aa", "bb"], dim=3, with_unk=False)
        mimick = MimickModel(CharVocabulary("ab"), dim=3, char_dim=2, hidden=2, rng=rng)
        calls = []
        original = mimick.forward_many
        monkeypatch.setattr(mimick, "forward_many", lambda ws: (calls.append(ws), original(ws))[1])
        schema = AttributeSchema(["A"], {}, {})
        model = TaggerModel(schema, WordRepSpec("mimick", table, mimick), hidden=2, rng=rng)
        tag(model, sentence(("aa", "A", {}), ("bb", "A", {})))
        assert calls == []
        model.word_vectors(["oops"])
        assert calls == [["oops"]]

    def counting_mimick_model(self, monkeypatch, forms):
        """A mimick-variant model over forms whose table holds only "aa", the
        word lists its Mimick is asked for, and the unpatched forward_many."""
        rng = np.random.default_rng(1)
        table = tiny_table(rng, ["aa"], dim=3, with_unk=False)
        mimick = MimickModel(CharVocabulary("az"), dim=3, char_dim=2, hidden=2, rng=rng)
        calls = []
        original = mimick.forward_many
        monkeypatch.setattr(mimick, "forward_many", lambda ws: (calls.append(ws), original(ws))[1])
        model = TaggerModel(AttributeSchema(["A"], {}, {}), WordRepSpec("mimick", table, mimick),
                            hidden=2, rng=rng, forms=forms)
        return model, calls, original

    def test_tag_infers_the_unseen_forms_of_a_sentence_in_one_call(self, monkeypatch):
        model, calls, original = self.counting_mimick_model(monkeypatch, ["aa"])
        s = sentence(("zz", "A", {}), ("aa", "A", {}), ("za", "A", {}), ("zz", "A", {}))
        expected = tape_tags(model, s)
        calls.clear()
        assert tag(model, s) == expected
        assert calls == [["zz", "za"]]

    def test_the_rows_infer_the_forms_outside_the_table_in_one_call(self, monkeypatch):
        model, calls, original = self.counting_mimick_model(
            monkeypatch, ["zz", "aa", "za", "zz", "az"]
        )
        assert calls == [["zz", "za", "az"]]
        for form in ("zz", "za", "az"):
            assert np.array_equal(model.embeddings.data[model.rows[form]], original([form])[0])

    def test_no_char_variant_backs_off_to_lowercase_then_unk(self):
        rng = np.random.default_rng(2)
        table = EmbeddingTable(
            2, [("dog", np.array([1.0, 0.0]))], unk=np.array([0.25, 0.25])
        )
        schema = AttributeSchema(["A"], {}, {})
        model = TaggerModel(schema, WordRepSpec("no-char", table), hidden=2, rng=rng)
        assert np.array_equal(model.word_vectors(["Dog"])[0], [1.0, 0.0])
        assert np.array_equal(model.word_vectors(["cat"])[0], [0.25, 0.25])

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
            rng=rng,
            forms=["aa", "bb"],
        )
        assert model.c2t.chars.chars == ["a", "b"]
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
            rng=rng,
            forms=["a", "aba"],
        )
        c2t = model.c2t

        def sweep(cell, xs):
            h = c = np.zeros(cell.hidden_size)
            states = []
            for x in xs:
                h, c = naive_lstm(cell, x, h, c)
                states.append(h)
            return states

        def representation(form):
            xs = [c2t.char_emb.data[i] for i in c2t.chars.encode(form)]
            ends = [sweep(c2t.fwd, xs)[-1], sweep(c2t.bwd, xs[::-1])[-1]]
            return np.concatenate([model.word_vectors([form])[0], *ends])

        s = sentence(("a", "A", {}), ("aba", "A", {}))
        reps = [representation(t.form) for t in s.tokens]
        forms = [t.form for t in s.tokens]
        tape = Tape()
        words = Tensor(model.word_vectors(forms)[None])
        got = tape.concat([words, c2t.forward_on_tape(tape, forms)])
        for form, row, expected in zip(forms, got.data[0], reps):
            assert np.allclose(row, expected, rtol=0.0, atol=1e-12), form
        # the same representations feed the sentence BiLSTM
        for fwd, bwd in ((model.l1f, model.l1b), (model.l2f, model.l2b)):
            reps = [np.concatenate(p) for p in zip(sweep(fwd, reps), sweep(bwd, reps[::-1])[::-1])]
        for got, expected in zip(sentence_forward(model, s), reps):
            assert np.allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_char2tag_batched_encodings_equal_the_tape(self):
        rng = np.random.default_rng(9)
        model = TaggerModel(
            AttributeSchema(["A"], {}, {}),
            WordRepSpec("char2tag", tiny_table(rng, ["ab"], dim=3)),
            hidden=2,
            char_dim=20,
            char_hidden=128,
            rng=rng,
            forms=list("abcdefg"),
        )
        # 1-15 characters with repeats; X and Y are unseen
        forms = ["".join(rng.choice(list("abcdefgXY"), size=int(n)))
                 for n in rng.integers(1, 16, 40)]
        forms += ["a", "aaaa", "XY"]
        encodings = model.c2t.encode_many(forms)
        on_tape = model.c2t.forward_on_tape(Tape(), forms).data[0]
        for form, encoding, row in zip(forms, encodings, on_tape, strict=True):
            assert np.array_equal(encoding, row), form
        # tagging reads them as one constant matrix, with the bits of the tape path
        s = Sentence([Token(form, "A", {}) for form in forms])
        on_tape = model.states_on_tape(Tape(), s).data[0]
        assert np.array_equal(np.stack(sentence_forward(model, s)), on_tape)

    @pytest.mark.parametrize("variant", ["char2tag", "both"])
    def test_a_sentence_record_has_the_gradient_bits_of_one_record_per_word(self, variant):
        rng = np.random.default_rng(11)
        table = tiny_table(rng, ["ab", "ba", "c"], dim=3)
        mimick = MimickModel(CharVocabulary("abcz"), dim=3, char_dim=2, hidden=3, rng=rng)
        schema = AttributeSchema(["A", "B"], {"Case": ["Nom"]}, {"Case": 1.0})
        forms = ["ab", "c", "abca", "ba", "ab", "acb", "cab"]
        model = TaggerModel(schema, WordRepSpec(variant, table, mimick), hidden=3, char_dim=4,
                            char_hidden=5, rng=rng, forms=forms)
        c2t = model.c2t
        # a repeated form, a one-letter form, an unseen character (z) and three lengths
        s = Sentence([Token(f, "AB"[len(f) % 2], {"Case": "Nom"} if "b" in f else {})
                      for f in ["ab", "c", "abza", "ab", "cab", "ba", "c"]])

        def gradients():
            params = model.parameters()
            for p in params.values():
                p.zero_grad()
            tape = Tape()
            loss = model.loss_on_tape(tape, s, "weighted", 0.5, np.random.default_rng(12))
            tape.backward(loss)
            return {name: p.grad.copy() for name, p in params.items()}

        got = gradients()
        with pytest.MonkeyPatch.context() as patch:
            # each word its own encode record, concatenated in sentence order
            patch.setattr(c2t, "forward_on_tape", lambda tape, words: tape.concat(
                [c2t.encode(tape, [[c2t.chars.encode(w)]]) for w in words], axis=1
            ))
            expected = gradients()
        assert list(got) == list(expected)
        for name, grad in got.items():
            assert np.array_equal(grad, expected[name]), name
        # the candidate gate's rows of the forward weight, 15 to 20 at char hidden 5
        assert np.any(got["c2t.char_emb"] != 0.0) and np.any(got["c2t.fwd.w"][15:] != 0.0)

    def test_a_training_step_starts_no_thread(self, two_thread_gate, monkeypatch):
        rng = np.random.default_rng(13)
        stems = make_stems(rng, 6)
        train = suffix_sentences(rng, stems, 2, n_suffixes=3)
        model = TaggerModel(
            build_schema(train), WordRepSpec("char2tag", suffix_table(rng, stems, 3, dim=4)),
            hidden=4, char_dim=3, char_hidden=128, rng=rng,
            forms=[t.form for s in train for t in s.tokens],
        )
        optimizer = MomentumSgd(model.parameters(), lr=0.01, momentum=0.9)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(nn.threading, "Thread", no_thread)
        for s in train:
            tape = Tape()
            loss = model.loss_on_tape(tape, s, dropout=0.5, rng=rng)
            optimizer.zero_grad()
            tape.backward(loss)
            optimizer.step()
        passes, _ = two_thread_gate
        assert passes == []
        assert np.all(np.isfinite(model.c2t.fwd.w.data))

    def test_predict_over_a_wide_corpus_equals_the_fused_predict(
        self, two_thread_gate, monkeypatch
    ):
        rng = np.random.default_rng(10)
        stems = make_stems(rng, 12)
        train = suffix_sentences(rng, stems, 8, n_suffixes=3)
        model = TaggerModel(
            build_schema(train), WordRepSpec("char2tag", suffix_table(rng, stems, 3, dim=4)),
            hidden=6, char_dim=3, char_hidden=7, rng=rng,
            forms=[t.form for s in train for t in s.tokens],
        )
        # unseen stems too, and more sentences than one packed pass takes
        unseen = stems + make_stems(rng, 4)
        corpus = suffix_sentences(rng, unseen, tagger_module.TAG_SLICE + 6, n_suffixes=3)
        passes, threaded = two_thread_gate
        predicted = model.predict(corpus)
        states = [s.data for _, s in model.packed_states(Tape(grad=False), corpus)]
        assert bool(passes) == threaded
        monkeypatch.setattr(nn, "TWO_THREAD_FLOATS", math.inf)
        assert predicted == model.predict(corpus)
        fused = [s.data for _, s in model.packed_states(Tape(grad=False), corpus)]
        assert all(np.array_equal(a, b) for a, b in zip(states, fused, strict=True))

    def test_variant_prerequisites_validated(self):
        rng = np.random.default_rng(4)
        no_unk = tiny_table(rng, ["aa"], with_unk=False)
        with pytest.raises(ValueError, match="UNK"):
            WordRepSpec("no-char", no_unk)
        with pytest.raises(ValueError, match="mimick"):
            WordRepSpec("mimick", no_unk)
        with pytest.raises(ValueError, match="variant"):
            WordRepSpec("fancy", no_unk)
        assert MIMICK_VARIANTS == ("mimick", "both")
        with pytest.raises(DimensionError, match="^model dimension 4 != table dimension 3$"):
            WordRepSpec("both", tiny_table(rng, ["aa"]), MimickModel(CharVocabulary("a"), 4))
        assert VARIANTS == ("no-char", "mimick", "char2tag", "both")

    @pytest.mark.parametrize("variant, policy, char2tag", [
        ("no-char", UNK_LOWERCASE, False),
        ("mimick", MIMICK_DIRECT, False),
        ("char2tag", UNK_LOWERCASE, True),
        ("both", MIMICK_DIRECT, True),
    ])
    def test_a_variant_is_its_lookup_policy_and_whether_char2tag_is_appended(
        self, monkeypatch, variant, policy, char2tag
    ):
        rng = np.random.default_rng(5)
        rep = WordRepSpec(variant, tiny_table(rng, ["aa"]), MimickModel(CharVocabulary("a"), 3))
        assert (variant in MIMICK_VARIANTS) == (policy == MIMICK_DIRECT)
        assert rep.uses_char_lstm is char2tag
        policies = []

        def spy(table, policy, words, mimick):
            policies.append(policy)
            return np.zeros((len(words), table.dim)), []

        monkeypatch.setattr(tagger_module, "lookup_many", spy)
        rep.vectors(["Aa"])
        assert policies == [policy]


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

    def test_the_last_training_record_is_released_before_dev_scoring(self, monkeypatch):
        rng = np.random.default_rng(1)
        split, stems = small_split(rng, n_train=4, n_dev=2)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        tapes, scored = watched_tapes(monkeypatch, tagger_module), []

        def scoring(model, sentences):
            # every recording tape, the epoch's last one included, is dead
            assert tapes and all(tape() is None for tape in tapes)
            scored.append(len(tapes))
            return tag_corpus(model, sentences)

        monkeypatch.setattr(tagger_module, "tag_corpus", scoring)
        train_tagger(split, WordRepSpec("no-char", table), TaggerTrainConfig(epochs=1, hidden=4, seed=9))
        # one recording tape per training sentence, two epochs by low-resource doubling
        assert scored == [4, 8]

    def test_epoch_doubling_rule(self):
        assert effective_epochs(40, 5000) == 80
        assert effective_epochs(40, 5001) == 40
        assert effective_epochs(7, 120) == 14

    @pytest.mark.parametrize("setting, message", [
        ({"loss_mode": "mean"}, "loss mode must be 'sum' or 'weighted', got 'mean'"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"dropout": 1.0}, r"dropout must be in \[0, 1\), got 1.0"),
        ({"dropout": -0.5}, r"dropout must be in \[0, 1\), got -0.5"),
    ])
    def test_a_setting_outside_its_range_is_rejected(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TaggerTrainConfig(**setting)

    def test_empty_train_split_rejected(self):
        table = EmbeddingTable(2, [("x", np.zeros(2))], unk=np.zeros(2))
        with pytest.raises(ValueError):
            train_tagger(CorpusSplit([], [], []), WordRepSpec("no-char", table), TaggerTrainConfig())

    @pytest.mark.filterwarnings("error")
    def test_non_finite_loss_stops_training_naming_epoch_and_sentence(self):
        rng = np.random.default_rng(1)
        split, stems = small_split(rng, n_train=6, n_dev=0)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        # the first update overflows the heads, so a later sentence's loss is not
        # finite; at lr 1e300 the saturated units keep this loss finite (~5e301)
        cfg = TaggerTrainConfig(epochs=1, hidden=4, lr=1e307, seed=9)
        with pytest.raises(ValueError) as caught:
            train_tagger(split, WordRepSpec("no-char", table), cfg)
        match = re.fullmatch(
            r"epoch 1: loss (?:inf|nan) on training sentence (\d) \(sent_id '(\w+)'\); "
            r"training diverged",
            str(caught.value),
        )
        assert match, str(caught.value)
        assert split.train[int(match[1])].sent_id == match[2]

    def test_archive_meta_without_a_key_names_file_and_key(self, tmp_path):
        rng = np.random.default_rng(3)
        split, stems = small_split(rng, n_train=3, n_dev=0, n_suffixes=3)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        model, _ = train_tagger(split, WordRepSpec("no-char", table),
                                TaggerTrainConfig(epochs=1, hidden=3, seed=4))
        path = tmp_path / "tagger.svm"
        model.save(str(path))
        manifest, tensors = load_archive(str(path))
        del manifest["meta"]["variant"]
        save_archive(str(path), "tagger", manifest["meta"], tensors)
        with pytest.raises(ArchiveError, match=re.escape(f"{path}: meta has no key 'variant'")):
            TaggerModel.load(str(path))

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

    @pytest.mark.parametrize("name", ["base", "rows"])
    def test_an_archive_without_the_base_or_rows_tensor_names_the_file(self, tmp_path, name):
        path = str(tmp_path / "tagger.svm")
        tiny_model().save(path)
        manifest, tensors = load_archive(path)
        del tensors[name]
        save_archive(path, "tagger", manifest["meta"], tensors)
        with pytest.raises(ArchiveError, match=f"^{re.escape(path)}: missing tensor '{name}'$"):
            TaggerModel.load(path)

    def test_a_rows_tensor_of_another_length_than_meta_rows_names_the_file(self, tmp_path):
        path = str(tmp_path / "tagger.svm")
        tiny_model(forms=["aa", "bb"]).save(path)
        manifest, tensors = load_archive(path)
        save_archive(path, "tagger", {**manifest["meta"], "rows": ["aa"]}, tensors)
        message = f"{path}: tensor 'rows' has shape (2, 3), expected (1, 3)"
        with pytest.raises(ArchiveError, match=f"^{re.escape(message)}$"):
            TaggerModel.load(path)

    @pytest.mark.parametrize("variant, change", [
        ("char2tag", {"c2t_chars": ["a", "b", "c"]}),
        ("char2tag", {"rows": ["aa", "bc"]}),
        ("no-char", {"c2t_chars": ["a", "b"]}),
    ], ids=["char-added", "rows-changed", "no-char-with-chars"])
    def test_c2t_chars_other_than_the_rows_characters_name_the_file(
        self, tmp_path, variant, change
    ):
        rng = np.random.default_rng(5)
        rep = WordRepSpec(variant, tiny_table(rng, ["aa"]))
        model = TaggerModel(AttributeSchema(["A"], {}, {}), rep, hidden=2, char_dim=2,
                            char_hidden=2, rng=rng, forms=["aa", "bb"])
        path = str(tmp_path / "tagger.svm")
        model.save(path)
        manifest, tensors = load_archive(path)
        save_archive(path, "tagger", {**manifest["meta"], **change}, tensors)
        message = "meta 'c2t_chars' are not the characters of meta 'rows'"
        with pytest.raises(ArchiveError, match=f"^{re.escape(path)}: .*{message}$"):
            TaggerModel.load(path)

    def test_loaded_base_table_is_the_saved_base_tensor(self, tmp_path):
        model = tiny_model(words=("aa", "bb", "cc", "dd"))
        path = str(tmp_path / "tagger.svm")
        model.save(path)
        _, tensors = load_archive(path)
        table = TaggerModel.load(path).rep.table
        assert table.matrix().tobytes() == tensors["base"].tobytes()
        assert table.words() == ["aa", "bb", "cc", "dd"]
        assert all(np.shares_memory(table.vector(w), table.matrix()) for w in table.words())
        assert table.unk.tobytes() == tensors["base_unk"].tobytes()

    @pytest.mark.parametrize("change, message", [
        ({"dim": 4}, "tensor 'base' is 3 wide, meta 'dim' is 4"),
        ({"base_words": ["aa", "bb"]}, "matrix has shape (4, 3), expected (2, d)"),
        ({"base_words": ["aa", "<UNK>", "cc", "dd"]}, "word '<UNK>' is reserved for the UNK vector"),
    ])
    def test_base_tensor_not_matching_meta_names_the_file(self, tmp_path, change, message):
        model = tiny_model(words=("aa", "bb", "cc", "dd"))
        path = str(tmp_path / "tagger.svm")
        model.save(path)
        manifest, tensors = load_archive(path)
        save_archive(path, "tagger", {**manifest["meta"], **change}, tensors)
        with pytest.raises(ArchiveError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            TaggerModel.load(path)

    def test_an_embedded_spelling_model_of_another_width_names_the_archive_once(self, tmp_path):
        rng = np.random.default_rng(4)
        rep = WordRepSpec("mimick", tiny_table(rng, ["aa"]), MimickModel(CharVocabulary("a"), 3))
        schema = AttributeSchema(pos=["A"], attrs={}, proportions={})
        path = str(tmp_path / "tagger.svm")
        TaggerModel(schema, rep, hidden=3, rng=rng).save(path)
        manifest, tensors = load_archive(path)
        mimick = {**manifest["meta"]["mimick"], "dim": 4}
        tensors.update({"mimick.o_t": np.zeros((4, mimick["hidden"])), "mimick.b_t": np.zeros(4)})
        meta = {**manifest["meta"], "mimick": mimick}
        save_archive(path, "tagger", meta, tensors)
        message = f"{path}: model dimension 4 != table dimension 3"
        with pytest.raises(ArchiveError, match=f"^{re.escape(message)}$"):
            TaggerModel.load(path)

    @pytest.mark.parametrize("prefix", ["c2t.", "mimick."])
    def test_a_no_char_archive_holding_another_variant_s_tensors_names_the_first(
        self, tmp_path, prefix
    ):
        rng = np.random.default_rng(6)
        table = tiny_table(rng, ["aa", "ab"])
        mimick = MimickModel(CharVocabulary("ab"), dim=3, char_dim=2, hidden=2, rng=rng)
        path, both = str(tmp_path / "no-char.svm"), str(tmp_path / "both.svm")
        for variant, where in (("no-char", path), ("both", both)):
            rep = WordRepSpec(variant, table, mimick if variant == "both" else None)
            TaggerModel(AttributeSchema(["A"], {}, {}), rep, hidden=2, char_dim=2, char_hidden=2,
                        rng=rng, forms=["aa", "ab"]).save(where)
        manifest, tensors = load_archive(path)
        assert manifest["meta"]["mimick"] is None
        tensors.update({k: a for k, a in load_archive(both)[1].items() if k.startswith(prefix)})
        save_archive(path, "tagger", manifest["meta"], tensors)
        message = f"{path}: unexpected tensor '{prefix}char_emb'"
        with pytest.raises(ArchiveError, match=f"^{re.escape(message)}$"):
            TaggerModel.load(path)

    @pytest.mark.parametrize("added, removed, message", [
        ("mimick.zzz", None, "unexpected tensor 'mimick.zzz'"),
        (None, "mimick.fwd.w_i", "missing tensor 'mimick.fwd.w_i'"),
    ], ids=["unexpected", "missing"])
    def test_an_embedded_spelling_model_tensor_is_named_as_the_archive_names_it(
        self, tmp_path, added, removed, message
    ):
        rng = np.random.default_rng(4)
        rep = WordRepSpec("mimick", tiny_table(rng, ["aa"]), MimickModel(CharVocabulary("a"), 3))
        path = str(tmp_path / "tagger.svm")
        TaggerModel(AttributeSchema(["A"], {}, {}), rep, hidden=3, rng=rng).save(path)
        manifest, tensors = load_archive(path)
        if added:
            tensors[added] = np.zeros(2)
        if removed:
            del tensors[removed]
        save_archive(path, "tagger", manifest["meta"], tensors)
        with pytest.raises(ArchiveError, match=f"^{re.escape(f'{path}: {message}')}$"):
            TaggerModel.load(path)

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


class TestTrainedModelMemory:
    """A trained tagger holds its values and no optimizer memory, and a new
    optimizer over it trains it again."""

    def trained(self):
        rng = np.random.default_rng(8)
        split, stems = small_split(rng, n_train=4, n_dev=1, n_suffixes=3)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        cfg = TaggerTrainConfig(epochs=1, hidden=4, char_dim=3, char_hidden=3, seed=8)
        model, _ = train_tagger(split, WordRepSpec("char2tag", table), cfg)
        return model, split

    def test_every_gradient_is_zero_and_its_own_memory(self):
        model, _ = self.trained()
        params = model.parameters()
        assert "rows" in params and "c2t.fwd.w" in params
        assert_gradients_released(params)

    def test_a_new_optimizer_over_a_trained_tagger_steps_it(self):
        model, split = self.trained()
        params = model.parameters()
        before = {name: p.data.copy() for name, p in params.items()}
        optimizer = MomentumSgd(params, lr=0.1, momentum=0.9)
        assert model.embeddings.data.base is optimizer._data
        tape = Tape()
        tape.backward(model.loss_on_tape(tape, split.train[0], "sum"))
        optimizer.step()
        assert np.any(model.embeddings.grad)
        for name in ("rows", "c2t.fwd.w", "head.POS.w_h"):
            assert not np.array_equal(params[name].data, before[name]), name

    def test_loading_a_tagger_adds_its_data_bytes_not_twice_that(self, tmp_path):
        path = str(tmp_path / "tagger.svm")
        tiny_model(hidden=64, forms=("aa", "bb")).save(path)
        model, grown = traced_bytes(lambda: TaggerModel.load(path))
        params = model.parameters()
        tensors = {id(p): p for p in params.values()}
        data = sum(t.data.nbytes for t in tensors.values()) + model.rep.table.matrix().nbytes
        assert data <= grown < 1.25 * data, (grown, data)
        assert_gradients_released(params)


class TestTrainedRows:
    """Only the training forms are trainable rows; other forms are read
    through the variant's lookup and never change the model."""

    def trained(self, variant, seed=5, n_dev=0):
        rng = np.random.default_rng(seed)
        split, stems = small_split(rng, n_train=4, n_dev=n_dev, n_suffixes=3)
        table = suffix_table(rng, stems, n_suffixes=3, dim=6)
        mimick = None
        if variant == "both":
            forms = [t.form for s in split.train for t in s.tokens]
            mimick = MimickModel(CharVocabulary.from_words(forms), dim=6, char_dim=3, hidden=4,
                                 rng=np.random.default_rng(seed))
        # every dev sentence also appears with forms that training never sees
        split.dev.extend(
            [Sentence([Token(t.form + "zz", t.upos, t.attrs) for t in s.tokens]) for s in split.dev]
        )
        cfg = TaggerTrainConfig(epochs=1, hidden=4, char_dim=3, char_hidden=3, seed=seed)
        model, _ = train_tagger(split, WordRepSpec(variant, table, mimick), cfg)
        return model, split

    @pytest.mark.parametrize("variant", ["no-char", "both"])
    def test_tagging_unseen_forms_leaves_the_model_unchanged(self, tmp_path, variant):
        model, split = self.trained(variant)
        before = tmp_path / "before.svm"
        model.save(str(before))
        n_rows = len(model.rows)
        params = {name: p.data.copy() for name, p in model.parameters().items()}
        unseen = [
            Sentence([Token(t.form + "zz", t.upos, t.attrs) for t in s.tokens] + s.tokens)
            for s in split.train
        ]
        first = tag_corpus(model, unseen)
        assert tag_corpus(model, unseen) == first
        assert len(model.rows) == n_rows
        assert model.parameters().keys() == params.keys()
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, params[name]), name
        after = tmp_path / "after.svm"
        model.save(str(after))
        assert after.read_bytes() == before.read_bytes()

    @pytest.mark.parametrize("variant", ["no-char", "both"])
    def test_archive_holds_exactly_the_training_forms(self, tmp_path, variant):
        model, split = self.trained(variant, seed=6, n_dev=2)
        train_forms = list(dict.fromkeys(t.form for s in split.train for t in s.tokens))
        dev_forms = {t.form for s in split.dev for t in s.tokens}
        assert dev_forms - set(train_forms)
        path = tmp_path / "tagger.svm"
        model.save(str(path))
        manifest, tensors = load_archive(str(path))
        assert manifest["meta"]["rows"] == train_forms
        assert tensors["rows"].shape == (len(train_forms), 6)
        assert np.array_equal(tensors["rows"], model.embeddings.data)

    def test_rows_meta_one_short_of_the_rows_tensor_names_the_file(self, tmp_path):
        model, _ = self.trained("no-char")
        path = tmp_path / "tagger.svm"
        model.save(str(path))
        manifest, tensors = load_archive(str(path))
        meta = manifest["meta"]
        meta["rows"] = meta["rows"][:-1]
        save_archive(str(path), "tagger", meta, tensors)
        with pytest.raises(ArchiveError, match=re.escape(f"{path}: tensor 'rows' has shape")):
            TaggerModel.load(str(path))

    def test_archive_with_untrained_rows_loads_and_tags_identically(self, tmp_path):
        # archives written before the rows were limited to training forms also
        # carry rows for dev forms, holding those forms' lookup vectors
        model, split = self.trained("no-char", seed=7, n_dev=2)
        path = tmp_path / "tagger.svm"
        model.save(str(path))
        manifest, tensors = load_archive(str(path))
        extra = [f for f in dict.fromkeys(t.form for s in split.dev for t in s.tokens)
                 if f not in model.rows]
        assert extra
        manifest["meta"]["rows"] += extra
        tensors["rows"] = np.vstack([tensors["rows"], model.rep.vectors(extra)])
        save_archive(str(path), "tagger", manifest["meta"], tensors)
        loaded = TaggerModel.load(str(path))
        assert len(loaded.rows) == len(model.rows) + len(extra)
        assert tag_corpus(loaded, split.dev) == tag_corpus(model, split.dev)

    def test_tag_corpus_infers_unseen_forms_in_one_batch(self, monkeypatch):
        model, split = self.trained("both", n_dev=2)
        mimick = model.rep.mimick
        batches = []
        original = mimick.forward_many
        monkeypatch.setattr(mimick, "forward_many",
                            lambda ws: (batches.append(ws), original(ws))[1])
        # forms that neither training nor its per-epoch dev tagging has read
        corpus = [Sentence([Token(t.form + "q", t.upos, t.attrs) for t in s.tokens])
                  for s in split.dev]
        forms = [t.form for s in corpus for t in s.tokens]
        unseen = [f for f in dict.fromkeys(forms)
                  if f not in model.rows and f not in model.rep.table]
        assert len(unseen) > 1
        first = tag_corpus(model, corpus)
        assert batches == [unseen]
        assert tag_corpus(model, corpus) == first
        assert batches == [unseen, unseen]
        for form in unseen:
            assert np.array_equal(model.word_vectors([form])[0], original([form])[0]), form

    def test_an_unseen_form_is_looked_up_once_per_call(self, monkeypatch):
        rng = np.random.default_rng(1)
        table = tiny_table(rng, ["aa"], dim=3, with_unk=False)
        mimick = MimickModel(CharVocabulary("az"), dim=3, char_dim=2, hidden=2, rng=rng)
        calls = []
        original = mimick.forward_many
        monkeypatch.setattr(mimick, "forward_many", lambda ws: (calls.append(ws), original(ws))[1])
        model = TaggerModel(AttributeSchema(["A"], {}, {}), WordRepSpec("mimick", table, mimick),
                            hidden=2, rng=rng, forms=["aa"])
        s = sentence(("zz", "A", {}), ("aa", "A", {}), ("zz", "A", {}))
        assert tag(model, s) == tag(model, s)
        assert calls == [["zz"], ["zz"]]
        assert np.array_equal(model.word_vectors(["zz"])[0], original(["zz"])[0])
        assert model.parameters()["rows"].data.shape == (1, 3)


def tape_tags(model, s):
    """Per-sentence tape oracle: the sentence's states on a tape, then the
    argmax of each head's logits on it, as tagging ran before it was batched."""
    tape = Tape()
    states = model.states_on_tape(tape, s)
    pos = np.argmax(model.pos_head.logits(tape, states).data[0], axis=1)
    choices = {
        attr: np.argmax(head.logits(tape, states).data[0], axis=1)
        for attr, head in model.attr_heads.items()
    }
    out = []
    for t in range(len(s.tokens)):
        attrs = {
            attr: model.schema.attrs[attr][index[t] - 1]
            for attr, index in choices.items()
            if index[t] != 0
        }
        out.append((model.schema.pos[pos[t]], attrs))
    return out


def mixed_corpus_model(variant, seed=21):
    """An untrained tagger at the default hidden sizes, and a shuffled corpus
    of 46 sentences: lengths 1-11 with repeats, a 1-token sentence, forms
    outside training and outside the table (some capitalised, some with
    characters training never saw)."""
    rng = np.random.default_rng(seed)
    stems = make_stems(rng, 10)
    table = suffix_table(rng, stems, dim=8)
    train = suffix_sentences(rng, stems[:6], 8)
    corpus = suffix_sentences(rng, stems, 40, min_len=1, max_len=12)
    corpus += [Sentence([Token(f, "NOUN", {"Case": "Nom"}) for f in forms]) for forms in (
        ["Qzan"], ["zzzk", stems[0] + "an", stems[1].upper() + "iv"], ["xyq"] * 4,
        [stems[7] + "ok", "Qzan", stems[0] + "an"], [stems[8] + "qq"] * 2, ["z"],
    )]
    corpus = [corpus[i] for i in rng.permutation(len(corpus))]
    mimick = None
    if variant in ("mimick", "both"):
        mimick = MimickModel(CharVocabulary.from_words(table.words()), dim=8, rng=rng)
    forms = [t.form for s in train for t in s.tokens]
    model = TaggerModel(build_schema(train), WordRepSpec(variant, table, mimick), rng=rng,
                        forms=forms)
    return model, corpus


class TestBatchedTagging:
    """Tagging runs a whole corpus through grad-free packed passes with the
    tape's bits: the same tags, states and distributions."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tag_corpus_equals_the_per_sentence_tape(self, variant):
        model, corpus = mixed_corpus_model(variant)
        assert len(corpus) >= 40 and min(len(s.tokens) for s in corpus) == 1
        assert any(t.form not in model.rows for s in corpus for t in s.tokens)
        tagged = tag_corpus(model, corpus)
        assert [s.sent_id for s in tagged] == [s.sent_id for s in corpus]
        for s, got in zip(corpus, tagged):
            assert [t.form for t in got.tokens] == [t.form for t in s.tokens]
            assert [(t.upos, t.attrs) for t in got.tokens] == tape_tags(model, s)
        assert tag(model, corpus[0]) == tape_tags(model, corpus[0])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_sentence_has_the_same_states_alone_and_in_the_corpus(self, monkeypatch, variant):
        model, corpus = mixed_corpus_model(variant)
        # several passes, a length split across two of them
        monkeypatch.setattr(tagger_module, "TAG_SLICE", 7)
        in_corpus = {}
        passes = list(model.packed_states(Tape(grad=False), corpus))
        for group, states in passes:
            in_corpus.update(zip(group, states.data))
        assert sorted(in_corpus) == list(range(len(corpus)))
        assert len(passes) > len({len(s.tokens) for s in corpus})
        for i, s in enumerate(corpus):
            ((_, alone),) = model.packed_states(Tape(grad=False), [s])
            assert np.array_equal(in_corpus[i], alone.data[0]), i
            assert np.array_equal(alone.data[0], model.states_on_tape(Tape(), s).data[0]), i
            assert np.array_equal(np.stack(sentence_forward(model, s)), alone.data[0]), i

    def test_a_corpus_is_encoded_once_per_call(self, monkeypatch):
        model, corpus = mixed_corpus_model("both")
        monkeypatch.setattr(tagger_module, "TAG_SLICE", 7)
        assert len(corpus) > tagger_module.TAG_SLICE
        forms = list(dict.fromkeys(t.form for s in corpus for t in s.tokens))
        # the passes share forms: encoding per pass would encode some twice
        passes = length_slices([len(s.tokens) for s in corpus], tagger_module.TAG_SLICE)
        per_pass = [{t.form for g in gs for i in g for t in corpus[i].tokens} for gs in passes]
        assert sum(map(len, per_pass)) > len(forms)
        batches = []
        original = model.c2t.encode_many
        monkeypatch.setattr(model.c2t, "encode_many",
                            lambda ws: (batches.append(ws), original(ws))[1])
        tagged = tag_corpus(model, corpus)
        assert batches == [forms]
        for s, got in zip(corpus, tagged):
            assert [(t.upos, t.attrs) for t in got.tokens] == tape_tags(model, s)
        tag_corpus(model, corpus)
        assert batches == [forms, forms]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tagging_builds_no_tape(self, monkeypatch, variant):
        """Tagging builds no recording tape: only grad-free ones."""
        model, corpus = mixed_corpus_model(variant)
        expected = [tape_tags(model, s) for s in corpus]
        grad_free = Tape.__init__

        def no_recording_tape(self, grad=True):
            if grad:
                raise AssertionError("tagging built a recording tape")
            grad_free(self, grad)

        monkeypatch.setattr(Tape, "__init__", no_recording_tape)
        tagged = tag_corpus(model, corpus)
        assert [[(t.upos, t.attrs) for t in s.tokens] for s in tagged] == expected
        assert tag(model, corpus[1]) == expected[1]
        h = np.stack(sentence_forward(model, corpus[2]))
        assert attribute_distribution(model, h[0], POS_HEAD).shape == (len(model.schema.pos),)

    def test_head_scores_equal_the_tape_logits(self):
        """Grad-free logits over packed states against the recording tape's."""
        model, corpus = mixed_corpus_model("no-char")
        heads = [model.pos_head, *model.attr_heads.values()]
        grad_free = Tape(grad=False)
        for group, states in model.packed_states(grad_free, corpus):
            scores = [head.logits(grad_free, states).data for head in heads]
            for b, i in enumerate(group):
                tape = Tape()
                on_tape = model.states_on_tape(tape, corpus[i])
                for head, got in zip(heads, scores):
                    assert np.array_equal(got[b], head.logits(tape, on_tape).data[0]), i

    def test_attribute_distribution_has_the_bits_of_the_written_out_softmax(self):
        model, corpus = mixed_corpus_model("no-char")
        for h in sentence_forward(model, corpus[0]):
            for attr, head in [(POS_HEAD, model.pos_head), *model.attr_heads.items()]:
                logits = head.logits(Tape(), Tensor(h)).data
                e = np.exp(logits - logits.max())
                assert np.array_equal(attribute_distribution(model, h, attr), e / e.sum()), attr

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tagging_writes_nothing_into_the_model(self, variant):
        model, corpus = mixed_corpus_model(variant)
        outside = [s for s in corpus if any(t.form not in model.rows for t in s.tokens)]
        assert len(outside) >= 3
        before = pickle.dumps(model)
        tag_corpus(model, corpus)
        for s in outside[:3]:
            tag(model, s)
            sentence_forward(model, s)
            sentence_forward(model, s, "train", rng=np.random.default_rng(0))
            joint_loss(model, s)
        assert pickle.dumps(model) == before

    def test_an_empty_sentence_is_rejected(self):
        model, corpus = mixed_corpus_model("no-char")
        empty = Sentence([])
        for run in (lambda: tag_corpus(model, corpus[:3] + [empty]), lambda: tag(model, empty),
                    lambda: sentence_forward(model, empty)):
            with pytest.raises(ValueError, match="cannot run the tagger on an empty sentence"):
                run()
