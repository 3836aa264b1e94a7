import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synthetic import assert_gradients_released, naive_lstm, watched_tapes
from spellvec import embeddings
from spellvec import mimick as mimick_module
from spellvec.archive import ArchiveError, load_archive, save_archive
from spellvec.embeddings import EmbeddingTable
from spellvec.mimick import (
    INFER_SLICE,
    CharVocabulary,
    MimickModel,
    MimickTrainConfig,
    NonFiniteOutputError,
    archive_tensors,
    infer_oov,
    mimick_loss,
    nearest_neighbors,
    restore_parameters,
    train_mimick,
)
from spellvec.nn import DimensionError, Tape, Tensor, gradient_check


def straight_line_forward(model, word):
    """Independent evaluation of the char BiLSTM + MLP for any word."""
    indices = model.chars.encode(word)
    h = c = np.zeros(model.hidden)
    for idx in indices:
        h, c = naive_lstm(model.fwd, model.char_emb.data[idx], h, c)
    hf = h
    h = c = np.zeros(model.hidden)
    for idx in reversed(indices):
        h, c = naive_lstm(model.bwd, model.char_emb.data[idx], h, c)
    z = np.concatenate([hf, h])
    return model.o_t.data @ np.tanh(model.t_h.data @ z + model.b_h.data) + model.b_t.data


def small_model(seed=0, dim=5, char_dim=3, hidden=4, chars="abcdefg"):
    rng = np.random.default_rng(seed)
    return MimickModel(CharVocabulary(chars), dim, char_dim, hidden, rng)


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        model = MimickModel(CharVocabulary("abc"), dim=4)
        assert np.array_equal(model.forward("abc"), np.zeros(4))

    @pytest.mark.parametrize("length", [1, 2, 40])
    def test_output_length_is_table_dimension(self, length):
        model = small_model()
        assert model.forward("a" * length).shape == (5,)

    def test_single_char_matches_straight_line_oracle(self):
        model = small_model(seed=3)
        got = model.forward("c")
        assert np.allclose(got, straight_line_forward(model, "c"), atol=1e-12)

    def test_multi_char_matches_straight_line_oracle(self):
        model = small_model(seed=4)
        got = model.forward("gface")
        assert np.allclose(got, straight_line_forward(model, "gface"), atol=1e-12)

    @pytest.mark.parametrize("char_dim", [0, -2])
    def test_a_char_dim_below_one_is_rejected_before_anything_is_drawn(self, char_dim):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DimensionError, match=f"char_dim must be positive, got {char_dim}"):
            MimickModel(CharVocabulary("abc"), dim=4, char_dim=char_dim, rng=rng)
        assert rng.bit_generator.state == state

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            small_model().forward("")

    def test_repeated_calls_agree_bitwise(self):
        model = small_model(seed=9)
        assert np.array_equal(model.forward("badge"), model.forward("badge"))

    def test_unseen_characters_collapse_to_unk(self):
        model = small_model()
        assert np.array_equal(model.forward("aXb"), model.forward("aZb"))
        assert np.array_equal(model.forward("XY"), model.forward("QQ"))

    def test_reversal_symmetry_under_swapped_parameters(self):
        model = small_model(seed=12)
        swapped = small_model(seed=12)
        swapped.fwd, swapped.bwd = swapped.bwd, swapped.fwd
        h = model.hidden
        swapped.t_h.data[...] = np.concatenate(
            [model.t_h.data[:, h:], model.t_h.data[:, :h]], axis=1
        )
        for word in ("a", "gab", "decaf"):
            assert np.allclose(swapped.forward(word[::-1]), model.forward(word), atol=1e-12)


class TestLoss:
    def test_perfect_prediction_is_zero(self):
        model = small_model(seed=5)
        out = model.forward("fad")
        assert mimick_loss(model, "fad", out) == 0.0

    @pytest.mark.parametrize("shape", [(4,), (6,), (1, 5)])
    def test_a_target_of_another_shape_is_rejected(self, shape):
        with pytest.raises(DimensionError, match=rf"^target shape {re.escape(str(shape))}, expected \(5,\)$"):
            mimick_loss(small_model(), "ab", np.zeros(shape))

    def test_direct_arithmetic(self):
        model = MimickModel(CharVocabulary("ab"), dim=2)  # all zeros, f(w) = 0
        model.b_t.data[:] = [1.0, 2.0]
        assert mimick_loss(model, "ab", np.zeros(2)) == pytest.approx(5.0)

    def test_gradient_matches_finite_differences_on_3_char_word(self):
        model = small_model(seed=6)
        target = np.random.default_rng(0).normal(size=5)
        indices = model.chars.encode("bad")

        def forward():
            tape = Tape()
            out = model.forward_on_tape(tape, [[indices]])
            return tape, tape.sum_squares(out, target[None, None])

        report = gradient_check(forward, model.parameters(), eps=1e-5, tol=1e-4)
        assert report.passed, report

    @pytest.mark.parametrize("word", ["a", "bad", "gabfedc", "zax"])
    def test_a_training_record_scores_what_mimick_loss_does_bit_for_bit(self, word):
        # the record train_mimick makes at unk_char_rate 0.0: no character dropped
        model = small_model(seed=9)
        target = np.random.default_rng(len(word)).normal(size=5)
        tape = Tape()
        out = model.forward_on_tape(tape, [[model.chars.encode(word)]])
        loss = tape.sum_squares(out, target[None, None])
        assert float(loss.data) == mimick_loss(model, word, target)


def char_count_table(rng, n_words, dim=8, alphabet="abcdef", scale=0.4):
    """Embeddings that are a fixed random linear function of character counts."""
    mix = rng.normal(size=(dim, len(alphabet))) * scale
    entries = []
    seen = set()
    while len(entries) < n_words:
        word = "".join(rng.choice(list(alphabet), size=rng.integers(3, 7)))
        if word in seen:
            continue
        seen.add(word)
        counts = np.array([word.count(c) for c in alphabet], dtype=float)
        entries.append((word, mix @ counts))
    return EmbeddingTable(dim, entries)


class TestTraining:
    def test_loss_drops_on_learnable_synthetic_target(self):
        table = char_count_table(np.random.default_rng(0), 40)
        cfg = MimickTrainConfig(char_dim=8, hidden=16, epochs=8, seed=1)
        model, trace = train_mimick(table, cfg)
        assert trace[-1].train_loss < 0.5 * trace[0].train_loss

    def test_dev_split_size_and_disjointness(self):
        table = char_count_table(np.random.default_rng(1), 200)
        cfg = MimickTrainConfig(char_dim=4, hidden=4, epochs=1, dev_fraction=0.01, seed=2)
        _, trace = train_mimick(table, cfg)
        assert not math.isnan(trace[0].dev_loss)  # round(0.01 * 200) = 2 dev words

    def test_same_seed_identical_trace(self):
        table = char_count_table(np.random.default_rng(2), 30)
        cfg = MimickTrainConfig(char_dim=4, hidden=6, epochs=3, dev_fraction=0.1, seed=7)
        _, first = train_mimick(table, cfg)
        _, second = train_mimick(table, cfg)
        assert first == second

    def test_the_last_training_record_is_released_before_dev_scoring(self, monkeypatch):
        table = char_count_table(np.random.default_rng(2), 30)
        tapes, scored, original = watched_tapes(monkeypatch, mimick_module), [], MimickModel.forward_many

        def scoring(model, words):
            # every recording tape, the epoch's last one included, is dead
            assert tapes and all(tape() is None for tape in tapes)
            scored.append(len(tapes))
            return original(model, words)

        monkeypatch.setattr(MimickModel, "forward_many", scoring)
        train_mimick(table, MimickTrainConfig(char_dim=4, hidden=4, epochs=2, dev_fraction=0.1, seed=7))
        # one recording tape per training word: 27 of the 30, 3 held out
        assert scored == [27, 54]

    def test_the_dev_loss_is_the_mean_of_mimick_loss_over_the_dev_words(self, monkeypatch):
        table = char_count_table(np.random.default_rng(4), 40)
        scored, original = [], MimickModel.forward_many

        def scoring(model, words):
            scored.append(list(words))
            return original(model, words)

        monkeypatch.setattr(MimickModel, "forward_many", scoring)
        cfg = MimickTrainConfig(char_dim=4, hidden=5, epochs=1, dev_fraction=0.1, seed=7)
        model, trace = train_mimick(table, cfg)
        monkeypatch.undo()
        [dev_words] = scored
        assert len(dev_words) == 4  # round(0.1 * 40)
        # at seed 7 the mean moves if a dev word's squared distance is summed
        # another way (math.fsum, exactly rounded): this pins the bits, not just the value
        losses = [mimick_loss(model, w, table.vector(w)) for w in dev_words]
        assert trace[0].dev_loss == np.mean(losses)

    @pytest.mark.parametrize("setting, message", [
        ({"epochs": 0}, r"epochs must be >= 1, got 0"),
        ({"dev_fraction": 0.5}, r"dev fraction must be in \[0, 0.5\), got 0.5"),
        ({"dev_fraction": -0.1}, r"dev fraction must be in \[0, 0.5\), got -0.1"),
        ({"dev_fraction": math.nan}, r"dev fraction must be in \[0, 0.5\), got nan"),
    ])
    def test_epochs_and_dev_fraction_outside_their_range_rejected(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MimickTrainConfig(**setting)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -0.2, 1.0, 1.5])
    def test_unk_char_rate_outside_zero_to_one_rejected(self, rate):
        # NaN or a negative rate would turn dropout off, a rate >= 1 make every character UNK
        with pytest.raises(ValueError, match=r"^unk char rate must be in \[0, 1\), got "):
            MimickTrainConfig(unk_char_rate=rate)
        assert MimickTrainConfig(unk_char_rate=0.0).unk_char_rate == 0.0

    def test_a_training_word_is_seven_tape_records(self):
        # as train_mimick builds it: char rows, BiLSTM, end states, MLP, loss
        model = small_model(seed=3)
        tape = Tape()
        out = model.forward_on_tape(tape, [[model.chars.encode("cafe")]])
        tape.sum_squares(out, np.ones((1, 1, model.dim)))
        assert len(tape) == 7

    def test_an_epoch_allocates_no_gradient_for_a_target(self, monkeypatch):
        # every tensor whose gradient is allocated (at its first use) during an epoch
        table = char_count_table(np.random.default_rng(6), 20, dim=3)
        allocated, first_use = [], Tensor.grad.fget

        def grad(tensor):
            if tensor._grad is None:
                allocated.append(tensor.data)
            return first_use(tensor)

        monkeypatch.setattr(Tensor, "grad", property(grad, Tensor.grad.fset))
        cfg = MimickTrainConfig(char_dim=2, hidden=3, epochs=1, dev_fraction=0.0, seed=5)
        train_mimick(table, cfg)
        # the model outputs' gradients among them, one per word
        assert len(allocated) >= len(table)
        assert not any(np.shares_memory(data, table.matrix()) for data in allocated)

    def test_a_trained_model_keeps_no_optimizer_gradient_and_stays_checkable(self):
        table = char_count_table(np.random.default_rng(5), 12, dim=3, alphabet="abc")
        cfg = MimickTrainConfig(char_dim=2, hidden=2, epochs=2, dev_fraction=0.0, seed=4)
        model, _ = train_mimick(table, cfg)
        params = model.parameters()
        assert_gradients_released(params)
        target, indices = np.ones(3), model.chars.encode("cab")

        def forward():
            tape = Tape()
            out = model.forward_on_tape(tape, [[indices]])
            return tape, tape.sum_squares(out, target[None, None])

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, report

    def test_tiny_vocabulary_rejected(self):
        table = EmbeddingTable(2, [("a", np.zeros(2))])
        with pytest.raises(ValueError):
            train_mimick(table, MimickTrainConfig(epochs=1))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_loss_stops_training_naming_epoch_and_word(self):
        rows = [("ab", np.ones(3)), ("cd", np.full(3, 1e200)), ("ef", np.zeros(3))]
        cfg = MimickTrainConfig(char_dim=2, hidden=3, epochs=2, dev_fraction=0.0, seed=0)
        with pytest.raises(ValueError, match="^epoch 1: loss inf on word 'cd'; training diverged$"):
            train_mimick(EmbeddingTable(3, rows), cfg)

    @pytest.mark.filterwarnings("error")
    def test_a_dev_vector_that_is_not_finite_stops_training(self):
        # one training word, whose one step at lr 1e308 overflows the weights
        table = EmbeddingTable(3, [("abc", np.ones(3)), ("bcd", np.full(3, -2.0))])
        cfg = MimickTrainConfig(char_dim=2, hidden=2, epochs=1, dev_fraction=0.4, lr=1e308)
        with pytest.raises(NonFiniteOutputError, match="^inferred vector for 'bcd' is not finite$"):
            train_mimick(table, cfg)

    def test_restoring_a_tensor_of_another_shape_names_the_file_and_tensor(self):
        model = small_model()
        tensors = {name: a.copy() for name, a in archive_tensors(model.parameters()).items()}
        tensors["o_t"] = np.zeros((4, 5))
        with pytest.raises(ArchiveError, match=(
            r"^m\.svm: tensor 'o_t' has shape \(4, 5\), expected \(5, 4\)$"
        )):
            restore_parameters("m.svm", small_model(seed=1).parameters(), tensors)

    @pytest.mark.parametrize("added, removed, message", [
        ("zzz", None, "unexpected tensor 'zzz'"),
        (None, "fwd.w_i", "missing tensor 'fwd.w_i'"),
    ], ids=["unexpected", "missing"])
    def test_an_archive_whose_tensors_are_not_the_parameters_names_the_file_and_tensor(
        self, tmp_path, added, removed, message
    ):
        path = str(tmp_path / "m.svm")
        small_model().save(path)
        manifest, tensors = load_archive(path)
        if added:
            tensors[added] = np.zeros(2)
        if removed:
            del tensors[removed]
        save_archive(path, "mimick", manifest["meta"], tensors)
        with pytest.raises(ArchiveError, match=f"^{re.escape(f'{path}: {message}')}$"):
            MimickModel.load(path)

    def test_archive_round_trip_bit_exact(self, tmp_path):
        model = small_model(seed=13)
        path = str(tmp_path / "m.svm")
        model.save(path, extra_meta={"seed": 13})
        loaded = MimickModel.load(path)
        for name, param in model.parameters().items():
            assert np.array_equal(loaded.parameters()[name].data, param.data)
        assert loaded.chars.chars == model.chars.chars
        assert np.array_equal(loaded.forward("cafe"), model.forward("cafe"))


def random_words(rng, count, alphabet="abcdefgXY"):
    """Words of 1-15 characters with repeats; X and Y are unseen by a model
    built on "abcdefg"."""
    return ["".join(rng.choice(list(alphabet), size=int(n))) for n in rng.integers(1, 16, count)]


class TestBatchedInference:
    """The grad-free packed pass gives every word the bits of the tape."""

    def test_rows_equal_the_tape(self):
        rng = np.random.default_rng(11)
        model = small_model(seed=4, dim=64, char_dim=20, hidden=50)
        words = random_words(rng, 40) + ["a", "aaaa", "XY"]
        encodings = model.encode_many(words)
        outputs = model.forward_many(words)
        assert encodings.shape == (len(words), 100)
        assert outputs.shape == (len(words), 64)
        for word, encoding, output in zip(words, encodings, outputs):
            indices = model.chars.encode(word)
            assert np.array_equal(encoding, model.encode(Tape(), [[indices]]).data[0, 0]), word
            assert np.array_equal(output, model.forward_on_tape(Tape(), [[indices]]).data[0, 0]), word

    def test_a_word_has_the_same_vector_in_any_batch(self):
        rng = np.random.default_rng(12)
        model = small_model(seed=5, dim=64, char_dim=20, hidden=50)
        mixed = random_words(rng, 30) + ["gadfly"]
        large = random_words(rng, 299) + ["gadfly"]
        rng.shuffle(large)
        alone = model.forward_many(["gadfly"])[0]
        assert np.array_equal(model.forward_many(mixed)[-1], alone)
        assert np.array_equal(model.forward_many(large)[large.index("gadfly")], alone)
        assert np.array_equal(model.encode_many(large)[large.index("gadfly")],
                              model.encode_many(["gadfly"])[0])

    def test_empty_batch(self):
        model = small_model()
        assert model.encode_many([]).shape == (0, 8)
        assert model.forward_many([]).shape == (0, 5)

    def test_infer_oov_over_several_slices_equals_forward(self):
        rng = np.random.default_rng(13)
        model = small_model(seed=6, dim=6, char_dim=4, hidden=5)
        words = list(dict.fromkeys(random_words(rng, 2 * INFER_SLICE + 40)))
        assert len(words) > INFER_SLICE
        ext = infer_oov(model, EmbeddingTable(6, [("ab", np.zeros(6))]), words)
        assert ext.words() == words
        for word in words:
            assert np.array_equal(ext.vector(word), model.forward(word)), word

    @pytest.mark.filterwarnings("error")
    def test_a_row_that_is_not_finite_names_the_first_such_word_and_the_archive(self, tmp_path):
        model = small_model(seed=9)
        model.t_h.data[...] = 0.0
        model.b_h.data[...] = 10.0
        model.o_t.data[0] = 1e308  # every word's first value overflows to inf
        message = "^inferred vector for '{}' is not finite$"
        with pytest.raises(NonFiniteOutputError, match=message.format("fed")):
            model.forward_many(["fed", "abcdefg", "a"])
        assert np.isfinite(model.encode_many(["fed", "abcdefg", "a"])).all()
        path = str(tmp_path / "m.svm")
        model.save(path)
        with pytest.raises(NonFiniteOutputError, match=f"^{re.escape(path)}: inferred vector for 'a' "):
            MimickModel.load(path).forward("a")
        # from the second character on, an inf input projection meets an -inf
        # recurrent product, and their sum is nan: a one-character word stays finite
        model.char_emb.data[...] = 2.0
        model.fwd.w.data[:, :3], model.fwd.w.data[:, 3:] = 1e308, -1e308
        with pytest.raises(NonFiniteOutputError, match=message.format("bc")):
            model.encode_many(["a", "bc", "def"])

    def test_forward_many_of_a_wide_list_equals_per_word_forward(self, two_thread_gate):
        rng = np.random.default_rng(14)
        model = small_model(seed=7, dim=6, char_dim=5, hidden=24)
        words = random_words(rng, INFER_SLICE + 20) + ["a", "XY"]
        passes, threaded = two_thread_gate
        rows = model.forward_many(words)
        assert bool(passes) == threaded
        for word, row in zip(words, rows):
            assert np.array_equal(row, model.forward(word)), word

    @pytest.mark.filterwarnings("error")
    def test_a_wide_pass_that_overflows_fails_once_and_warns_nothing(self, two_thread_gate):
        # only the forward direction, the worker's, overflows: an inf input
        # projection meets an -inf recurrent product from the second character on
        model = small_model(seed=10)
        model.char_emb.data[...] = 2.0
        model.fwd.w.data[:, :3], model.fwd.w.data[:, 3:] = 1e308, -1e308
        with pytest.raises(NonFiniteOutputError, match="^inferred vector for 'bc' is not finite$"):
            model.encode_many(["a", "bc", "def"])
        passes, threaded = two_thread_gate
        assert bool(passes) == threaded

    def test_empty_word_rejected_in_a_batch(self):
        model = small_model()
        table = EmbeddingTable(5, [("ab", np.zeros(5))])
        with pytest.raises(ValueError, match="empty word"):
            infer_oov(model, table, ["abc", "", "de"])


class TestInferOov:
    def test_empty_request(self):
        model = small_model()
        table = EmbeddingTable(5, [("ab", np.zeros(5))])
        assert len(infer_oov(model, table, [])) == 0

    def test_matches_forward_coordinatewise(self):
        model = small_model(seed=8)
        table = EmbeddingTable(5, [("ab", np.zeros(5))])
        ext = infer_oov(model, table, ["fed", "ab"])
        assert np.array_equal(ext.vector("fed"), model.forward("fed"))
        assert np.array_equal(ext.vector("ab"), model.forward("ab"))

    def test_dimension_mismatch_rejected(self):
        model = small_model()
        with pytest.raises(Exception, match="dimension"):
            infer_oov(model, EmbeddingTable(3, [("x", np.zeros(3))]), ["y"])


class TestNearestNeighbors:
    def test_the_search_lives_with_the_table_and_keeps_its_name_here(self):
        assert nearest_neighbors is embeddings.nearest_neighbors

    def test_query_equal_to_table_vector_ranks_itself_first(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(4, [(f"w{i}", rng.normal(size=4)) for i in range(10)])
        word, sim = nearest_neighbors(table, table.vector("w3"), k=1)[0]
        assert word == "w3"
        assert abs(sim - 1.0) <= 1e-12

    def test_orthogonal_vectors_have_zero_similarity(self):
        table = EmbeddingTable(2, [("x", np.array([1.0, 0.0])), ("y", np.array([0.0, 1.0]))])
        ranked = dict(nearest_neighbors(table, np.array([1.0, 0.0]), k=2))
        assert ranked["y"] == 0.0

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(4)
        table = EmbeddingTable(6, [(f"w{i}", rng.normal(size=6)) for i in range(100)])
        query = rng.normal(size=6)
        got = nearest_neighbors(table, query, k=5)

        def cosine(u, v):
            return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

        scored = [(w, cosine(query, v)) for w, v in table.items()]
        expected = sorted(scored, key=lambda p: -p[1])[:5]
        assert [w for w, _ in got] == [w for w, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert abs(a - b) <= 1e-12

    def test_zero_norm_table_vector_ranks_last(self):
        table = EmbeddingTable(
            2, [("zero", np.zeros(2)), ("x", np.array([1.0, 0.0])), ("y", np.array([-1.0, 0.0]))]
        )
        ranked = nearest_neighbors(table, np.array([1.0, 0.0]), k=3)
        assert ranked[-1][0] == "zero"
        assert ranked[-1][1] == -np.inf

    def test_huge_and_tiny_rows_score_their_true_cosine(self):
        table = EmbeddingTable(2, [("a", np.array([1.0, 0.0])), ("b", np.array([1e200, 1e200])),
                                   ("c", np.zeros(2)), ("d", np.array([-1e-200, 1e-200]))])
        with np.errstate(all="raise"):
            ranked = nearest_neighbors(table, np.array([1.0, 0.0]), k=4)
            assert ranked == [("a", 1.0), ("b", pytest.approx(2 ** -0.5, rel=1e-15)),
                              ("d", pytest.approx(-(2 ** -0.5), rel=1e-15)), ("c", -np.inf)]
            assert nearest_neighbors(table, np.array([1e300, 1e300]), k=1) == [("b", 1.0)]
            # b's norm, scaled by the power of two that brings 1e200 into [0.5, 1)
            norm = np.ldexp(table._screen[1][1], np.frexp(1e200)[1])
            assert norm == pytest.approx(2 ** 0.5 * 1e200, rel=1e-15)

    @pytest.mark.parametrize("shape", [(3,), (1, 2)])
    def test_a_query_of_another_shape_is_rejected(self, shape):
        table = EmbeddingTable(2, [("a", np.ones(2)), ("b", np.zeros(2))])
        with pytest.raises(DimensionError, match=rf"^query shape {re.escape(str(shape))}, expected \(2,\)$"):
            nearest_neighbors(table, np.ones(shape), 1)

    def test_zero_query_rejected(self):
        table = EmbeddingTable(2, [("x", np.array([1.0, 0.0]))])
        with pytest.raises(ValueError):
            nearest_neighbors(table, np.zeros(2), k=1)

    def test_a_query_of_subnormals_ranks_like_its_scaled_copy(self):
        rng = np.random.default_rng(9)
        table = EmbeddingTable(2, [(f"w{i}", rng.normal(size=2)) for i in range(20)])
        tiny = nearest_neighbors(table, np.array([5e-324, 0.0]), k=20)
        scaled = nearest_neighbors(table, np.array([1.0, 0.0]), k=20)
        assert [w for w, _ in tiny] == [w for w, _ in scaled]
        assert np.array([s for _, s in tiny]).tobytes() == np.array([s for _, s in scaled]).tobytes()

    def test_a_query_of_negative_zeros_is_rejected(self):
        table = EmbeddingTable(2, [("x", np.array([1.0, 0.0]))])
        with pytest.raises(ValueError, match="^query vector must be non-zero$"):
            nearest_neighbors(table, np.array([-0.0, -0.0]), k=1)

    def test_k_beyond_the_non_zero_rows_ranks_every_zero_row_last(self):
        # the k-th screened score is -inf: the one query whose candidates hold
        # zero rows, each scoring 0 / 0 without a floating-point error
        table = EmbeddingTable(2, [("z0", np.zeros(2)), ("x", np.array([1.0, 1.0])),
                                   ("z1", np.zeros(2)), ("y", np.array([-1.0, 0.0]))])
        with np.errstate(all="raise"):
            ranked = nearest_neighbors(table, np.array([1.0, 0.0]), k=3)
            assert ranked == [("x", pytest.approx(2 ** -0.5, rel=1e-15)), ("y", -1.0), ("z0", -np.inf)]
            ranked = nearest_neighbors(table, np.array([1.0, 0.0]), k=4)
            assert [word for word, _ in ranked] == ["x", "y", "z0", "z1"]
            assert [sim for _, sim in ranked[2:]] == [-np.inf, -np.inf]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        table = EmbeddingTable(2, [("zero", np.zeros(2)), ("x", np.array([1.0, 0.0]))])
        with pytest.raises(ValueError, match="^query vector must be finite$"):
            nearest_neighbors(table, np.array([bad, 1.0]), k=2)

    def test_k_out_of_range_rejected(self):
        table = EmbeddingTable(2, [("x", np.array([1.0, 0.0]))])
        with pytest.raises(ValueError):
            nearest_neighbors(table, np.array([1.0, 0.0]), k=2)

    def test_duplicate_row_ties_in_table_order(self):
        for dim in range(2, 80):
            rows = np.random.default_rng(0).normal(size=(100, dim))
            entries = [(f"w{i}", row) for i, row in enumerate(rows)] + [("copy", rows[0])]
            table = EmbeddingTable(dim, entries)
            ranked = nearest_neighbors(table, rows[0], k=len(table))
            order = [word for word, _ in ranked]
            scores = dict(ranked)
            assert order.index("w0") < order.index("copy"), dim
            assert scores["w0"] == scores["copy"], dim

    def test_duplicate_row_tie_on_the_kth_place(self):
        # the copies come after the rows they tie with, so only table order
        # puts them after w0 when the k-th place falls among the tied rows
        rows = np.random.default_rng(5).normal(size=(10, 6))
        entries = [(f"w{i}", row) for i, row in enumerate(rows)]
        table = EmbeddingTable(6, entries + [("copy", rows[0]), ("copy2", rows[0])])
        full = nearest_neighbors(table, rows[0], k=len(table))
        for k, expected in [(1, ["w0"]), (2, ["w0", "copy"]), (3, ["w0", "copy", "copy2"])]:
            ranked = nearest_neighbors(table, rows[0], k=k)
            assert [word for word, _ in ranked] == expected
            assert ranked == full[:k]
            assert len({sim for _, sim in ranked}) == 1


def full_sort_ranking(table, query, k):
    """The first k of a full stable sort of the same similarities: the
    straight-line reference for nearest_neighbors' selection."""
    rows, norms, _, _ = table._screen
    query = np.ldexp(query, -np.frexp(np.abs(query).max())[1])
    sims = np.full(len(table), -np.inf)
    nonzero = norms > 0.0
    dots = np.einsum("ij,j->i", rows, query)
    sims[nonzero] = dots[nonzero] / (norms[nonzero] * np.linalg.norm(query))
    words = table.words()
    return [(words[i], float(sims[i])) for i in np.argsort(-sims, kind="stable")[:k]]


# few distinct values, so rows repeat and scores tie; huge ones would overflow
# unscaled norms and dot products
VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1e200, -1e300]) | st.floats(-4.0, 4.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_selection_equals_full_stable_sort(data):
    dim = data.draw(st.integers(1, 4))
    row = st.lists(VALUES, min_size=dim, max_size=dim)
    distinct = data.draw(st.lists(row, min_size=1, max_size=6))
    # each row a zero row or a draw, with repeats, from a few distinct ones
    picks = data.draw(st.lists(st.integers(-1, len(distinct) - 1), min_size=1, max_size=25))
    rows = [np.zeros(dim) if p < 0 else np.array(distinct[p]) for p in picks]
    table = EmbeddingTable(dim, [(f"w{i}", r) for i, r in enumerate(rows)])
    query = np.array(data.draw(row))
    k = data.draw(st.integers(1, len(table)))
    assume(np.any(query != 0.0))
    with np.errstate(over="raise", invalid="raise"):
        got = nearest_neighbors(table, query, k)
        expected = full_sort_ranking(table, query, k)
    assert [w for w, _ in got] == [w for w, _ in expected]
    assert np.array([s for _, s in got]).tobytes() == np.array([s for _, s in expected]).tobytes()


def screen_table(rng, dim, size, order="C"):
    """A table of `size` rows holding exact duplicates, a row one ulp from
    another, zero rows, rows beyond 2**500 and below 2**-500, and a cluster
    around row 0 whose cosines with it differ by less than float32 resolves."""
    rows = rng.normal(size=(size, dim))
    rows[10:60] = rows[0] + 1e-6 * rng.normal(size=(50, dim))
    picks = rng.integers(0, size, size=(2, size // 10))
    rows[picks[0]] = rows[picks[1]]
    rows[1] = np.nextafter(rows[0], np.inf)
    rows[rng.integers(0, size, size=5)] = 0.0
    rows[rng.integers(0, size, size=5)] *= 2.0**600
    rows[rng.integers(0, size, size=5)] *= 2.0**-600
    matrix = np.asfortranarray(rows) if order == "F" else rows
    return EmbeddingTable.over([f"w{i}" for i in range(size)], matrix)


@pytest.mark.parametrize("dim", [1, 8, 64, 300])
def test_screened_selection_has_the_bits_of_the_full_stable_sort(dim):
    # the float32 screen decides only which rows get the exact similarity:
    # every k, from one row to the whole table, keeps the full sort's bits
    rng = np.random.default_rng(dim)
    for size, order in [(1000, "C"), (2500, "F"), (5000, "C")]:
        table = screen_table(rng, dim, size, order)
        rows = table.matrix()
        queries = [rows[0], rows[2], rng.normal(size=dim), rows[3] + 1e-9 * rng.normal(size=dim)]
        with np.errstate(over="raise", invalid="raise"):
            for query in queries:
                for k in (1, 10, size - 1, size):
                    got = nearest_neighbors(table, query, k)
                    expected = full_sort_ranking(table, query, k)
                    assert [w for w, _ in got] == [w for w, _ in expected], (size, k)
                    assert (np.array([s for _, s in got]).tobytes()
                            == np.array([s for _, s in expected]).tobytes()), (size, k)
        # the norms, taken a block of rows at a time, have the bits of one call
        screened_rows, norms, _, _ = table._screen
        assert norms.tobytes() == np.linalg.norm(screened_rows, axis=1).tobytes()
        # exactly the rows beyond 2**±500 are scaled, each into [0.5, 1)
        exponents = np.frexp(np.abs(rows).max(axis=1))[1]
        scaled = np.abs(exponents) > 500
        assert np.array_equal(screened_rows[~scaled], rows[~scaled])
        unscaled = np.ldexp(screened_rows[scaled], exponents[scaled, None])
        assert np.array_equal(unscaled, rows[scaled])


class TestScreen:
    def test_the_screen_is_built_once_per_table(self):
        rng = np.random.default_rng(6)
        table = screen_table(rng, 16, 300)
        assert "_screen" not in vars(table)
        nearest_neighbors(table, rng.normal(size=16), k=3)
        screen = table._screen
        nearest_neighbors(table, rng.normal(size=16), k=7)
        assert table._screen is screen
        # the unit rows in float32; a zero row stays zero
        rows, norms, unit32, zero_norm = screen
        assert unit32.dtype == np.float32 and unit32.shape == rows.shape
        units = rows / np.where(norms == 0, 1.0, norms)[:, None]
        assert np.array_equal(unit32, units.astype(np.float32))
        assert np.array_equal(zero_norm, np.flatnonzero(norms == 0))

    def test_the_first_query_makes_no_float64_copy_of_the_table(self):
        # no row needs scaling, so the table is not copied for that either
        rows = np.random.default_rng(7).normal(size=(20_000, 64))
        table = EmbeddingTable.over([f"w{i}" for i in range(len(rows))], rows)
        screen_bytes = rows.size * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nearest_neighbors(table, rows[5], k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table itself is 10 MB; the screen and a query's temporaries are not
        assert peak - before < 1.5 * screen_bytes
