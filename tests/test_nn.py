import io
import math
import os
import sys
import threading
import time
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthetic import (
    assert_gradients_released,
    naive_lstm,
    traced_bytes,
    traced_peak,
    two_thread_passes,
)
from spellvec import nn
from spellvec.nn import (
    DimensionError,
    LstmCellParams,
    MomentumSgd,
    Tape,
    Tensor,
    dropout_mask,
    gradient_check,
    length_slices,
    lstm_step,
    sigmoid,
)


def naive_affine(w, x, b):
    """Triple-loop matrix-vector product, independent of the tape path."""
    m, n = w.shape
    out = [0.0] * m
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += w[i][j] * x[j]
        out[i] = acc + b[i]
    return np.array(out)


class TestAffine:
    def test_zero_weights(self):
        t = Tape()
        out = t.affine(Tensor(np.zeros((3, 2))), Tensor([5.0, -7.0]), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, np.zeros(3))

    def test_identity_plus_bias(self):
        t = Tape()
        out = t.affine(Tensor(np.eye(2)), Tensor([2.0, 3.0]), Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [3.0, 4.0])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        w, x, b = rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=3)
        t = Tape()
        out = t.affine(Tensor(w), Tensor(x), Tensor(b))
        assert np.allclose(out.data, naive_affine(w, x, b), rtol=0, atol=1e-14)

    def test_shape_mismatch_names_shapes(self):
        t = Tape()
        with pytest.raises(DimensionError, match=r"\(3, 4\)"):
            t.affine(Tensor(np.zeros((3, 4))), Tensor(np.zeros(5)), Tensor(np.zeros(3)))


class TestLstmStep:
    def test_all_zero_params(self):
        cell = LstmCellParams(3, 2)
        t = Tape()
        h, c = lstm_step(t, cell, Tensor([1.0, -1.0, 2.0]), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        assert np.array_equal(h.data, np.zeros(2))
        assert np.array_equal(c.data, np.zeros(2))

    def test_forget_gate_carry_hand_evaluation(self):
        # zero weights, forget bias +10: c = sigmoid(10) * c_prev, h = 0.5 * tanh(c)
        cell = LstmCellParams(2, 2)
        cell.b.data[2:4] = 10.0  # the forget gate's rows
        v = np.array([0.4, -1.2])
        t = Tape()
        h, c = lstm_step(t, cell, Tensor([0.0, 0.0]), Tensor(np.zeros(2)), Tensor(v))
        s10 = 1.0 / (1.0 + math.exp(-10.0))
        assert np.allclose(c.data, s10 * v, atol=1e-15)
        assert np.allclose(h.data, 0.5 * np.tanh(s10 * v), atol=1e-15)

    def test_random_instance_matches_straight_line_oracle(self):
        rng = np.random.default_rng(11)
        cell = LstmCellParams(4, 3, rng)
        x, h0, c0 = rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)
        t = Tape()
        h, c = lstm_step(t, cell, Tensor(x), Tensor(h0), Tensor(c0))
        eh, ec = naive_lstm(cell, x, h0, c0)
        assert np.allclose(h.data, eh, atol=1e-12)
        assert np.allclose(c.data, ec, atol=1e-12)

    def test_size_mismatch(self):
        cell = LstmCellParams(3, 2)
        t = Tape()
        with pytest.raises(DimensionError):
            lstm_step(t, cell, Tensor(np.zeros(4)), Tensor(np.zeros(2)), Tensor(np.zeros(2)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = Tensor([1.0, 2.0, 3.0])
        t = Tape()
        t.backward(t.sum(p))
        assert np.array_equal(p.grad, np.ones(3))

    def test_sum_squares_gradient(self):
        p = Tensor([1.0, -2.0])
        t = Tape()
        t.backward(t.sum_squares(p))
        assert np.array_equal(p.grad, [2.0, -4.0])

    def test_non_scalar_loss_rejected(self):
        p = Tensor([1.0, 2.0])
        t = Tape()
        out = t.mul_const(p, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            t.backward(out)

    def test_unreachable_parameter_keeps_zero_grad(self):
        p = Tensor([1.0, 2.0])
        q = Tensor([3.0])
        t = Tape()
        t.backward(t.sum(p))
        assert np.array_equal(q.grad, np.zeros(1))

    def test_fanout_accumulates(self):
        # loss = sum(p) + sum(p) -> gradient 2 everywhere
        p = Tensor([1.0, 1.0])
        t = Tape()
        s = t.sum(p)
        t.backward(t.add_n([s, s]))
        assert np.array_equal(p.grad, [2.0, 2.0])


OP_CASES = {
    "mul": lambda t, ps: t.sum_squares(t.mul(ps[0], ps[1])),
    "scale": lambda t, ps: t.sum_squares(t.mul_const(ps[0], -1.7)),
    "mul_const": lambda t, ps: t.sum_squares(t.mul_const(ps[0], np.array([0.0, 2.0, 0.5, 2.0]))),
    "add_n": lambda t, ps: t.sum_squares(t.add_n([ps[0], ps[1]])),
    "concat": lambda t, ps: t.sum_squares(t.concat([ps[0], ps[1], ps[3]])),
    "tanh": lambda t, ps: t.sum_squares(t.tanh(ps[0])),
    "sigmoid": lambda t, ps: t.sum_squares(t.sigmoid(ps[0])),
    "log_softmax": lambda t, ps: t.sum_squares(t.log_softmax(ps[0])),
    "sum": lambda t, ps: t.sum(ps[0]),
    "sum_squares": lambda t, ps: t.sum_squares(ps[0]),
    "sum_squares_target": lambda t, ps: t.sum_squares(ps[0], np.array([0.3, -1.2, 0.0, 2.5])),
    "affine2": lambda t, ps: t.sum_squares(t.affine(ps[2], ps[0], ps[3])),
}


@pytest.mark.parametrize("op", OP_CASES)
def test_gradients_match_finite_differences_100_instances(op):
    """Every differentiable op, 100 random instances each: the same 100 every
    run, since the seed is a stable hash of the op's name (hash() of a str is
    salted per process)."""
    build = OP_CASES[op]
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    for _ in range(100):
        params = {
            "a": Tensor(rng.normal(size=4)),
            "b": Tensor(rng.normal(size=4)),
            "w": Tensor(rng.normal(size=(3, 4))),
            "bias": Tensor(rng.normal(size=3)),
        }
        ps = list(params.values())

        def forward():
            t = Tape()
            return t, build(t, ps)

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, f"{op}: {report}"


def test_lstm_step_gradient_100_instances():
    rng = np.random.default_rng(99)
    for _ in range(100):
        cell = LstmCellParams(3, 2, rng)
        params = cell.parameters()
        params["x"] = Tensor(rng.normal(size=3))
        params["h0"] = Tensor(rng.normal(size=2))
        params["c0"] = Tensor(rng.normal(size=2))

        def forward():
            t = Tape()
            h, c = lstm_step(t, cell, params["x"], params["h0"], params["c0"])
            return t, t.add_n([t.sum_squares(h), t.sum_squares(c)])

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, report


class TestGradientCheck:
    def test_affine_only_model_is_essentially_exact(self):
        rng = np.random.default_rng(5)
        params = {
            "w": Tensor(rng.normal(size=(3, 4))),
            "b": Tensor(rng.normal(size=3)),
        }
        x = Tensor(rng.normal(size=4))

        def forward():
            t = Tape()
            return t, t.sum(t.affine(params["w"], x, params["b"]))

        report = gradient_check(forward, params)
        assert report.max_rel_error < 1e-8

    def test_report_names_offending_parameter(self):
        p = Tensor([1.0])
        q = Tensor([2.0])

        def forward():
            t = Tape()
            # deliberately wrong gradient: backward of this op omits q
            out = Tensor(np.asarray(p.data[0] * q.data[0]))

            def backward(g):
                p.grad += g * q.data[0]

            t._records.append((out, backward))
            return t, out

        report = gradient_check(forward, {"p": p, "q": q})
        assert not report.passed
        assert report.worst_param == "q"


class TestMomentumSgd:
    def test_zero_momentum_is_vanilla_sgd(self):
        p = Tensor([1.0, 2.0])
        opt = MomentumSgd({"p": p}, lr=0.1, momentum=0.0)
        p.grad[:] = [0.5, -1.0]
        opt.step()
        assert np.allclose(p.data, [1.0 - 0.05, 2.0 + 0.1], atol=1e-15)

    def test_velocity_accumulates(self):
        p = Tensor([0.0])
        opt = MomentumSgd({"p": p}, lr=1.0, momentum=0.5)
        p.grad[:] = 1.0
        opt.step()  # v = 1, p = -1
        opt.step()  # v = 1.5, p = -2.5
        assert np.allclose(p.data, [-2.5], atol=1e-15)

    def test_seeded_training_step_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            cell = LstmCellParams(3, 2, rng)
            opt = MomentumSgd(cell.parameters(), lr=0.01, momentum=0.9)
            x = Tensor(rng.normal(size=3))
            for _ in range(3):
                opt.zero_grad()
                t = Tape()
                h, c = lstm_step(t, cell, x, Tensor(np.zeros(2)), Tensor(np.zeros(2)))
                t.backward(t.sum_squares(h))
                opt.step()
            return {k: v.data.copy() for k, v in cell.parameters().items()}

        first, second = run(), run()
        for k in first:
            assert np.array_equal(first[k], second[k])

    def test_invalid_hyperparameters(self):
        p = Tensor([0.0])
        for lr in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning rate must be positive and finite"):
                MomentumSgd({"p": p}, lr=lr, momentum=0.9)
        with pytest.raises(ValueError):
            MomentumSgd({"p": p}, lr=0.1, momentum=1.0)

    def test_building_zeroes_the_gradients(self):
        cell = LstmCellParams(2, 3, np.random.default_rng(11))
        p = Tensor([1.0, 2.0])
        cell.w.grad[...] = p.grad[...] = 1.0
        MomentumSgd({**cell.parameters(), "p": p}, lr=0.1, momentum=0.9)
        assert not np.any(cell.w.grad) and not np.any(cell.b.grad) and not np.any(p.grad)

    def test_memory_named_by_several_parameters_is_stepped_exactly_once(self):
        # one tensor under two names, a cell plus its weight again: each
        # tensor's memory moves by one step
        rng = np.random.default_rng(16)
        cell, p = LstmCellParams(2, 3, rng), Tensor([1.0, 2.0])
        for params, tensors in (
            ({"a": p, "b": p}, [p]),
            ({**cell.parameters("c."), "w": cell.w}, [cell.w, cell.b]),
        ):
            opt = MomentumSgd(params, lr=0.5, momentum=0.9)
            start = [t.data.copy() for t in tensors]
            for t in tensors:
                t.grad[...] = 1.0
            opt.step()
            for t, before in zip(tensors, start):
                assert np.array_equal(t.data, before - 0.5)
            assert opt._data.size == sum(t.data.size for t in tensors)

    def test_flat_store_steps_as_one_buffer_with_per_tensor_bits(self):
        # more than two blocks of floats, in tensors that straddle block edges
        rng = np.random.default_rng(12)
        cell = LstmCellParams(300, 120, rng)
        params = {**cell.parameters(), "emb": Tensor(rng.normal(size=(9, 7))),
                  "bias": Tensor(rng.normal(size=5))}
        assert sum(p.data.size for p in params.values()) > 2 * nn.STEP_BLOCK
        opt = MomentumSgd(params, lr=0.03, momentum=0.9)
        expected = {k: p.data.copy() for k, p in params.items()}
        velocity = {k: np.zeros_like(v) for k, v in expected.items()}
        for _ in range(3):
            opt.zero_grad()
            assert not any(np.any(p.grad) for p in params.values())
            for k, p in params.items():
                p.grad[...] = rng.normal(size=p.shape)
                velocity[k] *= 0.9
                velocity[k] += 0.03 * p.grad
                expected[k] -= velocity[k]
            opt.step()
        for k, p in params.items():
            assert p.data.tobytes() == expected[k].tobytes(), k

    def test_release_gives_every_moved_tensor_a_zero_gradient_of_its_own(self):
        rng = np.random.default_rng(18)
        cell, p = LstmCellParams(8, 8, rng), Tensor(rng.normal(size=3))
        params = {**cell.parameters(), "p": p}
        opt = MomentumSgd(params, lr=0.1, momentum=0.9)
        cell.w.grad[...] = cell.b.grad[...] = p.grad[...] = 1.0
        opt.step()
        stepped = {k: t.data.copy() for k, t in params.items()}
        opt.release()
        # no gradient is held until one is next used
        assert all(t._grad is None for t in (cell.w, cell.b, p))
        assert_gradients_released(params)
        for k, t in params.items():
            assert np.array_equal(t.data, stepped[k]), k

    def test_a_new_optimizer_over_released_parameters_steps_as_a_fresh_one(self):
        released, fresh = (LstmCellParams(8, 8, np.random.default_rng(19)) for _ in range(2))
        MomentumSgd(released.parameters(), lr=0.1, momentum=0.9).release()
        optimizers = [MomentumSgd(c.parameters(), lr=0.1, momentum=0.9) for c in (released, fresh)]
        rng = np.random.default_rng(20)
        for _ in range(3):
            grads = [rng.normal(size=t.shape) for t in (fresh.w, fresh.b)]
            for cell, opt in zip((released, fresh), optimizers):
                opt.zero_grad()
                cell.w.grad[...], cell.b.grad[...] = grads
                opt.step()
        for t, u in ((released.w, fresh.w), (released.b, fresh.b)):
            assert t.data.tobytes() == u.data.tobytes()

    def test_step_and_zero_grad_after_release_raise_a_value_error(self):
        opt = MomentumSgd({"p": Tensor([1.0, 2.0])}, lr=0.1, momentum=0.9)
        opt.release()
        for call in (opt.step, opt.zero_grad):
            with pytest.raises(ValueError, match="^the optimizer was released"):
                call()


class TestLazyGradients:
    """A tensor's own gradient holds no memory until it is first read or
    written; Tensor.grad then allocates np.zeros of the data's shape."""

    def test_a_tensor_of_less_than_a_page_adds_no_gradient_bytes(self):
        x = np.arange(500.0)
        t, grown = traced_bytes(lambda: Tensor(x))
        # the Tensor object (48 bytes on 64-bit CPython), where a zero gradient
        # of 500 floats would add 4,000 more; the rest of the process may
        # allocate a little between the two counts
        assert grown < 1000, grown
        g = t.grad
        assert g.shape == x.shape and not np.any(g) and g.flags.writeable
        assert g.flags.owndata and t.grad is g
        g[0] = 1.0
        assert t.grad[0] == 1.0 and t.data[0] == 0.0

    def test_building_a_cell_adds_its_data_bytes_not_twice_that(self):
        cell, grown = traced_bytes(lambda: LstmCellParams(256, 128))
        data = cell.w.data.nbytes + cell.b.data.nbytes
        assert data <= grown < 1.25 * data, (grown, data)
        assert_gradients_released(cell.parameters())

    def test_bilstm_gradient_check_accumulates_into_page_sized_gradients(self):
        # each weight (32, 16) is 4 KiB
        rng = np.random.default_rng(21)
        fwd, bwd = LstmCellParams(8, 8, rng), LstmCellParams(8, 8, rng)
        params = bilstm_params(fwd, bwd)
        params["xs"] = Tensor(rng.normal(size=(1, 3, 8)))
        assert fwd.w.data.nbytes == 4096

        def forward():
            t = Tape()
            return t, t.sum_squares(t.bilstm(fwd, bwd, [params["xs"]])[0])

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, report
        assert np.any(fwd.w.grad) and np.any(bwd.w.grad)

    def test_head_gradient_check_accumulates_into_a_page_sized_gradient(self):
        from spellvec.tagger import Head

        rng = np.random.default_rng(22)
        head = Head(128, 4, rng)  # w_h (4, in_width) is 4 KiB
        head.b_h.data[...] = rng.normal(size=4)
        params = {**head.parameters("head."), "h": Tensor(rng.normal(size=(1, 3, head.w_h.shape[1])))}
        assert head.w_h.data.nbytes == 4096

        def forward():
            t = Tape()
            return t, t.sum_squares(head.logits(t, params["h"]))

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, report
        assert np.any(head.w_h.grad)

    def test_a_backward_into_fresh_gradients_has_the_bits_of_one_into_zeroed_ones(self):
        # three first writes through a view: Tape.bilstm's input gradient
        # (xs.grad[0]), Tape.take's np.add.at into the embedding, and into
        # lstm_step's affine output under its four gate slices (Tape.take)
        def run(zeroed):
            rng = np.random.default_rng(23)
            emb = Tensor(rng.normal(size=(6, 3)))
            fwd, bwd, cell = LstmCellParams(3, 4, rng), LstmCellParams(3, 4, rng), LstmCellParams(8, 4, rng)
            h0, c0 = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
            leaves = [emb, fwd.w, fwd.b, bwd.w, bwd.b, cell.w, cell.b, h0, c0]
            if zeroed:
                for t in leaves:
                    t.zero_grad()
            tape = Tape()
            xs = tape.take(emb, np.array([[2, 0, 2, 5]]))  # row 2 twice
            (states,) = tape.bilstm(fwd, bwd, [xs])
            h, c = lstm_step(tape, cell, tape.take(states, (0, -1)), h0, c0)
            tape.backward(tape.add_n([tape.sum_squares(h), tape.sum(tape.tanh(c))]))
            return [t.grad for t in leaves]

        fresh, zeroed = run(False), run(True)
        assert all(np.any(g) for g in fresh)
        for a, b in zip(fresh, zeroed):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def one_store(params):
    """The buffer holding every parameter's data, which they must tile, and
    the one holding every gradient."""
    first = next(iter(params.values()))
    store, grads = first.data.base, first.grad.base
    assert all(p.data.base is store and p.grad.base is grads for p in params.values())
    assert store.size == grads.size == sum(p.data.size for p in params.values())
    return store


class TestFlatten:
    def test_parameters_become_views_of_one_buffer_with_their_values(self):
        rng = np.random.default_rng(14)
        cell = LstmCellParams(3, 2, rng)
        emb = Tensor(rng.normal(size=(4, 3)))
        params = {**cell.parameters(), "emb": emb}
        before = {k: p.data.copy() for k, p in params.items()}
        emb.grad[...] = 1.0
        nn.flatten(params)
        store = one_store(params)
        assert cell.w.data.base is emb.data.base
        for k, p in params.items():
            assert np.array_equal(p.data, before[k]), k
            assert not np.any(p.grad), k
        # the tensors the cell keeps write into the store, w first
        assert cell.parameters()["w"] is params["w"]
        cell.w.data[2:4] = 7.0
        assert np.all(store[10:20] == 7.0)

    def test_models_train_from_one_store(self):
        from spellvec.mimick import CharVocabulary, MimickModel

        model = MimickModel(CharVocabulary("abc"), dim=4, char_dim=3, hidden=2,
                            rng=np.random.default_rng(15))
        params = model.parameters()
        before = {k: p.data.copy() for k, p in params.items()}
        opt = MomentumSgd(params, lr=0.1, momentum=0.9)
        assert one_store(params) is opt._data
        for k, p in params.items():
            assert np.array_equal(p.data, before[k]), k

    def test_a_bare_character_bilstm_trains_from_one_store(self):
        from spellvec.mimick import CharBiLstm, CharVocabulary

        encoder = CharBiLstm(CharVocabulary("abc"), char_dim=3, hidden=2,
                             rng=np.random.default_rng(17))
        params = encoder.parameters()
        opt = MomentumSgd(params, lr=0.1, momentum=0.9)
        tape = Tape()
        tape.backward(tape.sum_squares(encoder.encode(tape, [[encoder.chars.encode("abca")]])))
        opt.step()
        assert one_store(params) is opt._data
        assert np.any(encoder.fwd.w.grad) and np.any(encoder.char_emb.grad)


class TestDropoutMask:
    def test_rate_zero_is_identity(self):
        mask = dropout_mask(10, 0.0, np.random.default_rng(0))
        assert np.array_equal(mask, np.ones(10))

    def test_law_of_large_numbers_at_half(self):
        mask = dropout_mask(100_000, 0.5, np.random.default_rng(1))
        zeros = np.mean(mask == 0.0)
        assert 0.49 <= zeros <= 0.51
        assert np.all(mask[mask != 0.0] == 2.0)

    def test_same_seed_same_mask(self):
        a = dropout_mask(50, 0.3, np.random.default_rng(9))
        b = dropout_mask(50, 0.3, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_shaped_mask_is_its_rows_drawn_in_turn(self):
        shaped_rng, row_rng = np.random.default_rng(4), np.random.default_rng(4)
        mask = dropout_mask((5, 7), 0.3, shaped_rng)
        rows = np.stack([dropout_mask(7, 0.3, row_rng) for _ in range(5)])
        assert mask.shape == (5, 7)
        assert mask.tobytes() == rows.tobytes()
        assert shaped_rng.random() == row_rng.random()
        assert np.array_equal(dropout_mask((2, 3), 0.0, shaped_rng), np.ones((2, 3)))

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_mask(5, 1.0, np.random.default_rng(0))


def test_every_exported_name_resolves():
    assert [name for name in nn.__all__ if not hasattr(nn, name)] == []


def gate_grads(cell):
    """Copies of a cell's gradient rows by gate: w_i, b_i, w_f, ..., b_c."""
    blocks = zip(LstmCellParams.GATES, np.split(cell.w.grad, 4), np.split(cell.b.grad, 4))
    return {
        f"{kind}_{gate}": rows.copy() for gate, *pair in blocks for kind, rows in zip("wb", pair)
    }


def lstm_step_chain(cell, x, reverse, weights):
    """Reference for one direction of Tape.bilstm: the rows of x run through
    lstm_step one at a time; returns the states in input order, the per-row
    input gradients and the gate gradients of the loss sum(weights * states)."""
    for p in cell.parameters().values():
        p.zero_grad()
    rows = [Tensor(r) for r in x]
    tape = Tape()
    h = Tensor(np.zeros(cell.hidden_size))
    c = Tensor(np.zeros(cell.hidden_size))
    states = [None] * len(rows)
    order = range(len(rows) - 1, -1, -1) if reverse else range(len(rows))
    for t in order:
        h, c = lstm_step(tape, cell, rows[t], h, c)
        states[t] = h
    loss = tape.add_n([tape.sum(tape.mul_const(s, w)) for s, w in zip(states, weights)])
    tape.backward(loss)
    return np.stack([s.data for s in states]), np.stack([r.grad for r in rows]), gate_grads(cell)


def bilstm_kernel(fwd, bwd, x, weights):
    """Tape.bilstm's states and the gradients of sum(weights * states):
    the input's, then each direction's gate gradients."""
    for p in [*fwd.parameters().values(), *bwd.parameters().values()]:
        p.zero_grad()
    xs = Tensor(x[None])
    tape = Tape()
    (states,) = tape.bilstm(fwd, bwd, [xs])
    tape.backward(tape.sum(tape.mul_const(states, weights[None])))
    return states.data[0].copy(), xs.grad[0].copy(), [gate_grads(fwd), gate_grads(bwd)]


def recorded_states(fwd, bwd, x):
    """The (T, 2 * hidden) states of one (T, input) sequence on a recording tape."""
    return Tape().bilstm(fwd, bwd, [Tensor(x[None])])[0].data[0]


def packed_states(fwd, bwd, sequences, groups):
    """Tape.bilstm's grad-free states over the sequences in groups."""
    inputs = [Tensor(np.stack([sequences[i] for i in g])) for g in groups]
    return [s.data for s in Tape(grad=False).bilstm(fwd, bwd, inputs)]


def bilstm_params(fwd, bwd):
    return {**fwd.parameters("fwd."), **bwd.parameters("bwd.")}


class TestLstmKernel:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 7])
    def test_matches_lstm_step_chain(self, steps, reverse):
        """Each direction's half of Tape.bilstm, with the loss on that half only."""
        rng = np.random.default_rng(10 * steps + reverse)
        cells = [LstmCellParams(3, 5, rng), LstmCellParams(3, 5, rng)]
        for cell in cells:
            cell.b.data[10:15] = rng.normal(size=5)  # the output gate's rows
        x = rng.normal(size=(steps, 3))
        weights = rng.normal(size=(steps, 5))
        half = slice(5, 10) if reverse else slice(0, 5)
        loss_weights = np.zeros((steps, 10))
        loss_weights[:, half] = weights
        states, x_grad, grads = bilstm_kernel(*cells, x, loss_weights)
        expected = lstm_step_chain(cells[reverse], x, reverse, weights)
        assert np.allclose(states[:, half], expected[0], rtol=0.0, atol=1e-12)
        assert np.allclose(x_grad, expected[1], rtol=0.0, atol=1e-12)
        assert list(grads[reverse]) == list(expected[2])
        for name in expected[2]:
            # from the zero state, one step gives the forget gate no gradient
            assert np.any(expected[2][name] != 0.0) or (steps, name[-1]) == (1, "f"), name
            assert np.allclose(grads[reverse][name], expected[2][name], rtol=0.0, atol=1e-12), name
            assert not np.any(grads[not reverse][name]), name

    def test_reverse_reads_rows_last_to_first(self):
        rng = np.random.default_rng(3)
        fwd, bwd = LstmCellParams(2, 3, rng), LstmCellParams(2, 3, rng)
        x = rng.normal(size=(4, 2))
        states = recorded_states(fwd, bwd, x)
        swapped = recorded_states(bwd, fwd, x[::-1].copy())
        assert np.array_equal(states[:, 3:], swapped[::-1, :3])
        assert np.array_equal(states[:, :3], swapped[::-1, 3:])

    def test_gradient_check_including_length_one(self):
        rng = np.random.default_rng(17)
        for steps in (1, 1, 2, 3, 5):
            fwd, bwd = LstmCellParams(3, 2, rng), LstmCellParams(3, 2, rng)
            params = bilstm_params(fwd, bwd)
            params["xs"] = Tensor(rng.normal(size=(1, steps, 3)))

            def forward():
                t = Tape()
                return t, t.sum_squares(t.bilstm(fwd, bwd, [params["xs"]])[0])

            report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
            assert report.passed, (steps, report)

    def test_one_record_per_sequence(self):
        rng = np.random.default_rng(0)
        tape = Tape()
        tape.bilstm(LstmCellParams(3, 2, rng), LstmCellParams(3, 2, rng), [Tensor(np.ones((1, 6, 3)))])
        assert len(tape) == 1

    def test_input_width_mismatch(self):
        cell = LstmCellParams(3, 2)
        with pytest.raises(DimensionError):
            Tape().bilstm(cell, cell, [Tensor(np.zeros((1, 4, 2)))])
        with pytest.raises(DimensionError):
            Tape().bilstm(cell, cell, [Tensor(np.zeros((4, 3)))])
        with pytest.raises(DimensionError):
            Tape().bilstm(cell, cell, [Tensor(np.zeros((1, 0, 3)))])
        with pytest.raises(DimensionError):
            Tape().bilstm(cell, cell, [])
        with pytest.raises(DimensionError, match="directions differ"):
            Tape().bilstm(cell, LstmCellParams(3, 4), [Tensor(np.zeros((1, 4, 3)))])

    def test_groups_must_come_longest_first(self):
        cell = LstmCellParams(3, 2)
        with pytest.raises(DimensionError, match="longest first"):
            Tape(grad=False).bilstm(cell, cell, [Tensor(np.ones((1, 2, 3))), Tensor(np.ones((1, 4, 3)))])

    def test_input_gradient_adds_to_what_is_there(self):
        rng = np.random.default_rng(18)
        fwd, bwd = LstmCellParams(3, 4, rng), LstmCellParams(3, 4, rng)
        x, weights, base = (rng.normal(size=shape) for shape in ((5, 3), (5, 8), (5, 3)))
        _, alone, _ = bilstm_kernel(fwd, bwd, x, weights)
        xs = Tensor(x[None])
        xs.grad[...] = base
        tape = Tape()
        tape.backward(tape.sum(tape.mul_const(tape.bilstm(fwd, bwd, [xs])[0], weights[None])))
        assert np.allclose(xs.grad[0], base + alone, rtol=0.0, atol=1e-12)


class TestPackedBilstm:
    """A grad-free Tape.bilstm over packed groups gives every sequence the
    bits of the recording tape, whatever else is in the batch."""

    @pytest.mark.parametrize("hidden,width", [(3, 4), (128, 64)])
    def test_each_direction_equals_the_tape_row_for_row(self, hidden, width):
        rng = np.random.default_rng(hidden)
        fwd, bwd = LstmCellParams(width, hidden, rng), LstmCellParams(width, hidden, rng)
        # lengths 1-20, some repeated, in shuffled order
        lengths = [int(n) for n in rng.permutation(list(range(1, 21)) + [1, 7, 7, 20])]
        sequences = [rng.normal(size=(n, width)) for n in lengths]
        (groups,) = length_slices(lengths, len(lengths))
        assert [len(sequences[g[0]]) for g in groups] == list(range(20, 0, -1))
        states = packed_states(fwd, bwd, sequences, groups)
        for group, group_states in zip(groups, states):
            assert group_states.shape == (len(group), len(sequences[group[0]]), 2 * hidden)
            for i, got in zip(group, group_states):
                assert np.array_equal(got, recorded_states(fwd, bwd, sequences[i])), i

    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(1, 5),
        hidden=st.integers(1, 5),
        lengths=st.lists(st.integers(1, 7), min_size=1, max_size=9),
        slice_size=st.integers(1, 9),
        saturated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=1, hidden=1, lengths=[1], slice_size=1, saturated=False, seed=0)
    @example(width=3, hidden=2, lengths=[1, 1, 4, 1], slice_size=9, saturated=True, seed=1)
    def test_states_equal_the_tape_for_any_lengths(
        self, width, hidden, lengths, slice_size, saturated, seed
    ):
        rng = np.random.default_rng(seed)
        fwd, bwd = LstmCellParams(width, hidden, rng), LstmCellParams(width, hidden, rng)
        if saturated:
            saturate(fwd, rng, "ifo", 1e3)
            saturate(bwd, rng, "ifo", 1e3)
        sequences = [np.clip(rng.normal(size=(n, width)), -4.0, 4.0) for n in lengths]
        for groups in length_slices(lengths, slice_size):
            states = packed_states(fwd, bwd, sequences, groups)
            for group, group_states in zip(groups, states):
                for i, got in zip(group, group_states):
                    assert np.array_equal(got, recorded_states(fwd, bwd, sequences[i]))

    def test_length_slices_sort_longest_first_and_cut(self):
        assert length_slices([2, 5, 2, 1, 5], 3) == [[[1, 4], [0]], [[2], [3]]]
        assert length_slices([3, 3], 5) == [[[0, 1]]]
        assert length_slices([], 4) == []


def recorded_gradients(fwd, bwd, inputs, weights, order=None):
    """One recording Tape.bilstm call per list of groups in inputs (with its
    order, if given) and the backward pass of sum(weights * states): the
    w and b gradients of both cells, and the last call's states. Each input
    keeps its own gradient."""
    for p in [fwd.w, fwd.b, bwd.w, bwd.b, *(x for groups in inputs for x in groups)]:
        p.zero_grad()
    tape, parts = Tape(), []
    for i, groups in enumerate(inputs):
        states = tape.bilstm(fwd, bwd, groups, order and order[i])
        parts += [tape.sum(tape.mul_const(s, w)) for s, w in zip(states, weights[i])]
    tape.backward(tape.add_n(parts))
    return [p.grad.copy() for p in (fwd.w, fwd.b, bwd.w, bwd.b)], states


# 13 words of 3 to 15 letters, some lengths repeated: ten stretches
CHAR2TAG_LENGTHS = [4, 15, 9, 3, 12, 9, 7, 15, 5, 11, 3, 13, 6]
# the traced peak of a recording record over CHAR2TAG_LENGTHS at input 20 and
# hidden 128 whose per-step buffers were padded to the longest word (Python
# 3.11, numpy 2.4)
PADDED_PEAK = 8_319_672


def record_peak(fwd, bwd, inputs, order=None):
    """The traced peak of a recording Tape.bilstm record's forward and
    backward passes over inputs, into gradients that already exist, with
    sum_squares of its states as the loss."""
    for p in [fwd.w, fwd.b, bwd.w, bwd.b, *inputs]:
        p.zero_grad()

    def run():
        tape = Tape()
        states = tape.bilstm(fwd, bwd, inputs, order)
        tape.backward(tape.add_n([tape.sum_squares(s) for s in states]))

    run()  # numpy's and Python's caches warm
    return traced_peak(run)[1]


class TestPackedRecord:
    """A recording Tape.bilstm over packed groups gives every state and
    gradient the bits of one record per sequence, made in the order it is
    given."""

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.integers(1, 6),
        hidden=st.integers(1, 40),
        lengths=st.lists(st.integers(1, 7), min_size=1, max_size=12),
        ordered=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=1, hidden=1, lengths=[1], ordered=True, seed=0)
    @example(width=6, hidden=40, lengths=[3, 1, 7, 3, 1, 7, 5], ordered=True, seed=1)
    # char2tag training's geometry: a sentence of 13 words of 3 to 15 letters in ten
    # stretches, at char2tag's width and hidden size
    @example(width=20, hidden=128, lengths=CHAR2TAG_LENGTHS, ordered=True, seed=2)
    @example(width=20, hidden=128, lengths=CHAR2TAG_LENGTHS, ordered=False, seed=3)
    def test_equals_one_record_per_sequence_bit_for_bit(self, width, hidden, lengths, ordered, seed):
        rng = np.random.default_rng(seed)
        fwd, bwd = LstmCellParams(width, hidden, rng), LstmCellParams(width, hidden, rng)
        sequences = [rng.normal(size=(n, width)) for n in lengths]
        weights = [rng.normal(size=(n, 2 * hidden)) for n in lengths]
        (groups,) = length_slices(lengths, len(lengths))
        if not ordered:  # batch order: per-sequence records made longest first
            sequences = [sequences[i] for g in groups for i in g]
            weights = [weights[i] for g in groups for i in g]
            (groups,) = length_slices(sorted(lengths, reverse=True), len(lengths))
        alone = [[Tensor(x[None])] for x in sequences]
        expected, _ = recorded_gradients(fwd, bwd, alone, [[w[None]] for w in weights])
        packed = [Tensor(np.stack([sequences[i] for i in g])) for g in groups]
        got, states = recorded_gradients(
            fwd, bwd, [packed], [[np.stack([weights[i] for i in g]) for g in groups]],
            [groups] if ordered else None,
        )
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
        for group, x, s in zip(groups, packed, states):
            for row, i in enumerate(group):
                assert np.array_equal(x.grad[row], alone[i][0].grad[0]), i
                assert np.array_equal(s.data[row], recorded_states(fwd, bwd, sequences[i])), i

    def test_gradient_check_over_mixed_lengths_including_one(self):
        rng = np.random.default_rng(19)
        fwd, bwd = LstmCellParams(3, 2, rng), LstmCellParams(3, 2, rng)
        lengths = [2, 4, 1, 4, 1, 3, 5]  # five stretches
        (groups,) = length_slices(lengths, len(lengths))
        params = bilstm_params(fwd, bwd)
        for k, g in enumerate(groups):
            params[f"xs{k}"] = Tensor(rng.normal(size=(len(g), lengths[g[0]], 3)))
        inputs = [params[f"xs{k}"] for k in range(len(groups))]

        def forward():
            t = Tape()
            states = t.bilstm(fwd, bwd, inputs, groups)
            return t, t.add_n([t.sum_squares(s) for s in states])

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, report

    def test_a_one_sequence_record_peaks_within_a_bound_from_its_shapes(self):
        # Mimick's geometry: one 9-letter word, input 20, hidden 50
        n, h, length = 20, 50, 9
        rng = np.random.default_rng(24)
        fwd, bwd = LstmCellParams(n, h, rng), LstmCellParams(n, h, rng)
        peak = record_peak(fwd, bwd, [Tensor(rng.normal(size=(1, length, n)))])
        # one weight-gradient product, (4h, n + h) floats, and 24 (length, 2h)-float
        # slabs: a record that kept two padded rows of gates peaked at 23.0 slabs
        # above the product here (277,760 bytes), so the slack is one slab
        slab = length * 2 * h * 8
        assert peak <= 4 * h * (n + h) * 8 + 24 * slab, peak

    def test_a_packed_record_holds_no_padded_step(self):
        # char2tag training's geometry: 13 words, 83 of 195 word-steps padding
        lengths, n, h = CHAR2TAG_LENGTHS, 20, 128
        rng = np.random.default_rng(25)
        fwd, bwd = LstmCellParams(n, h, rng), LstmCellParams(n, h, rng)
        (groups,) = length_slices(lengths, len(lengths))
        inputs = [Tensor(rng.normal(size=(len(g), lengths[g[0]], n))) for g in groups]
        peak = record_peak(fwd, bwd, inputs, groups)
        # a record that padded every per-step buffer to the longest word peaked at
        # PADDED_PEAK bytes here; its backward held 16 (B, 2h)-float buffers a step
        # (six gate slots, four coefficients, four pre-activation gradients, the
        # state gradient and dc/dh), and at least 80 % of what their padded rows
        # held must go
        padded_steps = len(lengths) * max(lengths) - sum(lengths)
        padding = padded_steps * 16 * 2 * h * 8
        assert padded_steps == 83
        assert peak <= PADDED_PEAK - 0.8 * padding, peak

    def test_an_order_that_does_not_name_the_groups_sequences_raises(self):
        cell = LstmCellParams(3, 2)
        groups = [Tensor(np.ones((2, 4, 3))), Tensor(np.ones((1, 2, 3)))]
        for order in ([[0, 1]], [[0], [1, 2]]):
            with pytest.raises(DimensionError, match="order"):
                Tape().bilstm(cell, cell, groups, order)


def grad_free_states(fwd, bwd, sequences, groups, floats):
    """packed_states with the two-thread gate at floats, and the number of
    passes that stepped their directions on two threads."""
    with pytest.MonkeyPatch.context() as patch:
        passes = two_thread_passes(patch, floats)
        return packed_states(fwd, bwd, sequences, groups), len(passes)


class TestTwoThreadPass:
    """A wide grad-free pass steps its forward direction on a worker thread
    and its backward direction on the calling thread, with the fused pass's
    bits."""

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.integers(1, 6),
        hidden=st.integers(1, 40),
        lengths=st.lists(st.integers(1, 7), min_size=1, max_size=12),
        slice_size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=1, hidden=1, lengths=[1], slice_size=1, seed=0)
    @example(width=5, hidden=40, lengths=[1, 7, 1, 3, 7, 1], slice_size=12, seed=1)
    def test_equals_the_fused_pass_bit_for_bit(self, width, hidden, lengths, slice_size, seed):
        rng = np.random.default_rng(seed)
        fwd, bwd = LstmCellParams(width, hidden, rng), LstmCellParams(width, hidden, rng)
        sequences = [rng.normal(size=(n, width)) for n in lengths]
        for groups in length_slices(lengths, slice_size):
            fused, none = grad_free_states(fwd, bwd, sequences, groups, math.inf)
            threaded, one = grad_free_states(fwd, bwd, sequences, groups, 0)
            assert (none, one) == (0, int(nn._cpus() > 1))
            for a, b in zip(fused, threaded):
                assert np.array_equal(a, b)

    def test_the_gate_is_the_mean_recurrent_weight_floats_a_step(self):
        # lengths 3 and 1 at hidden 8: (3 + 1) * 4 * 8**2 / 3 = 341.33 floats a step
        rng = np.random.default_rng(50)
        fwd, bwd = LstmCellParams(2, 8, rng), LstmCellParams(2, 8, rng)
        sequences = [rng.normal(size=(n, 2)) for n in (3, 1)]
        (groups,) = length_slices([3, 1], 2)
        two_cpus = int(nn._cpus() > 1)
        assert grad_free_states(fwd, bwd, sequences, groups, 341)[1] == two_cpus
        assert grad_free_states(fwd, bwd, sequences, groups, 342)[1] == 0
        # a recording tape keeps its one sweep
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nn, "TWO_THREAD_FLOATS", 0)
            patch.setattr(nn, "_sweep_on_two_threads", None)
            recorded = recorded_states(fwd, bwd, sequences[0])
        assert np.array_equal(recorded, packed_states(fwd, bwd, sequences[:1], [[0]])[0][0])

    def test_an_error_in_either_direction_reaches_the_caller_after_the_join(
        self, two_thread_gate, monkeypatch
    ):
        rng = np.random.default_rng(51)
        fwd, bwd = LstmCellParams(3, 4, rng), LstmCellParams(3, 4, rng)
        x = [Tensor(rng.normal(size=(5, 6, 3)))]
        sweep, finished = nn._bilstm_sweep, []

        for failing in (fwd, bwd):
            def failing_sweep(fwd, bwd, groups, pre, hs, directions=slice(0, 2), history=None):
                if failing in (fwd, bwd)[directions]:
                    raise KeyError(f"direction {(fwd, bwd).index(failing)}")
                time.sleep(0.05)  # the other direction is still running when this one raises
                sweep(fwd, bwd, groups, pre, hs, directions, history)
                finished.append(threading.current_thread())

            monkeypatch.setattr(nn, "_bilstm_sweep", failing_sweep)
            with pytest.raises(KeyError, match=f"direction {(fwd, bwd).index(failing)}"):
                Tape(grad=False).bilstm(fwd, bwd, x)
            # the worker, if it finished its direction here, was joined
            assert not any(t.is_alive() for t in finished if t is not threading.current_thread())
        passes, threaded = two_thread_gate
        assert len(finished) == len(passes) == (2 if threaded else 0)

    def test_the_worker_keeps_the_callers_floating_point_error_settings(self, two_thread_gate):
        rng = np.random.default_rng(52)
        fwd, bwd = LstmCellParams(3, 4, rng), LstmCellParams(3, 4, rng)
        fwd.w.data[:, :3] = 1e308  # only the forward direction's input projection overflows
        x = [Tensor(np.full((4, 5, 3), 2.0))]
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                Tape(grad=False).bilstm(fwd, bwd, x)
        # no RuntimeWarning, which the test settings would raise
        with np.errstate(over="ignore"):
            Tape(grad=False).bilstm(fwd, bwd, x)
        passes, threaded = two_thread_gate
        assert len(passes) == (2 if threaded else 0)

    def test_passes_from_more_threads_than_cores_keep_their_bits(self, monkeypatch):
        # each caller's pass starts its own worker into its own buffers; a
        # short switch interval interleaves them at every bytecode it can
        rng = np.random.default_rng(54)
        fwd, bwd = LstmCellParams(3, 5, rng), LstmCellParams(3, 5, rng)
        inputs = [[Tensor(rng.normal(size=(4, 7, 3))), Tensor(rng.normal(size=(2, 3, 3)))]
                  for _ in range(6)]
        fused = [[s.data for s in Tape(grad=False).bilstm(fwd, bwd, x)] for x in inputs]
        passes = two_thread_passes(monkeypatch, 0)
        wrong = []

        def caller(i):
            for _ in range(20):
                states = [s.data for s in Tape(grad=False).bilstm(fwd, bwd, inputs[i])]
                if not all(np.array_equal(a, b) for a, b in zip(states, fused[i])):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(inputs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert wrong == []
        assert len(passes) == (20 * len(inputs) if nn._cpus() > 1 else 0)

    def test_a_process_allowed_one_cpu_starts_no_thread(self, monkeypatch):
        rng = np.random.default_rng(53)
        fwd, bwd = LstmCellParams(3, 4, rng), LstmCellParams(3, 4, rng)
        sequences = [rng.normal(size=(n, 3)) for n in (6, 6, 2)]
        (groups,) = length_slices([6, 6, 2], 3)
        fused, _ = grad_free_states(fwd, bwd, sequences, groups, math.inf)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        def no_placement(*args, **kwargs):
            raise AssertionError("a CPU was read or an affinity set")

        monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(nn.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(nn.threading, "Thread", no_thread)
        monkeypatch.setattr(nn.os, "sched_setaffinity", no_placement, raising=False)
        monkeypatch.setattr(nn, "open", no_placement, raising=False)  # /proc/thread-self/stat
        assert nn._cpus() == 1
        states, passes = grad_free_states(fwd, bwd, sequences, groups, 0)
        assert passes == 0
        for a, b in zip(fused, states):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("failing", [None, 0, 1], ids=["none", "forward", "backward"])
    def test_the_worker_runs_off_the_callers_starting_cpu(self, failing, monkeypatch):
        if nn._cpus() < 2:
            pytest.skip("a process allowed one CPU starts no worker")
        rng = np.random.default_rng(55)
        fwd, bwd = LstmCellParams(3, 4, rng), LstmCellParams(3, 4, rng)
        x = [Tensor(rng.normal(size=(5, 6, 3)))]
        sweep, stat_cpu, caller, seen = nn._bilstm_sweep, nn._stat_cpu, threading.current_thread(), {}

        def caller_cpu(stat):
            seen["caller"] = stat_cpu(stat)
            return seen["caller"]

        def placed_sweep(fwd, bwd, groups, pre, hs, directions=slice(0, 2), history=None):
            if threading.current_thread() is not caller:
                seen["worker"] = os.sched_getaffinity(0)
            if failing is not None and directions == slice(failing, failing + 1):
                raise KeyError(f"direction {failing}")
            sweep(fwd, bwd, groups, pre, hs, directions, history)

        monkeypatch.setattr(nn, "_stat_cpu", caller_cpu)
        monkeypatch.setattr(nn, "_bilstm_sweep", placed_sweep)
        passes, allowed = two_thread_passes(monkeypatch, 0), os.sched_getaffinity(0)
        if failing is None:
            Tape(grad=False).bilstm(fwd, bwd, x)
        else:
            with pytest.raises(KeyError, match=f"direction {failing}"):
                Tape(grad=False).bilstm(fwd, bwd, x)
        assert len(passes) == 1
        assert seen["worker"] == allowed - {seen["caller"]}
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.parametrize("failure", ["affinity raises", "no cpu read", "no other cpu"])
    def test_a_worker_that_cannot_be_placed_runs_unplaced(self, failure, monkeypatch):
        rng = np.random.default_rng(56)
        fwd, bwd = LstmCellParams(3, 4, rng), LstmCellParams(3, 4, rng)
        sequences = [rng.normal(size=(n, 3)) for n in (6, 6, 2)]
        (groups,) = length_slices([6, 6, 2], 3)
        fused, _ = grad_free_states(fwd, bwd, sequences, groups, math.inf)
        sweep, caller, calls, workers = nn._bilstm_sweep, threading.current_thread(), [], []

        def set_affinity(pid, cpus):
            calls.append(cpus)
            raise OSError(22, "Invalid argument")

        def no_read(*args, **kwargs):
            raise FileNotFoundError("/proc/thread-self/stat")

        def counted_sweep(fwd, bwd, groups, pre, hs, directions=slice(0, 2), history=None):
            if threading.current_thread() is not caller:
                workers.append(directions)
            sweep(fwd, bwd, groups, pre, hs, directions, history)

        # the caller is on CPU 0 of {0, 1}, or of {0} alone, whatever this machine has
        allowed = {0} if failure == "no other cpu" else {0, 1}
        stat = no_read if failure == "no cpu read" else lambda path: io.StringIO("")
        monkeypatch.setattr(nn, "open", stat, raising=False)
        monkeypatch.setattr(nn, "_stat_cpu", lambda line: 0)
        monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: allowed, raising=False)
        monkeypatch.setattr(nn.os, "sched_setaffinity", set_affinity, raising=False)
        monkeypatch.setattr(nn, "_cpus", lambda: 2)
        monkeypatch.setattr(nn, "_bilstm_sweep", counted_sweep)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            states, passes = grad_free_states(fwd, bwd, sequences, groups, 0)
        assert caught == []
        assert passes == len(workers) == 1
        assert calls == ([{1}] if failure == "affinity raises" else [])
        for a, b in zip(fused, states):
            assert np.array_equal(a, b)

    def test_the_cpu_is_field_39_after_the_last_parenthesis(self):
        # the command name, field 2, may hold spaces, parentheses and numbers
        fields = ["S", *map(str, range(4, 39)), "7", *map(str, range(40, 53))]
        assert nn._stat_cpu("4242 (x) 39 (y)) " + " ".join(fields) + "\n") == 7
        if os.path.exists("/proc/thread-self/stat") and hasattr(os, "sched_getaffinity"):
            with open("/proc/thread-self/stat") as f:
                assert nn._stat_cpu(f.read()) in os.sched_getaffinity(0)


class TestStackedGateStorage:
    def test_parameters_keep_names_shapes_and_draw_order(self):
        from spellvec.mimick import archive_tensors

        cell = LstmCellParams(3, 2, np.random.default_rng(4))
        params = cell.parameters("l1f.")
        assert params == {"l1f.w": cell.w, "l1f.b": cell.b}
        assert cell.w.shape == (8, 5) and cell.b.shape == (8,)
        # an archive names each gate's rows, drawn gate by gate
        blocks = archive_tensors(params)
        names = [f"l1f.{kind}_{gate}" for gate in "ifoc" for kind in "wb"]
        assert list(blocks) == names
        reference = np.random.default_rng(4)
        for gate in "ifoc":
            assert blocks[f"l1f.w_{gate}"].shape == (2, 5)
            assert blocks[f"l1f.b_{gate}"].shape == (2,)
            assert np.array_equal(blocks[f"l1f.w_{gate}"], nn.glorot_uniform(reference, 2, 5))
            expected_bias = np.ones(2) if gate == "f" else np.zeros(2)
            assert np.array_equal(blocks[f"l1f.b_{gate}"], expected_bias)
            assert np.shares_memory(blocks[f"l1f.w_{gate}"], cell.w.data)
        assert np.array_equal(cell.w.data, np.concatenate([blocks[n] for n in names[0::2]]))
        assert np.array_equal(cell.b.data, np.concatenate([blocks[n] for n in names[1::2]]))

    def test_in_place_gate_edit_is_seen_by_kernel(self):
        rng = np.random.default_rng(5)
        cell, other = LstmCellParams(3, 4), LstmCellParams(3, 4)
        x = rng.normal(size=(3, 3))
        before = recorded_states(cell, other, x)
        cell.w.data[4:8] = rng.normal(size=(4, 7))  # the forget gate's rows
        cell.w.data[12:16] = rng.normal(size=(4, 7))  # the candidate's
        cell.b.data[1] = 2.0  # the input gate's
        after = recorded_states(cell, other, x)
        assert not np.array_equal(before, after)
        expected, _, _ = lstm_step_chain(cell, x, False, np.ones((3, 4)))
        assert np.allclose(after[:, :4], expected, rtol=0.0, atol=1e-12)

    def test_optimizer_step_updates_the_stacked_weights(self):
        rng = np.random.default_rng(6)
        cell, other = LstmCellParams(2, 3, rng), LstmCellParams(2, 3, rng)
        opt = MomentumSgd(cell.parameters(), lr=0.1, momentum=0.9)
        x = Tensor(rng.normal(size=(1, 4, 2)))
        start = cell.w.data.copy()
        opt.zero_grad()
        tape = Tape()
        tape.backward(tape.sum_squares(tape.bilstm(cell, other, [x])[0]))
        grad = cell.w.grad.copy()
        opt.step()
        assert np.allclose(cell.w.data, start - 0.1 * grad, rtol=0.0, atol=1e-15)
        expected, _, _ = lstm_step_chain(cell, x.data[0], False, np.ones((4, 3)))
        assert np.allclose(recorded_states(cell, other, x.data[0])[:, :3], expected, rtol=0.0, atol=1e-12)

    def test_restore_parameters_is_seen_by_kernel(self):
        from spellvec.mimick import archive_tensors, restore_parameters

        rng = np.random.default_rng(7)
        cell = LstmCellParams(2, 3)
        blocks = archive_tensors(cell.parameters())
        tensors = {k: rng.normal(size=a.shape) for k, a in blocks.items()}
        restore_parameters("cell.svm", cell.parameters(), tensors)
        assert np.array_equal(
            cell.w.data, np.concatenate([tensors[f"w_{g}"] for g in LstmCellParams.GATES])
        )
        assert np.array_equal(
            cell.b.data, np.concatenate([tensors[f"b_{g}"] for g in LstmCellParams.GATES])
        )
        x = rng.normal(size=(3, 2))
        expected, _, _ = lstm_step_chain(cell, x, True, np.ones((3, 3)))
        states = recorded_states(LstmCellParams(2, 3), cell, x)
        assert np.allclose(states[:, 3:], expected, rtol=0.0, atol=1e-12)


MATRIX_OP_CASES = {
    "affine": lambda t, ps: t.sum_squares(t.affine(ps["w"], ps["m"], ps["bias"])),
    "concat": lambda t, ps: t.sum_squares(t.concat([ps["m"], ps["n"]])),
    "row": lambda t, ps: t.sum_squares(t.take(ps["m"], np.array([2, 0, 2, 1]))),
    "log_softmax": lambda t, ps: t.sum_squares(t.log_softmax(ps["m"])),
    "take": lambda t, ps: t.sum_squares(t.take(ps["m"], ([2, 0, 2, 1], [3, 3, 0, 1]))),
    # element (2, 3) named twice: its gradient is the sum of both uses
    "take_repeated": lambda t, ps: t.sum_squares(t.take(ps["m"], ([2, 0, 2, 1], [3, 3, 3, 1]))),
}


@pytest.mark.parametrize("op", list(MATRIX_OP_CASES))
def test_matrix_op_gradients_match_finite_differences(op):
    """The row-wise forms of the ops, 20 random instances each."""
    build = MATRIX_OP_CASES[op]
    rng = np.random.default_rng(sum(map(ord, op)))
    for _ in range(20):
        params = {
            "a": Tensor(rng.normal(size=4)),
            "b": Tensor(rng.normal(size=4)),
            "m": Tensor(rng.normal(size=(3, 4))),
            "n": Tensor(rng.normal(size=(3, 2))),
            "w": Tensor(rng.normal(size=(5, 4))),
            "bias": Tensor(rng.normal(size=5)),
        }

        def forward():
            t = Tape()
            return t, build(t, params)

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, f"{op}: {report}"


ANY_RANK_OP_CASES = {
    "affine": lambda t, ps: t.sum_squares(t.affine(ps["w"], ps["s"], ps["bias"])),
    "concat_axis0": lambda t, ps: t.sum_squares(t.concat([ps["m"], ps["w"], ps["m"]], axis=0)),
    "concat_axis1": lambda t, ps: t.sum_squares(t.concat([ps["s"], ps["r"], ps["s"]], axis=1)),
}


@pytest.mark.parametrize("op", list(ANY_RANK_OP_CASES))
def test_any_rank_op_gradients_match_finite_differences(op):
    """A 3-D affine input and concat on a leading axis, 10 random instances each."""
    build = ANY_RANK_OP_CASES[op]
    rng = np.random.default_rng(sum(map(ord, op)))
    for _ in range(10):
        params = {
            "m": Tensor(rng.normal(size=(3, 4))),
            "w": Tensor(rng.normal(size=(5, 4))),
            "bias": Tensor(rng.normal(size=5)),
            "s": Tensor(rng.normal(size=(2, 3, 4))),
            "r": Tensor(rng.normal(size=(2, 1, 4))),
        }

        def forward():
            t = Tape()
            return t, build(t, params)

        report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
        assert report.passed, f"{op}: {report}"


SHAPE_ERROR_CASES = {
    "add_n": (lambda t: t.add_n([]), "add_n: empty input"),
    "add_n_shapes": (lambda t: t.add_n([Tensor(np.zeros(2)), Tensor(np.zeros(3))]), r"add_n: shapes \(2,\) and \(3,\) differ"),
    "sum_squares_target": (lambda t: t.sum_squares(Tensor(np.zeros((1, 1, 4))), np.zeros(4)),
                           r"sum_squares: shapes \(1, 1, 4\) and \(4,\) differ$"),
    "concat": (lambda t: t.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))]), "concat: "),
    "log_softmax": (lambda t: t.log_softmax(Tensor(np.zeros((2, 0)))), "log_softmax: no values"),
    "lstm_cell": (lambda t: LstmCellParams(0, 2), "lstm: input_size and hidden_size must be positive"),
    "lstm_step_h": (lambda t: lstm_step(t, LstmCellParams(3, 2), Tensor(np.zeros(3)), Tensor(np.zeros(3)),
                                        Tensor(np.zeros(2))), r"lstm_step: h_prev shape \(3,\) != \(2,\)"),
}


@pytest.mark.parametrize("case", list(SHAPE_ERROR_CASES))
def test_operands_that_do_not_conform_raise_a_dimension_error(case):
    build, message = SHAPE_ERROR_CASES[case]
    with pytest.raises(DimensionError, match=f"^{message}"):
        build(Tape())


class TestGatherAndConstantProduct:
    def test_take_gathers_rows_and_adds_repeated_rows_gradients(self):
        rng = np.random.default_rng(33)
        m, g = Tensor(rng.normal(size=(4, 3))), rng.normal(size=(2, 3, 3))
        index = np.array([[2, 0, 2], [2, 3, 2]])
        tape = Tape()
        rows = tape.take(m, index)
        assert np.array_equal(rows.data, m.data[index])
        tape.backward(tape.sum(tape.mul_const(rows, g)))
        expected = np.zeros((4, 3))
        for (b, t), r in np.ndenumerate(index):  # in index order
            expected[r] += g[b, t]
        assert np.array_equal(m.grad, expected)

    def test_mul_const_takes_a_scalar_or_an_array_of_the_operands_shape(self):
        a = Tensor(np.random.default_rng(34).normal(size=(2, 3)))
        tape = Tape()
        assert np.array_equal(tape.mul_const(a, 0.3).data, a.data * 0.3)
        assert np.array_equal(tape.mul_const(a, np.full((2, 3), 0.3)).data, a.data * 0.3)
        with pytest.raises(DimensionError, match=r"\(2, 3\) and \(3,\) differ"):
            tape.mul_const(a, np.ones(3))

    def test_sum_squares_takes_a_constant_target_of_the_operands_shape_which_takes_no_gradient(self):
        rng = np.random.default_rng(35)
        a, target = Tensor(rng.normal(size=(1, 1, 4))), rng.normal(size=(1, 1, 4))
        tape = Tape()
        loss = tape.sum_squares(a, target)
        assert loss.data == np.sum((a.data - target) * (a.data - target))
        assert len(tape) == 1
        tape.backward(loss)
        assert np.array_equal(a.grad, 2.0 * (a.data - target))


class TestGradFreeTape:
    def test_records_nothing_and_builds_no_gradient_buffers(self):
        rng = np.random.default_rng(30)
        cell = LstmCellParams(3, 2, rng)
        w, b, x = Tensor(rng.normal(size=(20, 4))), Tensor(rng.normal(size=20)), Tensor(rng.normal(size=(1, 50, 3)))
        tape = Tape(grad=False)

        def grad_free_pass():
            (states,) = tape.bilstm(cell, cell, [x])
            outputs = [states, tape.affine(w, states, b)]
            outputs.append(tape.log_softmax(tape.tanh(outputs[-1])))
            outputs.append(tape.concat([outputs[-1], outputs[0]]))
            outputs.append(tape.sum_squares(tape.take(tape.take(w, np.array([[1, 0]])), (0, 1))))
            return outputs

        grad_free_pass()  # numpy's first calls may cache
        outputs, grown = traced_bytes(grad_free_pass)
        assert len(tape) == 0
        # the outputs' values and object headers, and no gradient buffers
        data = sum(out.data.nbytes for out in outputs)
        assert data <= grown < data + 2048, (grown, data)
        _, allocated = traced_bytes(lambda: [out.grad for out in outputs])
        assert allocated >= data
        with pytest.raises(ValueError, match="no record to replay"):
            tape.backward(outputs[-1])

    def test_computes_the_recording_tapes_bits(self):
        rng = np.random.default_rng(31)
        cell = LstmCellParams(3, 4, rng)
        w, b, x = Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=5)), rng.normal(size=(1, 6, 3))
        results = []
        for tape in (Tape(), Tape(grad=False)):
            (states,) = tape.bilstm(cell, cell, [Tensor(x)])
            results.append(tape.log_softmax(tape.tanh(tape.affine(w, states, b))).data)
        assert np.array_equal(*results)

    @pytest.mark.parametrize("m,n", [(1, 1), (5, 3), (50, 100), (128, 64), (11, 256)])
    def test_affine_any_rank_has_the_bits_of_mat_vecs_and_per_matrix_gemms(self, m, n):
        rng = np.random.default_rng(m * n)
        w, b = Tensor(rng.normal(size=(m, n))), Tensor(rng.normal(size=m))
        tape = Tape(grad=False)
        x = rng.normal(size=n)
        assert np.array_equal(tape.affine(w, Tensor(x), b).data, w.data @ x + b.data)
        rows = rng.normal(size=(7, 1, n))
        got = tape.affine(w, Tensor(rows), b).data
        for r in range(7):
            assert np.array_equal(got[r, 0], w.data @ rows[r, 0] + b.data)
        matrices = rng.normal(size=(3, 6, n))
        got = tape.affine(w, Tensor(matrices), b).data
        for k in range(3):
            assert np.array_equal(got[k], matrices[k] @ w.data.T + b.data)

    def test_affine_one_row_weight_gradient_is_the_outer_product(self):
        rng = np.random.default_rng(32)
        for shape in [(100,), (1, 100), (1, 1, 100)]:
            w, b, x = Tensor(rng.normal(size=(50, 100))), Tensor(np.zeros(50)), Tensor(rng.normal(size=shape))
            g = rng.normal(size=shape[:-1] + (50,))
            tape = Tape()
            tape.backward(tape.sum(tape.mul_const(tape.affine(w, x, b), g)))
            assert np.array_equal(w.grad, np.outer(g, x.data))
            assert np.array_equal(x.grad.ravel(), w.data.T @ g.ravel())


def test_matrix_ops_match_their_vector_forms_row_by_row():
    rng = np.random.default_rng(8)
    w, b = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=5))
    m, n = rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
    t = Tape()
    affine = t.affine(w, Tensor(m), b).data
    log_probs = t.log_softmax(Tensor(m)).data
    joined = t.concat([Tensor(m), Tensor(n)]).data
    rows = t.take(Tensor(m), np.array([2, 2, 0])).data
    for r in range(3):
        assert np.allclose(affine[r], t.affine(w, Tensor(m[r]), b).data, rtol=0.0, atol=1e-14)
        assert np.array_equal(log_probs[r], t.log_softmax(Tensor(m[r])).data)
        assert np.array_equal(joined[r], np.concatenate([m[r], n[r]]))
    assert np.array_equal(rows, m[[2, 2, 0]])


class TestSigmoid:
    """The tanh-form gate sigmoid against the softplus form it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
    @example([np.inf, -np.inf])
    @example([5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
    @example([1e308, -1e308, np.finfo(float).max, -np.finfo(float).max])
    def test_within_half_an_ulp_of_one_of_the_softplus_form(self, values):
        x = np.array(values)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sigmoid(x)
            mirrored = sigmoid(-x)
        reference = np.exp(-np.logaddexp(0.0, -x))
        assert np.all((0.0 <= got) & (got <= 1.0))
        assert np.all(np.abs(got - reference) <= 2.0**-53)
        assert np.all(np.abs(mirrored - (1.0 - got)) <= 2.0**-53)
        # the i, f and o gates of a BiLSTM step have Tape.sigmoid's bits: with
        # zero weights a step's pre-activations are the bias
        a = np.stack([x, -x, x, np.zeros_like(x)])
        cell = LstmCellParams(1, len(x))
        cell.b.data[...] = a.ravel()
        history, pre, hs = [], np.empty((1, 1, 2, 4 * len(x))), np.zeros((2, 1, 2, len(x)))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            nn._bilstm_sweep(cell, cell, [np.zeros((1, 1, 1))], pre, hs, history=history)
        ((gates,),) = history  # one stretch of one step
        expected = Tape().sigmoid(Tensor(a[:3])).data
        for direction in (0, 1):
            assert np.array_equal(gates[:3, 0, direction], expected)

    def test_exact_at_zero_and_beyond_38(self):
        assert np.array_equal(sigmoid(np.array([0.0, -0.0])), [0.5, 0.5])
        assert np.array_equal(sigmoid(np.array([38.5, 40.0, 1e3, np.inf])), np.ones(4))
        assert np.array_equal(sigmoid(np.array([-38.5, -40.0, -1e3, -np.inf])), np.zeros(4))


def saturate(cell, rng, gates, magnitude):
    """Set the biases of the given gates to +-magnitude (random signs) and
    check that, for inputs in [-4, 4], every pre-activation of those gates
    lies beyond +-40, where the sigmoid is exactly 0 or 1."""
    h = cell.hidden_size
    for gate in gates:
        rows = slice(h * "ifoc".index(gate), h * ("ifoc".index(gate) + 1))
        cell.b.data[rows] = rng.choice([-1.0, 1.0], size=h) * magnitude
        reach = np.abs(cell.w.data[rows]).sum(axis=1) * 4.0
        assert np.all(np.abs(cell.b.data[rows]) - reach > 40.0)


class TestSaturatedGates:
    """Gate pre-activations beyond +-40, where i, f and o are exactly 0 or 1."""

    def test_packed_states_equal_the_tape(self):
        rng = np.random.default_rng(40)
        fwd, bwd = LstmCellParams(4, 3, rng), LstmCellParams(4, 3, rng)
        saturate(fwd, rng, "ifo", 60.0)
        saturate(bwd, rng, "ifo", 60.0)
        lengths = [5, 3, 3, 1, 7]
        sequences = [np.clip(rng.normal(size=(n, 4)), -4.0, 4.0) for n in lengths]
        (groups,) = length_slices(lengths, len(lengths))
        states = packed_states(fwd, bwd, sequences, groups)
        for group, group_states in zip(groups, states):
            for i, got in zip(group, group_states):
                assert np.array_equal(got, recorded_states(fwd, bwd, sequences[i])), i

    @pytest.mark.parametrize("magnitude", [60.0, 1e3, 1e300])
    def test_tape_gradients_are_finite(self, magnitude):
        rng = np.random.default_rng(41)
        fwd, bwd = LstmCellParams(3, 4, rng), LstmCellParams(3, 4, rng)
        saturate(fwd, rng, "ifoc", magnitude)
        saturate(bwd, rng, "ifoc", magnitude)
        xs = Tensor(np.clip(rng.normal(size=(1, 6, 3)), -4.0, 4.0))
        tape = Tape()
        (states,) = tape.bilstm(fwd, bwd, [xs])
        tape.backward(tape.sum_squares(states))
        assert np.all(np.isfinite(states.data))
        for cell in (fwd, bwd):
            assert np.all(np.isfinite(cell.w.grad)) and np.all(np.isfinite(cell.b.grad))
        assert np.all(np.isfinite(xs.grad))

    def test_gradient_check(self):
        rng = np.random.default_rng(42)
        for steps in (1, 3, 5):
            fwd, bwd = LstmCellParams(3, 2, rng), LstmCellParams(3, 2, rng)
            saturate(fwd, rng, "ifo", 60.0)
            saturate(bwd, rng, "ifo", 60.0)
            params = bilstm_params(fwd, bwd)
            params["xs"] = Tensor(np.clip(rng.normal(size=(1, steps, 3)), -4.0, 4.0))

            def forward():
                t = Tape()
                return t, t.sum_squares(t.bilstm(fwd, bwd, [params["xs"]])[0])

            report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
            assert report.passed, (steps, report)
