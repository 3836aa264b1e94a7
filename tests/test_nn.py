import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    packed_bilstm,
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


def naive_lstm(cell, x, h_prev, c_prev):
    """Straight-line re-implementation of the gate equations."""
    z = np.concatenate([x, h_prev])
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = sig(cell.w_i.data @ z + cell.b_i.data)
    f = sig(cell.w_f.data @ z + cell.b_f.data)
    o = sig(cell.w_o.data @ z + cell.b_o.data)
    g = np.tanh(cell.w_c.data @ z + cell.b_c.data)
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


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
        cell.b_f.data[:] = 10.0
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


class TestSoftmax:
    def test_symmetry(self):
        t = Tape()
        out = t.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        t = Tape()
        out = t.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1.0 - 1e-12
        assert out.data[1] < 1e-12

    def test_matches_naive_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        t = Tape()
        out = t.softmax(Tensor(x))
        naive = np.exp(x) / np.exp(x).sum()
        assert np.allclose(out.data, naive, atol=1e-15)

    def test_empty_input_rejected(self):
        t = Tape()
        with pytest.raises(DimensionError):
            t.softmax(Tensor(np.zeros(0)))

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rng.normal(size=rng.integers(1, 8)) * 5
            a = Tape().softmax(Tensor(x)).data
            b = Tape().softmax(Tensor(x + 17.5)).data
            assert abs(a.sum() - 1.0) <= 1e-12
            assert np.all(a > 0)
            assert np.allclose(a, b, atol=1e-12)


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
        out = t.scale(p, 2.0)
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
        t.backward(t.add(s, s))
        assert np.array_equal(p.grad, [2.0, 2.0])


OP_CASES = {
    "add": lambda t, ps: t.sum_squares(t.add(ps[0], ps[1])),
    "sub": lambda t, ps: t.sum_squares(t.sub(ps[0], ps[1])),
    "mul": lambda t, ps: t.sum_squares(t.mul(ps[0], ps[1])),
    "scale": lambda t, ps: t.sum_squares(t.scale(ps[0], -1.7)),
    "mul_const": lambda t, ps: t.sum_squares(t.mul_const(ps[0], np.array([0.0, 2.0, 0.5, 2.0]))),
    "add_n": lambda t, ps: t.sum_squares(t.add_n([ps[0], ps[1]])),
    "concat": lambda t, ps: t.sum_squares(t.concat([ps[0], ps[1], ps[3]])),
    "tanh": lambda t, ps: t.sum_squares(t.tanh(ps[0])),
    "sigmoid": lambda t, ps: t.sum_squares(t.sigmoid(ps[0])),
    "softmax": lambda t, ps: t.sum_squares(t.softmax(ps[0])),
    "log_softmax": lambda t, ps: t.sum_squares(t.log_softmax(ps[0])),
    "pick": lambda t, ps: t.scale(t.pick(ps[0], 2), 3.0),
    "sum": lambda t, ps: t.sum(ps[0]),
    "sum_squares": lambda t, ps: t.sum_squares(ps[0]),
    "affine2": lambda t, ps: t.sum_squares(t.affine(ps[2], ps[0], ps[3])),
    "lstm": None,  # handled separately below
}


@pytest.mark.parametrize("op", [k for k in OP_CASES if OP_CASES[k]])
def test_gradients_match_finite_differences_100_instances(op):
    """Every differentiable op, 100 random instances each."""
    build = OP_CASES[op]
    rng = np.random.default_rng(hash(op) % 2**32)
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
            return t, t.add(t.sum_squares(h), t.sum_squares(c))

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
        p.grad[:] = [0.5, -1.0]
        opt = MomentumSgd({"p": p}, lr=0.1, momentum=0.0)
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
        with pytest.raises(ValueError):
            MomentumSgd({"p": p}, lr=0.0, momentum=0.9)
        with pytest.raises(ValueError):
            MomentumSgd({"p": p}, lr=0.1, momentum=1.0)


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


def lstm_step_chain(cell, x, reverse, weights):
    """Reference for Tape.lstm: the rows of x run through lstm_step one at a
    time; returns the states in input order, the per-row input gradients and
    the gate gradients of the loss sum(weights * states)."""
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
    grads = {k: p.grad.copy() for k, p in cell.parameters().items()}
    return np.stack([s.data for s in states]), np.stack([r.grad for r in rows]), grads


def lstm_kernel(cell, x, reverse, weights):
    for p in cell.parameters().values():
        p.zero_grad()
    xs = Tensor(x)
    tape = Tape()
    states = tape.lstm(cell, xs, reverse)
    tape.backward(tape.sum(tape.mul_const(states, weights)))
    grads = {k: p.grad.copy() for k, p in cell.parameters().items()}
    return states.data.copy(), xs.grad.copy(), grads


class TestLstmKernel:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 7])
    def test_matches_lstm_step_chain(self, steps, reverse):
        rng = np.random.default_rng(10 * steps + reverse)
        cell = LstmCellParams(3, 5, rng)
        cell.b_o.data[...] = rng.normal(size=5)
        x = rng.normal(size=(steps, 3))
        weights = rng.normal(size=(steps, 5))
        got = lstm_kernel(cell, x, reverse, weights)
        expected = lstm_step_chain(cell, x, reverse, weights)
        assert np.allclose(got[0], expected[0], rtol=0.0, atol=1e-12)
        assert np.allclose(got[1], expected[1], rtol=0.0, atol=1e-12)
        assert list(got[2]) == list(expected[2])
        for name in expected[2]:
            # from the zero state, one step gives the forget gate no gradient
            assert np.any(expected[2][name] != 0.0) or (steps, name[-1]) == (1, "f"), name
            assert np.allclose(got[2][name], expected[2][name], rtol=0.0, atol=1e-12), name

    def test_reverse_reads_rows_last_to_first(self):
        rng = np.random.default_rng(3)
        cell = LstmCellParams(2, 3, rng)
        x = rng.normal(size=(4, 2))
        backward = Tape().lstm(cell, Tensor(x), reverse=True).data
        flipped = Tape().lstm(cell, Tensor(x[::-1].copy())).data
        assert np.array_equal(backward, flipped[::-1])

    def test_gradient_check_including_length_one(self):
        rng = np.random.default_rng(17)
        for steps in (1, 1, 2, 3, 5):
            for reverse in (False, True):
                cell = LstmCellParams(3, 2, rng)
                params = cell.parameters()
                params["xs"] = Tensor(rng.normal(size=(steps, 3)))

                def forward():
                    t = Tape()
                    return t, t.sum_squares(t.lstm(cell, params["xs"], reverse))

                report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
                assert report.passed, (steps, reverse, report)

    def test_one_record_per_sequence(self):
        cell = LstmCellParams(3, 2, np.random.default_rng(0))
        tape = Tape()
        tape.lstm(cell, Tensor(np.ones((6, 3))))
        assert len(tape) == 1

    def test_input_width_mismatch(self):
        cell = LstmCellParams(3, 2)
        with pytest.raises(DimensionError):
            Tape().lstm(cell, Tensor(np.zeros((4, 2))))
        with pytest.raises(DimensionError):
            Tape().lstm(cell, Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            Tape().lstm(cell, Tensor(np.zeros((0, 3))))


class TestPackedBilstm:
    """The grad-free packed pass gives each direction of every sequence the
    bits of Tape.lstm, whatever else is in the batch."""

    @pytest.mark.parametrize("hidden,width", [(3, 4), (128, 64)])
    def test_each_direction_equals_the_tape_row_for_row(self, hidden, width):
        rng = np.random.default_rng(hidden)
        fwd, bwd = LstmCellParams(width, hidden, rng), LstmCellParams(width, hidden, rng)
        # lengths 1-20, some repeated, in shuffled order
        lengths = [int(n) for n in rng.permutation(list(range(1, 21)) + [1, 7, 7, 20])]
        sequences = [rng.normal(size=(n, width)) for n in lengths]
        (groups,) = length_slices(lengths, len(lengths))
        assert [len(sequences[g[0]]) for g in groups] == list(range(20, 0, -1))
        states = packed_bilstm(fwd, bwd, [np.stack([sequences[i] for i in g]) for g in groups])
        for group, group_states in zip(groups, states):
            assert group_states.shape == (len(group), len(sequences[group[0]]), 2 * hidden)
            for i, got in zip(group, group_states):
                xs = Tensor(sequences[i])
                assert np.array_equal(got[:, :hidden], Tape().lstm(fwd, xs).data), i
                assert np.array_equal(got[:, hidden:], Tape().lstm(bwd, xs, reverse=True).data), i

    def test_length_slices_sort_longest_first_and_cut(self):
        assert length_slices([2, 5, 2, 1, 5], 3) == [[[1, 4], [0]], [[2], [3]]]
        assert length_slices([3, 3], 5) == [[[0, 1]]]
        assert length_slices([], 4) == []


class TestStackedGateStorage:
    def test_parameters_keep_names_shapes_and_draw_order(self):
        cell = LstmCellParams(3, 2, np.random.default_rng(4))
        params = cell.parameters("l1f.")
        names = [f"l1f.{kind}_{gate}" for gate in "ifoc" for kind in "wb"]
        assert list(params) == names
        reference = np.random.default_rng(4)
        for gate in "ifoc":
            assert params[f"l1f.w_{gate}"].shape == (2, 5)
            assert params[f"l1f.b_{gate}"].shape == (2,)
            assert np.array_equal(params[f"l1f.w_{gate}"].data, nn.glorot_uniform(reference, 2, 5))
            expected_bias = np.ones(2) if gate == "f" else np.zeros(2)
            assert np.array_equal(params[f"l1f.b_{gate}"].data, expected_bias)
        assert np.array_equal(cell.w.data, np.concatenate([params[n].data for n in names[0::2]]))

    def test_in_place_gate_edit_is_seen_by_kernel(self):
        rng = np.random.default_rng(5)
        cell = LstmCellParams(3, 4)
        x = rng.normal(size=(3, 3))
        before = Tape().lstm(cell, Tensor(x)).data
        cell.w_f.data[...] = rng.normal(size=(4, 7))
        cell.w_c.data[...] = rng.normal(size=(4, 7))
        cell.b_i.data[1] = 2.0
        after = Tape().lstm(cell, Tensor(x)).data
        assert not np.array_equal(before, after)
        assert np.array_equal(cell.w.data[4:8], cell.w_f.data)
        expected, _, _ = lstm_step_chain(cell, x, False, np.ones((3, 4)))
        assert np.allclose(after, expected, rtol=0.0, atol=1e-12)

    def test_optimizer_step_updates_the_stacked_weights(self):
        rng = np.random.default_rng(6)
        cell = LstmCellParams(2, 3, rng)
        opt = MomentumSgd(cell.parameters(), lr=0.1, momentum=0.9)
        x = Tensor(rng.normal(size=(4, 2)))
        start = cell.w.data.copy()
        opt.zero_grad()
        tape = Tape()
        tape.backward(tape.sum_squares(tape.lstm(cell, x)))
        assert np.array_equal(cell.w_o.grad, cell.w.grad[6:9])
        grad = cell.w.grad.copy()
        opt.step()
        assert np.allclose(cell.w.data, start - 0.1 * grad, rtol=0.0, atol=1e-15)
        expected, _, _ = lstm_step_chain(cell, x.data, False, np.ones((4, 3)))
        assert np.allclose(Tape().lstm(cell, x).data, expected, rtol=0.0, atol=1e-12)

    def test_restore_parameters_is_seen_by_kernel(self):
        from spellvec.mimick import restore_parameters

        rng = np.random.default_rng(7)
        cell = LstmCellParams(2, 3)
        tensors = {k: rng.normal(size=p.shape) for k, p in cell.parameters().items()}
        restore_parameters("cell.svm", cell.parameters(), tensors)
        assert np.array_equal(
            cell.w.data, np.concatenate([tensors[f"w_{g}"] for g in LstmCellParams.GATES])
        )
        assert np.array_equal(
            cell.b.data, np.concatenate([tensors[f"b_{g}"] for g in LstmCellParams.GATES])
        )
        x = rng.normal(size=(3, 2))
        expected, _, _ = lstm_step_chain(cell, x, True, np.ones((3, 3)))
        assert np.allclose(Tape().lstm(cell, Tensor(x), reverse=True).data, expected,
                           rtol=0.0, atol=1e-12)


MATRIX_OP_CASES = {
    "affine": lambda t, ps: t.sum_squares(t.affine(ps["w"], ps["m"], ps["bias"])),
    "concat": lambda t, ps: t.sum_squares(t.concat([ps["m"], ps["n"]])),
    "stack": lambda t, ps: t.sum_squares(t.stack([ps["a"], ps["b"], ps["a"]])),
    "row": lambda t, ps: t.sum_squares(t.row(ps["m"], [2, 0, 2, 1])),
    "log_softmax": lambda t, ps: t.sum_squares(t.log_softmax(ps["m"])),
    "pick": lambda t, ps: t.sum_squares(t.pick(ps["m"], [3, 0, 3])),
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


def test_matrix_ops_match_their_vector_forms_row_by_row():
    rng = np.random.default_rng(8)
    w, b = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=5))
    m, n = rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
    t = Tape()
    affine = t.affine(w, Tensor(m), b).data
    log_probs = t.log_softmax(Tensor(m)).data
    picked = t.pick(Tensor(m), [3, 0, 1]).data
    joined = t.concat([Tensor(m), Tensor(n)]).data
    rows = t.row(Tensor(m), [2, 2, 0]).data
    for r in range(3):
        assert np.allclose(affine[r], t.affine(w, Tensor(m[r]), b).data, rtol=0.0, atol=1e-14)
        assert np.array_equal(log_probs[r], t.log_softmax(Tensor(m[r])).data)
        assert picked[r] == m[r, [3, 0, 1][r]]
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
        # the gate update's sigmoid rows have Tape.sigmoid's bits
        a = np.stack([x, -x, x, np.zeros_like(x)])
        act, state = np.empty_like(a), np.zeros((4, len(x)))
        nn._lstm_update(a, state[0], act, state[1], state[2], state[3])
        assert np.array_equal(act[:3], Tape().sigmoid(Tensor(a[:3])).data)

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
        states = packed_bilstm(fwd, bwd, [np.stack([sequences[i] for i in g]) for g in groups])
        for group, group_states in zip(groups, states):
            for i, got in zip(group, group_states):
                xs = Tensor(sequences[i])
                assert np.array_equal(got[:, :3], Tape().lstm(fwd, xs).data), i
                assert np.array_equal(got[:, 3:], Tape().lstm(bwd, xs, reverse=True).data), i

    @pytest.mark.parametrize("magnitude", [60.0, 1e3, 1e300])
    def test_tape_gradients_are_finite(self, magnitude):
        rng = np.random.default_rng(41)
        cell = LstmCellParams(3, 4, rng)
        saturate(cell, rng, "ifoc", magnitude)
        xs = Tensor(np.clip(rng.normal(size=(6, 3)), -4.0, 4.0))
        for reverse in (False, True):
            for p in [*cell.parameters().values(), xs]:
                p.zero_grad()
            tape = Tape()
            states = tape.lstm(cell, xs, reverse)
            tape.backward(tape.sum_squares(states))
            assert np.all(np.isfinite(states.data))
            assert np.all(np.isfinite(cell.w.grad)) and np.all(np.isfinite(cell.b.grad))
            assert np.all(np.isfinite(xs.grad))

    def test_gradient_check(self):
        rng = np.random.default_rng(42)
        for steps in (1, 3, 5):
            for reverse in (False, True):
                cell = LstmCellParams(3, 2, rng)
                saturate(cell, rng, "ifo", 60.0)
                params = cell.parameters()
                params["xs"] = Tensor(np.clip(rng.normal(size=(steps, 3)), -4.0, 4.0))

                def forward():
                    t = Tape()
                    return t, t.sum_squares(t.lstm(cell, params["xs"], reverse))

                report = gradient_check(forward, params, eps=1e-5, tol=1e-4)
                assert report.passed, (steps, reverse, report)
