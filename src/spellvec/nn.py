"""Reverse-mode automatic differentiation over dense float64 arrays.

Values live in Tensor nodes wrapping numpy arrays of any rank; a leading
batch axis is part of the data. Operations are methods on a Tape, which
records them in execution order; Tape.backward replays the records in
reverse, accumulating gradients into every reachable input. Reverse
recording order is a valid topological order because every operand of an
operation exists (and is therefore recorded) before the operation's output.
A grad-free Tape runs the same operations and records nothing.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "Tape",
    "LstmCellParams",
    "sigmoid",
    "lstm_step",
    "length_slices",
    "flatten",
    "MomentumSgd",
    "GradCheckReport",
    "gradient_check",
    "dropout_mask",
    "glorot_uniform",
    "embedding_init",
]


class DimensionError(ValueError):
    """Shapes of an operation's inputs do not conform."""


class Tensor:
    """A float64 array and a gradient of its shape that holds no memory until
    it is first read or written: the grad property then allocates np.zeros,
    the only code that allocates a tensor's own gradient."""

    __slots__ = ("data", "_grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self.data.shape)
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"<Tensor shape={self.data.shape}>"


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def sigmoid(x) -> np.ndarray:
    """The logistic function, computed as 0.5 * tanh(0.5 * x) + 0.5. Only
    Tape.sigmoid (the lstm_step reference) calls it; _bilstm_sweep, every
    BiLSTM's step on the tape and off it, inlines the same operations.

    Halving is exact, so the result is within 2**-53 of the slower softplus
    form exp(-softplus(-x)), exactly 0.5 at 0 and exactly 0 or 1 once
    |x| > 38; nothing overflows.
    """
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


class Tape:
    """Execution-ordered record of primitive operations for reverse replay.

    A recording tape serves one forward pass. Tapes are per-thread and never
    shared. A Tape(grad=False) computes the same operations with the same
    bits, but records nothing (as torch.no_grad does): inference runs the
    training forward on one. No output is born with a gradient buffer; on a
    recording tape the backward pass allocates each one it writes.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self._records: list[tuple[Tensor, object]] = []

    def __len__(self) -> int:
        return len(self._records)

    def _emit(self, data: np.ndarray, backward) -> Tensor:
        # an operation's output is already float64: Tensor()'s np.asarray would only cost
        out = Tensor.__new__(Tensor)
        out.data, out._grad = data, None
        if self.grad:
            self._records.append((out, backward))
        return out

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(input) into .grad of every tensor reachable
        from the scalar loss node. Inputs not reached keep their zeros."""
        if not self.grad:
            raise ValueError("a grad-free tape has no record to replay")
        if loss.data.shape != ():
            raise ValueError(f"loss must be a scalar node, got shape {loss.data.shape}")
        loss.grad[...] = 1.0
        for out, backward in reversed(self._records):
            backward(out.grad)

    # ------------------------------------------------------------------
    # elementwise arithmetic

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        _require_same_shape("mul", a, b)

        def backward(g):
            a.grad += g * b.data
            b.grad += g * a.data

        return self._emit(a.data * b.data, backward)

    def mul_const(self, a: Tensor, factors) -> Tensor:
        """Elementwise product with a constant: a scalar, or an array of a's
        shape (a dropout mask)."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape not in ((), a.data.shape):
            raise DimensionError(f"mul_const: shapes {a.data.shape} and {factors.shape} differ")

        def backward(g):
            a.grad += g * factors

        return self._emit(a.data * factors, backward)

    def add_n(self, parts: list[Tensor]) -> Tensor:
        if not parts:
            raise DimensionError("add_n: empty input")
        for p in parts[1:]:
            _require_same_shape("add_n", parts[0], p)

        def backward(g):
            for p in parts:
                p.grad += g

        return self._emit(sum(p.data for p in parts), backward)

    # ------------------------------------------------------------------
    # structural

    def affine(self, w: Tensor, x: Tensor, b: Tensor) -> Tensor:
        """x @ W.T + b for W (m, n), b (m,) and x (..., n); for a vector x,
        W @ x + b. Its bits follow from BLAS's choice per rank: a vector or a
        (1, n) row is one mat-vec with the bits of W @ x, so (B, 1, n) is B
        mat-vecs, and (..., T, n) with T > 1 is one GEMM per (T, n) matrix."""
        shape = w.data.shape
        if len(shape) != 2 or b.data.shape != shape[:1] or x.data.shape[-1:] != shape[1:]:
            raise DimensionError(
                f"affine: W {shape} is not a matrix that conforms with "
                f"x {x.data.shape} and b {b.data.shape}"
            )
        m, n = shape

        def backward(g):
            rows, inputs = g.reshape(-1, m), x.data.reshape(-1, n)
            x.grad += (rows @ w.data).reshape(x.data.shape)
            if len(rows) == 1:  # the broadcast product has the bits of the GEMM and of np.outer
                w.grad += rows.T * inputs
                b.grad += rows[0]
            else:
                w.grad += rows.T @ inputs
                b.grad += rows.sum(axis=0)

        return self._emit(x.data @ w.data.T + b.data, backward)

    def concat(self, parts: list[Tensor], axis: int = -1) -> Tensor:
        """Join tensors on an axis (the last by default) along which all
        their other dimensions agree; one part is returned as it is."""
        if len(parts) == 1:
            return parts[0]
        try:
            out = np.concatenate([p.data for p in parts], axis=axis)
        except ValueError as err:  # no parts, a scalar, or shapes that do not join
            raise DimensionError(f"concat: {err}") from None

        def backward(g):
            index, start = [slice(None)] * g.ndim, 0
            for p in parts:
                index[axis] = slice(start, start + p.data.shape[axis])
                p.grad += g[tuple(index)]
                start = index[axis].stop

        return self._emit(out, backward)

    def take(self, a: Tensor, index) -> Tensor:
        """The elements of a at a numpy integer, slice or advanced index, in the
        index's shape: an integer array gathers a matrix's rows (an embedding
        lookup). An element named twice gets both gradients, added in index
        order."""

        def backward(g):
            np.add.at(a.grad, index, g)

        return self._emit(a.data[index], backward)

    # ------------------------------------------------------------------
    # recurrence

    def bilstm(
        self,
        fwd: LstmCellParams,
        bwd: LstmCellParams,
        groups: list[Tensor],
        order: list[list[int]] | None = None,
    ) -> list[Tensor]:
        """A BiLSTM over sequences from zero state. groups are (B_L, L, input)
        sequences of one length L, longest first (see length_slices); each
        gives its (B_L, L, 2 * hidden) states. fwd reads a sequence's rows
        first to last, bwd last to first, and row t of its states is fwd's
        state after row t, then bwd's. _bilstm_sweep advances only the
        sequences still running, as PyTorch's pack_padded_sequence does, so
        a sequence has the same bits whatever else is in the batch.

        A grad-free pass steps both directions at once, on this thread. A
        wide one, whose mat-vecs read at least TWO_THREAD_FLOATS recurrent
        weight floats a step in one direction (the sum of the lengths times
        4 * hidden**2 over the longest length), in a process that may run on
        two or more CPUs, steps fwd on a fresh worker thread and bwd on this
        one, with the same mat-vecs. The worker holds itself to this
        thread's allowed CPUs but the one this thread is on as the pass
        starts, and runs unplaced where that cannot be done; this thread's
        affinity is never changed (see _sweep_on_two_threads). The states
        have the same bits either way and wherever either thread runs, and
        nothing sets it.

        A recording tape makes one record of all the groups, on this thread
        (at training's widths a second one does not pay). It is ragged: a
        stretch is a run of steps in which the same k sequences (the first
        k of the batch) are running, and the record keeps one block per
        stretch of every step's gates over those k only (history; see
        _bilstm_sweep), so a padded step is neither stored nor computed.
        One sequence is one stretch. The backward pass is hand-written
        backpropagation through time, stretch by stretch from the last, over
        a stretch's sequences and both directions at once: elementwise
        arithmetic, which rounds each element alone, and one mat-vec per
        sequence, direction and step, as a broadcast np.matmul with the bits
        of 1-D ones. A stretch's gate coefficients are made as it is
        reached, and its pre-activation gradients kept as one block of its
        own; its first step reads the cell state before it from the wider
        stretch before, and a sequence that ends in it joins at its last
        step with zero gradients. Then each sequence in turn, on its own
        rows, joined from the stretches it runs in where it spans several,
        adds what a batch would round differently: per direction its
        weight-gradient GEMM over [inputs | previous states] and its bias
        sum, then its input-gradient GEMMs, bwd's first. order, the groups'
        sequences' places in the caller's order (length_slices' index
        groups; batch order if omitted), sets the turns: the last place
        first, as one record per sequence made in that order would replay.
        So every gradient has the bits of such records.
        """
        n, h = fwd.input_size, fwd.hidden_size
        if (bwd.input_size, bwd.hidden_size) != (n, h):
            raise DimensionError(
                f"bilstm: directions differ: ({n}, {h}) and ({bwd.input_size}, {bwd.hidden_size})"
            )
        shapes, longest = [g.data.shape for g in groups], np.inf
        for s in shapes or [()]:  # no group fails as an empty shape
            if len(s) != 3 or 0 in s or s[2] != n or s[1] > longest:
                raise DimensionError(
                    f"bilstm: input shapes {shapes} are not (B, L, {n}) groups with "
                    "B, L >= 1, longest first"
                )
            longest = s[1]
        if order is not None and [len(g) for g in order] != [s[0] for s in shapes]:
            raise DimensionError(f"bilstm: order {order} does not name the groups' sequences")
        steps, arrays = shapes[0][1], [g.data for g in groups]
        starts = [0, *accumulate(s[0] for s in shapes)]
        batch = starts[-1]
        # the pass's buffers come from the calling thread, whichever thread steps a direction
        hs, pre = np.zeros((steps + 1, batch, 2, h)), np.empty((batch, steps, 2, 4 * h))
        if self.grad:
            # per stretch, after each step: sigmoid(i, f, o), tanh(candidate), the cell
            # state and its tanh of the running sequences
            history = []
            _bilstm_sweep(fwd, bwd, arrays, pre, hs, history=history)
        # a wide pass: its mat-vecs read at least TWO_THREAD_FLOATS recurrent weight
        # floats a step in one direction, on average
        elif (
            4 * h * h * sum(b * L for b, L, _ in shapes) >= TWO_THREAD_FLOATS * steps
            and _cpus() > 1
        ):
            _sweep_on_two_threads(fwd, bwd, arrays, pre, hs)
        else:
            _bilstm_sweep(fwd, bwd, arrays, pre, hs)
        by_sequence = hs.swapaxes(0, 1)
        # row 0 of hs is the zero start state; bwd's step t read input row L - 1 - t
        states = [
            np.concatenate([by_sequence[a:b, 1 : L + 1, 0], by_sequence[a:b, L:0:-1, 1]], axis=-1)
            for (_, L, _), a, b in zip(shapes, starts, starts[1:])
        ]
        if not self.grad:
            return [self._emit(s, None) for s in states]
        outs, cells = [Tensor(s) for s in states], (fwd, bwd)
        # per batch row: its group's input tensor, its row there and its length
        rows = [(x, j, L) for x, (b, L, _) in zip(groups, shapes) for j in range(b)]
        places = [p for g in order for p in g] if order is not None else range(batch)
        # the stretches from the first step: (sequences running, first step, end)
        lengths = [L for _, L, _ in shapes]
        stretches = [
            (k, stop, last)
            for k, last, stop in zip(starts[1:], lengths, [*lengths[1:], 0])
            if stop < last
        ][::-1]

        def backward(_):
            grads = [out.grad.swapaxes(0, 1) for out in outs]
            w_h_t = [cell.w.data[:, n:].T for cell in cells]
            # what flows back into a step's state and cell; the zero cell before step 0
            dh_next, dc, c_start = np.zeros((3, batch, 2, h))
            das = [None] * len(stretches)
            # from the last stretch back: a stretch's sequences that end in it join at
            # their last step, with zero dh_next and dc, and run with the longer ones
            for s, (k, t0, t1) in reversed(list(enumerate(stretches))):
                span = t1 - t0
                # per step and sequence, the gradient of each direction's state of that step
                g = np.empty((span, k, 2, h))
                for grad, L, a, b in zip(grads, lengths, starts, starts[1:]):
                    if a == k:
                        break
                    g[:, a:b, 0] = grad[t0:t1, :, :h]
                    g[:, a:b, 1] = grad[L - t1 : L - t0][::-1, :, h:]
                i, f, o, cand, c, tanh_cs = history[s].swapaxes(0, 1)
                # d(pre-activation)/dc for the i, f and candidate rows; /dh for o. The
                # cell before the stretch's first step is the last of the wider stretch
                coef = np.empty((span, k, 2, 4, h))
                before = history[s - 1][-1:, 4, :k] if s else c_start[None, :k]
                np.multiply(cand * i, 1.0 - i, out=coef[..., 0, :])
                np.multiply(np.concatenate([before, c[:-1]]) * f, 1.0 - f, out=coef[..., 1, :])
                np.multiply(tanh_cs * o, 1.0 - o, out=coef[..., 2, :])
                np.multiply(i, 1.0 - cand * cand, out=coef[..., 3, :])
                dc_dh = o * (1.0 - tanh_cs * tanh_cs)
                das[s] = da = np.empty((span, k, 2, 4, h))
                dh_k, dc_k, dc_gates, coef_o, da_o = (
                    dh_next[:k], dc[:k], dc[:k, :, None], coef[:, :, :, 2], da[:, :, :, 2]
                )
                da_f, da_b = da.reshape(span, k, 2, 4 * h, 1).transpose(2, 0, 1, 3, 4)
                dh_f, dh_b = dh_next[:k, :, :, None].swapaxes(0, 1)
                for t in range(span - 1, -1, -1):
                    dh = g[t] + dh_k
                    dc_k += dh * dc_dh[t]
                    np.multiply(dc_gates, coef[t], out=da[t])
                    np.multiply(dh, coef_o[t], out=da_o[t])
                    np.matmul(w_h_t[0], da_f[t], out=dh_f)
                    np.matmul(w_h_t[1], da_b[t], out=dh_b)
                    # the cell gradient that flows into step t - 1
                    dc_k *= f[t]
            del g, coef, coef_o, dc_dh  # freed before the sequences' GEMMs
            # sequence by sequence, the last place first, on its own rows
            for r in sorted(range(batch), key=places.__getitem__, reverse=True):
                x, j, L = rows[r]
                pieces = [da[:, r] for (k, _, _), da in zip(stretches, das) if r < k]
                by_step = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
                da_r, inputs = by_step.swapaxes(0, 1).reshape(2, L, 4 * h), x.data[j]
                # per direction, the inputs in the order it read them
                read = zip(cells, da_r, (inputs, inputs[::-1]), hs[:L, r].swapaxes(0, 1))
                for cell, d, seen, h_prev in read:
                    cell.w.grad += d.T @ np.concatenate([seen, h_prev], axis=1)
                    cell.b.grad += d.sum(axis=0)
                # bwd's input gradient first, as if each direction were its own record
                x_grad = x.grad[j]
                x_grad += (da_r[1] @ bwd.w.data[:, :n])[::-1]
                x_grad += da_r[0] @ fwd.w.data[:, :n]

        self._records.append((outs[0], backward))
        return outs

    # ------------------------------------------------------------------
    # nonlinearities and reductions

    def tanh(self, a: Tensor) -> Tensor:
        out = np.tanh(a.data)

        def backward(g):
            a.grad += g * (1.0 - out * out)

        return self._emit(out, backward)

    def sigmoid(self, a: Tensor) -> Tensor:
        out = sigmoid(a.data)

        def backward(g):
            a.grad += g * out * (1.0 - out)

        return self._emit(out, backward)

    def log_softmax(self, a: Tensor) -> Tensor:
        """Log-probabilities over the last axis."""
        if a.data.ndim == 0 or a.data.shape[-1] == 0:
            raise DimensionError(f"log_softmax: no values on the last axis of shape {a.data.shape}")
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

        def backward(g):
            a.grad += g - np.exp(out) * g.sum(axis=-1, keepdims=True)

        return self._emit(out, backward)

    def sum(self, a: Tensor) -> Tensor:
        def backward(g):
            a.grad += g

        return self._emit(a.data.sum(), backward)

    def sum_squares(self, a: Tensor, target=None) -> Tensor:
        """The sum of (a - target)**2, for target None (zero) or a constant
        array of a's shape (a training target), which takes no gradient."""
        if target is not None:
            _require_same_shape("sum_squares", a, Tensor(target))
        d = a.data if target is None else a.data - target

        def backward(g):
            a.grad += 2.0 * d * g

        return self._emit(np.sum(d * d), backward)


# ----------------------------------------------------------------------
# initializers: with rng=None, zeros of the shape (a model to be restored)


def glorot_uniform(
    rng: np.random.Generator | None, fan_out: int, fan_in: int, blocks: int = 1
) -> np.ndarray:
    """blocks (fan_out, fan_in) draws stacked by rows, with the bits of one call per block."""
    if rng is None:
        return np.zeros((blocks * fan_out, fan_in))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(blocks * fan_out, fan_in))


def embedding_init(rng: np.random.Generator | None, count: int, dim: int) -> np.ndarray:
    """Rows uniform in [-0.5/dim, 0.5/dim]."""
    if rng is None:
        return np.zeros((count, dim))
    return rng.uniform(-0.5 / dim, 0.5 / dim, size=(count, dim))


# ----------------------------------------------------------------------
# LSTM cell


class LstmCellParams:
    """Input, forget, output and candidate gate weights over [input; hidden],
    stacked in that order into the cell's two parameters: one (4 * hidden,
    input + hidden) weight `w` and one (4 * hidden,) bias `b`.

    With rng=None both are zero; otherwise each gate's weights are Glorot
    uniform, in gate order, and the forget-gate bias starts at 1.0.
    """

    GATES = ("i", "f", "o", "c")

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None):
        if input_size < 1 or hidden_size < 1:
            raise DimensionError("lstm: input_size and hidden_size must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.w = Tensor(glorot_uniform(rng, h, input_size + h, blocks=4))
        self.b = Tensor(np.zeros(4 * h))
        if rng is not None:
            self.b.data[h : 2 * h] = 1.0

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {f"{prefix}w": self.w, f"{prefix}b": self.b}


def flatten(params: dict[str, Tensor]) -> tuple[np.ndarray, np.ndarray, list[Tensor]]:
    """Move the parameters, each tensor once however many names it has, into
    one flat data buffer and one flat zeroed gradient buffer, in the
    parameters' order, keeping their values; returns the two buffers and the
    moved tensors, each then a view of the two buffers."""
    moved = list({id(p): p for p in params.values()}.values())
    total = sum(t.data.size for t in moved)
    data, grad = np.empty(total), np.zeros(total)
    start = 0
    for t in moved:
        end = start + t.data.size
        block = data[start:end].reshape(t.data.shape)
        block[...] = t.data
        t.data, t.grad = block, grad[start:end].reshape(block.shape)
        start = end
    return data, grad, moved


def lstm_step(
    tape: Tape, cell: LstmCellParams, x: Tensor, h_prev: Tensor, c_prev: Tensor
) -> tuple[Tensor, Tensor]:
    """One gated update; returns (h, c) of the cell's hidden size."""
    if x.data.shape != (cell.input_size,):
        raise DimensionError(
            f"lstm_step: input shape {x.data.shape} != ({cell.input_size},)"
        )
    for name, v in (("h_prev", h_prev), ("c_prev", c_prev)):
        if v.data.shape != (cell.hidden_size,):
            raise DimensionError(
                f"lstm_step: {name} shape {v.data.shape} != ({cell.hidden_size},)"
            )
    a = tape.affine(cell.w, tape.concat([x, h_prev]), cell.b)
    size = cell.hidden_size
    i, f, o, cand = (tape.take(a, slice(k * size, (k + 1) * size)) for k in range(4))
    i, f, o, cand = tape.sigmoid(i), tape.sigmoid(f), tape.sigmoid(o), tape.tanh(cand)
    c = tape.add_n([tape.mul(f, c_prev), tape.mul(i, cand)])
    h = tape.mul(o, tape.tanh(c))
    return h, c


def length_slices(lengths: list[int], size: int) -> list[list[list[int]]]:
    """The indices of sequences of the given lengths, longest first (input
    order within a length), cut into slices of at most size sequences, each
    slice a list of groups of one length: the packing Tape.bilstm reads."""
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    return [
        [list(group) for _, group in groupby(order[start : start + size], lengths.__getitem__)]
        for start in range(0, len(order), size)
    ]


def _bilstm_sweep(
    fwd: LstmCellParams, bwd: LstmCellParams, groups, pre, hs, directions=slice(0, 2), history=None
) -> None:
    """Write the states of a BiLSTM over the arrays of Tape.bilstm's groups
    into hs (L + 1, B, 2, hidden), step first (row 0 the zero start state,
    the backward direction's step t at row t + 1): the one step loop of
    Tape.bilstm. directions, a slice of the direction axis, names the
    directions it steps, both (the default) or one; it writes only their
    slots of hs and of pre (B, L, 2, 4 * hidden), their input projections,
    so a call per direction writes the bits of one call on both. Per
    sequence and direction, one input-projection GEMM and one BLAS mat-vec
    per step (one GEMM over many rows rounds differently). Each gate-buffer
    slot (i, f, o, candidate, cell, its tanh) is contiguous over the running
    sequences and the directions stepped; the buffer is rebuilt only when
    that prefix shrinks. The i, f and o slots are halved, tanh'd with the
    candidate and halved and shifted by 0.5 (sigmoid's operations), and one
    product of the adjacent (i, f) and (candidate, cell) slots gives f * c
    and i * candidate.

    history is for a recording tape, over both directions: if given, a list
    that receives one block (steps, 6, k, 2, hidden) per stretch, the steps
    in which the first k sequences are running, in step order, allocated
    when the gate buffer is rebuilt for them; row u of a block receives the
    buffer after the stretch's step u, so no padded step is stored.
    Each direction's step is then one broadcast np.matmul of the cell's own
    strided recurrent view over the running sequences, which has the bits of
    a 1-D mat-vec per sequence (stacking the two views would copy them);
    a grad-free pass stacks them and steps both directions in one call.
    """
    n, h = fwd.input_size, fwd.hidden_size
    ends = list(accumulate(len(g) for g in groups))
    batch, steps = ends[-1], groups[0].shape[1]
    pre, hs = pre[:, :, directions], hs[:, :, directions]
    # the backward direction reads each sequence's rows last to first; the bias
    # is added straight into pre, so each thread holds one temporary at a time
    inputs = (((fwd, g), (bwd, g[:, ::-1]))[directions] for g in groups)
    for group, end in zip(inputs, ends):
        for k, (cell, x) in enumerate(group):
            rows = pre[end - len(x) : end, : x.shape[1], k]
            np.add(x @ cell.w.data[:, :n].T, cell.b.data, out=rows)
    running = []
    for g, end in zip(groups[::-1], ends[::-1]):
        running += [end] * (g.shape[1] - len(running))
    w_h, dirs = [cell.w.data[:, n:] for cell in (fwd, bwd)[directions]], hs.shape[2]
    mv = np.empty((batch, dirs, 4 * h))
    if history is None:
        w_h = np.stack(w_h)
    gates = np.zeros((6, batch, dirs, h))
    k = None
    for t in range(steps):
        if running[t] != k:
            k = running[t]
            cells, gates = gates[4, :k], np.empty((6, k, dirs, h))
            gates[4] = cells
            i_f, o, cand_c, c, tanh_c = gates[:2], gates[2], gates[3:5], gates[4], gates[5]
            a, ifo, a_in_gate_order = gates[:4], gates[:3], gates[:4].transpose(1, 2, 0, 3)
            i_cand, f_c = prod = np.empty((2, k, dirs, h))
            mv_k, mv_gates = mv[:k, ..., None], mv[:k].reshape(k, dirs, 4, h)
            pre_k = pre[:k].reshape(k, steps, dirs, 4, h)
            hs_k, hs_in = hs[:, :k], hs[:, :k, ..., None]
            if history is not None:
                h_f, h_b, mv_f, mv_b = hs_in[:, :, 0], hs_in[:, :, 1], mv_k[:, 0], mv_k[:, 1]
                first, block = t, np.empty((running.count(k), 6, k, dirs, h))
                history.append(block)
        if history is None:
            np.matmul(w_h, hs_in[t], out=mv_k)
        else:
            np.matmul(w_h[0], h_f[t], out=mv_f)
            np.matmul(w_h[1], h_b[t], out=mv_b)
        np.add(mv_gates, pre_k[:, t], out=a_in_gate_order)
        ifo *= 0.5
        np.tanh(a, out=a)
        ifo *= 0.5
        ifo += 0.5
        np.multiply(i_f, cand_c, out=prod)
        np.add(i_cand, f_c, out=c)
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=hs_k[t + 1])
        if history is not None:
            block[t - first] = gates


# a grad-free Tape.bilstm pass whose mat-vecs read at least this many recurrent
# weight floats a step in one direction, on average, steps its directions on two
# threads; below about 2**18, starting a thread and sharing the GIL cost more
TWO_THREAD_FLOATS = 2**20


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity
        return os.cpu_count() or 1


def _stat_cpu(stat: str) -> int:
    """The CPU a /proc/<pid>/stat line names: field 39, counted after the
    last ')', as the command name (field 2) may hold spaces and ')'."""
    return int(stat[stat.rindex(")") + 1 :].split()[36])


def _other_cpus() -> set[int]:
    """The CPUs this thread may run on but the one it is on, or an empty set
    where that CPU cannot be read (no /proc, or a platform without affinity)."""
    try:
        with open("/proc/thread-self/stat") as f:
            cpu = _stat_cpu(f.read())
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, ValueError, IndexError, AttributeError):
        return set()


def _sweep_on_two_threads(fwd: LstmCellParams, bwd: LstmCellParams, groups, pre, hs) -> None:
    """_bilstm_sweep's forward direction on a fresh worker thread and its
    backward direction on this one, each into its own slots of pre and hs.
    The worker runs under this thread's numpy error settings, and its
    exception is raised here once it has been joined.

    Linux tends to start a fresh thread on its creator's CPU, where the two
    directions would take turns. So the worker first holds itself to this
    thread's allowed CPUs but the one this thread is on as the pass starts;
    this thread's own affinity is never changed. Where that CPU cannot be
    read, no other CPU is allowed, or sched_setaffinity raises, the worker
    runs where the OS puts it, silently. The states have the same bits
    wherever either thread runs."""
    settings, raised, others = np.geterr(), [], _other_cpus()

    def forward() -> None:
        try:
            if others:
                try:
                    os.sched_setaffinity(0, others)
                except OSError:
                    pass  # the worker runs unplaced
            with np.errstate(**settings):
                _bilstm_sweep(fwd, bwd, groups, pre, hs, slice(0, 1))
        except BaseException as err:  # raised again on the calling thread
            raised.append(err)

    worker = threading.Thread(target=forward, name="bilstm-forward")
    worker.start()
    try:
        _bilstm_sweep(fwd, bwd, groups, pre, hs, slice(1, 2))
    finally:
        worker.join()
    if raised:
        raise raised[0]


# ----------------------------------------------------------------------
# optimizer


# floats per pass of MomentumSgd.step: a block's operands stay in cache
# between the step's four elementwise passes
STEP_BLOCK = 2**16


class MomentumSgd:
    """param <- param - v, after v <- momentum * v + lr * grad.

    Building the optimizer moves the parameters into one flat store (see
    flatten), which zeroes their gradients. It keeps the store's data and
    gradient buffers and one velocity buffer, ordinary memory written at once:
    zero_grad is one fill, and step runs over the store in blocks of
    STEP_BLOCK floats, with the elementwise arithmetic of a per-tensor step.

    Each tensor is moved once, so a tensor named twice is stepped once.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float):
        if not 0.0 < lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._data, self._grad, self._moved = flatten(params)
        self._velocity = np.zeros(self._data.size)
        self._scratch = np.empty(min(STEP_BLOCK, self._data.size))

    def zero_grad(self) -> None:
        self._require_store()
        self._grad.fill(0.0)

    def step(self) -> None:
        self._require_store()
        for start in range(0, self._data.size, STEP_BLOCK):
            v = self._velocity[start : start + STEP_BLOCK]
            lr_grad = self._scratch[: v.size]
            v *= self.momentum
            np.multiply(self._grad[start : start + STEP_BLOCK], self.lr, out=lr_grad)
            v += lr_grad
            self._data[start : start + STEP_BLOCK] -= v

    def release(self) -> None:
        """Drop every moved tensor's gradient, allocated anew as its own zeros
        when next used, and the flat gradient,
        velocity and scratch buffers; step and zero_grad then raise, and a new
        MomentumSgd moves the parameters anew."""
        for t in self._moved:
            t.grad = None
        self._grad = self._velocity = self._scratch = self._moved = None

    def _require_store(self) -> None:
        if self._grad is None:
            raise ValueError("the optimizer was released: build a new MomentumSgd to train again")


# ----------------------------------------------------------------------
# dropout


def dropout_mask(
    shape: int | tuple[int, ...], rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Inverted-dropout mask of the given shape: zero with probability rate,
    else 1/(1-rate). It draws rng.random(shape), which fills the mask in
    row-major order, so a (T, n) mask equals T masks of n drawn in turn."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


# ----------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def gradient_check(
    forward,
    params: dict[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar closure with central differences.

    forward() must rebuild its computation and return (tape, loss); it must be
    deterministic (dropout disabled). Relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|), so coordinates with
    near-zero gradients are compared absolutely.
    """
    for p in params.values():
        p.zero_grad()
    tape, loss = forward()
    tape.backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    worst = (0.0, "", ())
    for name, p in params.items():
        flat = p.data.ravel()
        grad_flat = analytic[name].ravel()
        for idx in range(flat.shape[0]):
            saved = flat[idx]
            flat[idx] = saved + eps
            plus = float(forward()[1].data)
            flat[idx] = saved - eps
            minus = float(forward()[1].data)
            flat[idx] = saved
            numeric = (plus - minus) / (2.0 * eps)
            a = grad_flat[idx]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if rel > worst[0]:
                worst = (rel, name, np.unravel_index(idx, p.data.shape))
    return GradCheckReport(worst[0], worst[1], worst[2], tol)
