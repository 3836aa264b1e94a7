"""Reverse-mode automatic differentiation over dense float64 arrays.

Values live in Tensor nodes wrapping numpy arrays. Operations are methods on
a Tape, which records them in execution order; Tape.backward replays the
records in reverse, accumulating gradients into every reachable input.
Reverse recording order is a valid topological order because every operand
of an operation exists (and is therefore recorded) before the operation's
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "Tape",
    "LstmCellParams",
    "sigmoid",
    "lstm_step",
    "length_slices",
    "matvec_rows",
    "packed_bilstm",
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
    """A float64 array paired with a gradient accumulator of the same shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"<Tensor shape={self.data.shape}>"


def _require_vector(op: str, *tensors: Tensor) -> None:
    for t in tensors:
        if t.data.ndim != 1:
            raise DimensionError(f"{op}: expected vector, got shape {t.data.shape}")


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def sigmoid(x, out=None) -> np.ndarray:
    """The logistic function, computed as 0.5 * tanh(0.5 * x) + 0.5: the one
    sigmoid of every LSTM gate, on the tape and off it.

    Halving is exact, so the result is within 2**-53 of the slower softplus
    form exp(-softplus(-x)), exactly 0.5 at 0 and exactly 0 or 1 once
    |x| > 38; nothing overflows. The result is written to out if given.
    """
    if out is None:
        out = np.empty(np.shape(x))
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


class Tape:
    """Execution-ordered record of primitive operations for reverse replay.

    One tape per forward pass. Tapes are per-thread and never shared.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []

    def __len__(self) -> int:
        return len(self._records)

    def _emit(self, out: Tensor, backward) -> Tensor:
        self._records.append((out, backward))
        return out

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(input) into .grad of every tensor reachable
        from the scalar loss node. Inputs not reached keep their zeros."""
        if loss.data.shape != ():
            raise ValueError(f"loss must be a scalar node, got shape {loss.data.shape}")
        loss.grad[...] = 1.0
        for out, backward in reversed(self._records):
            backward(out.grad)

    # ------------------------------------------------------------------
    # elementwise arithmetic

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        _require_same_shape("add", a, b)
        out = Tensor(a.data + b.data)

        def backward(g):
            a.grad += g
            b.grad += g

        return self._emit(out, backward)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        _require_same_shape("sub", a, b)
        out = Tensor(a.data - b.data)

        def backward(g):
            a.grad += g
            b.grad -= g

        return self._emit(out, backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        _require_same_shape("mul", a, b)
        out = Tensor(a.data * b.data)

        def backward(g):
            a.grad += g * b.data
            b.grad += g * a.data

        return self._emit(out, backward)

    def scale(self, a: Tensor, factor: float) -> Tensor:
        out = Tensor(a.data * factor)

        def backward(g):
            a.grad += g * factor

        return self._emit(out, backward)

    def mul_const(self, a: Tensor, factors: np.ndarray) -> Tensor:
        """Elementwise product with a constant array (dropout masks)."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != a.data.shape:
            raise DimensionError(
                f"mul_const: shapes {a.data.shape} and {factors.shape} differ"
            )
        out = Tensor(a.data * factors)

        def backward(g):
            a.grad += g * factors

        return self._emit(out, backward)

    def add_n(self, parts: list[Tensor]) -> Tensor:
        if not parts:
            raise DimensionError("add_n: empty input")
        for p in parts[1:]:
            _require_same_shape("add_n", parts[0], p)
        out = Tensor(sum(p.data for p in parts))

        def backward(g):
            for p in parts:
                p.grad += g

        return self._emit(out, backward)

    # ------------------------------------------------------------------
    # structural

    def affine(self, w: Tensor, x: Tensor, b: Tensor) -> Tensor:
        """W @ x + b for W (m, n), x (n,), b (m,); for x (T, n), the (T, m)
        matrix whose row t is W @ x[t] + b."""
        if w.data.ndim != 2:
            raise DimensionError(f"affine: W must be a matrix, got shape {w.data.shape}")
        _require_vector("affine", b)
        if x.data.ndim not in (1, 2):
            raise DimensionError(f"affine: x must be a vector or a matrix, got shape {x.data.shape}")
        m, n = w.data.shape
        if x.data.shape[-1] != n or b.data.shape[0] != m:
            raise DimensionError(
                f"affine: W {w.data.shape} does not conform with "
                f"x {x.data.shape} and b {b.data.shape}"
            )
        if x.data.ndim == 1:
            out = Tensor(w.data @ x.data + b.data)

            def backward(g):
                w.grad += np.outer(g, x.data)
                x.grad += w.data.T @ g
                b.grad += g

        else:
            out = Tensor(x.data @ w.data.T + b.data)

            def backward(g):
                w.grad += g.T @ x.data
                x.grad += g @ w.data
                b.grad += g.sum(axis=0)

        return self._emit(out, backward)

    def concat(self, parts: list[Tensor]) -> Tensor:
        """Join vectors, or matrices with equal row counts, on the last axis."""
        if not parts:
            raise DimensionError("concat: empty input")
        shapes = [p.data.shape for p in parts]
        if any(len(s) == 0 or s[:-1] != shapes[0][:-1] for s in shapes):
            raise DimensionError(f"concat: shapes {shapes} do not join on the last axis")
        sizes = [s[-1] for s in shapes]
        out = Tensor(np.concatenate([p.data for p in parts], axis=-1))

        def backward(g):
            offset = 0
            for p, size in zip(parts, sizes):
                p.grad += g[..., offset : offset + size]
                offset += size

        return self._emit(out, backward)

    def stack(self, parts: list[Tensor]) -> Tensor:
        """The (len(parts), n) matrix whose rows are the vectors in parts."""
        if not parts:
            raise DimensionError("stack: empty input")
        _require_vector("stack", *parts)
        for p in parts[1:]:
            _require_same_shape("stack", parts[0], p)
        out = Tensor(np.stack([p.data for p in parts]))

        def backward(g):
            for p, g_row in zip(parts, g):
                p.grad += g_row

        return self._emit(out, backward)

    def row(self, m: Tensor, index: int | list[int]) -> Tensor:
        """Select row `index` of a matrix (embedding lookup); a list of
        indices selects those rows, repeats allowed, as a matrix."""
        if m.data.ndim != 2:
            raise DimensionError(f"row: expected matrix, got shape {m.data.shape}")
        if isinstance(index, (int, np.integer)):
            out = Tensor(m.data[index].copy())

            def backward(g):
                m.grad[index] += g

        else:
            rows = np.asarray(index, dtype=np.intp)
            out = Tensor(m.data[rows])

            def backward(g):
                np.add.at(m.grad, rows, g)

        return self._emit(out, backward)

    def pick(self, a: Tensor, index: int | list[int]) -> Tensor:
        """Element `index` of a vector; for a matrix and one index per row,
        the vector of the picked element of each row."""
        if a.data.ndim == 1:
            out = Tensor(a.data[index])

            def backward(g):
                a.grad[index] += g

        elif a.data.ndim == 2 and np.ndim(index) == 1 and len(index) == a.data.shape[0]:
            rows = np.arange(a.data.shape[0])
            cols = np.asarray(index, dtype=np.intp)
            out = Tensor(a.data[rows, cols])

            def backward(g):
                a.grad[rows, cols] += g

        else:
            raise DimensionError(f"pick: cannot pick {index!r} from shape {a.data.shape}")
        return self._emit(out, backward)

    # ------------------------------------------------------------------
    # recurrence

    def lstm(self, cell: LstmCellParams, xs: Tensor, reverse: bool = False) -> Tensor:
        """One LSTM sequence from zero state: the rows of xs (T, input) are
        read first to last (last to first if reverse) and the (T, hidden)
        states are returned in input order, as one record.

        The input projection of all steps is one GEMM; the backward pass is
        hand-written backpropagation through time whose weight gradient is
        one GEMM over [inputs | previous states].
        """
        n, h = cell.input_size, cell.hidden_size
        if xs.data.ndim != 2 or xs.data.shape[0] == 0 or xs.data.shape[1] != n:
            raise DimensionError(f"lstm: input shape {xs.data.shape} != (T, {n}) with T >= 1")
        w = cell.w.data
        w_h = w[:, n:]
        x = xs.data[::-1] if reverse else xs.data
        steps = x.shape[0]
        pre = x @ w[:, :n].T + cell.b.data
        # per step: sigmoid(i, f, o) and tanh(candidate), in gate order
        acts = np.empty((steps, 4, h))
        # row 0 of hs and cs is the zero start state
        hs = np.zeros((steps + 1, h))
        cs = np.zeros((steps + 1, h))
        tanh_cs = np.empty((steps, h))
        for t in range(steps):
            a = (pre[t] + w_h @ hs[t]).reshape(4, h)
            _lstm_update(a, cs[t], acts[t], cs[t + 1], tanh_cs[t], hs[t + 1])
        states = hs[1:]
        out = Tensor(states[::-1] if reverse else states)

        def backward(g):
            g = g[::-1] if reverse else g
            i, f, o, cand = acts[:, 0], acts[:, 1], acts[:, 2], acts[:, 3]
            # d(pre-activation)/dc for the i, f and candidate rows; /dh for o
            coef = np.stack(
                [cand * i * (1.0 - i), cs[:-1] * f * (1.0 - f), tanh_cs * o * (1.0 - o),
                 i * (1.0 - cand * cand)],
                axis=1,
            )
            dc_dh = o * (1.0 - tanh_cs * tanh_cs)
            w_h_t = w_h.T
            da = np.empty((steps, 4, h))
            dh_next = np.zeros(h)
            dc = np.zeros(h)
            f_next = np.zeros(h)
            for t in range(steps - 1, -1, -1):
                dh = g[t] + dh_next
                dc = dc * f_next + dh * dc_dh[t]
                d = da[t]
                np.multiply(dc, coef[t], out=d)
                d[2] = dh * coef[t, 2]
                dh_next = w_h_t @ d.ravel()
                f_next = f[t]
            da = da.reshape(steps, 4 * h)
            cell.w.grad += da.T @ np.concatenate([x, hs[:-1]], axis=1)
            cell.b.grad += da.sum(axis=0)
            dx = da @ w[:, :n]
            xs.grad += dx[::-1] if reverse else dx

        return self._emit(out, backward)

    # ------------------------------------------------------------------
    # nonlinearities and reductions

    def tanh(self, a: Tensor) -> Tensor:
        out = Tensor(np.tanh(a.data))

        def backward(g):
            a.grad += g * (1.0 - out.data * out.data)

        return self._emit(out, backward)

    def sigmoid(self, a: Tensor) -> Tensor:
        out = Tensor(sigmoid(a.data))

        def backward(g):
            a.grad += g * out.data * (1.0 - out.data)

        return self._emit(out, backward)

    def softmax(self, a: Tensor) -> Tensor:
        """Probability vector; computed with max-subtraction for stability."""
        _require_vector("softmax", a)
        if a.data.shape[0] == 0:
            raise DimensionError("softmax: empty input")
        shifted = a.data - a.data.max()
        e = np.exp(shifted)
        out = Tensor(e / e.sum())

        def backward(g):
            s = out.data
            a.grad += s * (g - np.dot(g, s))

        return self._emit(out, backward)

    def log_softmax(self, a: Tensor) -> Tensor:
        """Log-probabilities over the last axis of a vector or matrix."""
        if a.data.ndim not in (1, 2):
            raise DimensionError(f"log_softmax: expected vector or matrix, got shape {a.data.shape}")
        if a.data.shape[-1] == 0:
            raise DimensionError("log_softmax: empty input")
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        out = Tensor(shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True)))

        def backward(g):
            a.grad += g - np.exp(out.data) * g.sum(axis=-1, keepdims=True)

        return self._emit(out, backward)

    def sum(self, a: Tensor) -> Tensor:
        out = Tensor(a.data.sum())

        def backward(g):
            a.grad += g

        return self._emit(out, backward)

    def sum_squares(self, a: Tensor) -> Tensor:
        out = Tensor(np.sum(a.data * a.data))

        def backward(g):
            a.grad += 2.0 * a.data * g

        return self._emit(out, backward)


# ----------------------------------------------------------------------
# initializers


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def embedding_init(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows uniform in [-0.5/dim, 0.5/dim]."""
    return rng.uniform(-0.5 / dim, 0.5 / dim, size=(count, dim))


# ----------------------------------------------------------------------
# LSTM cell


class LstmCellParams:
    """Input, forget, output and candidate gate weights over [input; hidden].

    The gates are stacked, in that order, into one (4 * hidden, input +
    hidden) weight `w` and one (4 * hidden,) bias `b`. The per-gate tensors
    w_i ... b_c are the named parameters; their data and grad are views of
    row blocks of w and b, so an update through either is seen by both.

    With rng=None all parameters are zero; otherwise weights are Glorot
    uniform, drawn gate by gate, and the forget-gate bias starts at 1.0.
    """

    GATES = ("i", "f", "o", "c")

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None):
        if input_size < 1 or hidden_size < 1:
            raise DimensionError("lstm: input_size and hidden_size must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.w = Tensor(np.zeros((4 * h, input_size + h)))
        self.b = Tensor(np.zeros(4 * h))
        for k, gate in enumerate(self.GATES):
            rows = slice(k * h, (k + 1) * h)
            if rng is not None:
                self.w.data[rows] = glorot_uniform(rng, h, input_size + h)
                if gate == "f":
                    self.b.data[rows] = 1.0
            setattr(self, f"w_{gate}", _row_block(self.w, rows))
            setattr(self, f"b_{gate}", _row_block(self.b, rows))

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        for gate in self.GATES:
            out[f"{prefix}w_{gate}"] = getattr(self, f"w_{gate}")
            out[f"{prefix}b_{gate}"] = getattr(self, f"b_{gate}")
        return out


def _row_block(t: Tensor, rows: slice) -> Tensor:
    """A Tensor whose data and grad are views of rows of t's."""
    block = Tensor(t.data[rows])
    block.grad = t.grad[rows]
    return block


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
    z = tape.concat([x, h_prev])
    i = tape.sigmoid(tape.affine(cell.w_i, z, cell.b_i))
    f = tape.sigmoid(tape.affine(cell.w_f, z, cell.b_f))
    o = tape.sigmoid(tape.affine(cell.w_o, z, cell.b_o))
    cand = tape.tanh(tape.affine(cell.w_c, z, cell.b_c))
    c = tape.add(tape.mul(f, c_prev), tape.mul(i, cand))
    h = tape.mul(o, tape.tanh(c))
    return h, c


def _lstm_update(a, c_prev, act, c, tanh_c, h) -> None:
    """One LSTM state update from the gate pre-activations a (..., 4, hidden),
    in gate order: writes sigmoid(i, f, o) and tanh(candidate) to act, the new
    cell state to c (which may be c_prev), tanh(c) to tanh_c and the new
    hidden state to h. Tape.lstm and packed_bilstm both step through here,
    so their gate arithmetic is the same."""
    sigmoid(a[..., :3, :], out=act[..., :3, :])
    np.tanh(a[..., 3, :], out=act[..., 3, :])
    np.add(act[..., 1, :] * c_prev, act[..., 0, :] * act[..., 3, :], out=c)
    np.tanh(c, out=tanh_c)
    np.multiply(act[..., 2, :], tanh_c, out=h)


def matvec_rows(w: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """w @ x for each vector x on the last axis of xs, for w (m, n) and xs
    (..., n); a stack of weights (..., m, n) broadcasts against xs's leading axes.

    One BLAS mat-vec per vector, so each result has the bits of w @ x computed
    alone; one GEMM over all rows (xs @ w.T) rounds differently as B varies."""
    return np.matmul(w, xs[..., None])[..., 0]


def length_slices(lengths: list[int], size: int) -> list[list[list[int]]]:
    """The indices of sequences of the given lengths, longest first (input
    order within a length), cut into slices of at most size sequences, each
    slice a list of groups of one length: the packing packed_bilstm reads."""
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    return [
        [list(group) for _, group in groupby(order[start : start + size], lengths.__getitem__)]
        for start in range(0, len(order), size)
    ]


def packed_bilstm(
    fwd: LstmCellParams, bwd: LstmCellParams, groups: list[np.ndarray]
) -> list[np.ndarray]:
    """The states of a BiLSTM run over many sequences from zero state, grad-free.

    groups are (B_L, L, input) arrays of sequences of one length L, longest
    first. For each group the result holds the (B_L, L, 2 * hidden) states in
    input order, forward half first: row t of a sequence is the concatenation
    of row t of Tape.lstm(fwd, xs) and of Tape.lstm(bwd, xs, reverse=True).

    Both directions advance together. As in PyTorch's pack_padded_sequence,
    step t advances only the prefix of sequences longer than t: one mat-vec
    per direction and sequence against the stacked recurrent weights, then one
    gate update over all of them. The input projection is one (L, input) GEMM
    per sequence and direction. These are the BLAS calls Tape.lstm makes for
    one sequence, so a sequence's states have Tape.lstm's bits whatever else
    is in the batch; one GEMM over all rows would not, as BLAS rounds rows
    differently for different row counts.
    """
    n, h = fwd.input_size, fwd.hidden_size
    lengths = [g.shape[1] for g in groups]
    ends = np.cumsum([g.shape[0] for g in groups])
    starts = ends - [g.shape[0] for g in groups]
    total = int(ends[-1])
    # per sequence and step, the forward then the backward direction
    pre = np.empty((total, lengths[0], 2, 4 * h))
    for g, start, end in zip(groups, starts, ends):
        pre[start:end, : g.shape[1], 0] = g @ fwd.w.data[:, :n].T + fwd.b.data
        pre[start:end, : g.shape[1], 1] = g[:, ::-1] @ bwd.w.data[:, :n].T + bwd.b.data
    w_h = np.stack([fwd.w.data[:, n:], bwd.w.data[:, n:]])
    states = np.empty((total, lengths[0], 2, h))
    hs = np.zeros((total, 2, h))
    cs = np.zeros((total, 2, h))
    acts = np.empty((total, 2, 4, h))
    tanh_cs = np.empty((total, 2, h))
    running = len(groups)
    for t in range(lengths[0]):
        while lengths[running - 1] <= t:
            running -= 1
        k = ends[running - 1]
        a = pre[:k, t] + matvec_rows(w_h, hs[:k])
        _lstm_update(a.reshape(k, 2, 4, h), cs[:k], acts[:k], cs[:k], tanh_cs[:k], hs[:k])
        states[:k, t] = hs[:k]
    # the backward direction's step t read input row L - 1 - t
    return [
        np.concatenate([states[start:end, :L, 0], states[start:end, L - 1 :: -1, 1]], axis=-1)
        for L, start, end in zip(lengths, starts, ends)
    ]


# ----------------------------------------------------------------------
# optimizer


class MomentumSgd:
    """param <- param - v, after v <- momentum * v + lr * grad."""

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._params = dict(params)
        self._velocity = {name: np.zeros_like(p.data) for name, p in self._params.items()}

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def step(self) -> None:
        for name, p in self._params.items():
            v = self._velocity[name]
            v *= self.momentum
            v += self.lr * p.grad
            p.data -= v


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
