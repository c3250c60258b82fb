"""Neural building blocks: LSTM cell, 1-D convolution, attention and dense.

Every layer takes a batch and nothing else.  ``Conv1d``, ``LstmCell.unroll``
and ``AttentionHead`` take windows [B, n, channels]; ``Dense`` and
``LstmCell.step`` take rows [B, channels], with [B, hidden] states for
``step``.  Any other rank or channel width is a DimensionError; one
window is a batch of one.  ``Conv1d`` and ``LstmCell.unroll`` each run
in numpy as one graph node with a hand-written backward.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError, UsageError
from .tensor import Tensor, _accum, concat, records, softmax


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    """Uniform init in +-sqrt(6/(fan_in+fan_out)), as a trainable tensor."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _check_batch(x: Tensor, width: int, what: str, rank: int = 3) -> None:
    """Reject anything but a [B, n, width] batch, or [B, width] for rank 2."""
    if x.ndim != rank or x.shape[-1] != width:
        axes = "B, n" if rank == 3 else "B"
        raise DimensionError(f"{what} expects a [{axes}, {width}] batch, got shape {x.shape}")


class Dense:
    """Affine map y = Wx + b."""

    def __init__(self, in_size: int, out_size: int, rng: np.random.Generator):
        self.in_size = in_size
        self.out_size = out_size
        self.W = glorot_uniform(rng, (out_size, in_size), in_size, out_size)
        self.b = zeros(out_size)

    def __call__(self, x: Tensor) -> Tensor:
        _check_batch(x, self.in_size, "dense", rank=2)
        return x @ self.W.transpose((1, 0)) + self.b.expand((x.shape[0], self.out_size))

    def parameters(self) -> dict[str, Tensor]:
        return {"W": self.W, "b": self.b}


class Conv1d:
    """1-D cross-correlation over time with symmetric zero "same" padding.

    Output length equals input length; the kernel size must be odd so the
    padding is (k-1)/2 on each side.  A call is one graph node with parents
    (input, W, b), read at call time.  The forward sums
    ``xp[:, j:j + n] @ W[:, :, j].T`` over taps j = 0..k-1 in order and adds
    ``b`` last, so its outputs are bit-identical to the same sum built from
    engine ops, and it makes no unfolded copy of the input.  The backward
    skips the input gradient when the input needs none, as for raw windows.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be a positive odd int, got {kernel_size}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan = in_channels * kernel_size, out_channels * kernel_size
        self.W = glorot_uniform(rng, (out_channels, in_channels, kernel_size), *fan)
        self.b = zeros(out_channels)

    def __call__(self, x: Tensor) -> Tensor:
        _check_batch(x, self.in_channels, "conv1d")
        W, b, n, k = self.W, self.b, x.shape[1], self.kernel_size
        pad = (k - 1) // 2
        xp = np.pad(x.data, ((0, 0), (pad, pad), (0, 0)))
        taps = W.data.transpose(2, 1, 0)  # [k, in, out]
        y = xp[:, :n] @ taps[0]
        for j in range(1, k):
            y += xp[:, j:j + n] @ taps[j]
        y += b.data

        def backward(g):
            if W.requires_grad:
                _accum(W, np.stack([np.tensordot(xp[:, j:j + n], g, axes=([0, 1], [0, 1])).T
                                    for j in range(k)], axis=2))
            if b.requires_grad:
                _accum(b, g.sum(axis=(0, 1)))
            if x.requires_grad:
                dxp = np.zeros(xp.shape)
                for j in range(k):
                    dxp[:, j:j + n] += g @ taps[j].T
                _accum(x, dxp[:, pad:pad + n])

        return Tensor._from_op(y, (x, W, b), backward)

    def parameters(self) -> dict[str, Tensor]:
        return {"W": self.W, "b": self.b}


class LstmCell:
    """Single recurrent cell with input, forget and output gates.

    Gates are sigmoid maps of the concatenated [h_prev, x_t]; the candidate
    memory uses tanh.  The forget-gate bias starts at 1.0 so early training
    keeps most of the memory cell.

    ``step`` builds one update from engine ops and is the readable
    reference.  ``unroll`` runs the whole recurrence in numpy as one
    graph node whose parents are the input and the eight parameters.  It
    stacks the gate weights, read at call time, into one [H + in, 4H]
    matrix whose column blocks are i, f, o, C in that order; the first H
    rows multiply h_prev and the last ``in`` rows multiply x_t.  Its
    backward is hand-written backpropagation through time.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        cat = hidden_size + input_size
        self.W_i = glorot_uniform(rng, (hidden_size, cat), cat, hidden_size)
        self.W_f = glorot_uniform(rng, (hidden_size, cat), cat, hidden_size)
        self.W_o = glorot_uniform(rng, (hidden_size, cat), cat, hidden_size)
        self.W_C = glorot_uniform(rng, (hidden_size, cat), cat, hidden_size)
        self.b_i = zeros(hidden_size)
        self.b_f = Tensor(np.ones(hidden_size), requires_grad=True)
        self.b_o = zeros(hidden_size)
        self.b_C = zeros(hidden_size)

    def step(self, x_t: Tensor, h_prev: Tensor, c_prev: Tensor):
        """One update of a [B, in] input and [B, hidden] states; returns (h_t, C_t)."""
        _check_batch(x_t, self.input_size, "lstm", rank=2)
        rows = (x_t.shape[0], self.hidden_size)
        for name, t in (("h_prev", h_prev), ("c_prev", c_prev)):
            if t.shape != rows:
                raise DimensionError(
                    f"{name} shape {t.shape} incompatible with input shape {x_t.shape} "
                    f"and hidden size {self.hidden_size}"
                )
        cat = concat([h_prev, x_t], axis=-1)

        def gate(w, b):
            return cat @ w.transpose((1, 0)) + b.expand(rows)

        i = gate(self.W_i, self.b_i).sigmoid()
        f = gate(self.W_f, self.b_f).sigmoid()
        o = gate(self.W_o, self.b_o).sigmoid()
        cand = gate(self.W_C, self.b_C).tanh()
        c = f * c_prev + i * cand
        h = o * c.tanh()
        return h, c

    def unroll(self, sequence: Tensor) -> Tensor:
        """Run the cell over a whole sequence from a zero initial state.

        Takes [B, n, in] and returns every hidden state in order as
        [B, n, hidden]; gradients flow through the full unroll.
        """
        _check_batch(sequence, self.input_size, "lstm")
        x = sequence.data
        batch, n = x.shape[0], x.shape[1]
        if n < 1:
            raise UsageError("cannot unroll an empty sequence")
        H = self.hidden_size
        weights = (self.W_i, self.W_f, self.W_o, self.W_C)
        biases = (self.b_i, self.b_f, self.b_o, self.b_C)
        parents = (sequence,) + weights + biases
        stacked = np.concatenate([w.data.T for w in weights], axis=1)  # [H + in, 4H]
        wh_t, wx_t = stacked[:H], stacked[H:]  # row blocks, so both contiguous
        bias = np.concatenate([b.data for b in biases])
        keep = records(parents)
        gates = np.empty((n, batch, 4 * H)) if keep else None
        cells = np.empty((n, batch, H)) if keep else None
        scratch = None if keep else np.empty((batch, 4 * H))
        out = np.empty((batch, n, H))
        h, c = None, np.zeros((batch, H))
        # exp(-z) overflows to inf for z < -709, which gives the correct 0.0
        with np.errstate(over="ignore"):
            for t in range(n):
                z = gates[t] if keep else scratch
                np.matmul(x[:, t], wx_t, out=z)
                if t:
                    z += h @ wh_t
                z += bias
                z[:, :3 * H] = 1.0 / (1.0 + np.exp(-z[:, :3 * H]))
                np.tanh(z[:, 3 * H:], out=z[:, 3 * H:])
                i, f, o, cand = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H], z[:, 3 * H:]
                c = f * c + i * cand
                h = o * np.tanh(c)
                out[:, t] = h
                if keep:
                    cells[t] = c

        def backward(g):
            g3 = g.reshape(batch, n, H)
            dz = np.empty((n, batch, 4 * H))  # d loss / d gate pre-activations
            dh, dc = g3[:, n - 1], 0.0
            for t in range(n - 1, -1, -1):
                a = gates[t]
                i, f, o, cand = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
                tc = np.tanh(cells[t])
                dc = dc + dh * o * (1.0 - tc * tc)
                d = dz[t]
                d[:, :H] = dc * cand * i * (1.0 - i)
                d[:, H:2 * H] = dc * cells[t - 1] * f * (1.0 - f) if t else 0.0
                d[:, 2 * H:3 * H] = dh * tc * o * (1.0 - o)
                d[:, 3 * H:] = dc * i * (1.0 - cand * cand)
                if t:
                    dc = dc * f
                    dh = g3[:, t - 1] + d @ wh_t.T
            flat = dz.reshape(n * batch, 4 * H)
            h_prev = out[:, :-1].transpose(1, 0, 2).reshape(-1, H)  # h_0 = 0 adds nothing
            dw = np.empty((4 * H, H + self.input_size))
            dw[:, :H] = dz[1:].reshape(-1, 4 * H).T @ h_prev
            dw[:, H:] = flat.T @ x.transpose(1, 0, 2).reshape(n * batch, -1)
            db = flat.sum(axis=0)
            if sequence.requires_grad:
                dx = (flat @ wx_t.T).reshape(n, batch, -1).transpose(1, 0, 2)
                _accum(sequence, dx)
            for k, (w, b) in enumerate(zip(weights, biases)):
                block = slice(k * H, (k + 1) * H)
                if w.requires_grad:
                    _accum(w, dw[block])
                if b.requires_grad:
                    _accum(b, db[block])

        return Tensor._from_op(out, parents, backward)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "W_i": self.W_i, "W_f": self.W_f, "W_o": self.W_o, "W_C": self.W_C,
            "b_i": self.b_i, "b_f": self.b_f, "b_o": self.b_o, "b_C": self.b_C,
        }


class AttentionHead:
    """Scaled dot-product self-attention over a sequence.

    Q, K and V are linear projections of the same input; each output row is
    a convex combination of the V rows with softmax(QK^T/sqrt(d_k)) weights.
    """

    def __init__(self, d_model: int, d_k: int, rng: np.random.Generator):
        self.d_model = d_model
        self.d_k = d_k
        self.W_Q = glorot_uniform(rng, (d_model, d_k), d_model, d_k)
        self.W_K = glorot_uniform(rng, (d_model, d_k), d_model, d_k)
        self.W_V = glorot_uniform(rng, (d_model, d_k), d_model, d_k)

    def _scores(self, h: Tensor) -> Tensor:
        q = h @ self.W_Q
        k = h @ self.W_K
        return (q @ k.transpose((0, 2, 1))) * (1.0 / math.sqrt(self.d_k))

    def __call__(self, h: Tensor) -> Tensor:
        _check_batch(h, self.d_model, "attention")
        weights = softmax(self._scores(h), axis=-1)
        return weights @ (h @ self.W_V)

    def parameters(self) -> dict[str, Tensor]:
        return {"W_Q": self.W_Q, "W_K": self.W_K, "W_V": self.W_V}

