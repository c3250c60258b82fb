"""Neural building blocks: LSTM cell, 1-D convolution, attention and dense.

Every layer takes a batch and nothing else.  ``conv_stack``,
``LstmCell.unroll`` and ``AttentionHead`` take windows [B, n, channels];
``Dense`` and ``LstmCell.step`` take rows [B, channels], with [B, hidden]
states for ``step``.  Any other rank or channel width is a DimensionError;
one window is a batch of one.

``conv_stack``, ``LstmCell.unroll`` and ``AttentionHead`` each run in
numpy as one graph node with a hand-written backward.  ``conv_stack`` is
the one convolution rule: a ``Conv1d`` only holds one conv's weights, and
``models.ForecastModel._multi_scale`` runs the multi-scale branches through
``conv_stack``.  The convs read raw windows, so ``conv_stack`` gives no
input gradient and refuses an input that needs one.  ``step`` is built from
engine ops and is the reference for ``unroll`` in the tests.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError, NumericError, UsageError
from .tensor import Tensor, _accum, concat, records


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


def conv_stack(x: Tensor, convs, relu: bool) -> Tensor:
    """Parallel ``Conv1d`` layers over one input, concatenated over channels.

    One graph node whose parents are each conv's W and b, read at call
    time.  The input is not a parent: no model feeds a conv anything but
    raw windows, so an input that needs a gradient is a UsageError.  The
    convs become one "same" convolution of width K = max(kernel sizes):
    tap j of a conv of width k lands at tap j + (K - k) / 2 of combined
    weights [K, in, total out channels] that are zero elsewhere.  The
    forward pads the input once and sums K per-tap matmuls in tap order,
    adding the biases last, so it makes no unfolded copy of the input;
    with ``relu`` each output goes through a ReLU.  The backward unfolds
    the padded input into [B * n, K * in] and gets every weight gradient
    from one matmul.
    """
    _check_batch(x, convs[0].W.shape[1], "conv")
    if x.requires_grad:
        raise UsageError("conv_stack gives no input gradient; its input must not need one")
    data = x.data
    batch, n, width = data.shape
    K = max(conv.kernel_size for conv in convs)
    pad = (K - 1) // 2
    # each conv's (taps, output channels) block of the combined weights
    ends = np.cumsum([conv.out_channels for conv in convs])
    blocks = [(slice((K - conv.kernel_size) // 2, (K + conv.kernel_size) // 2),
               slice(end - conv.out_channels, end)) for conv, end in zip(convs, ends)]
    taps = np.zeros((K, width, ends[-1]))
    for conv, (rows, cols) in zip(convs, blocks):
        taps[rows, :, cols] = conv.W.data.transpose(2, 1, 0)
    parents = tuple(p for conv in convs for p in (conv.W, conv.b))
    xp = np.pad(data, ((0, 0), (pad, pad), (0, 0)))
    y = xp[:, :n] @ taps[0]
    for j in range(1, K):
        y += xp[:, j:j + n] @ taps[j]
    y += np.concatenate([conv.b.data for conv in convs])
    if relu:
        np.maximum(y, 0.0, out=y)

    def backward(g):
        dy = (g * (y > 0.0) if relu else g).reshape(batch * n, -1)
        unfolded = sliding_window_view(xp, K, axis=1)  # [B, n, in, K] view of xp
        unfolded = unfolded.transpose(0, 1, 3, 2).reshape(batch * n, K * width)
        dtaps = (unfolded.T @ dy).reshape(K, width, -1)
        db = dy.sum(axis=0)
        for conv, (rows, cols) in zip(convs, blocks):
            if conv.W.requires_grad:
                _accum(conv.W, dtaps[rows, :, cols].transpose(2, 1, 0))
            if conv.b.requires_grad:
                _accum(conv.b, db[cols])

    return Tensor._from_op(y, parents, backward)


class Conv1d:
    """The weights of a 1-D cross-correlation over time with symmetric zero
    "same" padding.

    Output length equals input length; the kernel size must be odd so the
    padding is (k-1)/2 on each side.  A Conv1d has no call: ``conv_stack``
    runs it, alone or beside other convs, as one graph node whose parents
    are the convs' W and b, with no input gradient.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be a positive odd int, got {kernel_size}")
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan = in_channels * kernel_size, out_channels * kernel_size
        self.W = glorot_uniform(rng, (out_channels, in_channels, kernel_size), *fan)
        self.b = zeros(out_channels)

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
    works feature-major, after Appleyard et al. 2016 (arXiv:1604.01946).
    The parameters, read at call time, stack into one [4H, H + in + 1]
    matrix whose row blocks are i, f, o, C in that order; its columns
    multiply [h_prev; x_t; 1], so the bias rides in the input product.
    Each step's gates are a [4H, B] array of contiguous [H, B] blocks.  A
    step projects [x_t; 1] on its own, into the kept gates or, under
    ``no_grad``, into one [4H, B] scratch array, so both give
    bit-identical outputs and ``no_grad`` keeps nothing per step.  The
    backward is hand-written backpropagation through time; one
    [4H, n * B] x [n * B, H + in + 1] matmul over the kept inputs of
    every step gives all weight and bias gradients.
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
        H, D = self.hidden_size, self.input_size
        weights = (self.W_i, self.W_f, self.W_o, self.W_C)
        biases = (self.b_i, self.b_f, self.b_o, self.b_C)
        parents = (sequence,) + weights + biases
        # [4H, H + in + 1], multiplying [h_{t-1}; x_t; 1]
        stacked = np.concatenate([np.column_stack([w.data, b.data])
                                  for w, b in zip(weights, biases)])
        wh, wx = np.ascontiguousarray(stacked[:, :H]), np.ascontiguousarray(stacked[:, H:])
        keep = records(parents)
        if keep:
            gates = np.empty((n, 4 * H, batch))  # activated gates of every step
            cells = np.empty((n, H, batch))
            tanh_c = np.empty((n, H, batch))
            inputs = np.empty((n, H + D + 1, batch))  # [h_{t-1}; x_t; 1] of every step
            inputs[0, :H] = 0.0
            inputs[:, H:H + D] = x.transpose(1, 2, 0)
            inputs[:, H + D] = 1.0
        else:
            scratch = np.empty((4 * H, batch))
            x_one = np.empty((D + 1, batch))  # [x_t; 1]
            x_one[D] = 1.0
        out = np.empty((batch, n, H))
        h, c = None, np.zeros((H, batch))
        # exp(-z) overflows to inf for z < -709, which gives the correct 0.0
        with np.errstate(over="ignore"):
            for t in range(n):
                if keep:
                    z = np.matmul(wx, inputs[t, H:], out=gates[t])
                else:
                    x_one[:D] = x[:, t].T
                    z = np.matmul(wx, x_one, out=scratch)
                if t:
                    z += wh @ h
                s = z[:3 * H]
                np.negative(s, out=s)
                np.exp(s, out=s)
                s += 1.0
                np.reciprocal(s, out=s)
                np.tanh(z[3 * H:], out=z[3 * H:])
                i, f, o, cand = z[:H], z[H:2 * H], z[2 * H:3 * H], z[3 * H:]
                c = f * c + i * cand
                tc = np.tanh(c)
                h = o * tc
                out[:, t] = h.T
                if keep:
                    cells[t] = c
                    tanh_c[t] = tc
                    if t + 1 < n:
                        inputs[t + 1, :H] = h

        def backward(g):
            dz = np.empty((4 * H, n, batch))  # d loss / d gate pre-activations
            dh, dc = g[:, n - 1].T, 0.0
            for t in range(n - 1, -1, -1):
                z, tc = gates[t], tanh_c[t]
                i, f, o, cand = z[:H], z[H:2 * H], z[2 * H:3 * H], z[3 * H:]
                dc = dc + dh * o * (1.0 - tc * tc)
                d = dz[:, t]
                d[:H] = dc * cand * i * (1.0 - i)
                d[H:2 * H] = dc * cells[t - 1] * f * (1.0 - f) if t else 0.0
                d[2 * H:3 * H] = dh * tc * o * (1.0 - o)
                d[3 * H:] = dc * i * (1.0 - cand * cand)
                if t:
                    dc = dc * f
                    dh = g[:, t - 1].T + wh.T @ d
            flat = dz.reshape(4 * H, n * batch)
            dw = flat @ inputs.transpose(0, 2, 1).reshape(n * batch, H + D + 1)  # d stacked
            if sequence.requires_grad:
                _accum(sequence, (wx[:, :D].T @ flat).reshape(D, n, batch).transpose(2, 1, 0))
            for k, (w, b) in enumerate(zip(weights, biases)):
                block = slice(k * H, (k + 1) * H)
                if w.requires_grad:
                    _accum(w, dw[block, :H + D])
                if b.requires_grad:
                    _accum(b, dw[block, H + D])

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

    A call is one graph node with parents (h, W_Q, W_K, W_V).  The softmax
    subtracts each row's maximum, and non-finite scores raise NumericError.
    The backward gets the three weight gradients from one
    [d, B * n] x [B * n, 3 d_k] matmul and the input gradient from one more.
    Under ``no_grad`` q and k are freed before v is projected.
    """

    def __init__(self, d_model: int, d_k: int, rng: np.random.Generator):
        self.d_model = d_model
        self.d_k = d_k
        self.W_Q = glorot_uniform(rng, (d_model, d_k), d_model, d_k)
        self.W_K = glorot_uniform(rng, (d_model, d_k), d_model, d_k)
        self.W_V = glorot_uniform(rng, (d_model, d_k), d_model, d_k)

    def __call__(self, h: Tensor) -> Tensor:
        _check_batch(h, self.d_model, "attention")
        parents = (h, self.W_Q, self.W_K, self.W_V)
        x, wq, wk, wv = (p.data for p in parents)
        d_k = self.d_k
        q, k = x @ wq, x @ wk
        weights = q @ k.transpose(0, 2, 1)
        scale = 1.0 / math.sqrt(d_k)
        weights *= scale
        if not np.isfinite(weights).all():
            raise NumericError("attention scores contain non-finite values")
        weights -= weights.max(axis=-1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=-1, keepdims=True)
        if not records(parents):
            del q, k  # free both before the value product
            return Tensor(weights @ (x @ wv))
        v = x @ wv

        def backward(g):
            dweights = g @ v.transpose(0, 2, 1)
            ds = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
            ds *= scale
            dqkv = np.empty(x.shape[:2] + (3 * d_k,))  # d loss / d [q | k | v]
            np.matmul(ds, k, out=dqkv[..., :d_k])
            np.matmul(ds.transpose(0, 2, 1), q, out=dqkv[..., d_k:2 * d_k])
            np.matmul(weights.transpose(0, 2, 1), g, out=dqkv[..., 2 * d_k:])
            flat = dqkv.reshape(-1, 3 * d_k)
            dw = x.reshape(-1, self.d_model).T @ flat  # [d, 3 d_k]: Q, K, V blocks
            for j, w in enumerate(parents[1:]):
                if w.requires_grad:
                    _accum(w, dw[:, j * d_k:(j + 1) * d_k])
            if h.requires_grad:
                stacked = np.concatenate([wq, wk, wv], axis=1)  # [d, 3 d_k]
                _accum(h, (flat @ stacked.T).reshape(x.shape))

        return Tensor._from_op(weights @ v, parents, backward)

    def parameters(self) -> dict[str, Tensor]:
        return {"W_Q": self.W_Q, "W_K": self.W_K, "W_V": self.W_V}

