"""Neural building blocks: LSTM cell, 1-D convolution, attention and dense.

Every layer takes a batch and nothing else.  ``conv_stack``,
``LstmCell.unroll`` and ``AttentionHead`` take windows [B, n, channels];
``AttentionHead`` returns their mean-pooled context vectors [B, d_k], and
``Dense`` takes rows [B, channels].  Any other rank or channel width is a
DimensionError; one window is a batch of one.

``conv_stack``, ``LstmCell.unroll`` and ``AttentionHead`` each run in
numpy as one graph node with a hand-written backward, and one forward path
that under ``no_grad`` only keeps less.  ``conv_stack`` is the one
convolution rule: it runs (W, b) pairs from ``conv_weights``, as
``models.ForecastModel._multi_scale`` does for the multi-scale branches,
and always applies a ReLU.  The convs read raw windows, so ``conv_stack``
gives no input gradient and refuses an input that needs one.
``LstmCell`` and ``AttentionHead`` each hold one weight ``W``, in the
layout their node reads: the LSTM's gate rows and the attention's Q, K and
V columns are blocks of it.  The tests check ``unroll`` against
``lstm_step`` in ``tests/reference.py``, one update built from engine ops
that read those blocks.

A layer computes in its parameters' dtype: ``conv_stack``, ``unroll`` and
``AttentionHead`` cast their input to it and allocate their buffers in it,
so float32 weights give float32 outputs and weight gradients whatever the
input's dtype, and float64 weights run the same code in float64.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError, NumericError, UsageError
from .tensor import Tensor, _accum, records


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    """Uniform init in +-sqrt(6/(fan_in+fan_out)), as a trainable tensor.  A
    shape no array can hold is a ConfigError naming it; every layer draws
    its weight, which holds all of its sizes, before anything else."""
    try:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        data = rng.uniform(-limit, limit, size=shape)
    except (ValueError, OverflowError) as err:  # past numpy's limits, or float's range
        raise ConfigError(f"no array can hold weights of shape {shape}: {err}") from err
    return Tensor(data, requires_grad=True)


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


def conv_weights(in_channels: int, out_channels: int, k: int, rng: np.random.Generator):
    """One conv's (W [out, in, k], b [out]), Glorot-initialised with fans in*k and out*k."""
    fan = in_channels * k, out_channels * k
    return glorot_uniform(rng, (out_channels, in_channels, k), *fan), zeros(out_channels)


def conv_stack(x: Tensor, convs) -> Tensor:
    """Parallel 1-D ReLU convolutions over one input, concatenated over channels.

    Each conv is a (W [out, in, k], b [out]) pair: a cross-correlation over
    time with (k - 1) / 2 zeros of padding on each side, so an even k is a
    ConfigError.  One graph node whose parents are each conv's W and b, read
    at call time.  The input is not a parent: no model feeds a conv anything
    but raw windows, so an input that needs a gradient is a UsageError.  The
    convs become one "same" convolution of width K = max(kernel sizes):
    tap j of a conv of width k lands at tap j + (K - k) / 2 of combined
    weights [K, in, total out channels] that are zero elsewhere.  The
    forward pads the input once and sums K per-tap matmuls in tap order,
    adding the biases last and applying the ReLU in place, so it makes no
    unfolded copy of the input.  The backward unfolds the padded input into
    [B * n, K * in] and gets every weight gradient from one matmul.
    """
    _check_batch(x, convs[0][0].shape[1], "conv")
    if x.requires_grad:
        raise UsageError("conv_stack gives no input gradient; its input must not need one")
    if any(W.shape[2] % 2 == 0 for W, _ in convs):
        raise ConfigError(f"kernel sizes must be odd, got {[W.shape[2] for W, _ in convs]}")
    dtype = convs[0][0].data.dtype
    data = x.data.astype(dtype, copy=False)
    batch, n, width = data.shape
    K = max(W.shape[2] for W, _ in convs)
    pad = (K - 1) // 2
    # each conv's (taps, output channels) block of the combined weights
    ends = np.cumsum([W.shape[0] for W, _ in convs])
    blocks = [(slice((K - W.shape[2]) // 2, (K + W.shape[2]) // 2),
               slice(end - W.shape[0], end)) for (W, _), end in zip(convs, ends)]
    taps = np.zeros((K, width, ends[-1]), dtype)
    for (W, _), (rows, cols) in zip(convs, blocks):
        taps[rows, :, cols] = W.data.transpose(2, 1, 0)
    parents = tuple(p for conv in convs for p in conv)
    xp = np.pad(data, ((0, 0), (pad, pad), (0, 0)))
    y = xp[:, :n] @ taps[0]
    for j in range(1, K):
        y += xp[:, j:j + n] @ taps[j]
    y += np.concatenate([b.data for _, b in convs])
    np.maximum(y, 0.0, out=y)

    def backward(g):
        dy = (g * (y > 0.0)).reshape(batch * n, -1)
        unfolded = sliding_window_view(xp, K, axis=1)  # [B, n, in, K] view of xp
        unfolded = unfolded.transpose(0, 1, 3, 2).reshape(batch * n, K * width)
        dtaps = (unfolded.T @ dy).reshape(K, width, -1)
        db = dy.sum(axis=0)
        for (W, b), (rows, cols) in zip(convs, blocks):
            if W.requires_grad:
                _accum(W, dtaps[rows, :, cols].transpose(2, 1, 0))
            if b.requires_grad:
                _accum(b, db[cols])

    return Tensor._from_op(y, parents, backward)


class LstmCell:
    """Single recurrent cell with input, forget and output gates.

    Gates are sigmoid maps of the concatenated [h_prev, x_t]; the candidate
    memory uses tanh.  The forget-gate bias starts at 1.0 so early training
    keeps most of the memory cell.

    The one weight ``W`` is a [4H, H + in + 1] matrix, stacked after
    Appleyard et al. 2016 (arXiv:1604.01946): its row blocks are the i, f,
    o and C gates in that order, and its columns multiply [h_prev; x_t; 1],
    so the last column is the bias.  It holds four Glorot draws, made in
    that order, and a bias column that is 1.0 on the forget rows.

    ``unroll`` runs the whole recurrence in numpy, feature-major, as one
    graph node whose parents are the input and ``W``; its readable
    reference is ``lstm_step`` in ``tests/reference.py``, one update from
    engine ops.
    Each step's gates are a [4H, B] array of contiguous [H, B] blocks.  A
    step copies [x_t; 1] into its slot of the input buffer and projects it
    on its own.  Recording keeps a slot per step for the backward; under
    ``no_grad`` every step reuses one, so both give bit-identical outputs
    and ``no_grad`` keeps nothing per step.  The backward is hand-written
    backpropagation through time; one [4H, n * B] x [n * B, H + in + 1]
    matmul over the kept inputs of every step gives the gradient of ``W``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        cat = hidden_size + input_size
        gates = [glorot_uniform(rng, (hidden_size, cat), cat, hidden_size).data for _ in range(4)]
        bias = np.zeros((4 * hidden_size, 1))
        bias[hidden_size:2 * hidden_size] = 1.0  # the forget gate's
        self.W = Tensor(np.concatenate([np.concatenate(gates), bias], axis=1), requires_grad=True)

    def unroll(self, sequence: Tensor) -> Tensor:
        """Run the cell over a whole sequence from a zero initial state.

        Takes [B, n, in] and returns every hidden state in order as
        [B, n, hidden]; gradients flow through the full unroll.
        """
        _check_batch(sequence, self.input_size, "lstm")
        W = self.W
        dtype = W.data.dtype
        x = sequence.data.astype(dtype, copy=False)
        batch, n = x.shape[0], x.shape[1]
        if n < 1:
            raise UsageError("cannot unroll an empty sequence")
        H, D = self.hidden_size, self.input_size
        parents = (sequence, W)
        wh, wx = np.ascontiguousarray(W.data[:, :H]), np.ascontiguousarray(W.data[:, H:])
        keep = records(parents)
        steps = n if keep else 1  # slots: under no_grad every step reuses slot 0
        gates = np.empty((steps, 4 * H, batch), dtype)  # activated gates
        inputs = np.zeros((steps, H + D + 1, batch), dtype)  # [h_{t-1}; x_t; 1], h_{-1} = 0
        inputs[:, H + D] = 1.0
        if keep:
            cells = np.empty((n, H, batch), dtype)
            tanh_c = np.empty((n, H, batch), dtype)
        out = np.empty((batch, n, H), dtype)
        h, c = None, np.zeros((H, batch), dtype)
        # exp(-z) overflows to inf for z below -709 in float64 (about -88 in
        # float32), which gives the correct 0.0
        with np.errstate(over="ignore"):
            for t in range(n):
                slot = t if keep else 0
                inputs[slot, H:H + D] = x[:, t].T
                z = np.matmul(wx, inputs[slot, H:], out=gates[slot])
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
            dz = np.empty((4 * H, n, batch), dtype)  # d loss / d gate pre-activations
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
            if sequence.requires_grad:
                _accum(sequence, (wx[:, :D].T @ flat).reshape(D, n, batch).transpose(2, 1, 0))
            if W.requires_grad:
                _accum(W, flat @ inputs.transpose(0, 2, 1).reshape(n * batch, H + D + 1))

        return Tensor._from_op(out, parents, backward)

    def parameters(self) -> dict[str, Tensor]:
        return {"W": self.W}


class AttentionHead:
    """Scaled dot-product self-attention over a sequence, mean-pooled to one
    context vector [B, d_k] (Bahdanau et al. 2015, arXiv:1409.0473).

    Q, K and V are linear projections of the same input; each attended row
    is a convex combination of the V rows with softmax(QK^T/sqrt(d_k))
    weights, and the context vector is the mean of a window's n rows.

    The one weight ``W`` is a [d, 3 d_k] matrix whose column blocks project
    to Q, K and V in that order, three Glorot draws made in that order.  A
    call is one graph node with parents (h, W).  The softmax subtracts each
    row's maximum, and non-finite scores raise NumericError.  The backward
    spreads g / n over the n attended rows, of which it keeps only the
    shape, and gets the gradient of ``W`` from one [d, B * n] x
    [B * n, 3 d_k] matmul and the input gradient from one more.
    Under ``no_grad`` the one forward frees q and k before v is projected.
    """

    def __init__(self, d_model: int, d_k: int, rng: np.random.Generator):
        self.d_model = d_model
        self.d_k = d_k
        draws = [glorot_uniform(rng, (d_model, d_k), d_model, d_k).data for _ in range(3)]
        self.W = Tensor(np.concatenate(draws, axis=1), requires_grad=True)

    def __call__(self, h: Tensor) -> Tensor:
        _check_batch(h, self.d_model, "attention")
        W = self.W
        parents = (h, W)
        w = W.data
        x = h.data.astype(w.dtype, copy=False)
        d_k = self.d_k
        q, k = x @ w[:, :d_k], x @ w[:, d_k:2 * d_k]
        weights = q @ k.transpose(0, 2, 1)
        scale = 1.0 / math.sqrt(d_k)
        weights *= scale
        if not np.isfinite(weights).all():
            raise NumericError("attention scores contain non-finite values")
        weights -= weights.max(axis=-1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=-1, keepdims=True)
        if not records(parents):
            del q, k  # no backward will read them: free both before the value product
        v = x @ w[:, 2 * d_k:]

        def backward(g):
            g = np.broadcast_to(g[:, None], v.shape) / v.shape[1]  # the mean's: g / n on each row
            dweights = g @ v.transpose(0, 2, 1)
            ds = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
            ds *= scale
            dqkv = np.empty(x.shape[:2] + (3 * d_k,), x.dtype)  # d loss / d [q | k | v]
            np.matmul(ds, k, out=dqkv[..., :d_k])
            np.matmul(ds.transpose(0, 2, 1), q, out=dqkv[..., d_k:2 * d_k])
            np.matmul(weights.transpose(0, 2, 1), g, out=dqkv[..., 2 * d_k:])
            flat = dqkv.reshape(-1, 3 * d_k)
            if W.requires_grad:
                _accum(W, x.reshape(-1, self.d_model).T @ flat)
            if h.requires_grad:
                _accum(h, (flat @ w.T).reshape(x.shape))

        return Tensor._from_op((weights @ v).mean(axis=1), parents, backward)

    def parameters(self) -> dict[str, Tensor]:
        return {"W": self.W}

