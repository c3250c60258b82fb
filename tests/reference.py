"""Engine-op references for the fused nodes, beside the gradient oracle.

``LstmCell.unroll`` and ``AttentionHead`` each run as one graph node with a
hand-written backward.  The tests check each against a chain of small
engine ops at 1e-12: ``lstm_step`` is one LSTM update, built from
``concat``, ``sigmoid`` and ``tanh``, and ``softmax`` closes the attention
chain.  Each layer holds one weight; ``block`` reads a gate's rows or a
projection's columns out of it, and its backward scatters the gradient
back into that block.  Each reference builds its nodes through
``Tensor._from_op``, as the engine's own ops do, and is itself checked
against the finite-difference oracle in ``tests/gradcheck.py``.

No command of the package runs any of them, so they live here and not in
``src/metroflow``: the package holds only what its commands run.
"""

import numpy as np

from metroflow.errors import DimensionError, NumericError, UsageError
from metroflow.layers import _check_batch
from metroflow.tensor import Tensor, _accum, _as_tensor


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)
    return Tensor._from_op(out, (t,), lambda g: _accum(t, g * (1.0 - out * out)))


def sigmoid(t: Tensor) -> Tensor:
    # exp(-x) overflows to inf for x below -709 in float64 (about -88 in
    # float32), which gives the correct 0.0
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-t.data))
    return Tensor._from_op(out, (t,), lambda g: _accum(t, g * out * (1.0 - out)))


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Softmax along one axis, computed with max-subtraction for stability."""
    x = t.data
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("softmax input contains non-finite values")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accum(t, out * (g - inner))

    return Tensor._from_op(out, (t,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along one axis; backward routes each slice to its source."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("concat of zero tensors")
    first = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != len(first):
            raise DimensionError(f"concat rank mismatch: {first} vs {t.shape}")
        for d in range(t.ndim):
            if d != axis % t.ndim and t.shape[d] != first[d]:
                raise DimensionError(f"concat non-axis extents differ: {first} vs {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                key = [slice(None)] * t.ndim
                key[axis] = slice(start, stop)
                _accum(t, g[tuple(key)])

    return Tensor._from_op(out, tuple(tensors), backward)


def block(t: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Rows (axis 0) or columns (axis 1) ``start:stop`` of a matrix; backward
    scatters the gradient into that block of the source."""
    if t.ndim != 2 or axis not in (0, 1) or not 0 <= start < stop <= t.shape[axis]:
        raise DimensionError(f"no block {start}:{stop} on axis {axis} of shape {t.shape}")
    key = (slice(start, stop), slice(None)) if axis == 0 else (slice(None), slice(start, stop))

    def backward(g):
        grad = np.zeros_like(t.data)
        grad[key] = g
        _accum(t, grad)

    return Tensor._from_op(t.data[key], (t,), backward)


def lstm_step(cell, x_t: Tensor, h_prev: Tensor, c_prev: Tensor):
    """One update of ``cell`` on a [B, in] input and [B, hidden] states;
    returns (h_t, C_t).  Gate k's pre-activation is [h_prev, x_t, 1] times
    row block k of ``cell.W``, transposed: its weights, then its bias."""
    _check_batch(x_t, cell.input_size, "lstm", rank=2)
    rows = (x_t.shape[0], cell.hidden_size)
    for name, t in (("h_prev", h_prev), ("c_prev", c_prev)):
        if t.shape != rows:
            raise DimensionError(
                f"{name} shape {t.shape} incompatible with input shape {x_t.shape} "
                f"and hidden size {cell.hidden_size}"
            )
    cat = concat([h_prev, x_t, Tensor(np.ones((rows[0], 1)))], axis=-1)
    H = cell.hidden_size

    def gate(k):
        return cat @ block(cell.W, 0, k * H, (k + 1) * H).transpose((1, 0))

    i, f, o = (sigmoid(gate(k)) for k in range(3))
    cand = tanh(gate(3))
    c = f * c_prev + i * cand
    h = o * tanh(c)
    return h, c
