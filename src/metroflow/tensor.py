"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built eagerly during the forward pass: every operation whose
inputs require gradients returns a tensor holding references to its parents
and a closure that propagates the output gradient to them.  ``backward()``
walks the graph once in reverse topological order, accumulates gradients
additively across fan-out, then frees the graph.  A second ``backward()``
on the same graph is rejected; rebuild the forward pass instead.

Only two broadcasting forms are supported for elementwise arithmetic:
scalar-with-tensor and equal shapes.  Everything else is a DimensionError.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, NumericError, UsageError

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


def records(parents) -> bool:
    """True when an op on ``parents`` joins a graph: grad is enabled and
    some parent needs a gradient."""
    return _grad_enabled() and any(p.requires_grad for p in parents)


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference/evaluation)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """n-dimensional float64 array participating in a backward graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._spent = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, backward):
        if records(parents):
            out = Tensor(data)
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            return out
        return Tensor(data)

    def backward(self) -> None:
        """Propagate d(self)/d(leaf) into every reachable parameter's grad.

        Requires a scalar attached to a graph.  Frees the graph afterwards:
        parent links and closures are dropped, intermediate grad buffers are
        released, and only leaf tensors keep their accumulated gradients.
        """
        if self._spent:
            raise UsageError("backward was already called on this graph; rebuild the forward pass")
        if self.size != 1:
            raise UsageError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._backward is None and not self.requires_grad:
            raise UsageError("tensor is not attached to a differentiation graph")

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

        for node in topo:
            if node._parents:
                node.grad = None
                node._parents = ()
                node._backward = None
        self._spent = True

    # -- elementwise arithmetic ---------------------------------------------

    def __add__(self, other):
        return _elementwise_binary(self, other, np.add, lambda g, a, b: (g, g))

    def __sub__(self, other):
        return _elementwise_binary(self, other, np.subtract, lambda g, a, b: (g, -g))

    def __mul__(self, other):
        return _elementwise_binary(self, other, np.multiply, lambda g, a, b: (g * b, g * a))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- unary ops ----------------------------------------------------------

    def relu(self):
        out = np.maximum(self.data, 0.0)
        # subgradient at 0 is 0: strict inequality
        mask = self.data > 0.0
        return Tensor._from_op(out, (self,), lambda g: _accum(self, g * mask))

    def tanh(self):
        out = np.tanh(self.data)
        return Tensor._from_op(out, (self,), lambda g: _accum(self, g * (1.0 - out * out)))

    def sigmoid(self):
        # exp(-x) overflows to inf for x < -709, which gives the correct 0.0
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._from_op(out, (self,), lambda g: _accum(self, g * out * (1.0 - out)))

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None):
        out = self.data.sum(axis=axis)

        def backward(g):
            _accum(self, _spread(g, self.data.shape, axis))

        return Tensor._from_op(out, (self,), backward)

    def mean(self, axis=None):
        count = self.size if axis is None else self.data.shape[axis]
        out = self.data.mean(axis=axis)

        def backward(g):
            _accum(self, _spread(g, self.data.shape, axis) / count)

        return Tensor._from_op(out, (self,), backward)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self.data.reshape(shape)
        return Tensor._from_op(out, (self,), lambda g: _accum(self, g.reshape(self.data.shape)))

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        out = np.transpose(self.data, axes)
        return Tensor._from_op(out, (self,), lambda g: _accum(self, np.transpose(g, inverse)))

    def expand(self, shape):
        """Broadcast by prepending axes; backward sums over them."""
        shape = tuple(shape)
        lead = len(shape) - self.ndim
        if lead < 0 or shape[lead:] != self.shape:
            raise DimensionError(f"cannot expand shape {self.shape} to {shape}")
        out = np.broadcast_to(self.data, shape)

        def backward(g):
            _accum(self, g.sum(axis=tuple(range(lead))) if lead else g)

        return Tensor._from_op(out, (self,), backward)

    def pad1d(self, axis: int, before: int, after: int):
        """Zero-pad along one axis; backward slices the padding back off."""
        if before < 0 or after < 0:
            raise DimensionError(f"negative padding ({before}, {after})")
        widths = [(0, 0)] * self.ndim
        widths[axis] = (before, after)
        out = np.pad(self.data, widths)
        key = [slice(None)] * self.ndim
        key[axis] = slice(before, before + self.data.shape[axis])
        key = tuple(key)
        return Tensor._from_op(out, (self,), lambda g: _accum(self, g[key]))

    def __getitem__(self, key):
        key = _check_slice(key, self.shape)
        out = self.data[key]

        def backward(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[key] += g

        return Tensor._from_op(out, (self,), backward)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accum(t: Tensor, g) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _reduce_to(g, shape) -> np.ndarray:
    # g was broadcast from a size-1 operand; fold it back
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def _elementwise_binary(a: Tensor, other, fn, grads):
    b = _as_tensor(other)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise DimensionError(
            f"elementwise op needs equal or scalar shapes, got {a.shape} and {b.shape}"
        )
    a_data, b_data = a.data, b.data
    out = fn(a_data, b_data)

    def backward(g):
        ga, gb = grads(g, a_data, b_data)
        if a.requires_grad:
            _accum(a, _reduce_to(ga, a.shape))
        if b.requires_grad:
            _accum(b, _reduce_to(gb, b.shape))

    return Tensor._from_op(out, (a, b), backward)


def _spread(g, shape, axis) -> np.ndarray:
    # inverse of a sum reduction: broadcast g back over the reduced axes
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def _check_slice(key, shape):
    if not isinstance(key, tuple):
        key = (key,)
    if len(key) > len(shape):
        raise DimensionError(f"{len(key)} indices for shape {shape}")
    normalized = []
    for item, extent in zip(key, shape):
        if isinstance(item, int):
            if not -extent <= item < extent:
                raise DimensionError(f"index {item} out of bounds for extent {extent}")
            normalized.append(item)
        elif isinstance(item, slice):
            if item.step not in (None, 1):
                raise DimensionError("strided slicing is not supported")
            start, stop, _ = item.indices(extent)
            if (item.start is not None and not -extent <= item.start <= extent) or (
                item.stop is not None and not -extent <= item.stop <= extent
            ):
                raise DimensionError(f"slice {item} out of bounds for extent {extent}")
            if stop < start:
                raise DimensionError(f"empty slice {item} on extent {extent}")
            normalized.append(slice(start, stop))
        else:
            raise DimensionError(f"unsupported index {item!r}")
    return tuple(normalized)


def matmul(a: Tensor, b) -> Tensor:
    """Matrix product; supports 2-D x 2-D, batched x 2-D and batched x batched."""
    b = _as_tensor(b)
    A, B = a.data, b.data
    if A.ndim == 2 and B.ndim == 2:
        if A.shape[1] != B.shape[0]:
            raise DimensionError(f"matmul inner dimensions differ: {A.shape} x {B.shape}")
        out = A @ B

        def backward(g):
            if a.requires_grad:
                _accum(a, g @ B.T)
            if b.requires_grad:
                _accum(b, A.T @ g)

    elif A.ndim == 3 and B.ndim == 2:
        if A.shape[2] != B.shape[0]:
            raise DimensionError(f"matmul inner dimensions differ: {A.shape} x {B.shape}")
        out = A @ B

        def backward(g):
            if a.requires_grad:
                _accum(a, g @ B.T)
            if b.requires_grad:
                _accum(b, np.tensordot(A, g, axes=([0, 1], [0, 1])))

    elif A.ndim == 3 and B.ndim == 3:
        if A.shape[0] != B.shape[0] or A.shape[2] != B.shape[1]:
            raise DimensionError(f"matmul batch shapes differ: {A.shape} x {B.shape}")
        out = A @ B

        def backward(g):
            if a.requires_grad:
                _accum(a, g @ B.swapaxes(1, 2))
            if b.requires_grad:
                _accum(b, A.swapaxes(1, 2) @ g)

    else:
        raise DimensionError(f"unsupported matmul ranks: {A.shape} x {B.shape}")
    return Tensor._from_op(out, (a, b), backward)


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
