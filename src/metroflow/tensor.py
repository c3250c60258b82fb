"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

The graph is built eagerly during the forward pass: every operation whose
inputs require gradients returns a tensor holding references to its parents
and a closure that propagates the output gradient to them.  ``backward()``
walks the graph once in reverse topological order, accumulates gradients
additively across fan-out, then frees the graph.  A second ``backward()``
on the same graph is rejected; rebuild the forward pass instead.

One shape rule: elementwise arithmetic takes operands of equal shape,
``matmul`` takes an [m, k] and a [k, n] matrix, and ``Tensor.expand`` is
the only broadcast.  Anything else is a DimensionError naming both shapes.

One dtype rule: a tensor holds float32 or float64, and a gradient has its
tensor's dtype.  An op on operands of different dtypes follows numpy's
promotion, so float32 with float64 computes in float64; the layers compute
in their parameters' dtype.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, UsageError

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
    """n-dimensional array participating in a backward graph.

    A float32 array stays float32; anything else becomes float64.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
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
            _accum(self, g.sum(axis=tuple(range(lead))))

        return Tensor._from_op(out, (self,), backward)

    def __getitem__(self, key):
        """Ints and full slices only, as in ``x[:, n - 1, :]``; an int out of
        range or any other key (a partial slice too) is a DimensionError."""
        key = key if isinstance(key, tuple) else (key,)
        if len(key) > self.ndim:
            raise DimensionError(f"{len(key)} indices for shape {self.shape}")
        for item, extent in zip(key, self.shape):
            if isinstance(item, slice) and item == slice(None):
                continue
            if isinstance(item, bool) or not isinstance(item, int):
                raise DimensionError(f"unsupported index {item!r}; use ints and ':'")
            if not -extent <= item < extent:
                raise DimensionError(f"index {item} out of bounds for extent {extent}")
        out = self.data[key]

        def backward(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[key] += g

        return Tensor._from_op(out, (self,), backward)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accum(t: Tensor, g) -> None:
    """Add ``g``, which must already have ``t``'s shape, into ``t.grad`` in
    ``t``'s dtype.  The first write stores a copy, as ``g`` may be a view or
    reach two parents."""
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _elementwise_binary(a: Tensor, other, fn, grads):
    b = _as_tensor(other)
    if a.shape != b.shape:
        raise DimensionError(f"elementwise op needs equal shapes, got {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data
    out = fn(a_data, b_data)

    def backward(g):
        ga, gb = grads(g, a_data, b_data)
        if a.requires_grad:
            _accum(a, ga)
        if b.requires_grad:
            _accum(b, gb)

    return Tensor._from_op(out, (a, b), backward)


def _spread(g, shape, axis) -> np.ndarray:
    # inverse of a sum reduction: broadcast g back over the reduced axes
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def matmul(a: Tensor, b) -> Tensor:
    """Matrix product of an [m, k] and a [k, n] matrix, the only operands
    it takes; anything else is a DimensionError naming both shapes."""
    b = _as_tensor(b)
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise DimensionError(f"matmul needs [m, k] x [k, n] matrices, got {A.shape} x {B.shape}")
    out = A @ B

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ B.T)
        if b.requires_grad:
            _accum(b, A.T @ g)

    return Tensor._from_op(out, (a, b), backward)

