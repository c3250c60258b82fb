"""Central finite-difference gradient oracle used across the test suite.

The oracle re-runs only the forward computation; it never touches the
backward rules it is checking.
"""

import numpy as np

from metroflow.tensor import Tensor


def numerical_grad(fn, tensors, index, h=1e-5):
    """d fn(tensors) / d tensors[index], element by element."""
    target = tensors[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = fn(*tensors).item()
        flat[i] = orig - h
        minus = fn(*tensors).item()
        flat[i] = orig
        grad.reshape(-1)[i] = (plus - minus) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def assert_gradients_match(fn, arrays, rtol=1e-4, h=1e-5):
    """Compare backward() gradients of a scalar-valued fn against the oracle.

    ``fn`` receives one Tensor per input array and must return a scalar
    Tensor.  Gradients are checked for every input.
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    loss = fn(*tensors)
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]
    for i, t in enumerate(tensors):
        t.grad = None
        numeric = numerical_grad(fn, tensors, i, h=h)
        err = max_relative_error(analytic[i], numeric)
        assert err <= rtol, f"input {i}: relative error {err:.3e} > {rtol:.1e}"
    return analytic
