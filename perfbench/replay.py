"""Isolated layer replays and exact per-step counts at the paper's shapes.

A replay feeds one layer of a freshly built mstim model a leaf input,
weights its output by a fixed upstream gradient, and times ``.backward()``;
the weighting adds one multiply and one sum to each backward figure.  The
input needs a gradient only where it does in training: the conv branches
read the raw windows, so their backward computes weight gradients alone.  The
inference replay times a ``no_grad`` forward at the batch size ``predict``
uses.  Counts come from outside the engine: graph nodes by walking the
parents of one training step's loss, matmuls by wrapping the public
``tensor.matmul`` for that step.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCH = 32
INFER_BATCH = 256
REPS = 15
WARMUP = 2


def paper_model(input_features: int):
    from metroflow import ModelSpec, build_model

    return build_model(ModelSpec(kind="mstim", input_features=input_features, seed=0))


def _layers(model, batch: int) -> dict:
    """Each measured layer of ``model`` with the input shape it takes and
    whether that input needs a gradient in a training step."""
    spec = model.spec
    fused = len(spec.kernel_sizes) * spec.conv_filters
    n = spec.window
    return {
        "conv": (model._multi_scale, (batch, n, spec.input_features), False),
        "lstm": (model.lstm.unroll, (batch, n, fused), True),
        "attention": (model.attention, (batch, n, spec.hidden_size), True),
        "head": (model.head, (batch, spec.d_k), True),
    }


def _median_ms(fn) -> float:
    for _ in range(WARMUP):
        fn()
    times = []
    for _ in range(REPS):
        times.append(fn())
    return statistics.median(times) * 1e3


def backward_replays(input_features: int, seed: int) -> dict:
    """``layers.<name>.bwd_ms`` for conv, lstm, attention and head at batch 32."""
    from metroflow import Tensor

    model = paper_model(input_features)
    params = model.parameters().values()
    rng = np.random.default_rng(seed)
    layers = _layers(model, BATCH)
    out = {}
    for name, (layer, shape, needs_grad) in layers.items():
        x = rng.normal(size=shape)
        upstream = Tensor(rng.normal(size=layer(Tensor(x)).shape))

        def once(layer=layer, x=x, upstream=upstream, needs_grad=needs_grad):
            for p in params:
                p.grad = None
            loss = (layer(Tensor(x, requires_grad=needs_grad)) * upstream).sum()
            start = time.perf_counter()
            loss.backward()
            return time.perf_counter() - start

        out[f"layers.{name}.bwd_ms"] = _median_ms(once)
    return out


def inference_replays(input_features: int, seed: int) -> dict:
    """``layers.<name>.infer_ms`` for conv, lstm and attention at batch 256."""
    from metroflow import Tensor, no_grad

    model = paper_model(input_features)
    rng = np.random.default_rng(seed)
    layers = _layers(model, INFER_BATCH)
    out = {}
    for name in ("conv", "lstm", "attention"):
        layer, shape, _ = layers[name]
        x = rng.normal(size=shape)

        def once(layer=layer, x=x):
            with no_grad():
                start = time.perf_counter()
                layer(Tensor(x))
                return time.perf_counter() - start

        out[f"layers.{name}.infer_ms"] = _median_ms(once)
    return out


def step_counts(input_features: int, seed: int) -> dict:
    """Graph nodes reachable from one mstim training loss, and the matmul
    calls made while building it, at batch 32."""
    from metroflow import Tensor, tensor, training

    model = paper_model(input_features)
    rng = np.random.default_rng(seed)
    spec = model.spec
    windows = Tensor(rng.normal(size=(BATCH, spec.window, input_features)))
    targets = Tensor(rng.normal(size=(BATCH, spec.horizon)))
    original = tensor.matmul
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    tensor.matmul = counting
    try:
        loss = training.mse_loss(model.forward_batch(windows), targets)
    finally:
        tensor.matmul = original
    seen = set()
    todo = [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return {"tensor.graph_nodes_per_step": len(seen),
            "tensor.matmul_calls_per_step": calls}
