"""Spans recorded around calls into metroflow's modules, and the statistics
the benchmark derives from them.

Tracing patches module and class attributes from outside the program and
restores them afterwards; nothing under ``src/`` knows it is being traced.
Spans are kept in memory as ``[name, start, end, parent, value]`` rows, where
``parent`` is the index of the enclosing span (-1 at the top) and ``value`` is
optional data attached to the span: the bytes a blob held, or the model kind
and batch rows of a forward pass.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

NAME, START, END, PARENT, VALUE = range(5)

#: Value of a forward span over one full ``predict`` chunk of mstim.
FULL_MSTIM_CHUNK = ["mstim", 256]

#: Candidate percentiles for a tail figure, highest last.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples a tail percentile needs above it.
BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail(values):
    """The highest percentile in PERCENTILES with at least BEYOND samples
    above it, as ``(q, value)``; ``None`` when even the median lacks them."""
    best = None
    for q in PERCENTILES:
        # rounded so that 10 % of 100 samples counts as ten
        if round(len(values) * (100.0 - q) / 100.0, 6) >= BEYOND:
            best = (q, percentile(values, q))
    return best


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children) -> float:
    """A span's duration minus the part of it that its children cover."""
    lo, hi = span[START], span[END]
    clipped = [(max(c[START], lo), min(c[END], hi)) for c in children]
    return (hi - lo) - union_length([c for c in clipped if c[1] > c[0]])


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, fn, name: str, value=None):
        """Return ``fn`` wrapped in a span; ``value(args, result)`` may attach a number."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if value is not None:
                spans[index][VALUE] = value(args, result)
            return result

        return traced

    def children(self):
        """Map from span index to the indices of its direct children."""
        kids = {}
        for i, span in enumerate(self.spans):
            kids.setdefault(span[PARENT], []).append(i)
        return kids

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "fields": ["name", "start", "end", "parent", "value"],
                       "spans": self.spans}, fh)


class Patches:
    """Attribute replacements that are undone together.

    ``install(owner, attr, make)`` replaces ``owner.attr`` by ``make(original)``.
    A module-level function is also replaced in every module of ``namespaces``
    that imported it by name, so calls through ``from .data import load_cache``
    are seen as well.
    """

    def __init__(self, namespaces=()):
        self.namespaces = list(namespaces)
        self._undo = []

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(make(raw.__func__)))
            return
        new = make(raw)
        self._set(owner, attr, new)
        if isinstance(owner, type):
            return
        for module in self.namespaces:
            if module is not owner and module.__dict__.get(attr) is raw:
                self._set(module, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _path_bytes(args, _result):
    return os.path.getsize(args[0])


def _kind_and_rows(args, _result):
    model, windows = args[0], args[1]
    return [model.spec.kind, windows.shape[0]]


def instrument(tracer: Tracer) -> Patches:
    """Wrap the public entry points of each measured module in spans.

    ``layers.conv`` wraps ``ForecastModel._multi_scale``: the three conv
    branches with their ReLU and concat, as mstim uses them.
    """
    from metroflow import cli, data, layers, models, serialize, tensor, training

    patches = Patches([cli, data, layers, models, serialize, tensor, training])
    plan = [
        (data, "parse_csv", "data.parse_csv"),
        (data, "clean", "data.clean"),
        (data, "encode", "data.encode"),
        (data, "split_and_window", "data.split_and_window"),
        (data, "prepare_dataset", "data.prepare_dataset"),
        (data, "save_cache", "data.save_cache"),
        (data, "load_cache", "data.load_cache"),
        (data, "window_before", "data.window_before"),
        (tensor.Tensor, "backward", "tensor.backward"),
        (models.ForecastModel, "_multi_scale", "layers.conv"),
        (layers.LstmCell, "unroll", "layers.lstm"),
        (layers.AttentionHead, "__call__", "layers.attention"),
        (layers.Dense, "__call__", "layers.head"),
        (models.ForecastModel, "predict", "models.predict"),
        (models.ForecastModel, "load", "models.load"),
        (training, "train", "training.train"),
        (training, "mse_loss", "training.mse_loss"),
        (training, "clip_grad_norm", "training.clip_grad_norm"),
        (training.Adam, "step", "training.optimizer_step"),
        (training, "metrics", "training.metrics"),
    ]
    for owner, attr, name in plan:
        patches.install(owner, attr, lambda fn, name=name: tracer.wrap(fn, name))
    patches.install(models.ForecastModel, "forward_batch", lambda fn: tracer.wrap(
        fn, "models.forward_batch", value=_kind_and_rows))
    for attr in ("write_blob", "read_blob"):
        patches.install(serialize, attr, lambda fn, attr=attr: tracer.wrap(
            fn, f"serialize.{attr}", value=_path_bytes))
    return patches


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_table(tracer: Tracer) -> dict:
    """Per-layer figures derived from the recorded spans; times in milliseconds.

    A figure whose spans never occurred reads 0: the workload does not run
    that layer in its timed loop.
    """
    spans = tracer.spans
    kids = tracer.children()
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def dur(i):
        return (spans[i][END] - spans[i][START]) * 1e3

    def durations(name):
        return [dur(i) for i in by_name.get(name, [])]

    def descendants(i):
        todo, out = list(kids.get(i, [])), []
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(kids.get(j, []))
        return out

    def summed(parents, name, total=dur):
        """For each parent span, ``total`` summed over its descendants named ``name``."""
        return [sum(total(j) for j in descendants(i) if spans[j][NAME] == name)
                for i in parents]

    out = {}
    for cmd in ("prepare", "evaluate", "predict"):
        selfs = [self_time(spans[i], [spans[j] for j in kids.get(i, [])]) * 1e3
                 for i in by_name.get(f"cli.{cmd}", [])]
        out[f"cli.{cmd}.self_ms"] = _median(selfs)

    for step in ("parse_csv", "clean", "encode", "split_and_window", "load_cache"):
        out[f"data.{step}_ms"] = _median(durations(f"data.{step}"))
    out["data.window_before_ms"] = _median(
        summed(by_name.get("cli.predict", []), "data.window_before"))

    # blob time is per command; bytes are the most one command moved, which
    # repeats exactly whatever mix of commands a run ends on
    commands = [i for i, span in enumerate(spans) if span[NAME].startswith("cli.")]
    for op, verb in (("write_blob", "written"), ("read_blob", "read")):
        out[f"serialize.{op}_ms"] = _median(summed(commands, f"serialize.{op}"))
        out[f"serialize.bytes_{verb}"] = max(
            summed(commands, f"serialize.{op}", lambda j: spans[j][VALUE]), default=0)

    # training steps: forward_batch called directly by train(), paired in
    # order with the optimizer steps that close them
    train_fwd, steps, steps_per_call, val_pass = [], [], [], []
    for t in by_name.get("training.train", []):
        children = kids.get(t, [])
        fwd = [j for j in children if spans[j][NAME] == "models.forward_batch"]
        opt = [j for j in children if spans[j][NAME] == "training.optimizer_step"]
        preds = [j for j in children if spans[j][NAME] == "models.predict"]
        train_fwd.extend(fwd)
        steps.extend((spans[b][END] - spans[a][START]) * 1e3 for a, b in zip(fwd, opt))
        steps_per_call.append(len(fwd))
        if preds:
            val_pass.append(dur(preds[0]))
    for layer in ("conv", "lstm", "attention", "head"):
        out[f"layers.{layer}.fwd_ms"] = _median(summed(train_fwd, f"layers.{layer}"))
    out["models.forward_batch_ms"] = _median([dur(i) for i in train_fwd])
    out["models.predict_chunk_ms"] = _median(
        [dur(j) for i in by_name.get("models.predict", []) for j in kids.get(i, [])
         if spans[j][NAME] == "models.forward_batch" and spans[j][VALUE] == FULL_MSTIM_CHUNK])
    out["tensor.backward_ms"] = _median(
        [dur(i) for i in by_name.get("tensor.backward", [])
         if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "training.train"])

    out["training.step_ms.p50"] = _median(steps)
    out["training.step_ms.p95"] = percentile(steps, 95.0) if steps else 0.0
    for name in ("mse_loss", "clip_grad_norm", "optimizer_step"):
        out[f"training.{name}_ms"] = _median(durations(f"training.{name}"))
    out["training.val_pass_ms"] = _median(val_pass)
    out["training.steps"] = max(steps_per_call, default=0)
    return out

