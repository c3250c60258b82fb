"""The benchmark's workloads.

Each workload is one closed-loop client inside the benchmark process: the
next operation starts when the previous one returns.  ``setup()`` is one
repetition of the work a user waits for before the first operation;
``op(i)`` returns the ``i``-th operation as a label, a callable the runner
times, and a check that raises ``CheckFailed`` on a wrong output and
otherwise returns the number of windows the operation processed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

import gen
import replay

TRAIN_WINDOWS = 1024   # 32 steps at batch 32 per train() call
EVAL_WINDOWS = 512     # validation and test passes of each train() call
PREDICT_HOURS = 168


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _finite(values, what: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{what} is not finite: {values}")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(windows, seconds) -> float:
    return windows / seconds if seconds else 0.0


def _same(first: dict, key, value, what: str) -> None:
    """Record ``value`` under ``key`` on first sight; later values must equal it."""
    if first.setdefault(key, value) != value:
        raise CheckFailed(f"{what} differs from the first operation")


class Workload:
    prepared = True  # the fixture runs prepare and writes checkpoints
    min_ops = 3
    steps_per_op = 0  # training steps in one operation

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.tracer = None  # set by the runner for the traced loop
        self.first = {}

    def cli(self, command: str, argv: list):
        """Callable running one in-process ``metroflow`` command, stdout muted."""
        from metroflow import cli

        def run():
            main = cli.main if self.tracer is None else self.tracer.wrap(cli.main, f"cli.{command}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, *argv])
            if code != 0:
                raise CheckFailed(f"{command} exited with code {code}")
            return code

        return run

    def setup(self) -> None:
        raise NotImplementedError

    def ready(self) -> None:
        """Called once after the set-up repetitions, before the first operation."""

    def metrics(self, records) -> tuple:
        """(op_s_p50, windows_per_s) over the successful operations."""
        times = [t for _, t, _ in records]
        return _median(times), _rate(sum(w for _, _, w in records), sum(times))

    def counts(self) -> dict:
        """Exact per-layer counts this workload knows after its loop."""
        return {}

    def replays(self) -> dict:
        """Per-layer figures from isolated replays of the layers it stresses."""
        return {}


class Ingest(Workload):
    """Repeated ``metroflow prepare`` on the generated CSV."""

    prepared = False
    latency_label = "prepare"

    def setup(self) -> None:
        from metroflow import cli

        cli.build_parser()

    def op(self, i: int):
        out = self.work / "prepared"
        run = self.cli("prepare", ["--csv", str(self.work / "traffic.csv"), "--out", str(out)])

        def check(_code):
            summary = json.loads((out / "prepare_summary.json").read_text(encoding="utf-8"))
            for key, want in gen.expected_summary().items():
                if summary[key] != want:
                    raise CheckFailed(f"prepare reported {key}={summary[key]}, expected {want}")
            with open(out / "dataset.bin", "rb") as fh:
                data_hash = json.loads(fh.readline())["meta"]["data_hash"]
            _same(self.first, "windows", summary["window_counts"], "window counts")
            _same(self.first, "hash", data_hash, "data_hash")
            self.first.setdefault("summary", summary)
            return sum(summary["window_counts"].values())

        return "prepare", run, check

    def counts(self) -> dict:
        summary = self.first.get("summary", {})
        return {"data.rows_parsed": summary.get("parsed", 0),
                "data.rows_rejected": summary.get("rejected", 0)}


def _window_bytes(bundle) -> int:
    return sum(getattr(bundle, s).windows.nbytes for s in ("train", "val", "test"))


class TrainMstim(Workload):
    """``training.train()`` on mstim at the paper's shapes, one epoch over a
    fixed 1,024-window slice of the training split per operation."""

    latency_label = "train"
    min_ops = 7  # 224 steps in each half of a traced run: ten or more beyond p95

    def setup(self) -> None:
        from metroflow import ModelSpec, build_model, data

        self.bundle = None  # free the previous repetition's windows first
        self.bundle = data.load_cache(self.work / "dataset.bin")
        self.spec = ModelSpec(kind="mstim", input_features=self.bundle.input_features,
                              window=self.bundle.window, horizon=self.bundle.horizon)
        build_model(self.spec)

    def ready(self) -> None:
        from metroflow import TrainConfig, data

        rng = np.random.default_rng(self.seed)
        b = self.bundle
        self.window_bytes = _window_bytes(b)

        def subset(ds, size):
            rows = np.sort(rng.choice(len(ds.windows), size, replace=False))
            return data.WindowedDataset(split=ds.split, windows=ds.windows[rows],
                                        targets=ds.targets[rows],
                                        target_times=ds.target_times[rows], stats=ds.stats)

        self.slice = data.DatasetBundle(
            train=subset(b.train, TRAIN_WINDOWS), val=subset(b.val, EVAL_WINDOWS),
            test=subset(b.test, EVAL_WINDOWS), stats=b.stats, vocab=b.vocab,
            window=b.window, horizon=b.horizon, series=b.series, times=b.times,
            bounds=b.bounds)
        self.bundle = None
        self.config = TrainConfig(epochs=1, seed=0)
        self.steps_per_op = TRAIN_WINDOWS // self.config.batch_size

    def op(self, i: int):
        from metroflow import build_model, training

        model = build_model(self.spec)

        def run():
            return training.train(model, self.slice, self.config)

        def check(report):
            epoch = report.epochs[0]
            _finite([epoch["train_loss"], epoch["val_mae"], epoch["val_mse"],
                     report.test.mae, report.test.mse], "training loss or metric")
            _same(self.first, "report", json.dumps(report.to_dict(), sort_keys=True),
                  "train report")
            return TRAIN_WINDOWS

        return "train", run, check

    def counts(self) -> dict:
        return {"data.window_bytes": self.window_bytes}

    def replays(self) -> dict:
        features = self.spec.input_features
        return {**replay.step_counts(features, self.seed),
                **replay.backward_replays(features, self.seed)}


class Infer(Workload):
    """In-process ``evaluate --raw`` cycling through the four kinds, each
    followed by three 168-hour mstim ``predict`` commands, against the
    fixture's cache and checkpoints."""

    predicts_per_evaluate = 3
    min_ops = 16  # every kind evaluated once
    latency_label = "predict"

    def setup(self) -> None:
        from metroflow import KINDS, ForecastModel, data

        self.bundle = None  # free the previous repetition's windows first
        self.bundle = data.load_cache(self.work / "dataset.bin")
        for kind in KINDS:
            ForecastModel.load(self.work / f"model_{kind}.bin")

    def ready(self) -> None:
        from metroflow.data import format_time

        b = self.bundle
        self.window_bytes = _window_bytes(b)
        self.test_windows = len(b.test.windows)
        self.input_features = b.input_features
        # a predict range of 168 consecutive hourly records whose 24-hour
        # histories are complete, chosen by the seed inside the test split
        span = PREDICT_HOURS + b.window
        hourly = np.concatenate([[0], np.cumsum(np.diff(b.times) == 3600.0)])
        first = np.arange(b.bounds[1], len(b.times) - span + 1)
        ok = first[hourly[first + span - 1] - hourly[first] == span - 1]
        start = int(np.random.default_rng(self.seed).choice(ok)) + b.window
        self.range = (format_time(b.times[start]),
                      format_time(b.times[start + PREDICT_HOURS - 1]))
        self.bundle = None

    def op(self, i: int):
        from metroflow import KINDS

        out = str(self.work)
        cycle = self.predicts_per_evaluate + 1
        if i % cycle:
            run = self.cli("predict", ["--model", "mstim", "--out", out,
                                       "--from", self.range[0], "--to", self.range[1]])

            def check(_code):
                lines = (self.work / "predictions.csv").read_text(encoding="utf-8").splitlines()
                if len(lines) != PREDICT_HOURS + 1:
                    raise CheckFailed(f"predict wrote {len(lines) - 1} rows")
                _finite([float(line.split(",")[1]) for line in lines[1:]], "prediction")
                _same(self.first, "predict", lines, "predictions")
                return PREDICT_HOURS

            return "predict", run, check

        kind = KINDS[(i // cycle) % len(KINDS)]
        run = self.cli("evaluate", ["--model", kind, "--out", out, "--split", "test", "--raw"])

        def check(_code):
            path = self.work / f"evaluation_{kind}.json"
            payload = json.loads(path.read_text(encoding="utf-8"))
            _finite([*payload["standardized"].values(), *payload["raw"].values()],
                    f"{kind} evaluation")
            _same(self.first, kind, payload, f"{kind} evaluation")
            return self.test_windows

        return f"evaluate:{kind}", run, check

    def metrics(self, records) -> tuple:
        predict = [t for label, t, _ in records if label == "predict"]
        per_kind = {}
        for label, t, _ in records:
            if label.startswith("evaluate:"):
                per_kind.setdefault(label, []).append(t)
        # windows per second summed over the kinds, so the mix of kinds a
        # run happens to end on does not move the figure
        mean_time = sum(statistics.mean(ts) for ts in per_kind.values())
        return _median(predict), _rate(self.test_windows * len(per_kind), mean_time)

    def counts(self) -> dict:
        return {"data.window_bytes": self.window_bytes}

    def replays(self) -> dict:
        return replay.inference_replays(self.input_features, self.seed)


WORKLOADS = {"ingest": Ingest, "train_mstim": TrainMstim, "infer": Infer}
