"""Command-line interface wiring the pipeline, models and training together.

Subcommands: prepare, train, evaluate, compare, predict.  Settings resolve
as CLI flags over config-file values over built-in defaults; the output
directory falls back to $METROFLOW_OUT.  Exit codes: 0 success, 1 runtime
failure (running out of memory included), 2 usage or configuration error,
130 interrupted by Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    SPLITS,
    denormalize,
    format_time,
    load_cache,
    parse_time,
    prepare_dataset,
    save_cache,
    window_before,
)
from .errors import (
    CompatibilityError,
    ConfigError,
    MetroflowError,
    NumericError,
    SchemaError,
    UsageError,
)
from .models import KINDS, ForecastModel, ModelSpec, build_model
from .plot import line_chart
from .serialize import atomic_write
from .training import ComparisonResult, TrainConfig, metrics, train

DEFAULT_OUT = "metroflow_out"
DATASET_FILE = "dataset.bin"

#: Test windows a plot draws: one week of hours.
PLOT_STEPS = 168

#: Settings passed through to TrainConfig and ModelSpec (``seed`` feeds both).
#: Their defaults, and those of prepare's window and horizon, are the
#: dataclass field defaults.
TRAIN_KEYS = ("epochs", "learning_rate", "batch_size", "seed")
SPEC_KEYS = ("hidden_size", "conv_filters", "d_k", "seed")

DEFAULTS = {
    "model": "mstim",
    "plot": False,
    "split": "test",
    "raw": False,
    **{f.name: f.default for cls in (ModelSpec, TrainConfig) for f in fields(cls)
       if f.name in ("window", "horizon", *SPEC_KEYS, *TRAIN_KEYS)},
}

#: Every setting's type; those without a default are paths or timestamps.
SETTING_TYPES = {
    **{key: type(value) for key, value in DEFAULTS.items()},
    **dict.fromkeys(("out", "csv", "data", "checkpoint", "from_ts", "to_ts"), str),
}

_CHOICES = {"model": KINDS, "split": SPLITS}


def _check_type(key: str, value) -> None:
    want = SETTING_TYPES[key]
    accepted = (int, float) if want is float else want
    if not isinstance(value, accepted) or (isinstance(value, bool) and want is not bool):
        raise ConfigError(f"setting {key!r} must be {want.__name__}, got {value!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(
            f"setting {key!r} must be one of {', '.join(_CHOICES[key])}, got {value!r}"
        )


def need_file(path, flag: str, missing: str) -> Path:
    """``path`` when it names a regular file; otherwise a UsageError that names
    ``flag`` when something else is there and says ``missing`` when nothing is."""
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"{flag} {path} is not a regular file" if path.exists() else missing)
    return path


def _load_config_file(path) -> dict:
    need_file(path, "--config", f"config file {path} not found")
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not UTF-8 text: {err}")
    except ValueError as err:  # a JSONDecodeError, or an int past str's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key, value in cfg.items():
        if key not in SETTING_TYPES:
            raise ConfigError(f"config file key {key!r} is not recognized")
        _check_type(key, value)
        if SETTING_TYPES[key] is float:  # stored as --lr stores it: 1 becomes 1.0
            try:
                cfg[key] = float(value)
            except OverflowError:
                raise ConfigError(f"setting {key!r} is too large for a float")
    return cfg


class Settings:
    """Merged view of CLI flags, config file and defaults, in that order."""

    def __init__(self, args: argparse.Namespace):
        self._flags = vars(args)
        config_path = self._flags.get("config")
        self._file = _load_config_file(config_path) if config_path else {}

    def get(self, key: str):
        value = self._flags.get(key)
        if value is not None:
            return value
        return self._file.get(key, DEFAULTS.get(key))

    def out_dir(self) -> Path:
        path = Path(self.get("out") or os.environ.get("METROFLOW_OUT") or DEFAULT_OUT)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise UsageError(f"--out {path} is not a directory") from None
        return path

    def dataset_path(self) -> Path:
        path = Path(self.get("data") or self.out_dir() / DATASET_FILE)
        return need_file(path, "--data",
                         f"prepared dataset not found at {path}; run prepare first")

    def checkpoint_path(self, kind: str) -> Path:
        path = Path(self.get("checkpoint") or self.out_dir() / f"model_{kind}.bin")
        return need_file(path, "--checkpoint", f"checkpoint not found at {path}")


def write_json(path, obj) -> None:
    atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def load_compatible(checkpoint: Path, dataset: Path) -> tuple:
    """The checkpoint's model and the dataset's bundle; a CompatibilityError
    naming both files when the model was not trained on that dataset."""
    bundle = load_cache(dataset)
    model, meta = ForecastModel.load(checkpoint)
    stored = meta.get("data_hash")
    if stored != bundle.data_hash:
        raise CompatibilityError(
            f"checkpoint {checkpoint} was trained against a different prepared dataset than "
            f"{dataset} (stored hash {stored[:12]}…, dataset hash {bundle.data_hash[:12]}…)"
        )
    spec = model.spec
    if (spec.input_features != bundle.input_features
            or spec.window != bundle.window or spec.horizon != bundle.horizon):
        raise CompatibilityError(
            f"checkpoint {checkpoint} expects {spec.window}x{spec.input_features} windows "
            f"with horizon {spec.horizon}, dataset {dataset} provides {bundle.window}x"
            f"{bundle.input_features} with horizon {bundle.horizon}"
        )
    return model, bundle


def plot_test_slice(model: ForecastModel, bundle) -> str:
    ds = bundle.test
    k = min(PLOT_STEPS, len(ds.windows))
    preds = model.predict(ds.windows[:k])[:, 0]
    labels = [format_time(t)[5:16] for t in ds.target_times[:k, 0]]
    return line_chart(
        [
            ("actual", denormalize(ds.targets[:k, 0], bundle.stats)),
            ("predicted", denormalize(preds, bundle.stats)),
        ],
        x_labels=labels,
        title=f"{model.spec.kind}: predicted vs actual, {k}-step test slice",
        y_label="vehicles/hour",
    )


def train_kinds(settings: Settings, kinds) -> tuple:
    """``train`` and ``compare``: train each of ``kinds`` under one TrainConfig,
    then write each one's checkpoint, report, timing sidecar and, with ``plot``,
    SVG.  ``--out`` is resolved first, so a file there fails before training.
    All train before any file is written, so a failure, whose NumericError
    names the kind, leaves none.  Returns the output directory and the reports."""
    config = TrainConfig(**{key: settings.get(key) for key in TRAIN_KEYS})
    out = settings.out_dir()
    bundle = load_cache(settings.dataset_path())
    models = {kind: build_model(ModelSpec(
        kind=kind, input_features=bundle.input_features, window=bundle.window,
        horizon=bundle.horizon, **{key: settings.get(key) for key in SPEC_KEYS}))
        for kind in kinds}
    reports = {}
    for kind, model in models.items():
        try:
            reports[kind] = train(model, bundle, config)
        except NumericError as err:
            raise NumericError(f"{kind}: {err}") from err
    for kind, model in models.items():
        model.save(out / f"model_{kind}.bin", data_hash=bundle.data_hash)
        write_json(out / f"train_report_{kind}.json", reports[kind].to_dict())
        write_json(out / f"train_timing_{kind}.json", {kind: reports[kind].elapsed_seconds})
        if settings.get("plot"):
            atomic_write(out / f"plot_{kind}.svg", plot_test_slice(model, bundle).encode("utf-8"))
    return out, reports


def cmd_prepare(settings: Settings) -> int:
    csv_path = settings.get("csv")
    if not csv_path:
        raise UsageError("prepare needs --csv pointing at the traffic-volume CSV")
    out = settings.out_dir()
    csv_path = need_file(csv_path, "--csv", f"CSV not found at {csv_path}")
    bundle, summary = prepare_dataset(csv_path, n=settings.get("window"),
                                      horizon=settings.get("horizon"))
    cache = out / DATASET_FILE
    save_cache(bundle, cache)
    write_json(out / "prepare_summary.json", summary)
    counts = summary["window_counts"]
    print(f"parsed {summary['parsed']} records ({summary['rejected']} rejected, "
          f"{summary['cleaning']['kept']} kept after cleaning)")
    print(f"windows: train={counts['train']} val={counts['val']} test={counts['test']}")
    print(f"cache written to {cache}")
    return 0


def cmd_train(settings: Settings) -> int:
    kind = settings.get("model")
    out, reports = train_kinds(settings, (kind,))
    t = reports[kind].test
    print(f"{kind}: test mae={t.mae:.4f} mse={t.mse:.4f} rmse={t.rmse:.4f} "
          f"after {settings.get('epochs')} epochs")
    print(f"checkpoint written to {out / f'model_{kind}.bin'}")
    return 0


def cmd_evaluate(settings: Settings) -> int:
    kind = settings.get("model")
    split = settings.get("split")
    out = settings.out_dir()
    checkpoint = settings.checkpoint_path(kind)
    model, bundle = load_compatible(checkpoint, settings.dataset_path())
    ds = getattr(bundle, split)
    if len(ds.windows) == 0:
        raise UsageError(f"{split} split has no windows to evaluate")
    preds = model.predict(ds.windows)
    standardized = metrics(preds, ds.targets)
    payload = {
        "model_kind": model.spec.kind,
        "split": split,
        "standardized": standardized.to_dict(),
        "raw": None,
    }
    if settings.get("raw"):
        payload["raw"] = metrics(denormalize(preds, bundle.stats),
                                 denormalize(ds.targets, bundle.stats)).to_dict()
    write_json(out / f"evaluation_{model.spec.kind}.json", payload)
    line = (f"{model.spec.kind} on {split}: mae={standardized.mae:.4f} "
            f"mse={standardized.mse:.4f} rmse={standardized.rmse:.4f}")
    if payload["raw"]:
        line += f" | raw mae={payload['raw']['mae']:.1f} vehicles/hour"
    print(line)
    return 0


def cmd_compare(settings: Settings) -> int:
    out, reports = train_kinds(settings, KINDS)
    result = ComparisonResult(reports)
    atomic_write(out / "comparison.csv", result.to_csv().encode("utf-8"))
    text = result.to_text()
    atomic_write(out / "comparison.txt", text.encode("utf-8"))
    write_json(out / "comparison.json", result.to_dict())
    print(text, end="")
    print(f"artifacts written to {out}")
    return 0


def cmd_predict(settings: Settings) -> int:
    kind = settings.get("model")
    out = settings.out_dir()
    checkpoint = settings.checkpoint_path(kind)
    start_text = settings.get("from_ts")
    end_text = settings.get("to_ts")
    if not start_text or not end_text:
        raise UsageError("predict needs --from and --to timestamps")
    start, end = parse_time(start_text), parse_time(end_text)
    if end < start:
        raise UsageError(f"--to {end_text} is earlier than --from {start_text}")
    model, bundle = load_compatible(checkpoint, settings.dataset_path())
    rows = np.flatnonzero((bundle.times >= start) & (bundle.times <= end))
    if rows.size == 0:
        raise UsageError(f"no records between {start_text} and {end_text}")
    preds = model.predict(window_before(bundle, rows))[:, 0]
    predicted = denormalize(preds, bundle.stats)
    actual = denormalize(bundle.series[rows, -1], bundle.stats)
    lines = ["timestamp,predicted_volume,actual_volume"]
    for t, p, a in zip(bundle.times[rows], predicted, actual):
        lines.append(f"{format_time(t)},{p:.2f},{a:.1f}")
    path = out / "predictions.csv"
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {rows.size} predictions to {path}")
    return 0


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "predict": cmd_predict,
}


def _setting(sub: argparse.ArgumentParser, flag: str, key: str, help=None) -> None:
    """Add the flag for one setting; its type and choices come from the tables above."""
    if SETTING_TYPES[key] is bool:
        sub.add_argument(flag, dest=key, action="store_true", default=None, help=help)
    else:
        sub.add_argument(flag, dest=key, type=SETTING_TYPES[key],
                         choices=_CHOICES.get(key), help=help)


def _common_flags(sub: argparse.ArgumentParser, with_data: bool = True) -> None:
    _setting(sub, "--out", "out", "output directory (default $METROFLOW_OUT or ./metroflow_out)")
    sub.add_argument("--config", help="JSON config file; flags take precedence")
    if with_data:
        _setting(sub, "--data", "data", "prepared dataset cache (default <out>/dataset.bin)")


def _training_flags(sub: argparse.ArgumentParser) -> None:
    _setting(sub, "--epochs", "epochs", "training epochs")
    _setting(sub, "--lr", "learning_rate", "learning rate")
    _setting(sub, "--batch", "batch_size", "mini-batch size")
    _setting(sub, "--seed", "seed", "seed for weights and shuffling")
    _setting(sub, "--hidden-size", "hidden_size")
    _setting(sub, "--conv-filters", "conv_filters")
    _setting(sub, "--d-k", "d_k")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metroflow",
        description="Hourly traffic-volume forecasting with multi-scale "
                    "convolution, LSTM and attention models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prepare = sub.add_parser("prepare", help="ingest a CSV into a windowed dataset cache")
    _setting(prepare, "--csv", "csv", "path to the 9-column traffic CSV")
    _setting(prepare, "--window", "window", "input window length in records")
    _setting(prepare, "--horizon", "horizon", "forecast steps per window")
    _common_flags(prepare, with_data=False)

    tr = sub.add_parser("train", help="train one model on a prepared dataset")
    _setting(tr, "--model", "model")
    _setting(tr, "--plot", "plot", "write an SVG of predicted vs actual on a test slice")
    _training_flags(tr)
    _common_flags(tr)

    ev = sub.add_parser("evaluate", help="score a checkpoint on one split")
    _setting(ev, "--model", "model", "kind, used for the default checkpoint name")
    _setting(ev, "--checkpoint", "checkpoint", "checkpoint path (default <out>/model_<kind>.bin)")
    _setting(ev, "--split", "split")
    _setting(ev, "--raw", "raw", "also report metrics in vehicles/hour")
    _common_flags(ev)

    cp = sub.add_parser("compare", help="train all four model kinds and tabulate metrics")
    _training_flags(cp)
    _common_flags(cp)

    pr = sub.add_parser("predict", help="predict volumes for a timestamp range")
    _setting(pr, "--model", "model", "kind, used for the default checkpoint name")
    _setting(pr, "--checkpoint", "checkpoint", "checkpoint path (default <out>/model_<kind>.bin)")
    _setting(pr, "--from", "from_ts", "range start, YYYY-MM-DD HH:MM:SS")
    _setting(pr, "--to", "to_ts", "range end, YYYY-MM-DD HH:MM:SS")
    _common_flags(pr)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = Settings(args)
        return COMMANDS[args.command](settings)
    except (ConfigError, UsageError, SchemaError, CompatibilityError,
            FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (MetroflowError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
