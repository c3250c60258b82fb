"""CSV ingestion, feature encoding, normalization and windowing.

The pipeline is parse -> clean -> encode -> split_and_window; only the parse
works row by row, and the stages after it pass numpy columns.  Splits are
chronological, normalization statistics come from the training rows only,
and windows never cross a split boundary or a timeline gap longer than six
hours; ``_gap_free`` decides that for the split windows and for predict's
history windows alike.  Both are ``Windows`` views: the series and the
window start rows, gathered into ``[B, n, d]`` only for the rows a batch or
prediction chunk reads.  The dataset cache holds only the standardized
series, its times and statistics; ``load_cache`` derives the split bounds,
window starts and ``data_hash`` with the code ``split_and_window`` uses.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .errors import ConfigError, NumericError, SchemaError, UsageError
from .models import ModelSpec
from .serialize import digest, read_blob, write_blob

RAW_COLUMNS = (
    "holiday", "temp", "rain_1h", "snow_1h", "clouds_all",
    "weather_main", "weather_description", "date_time", "traffic_volume",
)

#: Float columns that must hold finite values.
MEASURED_COLUMNS = ("temp", "rain_1h", "snow_1h", "clouds_all")

#: Chronological splits, in timeline order.
SPLITS = ("train", "val", "test")

#: Fraction of the cleaned timeline in each split, in ``SPLITS`` order.
SPLIT_RATIOS = (0.7, 0.1, 0.2)

TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
_EPOCH = datetime(1970, 1, 1)

#: ``TIME_FORMAT`` at its fixed width in ASCII digits, the shape of every
#: well-formed stamp; ``[0-9]`` because ``\d`` also matches non-ASCII digits.
_FIXED_STAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2} (?:[01][0-9]|2[0-3]):[0-9]{2}:[0-9]{2}")

#: Consecutive records further apart than this do not share a window.
MAX_GAP_SECONDS = 6 * 3600

#: Kelvin readings below this are sensor sentinels, not weather.
MIN_PLAUSIBLE_TEMP = 100.0

#: Hourly rainfall above this (mm) is a recording artifact.
MAX_PLAUSIBLE_RAIN = 300.0

DATASET_FORMAT = "metroflow-dataset"

#: Columns ``parse_csv`` keeps, in the order of its row tuples.
_PARSED = ("holiday", "weather_main", *MEASURED_COLUMNS, "date_time", "traffic_volume")
_TEXT = ("holiday", "weather_main")


@dataclass
class ParseResult:
    columns: dict  # column name -> [L] array of accepted rows
    rejects: list  # dicts with line number and reason


def _to_epoch(dt: datetime) -> float:
    return (dt - _EPOCH).total_seconds()


def _from_epoch(seconds: float) -> datetime:
    return _EPOCH + timedelta(seconds=float(seconds))


def _parse_stamp(text: str) -> datetime:
    """``text`` read as ``TIME_FORMAT``: the value ``datetime.strptime`` gives,
    or a ValueError with its text.

    A stamp of the fixed-width ASCII shape is parsed by the C-coded
    ``datetime.fromisoformat``.  Any other string, and one ``fromisoformat``
    rejects, goes to ``strptime``, which stays for two reasons: it accepts
    spellings the fast path refuses, such as single-digit fields and runs of
    spaces, and its ValueError text is the reject reason ``prepare`` reports.
    """
    if _FIXED_STAMP.fullmatch(text):
        try:
            return datetime.fromisoformat(text)
        except ValueError:
            pass  # a field out of range; strptime names it
    return datetime.strptime(text, TIME_FORMAT)


def _parse_row(row) -> tuple:
    """One CSV row as a tuple in ``_PARSED`` order; a ValueError or
    OverflowError carries the reason the row is rejected.  The timestamp goes
    through ``_parse_stamp``, whose ``strptime`` fallback keeps the reject
    text of a malformed stamp."""
    if len(row) != len(RAW_COLUMNS):
        raise ValueError(f"expected 9 fields, found {len(row)}")
    measured = [float(v) for v in row[1:5]]
    when = _to_epoch(_parse_stamp(row[7]))
    volume = float(int(row[8]))
    bad = [c for c, v in zip(MEASURED_COLUMNS, measured) if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite {bad[0]}")
    if volume < 0:
        raise ValueError("negative traffic_volume")
    if not 0.0 <= measured[3] <= 100.0:
        raise ValueError("clouds_all outside [0, 100]")
    return (row[0], row[5], *measured, when, volume)


def parse_csv(path) -> ParseResult:
    """Read the nine-column traffic CSV; malformed rows land in rejects.

    Accepted rows come back as ``[L]`` columns in file order, str objects for
    the text columns and floats for the rest, ``date_time`` in epoch seconds.
    ``weather_description`` is never encoded, so it is not kept.
    """
    rows = []
    rejects = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, expected a header row")
            if len(header) != len(RAW_COLUMNS):
                raise SchemaError(f"{path}: expected {len(RAW_COLUMNS)} columns, "
                                  f"found {len(header)}")
            for got, want in zip(header, RAW_COLUMNS):
                if got.strip() != want:
                    raise SchemaError(
                        f"{path}: unknown header column {got!r}, expected {want!r}")
            for row in reader:
                if row:
                    try:
                        rows.append(_parse_row(row))
                    except (ValueError, OverflowError) as err:
                        rejects.append({"line": reader.line_num, "reason": str(err)})
        except (csv.Error, UnicodeDecodeError) as err:
            raise SchemaError(
                f"{path}: unreadable CSV ({reader.line_num} lines read): {err}") from None
    fields = list(zip(*rows)) or [()] * len(_PARSED)
    columns = {name: np.array(values, dtype=object if name in _TEXT else np.float64)
               for name, values in zip(_PARSED, fields)}
    return ParseResult(columns=columns, rejects=rejects)


@dataclass
class CleanResult:
    columns: dict
    dropped_temperature: int
    dropped_rain: int
    duplicate_timestamps: int

    @property
    def summary(self) -> dict:
        return {
            "kept": len(self.columns["date_time"]),
            "dropped_temperature": self.dropped_temperature,
            "dropped_rain": self.dropped_rain,
            "duplicate_timestamps": self.duplicate_timestamps,
        }


def clean(columns) -> CleanResult:
    """Drop impossible readings, dedupe timestamps keep-first, sort by time."""
    cold = columns["temp"] < MIN_PLAUSIBLE_TEMP
    wet = ~cold & (columns["rain_1h"] > MAX_PLAUSIBLE_RAIN)
    plausible = np.flatnonzero(~cold & ~wet)
    # first occurrence of each timestamp, in time order
    _, first = np.unique(columns["date_time"][plausible], return_index=True)
    keep = plausible[first]
    return CleanResult(columns={name: col[keep] for name, col in columns.items()},
                       dropped_temperature=int(cold.sum()), dropped_rain=int(wet.sum()),
                       duplicate_timestamps=len(plausible) - len(keep))


@dataclass
class EncodedSeries:
    features: np.ndarray  # [L, d], raw continuous columns, final cyclic/flag/one-hot
    times: np.ndarray     # [L] epoch seconds
    vocab: tuple          # weather_main categories backing the one-hot block


def discover_vocab(columns) -> tuple:
    return tuple(sorted(set(columns["weather_main"])))


def encode(columns, vocab) -> EncodedSeries:
    """Encode parsed columns into fixed-width feature rows.

    Column order: temp, rain_1h, snow_1h, clouds_all, hour sin/cos, day-of-week
    sin/cos, holiday flag, one one-hot column per ``vocab`` entry, and
    traffic_volume last.  Hour and weekday come from the epoch seconds
    (1970-01-01 was a Thursday, weekday 3), and the angles use the scalar
    expressions ``2.0 * np.pi * h / 24.0`` and ``2.0 * np.pi * w / 7.0`` over
    whole columns.  Categories outside the vocabulary leave the one-hot
    block all zero.  Continuous columns stay on their raw scale here;
    standardization happens against training statistics when splitting.
    """
    vocab = tuple(vocab)
    times = columns["date_time"]
    hour_angle = 2.0 * np.pi * (times // 3600 % 24) / 24.0
    dow_angle = 2.0 * np.pi * ((times // 86400 + 3) % 7) / 7.0
    categories = np.array(vocab, dtype=object)
    features = np.column_stack([
        *(columns[name] for name in MEASURED_COLUMNS),
        np.sin(hour_angle), np.cos(hour_angle), np.sin(dow_angle), np.cos(dow_angle),
        columns["holiday"] != "None",
        columns["weather_main"][:, None] == categories[None, :],
        columns["traffic_volume"],
    ])
    return EncodedSeries(features=features, times=times, vocab=vocab)


@dataclass
class Stats:
    mean: np.ndarray  # [d]
    std: np.ndarray   # [d], zero-variance columns pinned to 1

    @classmethod
    def fit(cls, rows: np.ndarray) -> "Stats":
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    def normalize(self, rows: np.ndarray) -> np.ndarray:
        out = rows - self.mean
        out /= self.std  # in place: no second [L, d] temporary
        return out


def denormalize(preds, stats: Stats):
    """Map standardized volume predictions back to vehicles per hour."""
    if stats is None:
        raise UsageError("denormalize needs the fitted normalization stats")
    return np.asarray(preds, dtype=np.float64) * stats.std[-1] + stats.mean[-1]


class Windows:
    """The stride-1 windows ``series[s:s + n]`` for each ``s`` in ``starts``.

    Indexing with an int, a slice or an int row array gathers the selected
    windows from the series, as the same index into the ``[N, n, d]`` copy
    of every window would return them; nothing else is held.
    """

    def __init__(self, series: np.ndarray, starts: np.ndarray, n: int):
        self.series = series  # [L, d]
        self.starts = starts  # [N] int rows
        self.n = n

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, rows) -> np.ndarray:
        return self.series[self.starts[rows, None] + np.arange(self.n)]

    @property
    def nbytes(self) -> int:
        """The bytes this view owns: the start rows, not the shared series."""
        return self.starts.nbytes


@dataclass
class WindowedDataset:
    split: str
    windows: Windows          # [N, n, d] standardized, row-indexable
    targets: np.ndarray       # [N, T] standardized traffic_volume
    target_times: np.ndarray  # [N, T] epoch seconds
    stats: Stats


@dataclass
class DatasetBundle:
    train: WindowedDataset
    val: WindowedDataset
    test: WindowedDataset
    stats: Stats
    vocab: tuple
    window: int
    horizon: int
    series: np.ndarray  # [L, d] standardized, full timeline
    times: np.ndarray   # [L] epoch seconds
    bounds: tuple       # (train_end, val_end) row indices
    starts: dict = field(default_factory=dict)  # split -> window start rows
    summary: dict = field(default_factory=dict)
    data_hash: str = ""

    @property
    def input_features(self) -> int:
        return self.series.shape[1]


def _boundaries(length: int) -> tuple:
    # the epsilon absorbs float error in ratio sums (0.7+0.1 < 0.8 in binary)
    train_end = int(np.floor(SPLIT_RATIOS[0] * length + 1e-9))
    val_end = int(np.floor((SPLIT_RATIOS[0] + SPLIT_RATIOS[1]) * length + 1e-9))
    return train_end, val_end


def _gap_free(times: np.ndarray, starts: np.ndarray, span: int) -> np.ndarray:
    """True where ``times[s:s + span]`` holds no step longer than the gap limit.

    ``gaps[i]`` counts the long steps among ``times[:i + 1]``, so a span is
    gap-free when the count is the same at both of its ends.
    """
    gaps = np.concatenate(([0], np.cumsum(np.diff(times) > MAX_GAP_SECONDS)))
    return gaps[starts] == gaps[starts + span - 1]


def _window_starts(times: np.ndarray, lo: int, hi: int, n: int, horizon: int) -> np.ndarray:
    """Window start rows inside [lo, hi) whose full n+T span avoids gaps."""
    starts = np.arange(hi - lo - n - horizon + 1)  # relative to lo: gaps over [lo, hi) only
    return lo + starts[_gap_free(times[lo:hi], starts, n + horizon)]


def _windowed(series, times, starts, n, horizon, split, stats) -> WindowedDataset:
    tidx = starts[:, None] + n + np.arange(horizon)[None, :]
    return WindowedDataset(
        split=split,
        windows=Windows(series, starts, n),
        targets=series[tidx, -1],
        target_times=times[tidx],
        stats=stats,
    )


def split_and_window(encoded: EncodedSeries, n: int, horizon: int) -> DatasetBundle:
    """Chronological split, train-fitted standardization, stride-1 windows."""
    if n < 1 or horizon < 1:
        raise ConfigError(f"window and horizon must be >= 1, got {n} and {horizon}")
    length = len(encoded.features)
    if length < n + horizon:
        raise ConfigError(
            f"series of {length} records cannot fit one window of {n}+{horizon} steps"
        )
    train_end, _ = _boundaries(length)
    with np.errstate(all="ignore"):  # an overflow surfaces in the check below
        stats = Stats.fit(encoded.features[:train_end] if train_end else encoded.features)
        series = stats.normalize(encoded.features)
    if not all(np.isfinite(a).all() for a in (stats.mean, stats.std, series)):
        raise NumericError("the training rows overflow the normalization statistics")
    return _bundle(series, encoded.times, stats, encoded.vocab, n, horizon)


def _bundle(series, times, stats, vocab, n, horizon, summary=None) -> DatasetBundle:
    """The windowed splits of a standardized series; its split bounds, window
    starts and ``data_hash`` all follow from it, for prepare and load_cache alike."""
    train_end, val_end = bounds = _boundaries(len(series))
    spans = zip(SPLITS, ((0, train_end), (train_end, val_end), (val_end, len(series))))
    starts = {name: _window_starts(times, lo, hi, n, horizon) for name, (lo, hi) in spans}
    bundle = DatasetBundle(
        **{name: _windowed(series, times, starts[name], n, horizon, name, stats)
           for name in SPLITS},
        stats=stats, vocab=tuple(vocab), window=n, horizon=horizon, series=series,
        times=times, bounds=bounds, starts=starts, summary=summary or {},
    )
    bundle.data_hash = _bundle_hash(bundle)
    return bundle


def _bundle_hash(bundle: DatasetBundle) -> str:
    return digest({
        "format": DATASET_FORMAT,
        "window": bundle.window,
        "horizon": bundle.horizon,
        "vocab": list(bundle.vocab),
        "bounds": list(bundle.bounds),
        "rows": int(len(bundle.series)),
        "mean": bundle.stats.mean.tolist(),
        "std": bundle.stats.std.tolist(),
    })


def _encode_csv(csv_path) -> tuple:
    """The EncodedSeries of one CSV and its ingest summary; the parsed
    columns die with this frame, before the series is standardized."""
    parsed = parse_csv(csv_path)
    cleaned = clean(parsed.columns)
    kept = cleaned.summary["kept"]
    if not kept:
        raise ConfigError(f"{csv_path}: no usable records after cleaning")
    train_end, _ = _boundaries(kept)
    vocab = discover_vocab({name: col[:train_end or kept]
                            for name, col in cleaned.columns.items()})
    summary = {
        "parsed": len(parsed.columns["date_time"]),
        "rejected": len(parsed.rejects),
        "rejects": parsed.rejects,
        "cleaning": cleaned.summary,
        "vocabulary": list(vocab),
    }
    return encode(cleaned.columns, vocab=vocab), summary


def prepare_dataset(csv_path, n: int = ModelSpec.window,
                    horizon: int = ModelSpec.horizon) -> DatasetBundle:
    """Full pipeline from CSV to windowed splits, with a run summary.

    The weather vocabulary is discovered on the training portion of the
    cleaned timeline so evaluation-only categories cannot widen the feature
    space.
    """
    encoded, summary = _encode_csv(csv_path)
    try:
        bundle = split_and_window(encoded, n=n, horizon=horizon)
    except NumericError as err:
        raise ConfigError(f"{csv_path}: {err}") from None
    train_end, val_end = bundle.bounds
    bundle.summary = {
        **summary,
        "feature_count": int(bundle.series.shape[1]),
        "window": n,
        "horizon": horizon,
        "ratios": list(SPLIT_RATIOS),
        "split_rows": dict(zip(SPLITS, (train_end, val_end - train_end,
                                        len(bundle.series) - val_end))),
        "window_counts": {name: int(len(bundle.starts[name])) for name in SPLITS},
    }
    return bundle


def save_cache(bundle: DatasetBundle, path) -> None:
    """Persist the standardized series, times and statistics.  ``data_hash``
    stays in the header for tools that read only that; load_cache recomputes it."""
    arrays = {
        "series": bundle.series,
        "times": bundle.times,
        "mean": bundle.stats.mean,
        "std": bundle.stats.std,
    }
    meta = {
        "kind": DATASET_FORMAT,
        "window": bundle.window,
        "horizon": bundle.horizon,
        "vocab": list(bundle.vocab),
        "summary": bundle.summary,
        "data_hash": bundle.data_hash,
    }
    write_blob(path, arrays, meta)


def _cache_problem(arrays: dict, meta: dict) -> str | None:
    """Why a loaded cache cannot be used, or None when it is consistent."""
    n, horizon = meta.get("window"), meta.get("horizon")
    if not (all(type(v) is int and v >= 1 for v in (n, horizon))
            and isinstance(meta.get("vocab"), list)):
        return "window, horizon or vocab is missing or mistyped"
    names = ("series", "times", "mean", "std")
    missing = [name for name in names if name not in arrays]
    if missing:
        return f"missing arrays {missing}"
    series = arrays["series"]
    if series.ndim != 2 or arrays["times"].shape != series.shape[:1] or not (
            arrays["mean"].shape == arrays["std"].shape == series.shape[1:]):
        return "series, times, mean and std shapes disagree"
    if not all(np.isfinite(arrays[name]).all() for name in names):
        return "non-finite values"
    if len(series) < n + horizon:
        return f"series of {len(series)} records cannot fit one window of {n}+{horizon} steps"
    return None


def load_cache(path) -> DatasetBundle:
    """The bundle ``save_cache`` wrote, rebuilt by the code that built it in
    prepare; entries and keys other than the primary data are ignored."""
    arrays, meta = read_blob(path)
    if meta.get("kind") != DATASET_FORMAT:
        raise SchemaError(f"{path}: not a dataset cache (kind={meta.get('kind')!r})")
    problem = _cache_problem(arrays, meta)
    if problem:
        raise SchemaError(f"{path}: malformed dataset cache: {problem}")
    return _bundle(arrays["series"], arrays["times"],
                   Stats(mean=arrays["mean"], std=arrays["std"]), meta["vocab"],
                   meta["window"], meta["horizon"], summary=meta.get("summary", {}))


def window_before(bundle: DatasetBundle, rows: np.ndarray) -> Windows:
    """The n standardized rows before each of ``rows``, as a ``Windows`` view.

    Each row needs n preceding records and no gap in ``times[row - n:row + 1]``;
    the first row that fails either check is named in the UsageError.
    """
    n = bundle.window
    starts = rows - n
    ok = starts >= 0
    ok[ok] = _gap_free(bundle.times, starts[ok], n + 1)
    if not ok.all():
        row = int(rows[np.argmin(ok)])
        reason = (f"need {n} preceding records, only {row} exist before this timestamp"
                  if row < n else "history window crosses a gap longer than six hours")
        raise UsageError(f"cannot predict {format_time(bundle.times[row])}: {reason}")
    return Windows(bundle.series, starts, n)


def format_time(seconds: float) -> str:
    return _from_epoch(seconds).strftime(TIME_FORMAT)


def parse_time(text: str) -> float:
    try:
        return _to_epoch(_parse_stamp(text))
    except ValueError:
        raise UsageError(f"timestamp {text!r} does not match {TIME_FORMAT!r}")
