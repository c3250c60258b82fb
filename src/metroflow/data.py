"""CSV ingestion, feature encoding, normalization and windowing.

The pipeline is parse -> clean -> encode -> split_and_window, and its stages
pass plain columns and arrays: ``parse_csv(path)`` returns ``(columns,
rejects)``, ``clean(columns)`` returns ``(columns, counts)``, ``encode(columns,
vocab)`` the ``[L, d]`` feature rows, and ``split_and_window(features, times,
vocab, n, horizon)`` the ``DatasetBundle``.  The parse reads the CSV a block
of rows at a time and converts each block a column at a time.  That column
pass is the one row rule: each check is a mask over the block, and the first
check a row fails names its reject.  Splits are chronological, normalization
statistics come from the training rows only, and windows never cross a split
boundary or a timeline gap longer than six hours; ``_gap_free`` decides that
for the split windows and for predict's history windows alike.  Both are
``Windows`` views: the series and the window start rows, gathered into
``[B, n, d]`` only for the rows a batch or prediction chunk reads.
``prepare_dataset`` returns the bundle and, beside it, the prepare report.
The dataset cache holds the bundle's primary data only: the standardized
series, its times and statistics, the window, horizon and vocabulary, and
no part of the report.  ``load_cache`` derives the split bounds, window
starts and ``data_hash`` with the code ``split_and_window`` uses, so a
loaded bundle is the bundle prepare built.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from itertools import compress

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

#: Consecutive records further apart than this do not share a window.
MAX_GAP_SECONDS = 6 * 3600

#: Kelvin readings below this are sensor sentinels, not weather.
MIN_PLAUSIBLE_TEMP = 100.0

#: Hourly rainfall above this (mm) is a recording artifact.
MAX_PLAUSIBLE_RAIN = 300.0

DATASET_FORMAT = "metroflow-dataset"

#: Columns ``parse_csv`` keeps, in the order of its ``columns`` dict.
_PARSED = ("holiday", "weather_main", *MEASURED_COLUMNS, "date_time", "traffic_volume")
_TEXT = ("holiday", "weather_main")

#: Rows ``parse_csv`` gathers before converting them; it holds one block's
#: rows at a time.
_BLOCK_ROWS = 2048

#: The fields of a nine-field row the column pass reads, by index, in the
#: order their ``malformed`` reasons are tried, and then the reasons of the
#: value rules, in their order.
_READ = (1, 2, 3, 4, 7, 8)
_RULES = (*(f"non-finite {name}" for name in MEASURED_COLUMNS),
          "negative traffic_volume", "clouds_all outside [0, 100]")

#: A ``TIME_FORMAT`` stamp at its fixed width: which characters are digits,
#: the code points of the separators, and where each two-digit field after
#: the year starts.
_STAMP_SHAPE = "0000-00-00 00:00:00"
_STAMP_DIGIT = np.array([c == "0" for c in _STAMP_SHAPE])
_STAMP_CODES = np.array([ord(c) for c in _STAMP_SHAPE], dtype=np.uint32)
_STAMP_TENS = np.array([5, 8, 11, 14, 17])


def parse_csv(path) -> tuple:
    """Read the nine-column traffic CSV into ``(columns, rejects)``.

    ``columns`` maps each ``_PARSED`` name to an ``[L]`` array of the accepted
    rows in file order, str objects for the text columns, one object per
    distinct value, and floats for the rest, ``date_time`` in epoch seconds.
    ``weather_description`` is never encoded, so it is not kept.  ``rejects``
    lists a ``{"line", "reason"}`` dict for each malformed row, in line order.

    ``csv.reader`` tokenizes the file, which may start with a UTF-8 byte-order
    mark.  Non-empty rows are gathered ``_BLOCK_ROWS`` at a time with their
    line numbers and handed to ``_convert_block``, so the rows held at once
    are one block, not the file.
    """
    blocks = []
    rejects = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
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
            rows, lines = [], []
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
                    if len(rows) == _BLOCK_ROWS:
                        blocks.append(_convert_block(rows, lines, rejects))
                        rows, lines = [], []
            blocks.append(_convert_block(rows, lines, rejects))
        except (csv.Error, UnicodeDecodeError) as err:
            raise SchemaError(
                f"{path}: unreadable CSV ({reader.line_num} lines read): {err}") from None
    return {name: np.concatenate([block[name] for block in blocks])
            for name in _PARSED}, rejects


def _convert_block(rows, lines, rejects) -> dict:
    """The ``_PARSED`` columns of one block's accepted rows.

    The rows nine fields wide are transposed and converted a column at a
    time.  Every check is a mask over those rows, tried in the order of
    ``_READ`` and then ``_RULES``.  A row is rejected when it is not nine
    fields wide, or else by the first check it fails: a field that does not
    read gives ``malformed <column> '<value>'``, a value that breaks a rule
    that rule's reason.  Rejects go to ``rejects`` in line order.  Text
    values are interned, so each distinct one is one object across blocks.
    """
    full = np.fromiter(map(len, rows), np.intp, len(rows)) == len(RAW_COLUMNS)
    fields = list(zip(*compress(rows, full))) or [()] * len(RAW_COLUMNS)
    measured, read = zip(*(_floats(fields[i]) for i in range(1, 5)))
    stamps, stamped = _stamp_seconds(fields[7])
    volume, counted = _floats(fields[8], integer=True)
    fails = ~np.array([*read, stamped, counted, *np.isfinite(measured), volume >= 0,
                       (measured[3] >= 0.0) & (measured[3] <= 100.0)])  # [12, m]
    ok = ~fails.any(axis=0)
    first = fails.argmax(axis=0)
    flagged = ~full
    flagged[full] = ~ok
    # i indexes the block's rows, j the nine-wide ones
    for i, j in zip(np.flatnonzero(flagged), np.cumsum(full)[flagged] - 1):
        row = rows[i]
        if not full[i]:
            reason = f"expected 9 fields, found {len(row)}"
        elif first[j] < len(_READ):
            column = _READ[first[j]]
            reason = f"malformed {RAW_COLUMNS[column]} {row[column]!r}"
        else:
            reason = _RULES[first[j] - len(_READ)]
        rejects.append({"line": lines[i], "reason": reason})
    columns = dict(zip(_PARSED[2:], np.array([*measured, stamps, volume])[:, ok]))
    for name, i in zip(_TEXT, (0, 5)):
        column = np.fromiter(map(sys.intern, fields[i]), object, len(fields[i]))
        columns[name] = column[ok]
    return columns


def _floats(values, integer=False) -> tuple:
    """``float(value)``, or ``float(int(value))`` when ``integer``, of each value
    into float64, with NaN where a value does not read, and a mask of the
    values that read.  A value reads when it is ASCII, holds no ``_`` and the
    call accepts it: ``float`` and ``int`` also take digits of other scripts
    and ``_`` between digits, which no CSV writer emits.  Only a column that
    fails somewhere is visited value by value.
    """
    joined = "".join(values)
    if joined.isascii() and "_" not in joined:
        try:
            return (np.fromiter(map(float, map(int, values) if integer else values),
                                np.float64, len(values)), np.ones(len(values), bool))
        except (ValueError, OverflowError):
            pass
    out, read = np.full(len(values), np.nan), np.zeros(len(values), bool)
    for i, value in enumerate(values):
        if value.isascii() and "_" not in value:
            try:
                out[i] = float(int(value) if integer else value)
                read[i] = True
            except (ValueError, OverflowError):
                pass
    return out, read


def _stamp_seconds(stamps) -> tuple:
    """Epoch seconds of ``stamps`` and a mask of the ones that hold them.

    A stamp holds its value when it is ``TIME_FORMAT`` at its fixed width of
    19 ASCII characters, every field zero-padded and in range, day of month
    and leap years included; any other spelling holds none.  The days come
    from numpy's calendar and the seconds are integers.  This is the one
    stamp rule, for the CSV and for ``parse_time`` alike.
    """
    fixed = np.fromiter(map(len, stamps), np.intp, len(stamps)) == len(_STAMP_SHAPE)
    codes = np.array(stamps, dtype=f"U{len(_STAMP_SHAPE)}").view(np.uint32)
    codes = codes.reshape(len(stamps), len(_STAMP_SHAPE))
    digits = codes - ord("0")  # unsigned: a code point below "0" wraps past 9
    shaped = fixed & np.where(_STAMP_DIGIT, digits <= 9, codes == _STAMP_CODES).all(axis=1)
    digits = np.where(shaped[:, None], digits, 0).astype(np.int64)
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    two_digit = 10 * digits[:, _STAMP_TENS] + digits[:, _STAMP_TENS + 1]
    month, day, hour, minute, second = two_digit.T
    first = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = first.astype("datetime64[D]").astype(np.int64)
    month_days = (first + 1).astype("datetime64[D]").astype(np.int64) - days
    valid = (shaped & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
             & (day <= month_days) & (hour <= 23) & (minute <= 59) & (second <= 59))
    seconds = (days + day - 1) * 86400 + hour * 3600 + minute * 60 + second
    return seconds.astype(np.float64), valid


def clean(columns) -> tuple:
    """Drop impossible readings, dedupe timestamps keep-first, sort by time.

    Returns ``(columns, counts)``: the kept rows in time order, and the
    ``kept``, ``dropped_temperature``, ``dropped_rain`` and
    ``duplicate_timestamps`` counts, which sum to the rows given.
    """
    cold = columns["temp"] < MIN_PLAUSIBLE_TEMP
    wet = ~cold & (columns["rain_1h"] > MAX_PLAUSIBLE_RAIN)
    plausible = np.flatnonzero(~cold & ~wet)
    # first occurrence of each timestamp, in time order
    _, first = np.unique(columns["date_time"][plausible], return_index=True)
    keep = plausible[first]
    counts = {"kept": len(keep), "dropped_temperature": int(cold.sum()),
              "dropped_rain": int(wet.sum()), "duplicate_timestamps": len(plausible) - len(keep)}
    return {name: col[keep] for name, col in columns.items()}, counts


def discover_vocab(columns) -> tuple:
    return tuple(sorted(set(columns["weather_main"])))


def encode(columns, vocab) -> np.ndarray:
    """The ``[L, d]`` feature rows of parsed columns.

    Column order: temp, rain_1h, snow_1h, clouds_all, hour sin/cos, day-of-week
    sin/cos, holiday flag, one one-hot column per ``vocab`` entry, and
    traffic_volume last.  Hour and weekday come from the epoch seconds
    (1970-01-01 was a Thursday, weekday 3), and the angles use the scalar
    expressions ``2.0 * np.pi * h / 24.0`` and ``2.0 * np.pi * w / 7.0`` over
    whole columns.  Categories outside the vocabulary leave the one-hot
    block all zero.  Continuous columns stay on their raw scale here;
    standardization happens against training statistics when splitting.
    """
    times = columns["date_time"]
    hour_angle = 2.0 * np.pi * (times // 3600 % 24) / 24.0
    dow_angle = 2.0 * np.pi * ((times // 86400 + 3) % 7) / 7.0
    categories = np.array(vocab, dtype=object)
    return np.column_stack([
        *(columns[name] for name in MEASURED_COLUMNS),
        np.sin(hour_angle), np.cos(hour_angle), np.sin(dow_angle), np.cos(dow_angle),
        columns["holiday"] != "None",
        columns["weather_main"][:, None] == categories[None, :],
        columns["traffic_volume"],
    ])


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


def _windowed(series, times, lo, hi, n, horizon, split, stats) -> WindowedDataset:
    starts = _window_starts(times, lo, hi, n, horizon)
    tidx = starts[:, None] + n + np.arange(horizon)[None, :]
    return WindowedDataset(
        split=split,
        windows=Windows(series, starts, n),
        targets=series[tidx, -1],
        target_times=times[tidx],
        stats=stats,
    )


def split_and_window(features, times, vocab, n: int, horizon: int) -> DatasetBundle:
    """The ``DatasetBundle`` of ``[L, d]`` feature rows, their ``[L]`` epoch
    seconds and the one-hot vocabulary: chronological split, train-fitted
    standardization, stride-1 windows."""
    if n < 1 or horizon < 1:
        raise ConfigError(f"window and horizon must be >= 1, got {n} and {horizon}")
    length = len(features)
    if length < n + horizon:
        raise ConfigError(
            f"series of {length} records cannot fit one window of {n}+{horizon} steps"
        )
    train_end, _ = _boundaries(length)
    with np.errstate(all="ignore"):  # an overflow surfaces in the check below
        stats = Stats.fit(features[:train_end] if train_end else features)
        series = stats.normalize(features)
    if not all(np.isfinite(a).all() for a in (stats.mean, stats.std, series)):
        raise NumericError("the training rows overflow the normalization statistics")
    return _bundle(series, times, stats, vocab, n, horizon)


def _bundle(series, times, stats, vocab, n, horizon) -> DatasetBundle:
    """The windowed splits of a standardized series; its split bounds, window
    starts and ``data_hash`` all follow from it, for prepare and load_cache alike."""
    train_end, val_end = bounds = _boundaries(len(series))
    spans = zip(SPLITS, ((0, train_end), (train_end, val_end), (val_end, len(series))))
    data_hash = digest({
        "format": DATASET_FORMAT,
        "window": n,
        "horizon": horizon,
        "vocab": list(vocab),
        "bounds": list(bounds),
        "rows": len(series),
        "mean": stats.mean.tolist(),
        "std": stats.std.tolist(),
    })
    return DatasetBundle(
        **{name: _windowed(series, times, lo, hi, n, horizon, name, stats)
           for name, (lo, hi) in spans},
        stats=stats, vocab=tuple(vocab), window=n, horizon=horizon, series=series,
        times=times, bounds=bounds, data_hash=data_hash,
    )


def _encode_csv(csv_path) -> tuple:
    """``(features, times, vocab, rejects, counts)`` of one CSV; the parsed
    columns die with this frame, before the series is standardized."""
    columns, rejects = parse_csv(csv_path)
    columns, counts = clean(columns)
    if not counts["kept"]:
        raise ConfigError(f"{csv_path}: no usable records after cleaning")
    train_end, _ = _boundaries(counts["kept"])
    vocab = discover_vocab({name: col[:max(train_end, 1)] for name, col in columns.items()})
    return encode(columns, vocab), columns["date_time"], vocab, rejects, counts


def prepare_dataset(csv_path, n: int = ModelSpec.window,
                    horizon: int = ModelSpec.horizon) -> tuple:
    """Full pipeline from CSV to windowed splits: ``(bundle, summary)``, where
    the summary is the prepare report, every reject and count included.

    The weather vocabulary is discovered on the training portion of the
    cleaned timeline so evaluation-only categories cannot widen the feature
    space.
    """
    features, times, vocab, rejects, counts = _encode_csv(csv_path)
    try:
        bundle = split_and_window(features, times, vocab, n, horizon)
    except NumericError as err:
        raise ConfigError(f"{csv_path}: {err}") from None
    train_end, val_end = bundle.bounds
    return bundle, {
        "parsed": sum(counts.values()),  # clean keeps or counts every parsed row
        "rejected": len(rejects),
        "rejects": rejects,
        "cleaning": counts,
        "vocabulary": list(vocab),
        "feature_count": int(bundle.series.shape[1]),
        "window": n,
        "horizon": horizon,
        "ratios": list(SPLIT_RATIOS),
        "split_rows": dict(zip(SPLITS, (train_end, val_end - train_end,
                                        len(bundle.series) - val_end))),
        "window_counts": {name: len(getattr(bundle, name).windows) for name in SPLITS},
    }


def save_cache(bundle: DatasetBundle, path) -> None:
    """Persist the standardized series, times and statistics, and the window,
    horizon and vocabulary; nothing of the prepare report.  ``data_hash`` stays
    in the header for the benchmark's ingest check, which reads only that;
    load_cache recomputes it."""
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
    prepare; entries and keys other than the primary data, such as the
    ``summary`` that earlier caches carried, are ignored."""
    arrays, meta = read_blob(path)
    if meta.get("kind") != DATASET_FORMAT:
        raise SchemaError(f"{path}: not a dataset cache (kind={meta.get('kind')!r})")
    problem = _cache_problem(arrays, meta)
    if problem:
        raise SchemaError(f"{path}: malformed dataset cache: {problem}")
    return _bundle(arrays["series"], arrays["times"],
                   Stats(mean=arrays["mean"], std=arrays["std"]), meta["vocab"],
                   meta["window"], meta["horizon"])


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
    """``TIME_FORMAT`` of epoch seconds by numpy's calendar, the one
    ``_stamp_seconds`` reads, so the year is zero-padded to four digits."""
    return str(np.datetime64(int(seconds), "s")).replace("T", " ")


def parse_time(text: str) -> float:
    (seconds,), (valid,) = _stamp_seconds([text])
    if not valid:
        raise UsageError(f"timestamp {text!r} does not match {TIME_FORMAT!r}")
    return float(seconds)
