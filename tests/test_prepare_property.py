"""Property tests of ingest.

``prepare`` on a small valid CSV with one field replaced: whatever the
replacement, the command ends in exit code 0 or 2 without an exception
escaping ``main``, and a cache it writes holds a finite series.

The column pass's ``_stamp_seconds`` against ``datetime.strptime`` as the
oracle: a stamp is accepted exactly when it is zero-padded at the fixed width
and strptime reads it, and it holds strptime's epoch seconds.

``parse_csv``, which converts blocks of rows a column at a time, against
``parse_by_rows``, a reading of one row at a time that shares no code with
it: the same columns, dtypes and bits, and the same rejects.
"""

import contextlib
import csv
import io
import math
import re
import tempfile
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from metroflow import cli, data
from metroflow.data import (MEASURED_COLUMNS, RAW_COLUMNS, TIME_FORMAT, _stamp_seconds,
                             parse_csv)
from metroflow.serialize import read_blob

ROWS = 60
START = datetime(2016, 1, 1)
EPOCH = datetime(1970, 1, 1)
PADDED = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}")
WEATHER = ["Clear", "Clouds", "Rain"]


def valid_rows() -> list:
    return [[("New Years Day" if h == 0 else "None"), f"{270 + h % 13:.2f}", "0.0",
             "0.0", str(h % 101), WEATHER[h % 3], "x",
             f"{START + timedelta(hours=h):%Y-%m-%d %H:%M:%S}", str(1000 + 37 * h)]
            for h in range(ROWS)]


VALUES = st.one_of(
    st.text(st.characters(codec="utf-8"), max_size=20),
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["", "1e308", "-1e308", "1e200", "nan", "-inf", "9" * 400,
                     "2016-01-01 00:00:00", "0001-01-01 00:00:00", "9999-12-31 23:59:59",
                     "2016-1-1 1:00:00", "2016-01-01T00:00:00", "2016-01-01 00:00:00.5",
                     "2016-01-01 00:00:00+01:00", "2016-01-01 24:00:00",
                     "２０１６-０１-０１ ００:００:００", '"', '"open', "a,b", "\n", "\r", "\x00"]),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(row=st.integers(0, ROWS - 1), field=st.integers(0, len(RAW_COLUMNS) - 1),
       value=VALUES)
def test_one_mutated_field(row, field, value):
    rows = valid_rows()
    rows[row][field] = value
    text = "\n".join([",".join(RAW_COLUMNS), *(",".join(r) for r in rows)]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = Path(tmp) / "t.csv", Path(tmp) / "out"
        csv.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["prepare", "--csv", str(csv), "--out", str(out),
                             "--window", "6", "--horizon", "1"])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            arrays, _ = read_blob(out / "dataset.bin")
            assert np.isfinite(arrays["series"]).all()


def _field(low, high, width):
    """A number in [low, high], zero-padded to ``width`` or not padded."""
    return st.builds(lambda value, pad: str(value).zfill(width if pad else 0),
                     st.integers(low, high), st.booleans())


def _digits(width):
    return st.text("0123456789", min_size=width, max_size=width)


def _stamp(year, month, day, hour, minute, second, sep=st.just(" ")):
    return st.builds("{}-{}-{}{}{}:{}:{}".format, year, month, day, sep, hour, minute, second)


STAMPS = st.one_of(
    # each field a little past its range: month 13, day 32, hour 24, second 60
    _stamp(_field(0, 9999, 4), _field(0, 13, 2), _field(0, 32, 2), _field(0, 25, 2),
           _field(0, 60, 2), _field(0, 61, 2), sep=st.sampled_from([" ", "T", "  "])),
    _stamp(_digits(4), _digits(2), _digits(2), _digits(2), _digits(2), _digits(2)),
    st.text(max_size=25),
)


def read_stamp(text) -> float:
    """Epoch seconds of a zero-padded ``TIME_FORMAT`` stamp, read by strptime."""
    if not PADDED.fullmatch(text):
        raise ValueError(text)
    return (datetime.strptime(text, TIME_FORMAT) - EPOCH).total_seconds()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=STAMPS)
@example(text="2012-1-2 9:00:00")             # strptime also reads single-digit fields
@example(text="2016-01-01T00:00:00")          # ISO spellings strptime refuses
@example(text="2016-01-01 00:00:00.5")
@example(text="2016-01-01 00:00:00+01:00")
@example(text="2016-01-01  00:00:00")         # strptime reads a space as any run of them
@example(text="２０１６-０１-０１ ００:００:００")  # full-width digits
@example(text="٢٠١٦-٠١-٠١ ٠٠:٠٠:٠٠")          # Arabic-Indic digits
@example(text="2016-01-01 00:00:00\n")
@example(text="2016-13-01 00:00:00")
@example(text="2016-04-31 00:00:00")
@example(text="2015-02-29 00:00:00")
@example(text="2016-02-29 00:00:00")
@example(text="2016-01-01 24:00:00")
@example(text="2016-01-01 00:60:00")
@example(text="2016-01-01 00:00:60")
@example(text="0000-01-01 00:00:00")
@example(text="9999-12-31 23:59:59")
def test_stamp_seconds_matches_strptime(text):
    (seconds,), (valid,) = _stamp_seconds([text])
    try:
        expected = read_stamp(text)
    except ValueError:
        assert not valid
    else:
        assert valid and seconds == expected


#: The columns ``parse_row`` returns, text first.
PARSED = ("holiday", "weather_main", *MEASURED_COLUMNS, "date_time", "traffic_volume")


def read_number(text, integer=False) -> float:
    """``float(text)``, or ``float(int(text))``, of an ASCII field without ``_``."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return float(int(text) if integer else text)


def parse_row(row) -> tuple:
    """One CSV row as a tuple in ``PARSED`` order; a ValueError carries the
    reason the row is rejected."""
    if len(row) != len(RAW_COLUMNS):
        raise ValueError(f"expected 9 fields, found {len(row)}")
    values = []
    for i, read in ((1, read_number), (2, read_number), (3, read_number), (4, read_number),
                    (7, read_stamp), (8, lambda text: read_number(text, integer=True))):
        try:
            values.append(read(row[i]))
        except (ValueError, OverflowError):
            raise ValueError(f"malformed {RAW_COLUMNS[i]} {row[i]!r}") from None
    *measured, when, volume = values
    bad = [c for c, v in zip(MEASURED_COLUMNS, measured) if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite {bad[0]}")
    if volume < 0:
        raise ValueError("negative traffic_volume")
    if not 0.0 <= measured[3] <= 100.0:
        raise ValueError("clouds_all outside [0, 100]")
    return (row[0], row[5], *measured, when, volume)


def parse_by_rows(path) -> tuple:
    """``parse_csv`` as one ``parse_row`` call per row: its rows' tuples,
    transposed into columns, and the rejects in line order."""
    rows, rejects = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            if row:
                try:
                    rows.append(parse_row(row))
                except ValueError as err:
                    rejects.append({"line": reader.line_num, "reason": str(err)})
    fields = list(zip(*rows)) or [()] * len(PARSED)
    return {name: np.array(values, dtype=object if i < 2 else np.float64)
            for i, (name, values) in enumerate(zip(PARSED, fields))}, rejects


def _two(low, high):
    """Two digits in [low, high], half the time one of the two ends."""
    return st.one_of(st.sampled_from([low, high]), st.integers(low, high)).map("{:02d}".format)


#: Stamps of the fixed width, each field a little past its range.
FIXED_STAMPS = _stamp(st.integers(0, 9999).map("{:04d}".format), _two(0, 13), _two(0, 32),
                      _two(0, 24), _two(0, 60), _two(0, 61))

NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(-1, 101).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["-0", "-0.0", "100", "100.0000001", "1e999", "-inf", "nan", "9" * 400,
                     " 7 ", "1_000", "2_80", "٣", "２８０", "0x10", "1.5"]),
)
ROW = st.integers(0, ROWS - 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(st.tuples(ROW, st.integers(0, len(RAW_COLUMNS) - 1), VALUES), max_size=3),
       stamps=st.lists(st.tuples(ROW, st.just(7), st.one_of(FIXED_STAMPS, STAMPS)), max_size=6),
       numbers=st.lists(st.tuples(ROW, st.sampled_from([1, 2, 3, 4, 8]), NUMBERS), max_size=6),
       widths=st.lists(st.tuples(ROW, st.integers(0, 12)), max_size=3),
       blanks=st.sets(ROW, max_size=3),
       block=st.integers(1, 9))
@example(edits=[], stamps=[(0, 7, "2016-1-1 0:00:00"), (1, 7, "2016-04-31 00:00:00"),
                           (2, 7, "2015-02-29 00:00:00"), (3, 7, "2016-02-29 23:59:59"),
                           (4, 7, "2016-01-01 00:00:60"), (5, 7, "0000-01-01 00:00:00"),
                           (6, 7, "2016-01-01 00:00:00.5"), (7, 7, "2016-01-01 24:00:00"),
                           (16, 7, "2016-13-01 00:00:00"), (17, 7, "2016-01-01 00:60:00")],
         numbers=[(8, 8, "-1"), (9, 4, "100.5"), (10, 4, "-0.5"), (11, 8, "9" * 400),
                  (12, 1, "n/a"), (13, 2, "inf")],
         widths=[(14, 10), (15, 8)], blanks={1}, block=3)
def test_blocks_match_parse_by_rows(edits, stamps, numbers, widths, blanks, block):
    """Rows with mutated fields, of the wrong width and after blank lines, in
    blocks of a few rows, so rejects fall on block edges too."""
    rows = valid_rows()
    for row, field, value in edits + stamps + numbers:
        rows[row][field] = value
    for row, width in widths:
        rows[row] = (rows[row] + ["x"] * width)[:width]
    lines = [",".join(RAW_COLUMNS)]
    for i, row in enumerate(rows):
        lines += [",".join(row)] + [""] * (i in blanks)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want, want_rejects = parse_by_rows(path)
        with mock.patch.object(data, "_BLOCK_ROWS", block):
            got, got_rejects = parse_csv(path)
    assert got_rejects == want_rejects
    assert list(got) == list(want)
    for name, column in want.items():
        assert got[name].dtype == column.dtype and got[name].shape == column.shape, name
        if column.dtype == object:
            assert got[name].tolist() == column.tolist(), name
            assert len({id(v) for v in got[name]}) == len(set(column)), name
        else:
            assert got[name].tobytes() == column.tobytes(), name
