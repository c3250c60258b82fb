"""Property tests of ingest.

``prepare`` on a small valid CSV with one field replaced: whatever the
replacement, the command ends in exit code 0 or 2 without an exception
escaping ``main``, and a cache it writes holds a finite series.

``_parse_stamp`` against ``datetime.strptime`` as the oracle: the same
datetime, or a ValueError with the same text.
"""

import contextlib
import io
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from metroflow import cli
from metroflow.data import RAW_COLUMNS, TIME_FORMAT, _parse_stamp
from metroflow.serialize import read_blob

ROWS = 60
START = datetime(2016, 1, 1)
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


def _read(parse, text):
    try:
        return repr(parse(text))
    except ValueError as err:
        return f"ValueError: {err}"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=STAMPS)
@example(text="2012-1-2 9:00:00")             # strptime accepts single-digit fields
@example(text="2016-01-01T00:00:00")          # fromisoformat accepts these three
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
def test_parse_stamp_matches_strptime(text):
    assert _read(_parse_stamp, text) == _read(lambda t: datetime.strptime(t, TIME_FORMAT), text)
