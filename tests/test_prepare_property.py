"""Property test: ``prepare`` on a small valid CSV with one field replaced.

Whatever the replacement, the command ends in exit code 0 or 2 without an
exception escaping ``main``, and a cache it writes holds a finite series.
"""

import contextlib
import io
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from metroflow import cli
from metroflow.data import RAW_COLUMNS
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
                     "2016-1-1 1:00:00", '"', '"open', "a,b", "\n", "\r", "\x00"]),
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
