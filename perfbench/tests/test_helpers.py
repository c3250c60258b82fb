"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402


def test_generator_is_byte_identical_for_a_seed():
    assert gen.generate(3).encode() == gen.generate(3).encode()


def test_generator_differs_across_seeds():
    assert gen.generate(3) != gen.generate(4)


def test_generator_shape():
    lines = gen.generate(5).splitlines()
    assert lines[0] == gen.HEADER
    assert len(lines) == 1 + gen.ROWS
    widths = [len(line.split(",")) for line in lines[1:]]
    assert widths.count(8) == gen.MALFORMED // 5  # one malformed variant drops a field
    mains = {line.split(",")[5] for line in lines[1:] if len(line.split(",")) == 9}
    assert mains == {w[0] for w in gen.WEATHER}


@pytest.mark.parametrize("n, expected", [
    (19, None),      # not even the median has ten samples above it
    (20, 50.0),
    (99, 50.0),
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_picks_highest_percentile_with_ten_samples_beyond(n, expected):
    picked = spans.tail(list(range(n)))
    assert (picked[0] if picked else None) == expected


def test_percentile_interpolates():
    assert spans.percentile([0.0, 10.0], 50) == 5.0
    assert spans.percentile([4.0, 1.0, 3.0, 2.0], 100) == 4.0


def span(start, end):
    return ["x", start, end, -1, None]


def test_self_time_without_children_is_the_duration():
    assert spans.self_time(span(1.0, 4.0), []) == 3.0


def test_self_time_subtracts_the_union_of_children():
    children = [span(1.0, 2.0), span(1.5, 3.0), span(5.0, 6.0)]
    # union of children is [1, 3] and [5, 6]: 3 of the 10 units
    assert spans.self_time(span(0.0, 10.0), children) == pytest.approx(7.0)


def test_self_time_clips_children_to_the_span():
    children = [span(-1.0, 1.0), span(9.0, 12.0)]
    assert spans.self_time(span(0.0, 10.0), children) == pytest.approx(8.0)


def test_tracer_records_parents_and_values(tmp_path):
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: 7, "inner", value=lambda args, result: result * 2)
    outer = tracer.wrap(lambda: inner() + 1, "outer")
    assert outer() == 8
    assert tracer.spans == [["outer", 0.0, 3.0, -1, None], ["inner", 1.0, 2.0, 0, 14]]
    assert tracer.children() == {-1: [0], 0: [1]}
    tracer.write(tmp_path / "t.json", {"seed": 1})
    assert json.loads((tmp_path / "t.json").read_text())["spans"][1][3] == 0


def test_patches_reach_names_imported_elsewhere():
    import types

    source = types.ModuleType("source")
    user = types.ModuleType("user")
    source.f = user.f = lambda: 1
    patches = spans.Patches([source, user])
    patches.install(source, "f", lambda fn: lambda: fn() + 1)
    assert source.f() == 2 and user.f() == 2
    patches.undo()
    assert source.f() == 1 and user.f() == 1

