"""Data pipeline tests over synthetic CSVs and hand-built series.

Window-count oracles are direct counting; cyclic encodings are checked
against their defining angles; the no-leakage property is verified
exhaustively on every produced window.
"""

import numpy as np
import pytest
from datetime import datetime, timedelta

from metroflow.data import (
    DATASET_FORMAT,
    MAX_GAP_SECONDS,
    SPLITS,
    Stats,
    Windows,
    _window_starts,
    clean,
    denormalize,
    discover_vocab,
    encode,
    format_time,
    load_cache,
    parse_csv,
    parse_time,
    prepare_dataset,
    save_cache,
    split_and_window,
    window_before,
)
from metroflow.errors import ConfigError, SchemaError, UsageError
from metroflow.serialize import read_blob, write_blob

HEADER = ("holiday,temp,rain_1h,snow_1h,clouds_all,weather_main,"
          "weather_description,date_time,traffic_volume")

WEATHER = ["Clear", "Clouds", "Rain", "Snow"]


EPOCH = datetime(1970, 1, 1)
TEXT_COLUMNS = ("holiday", "weather_main")


def row(hour_offset, temp=280.0, rain=0.0, snow=0.0, clouds=40.0,
        weather="Clouds", holiday="None", volume=1000,
        start=datetime(2016, 1, 1)):
    """One accepted CSV row as parse_csv keeps it, keyed by column."""
    when = start + timedelta(hours=hour_offset)
    return {"holiday": holiday, "weather_main": weather, "temp": temp,
            "rain_1h": rain, "snow_1h": snow, "clouds_all": clouds,
            "date_time": (when - EPOCH).total_seconds(), "traffic_volume": volume}


def columns(*rows):
    """Rows from ``row()`` as the column dict parse_csv returns."""
    return {name: np.array([r[name] for r in rows],
                           dtype=object if name in TEXT_COLUMNS else np.float64)
            for name in rows[0]}


def csv_row(hour, temp=280.0, weather="Clouds", holiday="None", volume=None,
            start=datetime(2016, 1, 1)):
    when = start + timedelta(hours=hour)
    if volume is None:
        volume = int(2000 + 1500 * np.sin(2 * np.pi * hour / 24))
    return (f"{holiday},{temp},0.0,0.0,40,{weather},broken clouds,"
            f"{when:%Y-%m-%d %H:%M:%S},{volume}")


def write_csv(path, hours=120, gap_after=None):
    lines = [HEADER]
    for h in range(hours):
        shifted = h if gap_after is None or h < gap_after else h + 12
        lines.append(csv_row(shifted, weather=WEATHER[h % len(WEATHER)]))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParse:
    def test_round_trip_counts(self, tmp_path):
        path = write_csv(tmp_path / "ok.csv", hours=50)
        columns, rejects = parse_csv(path)
        assert len(columns["date_time"]) == 50
        assert rejects == []

    def test_field_types(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(HEADER + "\n" +
                        "None,288.28,0.0,0.0,40,Clouds,scattered clouds,"
                        "2012-10-02 09:00:00,5545\n")
        c, _ = parse_csv(path)
        assert c["temp"][0] == pytest.approx(288.28)
        assert c["traffic_volume"][0] == 5545
        assert c["date_time"][0] == (datetime(2012, 10, 2, 9, 0, 0) - EPOCH).total_seconds()
        assert c["weather_main"][0] == "Clouds"
        assert "weather_description" not in c

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n")
        columns, rejects = parse_csv(path)
        assert all(len(col) == 0 for col in columns.values())
        assert rejects == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_csv(tmp_path / "absent.csv")

    def test_header_name_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER.replace("temp", "temperature") + "\n")
        with pytest.raises(SchemaError) as err:
            parse_csv(path)
        assert "temperature" in str(err.value)

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("holiday,temp\n")
        with pytest.raises(SchemaError):
            parse_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            parse_csv(path)

    def test_reject_line_numbers(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("\n".join([
            HEADER,
            csv_row(0),
            "None,not-a-number,0.0,0.0,40,Clouds,x,2016-01-01 01:00:00,100",
            csv_row(2),
        ]) + "\n")
        columns, rejects = parse_csv(path)
        assert len(columns["date_time"]) == 2
        assert len(rejects) == 1
        assert rejects[0]["line"] == 3

    def test_reject_reasons(self, tmp_path):
        path = tmp_path / "invalid.csv"
        path.write_text("\n".join([
            HEADER,
            "None,280,0,0,40,Clouds,x,2016-01-01 00:00:00,-5",
            "None,280,0,0,150,Clouds,x,2016-01-01 01:00:00,10",
            "None,280,0,0,40,Clouds,x,01/02/2016,10",
            "None,280,0,0,40,Clouds,x,2016-01-01 03:00:00",
            "None,nan,0,0,40,Clouds,x,2016-01-01 04:00:00,10",
            "None,280,inf,0,40,Clouds,x,2016-01-01 05:00:00,10",
            "None,280,0,-inf,40,Clouds,x,2016-01-01 06:00:00,10",
        ]) + "\n")
        columns, rejects = parse_csv(path)
        assert len(columns["date_time"]) == 0
        reasons = " | ".join(r["reason"] for r in rejects)
        assert "traffic_volume" in reasons
        assert "clouds_all" in reasons
        assert len(rejects) == 7
        assert rejects[4:] == [
            {"line": 6, "reason": "non-finite temp"},
            {"line": 7, "reason": "non-finite rain_1h"},
            {"line": 8, "reason": "non-finite snow_1h"},
        ]

    def test_volume_too_large_for_float_rejected(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("\n".join([HEADER, csv_row(0, volume="9" * 400), csv_row(1)]) + "\n")
        columns, rejects = parse_csv(path)
        assert rejects == [{"line": 2, "reason": f"malformed traffic_volume '{'9' * 400}'"}]
        assert len(columns["date_time"]) == 1

    def test_peak_memory_bounded_by_output(self, tmp_path):
        # rows are held one block at a time, and each text value once; a
        # field tuple for every row at once peaked near 7.7 times the output
        import tracemalloc
        path = write_csv(tmp_path / "long.csv", hours=20_000)
        tracemalloc.start()
        try:
            columns, _ = parse_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns["date_time"]) == 20_000
        assert peak < 4 * sum(column.nbytes for column in columns.values())

    @pytest.mark.parametrize("body", [
        # an unclosed quote runs past the csv module's field size limit
        b'"None,280,0,0,40,Clouds,x,2016-01-01 00:00:00,10\n' + b"x" * 140_000 + b"\n",
        b"None,280,0,0,40,Cl\xffouds,x,2016-01-01 00:00:00,10\n",  # not UTF-8
    ], ids=["field-limit", "not-utf8"])
    def test_unreadable_csv(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(HEADER.encode() + b"\n" + body)
        with pytest.raises(SchemaError, match="bad.csv: unreadable CSV"):
            parse_csv(path)


class TestClean:
    def test_temp_sentinel_dropped(self):
        kept, counts = clean(columns(row(0, temp=0.0), row(1)))
        assert len(kept["date_time"]) == 1
        assert counts["dropped_temperature"] == 1

    def test_extreme_rain_dropped(self):
        kept, counts = clean(columns(row(0, rain=9831.3), row(1)))
        assert len(kept["date_time"]) == 1
        assert counts["dropped_rain"] == 1

    def test_duplicate_keeps_first(self):
        kept, counts = clean(columns(row(0, volume=111), row(0, volume=222), row(1)))
        assert counts["duplicate_timestamps"] == 1
        assert kept["traffic_volume"][0] == 111
        # out of order: the first row at hour 5 wins, and time order follows
        kept, counts = clean(columns(row(5, volume=111), row(1), row(5, volume=222)))
        assert counts["duplicate_timestamps"] == 1
        np.testing.assert_array_equal(kept["traffic_volume"], [1000, 111])

    def test_sorted_output(self):
        kept, _ = clean(columns(row(5), row(1), row(3)))
        times = kept["date_time"].tolist()
        assert times == sorted(times)

    def test_idempotent(self):
        once, counts = clean(columns(row(0, temp=0.0), row(2), row(2), row(1)))
        assert counts == {"kept": 2, "dropped_temperature": 1, "dropped_rain": 0,
                          "duplicate_timestamps": 1}
        twice, counts = clean(once)
        assert twice.keys() == once.keys()
        for name, col in once.items():
            np.testing.assert_array_equal(twice[name], col)
        assert counts["dropped_temperature"] == 0
        assert counts["duplicate_timestamps"] == 0


class TestEncode:
    def test_hour_zero(self):
        f = encode(columns(row(0)), vocab=("Clouds",))
        assert f[0, 4] == pytest.approx(0.0, abs=1e-12)
        assert f[0, 5] == pytest.approx(1.0, abs=1e-12)

    def test_hour_six(self):
        f = encode(columns(row(6)), vocab=("Clouds",))
        assert f[0, 4] == pytest.approx(1.0, abs=1e-12)
        assert f[0, 5] == pytest.approx(0.0, abs=1e-12)

    def test_cyclic_identity(self):
        f = encode(columns(*(row(h) for h in range(170))), vocab=("Clouds",))
        hour = f[:, 4] ** 2 + f[:, 5] ** 2
        dow = f[:, 6] ** 2 + f[:, 7] ** 2
        np.testing.assert_allclose(hour, 1.0, atol=1e-12)
        np.testing.assert_allclose(dow, 1.0, atol=1e-12)

    def test_day_of_week_period(self):
        # 2016-01-01 is a Friday; one week later the encoding repeats
        f = encode(columns(row(0), row(24 * 7)), vocab=("Clouds",))
        np.testing.assert_allclose(f[0, 6:8], f[1, 6:8], atol=1e-12)

    def test_vocab_discovery_sorted(self):
        rows = [row(h, weather=w) for h, w in enumerate(["Rain", "Clear", "Rain"])]
        assert discover_vocab(columns(*rows)) == ("Clear", "Rain")

    def test_one_hot_block(self):
        f = encode(columns(row(0, weather="Rain")), vocab=("Clear", "Rain"))
        np.testing.assert_array_equal(f[0, 9:11], [0.0, 1.0])

    def test_unknown_category_all_zero(self):
        f = encode(columns(row(0, weather="Squall")), vocab=("Clear", "Rain"))
        np.testing.assert_array_equal(f[0, 9:11], [0.0, 0.0])

    def test_holiday_flag(self):
        f = encode(columns(row(0, holiday="None"), row(1, holiday="New Years Day")),
                   vocab=("Clouds",))
        assert f[0, 8] == 0.0
        assert f[1, 8] == 1.0

    def test_width_and_volume_last(self):
        vocab = ("Clear", "Clouds", "Rain")
        f = encode(columns(row(0, volume=1234)), vocab=vocab)
        assert f.shape == (1, 13)
        assert f[0, -1] == 1234.0
        assert f.shape[1] == 9 + len(vocab) + 1

    def test_cyclic_columns_match_scalar_formulas(self):
        # every hour of two weeks in each year 2012-2018: the array sin/cos
        # must equal, bit for bit, the scalar calls on each row's own hour
        # and weekday, which is what keeps prepared datasets byte-identical
        stamps = [datetime(year, year - 2011, 9) + timedelta(hours=h)
                  for year in range(2012, 2019) for h in range(14 * 24)]
        f = encode(columns(*(row(0, start=when) for when in stamps)), vocab=("Clouds",))
        expected = []
        for when in stamps:
            hour_angle = 2.0 * np.pi * when.hour / 24.0
            dow_angle = 2.0 * np.pi * when.weekday() / 7.0
            expected.append([np.sin(hour_angle), np.cos(hour_angle),
                             np.sin(dow_angle), np.cos(dow_angle)])
        np.testing.assert_array_equal(f[:, 4:8], np.array(expected))


def hourly_series(length, vocab=("Clear", "Clouds"), seed=0):
    rng = np.random.default_rng(seed)
    rows = [row(h, temp=270 + 20 * rng.random(),
                clouds=float(rng.integers(0, 101)),
                weather=vocab[h % len(vocab)],
                volume=int(rng.integers(200, 6000)))
            for h in range(length)]
    c = columns(*rows)
    return encode(c, vocab), c["date_time"], vocab


class TestSplitWindow:
    def test_counts_single_segment(self):
        # per split of length m: m - n - T + 1 windows
        b = split_and_window(*hourly_series(100), n=6, horizon=1)
        assert len(b.train.windows) == 70 - 6 - 1 + 1
        assert len(b.val.windows) == 10 - 6 - 1 + 1
        assert len(b.test.windows) == 20 - 6 - 1 + 1

    def test_gap_breaks_windows(self):
        rows = [row(h) for h in range(40)] + [row(h + 12) for h in range(40, 100)]
        c = columns(*rows)
        b = split_and_window(encode(c, ("Clouds",)), c["date_time"], ("Clouds",), n=6, horizon=1)
        # train rows 0..69 split at the gap into runs of 40 and 30
        assert len(b.train.windows) == (40 - 6) + (30 - 6)

    def test_no_window_straddles_split(self):
        b = split_and_window(*hourly_series(100), n=6, horizon=2)
        assert b.train.windows.starts.max() + 6 + 2 <= 70
        assert b.val.windows.starts.min() >= 70
        assert b.val.windows.starts.max() + 6 + 2 <= 80
        assert b.test.windows.starts.min() >= 80

    def test_no_leakage_exhaustive(self):
        b = split_and_window(*hourly_series(120), n=8, horizon=3)
        for name in ("train", "val", "test"):
            ds = getattr(b, name)
            for i, s in enumerate(ds.windows.starts):
                window_times = b.times[s:s + 8]
                assert window_times.max() < ds.target_times[i].min()

    def test_targets_are_volume_column(self):
        b = split_and_window(*hourly_series(100), n=6, horizon=2)
        s = b.train.windows.starts[0]
        np.testing.assert_array_equal(b.train.targets[0], b.series[s + 6:s + 8, -1])

    def test_train_standardized(self):
        features, times, vocab = hourly_series(400)
        b = split_and_window(features, times, vocab, n=6, horizon=1)
        train_rows = b.series[:b.bounds[0]]
        raw_train = features[:b.bounds[0]]
        varying = raw_train.std(axis=0) > 1e-12
        np.testing.assert_allclose(train_rows.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(train_rows[:, varying].std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_guard(self):
        # snow_1h is identically zero here; the guard keeps it finite
        b = split_and_window(*hourly_series(100), n=6, horizon=1)
        assert np.isfinite(b.series).all()
        assert b.stats.std[2] == 1.0

    def test_stats_fit_on_train_only(self):
        features, times, vocab = hourly_series(100)
        b = split_and_window(features, times, vocab, n=6, horizon=1)
        expected = Stats.fit(features[:70])
        np.testing.assert_array_equal(b.stats.mean, expected.mean)
        np.testing.assert_array_equal(b.stats.std, expected.std)

    def test_short_series_rejected(self):
        with pytest.raises(ConfigError):
            split_and_window(*hourly_series(10), n=12, horizon=1)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            split_and_window(*hourly_series(50), n=0, horizon=1)

    def test_deterministic(self):
        b1 = split_and_window(*hourly_series(120), n=6, horizon=1)
        b2 = split_and_window(*hourly_series(120), n=6, horizon=1)
        np.testing.assert_array_equal(b1.train.windows[:], b2.train.windows[:])
        assert b1.data_hash == b2.data_hash


class TestWindows:
    def view(self):
        series = np.random.default_rng(3).normal(size=(50, 4))
        # a gap between rows 19 and 25, as _window_starts leaves one
        starts = np.concatenate([np.arange(0, 14), np.arange(25, 45)])
        return Windows(series, starts, 6), series, starts

    @pytest.mark.parametrize("rows", [
        slice(None), slice(3, 9), slice(30, 99),
        np.random.default_rng(4).permutation(34),
        np.array([0, 5, 13, 14, 33]),
        np.array([], dtype=np.int64),
        slice(5, 5),
    ], ids=["all", "slice", "slice-past-end", "shuffled", "sorted", "empty-array",
            "empty-slice"])
    def test_gather_matches_reference(self, rows):
        w, series, starts = self.view()
        got = w[rows]
        want = series[starts[rows, None] + np.arange(6)]  # the reference gather
        assert got.shape == want.shape and got.shape[1:] == (6, 4)
        np.testing.assert_array_equal(got, want)

    def test_single_int(self):
        w, series, starts = self.view()
        np.testing.assert_array_equal(w[14], series[25:31])
        np.testing.assert_array_equal(w[-1], series[44:50])

    def test_len_and_nbytes(self):
        w, _, starts = self.view()
        assert len(w) == len(starts) == 34
        assert w.nbytes == starts.nbytes

    def test_splits_match_per_start_slices(self):
        b = split_and_window(*hourly_series(120), n=8, horizon=2)
        for name in ("train", "val", "test"):
            ds = getattr(b, name)
            assert len(ds.windows) == len(ds.targets) > 0
            for i, s in enumerate(ds.windows.starts):
                np.testing.assert_array_equal(ds.windows[i], b.series[s:s + 8])

    def test_load_cache_builds_views(self, tmp_path):
        cache = tmp_path / "data.bin"
        save_cache(split_and_window(*hourly_series(120), n=6, horizon=1), cache)
        loaded = load_cache(cache)
        for name in ("train", "val", "test"):
            windows = getattr(loaded, name).windows
            assert isinstance(windows, Windows)
            assert windows.series is loaded.series


class TestDenormalize:
    def test_round_trip(self):
        features, times, vocab = hourly_series(100)
        b = split_and_window(features, times, vocab, n=6, horizon=1)
        raw = features[:20, -1]
        back = denormalize(b.stats.normalize(features[:20])[:, -1], b.stats)
        np.testing.assert_allclose(back, raw, atol=1e-12 * max(1.0, np.abs(raw).max()))

    def test_zero_maps_to_mean(self):
        stats = Stats(mean=np.array([5.0, 100.0]), std=np.array([2.0, 50.0]))
        assert denormalize(0.0, stats) == pytest.approx(100.0)
        assert denormalize(1.0, stats) == pytest.approx(150.0)

    def test_missing_stats(self):
        with pytest.raises(UsageError):
            denormalize(np.zeros(3), None)


class TestPrepare:
    def test_summary_contents(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", hours=120)
        bundle = prepare_dataset(path, n=6, horizon=1)
        s = bundle.summary
        assert s["parsed"] == 120
        assert s["rejected"] == 0
        assert s["split_rows"] == {"train": 84, "val": 12, "test": 24}
        assert s["window_counts"]["train"] == len(bundle.train.windows)
        assert s["feature_count"] == bundle.series.shape[1]

    def test_vocab_from_train_rows_only(self, tmp_path):
        path = tmp_path / "t.csv"
        lines = [HEADER]
        for h in range(100):
            weather = "Mist" if h >= 90 else WEATHER[h % 2]
            lines.append(csv_row(h, weather=weather))
        path.write_text("\n".join(lines) + "\n")
        bundle = prepare_dataset(path, n=6, horizon=1)
        assert "Mist" not in bundle.vocab
        # rows carrying the unseen category encode to an all-zero block
        onehot = bundle.series[90:, 9:9 + len(bundle.vocab)]
        raw_onehot = onehot * bundle.stats.std[9:9 + len(bundle.vocab)] \
            + bundle.stats.mean[9:9 + len(bundle.vocab)]
        np.testing.assert_allclose(raw_onehot, 0.0, atol=1e-9)

    def test_unusable_csv_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "\n")
        with pytest.raises(ConfigError):
            prepare_dataset(path, n=6, horizon=1)


class TestCache:
    def test_round_trip(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", hours=120)
        bundle = prepare_dataset(path, n=6, horizon=1)
        cache = tmp_path / "data.bin"
        save_cache(bundle, cache)
        loaded = load_cache(cache)
        np.testing.assert_array_equal(loaded.train.windows[:], bundle.train.windows[:])
        np.testing.assert_array_equal(loaded.test.targets, bundle.test.targets)
        np.testing.assert_array_equal(loaded.times, bundle.times)
        assert loaded.vocab == bundle.vocab
        assert loaded.data_hash == bundle.data_hash
        assert loaded.summary == bundle.summary
        assert loaded.bounds == bundle.bounds

    def test_byte_identical_rewrite(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", hours=120)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_cache(prepare_dataset(path, n=6, horizon=1), a)
        save_cache(prepare_dataset(path, n=6, horizon=1), b)
        assert a.read_bytes() == b.read_bytes()

    def test_holds_only_the_primary_data(self, tmp_path):
        cache = tmp_path / "data.bin"
        save_cache(split_and_window(*hourly_series(120), n=6, horizon=1), cache)
        arrays, meta = read_blob(cache)
        assert set(arrays) == {"series", "times", "mean", "std"}
        # data_hash stays in the header for readers that skip the payload
        assert set(meta) == {"kind", "window", "horizon", "vocab", "summary", "data_hash"}

    def test_previous_layout_loads_the_same(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", hours=120, gap_after=50)
        bundle = prepare_dataset(path, n=6, horizon=2)
        new, old = tmp_path / "new.bin", tmp_path / "old.bin"
        save_cache(bundle, new)
        write_previous_layout(bundle, old)
        for loaded in (load_cache(new), load_cache(old)):
            assert loaded.bounds == bundle.bounds
            assert loaded.data_hash == bundle.data_hash
            assert loaded.summary == bundle.summary
            for name in SPLITS:
                starts = getattr(loaded, name).windows.starts
                np.testing.assert_array_equal(starts, getattr(bundle, name).windows.starts)
                assert starts.dtype == np.int64
                np.testing.assert_array_equal(getattr(loaded, name).targets,
                                              getattr(bundle, name).targets)
        assert read_blob(old)[1]["data_hash"] == load_cache(old).data_hash

    def test_stale_hash_not_trusted(self, tmp_path):
        cache = tmp_path / "data.bin"
        bundle = split_and_window(*hourly_series(120), n=6, horizon=1)
        save_cache(bundle, cache)
        arrays, meta = read_blob(cache)
        arrays["mean"][-1] += 1000.0  # finite, so only the hash can tell
        write_blob(cache, arrays, meta)
        assert meta["data_hash"] == bundle.data_hash
        assert load_cache(cache).data_hash != bundle.data_hash

    def test_window_longer_than_series_rejected(self, tmp_path):
        cache = tmp_path / "data.bin"
        save_cache(split_and_window(*hourly_series(40), n=6, horizon=1), cache)
        arrays, meta = read_blob(cache)
        write_blob(cache, arrays, {**meta, "window": 40})
        with pytest.raises(SchemaError, match="cannot fit one window of 40\\+1 steps"):
            load_cache(cache)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        write_blob(path, {"x": np.zeros(3)}, {"kind": "something-else"})
        with pytest.raises(SchemaError):
            load_cache(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        from metroflow.serialize import atomic_write, write_blob
        path = tmp_path / "model.bin"
        write_blob(path, {"x": np.ones(3)}, {})
        before = path.read_bytes()
        with pytest.raises(TypeError):  # the second chunk is not bytes
            atomic_write(path, b"half a header", "not bytes")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        write_blob(path, {"x": np.zeros(3)}, {})
        assert path.read_bytes() != before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_write_fsyncs_file_then_directory(self, tmp_path, monkeypatch):
        import os
        import stat
        from metroflow import serialize
        synced = []

        def fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))

        monkeypatch.setattr(serialize.os, "fsync", fsync)
        serialize.atomic_write(tmp_path / "model.bin", b"payload")
        assert synced == [(False, (tmp_path / "model.bin").stat().st_ino),
                          (True, tmp_path.stat().st_ino)]


    def test_write_blob_streams_array_buffers(self, tmp_path):
        import tracemalloc
        from metroflow.serialize import read_blob, write_blob
        series = np.arange(1 << 20, dtype=np.float64)  # an 8 MiB payload
        tracemalloc.start()
        try:
            write_blob(tmp_path / "big.bin", {"series": series}, {"n": 1})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < series.nbytes / 16
        arrays, meta = read_blob(tmp_path / "big.bin")
        np.testing.assert_array_equal(arrays["series"], series)
        assert meta == {"n": 1}

    def test_read_blob_holds_the_payload_once(self, tmp_path):
        import tracemalloc
        from metroflow.serialize import read_blob, write_blob
        series = np.arange(1 << 20, dtype=np.float64)  # an 8 MiB payload
        write_blob(tmp_path / "big.bin", {"a": series[:1000], "series": series}, {"n": 1})
        tracemalloc.start()
        try:
            arrays, _ = read_blob(tmp_path / "big.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * series.nbytes
        np.testing.assert_array_equal(arrays["series"], series)
        np.testing.assert_array_equal(arrays["a"], series[:1000])
        assert arrays["series"].dtype == np.float64 and arrays["series"].flags.writeable

    def test_load_cache_builds_no_window_copy(self, tmp_path):
        import tracemalloc
        cache = tmp_path / "data.bin"
        bundle = split_and_window(*hourly_series(3000), n=24, horizon=1)
        save_cache(bundle, cache)
        tracemalloc.start()
        try:
            loaded = load_cache(cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # materialized windows alone would be about 24 times the series
        assert peak < 3 * loaded.series.nbytes


def write_previous_layout(bundle, path):
    """A cache in the layout that also stored each split's window start rows,
    the split bounds and data_hash."""
    arrays = {"series": bundle.series, "times": bundle.times,
              "mean": bundle.stats.mean, "std": bundle.stats.std,
              **{f"starts_{name}": getattr(bundle, name).windows.starts.astype(np.float64)
                 for name in SPLITS}}
    meta = {"kind": DATASET_FORMAT, "window": bundle.window, "horizon": bundle.horizon,
            "vocab": list(bundle.vocab), "bounds": list(bundle.bounds),
            "summary": bundle.summary, "data_hash": bundle.data_hash}
    write_blob(path, arrays, meta)


def brute_force_starts(times, lo, hi, n, horizon):
    """Every start in [lo, hi - n - horizon] whose n+T span has no long step."""
    return [s for s in range(lo, hi - n - horizon + 1)
            if all(times[j + 1] - times[j] <= MAX_GAP_SECONDS
                   for j in range(s, s + n + horizon - 1))]


class TestWindowRule:
    @pytest.mark.parametrize("seed", range(12))
    def test_starts_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 80))
        # hourly steps with some at, and just past, the six-hour limit
        steps = rng.choice([3600, 7200, MAX_GAP_SECONDS, MAX_GAP_SECONDS + 1, 86400],
                           size=length - 1, p=[0.7, 0.1, 0.1, 0.05, 0.05])
        times = 1.45e9 + np.concatenate(([0], np.cumsum(steps))).astype(np.float64)
        bounds = [(0, length), (length, length), (0, 0), (length // 2, length // 2)]
        bounds += [tuple(sorted(rng.integers(0, length + 1, size=2))) for _ in range(6)]
        for n, horizon in ((1, 1), (3, 2), (6, 1)):
            for lo, hi in bounds:
                got = _window_starts(times, int(lo), int(hi), n, horizon)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(
                    got, brute_force_starts(times, int(lo), int(hi), n, horizon))


class TestHistoryWindow:
    def bundle(self, tmp_path, gap_after=None):
        path = write_csv(tmp_path / "t.csv", hours=60, gap_after=gap_after)
        return prepare_dataset(path, n=6, horizon=1)

    def test_returns_preceding_rows(self, tmp_path):
        bundle = self.bundle(tmp_path)
        rows = np.array([10, 6, 59, 11, 30])
        w = window_before(bundle, rows)
        assert isinstance(w, Windows) and len(w) == len(rows)
        np.testing.assert_array_equal(w[:], np.stack([bundle.series[r - 6:r] for r in rows]))

    def test_insufficient_history(self, tmp_path):
        bundle = self.bundle(tmp_path)
        with pytest.raises(UsageError) as err:
            window_before(bundle, np.array([10, 3, 2]))
        assert str(err.value) == (f"cannot predict {format_time(bundle.times[3])}: need 6 "
                                  "preceding records, only 3 exist before this timestamp")

    def test_gap_refused(self, tmp_path):
        # rows 29 and 30 are 13 hours apart, so rows 30-35 have a gap behind them
        bundle = self.bundle(tmp_path, gap_after=30)
        window_before(bundle, np.array([29, 36]))
        with pytest.raises(UsageError) as err:
            window_before(bundle, np.array([40, 33, 2, 32]))
        assert str(err.value) == (f"cannot predict {format_time(bundle.times[33])}: "
                                  "history window crosses a gap longer than six hours")


class TestTimeHelpers:
    def test_round_trip(self):
        text = "2016-03-05 17:00:00"
        assert format_time(parse_time(text)) == text

    def test_bad_format(self):
        with pytest.raises(UsageError):
            parse_time("05/03/2016")

    @pytest.mark.parametrize("text", ["2016-03-05T17:00:00", "2016-03-05 17:00:00.5",
                                      "2016-03-05 17:00:00+01:00", "2016-03-05 24:00:00"])
    def test_iso_variants_refused(self, text):
        with pytest.raises(UsageError, match="does not match"):
            parse_time(text)

    def test_unpadded_spelling_refused(self):
        # strptime reads it; parse_time takes the CSV's zero-padded width only
        with pytest.raises(UsageError, match="does not match"):
            parse_time("2016-3-5 17:00:00")
