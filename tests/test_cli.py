"""End-to-end CLI tests: artifacts, exit codes, determinism, schemas.

Commands run in-process through main() so exit codes and artifact bytes
can be asserted directly; one subprocess smoke test covers the installed
entry point.
"""

import json
import re
import subprocess
import sys
from datetime import datetime, timedelta
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from metroflow import cli
from metroflow.data import SPLITS, load_cache
from metroflow.models import PREDICT_BATCH, ForecastModel
from metroflow.serialize import read_blob, write_blob
from reference import serial_predict

HEADER = ("holiday,temp,rain_1h,snow_1h,clouds_all,weather_main,"
          "weather_description,date_time,traffic_volume")
WEATHER = ["Clear", "Clouds", "Rain"]
START = datetime(2016, 1, 1)


def write_csv(path, hours=140, volume_scale=1500):
    lines = [HEADER]
    for h in range(hours):
        when = START + timedelta(hours=h)
        volume = int(2500 + volume_scale * np.sin(2 * np.pi * h / 24)
                     + 300 * (when.weekday() < 5))
        lines.append(f"None,{270 + 10 * np.sin(h / 40):.2f},0.0,0.0,"
                     f"{h % 101},{WEATHER[h % 3]},x,"
                     f"{when:%Y-%m-%d %H:%M:%S},{volume}")
    path.write_text("\n".join(lines) + "\n")
    return path


SMALL = ["--hidden-size", "8", "--conv-filters", "4", "--d-k", "8",
         "--epochs", "1", "--batch", "32"]


def run(*args) -> int:
    return cli.main([str(a) for a in args])


def schema(name: str) -> dict:
    """The JSON schema shipped in ``metroflow/schemas/`` for one artifact."""
    path = resources.files("metroflow.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    csv = write_csv(root / "traffic.csv")
    out = root / "out"
    assert run("prepare", "--csv", csv, "--out", out, "--window", "8") == 0
    assert run("train", "--model", "lstm_attention", "--out", out, *SMALL) == 0
    return {"root": root, "csv": csv, "out": out}


class TestPrepare:
    def test_summary_and_cache(self, workspace):
        out = workspace["out"]
        assert (out / "dataset.bin").exists()
        summary = json.loads((out / "prepare_summary.json").read_text())
        assert summary["parsed"] == 140
        jsonschema.validate(summary, schema("prepare_summary"))

    def test_rerun_byte_identical(self, workspace, tmp_path):
        first = (workspace["out"] / "dataset.bin").read_bytes()
        assert run("prepare", "--csv", workspace["csv"], "--out", tmp_path,
                   "--window", "8") == 0
        assert (tmp_path / "dataset.bin").read_bytes() == first

    def test_missing_file_exit_two(self, tmp_path, capsys):
        code = run("prepare", "--csv", tmp_path / "absent.csv", "--out", tmp_path)
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_overflowing_values_exit_two_without_cache(self, tmp_path, capsys):
        # two finite temperatures of 1e308 overflow the training mean and std
        lines = write_csv(tmp_path / "huge.csv", hours=120).read_text().splitlines()
        for i in (3, 4):
            lines[i] = lines[i].replace(lines[i].split(",")[1], "1e308", 1)
        (tmp_path / "huge.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run("prepare", "--csv", tmp_path / "huge.csv", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "huge.csv" in err and "Traceback" not in err
        assert not (out / "dataset.bin").exists()
        assert not (out / "prepare_summary.json").exists()

    def test_rejects_and_strptime_spellings(self, tmp_path):
        # a row of ten fields, a nan temperature, 2016-02-30 and the unpadded
        # 2016-1-5 3:00:00, which strptime reads, are all rejected
        lines = write_csv(tmp_path / "odd.csv").read_text().splitlines()
        for i, column, value in ((10, 8, "1000,extra"), (20, 1, "nan"),
                                 (30, 7, "2016-02-30 10:00:00"), (100, 7, "2016-1-5 3:00:00")):
            fields = lines[i].split(",")
            fields[column] = value
            lines[i] = ",".join(fields)
        (tmp_path / "odd.csv").write_text("\n".join(lines) + "\n")
        assert run("prepare", "--csv", tmp_path / "odd.csv", "--out", tmp_path,
                   "--window", "8") == 0
        summary = json.loads((tmp_path / "prepare_summary.json").read_text())
        assert summary["rejects"] == [
            {"line": 11, "reason": "expected 9 fields, found 10"},
            {"line": 21, "reason": "non-finite temp"},
            {"line": 31, "reason": "malformed date_time '2016-02-30 10:00:00'"},
            {"line": 101, "reason": "malformed date_time '2016-1-5 3:00:00'"},
        ]
        assert (summary["parsed"], summary["rejected"]) == (136, 4)
        assert summary["cleaning"]["kept"] == 136
        assert summary["cleaning"]["duplicate_timestamps"] == 0

    def test_blocks_of_rows_write_the_same_cache(self, workspace, tmp_path, monkeypatch):
        # 140 rows in blocks of 16, with rejects on the first and last row of
        # a block, write what one block writes
        lines = workspace["csv"].read_text().splitlines()
        for i in (16, 17, 33):
            lines[i] = lines[i].replace(",x,", ",x,y,")
        (tmp_path / "edges.csv").write_text("\n".join(lines) + "\n")
        whole, blocks = tmp_path / "whole", tmp_path / "blocks"
        assert run("prepare", "--csv", tmp_path / "edges.csv", "--out", whole,
                   "--window", "8") == 0
        monkeypatch.setattr("metroflow.data._BLOCK_ROWS", 16)
        assert run("prepare", "--csv", tmp_path / "edges.csv", "--out", blocks,
                   "--window", "8") == 0
        for name in ("dataset.bin", "prepare_summary.json"):
            assert (blocks / name).read_bytes() == (whole / name).read_bytes()
        summary = json.loads((blocks / "prepare_summary.json").read_text())
        assert [r["line"] for r in summary["rejects"]] == [17, 18, 34]

    def test_fields_float_and_int_refuse_rejected(self, tmp_path):
        lines = write_csv(tmp_path / "words.csv").read_text().splitlines()
        for i, column, value in ((5, 2, "n/a"), (6, 8, "12.5")):
            fields = lines[i].split(",")
            fields[column] = value
            lines[i] = ",".join(fields)
        (tmp_path / "words.csv").write_text("\n".join(lines) + "\n")
        assert run("prepare", "--csv", tmp_path / "words.csv", "--out", tmp_path,
                   "--window", "8") == 0
        summary = json.loads((tmp_path / "prepare_summary.json").read_text())
        assert summary["rejects"] == [
            {"line": 6, "reason": "malformed rain_1h 'n/a'"},
            {"line": 7, "reason": "malformed traffic_volume '12.5'"},
        ]

    def test_reject_text_leaves_the_cache_alone(self, workspace, tmp_path):
        # two files that differ only in the text of one rejected temp field
        # write the same cache, and only the summary quotes the field
        lines = workspace["csv"].read_text().splitlines()
        for tag, value in (("a", "n/a"), ("b", "??")):
            fields = lines[40].split(",")
            fields[1] = value
            (tmp_path / f"{tag}.csv").write_text(
                "\n".join([*lines[:40], ",".join(fields), *lines[41:]]) + "\n")
            assert run("prepare", "--csv", tmp_path / f"{tag}.csv", "--out", tmp_path / tag,
                       "--window", "8") == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert (a / "dataset.bin").read_bytes() == (b / "dataset.bin").read_bytes()
        assert ((a / "prepare_summary.json").read_bytes()
                != (b / "prepare_summary.json").read_bytes())
        summary = json.loads((b / "prepare_summary.json").read_text())
        assert summary["rejects"] == [{"line": 41, "reason": "malformed temp '??'"}]

    def test_underscore_and_non_ascii_numbers_rejected(self, tmp_path):
        # float and int read all four as numbers; no CSV writer emits them
        lines = write_csv(tmp_path / "digits.csv").read_text().splitlines()
        for i, column, value in ((5, 1, "2_80"), (6, 1, "٢٨٠"),
                                 (7, 1, "２８０"), (8, 8, "1_000")):
            fields = lines[i].split(",")
            fields[column] = value
            lines[i] = ",".join(fields)
        (tmp_path / "digits.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("prepare", "--csv", tmp_path / "digits.csv", "--out", tmp_path,
                   "--window", "8") == 0
        summary = json.loads((tmp_path / "prepare_summary.json").read_text())
        assert summary["rejects"] == [
            {"line": 6, "reason": "malformed temp '2_80'"},
            {"line": 7, "reason": "malformed temp '٢٨٠'"},
            {"line": 8, "reason": "malformed temp '２８０'"},
            {"line": 9, "reason": "malformed traffic_volume '1_000'"},
        ]

    def test_strptime_spelling_keeps_its_value(self, workspace, tmp_path):
        # strptime reads 2016-1-1 1:00:00 as the stamp it replaces; only the
        # zero-padded width is accepted, so the row is a reject and the cached
        # arrays are the file's without that row
        text = workspace["csv"].read_text()
        assert "2016-01-01 01:00:00" in text
        (tmp_path / "short.csv").write_text(text.replace("2016-01-01 01:00:00",
                                                         "2016-1-1 1:00:00"))
        assert run("prepare", "--csv", tmp_path / "short.csv", "--out", tmp_path / "short",
                   "--window", "8") == 0
        summary = json.loads((tmp_path / "short" / "prepare_summary.json").read_text())
        assert (summary["parsed"], summary["rejected"]) == (139, 1)
        assert summary["rejects"] == [
            {"line": 3, "reason": "malformed date_time '2016-1-1 1:00:00'"}]
        lines = text.splitlines()
        (tmp_path / "dropped.csv").write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        assert run("prepare", "--csv", tmp_path / "dropped.csv", "--out", tmp_path / "dropped",
                   "--window", "8") == 0
        short, _ = read_blob(tmp_path / "short" / "dataset.bin")
        dropped, _ = read_blob(tmp_path / "dropped" / "dataset.bin")
        assert {k: v.tobytes() for k, v in short.items()} == {
            k: v.tobytes() for k, v in dropped.items()}

    def test_no_accepted_rows_exit_two(self, tmp_path, capsys):
        lines = write_csv(tmp_path / "none.csv", hours=20).read_text().splitlines()
        (tmp_path / "none.csv").write_text(
            "\n".join([lines[0], *(line + ",extra" for line in lines[1:])]) + "\n")
        out = tmp_path / "out"
        assert run("prepare", "--csv", tmp_path / "none.csv", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "none.csv" in err
        assert not (out / "dataset.bin").exists()

    def test_byte_order_mark_accepted(self, workspace, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + workspace["csv"].read_bytes())
        assert run("prepare", "--csv", tmp_path / "bom.csv", "--out", tmp_path,
                   "--window", "8") == 0
        assert ((tmp_path / "dataset.bin").read_bytes()
                == (workspace["out"] / "dataset.bin").read_bytes())

    def test_failed_write_exit_one_without_temporary_file(self, workspace, tmp_path, capsys):
        # a directory where the summary goes: os.replace fails, also for root
        out = tmp_path / "out"
        (out / "prepare_summary.json").mkdir(parents=True)
        assert run("prepare", "--csv", workspace["csv"], "--out", out, "--window", "8") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not list(out.glob(".prepare_summary.json.*.tmp"))

    def test_missing_csv_flag(self, tmp_path):
        assert run("prepare", "--out", tmp_path) == 2

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        csv = write_csv(tmp_path / "t.csv", hours=60)
        target = tmp_path / "from_env"
        monkeypatch.setenv("METROFLOW_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert run("prepare", "--csv", csv, "--window", "8") == 0
        assert (target / "dataset.bin").exists()


class TestTrain:
    def test_artifacts(self, workspace):
        out = workspace["out"]
        assert (out / "model_lstm_attention.bin").exists()
        report = json.loads((out / "train_report_lstm_attention.json").read_text())
        jsonschema.validate(report, schema("train_report"))
        assert len(report["epochs"]) == 1
        timing = json.loads((out / "train_timing_lstm_attention.json").read_text())
        jsonschema.validate(timing, schema("timing"))

    def test_same_seed_identical_report(self, workspace, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        data = workspace["out"] / "dataset.bin"
        for out in (out_a, out_b):
            assert run("train", "--model", "lstm_cnn", "--out", out,
                       "--data", data, "--seed", "7", *SMALL) == 0
        name = "train_report_lstm_cnn.json"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_plot_written_and_deterministic(self, workspace, tmp_path):
        data = workspace["out"] / "dataset.bin"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("train", "--model", "lstm_attention", "--out", out,
                       "--data", data, "--plot", *SMALL) == 0
        svg = (out_a / "plot_lstm_attention.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert svg == (out_b / "plot_lstm_attention.svg").read_text()

    def test_plot_of_one_test_window(self, tmp_path):
        # hours 0-76 and 84-91: the 8-hour gap splits the 17 test rows into a
        # run of 9, which holds one window of 8+1 steps, and a run of 8
        lines = write_csv(tmp_path / "gap.csv", hours=92).read_text().splitlines()
        (tmp_path / "gap.csv").write_text("\n".join(lines[:78] + lines[85:]) + "\n")
        out = tmp_path / "out"
        assert run("prepare", "--csv", tmp_path / "gap.csv", "--out", out, "--window", "8") == 0
        summary = json.loads((out / "prepare_summary.json").read_text())
        assert summary["window_counts"]["test"] == 1
        assert run("train", "--model", "mstim", "--out", out, "--plot", *SMALL) == 0
        points = re.findall(r'points="([^"]*)"', (out / "plot_mstim.svg").read_text())
        assert len(points) == 2 and all(len(p.split()) == 1 for p in points)

    def test_missing_dataset_exit_two(self, tmp_path):
        assert run("train", "--model", "mstim", "--out", tmp_path, *SMALL) == 2

    def test_nan_learning_rate_exit_two(self, workspace, tmp_path, capsys):
        assert run("train", "--model", "mstim", "--out", tmp_path,
                   "--data", workspace["out"] / "dataset.bin", *SMALL, "--lr", "nan") == 2
        err = capsys.readouterr().err
        assert err == "error: learning_rate must be a positive finite number, got nan\n"

    def test_truncated_dataset_exit_two(self, workspace, tmp_path, capsys):
        data = tmp_path / "dataset.bin"
        data.write_bytes((workspace["out"] / "dataset.bin").read_bytes()[:-100])
        assert run("train", "--model", "mstim", "--out", tmp_path,
                   "--data", data, *SMALL) == 2
        assert "dataset.bin is truncated" in capsys.readouterr().err

    def test_negative_seed_exit_two(self, workspace, tmp_path, capsys):
        assert run("train", "--model", "mstim", "--out", tmp_path,
                   "--data", workspace["out"] / "dataset.bin", "--seed", "-1", *SMALL) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative int, got -1\n"
        assert not list(tmp_path.iterdir())

    def test_diverged_weights_exit_one_without_artifacts(self, workspace, tmp_path, capsys):
        # one Adam step at lr 1e300 leaves float32 weights whose validation
        # forecasts overflow
        out = tmp_path / "out"
        code = run("train", "--model", "lstm_cnn", "--out", out, "--data",
                   workspace["out"] / "dataset.bin", *SMALL, "--batch", "5000", "--lr", "1e300")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lstm_cnn: model outputs are not finite")
        assert "Traceback" not in err
        assert not (out / "model_lstm_cnn.bin").exists()
        assert not (out / "train_report_lstm_cnn.json").exists()

    def test_diverging_steps_exit_one_naming_the_batch(self, workspace, tmp_path, capsys):
        # at batch 8 the weights overflow within the first epoch; the loss check
        # names the batch rather than a RuntimeWarning escaping from a step
        out = tmp_path / "out"
        code = run("train", "--model", "lstm_cnn", "--out", out, "--data",
                   workspace["out"] / "dataset.bin", *SMALL, "--batch", "8", "--lr", "1e300")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lstm_cnn: non-finite loss") and err.count("\n") == 1
        assert not (out / "model_lstm_cnn.bin").exists()
        assert not (out / "train_report_lstm_cnn.json").exists()

    def test_empty_val_split_exit_two_before_training(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("prepare", "--csv", write_csv(tmp_path / "t.csv", hours=220),
                   "--out", out) == 0
        assert "train=130 val=0 test=20" in capsys.readouterr().out
        assert run("train", "--model", "lstm_cnn", "--out", out, *SMALL) == 2
        assert capsys.readouterr().err == "error: val split is empty\n"
        assert not (out / "model_lstm_cnn.bin").exists()

    def test_out_not_a_directory_exit_two_before_training(self, workspace, tmp_path, monkeypatch,
                                                          capsys):
        # with --data given, nothing else resolves --out before the kinds train
        def refuse(*args, **kwargs):
            raise AssertionError("train ran before --out was checked")

        monkeypatch.setattr(cli, "train", refuse)
        wrong = tmp_path / "wrong"
        wrong.write_text("not a directory\n")
        code = run("compare", "--out", wrong, "--data", workspace["out"] / "dataset.bin", *SMALL)
        assert code == 2
        assert capsys.readouterr().err == f"error: --out {wrong} is not a directory\n"

    def test_runtime_failure_exit_one(self, workspace, tmp_path, monkeypatch):
        from metroflow.errors import NumericError

        def explode(*args, **kwargs):
            raise NumericError("non-finite loss 'nan' at epoch 1, batch 0")

        monkeypatch.setattr(cli, "train", explode)
        code = run("train", "--model", "mstim", "--out", tmp_path,
                   "--data", workspace["out"] / "dataset.bin", *SMALL)
        assert code == 1

    def test_interrupt_exit_130(self, workspace, tmp_path, monkeypatch, capsys):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "train", interrupt)
        code = run("train", "--model", "mstim", "--out", tmp_path,
                   "--data", workspace["out"] / "dataset.bin", *SMALL)
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert not list(tmp_path.glob("model_*.bin"))

    def test_unallocatable_model_exit_one(self, workspace, tmp_path, capsys):
        # numpy refuses the 71.1 PiB LSTM weight at once, before using any memory
        code = run("train", "--model", "mstim", "--out", tmp_path,
                   "--data", workspace["out"] / "dataset.bin", "--hidden-size", "100000000")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not list(tmp_path.glob("model_*.bin"))

    @pytest.mark.parametrize("size", [10**10, 10**20, 10**400], ids=["1e10", "1e20", "1e400"])
    def test_unholdable_model_exit_two(self, workspace, tmp_path, capsys, size):
        # numpy refuses to describe the LSTM weight at all: its bytes pass the
        # address space, a dimension passes numpy's limit, or its Glorot bound
        # passes float's range
        code = run("train", "--model", "mstim", "--out", tmp_path,
                   "--data", workspace["out"] / "dataset.bin", "--hidden-size", str(size))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: no array can hold weights of shape ({size}, ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("model_*.bin"))


class TestConfigFile:
    def test_flags_beat_file_beat_defaults(self, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"epochs": 3, "batch_size": 16,
                                   "hidden_size": 8, "conv_filters": 4, "d_k": 8}))
        out = tmp_path / "out"
        assert run("train", "--model", "lstm_attention", "--out", out,
                   "--data", workspace["out"] / "dataset.bin",
                   "--config", cfg, "--epochs", "1") == 0
        report = json.loads((out / "train_report_lstm_attention.json").read_text())
        assert report["config"]["epochs"] == 1        # flag wins
        assert report["config"]["batch_size"] == 16   # file beats default
        assert report["config"]["learning_rate"] == 0.001  # untouched default

    def test_int_learning_rate_stored_as_float(self, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"learning_rate": 1}))
        name = "train_report_lstm_attention.json"
        for tag, source in (("file", ("--config", cfg)), ("flag", ("--lr", "1"))):
            assert run("train", "--model", "lstm_attention", "--out", tmp_path / tag,
                       "--data", workspace["out"] / "dataset.bin", *source, *SMALL) == 0
        report = (tmp_path / "file" / name).read_bytes()
        assert b'"learning_rate": 1.0' in report
        assert report == (tmp_path / "flag" / name).read_bytes()

    def test_int_past_the_limits_exit_two(self, tmp_path, capsys):
        # 10**400 does not fit a float; 5,000 digits pass str's conversion limit
        for text, reason in (('{"learning_rate": 1%s}' % ("0" * 400), "too large for a float"),
                             ('{"epochs": 1%s}' % ("0" * 5000), "is not valid JSON")):
            cfg = tmp_path / "big.json"
            cfg.write_text(text)
            assert run("train", "--model", "mstim", "--out", tmp_path, "--config", cfg) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1 and reason in err

    def test_unknown_key_exit_two(self, workspace, tmp_path, capsys):
        # "optimizer" names the fixed recipe in train reports but is not a setting
        for key, value in (("epoch", 3), ("optimizer", "adam")):
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({key: value}))
            assert run("train", "--model", "mstim", "--out", tmp_path,
                       "--config", cfg) == 2
            assert f"key {key!r} is not recognized" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        {"epochs": "ten"},
        {"split": "holdout"},
        {"model": "transformer"},
        {"epochs": True},
        {"optimizer": "rmsprop"},  # no longer a key: Adam is fixed, so it is refused
    ], ids=["epochs-str", "split-holdout", "model-transformer", "epochs-bool",
            "optimizer-rmsprop"])
    def test_wrong_type_exit_two(self, workspace, tmp_path, setting):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(setting))
        assert run("train", "--model", "mstim", "--out", tmp_path,
                   "--config", cfg) == 2

    def test_invalid_json_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run("train", "--model", "mstim", "--out", tmp_path,
                   "--config", cfg) == 2

    def test_not_utf8_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.json"
        cfg.write_bytes(b"\xff\xfe" + '{"epochs": 1}'.encode("utf-16-le"))
        assert run("train", "--model", "mstim", "--out", tmp_path,
                   "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "utf16.json" in err and "Traceback" not in err


class TestEvaluate:
    def test_writes_validated_report(self, workspace):
        out = workspace["out"]
        assert run("evaluate", "--model", "lstm_attention", "--out", out,
                   "--split", "test", "--raw") == 0
        payload = json.loads((out / "evaluation_lstm_attention.json").read_text())
        jsonschema.validate(payload, schema("evaluation"))
        assert payload["raw"]["mae"] > payload["standardized"]["mae"]

    def test_metric_identity(self, workspace):
        out = workspace["out"]
        payload = json.loads((out / "evaluation_lstm_attention.json").read_text())
        m = payload["standardized"]
        assert abs(m["rmse"] ** 2 - m["mse"]) <= 1e-10

    def test_truncated_checkpoint_exit_two(self, workspace, tmp_path, capsys):
        blob = (workspace["out"] / "model_lstm_attention.bin").read_bytes()
        checkpoint = tmp_path / "cut.bin"
        checkpoint.write_bytes(blob[:-100])
        assert run("evaluate", "--model", "lstm_attention", "--out", tmp_path,
                   "--checkpoint", checkpoint,
                   "--data", workspace["out"] / "dataset.bin") == 2
        assert "cut.bin is truncated" in capsys.readouterr().err

    def test_missing_checkpoint_exit_two(self, workspace, tmp_path):
        assert run("evaluate", "--model", "cnn_attention", "--out", tmp_path,
                   "--data", workspace["out"] / "dataset.bin") == 2

    def test_rewritten_mean_exit_two(self, workspace, tmp_path, capsys):
        arrays, meta = read_blob(workspace["out"] / "dataset.bin")
        arrays["mean"][-1] += 1000.0  # finite, and the stored data_hash left as it was
        data = tmp_path / "dataset.bin"
        write_blob(data, arrays, meta)
        checkpoint = workspace["out"] / "model_lstm_attention.bin"
        assert run("evaluate", "--model", "lstm_attention", "--out", tmp_path, "--raw",
                   "--checkpoint", checkpoint, "--data", data) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint ") and err.count("\n") == 1
        assert "different prepared dataset" in err
        assert str(checkpoint) in err and str(data) in err

    def test_unallocatable_spec_exit_one(self, workspace, tmp_path, capsys):
        # the forged spec's model is built, and refused by numpy, before any
        # stored shape is compared with it
        arrays, meta = read_blob(workspace["out"] / "model_lstm_attention.bin")
        meta["model_spec"]["hidden_size"] = 100_000_000
        write_blob(tmp_path / "huge.bin", arrays, meta)
        assert run("evaluate", "--model", "lstm_attention", "--out", tmp_path,
                   "--checkpoint", tmp_path / "huge.bin",
                   "--data", workspace["out"] / "dataset.bin") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("size", [10**10, 10**20], ids=["1e10", "1e20"])
    def test_unholdable_spec_exit_two(self, workspace, tmp_path, capsys, size):
        arrays, meta = read_blob(workspace["out"] / "model_lstm_attention.bin")
        meta["model_spec"]["hidden_size"] = size
        write_blob(tmp_path / "huge.bin", arrays, meta)
        assert run("evaluate", "--model", "lstm_attention", "--out", tmp_path,
                   "--checkpoint", tmp_path / "huge.bin",
                   "--data", workspace["out"] / "dataset.bin") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'huge.bin'} has no valid model_spec: "
                              f"no array can hold weights of shape ({size}, ")
        assert err.count("\n") == 1

    def test_times_out_of_order_exit_two(self, workspace, tmp_path, capsys):
        arrays, meta = read_blob(workspace["out"] / "dataset.bin")
        arrays["times"][60:90] = arrays["times"][60:90][::-1].copy()
        data = tmp_path / "shuffled.bin"
        write_blob(data, arrays, meta)
        assert run("evaluate", "--model", "lstm_attention", "--out", tmp_path, "--raw",
                   "--checkpoint", workspace["out"] / "model_lstm_attention.bin",
                   "--data", data) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "shuffled.bin" in err and "times are not strictly increasing" in err

    def test_previous_cache_layout_evaluates(self, workspace, tmp_path):
        # the layout that also stored window start rows, split bounds and the
        # prepare summary
        new = workspace["out"] / "dataset.bin"
        arrays, meta = read_blob(new)
        bundle = load_cache(new)
        arrays.update({f"starts_{name}": getattr(bundle, name).windows.starts.astype(np.float64)
                       for name in SPLITS})
        old = tmp_path / "old.bin"
        summary = json.loads((workspace["out"] / "prepare_summary.json").read_text())
        write_blob(old, arrays, {**meta, "bounds": list(bundle.bounds), "summary": summary})
        checkpoint = workspace["out"] / "model_lstm_attention.bin"
        for tag, data in (("new", new), ("old", old)):
            assert run("evaluate", "--model", "lstm_attention", "--out", tmp_path / tag,
                       "--raw", "--checkpoint", checkpoint, "--data", data) == 0
        name = "evaluation_lstm_attention.json"
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()

    def test_multi_chunk_split_matches_chunk_loop(self, tmp_path, monkeypatch, capsys):
        # a test split of more than one chunk is predicted in concurrent halves
        out = tmp_path / "out"
        assert run("prepare", "--csv", write_csv(tmp_path / "long.csv", hours=1800),
                   "--out", out, "--window", "8") == 0
        assert len(load_cache(out / "dataset.bin").test.windows) > PREDICT_BATCH
        assert run("train", "--model", "mstim", "--out", out, *SMALL) == 0
        arrays, meta = read_blob(out / "model_mstim.bin")
        write_blob(tmp_path / "huge.bin", {name: a * 1e30 for name, a in arrays.items()}, meta)
        capsys.readouterr()
        assert run("evaluate", "--model", "mstim", "--out", tmp_path, "--checkpoint",
                   tmp_path / "huge.bin", "--data", out / "dataset.bin") == 1
        assert capsys.readouterr().err == "error: attention scores contain non-finite values\n"
        assert run("evaluate", "--model", "mstim", "--out", out, "--raw") == 0
        monkeypatch.setattr(ForecastModel, "predict", serial_predict)
        assert run("evaluate", "--model", "mstim", "--out", tmp_path / "loop", "--raw",
                   "--checkpoint", out / "model_mstim.bin", "--data", out / "dataset.bin") == 0
        name = "evaluation_mstim.json"
        assert (tmp_path / "loop" / name).read_bytes() == (out / name).read_bytes()


def _entry(header, name):
    return next(e for e in header["entries"] if e["name"] == name)


#: case -> (edited artifact, edit, text the error holds).  The edit changes the
#: parsed header in place, bytes replace the header line, and a float overwrites
#: every payload value with itself.
CORRUPTIONS = {
    "entry-without-offset": ("checkpoint", lambda h: h["entries"][0].pop("offset"),
                             "has a malformed entry"),
    "shape-not-int": ("checkpoint", lambda h: h["entries"][0].update(shape=["a"]),
                      "has a malformed entry"),
    "entry-not-object": ("checkpoint", lambda h: h["entries"].insert(0, "lstm/W_i"),
                         "has a malformed entry"),
    "negative-shape": ("dataset", lambda h: _entry(h, "times").update(shape=[-1]),
                       "has a malformed entry"),
    "version-2": ("checkpoint", lambda h: h.update(version=2), "version 2, expected"),
    "dataset-header-not-json": ("dataset", b"{not json", "is not a metroflow blob: bad header"),
    "checkpoint-header-not-json": ("checkpoint", b"{not json",
                                   "is not a metroflow blob: bad header"),
    "no-model-spec": ("checkpoint", lambda h: h["meta"].pop("model_spec"),
                      "has no valid model_spec"),
    "unknown-spec-key": ("checkpoint", lambda h: h["meta"]["model_spec"].update(dropout=0.1),
                         "unexpected keyword argument 'dropout'"),
    "no-mean-array": ("dataset", lambda h: h["entries"].remove(_entry(h, "mean")),
                      "malformed dataset cache: missing arrays ['mean']"),
    "no-window-meta": ("dataset", lambda h: h["meta"].pop("window"),
                       "malformed dataset cache: window, horizon or vocab is missing"),
    "times-shape": ("dataset", lambda h: _entry(h, "times").update(shape=[139]),
                    "malformed dataset cache: series, times, mean and std shapes disagree"),
    "window-past-series-end": ("dataset", lambda h: h["meta"].update(window=1000),
                               "malformed dataset cache: series of 140 records cannot fit "
                               "one window of 1000+1 steps"),
    "nan-payload": ("dataset", np.nan, "malformed dataset cache: non-finite values"),
    # every value 1.0: finite, but each time equals the one before it
    "times-not-increasing": ("dataset", 1.0, "times are not strictly increasing"),
    "checkpoint-nan-payload": ("checkpoint", np.nan, "holds non-finite values"),
    # finite as float64, stored as float64, but past float32's range
    "checkpoint-float32-overflow": ("checkpoint", 1e300, "holds non-finite values as float32"),
    "checkpoint-missing-entry": ("checkpoint",
                                 lambda h: h["entries"].remove(_entry(h, "head/b")),
                                 "checkpoint parameters ['head/b'] do not match the spec"),
    "checkpoint-entry-shape": ("checkpoint", lambda h: _entry(h, "head/W").update(shape=[1, 1]),
                               "entry head/W has shape (1, 1), expected (1, 8)"),
    "spec-bool-hidden-size": ("checkpoint",
                              lambda h: h["meta"]["model_spec"].update(hidden_size=True),
                              "hidden_size must be a positive int, got True"),
    "spec-negative-seed": ("checkpoint", lambda h: h["meta"]["model_spec"].update(seed=-1),
                           "seed must be a non-negative int, got -1"),
    # each kernel size names its conv branch's parameters, so a repeat would
    # leave a branch out of the registry
    "spec-repeated-kernel-sizes": ("checkpoint",
                                   lambda h: h["meta"]["model_spec"].update(kernel_sizes=[3, 3]),
                                   "has no valid model_spec: kernel sizes must be distinct"),
    "checkpoint-null-hash": ("checkpoint", lambda h: h["meta"].update(data_hash=None),
                             "has no data_hash string"),
    "checkpoint-no-hash": ("checkpoint", lambda h: h["meta"].pop("data_hash"),
                           "has no data_hash string"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_artifact_exit_two(workspace, tmp_path, capsys, case):
    target, edit, text = CORRUPTIONS[case]
    paths = {"checkpoint": workspace["out"] / "model_lstm_attention.bin",
             "dataset": workspace["out"] / "dataset.bin"}
    for name, src in paths.items():
        blob = src.read_bytes()
        if name == target:
            line, payload = blob.split(b"\n", 1)
            if isinstance(edit, float):
                payload = np.full(len(payload) // 8, edit).tobytes()
            elif isinstance(edit, bytes):
                line = edit
            else:
                header = json.loads(line)
                edit(header)
                line = json.dumps(header).encode()
            blob = line + b"\n" + payload
        paths[name] = tmp_path / src.name
        paths[name].write_bytes(blob)
    code = run("evaluate", "--model", "lstm_attention", "--out", tmp_path,
               "--checkpoint", paths["checkpoint"], "--data", paths["dataset"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert paths[target].name in err and text in err


def test_per_gate_checkpoint_exit_two(workspace, tmp_path, capsys):
    """A checkpoint of the layout that stored the LSTM's four gate weights
    and biases and the attention's three projections as separate entries
    names no ``lstm/W`` or ``attention/W``: it must be retrained."""
    arrays, meta = read_blob(workspace["out"] / "model_lstm_attention.bin")
    lstm, attention = arrays.pop("lstm/W"), arrays.pop("attention/W")
    H, d_k = lstm.shape[0] // 4, attention.shape[1] // 3
    gates = [lstm[k * H:(k + 1) * H] for k in range(4)]
    old = {f"lstm/W_{g}": rows[:, :-1] for g, rows in zip("ifoC", gates)}
    old.update({f"lstm/b_{g}": rows[:, -1] for g, rows in zip("ifoC", gates)})
    old.update({f"attention/W_{p}": attention[:, j * d_k:(j + 1) * d_k]
                for j, p in enumerate("QKV")})
    path = tmp_path / "per_gate.bin"
    write_blob(path, {**old, **arrays}, meta)
    for command, *rest in (("evaluate", "--raw"),
                           ("predict", "--from", "2016-01-05 20:00:00",
                            "--to", "2016-01-05 23:00:00")):
        code = run(command, "--model", "lstm_attention", "--out", tmp_path, "--checkpoint", path,
                   "--data", workspace["out"] / "dataset.bin", *rest)
        err = capsys.readouterr().err
        assert code == 2, command
        assert err.startswith("error:") and err.count("\n") == 1
        assert "per_gate.bin" in err and "do not match the spec" in err


def _wrong_kind_argv(workspace, wrong):
    """flag -> (argv passing ``wrong`` for that flag, with good paths for the rest)"""
    data = workspace["out"] / "dataset.bin"
    checkpoint = workspace["out"] / "model_lstm_attention.bin"
    out = wrong.parent / "out"
    evaluate = ("evaluate", "--model", "lstm_attention")
    return {
        "--config": ("train", "--out", out, "--data", data, "--config", wrong, *SMALL),
        "--data": (*evaluate, "--out", out, "--checkpoint", checkpoint, "--data", wrong),
        "--checkpoint": ("predict", "--model", "lstm_attention", "--out", out,
                         "--checkpoint", wrong, "--data", data,
                         "--from", "2016-01-05 20:00:00", "--to", "2016-01-05 23:00:00"),
        "--csv": ("prepare", "--out", out, "--csv", wrong),
        "--out": (*evaluate, "--out", wrong, "--checkpoint", checkpoint, "--data", data),
    }


@pytest.mark.parametrize("flag", ["--config", "--data", "--checkpoint", "--csv", "--out"])
def test_wrong_kind_path_exit_two(workspace, tmp_path, capsys, flag):
    # a directory where a file is expected; for --out, a file where a directory is
    wrong = tmp_path / "wrong"
    if flag == "--out":
        wrong.write_text("not a directory\n")
    else:
        wrong.mkdir()
    code = run(*_wrong_kind_argv(workspace, wrong)[flag])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {flag} {wrong} is not a ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def compared(workspace, tmp_path_factory):
    """A 1-epoch compare with a config file's ``plot: true``, into a directory
    where a 2-epoch mstim train wrote its files first."""
    out = tmp_path_factory.mktemp("cmp")
    data = workspace["out"] / "dataset.bin"
    assert run("train", "--model", "mstim", "--out", out, "--data", data, "--seed", "5",
               *SMALL, "--epochs", "2") == 0
    cfg = out.parent / "plot.json"
    cfg.write_text('{"plot": true}')
    assert run("compare", "--out", out, "--data", data, "--config", cfg, "--seed", "5",
               *SMALL) == 0
    return out


class TestCompare:
    def test_four_rows_three_metrics(self, compared):
        lines = (compared / "comparison.csv").read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].split(",")[:4] == ["model", "mae", "mse", "rmse"]
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"mstim", "lstm_attention", "cnn_attention", "lstm_cnn"}

    def test_rows_sorted_and_identity(self, compared):
        payload = json.loads((compared / "comparison.json").read_text())
        jsonschema.validate(payload, schema("comparison"))
        maes = [row["ours"]["mae"] for row in payload["rows"]]
        assert maes == sorted(maes)
        for row in payload["rows"]:
            assert abs(row["ours"]["rmse"] ** 2 - row["ours"]["mse"]) <= 1e-10

    def test_reference_column_present(self, compared):
        payload = json.loads((compared / "comparison.json").read_text())
        by_kind = {row["model"]: row for row in payload["rows"]}
        assert by_kind["mstim"]["reference"] == {"mae": 0.2120, "mse": 0.1048,
                                                "rmse": 0.3237}

    def test_per_model_reports(self, compared):
        for kind in ("mstim", "lstm_attention", "cnn_attention", "lstm_cnn"):
            report = json.loads((compared / f"train_report_{kind}.json").read_text())
            jsonschema.validate(report, schema("train_report"))

    def test_repeat_run_byte_identical(self, compared, workspace, tmp_path):
        assert run("compare", "--out", tmp_path, "--data",
                   workspace["out"] / "dataset.bin", "--seed", "5", *SMALL) == 0
        for name in ("comparison.csv", "comparison.txt", "comparison.json"):
            assert (tmp_path / name).read_bytes() == (compared / name).read_bytes()

    def test_evaluate_matches_report_and_table(self, compared, workspace):
        # compare replaces the checkpoint and report of the 2-epoch mstim train
        payload = json.loads((compared / "comparison.json").read_text())
        rows = {row["model"]: row["ours"] for row in payload["rows"]}
        for kind in KINDS:
            assert run("evaluate", "--model", kind, "--out", compared,
                       "--data", workspace["out"] / "dataset.bin") == 0
            evaluation = json.loads((compared / f"evaluation_{kind}.json").read_text())
            report = json.loads((compared / f"train_report_{kind}.json").read_text())
            assert evaluation["standardized"] == report["test"] == rows[kind]
            assert len(report["epochs"]) == 1

    def test_files_match_train(self, compared, workspace, tmp_path):
        assert run("train", "--model", "cnn_attention", "--out", tmp_path, "--plot", "--data",
                   workspace["out"] / "dataset.bin", "--seed", "5", *SMALL) == 0
        for name in ("model_cnn_attention.bin", "train_report_cnn_attention.json",
                     "plot_cnn_attention.svg"):
            assert (tmp_path / name).read_bytes() == (compared / name).read_bytes(), name

    def test_timing_sidecars(self, compared):
        assert not (compared / "timing.json").exists()
        for kind in KINDS:
            timing = json.loads((compared / f"train_timing_{kind}.json").read_text())
            jsonschema.validate(timing, schema("timing"))
            assert set(timing) == {kind}

    def test_diverging_compare_exit_one_without_files(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("compare", "--out", out, "--data", workspace["out"] / "dataset.bin",
                   "--lr", "1e300", *SMALL)
        err = capsys.readouterr().err
        assert code == 1
        # mstim trains first and diverges first; the line names it
        assert err.startswith("error: mstim: ") and err.count("\n") == 1
        assert list(out.glob("*")) == []


class TestPredict:
    def test_rows_for_range(self, workspace, capsys):
        out = workspace["out"]
        code = run("predict", "--model", "lstm_attention", "--out", out,
                   "--from", "2016-01-05 20:00:00", "--to", "2016-01-05 23:00:00")
        assert code == 0
        lines = (out / "predictions.csv").read_text().strip().split("\n")
        assert lines[0] == "timestamp,predicted_volume,actual_volume"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "2016-01-05 20:00:00"
        assert np.isfinite(float(first[1]))
        # actual column recovers the raw integer volume from the source CSV
        hour = 116  # 2016-01-05 20:00 is 116 hours after the series start
        expected = int(2500 + 1500 * np.sin(2 * np.pi * hour / 24) + 300)
        assert float(first[2]) == pytest.approx(expected, abs=1e-6)

    def test_volumes_plausible(self, workspace):
        out = workspace["out"]
        lines = (out / "predictions.csv").read_text().strip().split("\n")[1:]
        for line in lines:
            _, pred, actual = line.split(",")
            assert 0 <= float(actual) <= 10000
            assert -10000 <= float(pred) <= 20000

    def test_insufficient_history_exit_two(self, workspace, capsys):
        code = run("predict", "--model", "lstm_attention",
                   "--out", workspace["out"],
                   "--from", "2016-01-01 00:00:00", "--to", "2016-01-01 02:00:00")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cannot predict 2016-01-01 00:00:00: need 8 preceding records, "
            "only 0 exist before this timestamp\n")

    def test_range_across_gap_exit_two(self, workspace, tmp_path, capsys):
        # drop hours 60-69: 2016-01-03 11:00 and 2016-01-03 22:00 are 11 hours apart
        lines = workspace["csv"].read_text().splitlines()
        csv = tmp_path / "gap.csv"
        csv.write_text("\n".join(lines[:61] + lines[71:]) + "\n")
        assert run("prepare", "--csv", csv, "--out", tmp_path, "--window", "8") == 0
        assert run("train", "--model", "lstm_attention", "--out", tmp_path, *SMALL) == 0
        capsys.readouterr()
        code = run("predict", "--model", "lstm_attention", "--out", tmp_path,
                   "--from", "2016-01-03 20:00:00", "--to", "2016-01-04 12:00:00")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cannot predict 2016-01-03 22:00:00: history window crosses a gap "
            "longer than six hours\n")

    def test_empty_range_exit_two(self, workspace):
        assert run("predict", "--model", "lstm_attention",
                   "--out", workspace["out"],
                   "--from", "2030-01-01 00:00:00", "--to", "2030-01-02 00:00:00") == 2

    def test_bad_timestamp_exit_two(self, workspace):
        assert run("predict", "--model", "lstm_attention",
                   "--out", workspace["out"],
                   "--from", "01/05/2016", "--to", "2016-01-05 23:00:00") == 2

    def test_reversed_range_exit_two(self, workspace):
        assert run("predict", "--model", "lstm_attention",
                   "--out", workspace["out"],
                   "--from", "2016-01-05 23:00:00", "--to", "2016-01-05 20:00:00") == 2

    def test_dataset_mismatch_exit_two(self, workspace, tmp_path, capsys):
        # same shapes, different data -> hash mismatch
        other_csv = write_csv(tmp_path / "other.csv", volume_scale=900)
        assert run("prepare", "--csv", other_csv, "--out", tmp_path,
                   "--window", "8") == 0
        code = run("predict", "--model", "lstm_attention",
                   "--checkpoint", workspace["out"] / "model_lstm_attention.bin",
                   "--data", tmp_path / "dataset.bin", "--out", tmp_path,
                   "--from", "2016-01-05 20:00:00", "--to", "2016-01-05 23:00:00")
        assert code == 2
        assert "different prepared dataset" in capsys.readouterr().err

    def test_shape_mismatch_exit_two(self, workspace, tmp_path):
        assert run("prepare", "--csv", workspace["csv"], "--out", tmp_path,
                   "--window", "10") == 0
        code = run("predict", "--model", "lstm_attention",
                   "--checkpoint", workspace["out"] / "model_lstm_attention.bin",
                   "--data", tmp_path / "dataset.bin", "--out", tmp_path,
                   "--from", "2016-01-05 20:00:00", "--to", "2016-01-05 23:00:00")
        assert code == 2


KINDS = ("mstim", "lstm_attention", "cnn_attention", "lstm_cnn")

#: The CLI's settings surface: config key -> (flag, type, default, choices).
SURFACE = {
    "out": ("--out", str, None, None),
    "csv": ("--csv", str, None, None),
    "data": ("--data", str, None, None),
    "checkpoint": ("--checkpoint", str, None, None),
    "model": ("--model", str, "mstim", KINDS),
    "window": ("--window", int, 24, None),
    "horizon": ("--horizon", int, 1, None),
    "hidden_size": ("--hidden-size", int, 64, None),
    "conv_filters": ("--conv-filters", int, 16, None),
    "d_k": ("--d-k", int, 64, None),
    "epochs": ("--epochs", int, 10, None),
    "learning_rate": ("--lr", float, 0.001, None),
    "batch_size": ("--batch", int, 32, None),
    "seed": ("--seed", int, 0, None),
    "plot": ("--plot", bool, False, None),
    "split": ("--split", str, "test", ("train", "val", "test")),
    "raw": ("--raw", bool, False, None),
    "from_ts": ("--from", str, None, None),
    "to_ts": ("--to", str, None, None),
}


class TestParser:
    def test_settings_surface_pinned(self):
        assert cli.SETTING_TYPES == {k: t for k, (_, t, _, _) in SURFACE.items()}
        defaults = {k: d for k, (_, _, d, _) in SURFACE.items() if d is not None}
        assert cli.DEFAULTS == defaults
        assert all(type(cli.DEFAULTS[k]) is type(v) for k, v in defaults.items())
        choices = {k: c for k, (_, _, _, c) in SURFACE.items() if c is not None}
        assert {k: tuple(c) for k, c in cli._CHOICES.items()} == choices
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        assert set(commands) == {"prepare", "train", "evaluate", "compare", "predict"}
        seen = set()
        for sub in commands.values():
            for action in sub._actions:
                if action.dest in ("help", "config"):
                    continue
                assert action.dest in SURFACE, action.dest
                flag, want_type, _, want_choices = SURFACE[action.dest]
                assert action.option_strings == [flag]
                if want_type is bool:
                    assert action.nargs == 0 and action.default is None
                else:
                    assert (action.type or str) is want_type
                assert (tuple(action.choices) if action.choices else None) == want_choices
                seen.add(action.dest)
        assert seen == set(SURFACE)

    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_unknown_model_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["train", "--model", "transformer"])
        assert err.value.code == 2

    def test_removed_optimizer_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["train", "--optimizer", "sgd"])
        assert err.value.code == 2
        assert "unrecognized arguments: --optimizer sgd" in capsys.readouterr().err

    def test_installed_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "metroflow.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "prepare" in proc.stdout and "compare" in proc.stdout

    def test_runtime_loads_no_scipy(self):
        code = ("import sys, metroflow.cli; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
