"""Acceptance gate: one test per shipped guarantee.

Each test here is the pass/fail line for one top-level guarantee of the
package.  Checks that need the public Metro Interstate Traffic Volume CSV
skip with an explanation when the file is absent; point METROFLOW_DATA at
it or drop it under data/ to enable them.
"""

import os
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from gradcheck import assert_gradients_match
from metroflow import cli
from metroflow.data import prepare_dataset
from metroflow.layers import AttentionHead, Dense, LstmCell, conv_stack, conv_weights
from metroflow.models import KINDS, ModelSpec, build_model
from metroflow.tensor import Tensor
from metroflow.training import (
    PUBLISHED_REFERENCE,
    Adam,
    ComparisonResult,
    TrainConfig,
    clip_grad_norm,
    metrics,
    mse_loss,
    train,
)
from reference import lstm_step, sigmoid, softmax, tanh

_ENV = os.environ.get("METROFLOW_DATA")
MITV_PATH = (Path(_ENV) if _ENV
             else Path(__file__).resolve().parent.parent / "data"
             / "Metro_Interstate_Traffic_Volume.csv")

needs_dataset = pytest.mark.skipif(
    not MITV_PATH.exists(),
    reason=f"traffic CSV not found at {MITV_PATH}; set METROFLOW_DATA or place "
           "the file there to enable the desk-scale checks",
)


@pytest.fixture(scope="session")
def mitv_prepared():
    """The MITV CSV's ``(bundle, summary)``."""
    return prepare_dataset(MITV_PATH)


def test_gradient_correctness_all_layers():
    """Finite differences agree with backward() for every layer type."""
    started = time.perf_counter()
    instances = 20
    for i in range(instances):
        rng = np.random.default_rng(1000 + i)

        layer = Dense(3, 2, np.random.default_rng(i))
        def fn_dense(w, b, xv, layer=layer):
            layer.W, layer.b = w, b
            out = layer(xv)
            return (out * out).sum()
        assert_gradients_match(
            fn_dense,
            [layer.W.data.copy(), layer.b.data.copy(), rng.uniform(-1, 1, (1, 3))])

        for k in (3, 5, 7):
            W, b = conv_weights(2, 2, k, np.random.default_rng(10 * i + k))
            x = Tensor(rng.uniform(-1, 1, (1, 8, 2)))  # raw windows: no input gradient
            def fn_conv(w, b, x=x):
                out = conv_stack(x, ((w, b),))
                return (out * out).sum()
            assert_gradients_match(fn_conv, [W.data.copy(), b.data.copy()])

        cell = LstmCell(3, 4, np.random.default_rng(i + 50))
        cell_weight = cell.W.data.copy()
        def fn_step(w, xv, hv, cv, cell=cell):
            cell.W = w
            h, c = lstm_step(cell, xv, hv, cv)
            return (h * h).sum() + c.sum()
        assert_gradients_match(
            fn_step,
            [cell_weight, rng.uniform(-1, 1, (1, 3)), rng.uniform(-1, 1, (1, 4)),
             rng.uniform(-1, 1, (1, 4))])

        def fn_unroll(w, seq, cell=cell):
            cell.W = w
            out = cell.unroll(seq)
            return (out * out).sum()
        assert_gradients_match(fn_unroll, [cell_weight, rng.uniform(-1, 1, (1, 8, 3))])

        head = AttentionHead(3, 2, np.random.default_rng(i + 90))
        def fn_attn(w, hv, head=head):
            head.W = w
            out = head(hv)
            return (out * out).sum()
        assert_gradients_match(fn_attn, [head.W.data.copy(), rng.uniform(-1, 1, (1, 5, 3))])

        mix = rng.uniform(-1, 1, 6)
        def fn_softmax(xv, mix=mix):
            return (softmax(xv, axis=-1) * Tensor(mix)).sum()
        assert_gradients_match(fn_softmax, [rng.uniform(-2, 2, 6)])

        assert_gradients_match(lambda xv: (tanh(xv) * tanh(xv)).sum(),
                               [rng.uniform(-2, 2, 6)])
        assert_gradients_match(lambda xv: sigmoid(xv).sum(),
                               [rng.uniform(-2, 2, 6)])

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s, bound is 60s"


def test_metric_identities_bulk():
    """RMSE^2=MSE, MAE<=RMSE, and swap symmetry over 10^4 random pairs."""
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        size = int(rng.integers(1, 33))
        a = rng.normal(0.0, 3.0, size)
        b = rng.normal(0.0, 3.0, size)
        forward = metrics(a, b)
        backward = metrics(b, a)
        assert abs(forward.rmse ** 2 - forward.mse) <= 1e-10
        assert forward.mae <= forward.rmse + 1e-12
        assert forward == backward


def test_overfit_sanity_all_models():
    """Every model memorizes a fixed 32-sample subset (broken backprop check)."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    windows = rng.normal(size=(32, 24, 12))
    targets = rng.normal(size=(32, 1))
    for kind in KINDS:
        spec = ModelSpec(kind=kind, input_features=12, window=24, horizon=1, seed=0)
        model = build_model(spec)
        params = model.parameters()
        optimizer = Adam(params, learning_rate=0.01)
        final = None
        for epoch in range(200):
            loss = mse_loss(model.forward_batch(Tensor(windows)), Tensor(targets))
            final = loss.item()
            if final < 1e-2:
                break
            loss.backward()
            clip_grad_norm(params)
            optimizer.step()
        assert final < 1e-2, f"{kind}: train MSE {final:.4f} after 200 epochs"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"overfit sweep took {elapsed:.1f}s, bound is 300s"


@needs_dataset
def test_desk_scale_full_dataset(mitv_prepared):
    """Default-config training beats the train-mean predictor on every model."""
    bundle, _ = mitv_prepared
    config = TrainConfig()  # 10 epochs, lr 0.001, batch 32
    reports = {kind: train(build_model(ModelSpec(
                   kind=kind, input_features=bundle.input_features,
                   window=bundle.window, horizon=bundle.horizon, seed=0)),
                   bundle, config)
               for kind in KINDS}
    result = ComparisonResult(reports)
    for kind, report in result.reports.items():
        assert report.test.mse < 1.0, f"{kind}: test MSE {report.test.mse:.4f}"
        first, last = report.epochs[0], report.epochs[-1]
        assert last["train_loss"] < first["train_loss"], \
            f"{kind}: loss did not decrease over 10 epochs"
        assert report.elapsed_seconds <= 1800.0, \
            f"{kind}: training took {report.elapsed_seconds:.0f}s, bound is 1800s"
    # published values ride along in the report, agreement not asserted
    payload = result.to_dict()
    assert "not asserted" in payload["note"]
    by_kind = {row["model"]: row["reference"] for row in payload["rows"]}
    assert by_kind == PUBLISHED_REFERENCE


@needs_dataset
def test_pipeline_facts(mitv_prepared):
    """Exact parsed-record count and an exhaustive no-leakage scan."""
    bundle, summary = mitv_prepared
    assert summary["parsed"] == 48205
    for name in ("train", "val", "test"):
        ds = getattr(bundle, name)
        starts = ds.windows.starts
        assert len(starts) > 0
        window_last = bundle.times[starts + bundle.window - 1]
        target_first = ds.target_times[:, 0]
        assert np.all(window_last < target_first), f"{name}: leaking window found"


def test_compare_determinism(tmp_path):
    """Two end-to-end compare runs with one seed emit byte-identical tables."""
    header = ("holiday,temp,rain_1h,snow_1h,clouds_all,weather_main,"
              "weather_description,date_time,traffic_volume")
    start = datetime(2016, 1, 1)
    lines = [header]
    for h in range(200):
        when = start + timedelta(hours=h)
        volume = int(2500 + 1500 * np.sin(2 * np.pi * h / 24))
        lines.append(f"None,{270 + 10 * np.sin(h / 30):.2f},0.0,0.0,{h % 101},"
                     f"{['Clear', 'Clouds', 'Rain'][h % 3]},x,"
                     f"{when:%Y-%m-%d %H:%M:%S},{volume}")
    csv = tmp_path / "traffic.csv"
    csv.write_text("\n".join(lines) + "\n")
    assert cli.main(["prepare", "--csv", str(csv), "--out", str(tmp_path),
                     "--window", "8"]) == 0
    small = ["--epochs", "1", "--hidden-size", "8", "--conv-filters", "4",
             "--d-k", "8", "--seed", "3"]
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli.main(["compare", "--out", str(out), "--data",
                         str(tmp_path / "dataset.bin"), *small]) == 0
    for name in ("comparison.csv", "comparison.txt", "comparison.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), f"{name} differs between runs"
