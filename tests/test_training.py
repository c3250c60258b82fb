"""Optimizer, loss, metric and training-loop tests.

Oracle values here are direct arithmetic: metrics over two-element vectors,
the sign of Adam's first step, and a quadratic bowl that any sane optimizer
must descend.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from types import SimpleNamespace

from metroflow.data import SPLITS, Windows, split_and_window
from metroflow.errors import ConfigError, DimensionError, NumericError, UsageError
from metroflow.models import KINDS, ModelSpec, build_model
from metroflow.tensor import Tensor
from metroflow.training import (
    GRAD_CLIP,
    Adam,
    ComparisonResult,
    MetricTriple,
    TrainConfig,
    TrainReport,
    clip_grad_norm,
    metrics,
    mse_loss,
    train,
)


def toy_datasets(n_train=8, n_val=4, n_test=4, window=8, features=5, horizon=1, seed=0):
    rng = np.random.default_rng(seed)

    def split(n):
        return SimpleNamespace(
            windows=rng.normal(size=(n, window, features)),
            targets=rng.normal(size=(n, horizon)),
        )

    return SimpleNamespace(train=split(n_train), val=split(n_val), test=split(n_test))


class TestMetrics:
    def test_worked_example(self):
        m = metrics([2.0, 4.0], [1.0, 2.0])
        assert m.mae == pytest.approx(1.5)
        assert m.mse == pytest.approx(2.5)
        assert m.rmse == pytest.approx(np.sqrt(2.5))

    def test_perfect_prediction(self):
        m = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.mae == 0.0 and m.mse == 0.0 and m.rmse == 0.0

    def test_mse_loss_value(self):
        loss = mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 3.0]))
        assert loss.item() == pytest.approx(5.0)

    def test_mse_loss_gradient(self):
        pred = Tensor([1.0, 2.0], requires_grad=True)
        mse_loss(pred, Tensor([0.0, 0.0])).backward()
        # d/dp mean(p^2) = 2p/n
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            metrics([1.0, 2.0], [1.0])
        with pytest.raises(DimensionError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            metrics([], [])

    def test_overflow_rejected(self):
        with pytest.raises(NumericError, match="not finite"):
            metrics([1e200], [0.0])

    def test_identities_bulk(self):
        # RMSE^2 == MSE and MAE <= RMSE over many random pairs
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            m = metrics(rng.normal(size=n) * 10, rng.normal(size=n) * 10)
            assert abs(m.rmse ** 2 - m.mse) <= 1e-10
            assert m.mae <= m.rmse + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=32),
           st.integers(0, 2 ** 32 - 1))
    def test_identities_property(self, values, seed):
        rng = np.random.default_rng(seed)
        pred = np.array(values)
        target = pred + rng.normal(size=pred.shape)
        m = metrics(pred, target)
        assert abs(m.rmse ** 2 - m.mse) <= 1e-10 * max(1.0, m.mse)
        assert m.mae <= m.rmse + 1e-12


class TestOptimizers:
    def test_adam_first_step_sign(self):
        # With zero state the bias-corrected first update is lr * sign(g)
        w = Tensor([2.0, -3.0], requires_grad=True)
        w.grad = np.array([0.5, -4.0])
        Adam({"w": w}, learning_rate=0.1).step()
        np.testing.assert_allclose(w.data, [2.0 - 0.1, -3.0 + 0.1], atol=1e-6)

    def test_adam_quadratic_convergence(self):
        w = Tensor(0.0, requires_grad=True)
        opt = Adam({"w": w}, learning_rate=0.1)
        for _ in range(500):
            diff = w - Tensor(3.0)
            (diff * diff).backward()
            opt.step()
        assert abs(w.item() - 3.0) < 1e-2

    def test_zero_gradient_advances_counter_only(self):
        w = Tensor([2.0, -1.0], requires_grad=True)
        w.grad = np.zeros(2)
        opt = Adam({"w": w}, learning_rate=0.1)
        opt.step()
        np.testing.assert_array_equal(w.data, [2.0, -1.0])
        assert opt.t == 1

    def test_step_clears_gradients(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([1.0])
        opt = Adam({"w": w}, learning_rate=0.1)
        opt.step()
        assert w.grad is None

    def test_adam_keeps_float32_parameters_float32(self):
        w = Tensor(np.array([2.0, -3.0], np.float32), requires_grad=True)
        opt = Adam({"w": w}, learning_rate=0.1)
        for grad in (np.array([0.5, -4.0], np.float32), None):
            w.grad = grad
            opt.step()
            assert w.data.dtype == np.float32
            assert opt.m["w"].dtype == opt.v["w"].dtype == np.float32


class TestClip:
    """The clip is to ``GRAD_CLIP``, 5.0."""

    def test_norm_reported_and_untouched_below_limit(self):
        for grad in ([0.3, 0.4], [3.0, 4.0]):  # norms 0.5 and 5.0: at the limit is not above it
            w = Tensor([3.0, 4.0], requires_grad=True)
            w.grad = np.array(grad)
            norm = clip_grad_norm({"w": w})
            assert norm == pytest.approx(np.hypot(*grad))
            np.testing.assert_allclose(w.grad, grad)

    def test_scaled_above_limit(self):
        w = Tensor([3.0, 4.0], requires_grad=True)
        w.grad = np.array([30.0, 40.0])
        assert clip_grad_norm({"w": w}) == pytest.approx(50.0)
        assert np.hypot(*w.grad) == pytest.approx(GRAD_CLIP)
        # direction preserved
        np.testing.assert_allclose(w.grad, [3.0, 4.0])

    def test_global_across_params(self):
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        clip_grad_norm({"a": a, "b": b})
        np.testing.assert_allclose(a.grad, [3.0])
        np.testing.assert_allclose(b.grad, [4.0])

    def test_float32_gradients_stay_float32(self):
        # the norm sums in float64: 1e20 squared overflows float32 but not the sum
        a = Tensor(np.zeros(2, np.float32), requires_grad=True)
        a.grad = np.array([3e20, 4e20], np.float32)
        norm = clip_grad_norm({"a": a})
        assert norm == pytest.approx(5e20, rel=1e-6)
        assert a.grad.dtype == np.float32
        np.testing.assert_allclose(a.grad, [3.0, 4.0], rtol=1e-6)


class TestConfig:
    def test_defaults(self):
        # the four settings, then the fixed recipe every train report records
        assert TrainConfig().to_dict() == {
            "epochs": 10, "learning_rate": 0.001, "batch_size": 32, "seed": 0,
            "optimizer": "adam", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
            "grad_clip": 5.0, "shuffle": True,
        }

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("learning_rate", 0.0), ("batch_size", -1),
        ("seed", -1), ("seed", True),
        ("epochs", True), ("batch_size", True), ("epochs", 2.5), ("batch_size", 4.0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", True),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})

    def test_frozen_and_rechecked_on_replace(self):
        config = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.epochs = 0
        with pytest.raises(ConfigError, match="^epochs must be a positive int, got 0$"):
            dataclasses.replace(config, epochs=0)


def small_spec(kind):
    return ModelSpec(kind=kind, input_features=5, window=8, horizon=1,
                     hidden_size=6, conv_filters=4, d_k=6, seed=3)


class TestTrainLoop:
    def test_loss_decreases(self):
        data = toy_datasets()
        model = build_model(small_spec("lstm_attention"))
        report = train(model, data, TrainConfig(epochs=5, batch_size=4, seed=1))
        assert report.epochs[-1]["train_loss"] < report.epochs[0]["train_loss"]
        assert len(report.epochs) == 5
        assert report.test is not None

    def test_deterministic_given_seed(self):
        data = toy_datasets()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=9)
        r1 = train(build_model(small_spec("lstm_cnn")), data, cfg)
        r2 = train(build_model(small_spec("lstm_cnn")), data, cfg)
        assert r1.to_dict() == r2.to_dict()

    def test_last_short_batch_trains(self):
        # 10 samples, batch 4 -> batches of 4, 4, 2; weighted epoch loss
        data = toy_datasets(n_train=10)
        model = build_model(small_spec("lstm_attention"))
        report = train(model, data, TrainConfig(epochs=1, batch_size=4, seed=0))
        assert np.isfinite(report.epochs[0]["train_loss"])

    @pytest.mark.parametrize("split", SPLITS)
    def test_empty_split_rejected(self, split):
        data = toy_datasets(**{f"n_{split}": 0})
        model = build_model(small_spec("lstm_attention"))
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        with pytest.raises(UsageError, match=f"^{split} split is empty$"):
            train(model, data, TrainConfig(epochs=1))
        for name, p in model.parameters().items():
            assert (p.data == before[name]).all(), f"{name} changed before the check"

    def test_nonfinite_loss_aborts(self):
        data = toy_datasets()
        model = build_model(small_spec("lstm_attention"))
        model.parameters()["head/W"].data[:] = np.nan
        with pytest.raises(NumericError) as err:
            train(model, data, TrainConfig(epochs=1, batch_size=4))
        assert "epoch 1" in str(err.value)

    def test_invalid_config_rejected_before_work(self):
        with pytest.raises(ConfigError):
            train(build_model(small_spec("lstm_attention")), toy_datasets(),
                  TrainConfig(epochs=0))

    @pytest.mark.parametrize("kind", ["mstim", "lstm_cnn"])
    def test_window_views_train_like_materialized_arrays(self, kind):
        # the CLI trains on Windows views; the benchmark's train slice holds
        # ndarrays: both must be one program with one result
        rng = np.random.default_rng(8)
        times = np.arange(160) * 3600.0
        times[70:] += 12 * 3600.0  # a gap the window starts skip
        bundle = split_and_window(rng.normal(size=(160, 5)), times, (), n=8, horizon=1)
        assert isinstance(bundle.train.windows, Windows)

        def materialize(ds):
            return dataclasses.replace(ds, windows=ds.windows[:])

        materialized = dataclasses.replace(
            bundle, train=materialize(bundle.train), val=materialize(bundle.val),
            test=materialize(bundle.test))
        cfg = TrainConfig(epochs=2, batch_size=8, seed=5)
        reports = [json.dumps(train(build_model(small_spec(kind)), data, cfg).to_dict(),
                              sort_keys=True)
                   for data in (bundle, materialized)]
        assert reports[0] == reports[1]


#: 30 Adam steps of mstim at the paper's shapes, in float32 as ``train`` runs
#: them; prints a digest of the weight bytes.
ADAM_RUN = """
import hashlib
import numpy as np
from metroflow import ModelSpec, Tensor, build_model
from metroflow.training import Adam, clip_grad_norm, mse_loss

model = build_model(ModelSpec(kind="mstim", input_features=21, seed=4))
params = model.parameters()
optimizer = Adam(params, 0.001)
rng = np.random.default_rng(5)
for _ in range(30):
    loss = mse_loss(model.forward_batch(Tensor(rng.standard_normal((32, 24, 21), np.float32))),
                    Tensor(rng.standard_normal((32, 1), np.float32)))
    loss.backward()
    clip_grad_norm(params)
    optimizer.step()
assert all(p.data.dtype == np.float32 for p in params.values())
digest = hashlib.sha256()
for name in sorted(params):
    digest.update(params[name].data.tobytes())
print(digest.hexdigest())
"""


def test_weights_independent_of_blas_threads():
    """One and two BLAS threads train mstim to the same weight bytes, so the
    program needs no thread default."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", ADAM_RUN], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


def trained_reports(*kinds):
    """kind -> TrainReport of one epoch on the toy splits."""
    data = toy_datasets()
    return {kind: train(build_model(small_spec(kind)), data, TrainConfig(epochs=1, batch_size=4))
            for kind in kinds}


class TestCompare:
    def test_sorted_by_mae_and_reports_present(self):
        result = ComparisonResult(trained_reports("lstm_attention", "lstm_cnn"))
        maes = [ours.mae for _, ours, _ in result.rows]
        assert maes == sorted(maes)
        assert set(result.reports) == {"lstm_attention", "lstm_cnn"}

    def test_equal_mae_rows_in_kinds_order(self):
        same = MetricTriple(mae=0.5, mse=0.25, rmse=0.5)
        reports = {kind: TrainReport(model_kind=kind, seed=0, config={}, epochs=[], test=same,
                                     elapsed_seconds=0.0)
                   for kind in reversed(KINDS)}
        assert [kind for kind, _, _ in ComparisonResult(reports).rows] == list(KINDS)

    def test_reference_attached_when_known(self):
        result = ComparisonResult(trained_reports("mstim"))
        payload = result.to_dict()
        assert payload["rows"][0]["reference"] == {"mae": 0.2120, "mse": 0.1048, "rmse": 0.3237}
        assert "not asserted" in payload["note"]

    def test_csv_shape(self):
        result = ComparisonResult(trained_reports("lstm_cnn"))
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "model,mae,mse,rmse,reference_mae,reference_mse,reference_rmse"
        assert len(lines) == 2
        assert lines[1].startswith("lstm_cnn,")

    def test_timing_excluded_from_dict_by_default(self):
        d = ComparisonResult(trained_reports("lstm_cnn")).to_dict()
        assert "elapsed_seconds" not in d["reports"]["lstm_cnn"]
