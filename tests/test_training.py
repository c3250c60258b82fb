"""Optimizer, loss, metric and training-loop tests.

Oracle values here are direct arithmetic: metrics over two-element vectors,
the sign of Adam's first step, and a quadratic bowl that any sane optimizer
must descend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from types import SimpleNamespace

from metroflow.errors import ConfigError, DimensionError, NumericError, UsageError
from metroflow.models import ModelSpec, build_model
from metroflow.tensor import Tensor
from metroflow.training import (
    Adam,
    Sgd,
    TrainConfig,
    clip_grad_norm,
    compare,
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

    def test_sgd_step(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([2.0])
        Sgd({"w": w}, learning_rate=0.5).step()
        np.testing.assert_allclose(w.data, [0.0])

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
        opt = Adam({"w": w})
        opt.step()
        assert w.grad is None

    def test_missing_grad_is_noop_for_sgd(self):
        w = Tensor([1.0], requires_grad=True)
        Sgd({"w": w}, learning_rate=0.5).step()
        np.testing.assert_allclose(w.data, [1.0])


class TestClip:
    def test_norm_reported_and_untouched_below_limit(self):
        w = Tensor([3.0, 4.0], requires_grad=True)
        w.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm({"w": w}, 10.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(w.grad, [3.0, 4.0])

    def test_scaled_above_limit(self):
        w = Tensor([3.0, 4.0], requires_grad=True)
        w.grad = np.array([3.0, 4.0])
        clip_grad_norm({"w": w}, 1.0)
        assert np.sqrt((w.grad ** 2).sum()) == pytest.approx(1.0)
        # direction preserved
        np.testing.assert_allclose(w.grad / np.abs(w.grad).max(), [0.75, 1.0])

    def test_global_across_params(self):
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        clip_grad_norm({"a": a, "b": b}, 5.0)
        np.testing.assert_allclose(a.grad, [3.0])
        np.testing.assert_allclose(b.grad, [4.0])


class TestConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert c.epochs == 10
        assert c.learning_rate == pytest.approx(0.001)
        assert c.batch_size == 32
        assert c.optimizer == "adam"
        assert c.grad_clip == pytest.approx(5.0)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("learning_rate", 0.0), ("batch_size", -1),
        ("optimizer", "rmsprop"), ("grad_clip", 0.0), ("seed", -1), ("seed", True),
    ])
    def test_validation(self, field, value):
        c = TrainConfig()
        setattr(c, field, value)
        with pytest.raises(ConfigError):
            c.validate()


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

    def test_empty_split_rejected(self):
        data = toy_datasets(n_train=0)
        with pytest.raises(UsageError):
            train(build_model(small_spec("lstm_attention")), data,
                  TrainConfig(epochs=1))

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


class TestCompare:
    def test_sorted_by_mae_and_reports_present(self):
        data = toy_datasets()
        specs = [small_spec("lstm_attention"), small_spec("lstm_cnn")]
        result = compare(specs, data, TrainConfig(epochs=1, batch_size=4))
        maes = [r.ours.mae for r in result.rows]
        assert maes == sorted(maes)
        assert set(result.reports) == {"lstm_attention", "lstm_cnn"}

    def test_reference_attached_when_known(self):
        data = toy_datasets()
        result = compare([small_spec("mstim")], data, TrainConfig(epochs=1, batch_size=4))
        assert result.rows[0].reference == {"mae": 0.2120, "mse": 0.1048, "rmse": 0.3237}
        assert "not asserted" in result.note

    def test_csv_shape(self):
        data = toy_datasets()
        result = compare([small_spec("lstm_cnn")], data, TrainConfig(epochs=1, batch_size=4))
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "model,mae,mse,rmse,reference_mae,reference_mse,reference_rmse"
        assert len(lines) == 2
        assert lines[1].startswith("lstm_cnn,")

    def test_empty_specs_rejected(self):
        with pytest.raises(UsageError):
            compare([], toy_datasets(), TrainConfig())

    def test_same_kind_different_seeds(self):
        data = toy_datasets()
        specs = [small_spec("lstm_attention"),
                 ModelSpec.from_dict({**small_spec("lstm_attention").to_dict(),
                                      "seed": 11})]
        result = compare(specs, data, TrainConfig(epochs=1, batch_size=4))
        assert set(result.reports) == {"lstm_attention#1", "lstm_attention#2"}
        a, b = (result.reports[k].test for k in sorted(result.reports))
        assert np.isfinite([a.mae, b.mae]).all()
        assert a.mae != b.mae

    def test_timing_excluded_from_dict_by_default(self):
        data = toy_datasets()
        result = compare([small_spec("lstm_cnn")], data, TrainConfig(epochs=1, batch_size=4))
        d = result.to_dict()
        assert "elapsed_seconds" not in d["reports"]["lstm_cnn"]
