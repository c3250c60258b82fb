import re
import warnings

import numpy as np
import pytest

import test_layers
from gradcheck import assert_gradients_match
from metroflow import models
from metroflow.errors import (CompatibilityError, ConfigError, DimensionError, NumericError,
                              SchemaError)
from metroflow.models import KINDS, ForecastModel, ModelSpec, build_model
from metroflow.serialize import read_blob, write_blob
from metroflow.tensor import Tensor, no_grad
from metroflow.training import mse_loss

loop_reference = test_layers.TestConv1d.loop_reference


def small_spec(kind, **overrides):
    base = dict(kind=kind, input_features=5, window=8, horizon=1, hidden_size=6,
                conv_filters=4, kernel_sizes=(3, 5, 7), d_k=6, seed=0)
    base.update(overrides)
    return ModelSpec(**base)


def float64(model):
    """``model`` with every parameter cast to float64: the model the 1e-12
    references and the finite-difference oracle check, run by the same code."""
    for p in model.parameters().values():
        p.data = p.data.astype(np.float64)
    return model


def closed_form(spec):
    # independent restatement of the counting oracle
    d, h, f, dk, t = (spec.input_features, spec.hidden_size, spec.conv_filters,
                      spec.d_k, spec.horizon)
    conv = sum(f * d * k + f for k in spec.kernel_sizes)
    c = len(spec.kernel_sizes) * f
    lstm = {"mstim": 4 * (h * (h + c) + h), "lstm_attention": 4 * (h * (h + d) + h),
            "cnn_attention": 0, "lstm_cnn": 4 * (h * (h + c) + h)}[spec.kind]
    attn = {"mstim": 3 * h * dk, "lstm_attention": 3 * h * dk,
            "cnn_attention": 3 * c * dk, "lstm_cnn": 0}[spec.kind]
    head = {"lstm_cnn": t * h + t}.get(spec.kind, t * dk + t)
    convs = conv if spec.kind != "lstm_attention" else 0
    return convs + lstm + attn + head


class TestBuild:
    def test_default_mstim_paper_scale(self):
        spec = ModelSpec(kind="mstim", input_features=7, window=24, hidden_size=64,
                         conv_filters=16, d_k=64, horizon=1)
        model = build_model(spec)
        total = sum(p.size for p in model.parameters().values())
        assert total == closed_form(spec)

    @pytest.mark.parametrize("kind", KINDS)
    def test_param_count_matches_closed_form(self, kind):
        spec = small_spec(kind)
        model = build_model(spec)
        total = sum(p.size for p in model.parameters().values())
        assert total == closed_form(spec)

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_bit_identical(self, kind):
        a = build_model(small_spec(kind, seed=123))
        b = build_model(small_spec(kind, seed=123))
        for name, p in a.parameters().items():
            assert (p.data == b.parameters()[name].data).all(), name

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            small_spec("mstim", kernel_sizes=(4,))

    def test_repeated_kernel_sizes_rejected(self):
        # both branches would register as conv3/*, and the first would train
        # and save nothing
        with pytest.raises(ConfigError, match=re.escape("distinct, got (3, 3)")):
            ModelSpec(kind="mstim", input_features=21, kernel_sizes=(3, 3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ModelSpec(kind="transformer", input_features=3)

    def test_window_shorter_than_kernel_builds(self):
        # the conv pads (K - 1) / 2 rows on each side, so a window shorter
        # than the widest kernel is fine, and kinds without a conv never care
        windows = np.random.default_rng(37).standard_normal((2, 5, 5))
        for kind in KINDS:
            preds = build_model(small_spec(kind, window=5)).predict(windows)
            assert preds.shape == (2, 1) and np.isfinite(preds).all(), kind

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ConfigError, match="hidden_size"):
            small_spec("mstim", hidden_size=0)

    @pytest.mark.parametrize("field,value", [
        ("input_features", True), ("hidden_size", True), ("kernel_sizes", (True,)),
        ("seed", -1), ("seed", False), ("seed", 1.0),
    ])
    def test_bool_ints_and_bad_seeds_rejected(self, field, value):
        with pytest.raises(ConfigError, match="seed" if field == "seed" else None):
            small_spec("mstim", **{field: value})

    def test_spec_roundtrip(self):
        spec = small_spec("cnn_attention", seed=9)
        assert ModelSpec(**spec.to_dict()) == spec


class TestForward:
    @pytest.mark.parametrize("kind", KINDS)
    def test_output_shape(self, kind):
        for horizon in (1, 6):
            model = build_model(small_spec(kind, horizon=horizon))
            out = model.forward_batch(np.zeros((1, 8, 5)))
            assert out.shape == (1, horizon)

    def test_zero_head_outputs_bias(self):
        model = build_model(small_spec("mstim", horizon=3))
        model.head.W.data[...] = 0.0
        model.head.b.data[...] = [1.0, 2.0, 3.0]
        out = model.forward_batch(np.random.default_rng(0).uniform(-1, 1, (1, 8, 5)))
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]], atol=1e-12)

    def test_window_shape_mismatch(self):
        model = build_model(small_spec("mstim"))
        with pytest.raises(DimensionError):
            model.forward_batch(np.zeros((1, 8, 4)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_dead_branch(self, kind):
        model = build_model(small_spec(kind, seed=3))
        rng = np.random.default_rng(4)
        window = Tensor(rng.standard_normal((1, 8, 5)))
        target = Tensor(rng.standard_normal((1, 1)))
        loss = mse_loss(model.forward_batch(window), target)
        loss.backward()
        for name, p in model.parameters().items():
            assert p.grad is not None, f"{name} got no gradient"
            assert np.abs(p.grad).max() > 0, f"{name} gradient is identically zero"

    @pytest.mark.parametrize("kind", KINDS)
    def test_finite_outputs_on_random_windows(self, kind):
        model = build_model(small_spec(kind, seed=5))
        rng = np.random.default_rng(6)
        windows = rng.standard_normal((50, 8, 5))
        preds = model.predict(windows)
        assert np.isfinite(preds).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_overflowing_outputs_raise_numeric_error(self, kind):
        model = build_model(small_spec(kind, seed=5))
        for p in model.parameters().values():
            p.data[...] = np.finfo(p.data.dtype).max / 2
        windows = np.random.default_rng(6).standard_normal((3, 8, 5))
        with pytest.raises(NumericError, match="finite"):
            model.predict(windows)


class TestMultiScale:
    """``_multi_scale`` is one node; the explicit-loop conv is its reference, branch by branch."""

    @pytest.mark.parametrize("batch", [3, 32])
    @pytest.mark.parametrize("kernels", [(3, 5, 7), (1, 5)])
    def test_matches_branch_chain(self, batch, kernels):
        model = float64(build_model(small_spec("cnn_attention", kernel_sizes=kernels, seed=15)))
        rng = np.random.default_rng(16)
        for _, b in model.convs:
            b.data[...] = rng.normal(size=b.shape)
        x = Tensor(rng.normal(size=(batch, 8, 5)))
        upstream = rng.normal(size=(batch, 8, 4 * len(kernels)))
        out = model._multi_scale(x)
        (out * Tensor(upstream)).sum().backward()
        for j, (W, b) in enumerate(model.convs):
            cols = slice(4 * j, 4 * (j + 1))
            y, dw, db = loop_reference(x.data, W.data, b.data, upstream[..., cols])
            for got, want in ((out.data[..., cols], y), (W.grad, dw), (b.grad, db)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_gradients(self):
        model = float64(build_model(small_spec("cnn_attention", kernel_sizes=(1, 3),
                                               conv_filters=2, seed=17)))
        rng = np.random.default_rng(18)
        x = Tensor(rng.uniform(-1, 1, (2, 8, 5)))
        weights = Tensor(rng.normal(size=(2, 8, 4)))
        arrays = []
        for W, b in model.convs:
            arrays += [W.data.copy(), rng.normal(size=b.shape)]

        def fn(*params):
            model.convs = list(zip(params[::2], params[1::2]))
            out = model._multi_scale(x)
            return (out * out * weights).sum()

        assert_gradients_match(fn, arrays)

    def test_one_node(self):
        model = build_model(small_spec("mstim"))
        x = Tensor(np.ones((2, 8, 5)))
        out = model._multi_scale(x)
        assert out._parents == tuple(p for W, b in model.convs for p in (W, b))
        out.sum().backward()
        assert x.grad is None


class TestBatch:
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_matches_loop(self, kind):
        model = float64(build_model(small_spec(kind, seed=7)))
        rng = np.random.default_rng(8)
        windows = rng.standard_normal((32, 8, 5))
        batched = model.forward_batch(Tensor(windows)).data
        for i in range(32):
            single = model.forward_batch(Tensor(windows[i:i + 1])).data
            np.testing.assert_allclose(batched[i], single[0], atol=1e-12, rtol=0)

    def test_single_row_batch(self):
        model = float64(build_model(small_spec("lstm_cnn", seed=9)))
        w = np.random.default_rng(10).standard_normal((1, 8, 5))
        np.testing.assert_allclose(model.forward_batch(Tensor(w)).data, model.predict(w),
                                   atol=1e-12)

    def test_shuffled_batch_shuffles_outputs(self):
        model = build_model(small_spec("cnn_attention", seed=11))
        rng = np.random.default_rng(12)
        windows = rng.standard_normal((10, 8, 5))
        perm = rng.permutation(10)
        base = model.forward_batch(Tensor(windows)).data
        shuffled = model.forward_batch(Tensor(windows[perm])).data
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_grad_no_grad_and_predict_bit_identical(self, kind):
        model = build_model(ModelSpec(kind=kind, input_features=5, seed=22))
        rng = np.random.default_rng(23)
        for batch in (1, 32, 256):
            windows = rng.standard_normal((batch, 24, 5))
            recorded = model.forward_batch(Tensor(windows))
            assert recorded.requires_grad
            with no_grad():
                plain = model.forward_batch(Tensor(windows)).data
            assert (recorded.data == plain).all()
            assert (model.predict(windows) == plain).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_seed_determinism_end_to_end(self, kind):
        rng = np.random.default_rng(13)
        windows = rng.standard_normal((4, 8, 5))
        a = build_model(small_spec(kind, seed=21)).predict(windows)
        b = build_model(small_spec(kind, seed=21)).predict(windows)
        assert (a == b).all()


    def test_mstim_step_graph_nodes(self):
        """Nodes reachable from one B=32 training loss, walked as perfbench does;
        the raw windows are not one, as ``conv_stack`` takes its input as data."""
        model = build_model(small_spec("mstim"))
        rng = np.random.default_rng(14)
        loss = mse_loss(model.forward_batch(Tensor(rng.standard_normal((32, 8, 5)))),
                        Tensor(rng.standard_normal((32, 1))))
        seen, todo = set(), [loss]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                todo.extend(node._parents)
        assert len(seen) == 22


class TestCheckpoint:
    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip_bit_exact(self, kind, tmp_path):
        model = build_model(small_spec(kind, seed=31))
        path = tmp_path / "model.bin"
        model.save(path, data_hash="abc123")
        loaded, meta = ForecastModel.load(path)
        assert meta["data_hash"] == "abc123"
        assert loaded.spec == model.spec
        for name, p in model.parameters().items():
            assert (p.data == loaded.parameters()[name].data).all(), name

    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = build_model(small_spec("mstim", seed=32))
        windows = np.random.default_rng(33).standard_normal((3, 8, 5))
        before = model.predict(windows)
        model.save(tmp_path / "m.bin", data_hash="abc123")
        loaded, _ = ForecastModel.load(tmp_path / "m.bin")
        assert (loaded.predict(windows) == before).all()

    def test_mismatched_params_rejected(self, tmp_path):
        model = build_model(small_spec("lstm_attention", seed=34))
        path = tmp_path / "m.bin"
        model.save(path, data_hash="abc123")
        arrays, meta = read_blob(path)
        arrays.pop("head/b")
        write_blob(path, arrays, meta)
        with pytest.raises(CompatibilityError):
            ForecastModel.load(path)

    def test_entry_finite_only_as_float64_rejected(self, tmp_path):
        # 1e300 is finite as float64 but overflows float32
        path = tmp_path / "m.bin"
        build_model(small_spec("lstm_cnn", seed=35)).save(path, data_hash="abc123")
        arrays, meta = read_blob(path)
        arrays["head/W"] = np.full_like(arrays["head/W"], 1e300)
        write_blob(path, arrays, meta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match=f"{path}: checkpoint entry head/W holds "
                                                  "non-finite values as float32"):
                ForecastModel.load(path)


class TestFloat32:
    """A built model computes in float32: its parameters are the float64
    Glorot draws rounded once."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_parameters_are_rounded_float64_draws(self, kind, monkeypatch):
        model = build_model(small_spec(kind, seed=36))
        monkeypatch.setattr(models, "DTYPE", np.float64)
        wide = build_model(small_spec(kind, seed=36)).parameters()
        assert {p.data.dtype for p in model.parameters().values()} == {np.dtype(np.float32)}
        for name, p in model.parameters().items():
            assert wide[name].data.dtype == np.float64
            assert (p.data == wide[name].data.astype(np.float32)).all(), name

    @pytest.mark.parametrize("kind", KINDS)
    def test_saturated_windows_finite_without_warnings(self, kind):
        # float32 exp overflows near 88, not 709
        model = build_model(small_spec(kind, seed=37))
        rng = np.random.default_rng(38)
        windows = rng.choice([-800.0, 800.0], size=(4, 8, 5)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = model.forward_batch(Tensor(windows))
            mse_loss(pred, Tensor(rng.standard_normal((4, 1)).astype(np.float32))).backward()
            preds = model.predict(windows)
        assert pred.data.dtype == preds.dtype == np.float32
        assert np.isfinite(pred.data).all() and np.isfinite(preds).all()
        for name, p in model.parameters().items():
            assert p.grad.dtype == np.float32 and np.isfinite(p.grad).all(), name
