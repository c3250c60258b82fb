import numpy as np
import pytest

from metroflow.errors import CompatibilityError, ConfigError, DimensionError
from metroflow.models import KINDS, ForecastModel, ModelSpec, build_model, expected_param_count
from metroflow.tensor import Tensor
from metroflow.training import mse_loss


def small_spec(kind, **overrides):
    base = dict(kind=kind, input_features=5, window=8, horizon=1, hidden_size=6,
                conv_filters=4, kernel_sizes=(3, 5, 7), d_k=6, seed=0)
    base.update(overrides)
    return ModelSpec(**base)


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
        assert total == closed_form(spec) == expected_param_count(spec)

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_bit_identical(self, kind):
        a = build_model(small_spec(kind, seed=123))
        b = build_model(small_spec(kind, seed=123))
        for name, p in a.parameters().items():
            assert (p.data == b.parameters()[name].data).all(), name

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            small_spec("mstim", kernel_sizes=(4,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ModelSpec(kind="transformer", input_features=3)

    def test_window_shorter_than_kernel_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            small_spec("mstim", window=5)

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
        assert ModelSpec.from_dict(spec.to_dict()) == spec


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


class TestBatch:
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_matches_loop(self, kind):
        model = build_model(small_spec(kind, seed=7))
        rng = np.random.default_rng(8)
        windows = rng.standard_normal((32, 8, 5))
        batched = model.forward_batch(Tensor(windows)).data
        for i in range(32):
            single = model.forward_batch(Tensor(windows[i:i + 1])).data
            np.testing.assert_allclose(batched[i], single[0], atol=1e-12, rtol=0)

    def test_single_row_batch(self):
        model = build_model(small_spec("lstm_cnn", seed=9))
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
    def test_seed_determinism_end_to_end(self, kind):
        rng = np.random.default_rng(13)
        windows = rng.standard_normal((4, 8, 5))
        a = build_model(small_spec(kind, seed=21)).predict(windows)
        b = build_model(small_spec(kind, seed=21)).predict(windows)
        assert (a == b).all()


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
        model.save(tmp_path / "m.bin")
        loaded, _ = ForecastModel.load(tmp_path / "m.bin")
        assert (loaded.predict(windows) == before).all()

    def test_mismatched_params_rejected(self, tmp_path):
        from metroflow.serialize import read_blob, write_blob
        model = build_model(small_spec("lstm_attention", seed=34))
        path = tmp_path / "m.bin"
        model.save(path)
        arrays, meta = read_blob(path)
        arrays.pop("head/b")
        write_blob(path, arrays, meta)
        with pytest.raises(CompatibilityError):
            ForecastModel.load(path)
