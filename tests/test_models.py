import re
import sys
import threading
import warnings

import numpy as np
import pytest

import test_layers
from gradcheck import assert_gradients_match
from reference import serial_predict
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
            out = model.forward_batch(Tensor(np.zeros((1, 8, 5))))
            assert out.shape == (1, horizon)

    def test_zero_head_outputs_bias(self):
        model = build_model(small_spec("mstim", horizon=3))
        model.head.W.data[...] = 0.0
        model.head.b.data[...] = [1.0, 2.0, 3.0]
        out = model.forward_batch(Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 8, 5))))
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]], atol=1e-12)

    def test_window_shape_mismatch(self):
        model = build_model(small_spec("mstim"))
        with pytest.raises(DimensionError):
            model.forward_batch(Tensor(np.zeros((1, 8, 4))))

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
        assert len(seen) == 21


def paper_model(kind, seed=40):
    return build_model(ModelSpec(kind=kind, input_features=21, seed=seed))


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, through ``predict``'s own lookup, with
    the count set to two for the test and restored after; skips where no
    OpenBLAS is loaded."""
    controls = models._blas_thread_controls()
    if controls is None:
        pytest.skip("no OpenBLAS is loaded")
    get, put = controls
    before = get()
    put(2)
    yield get
    put(before)


def failing_forward(model, monkeypatch, fails):
    """Make ``model.forward_batch`` record OpenBLAS's thread count, where one
    is loaded, per call and raise ``fails(rows)`` for a batch of window rows
    when that gives an error; ``row_windows`` fills each window with its row."""
    controls = models._blas_thread_controls()
    seen, forward = [], model.forward_batch

    def patched(x):
        seen.append(controls[0]() if controls else None)
        rows = x.data[:, 0, 0].astype(int)
        error = fails(rows)
        if error is not None:
            raise error
        return forward(x)

    monkeypatch.setattr(model, "forward_batch", patched)
    return seen


def row_windows(count):
    return np.broadcast_to(np.arange(count, dtype=np.float64)[:, None, None], (count, 24, 21))


class TestThreadedPredict:
    """More than one chunk runs as two halves per full chunk on two threads,
    with the same bytes and the same errors as the chunk loop."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_to_chunk_loop(self, kind):
        model = paper_model(kind)
        windows = np.random.default_rng(41).standard_normal((700, 24, 21))
        for count in (1, 127, 128, 255, 256, 257, 384, 511, 512, 700):
            preds = model.predict(windows[:count])
            assert preds.dtype == np.float32
            assert preds.tobytes() == serial_predict(model, windows[:count]).tobytes(), count

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_window_same_error_as_chunk_loop(self, kind):
        model = paper_model(kind)
        windows = np.random.default_rng(42).standard_normal((700, 24, 21))
        windows[400, 3] = np.nan  # the worker's half of the second chunk
        with pytest.raises(NumericError) as serial:
            serial_predict(model, windows)
        threads = threading.active_count()
        with pytest.raises(NumericError) as threaded:
            model.predict(windows)
        assert str(threaded.value) == str(serial.value)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("marked", [(130, 600), (300, 400), (450, 300), (699,)],
                             ids=["worker-first", "caller-first", "same-chunk", "partial"])
    def test_earliest_failing_half_raises(self, marked, monkeypatch):
        model = paper_model("cnn_attention")
        failing_forward(model, monkeypatch, lambda rows: next(
            (ValueError(f"row {r}") for r in sorted(marked) if r in rows), None))
        with pytest.raises(ValueError, match=f"^row {min(marked)}$"):
            model.predict(row_windows(700))

    @pytest.mark.parametrize("count", [200, 700])
    def test_threads_and_blas_count_restored(self, count, monkeypatch, blas_threads):
        model = paper_model("mstim")
        threads = threading.active_count()
        seen = failing_forward(model, monkeypatch, lambda rows: None)
        model.predict(row_windows(count))
        # one chunk or less runs on the caller alone and leaves BLAS as it is
        assert set(seen) == ({2} if count <= models.PREDICT_BATCH else {1})
        assert (blas_threads(), threading.active_count()) == (2, threads)
        failing_forward(model, monkeypatch, lambda rows: ValueError("bad") if 500 in rows else None)
        with pytest.raises(ValueError, match="bad"):
            model.predict(row_windows(700))
        assert (blas_threads(), threading.active_count()) == (2, threads)

    def test_concurrent_calls_take_turns(self, monkeypatch, blas_threads):
        # two threads predicting at once: each hold reads the count the
        # process had before either, so the last restore leaves it there
        get, put = models._blas_thread_controls()
        reads = []
        monkeypatch.setattr(models, "_blas_thread_controls",
                            lambda: (lambda: reads.append(get()) or reads[-1], put))
        model, windows = paper_model("cnn_attention"), row_windows(700)
        expected = serial_predict(model, windows)
        results = []
        threads = threading.active_count()
        callers = [threading.Thread(target=lambda: results.extend(
            model.predict(windows).tobytes() for _ in range(3))) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected.tobytes()] * 9
        assert reads == [2] * 9
        assert (blas_threads(), threading.active_count()) == (2, threads)

    def test_one_core_runs_the_chunk_loop(self, monkeypatch, blas_threads):
        model = paper_model("mstim")
        monkeypatch.setattr(models, "_cores", lambda: 1)
        threads = threading.active_count()
        sizes = []
        seen = failing_forward(model, monkeypatch, lambda rows: sizes.append(len(rows)))
        preds = model.predict(row_windows(700))
        assert sizes == [256, 256, 188] and set(seen) == {2}
        assert threading.active_count() == threads
        assert preds.tobytes() == serial_predict(model, row_windows(700)).tobytes()

    def test_interrupt_stops_worker_and_restores_blas(self, monkeypatch, blas_threads):
        model = paper_model("lstm_cnn")
        threads = threading.active_count()
        seen = failing_forward(model, monkeypatch, lambda rows: KeyboardInterrupt()
                               if threading.current_thread() is threading.main_thread()
                               and 300 in rows else None)
        with pytest.raises(KeyboardInterrupt):
            model.predict(row_windows(3000))
        assert (blas_threads(), threading.active_count()) == (2, threads)
        # the caller's second half raises; had the worker not stopped, it
        # would have computed all 11 of its halves
        assert len(seen) <= 8


class TestBlasLookup:
    """OpenBLAS is found by the paths in the process's memory map."""

    def test_paths_keep_spaces_and_drop_deleted_mark(self):
        maps = [
            "7f00-7f01 r-xp 00000000 08:01 12 /home/u/My Projects/env/libscipy_openblas64_.so\n",
            "7f02-7f03 r--p 00000000 08:01 13 /opt/libopenblas.so (deleted)\n",
            "7f04-7f05 rw-p 00000000 00:00 0 \n",
            "7f06-7f07 r-xp 00000000 08:01 14 /usr/lib/libm.so.6\n",
            "7f08-7f09 r-xp 00000000 08:01 12 /home/u/My Projects/env/libscipy_openblas64_.so\n",
        ]
        assert models._openblas_paths(maps) == [
            "/home/u/My Projects/env/libscipy_openblas64_.so", "/opt/libopenblas.so"]

    def test_unloadable_paths_are_skipped(self, tmp_path, monkeypatch):
        real = models._openblas_paths(open(models._MAPS, encoding="utf-8"))
        if not real:
            pytest.skip("no OpenBLAS is loaded")
        maps = tmp_path / "maps"
        lines = [f"7f00-7f01 r-xp 00000000 08:01 {i} {path}\n" for i, path in enumerate(
            [f"{tmp_path}/My Projects/libopenblas.so", f"{tmp_path}/libopenblas.so (deleted)"])]
        maps.write_text("".join(lines))
        monkeypatch.setattr(models, "_MAPS", str(maps))
        models._blas_thread_controls.cache_clear()
        try:
            assert models._blas_thread_controls() is None
            maps.write_text("".join(lines) + f"7f02-7f03 r-xp 00000000 08:01 9 {real[0]}\n")
            models._blas_thread_controls.cache_clear()
            get, put = models._blas_thread_controls()
            assert get() >= 1
        finally:
            models._blas_thread_controls.cache_clear()


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
