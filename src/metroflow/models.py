"""The four forecasting architectures behind one interface.

Each model maps a batch of windows of feature vectors [B, n, d] to forecasts
[B, T].  The multi-scale variants run parallel 1-D convolutions with
one branch per kernel size and fuse them by channel concatenation, so every
branch keeps the full temporal resolution expected by the recurrent stage.

``predict`` of more than one chunk, on a process that may run on two or
more CPUs, computes each full chunk as two halves on two threads, the caller
and one worker, with OpenBLAS held at one thread while they run: the numpy
work of the two halves then fills two cores.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CompatibilityError, ConfigError, DimensionError, NumericError, SchemaError
from .layers import AttentionHead, Dense, LstmCell, conv_stack, conv_weights
from .serialize import read_blob, write_blob
from .tensor import Tensor, no_grad

#: Each kind's stages in forward order; the head reads the last stage's width.
STAGES = {
    "mstim": ("conv", "lstm", "attention"),
    "lstm_attention": ("lstm", "attention"),
    "cnn_attention": ("conv", "attention"),
    "lstm_cnn": ("conv", "lstm"),
}
KINDS = tuple(STAGES)

#: Windows per forward pass in ``predict``.
PREDICT_BATCH = 256

#: OpenBLAS's thread-count getters under the names its builds export; each
#: setter has ``set`` where its getter has ``get``.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")

#: The memory map of this process (Linux), where OpenBLAS is looked up.
_MAPS = "/proc/self/maps"

#: Held by a ``predict`` while it holds OpenBLAS at one thread, so that two
#: concurrent calls cannot restore each other's count.
_BLAS_HOLD = threading.Lock()

#: The dtype a built model's parameters, and so its computation, take.
DTYPE = np.float32


def _is_int(value) -> bool:
    """True for an int that is not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _openblas_paths(maps) -> list:
    """The paths of the mapped files named like OpenBLAS, from the lines of
    ``_MAPS``; a path may hold spaces, and a file replaced on disk since it
    was mapped is listed by the path it was loaded from."""
    paths = set()
    for line in maps:
        fields = line.rstrip("\n").split(maxsplit=5)  # the sixth field is the path
        if len(fields) == 6 and "openblas" in fields[5]:
            paths.add(fields[5].removesuffix(" (deleted)"))
    return sorted(paths)


@functools.cache
def _blas_thread_controls():
    """OpenBLAS's thread-count getter and setter, from the first library
    mapped into this process that loads by its path and exports both; None
    where none does."""
    paths = []
    with suppress(OSError), open(_MAPS, encoding="utf-8") as maps:
        paths = _openblas_paths(maps)
    for path in paths:
        with suppress(OSError):  # a path that no longer loads
            lib = ctypes.CDLL(path)
            for name in _BLAS_GETTERS:
                get, put = getattr(lib, name, None), getattr(lib, name.replace("get", "set"), None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put


def _cores() -> int:
    """The CPUs this process may run on; the machine's where the platform
    cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # no affinity call: macOS, Windows


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, and restore the count it
    had after; where no OpenBLAS is found, change nothing."""
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def check_seed(seed) -> None:
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative int, got {seed!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one architecture plus hyperparameters,
    checked when it is built: a spec that exists is valid."""

    kind: str
    input_features: int
    window: int = 24
    horizon: int = 1
    hidden_size: int = 64
    conv_filters: int = 16
    kernel_sizes: tuple[int, ...] = (3, 5, 7)
    d_k: int = 64
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kernel_sizes", tuple(self.kernel_sizes))
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; choose one of {KINDS}")
        for name in ("input_features", "window", "horizon", "hidden_size",
                     "conv_filters", "d_k"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be a positive int, got {value!r}")
        if not self.kernel_sizes:
            raise ConfigError("kernel_sizes must not be empty")
        for k in self.kernel_sizes:
            if not _is_int(k) or k < 1 or k % 2 == 0:
                raise ConfigError(f"kernel sizes must be positive odd ints, got {k!r}")
        if len(set(self.kernel_sizes)) < len(self.kernel_sizes):  # each names its branch
            raise ConfigError(f"kernel sizes must be distinct, got {self.kernel_sizes}")
        check_seed(self.seed)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kernel_sizes"] = list(self.kernel_sizes)
        return d


class ForecastModel:
    """One built architecture: ordered layers plus a parameter registry.

    The parameters are the float64 Glorot draws cast to ``DTYPE``.  The
    model computes in its parameters' dtype, so casting them back to float64
    gives the float64 model through the same code.  Windows reach the first
    layer in the dtype they are stored in, and that layer casts them."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        self.convs, self.lstm, self.attention = [], None, None
        named = []  # (registry prefix, parameters) in build order
        width = spec.input_features
        for stage in STAGES[spec.kind]:
            if stage == "conv":
                self.convs = [conv_weights(width, spec.conv_filters, k, rng)
                              for k in spec.kernel_sizes]
                named += [(f"conv{k}", {"W": W, "b": b})
                          for k, (W, b) in zip(spec.kernel_sizes, self.convs)]
                width = len(spec.kernel_sizes) * spec.conv_filters
            elif stage == "lstm":
                self.lstm = LstmCell(width, spec.hidden_size, rng)
                named.append(("lstm", self.lstm.parameters()))
                width = spec.hidden_size
            else:
                self.attention = AttentionHead(width, spec.d_k, rng)
                named.append(("attention", self.attention.parameters()))
                width = spec.d_k
        self.head = Dense(width, spec.horizon, rng)
        named.append(("head", self.head.parameters()))
        self._params = {f"{prefix}/{name}": p for prefix, params in named
                        for name, p in params.items()}
        for p in self._params.values():
            p.data = p.data.astype(DTYPE)

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def _multi_scale(self, x3: Tensor) -> Tensor:
        """The conv branches, each with its ReLU, concatenated over channels:
        one ``layers.conv_stack`` node.  perfbench's ``layers.conv`` span and
        its replays call this method by name."""
        return conv_stack(x3, self.convs)

    def forward_batch(self, x: Tensor) -> Tensor:
        """Forecast the windows Tensor ``x`` [B, n, d]; row i is x[i:i+1]'s forecast."""
        expected = (self.spec.window, self.spec.input_features)
        if x.ndim != 3 or x.shape[1:] != expected:
            raise DimensionError(
                f"batch shape {x.shape} does not match [B, {expected[0]}, {expected[1]}]"
            )
        if self.convs:
            x = self._multi_scale(x)
        if self.lstm is not None:
            x = self.lstm.unroll(x)
        if self.attention is not None:  # the mean-pooled context vector
            x = self.attention(x)
        else:  # no attention: the last step is the sequence read-out
            x = x[:, x.shape[1] - 1, :]
        return self.head(x)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Inference without graph construction, in chunks of ``PREDICT_BATCH``;
        a non-finite forecast is a NumericError, never an inf or nan row.

        With more than one chunk and two or more CPUs, each full chunk runs
        as two halves, the even ones on the calling thread and the odd ones
        on one worker thread, with OpenBLAS held at one thread; a last
        partial chunk runs whole.  A half gives the bytes the whole chunk
        would, and a failure raises the earliest failing piece's error, so
        the result is the chunk loop's.  No thread outlives the call.
        OpenBLAS's thread count is process-wide: other threads of the
        process see one while a split call runs, and concurrent split calls
        take turns."""
        preds = np.concatenate(self._forecast_pieces(windows), axis=0)
        if not np.isfinite(preds).all():
            raise NumericError("model outputs are not finite; the weights may have diverged")
        return preds

    def _forecast_pieces(self, windows) -> list:
        """The forecasts of ``predict``'s pieces, in order: whole chunks, or
        the halves of full chunks and a last partial chunk when it splits."""
        split = len(windows) > PREDICT_BATCH and _cores() > 1
        size = PREDICT_BATCH // 2 if split else PREDICT_BATCH
        full = len(windows) - len(windows) % PREDICT_BATCH
        pieces = [slice(start, start + size) for start in range(0, full, size)]
        if full < len(windows):
            pieces.append(slice(full, len(windows)))
        outputs = [None] * len(pieces)
        failures = []  # (piece index, its error); -1 stops every piece

        def compute(first, step):
            with no_grad(), np.errstate(over="ignore", invalid="ignore"):
                for i in range(first, len(pieces), step):
                    if any(j < i for j, _ in failures):  # a piece before this one failed
                        return
                    try:
                        outputs[i] = self.forward_batch(Tensor(windows[pieces[i]])).data
                    except Exception as exc:
                        failures.append((i, exc))

        if not split:
            compute(0, 1)
        else:
            worker = threading.Thread(target=compute, args=(1, 2), name="metroflow-predict")
            with _BLAS_HOLD, _one_blas_thread():
                worker.start()
                try:
                    compute(0, 2)
                    worker.join()
                except BaseException:  # an interrupt: the worker stops after its current piece
                    failures.append((-1, None))
                    worker.join()
                    raise
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return outputs

    # -- checkpointing ------------------------------------------------------

    def save(self, path, data_hash: str) -> None:
        """Write the spec, the weights and the hash of the prepared dataset
        they were trained on; ``load`` refuses a checkpoint without one.
        The weights are stored as float64, which holds float32 exactly."""
        arrays = {name: p.data for name, p in self._params.items()}
        meta = {"model_spec": self.spec.to_dict(), "data_hash": data_hash}
        write_blob(path, arrays, meta)

    @classmethod
    def load(cls, path) -> tuple["ForecastModel", dict]:
        arrays, meta = read_blob(path)
        try:  # a spec whose weights no array can hold fails here too
            model = cls(ModelSpec(**meta.get("model_spec")))
        except (TypeError, ConfigError) as exc:
            raise SchemaError(f"{path} has no valid model_spec: {exc}") from exc
        if not isinstance(meta.get("data_hash"), str):
            raise SchemaError(f"{path} has no data_hash string")
        stored = set(arrays)
        expected = set(model._params)
        if stored != expected:
            raise CompatibilityError(
                f"{path}: checkpoint parameters {sorted(stored ^ expected)} "
                "do not match the spec"
            )
        for name, p in model._params.items():
            if arrays[name].shape != p.data.shape:
                raise CompatibilityError(
                    f"{path}: checkpoint entry {name} has shape {arrays[name].shape}, "
                    f"expected {p.data.shape}"
                )
            with np.errstate(over="ignore"):
                value = arrays[name].astype(p.data.dtype)
            if not np.isfinite(value).all():
                raise SchemaError(f"{path}: checkpoint entry {name} holds non-finite values "
                                  f"as {p.data.dtype}")
            p.data = value
        return model, meta


def build_model(spec: ModelSpec) -> ForecastModel:
    return ForecastModel(spec)
