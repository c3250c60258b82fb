"""The four forecasting architectures behind one interface.

Each model consumes a window of feature vectors [n, d] and emits a forecast
of length T.  The multi-scale variants run parallel 1-D convolutions with
one branch per kernel size and fuse them by channel concatenation, so every
branch keeps the full temporal resolution expected by the recurrent stage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import CompatibilityError, ConfigError, DimensionError
from .layers import AttentionHead, Conv1d, Dense, LstmCell
from .serialize import read_blob, write_blob
from .tensor import Tensor, concat, no_grad

KINDS = ("mstim", "lstm_attention", "cnn_attention", "lstm_cnn")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one architecture plus hyperparameters."""

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
        self.validate()

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; choose one of {KINDS}")
        for name in ("input_features", "window", "horizon", "hidden_size",
                     "conv_filters", "d_k"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive int, got {value!r}")
        if not self.kernel_sizes:
            raise ConfigError("kernel_sizes must not be empty")
        for k in self.kernel_sizes:
            if not isinstance(k, int) or k < 1 or k % 2 == 0:
                raise ConfigError(f"kernel sizes must be positive odd ints, got {k!r}")
        if self.window < max(self.kernel_sizes):
            raise ConfigError(
                f"window {self.window} is shorter than the largest kernel "
                f"{max(self.kernel_sizes)}"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kernel_sizes"] = list(self.kernel_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(**d)


def expected_param_count(spec: ModelSpec) -> int:
    """Closed-form parameter count for a spec; build() asserts against it."""
    d, h, f, dk, t = (spec.input_features, spec.hidden_size, spec.conv_filters,
                      spec.d_k, spec.horizon)
    conv = sum(f * d * k + f for k in spec.kernel_sizes)
    fused = len(spec.kernel_sizes) * f
    lstm = lambda inp: 4 * (h * (h + inp) + h)
    attn = lambda d_model: 3 * d_model * dk
    dense = lambda inp, out: out * inp + out
    if spec.kind == "mstim":
        return conv + lstm(fused) + attn(h) + dense(dk, t)
    if spec.kind == "lstm_attention":
        return lstm(d) + attn(h) + dense(dk, t)
    if spec.kind == "cnn_attention":
        return conv + attn(fused) + dense(dk, t)
    return conv + lstm(fused) + dense(h, t)  # lstm_cnn


class ForecastModel:
    """One built architecture: ordered layers plus a parameter registry."""

    def __init__(self, spec: ModelSpec):
        spec.validate()
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        fused = len(spec.kernel_sizes) * spec.conv_filters
        self.convs = []
        self.lstm = None
        self.attention = None

        if spec.kind in ("mstim", "cnn_attention", "lstm_cnn"):
            self.convs = [
                Conv1d(spec.input_features, spec.conv_filters, k, rng)
                for k in spec.kernel_sizes
            ]
        if spec.kind in ("mstim", "lstm_attention", "lstm_cnn"):
            lstm_in = spec.input_features if spec.kind == "lstm_attention" else fused
            self.lstm = LstmCell(lstm_in, spec.hidden_size, rng)
        if spec.kind in ("mstim", "lstm_attention", "cnn_attention"):
            d_model = fused if spec.kind == "cnn_attention" else spec.hidden_size
            self.attention = AttentionHead(d_model, spec.d_k, rng)
        head_in = spec.hidden_size if spec.kind == "lstm_cnn" else spec.d_k
        self.head = Dense(head_in, spec.horizon, rng)

        self._params = {}
        for i, conv in enumerate(self.convs):
            for name, p in conv.parameters().items():
                self._params[f"conv{spec.kernel_sizes[i]}/{name}"] = p
        if self.lstm is not None:
            for name, p in self.lstm.parameters().items():
                self._params[f"lstm/{name}"] = p
        if self.attention is not None:
            for name, p in self.attention.parameters().items():
                self._params[f"attention/{name}"] = p
        for name, p in self.head.parameters().items():
            self._params[f"head/{name}"] = p

        total = sum(p.size for p in self._params.values())
        expected = expected_param_count(spec)
        if total != expected:
            raise AssertionError(f"parameter registry has {total} values, expected {expected}")

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def _multi_scale(self, x3: Tensor) -> Tensor:
        return concat([conv(x3).relu() for conv in self.convs], axis=-1)

    def _forward3(self, x3: Tensor) -> Tensor:
        kind = self.spec.kind
        if kind == "mstim":
            seq = self.lstm.unroll(self._multi_scale(x3))
            pooled = self.attention(seq).mean(axis=1)
        elif kind == "lstm_attention":
            pooled = self.attention(self.lstm.unroll(x3)).mean(axis=1)
        elif kind == "cnn_attention":
            pooled = self.attention(self._multi_scale(x3)).mean(axis=1)
        else:  # lstm_cnn: last hidden state is the sequence read-out
            seq = self.lstm.unroll(self._multi_scale(x3))
            pooled = seq[:, seq.shape[1] - 1, :]
        return self.head(pooled)

    def forward(self, window) -> Tensor:
        """Forecast from one window [n, d]; returns a length-T tensor."""
        window = window if isinstance(window, Tensor) else Tensor(window)
        expected = (self.spec.window, self.spec.input_features)
        if window.shape != expected:
            raise DimensionError(f"window shape {window.shape} does not match spec {expected}")
        out = self._forward3(window.reshape(1, *expected))
        return out.reshape(self.spec.horizon)

    def forward_batch(self, windows) -> Tensor:
        """Forecast a batch [B, n, d]; row i equals forward(windows[i])."""
        windows = windows if isinstance(windows, Tensor) else Tensor(windows)
        expected = (self.spec.window, self.spec.input_features)
        if windows.ndim != 3 or windows.shape[1:] != expected:
            raise DimensionError(
                f"batch shape {windows.shape} does not match [B, {expected[0]}, {expected[1]}]"
            )
        return self._forward3(windows)

    def predict(self, windows: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference without graph construction, in chunks."""
        chunks = []
        with no_grad():
            for start in range(0, len(windows), batch_size):
                chunk = windows[start:start + batch_size]
                chunks.append(self.forward_batch(Tensor(chunk)).data)
        return np.concatenate(chunks, axis=0) if chunks else np.zeros((0, self.spec.horizon))

    # -- checkpointing ------------------------------------------------------

    def save(self, path, data_hash: str | None = None) -> None:
        arrays = {name: p.data for name, p in self._params.items()}
        meta = {"model_spec": self.spec.to_dict(), "data_hash": data_hash}
        write_blob(path, arrays, meta)

    @classmethod
    def load(cls, path) -> tuple["ForecastModel", dict]:
        arrays, meta = read_blob(path)
        model = cls(ModelSpec.from_dict(meta["model_spec"]))
        stored = set(arrays)
        expected = set(model._params)
        if stored != expected:
            raise CompatibilityError(
                f"checkpoint parameters {sorted(stored ^ expected)} do not match the spec"
            )
        for name, p in model._params.items():
            if arrays[name].shape != p.data.shape:
                raise CompatibilityError(
                    f"checkpoint entry {name} has shape {arrays[name].shape}, "
                    f"expected {p.data.shape}"
                )
            p.data[...] = arrays[name]
        return model, meta


def build_model(spec: ModelSpec) -> ForecastModel:
    return ForecastModel(spec)
