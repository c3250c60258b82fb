"""The four forecasting architectures behind one interface.

Each model maps a batch of windows of feature vectors [B, n, d] to forecasts
[B, T].  The multi-scale variants run parallel 1-D convolutions with
one branch per kernel size and fuse them by channel concatenation, so every
branch keeps the full temporal resolution expected by the recurrent stage.
"""

from __future__ import annotations

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

#: The dtype a built model's parameters, and so its computation, take.
DTYPE = np.float32


def _is_int(value) -> bool:
    """True for an int that is not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        a non-finite forecast is a NumericError, never an inf or nan row."""
        chunks = []
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(windows), PREDICT_BATCH):
                chunks.append(self.forward_batch(Tensor(windows[start:start + PREDICT_BATCH])).data)
        preds = np.concatenate(chunks, axis=0)
        if not np.isfinite(preds).all():
            raise NumericError("model outputs are not finite; the weights may have diverged")
        return preds

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
