"""Mini-batch training loop, the Adam optimizer, loss, metrics and the comparison table.

One recipe trains every model: Adam, a global gradient-norm clip at
``GRAD_CLIP`` and mini-batches shuffled every epoch.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import SPLITS
from .errors import ConfigError, DimensionError, NumericError, UsageError
from .models import KINDS, ForecastModel, _is_int, check_seed
from .tensor import Tensor

#: Published results for these four architectures on the same dataset,
#: shown beside our numbers for context.  Absolute agreement is not
#: asserted: data splits, seeds, optimizer and framework internals of the
#: published experiments are unknown.
PUBLISHED_REFERENCE = {
    "lstm_attention": {"mae": 0.2570, "mse": 0.1128, "rmse": 0.3369},
    "cnn_attention": {"mae": 0.2358, "mse": 0.1128, "rmse": 0.3399},
    "lstm_cnn": {"mae": 0.2271, "mse": 0.1101, "rmse": 0.3465},
    "mstim": {"mae": 0.2120, "mse": 0.1048, "rmse": 0.3237},
}

#: Global L2 norm the gradients are clipped to before every optimizer step.
GRAD_CLIP = 5.0

REFERENCE_NOTE = (
    "Published reference values are shown for side-by-side context only; "
    "absolute agreement is not asserted because the published experiments' "
    "splits, seeds, optimizer and framework internals are unknown."
)


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one training run, checked when the config is built:
    one that exists is valid.  It cannot be changed after that;
    ``dataclasses.replace`` builds a changed copy and checks it again."""

    epochs: int = 10
    learning_rate: float = 0.001
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be a positive int, got {value!r}")
        lr = self.learning_rate
        if (isinstance(lr, bool) or not isinstance(lr, (int, float))
                or not 0 < lr < math.inf):  # NaN fails both comparisons
            raise ConfigError(f"learning_rate must be a positive finite number, got {lr!r}")
        check_seed(self.seed)

    def to_dict(self) -> dict:
        """The settings plus the fixed recipe, so a report says how it was trained."""
        return {**asdict(self), "optimizer": "adam", "beta1": Adam.beta1,
                "beta2": Adam.beta2, "eps": Adam.eps, "grad_clip": GRAD_CLIP, "shuffle": True}


@dataclass(frozen=True)
class MetricTriple:
    mae: float
    mse: float
    rmse: float

    def to_dict(self) -> dict:
        return {"mae": self.mae, "mse": self.mse, "rmse": self.rmse}


@dataclass
class TrainReport:
    model_kind: str
    seed: int
    config: dict
    epochs: list  # per-epoch train loss + val metrics
    test: MetricTriple
    elapsed_seconds: float

    def to_dict(self) -> dict:
        return {
            "model_kind": self.model_kind,
            "seed": self.seed,
            "config": self.config,
            "epochs": self.epochs,
            "test": self.test.to_dict(),
        }


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements, differentiable."""
    if pred.shape != target.shape:
        raise DimensionError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred - target
    return (diff * diff).mean()


def metrics(pred, target) -> MetricTriple:
    """MAE, MSE and RMSE over flattened values."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if pred.shape != target.shape:
        raise DimensionError(f"metric inputs differ in length: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise UsageError("metrics need at least one sample")
    with np.errstate(over="ignore", invalid="ignore"):
        err = pred - target
        mae = float(np.abs(err).mean())
        mse = float((err * err).mean())
    if not (math.isfinite(mae) and math.isfinite(mse)):
        raise NumericError(f"metrics are not finite: mae={mae} mse={mse}")
    return MetricTriple(mae=mae, mse=mse, rmse=float(np.sqrt(mse)))


class Adam:
    """Bias-corrected adaptive moment optimizer over a parameter registry;
    a step reads every parameter's gradient, as every training step makes one."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor], learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad
            if g.shape != p.data.shape:
                raise DimensionError(f"gradient shape {g.shape} != param shape {p.data.shape}")
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad = None


def clip_grad_norm(params: dict[str, Tensor]) -> float:
    """Scale all gradients, one per parameter, so their global L2 norm,
    summed in float64, is at most ``GRAD_CLIP``; each keeps its dtype."""
    total = 0.0
    for p in params.values():
        total += float(np.square(p.grad, dtype=np.float64).sum())
    norm = float(np.sqrt(total))
    if norm > GRAD_CLIP:
        scale = GRAD_CLIP / norm
        for p in params.values():
            p.grad *= scale
    return norm


def train(model: ForecastModel, datasets, config: TrainConfig) -> TrainReport:
    """Train one model; deterministic given (seed, config, dataset).

    ``datasets`` needs train/val/test splits exposing row-indexable windows
    (a ``data.Windows`` view or an [N, n, d] array) and ``targets`` [N, T].
    The last short batch of each epoch is trained on, validation is reported
    per epoch, test metrics once at the end.  ``config`` was checked when it
    was built, and an empty split fails before the first step.  A non-finite
    loss aborts with the epoch, batch and loss value; a non-finite
    prediction or metric is a NumericError.  Steps run with numpy's overflow
    and invalid warnings off, so weights that diverge mid-epoch end in that
    error and not in a RuntimeWarning.  Windows go to the model as stored,
    and targets are cast to the prediction's dtype.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    optimizer = Adam(params, config.learning_rate)
    tr = datasets.train
    epochs = []

    for split in SPLITS:
        if len(getattr(datasets, split).windows) == 0:
            raise UsageError(f"{split} split is empty")
    count = len(tr.windows)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(count)
        loss_sum = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for batch_index, start in enumerate(range(0, count, config.batch_size)):
                rows = order[start:start + config.batch_size]
                pred = model.forward_batch(Tensor(tr.windows[rows]))
                loss = mse_loss(pred, Tensor(tr.targets[rows].astype(pred.data.dtype)))
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(
                        f"non-finite loss {value} at epoch {epoch}, batch {batch_index}"
                    )
                loss.backward()
                clip_grad_norm(params)
                optimizer.step()
                loss_sum += value * len(rows)
        val = metrics(model.predict(datasets.val.windows), datasets.val.targets)
        epochs.append({
            "epoch": epoch,
            "train_loss": loss_sum / count,
            "val_mae": val.mae,
            "val_mse": val.mse,
            "val_rmse": val.rmse,
        })
    test = metrics(model.predict(datasets.test.windows), datasets.test.targets)
    return TrainReport(model_kind=model.spec.kind, seed=config.seed, config=config.to_dict(),
                       epochs=epochs, test=test, elapsed_seconds=time.perf_counter() - started)


@dataclass
class ComparisonResult:
    reports: dict  # kind -> TrainReport

    @property
    def rows(self) -> list:
        """(kind, test metrics, published reference) sorted by test MAE, ties in
        ``KINDS`` order."""
        kinds = sorted((k for k in KINDS if k in self.reports),
                       key=lambda k: self.reports[k].test.mae)
        return [(k, self.reports[k].test, PUBLISHED_REFERENCE[k]) for k in kinds]

    def to_dict(self) -> dict:
        return {
            "note": REFERENCE_NOTE,
            "rows": [{"model": kind, "ours": ours.to_dict(), "reference": ref}
                     for kind, ours, ref in self.rows],
            "reports": {k: r.to_dict() for k, r in self.reports.items()},
        }

    def to_csv(self) -> str:
        lines = ["model,mae,mse,rmse,reference_mae,reference_mse,reference_rmse"]
        for kind, ours, ref in self.rows:
            lines.append(f"{kind},{ours.mae:.6f},{ours.mse:.6f},{ours.rmse:.6f},"
                         f"{ref['mae']},{ref['mse']},{ref['rmse']}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = f"{'model':<16} {'MAE':>8} {'MSE':>8} {'RMSE':>8}   {'ref MAE':>8} {'ref MSE':>8} {'ref RMSE':>8}"
        lines = [header, "-" * len(header)]
        for kind, ours, ref in self.rows:
            lines.append(
                f"{kind:<16} {ours.mae:>8.4f} {ours.mse:>8.4f} {ours.rmse:>8.4f}   "
                f"{ref['mae']:>8.4f} {ref['mse']:>8.4f} {ref['rmse']:>8.4f}"
            )
        lines.append("")
        lines.append(REFERENCE_NOTE)
        return "\n".join(lines) + "\n"
