"""Mini-batch training loop, optimizers, loss, metrics and model comparison."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, UsageError
from .models import ForecastModel, ModelSpec, build_model, check_seed
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

REFERENCE_NOTE = (
    "Published reference values are shown for side-by-side context only; "
    "absolute agreement is not asserted because the published experiments' "
    "splits, seeds, optimizer and framework internals are unknown."
)


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.001
    batch_size: int = 32
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 5.0
    seed: int = 0
    shuffle: bool = True

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("learning_rate", "batch_size", "eps", "grad_clip"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {', '.join(OPTIMIZERS)}, "
                              f"got {self.optimizer!r}")
        check_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)


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
    epochs: list = field(default_factory=list)  # per-epoch train loss + val metrics
    test: MetricTriple | None = None
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "model_kind": self.model_kind,
            "seed": self.seed,
            "config": self.config,
            "epochs": self.epochs,
            "test": self.test.to_dict() if self.test else None,
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
    err = pred - target
    mae = float(np.abs(err).mean())
    mse = float((err * err).mean())
    return MetricTriple(mae=mae, mse=mse, rmse=float(np.sqrt(mse)))


class Adam:
    """Bias-corrected adaptive moment optimizer over a parameter registry."""

    def __init__(self, params: dict[str, Tensor],
                 learning_rate: float = TrainConfig.learning_rate,
                 beta1: float = TrainConfig.beta1, beta2: float = TrainConfig.beta2,
                 eps: float = TrainConfig.eps):
        self.params = params
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise DimensionError(f"gradient shape {g.shape} != param shape {p.data.shape}")
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad = None


class Sgd:
    """Plain gradient descent; same step/zero contract as Adam."""

    def __init__(self, params: dict[str, Tensor],
                 learning_rate: float = TrainConfig.learning_rate):
        self.params = params
        self.lr = learning_rate

    def step(self) -> None:
        for p in self.params.values():
            if p.grad is not None:
                p.data -= self.lr * p.grad
                p.grad = None


#: Optimizer name -> constructor from a parameter registry and a TrainConfig.
OPTIMIZERS = {
    "adam": lambda params, c: Adam(params, c.learning_rate, c.beta1, c.beta2, c.eps),
    "sgd": lambda params, c: Sgd(params, c.learning_rate),
}


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def train(model: ForecastModel, datasets, config: TrainConfig) -> TrainReport:
    """Train one model; deterministic given (seed, config, dataset).

    ``datasets`` needs train/val/test splits exposing ``windows`` [N, n, d]
    and ``targets`` [N, T] arrays.  The last short batch of each epoch is
    trained on, validation is reported per epoch, test metrics once at the
    end.  A non-finite loss aborts with the epoch, batch and loss value.
    """
    config.validate()
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    optimizer = OPTIMIZERS[config.optimizer](model.parameters(), config)
    params = model.parameters()
    tr = datasets.train
    report = TrainReport(model_kind=model.spec.kind, seed=config.seed, config=config.to_dict())

    count = len(tr.windows)
    if count == 0:
        raise UsageError("training split is empty")
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(count) if config.shuffle else np.arange(count)
        loss_sum = 0.0
        for batch_index, start in enumerate(range(0, count, config.batch_size)):
            rows = order[start:start + config.batch_size]
            pred = model.forward_batch(Tensor(tr.windows[rows]))
            loss = mse_loss(pred, Tensor(tr.targets[rows]))
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss {value} at epoch {epoch}, batch {batch_index}"
                )
            loss.backward()
            clip_grad_norm(params, config.grad_clip)
            optimizer.step()
            loss_sum += value * len(rows)
        val = metrics(model.predict(datasets.val.windows), datasets.val.targets)
        report.epochs.append({
            "epoch": epoch,
            "train_loss": loss_sum / count,
            "val_mae": val.mae,
            "val_mse": val.mse,
            "val_rmse": val.rmse,
        })
    report.test = metrics(model.predict(datasets.test.windows), datasets.test.targets)
    report.elapsed_seconds = time.perf_counter() - started
    return report


@dataclass
class ComparisonRow:
    kind: str
    ours: MetricTriple
    reference: dict | None


@dataclass
class ComparisonResult:
    rows: list  # ComparisonRow, sorted by our MAE
    reports: dict  # kind -> TrainReport
    note: str = REFERENCE_NOTE

    def to_dict(self) -> dict:
        return {
            "note": self.note,
            "rows": [
                {"model": r.kind, "ours": r.ours.to_dict(), "reference": r.reference}
                for r in self.rows
            ],
            "reports": {k: r.to_dict() for k, r in self.reports.items()},
        }

    def to_csv(self) -> str:
        lines = ["model,mae,mse,rmse,reference_mae,reference_mse,reference_rmse"]
        for r in self.rows:
            ref = r.reference or {}
            lines.append(
                f"{r.kind},{r.ours.mae:.6f},{r.ours.mse:.6f},{r.ours.rmse:.6f},"
                f"{ref.get('mae', '')},{ref.get('mse', '')},{ref.get('rmse', '')}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = f"{'model':<16} {'MAE':>8} {'MSE':>8} {'RMSE':>8}   {'ref MAE':>8} {'ref MSE':>8} {'ref RMSE':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            ref = r.reference or {}
            fmt = lambda v: f"{v:>8.4f}" if v is not None else f"{'-':>8}"
            lines.append(
                f"{r.kind:<16} {r.ours.mae:>8.4f} {r.ours.mse:>8.4f} {r.ours.rmse:>8.4f}   "
                f"{fmt(ref.get('mae'))} {fmt(ref.get('mse'))} {fmt(ref.get('rmse'))}"
            )
        lines.append("")
        lines.append(REFERENCE_NOTE)
        return "\n".join(lines) + "\n"


def compare(specs: list[ModelSpec], datasets, config: TrainConfig) -> ComparisonResult:
    """Train each spec under identical config and emit a table sorted by MAE."""
    if not specs:
        raise UsageError("compare needs at least one model spec")
    tally = {}
    for spec in specs:
        tally[spec.kind] = tally.get(spec.kind, 0) + 1
    seen = {}
    reports = {}
    rows = []
    for spec in specs:
        if tally[spec.kind] == 1:
            label = spec.kind
        else:
            seen[spec.kind] = seen.get(spec.kind, 0) + 1
            label = f"{spec.kind}#{seen[spec.kind]}"
        model = build_model(spec)
        report = train(model, datasets, config)
        reports[label] = report
        rows.append(ComparisonRow(kind=spec.kind, ours=report.test,
                                  reference=PUBLISHED_REFERENCE.get(spec.kind)))
    rows.sort(key=lambda r: r.ours.mae)
    return ComparisonResult(rows=rows, reports=reports)
