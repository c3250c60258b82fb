"""Hourly traffic-volume forecasting on a small reverse-mode autodiff engine."""

from .data import DatasetBundle, denormalize, load_cache, prepare_dataset, save_cache
from .errors import (
    CompatibilityError,
    ConfigError,
    DimensionError,
    MetroflowError,
    NumericError,
    SchemaError,
    UsageError,
)
from .models import KINDS, ForecastModel, ModelSpec, build_model
from .tensor import Tensor, no_grad
from .training import (
    MetricTriple,
    TrainConfig,
    TrainReport,
    metrics,
    mse_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CompatibilityError",
    "ConfigError",
    "DatasetBundle",
    "DimensionError",
    "ForecastModel",
    "KINDS",
    "MetricTriple",
    "MetroflowError",
    "ModelSpec",
    "NumericError",
    "SchemaError",
    "Tensor",
    "TrainConfig",
    "TrainReport",
    "UsageError",
    "build_model",
    "denormalize",
    "load_cache",
    "metrics",
    "mse_loss",
    "no_grad",
    "prepare_dataset",
    "save_cache",
    "train",
    "__version__",
]
