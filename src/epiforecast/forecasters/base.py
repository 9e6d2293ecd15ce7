"""Shared forecaster types: per-family configs, the spec, the fitted model."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Any

import numpy as np

from ..errors import ContractError
from ..transform import MinMaxScaler, IDENTITY_SCALER

MAX_SEED = 2**64


@dataclass(frozen=True)
class ArOrder:
    """Autoregression order: y_t regressed on its previous p values."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ContractError(f"autoregression order must be >= 1, got {self.p}")


@dataclass(frozen=True)
class ArimaOrder:
    """(p, d, q): AR lags, differencing passes, MA lags."""

    p: int
    d: int
    q: int

    def __post_init__(self):
        if min(self.p, self.d, self.q) < 0:
            raise ContractError("ARIMA orders must be non-negative")
        if self.p + self.q == 0 and self.d == 0:
            raise ContractError("(0, 0, 0) is an empty model")


@dataclass(frozen=True)
class LstmConfig:
    """Stacked-LSTM trainer settings. batch_size 0 means full batch."""

    num_units: int
    window: int
    epochs: int
    learning_rate: float
    batch_size: int = 0
    layers: int = 2

    def __post_init__(self):
        if self.num_units < 1 or self.window < 1 or self.layers < 1:
            raise ContractError("num_units, window and layers must be >= 1")
        if self.epochs < 0 or self.learning_rate <= 0 or self.batch_size < 0:
            raise ContractError("epochs must be >= 0, learning_rate > 0, batch_size >= 0")


@dataclass(frozen=True)
class MlpConfig:
    """One-hidden-layer net over lag windows; hidden_units 0 collapses to linear.

    With seasonal set, a day-of-week one-hot for the predicted day is appended
    to each window.
    """

    window: int
    hidden_units: int
    epochs: int
    learning_rate: float
    seasonal: bool = False

    def __post_init__(self):
        if self.window < 1 or self.hidden_units < 0:
            raise ContractError("window must be >= 1 and hidden_units >= 0")
        if self.epochs < 0 or self.learning_rate <= 0:
            raise ContractError("epochs must be >= 0 and learning_rate > 0")


@dataclass(frozen=True)
class AdditiveConfig:
    """Piecewise-linear trend with weekly Fourier terms; hinges are penalized."""

    n_changepoints: int = 10
    changepoint_penalty: float = 1.0
    fourier_order: int = 3
    period: float = 7.0

    def __post_init__(self):
        if self.n_changepoints < 0 or self.fourier_order < 0:
            raise ContractError("n_changepoints and fourier_order must be >= 0")
        if self.changepoint_penalty < 0 or self.period <= 0:
            raise ContractError("changepoint_penalty must be >= 0 and period > 0")


CONFIG_TYPES = {
    "autoreg": ArOrder,
    "arima": ArimaOrder,
    "lstm": LstmConfig,
    "mlp": MlpConfig,
    "additive": AdditiveConfig,
}

KINDS = tuple(CONFIG_TYPES)


@dataclass(frozen=True)
class ForecasterSpec:
    """What to fit: model family, its hyperparameters, and the seed."""

    kind: str
    config: Any
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown forecaster kind {self.kind!r}")
        expected = CONFIG_TYPES[self.kind]
        if not isinstance(self.config, expected):
            raise ContractError(
                f"{self.kind} expects a {expected.__name__}, got {type(self.config).__name__}"
            )
        if not (0 <= self.seed < MAX_SEED):
            raise ContractError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class FittedModel:
    """A trained forecaster plus everything needed to forecast from it alone.

    train_tail holds the trailing normalized training values recursive
    forecasters consume; scaler maps forecasts back to the count scale;
    target and train_end_date anchor CLI output rows.
    """

    spec: ForecasterSpec
    params: Any
    scaler: MinMaxScaler = IDENTITY_SCALER
    train_tail: np.ndarray = field(default_factory=lambda: np.empty(0))
    target: str | None = None
    train_end_date: date | None = None

    def __post_init__(self):
        tail = np.asarray(self.train_tail, dtype=np.float64).copy()
        tail.flags.writeable = False
        object.__setattr__(self, "train_tail", tail)
