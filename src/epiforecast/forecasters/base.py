"""Shared forecaster types and steps: per-family configs, the spec, the fitted
model, and the gradient-descent and recursive-forecast loops."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from datetime import date
from typing import Any, Callable

import numpy as np

from ..data import Series
from ..errors import ContractError, DivergenceError
from ..transform import MinMaxScaler, IDENTITY_SCALER

MAX_SEED = 2**64


def check_shape(name: str, value: np.ndarray | None, shape: tuple | None, owner: str) -> None:
    """Raise ValueError unless value has the given shape, or is None when shape
    is None; owner names what needs the shape, for the message."""
    actual = None if value is None else value.shape
    if actual != shape:
        raise ValueError(f"{name} has shape {actual}, {owner} needs {shape}")


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
        for f in fields(self.config):  # a NaN passes every config's range checks
            value = getattr(self.config, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractError(f"{f.name} must be finite, got {value}")
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


def fitted(spec: ForecasterSpec, params: Any, train: Series) -> FittedModel:
    """The model fitted on train, keeping the trailing values its family's
    registry entry declares with tail_length."""
    from . import FAMILIES  # the package imports this module before defining FAMILIES

    n = FAMILIES[spec.kind].tail_length(spec.config)
    return FittedModel(spec, params, train_tail=train.values[-n:], train_end_date=train.end_date)


def descend(name: str, params: Any, epochs: int, loss: Callable, epoch: Callable) -> Any:
    """Gradient descent: epochs calls of epoch(params) -> (params, loss before
    the update); epoch may write the update into the arrays of the params it
    is given, which descend drops. Returns the final params with loss_history
    set to the initial loss, each epoch's loss and the final loss; raises
    DivergenceError at the first of them after the initial one that is not
    finite (math.isfinite: each loss is a Python float)."""

    def finite(value: float, k: int) -> float:
        if not math.isfinite(value):
            raise DivergenceError(f"{name} training diverged at epoch {k}")
        return value

    losses = [loss(params)]
    # a diverging run floods intermediate ops with inf/nan before the finiteness
    # check raises; keep numpy quiet on that handled path
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, epochs + 1):
            params, value = epoch(params)
            losses.append(finite(value, k))
        losses.append(finite(loss(params), epochs))
    return replace(params, loss_history=tuple(losses))


def recursive_forecast(tail: Any, h: int, step: Callable[[list, int], float]) -> np.ndarray:
    """Recursive multi-step forecast: step(window, k) predicts step k from the
    window, which then drops its oldest value and appends the prediction. An
    empty window stays empty. The feedback loop of AutoReg, ARIMA and the ANN;
    lstm.forecast_lstm runs the same recursion as a wavefront over the open
    windows, so that its cell steps share one product per layer and day."""
    window = list(tail)
    out = np.empty(h, dtype=np.float64)
    for k in range(h):
        out[k] = value = step(window, k)
        if window:
            window.pop(0)
            window.append(value)
    return out
