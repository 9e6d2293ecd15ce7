"""Forecaster families behind a common fit/forecast interface.

Five kinds: "autoreg" (OLS lag regression), "arima" (CSS + Levenberg-
Marquardt), "lstm" (two stacked LSTM layers, BPTT), "mlp" (one-hidden-layer
net), "additive" (piecewise-linear trend plus weekly Fourier terms). All fit
functions expect a normalized training Series and return a FittedModel;
forecasts come back on the normalized scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from ..data import Series
from .base import (
    KINDS,
    AdditiveConfig,
    ArimaOrder,
    ArOrder,
    FittedModel,
    ForecasterSpec,
    LstmConfig,
    MlpConfig,
)
from . import additive, arima, autoreg, lstm, mlp
from .additive import build_additive_design, fit_additive, forecast_additive, insample_additive
from .arima import (
    arima_css_objective,
    css_residuals,
    fit_arima,
    forecast_arima,
    grid_search_arima,
    insample_arima,
)
from .autoreg import fit_autoreg, forecast_autoreg, insample_autoreg
from .lstm import (
    forecast_lstm,
    insample_lstm,
    lstm_backward,
    lstm_cell_step,
    lstm_forward,
    train_lstm,
)
from .mlp import fit_mlp, forecast_mlp, insample_mlp
from .serialize import load_model, model_from_dict, model_to_dict, save_model

__all__ = [
    "KINDS",
    "AdditiveConfig",
    "ArOrder",
    "ArimaOrder",
    "FittedModel",
    "ForecasterSpec",
    "LstmConfig",
    "MlpConfig",
    "arima_css_objective",
    "build_additive_design",
    "css_residuals",
    "fit",
    "fit_additive",
    "fit_arima",
    "fit_autoreg",
    "fit_mlp",
    "forecast",
    "forecast_additive",
    "forecast_arima",
    "forecast_autoreg",
    "forecast_lstm",
    "forecast_mlp",
    "grid_search_arima",
    "insample_predictions",
    "load_model",
    "lstm_backward",
    "lstm_cell_step",
    "lstm_forward",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "train_lstm",
]


@dataclass(frozen=True)
class Family:
    """One forecaster kind: the type of its fitted params and its entry points.

    fit(train, config, seed) returns a FittedModel, forecast(model, h) an
    h-step array, insample(model, train) the (actual, predicted) pair.
    """

    params_type: type
    fit: Callable[[Series, Any, int], FittedModel]
    forecast: Callable[[FittedModel, int], np.ndarray]
    insample: Callable[[FittedModel, Series], tuple[np.ndarray, np.ndarray]]


# The entries look the family functions up in this module's namespace when they
# are called, not when the table is built, so a wrapper installed on a module
# attribute (perfbench's spans and ARIMA accounting do this) sees every call.
FAMILIES = {
    "autoreg": Family(
        autoreg.ArParams,
        lambda train, config, seed: fit_autoreg(train, config),
        lambda model, h: forecast_autoreg(model, h),
        lambda model, train: insample_autoreg(model, train),
    ),
    "arima": Family(
        arima.ArimaParams,
        lambda train, config, seed: fit_arima(train, config),
        lambda model, h: forecast_arima(model, h),
        lambda model, train: insample_arima(model, train),
    ),
    "lstm": Family(
        lstm.LstmParameters,
        lambda train, config, seed: train_lstm(train, config, seed),
        lambda model, h: forecast_lstm(model, h),
        lambda model, train: insample_lstm(model, train),
    ),
    "mlp": Family(
        mlp.MlpParams,
        lambda train, config, seed: fit_mlp(train, config, seed),
        lambda model, h: forecast_mlp(model, h),
        lambda model, train: insample_mlp(model, train),
    ),
    "additive": Family(
        additive.AdditiveParams,
        lambda train, config, seed: fit_additive(train, config),
        lambda model, h: forecast_additive(model, h),
        lambda model, train: insample_additive(model, train),
    ),
}


def fit(spec: ForecasterSpec, train: Series) -> FittedModel:
    """Fit with the family's fitter; the returned model carries the full spec."""
    model = FAMILIES[spec.kind].fit(train, spec.config, spec.seed)
    return replace(model, spec=spec)


def forecast(model: FittedModel, h: int) -> np.ndarray:
    """h-step point forecast on the normalized scale."""
    return FAMILIES[model.spec.kind].forecast(model, h)


def insample_predictions(model: FittedModel, train: Series) -> tuple[np.ndarray, np.ndarray]:
    """(actual, predicted) one-step fitted values on the training frame."""
    return FAMILIES[model.spec.kind].insample(model, train)
