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
from ..errors import ContractError
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


@dataclass(frozen=True)
class Family:
    """One forecaster kind: the type of its fitted params and its entry points.

    fit(train, config, seed) returns a FittedModel, forecast(model, h) an
    h-step array, insample(model, train) the (actual, predicted) pair.
    tail_length(config) is the number of trailing training values base.fitted
    stores in train_tail; check_params(params, config) raises ValueError when
    loaded params do not have the shapes the config implies.
    """

    params_type: type
    fit: Callable[[Series, Any, int], FittedModel]
    forecast: Callable[[FittedModel, int], np.ndarray]
    insample: Callable[[FittedModel, Series], tuple[np.ndarray, np.ndarray]]
    tail_length: Callable[[Any], int]
    check_params: Callable[[Any, Any], None]


# The entries look the family functions up in this module's namespace when they
# are called, not when the table is built, so a wrapper installed on a module
# attribute (perfbench's spans and ARIMA accounting do this) sees every call.
FAMILIES = {
    "autoreg": Family(
        autoreg.ArParams,
        lambda train, config, seed: fit_autoreg(train, config),
        lambda model, h: forecast_autoreg(model, h),
        lambda model, train: insample_autoreg(model, train),
        lambda order: order.p,
        autoreg.check_ar_params,
    ),
    "arima": Family(
        arima.ArimaParams,
        lambda train, config, seed: fit_arima(train, config),
        lambda model, h: forecast_arima(model, h),
        lambda model, train: insample_arima(model, train),
        lambda order: order.p + order.d + 1,
        arima.check_arima_params,
    ),
    "lstm": Family(
        lstm.LstmParameters,
        lambda train, config, seed: train_lstm(train, config, seed),
        lambda model, h: forecast_lstm(model, h),
        lambda model, train: insample_lstm(model, train),
        lambda config: config.window,
        lstm.check_lstm_parameters,
    ),
    "mlp": Family(
        mlp.MlpParams,
        lambda train, config, seed: fit_mlp(train, config, seed),
        lambda model, h: forecast_mlp(model, h),
        lambda model, train: insample_mlp(model, train),
        lambda config: config.window,
        mlp.check_mlp_params,
    ),
    "additive": Family(
        additive.AdditiveParams,
        lambda train, config, seed: fit_additive(train, config),
        lambda model, h: forecast_additive(model, h),
        lambda model, train: insample_additive(model, train),
        lambda config: 1,
        additive.check_additive_params,
    ),
}


def fit(spec: ForecasterSpec, train: Series) -> FittedModel:
    """Fit with the family's fitter; the returned model carries the full spec."""
    model = FAMILIES[spec.kind].fit(train, spec.config, spec.seed)
    return replace(model, spec=spec)


def forecast(model: FittedModel, h: int) -> np.ndarray:
    """h-step point forecast on the normalized scale; h must be >= 1."""
    if h < 1:
        raise ContractError("forecast horizon must be >= 1")
    return FAMILIES[model.spec.kind].forecast(model, h)


def insample_predictions(model: FittedModel, train: Series) -> tuple[np.ndarray, np.ndarray]:
    """(actual, predicted) one-step fitted values on the training frame."""
    return FAMILIES[model.spec.kind].insample(model, train)
