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

    fit(train, config) returns a FittedModel, and fit(train, config, seed) when
    seeded; forecast(model, h) an h-step array, insample(model, train) the
    (actual, predicted) pair. tail_length(config) is the number of trailing
    training values base.fitted stores in train_tail; check_params(params, config)
    raises ValueError when loaded params do not have the shapes the config implies.
    """

    params_type: type
    fit: Callable[..., FittedModel]
    forecast: Callable[[FittedModel, int], np.ndarray]
    insample: Callable[[FittedModel, Series], tuple[np.ndarray, np.ndarray]]
    tail_length: Callable[[Any], int]
    check_params: Callable[[Any, Any], None]
    seeded: bool = False


def _current(function: Callable) -> Callable:
    """This package's attribute named as function, looked up at the call, so a wrapper
    installed there (perfbench's spans and ARIMA accounting do this) sees every call."""
    return globals()[function.__name__]


FAMILIES = {
    "autoreg": Family(
        autoreg.ArParams, fit_autoreg, forecast_autoreg, insample_autoreg,
        lambda order: order.p, autoreg.check_ar_params,
    ),
    "arima": Family(
        arima.ArimaParams, fit_arima, forecast_arima, insample_arima,
        lambda order: order.p + order.d + 1, arima.check_arima_params,
    ),
    "lstm": Family(
        lstm.LstmParameters, train_lstm, forecast_lstm, insample_lstm,
        lambda config: config.window, lstm.check_lstm_parameters, seeded=True,
    ),
    "mlp": Family(
        mlp.MlpParams, fit_mlp, forecast_mlp, insample_mlp,
        lambda config: config.window, mlp.check_mlp_params, seeded=True,
    ),
    "additive": Family(
        additive.AdditiveParams, fit_additive, forecast_additive, insample_additive,
        lambda config: 1, additive.check_additive_params,
    ),
}


def fit(spec: ForecasterSpec, train: Series) -> FittedModel:
    """Fit with the family's fitter; the returned model carries the full spec."""
    family = FAMILIES[spec.kind]
    seed = (spec.seed,) if family.seeded else ()
    model = _current(family.fit)(train, spec.config, *seed)
    return replace(model, spec=spec)


def forecast(model: FittedModel, h: int) -> np.ndarray:
    """h-step point forecast on the normalized scale; h must be >= 1."""
    if h < 1:
        raise ContractError("forecast horizon must be >= 1")
    return _current(FAMILIES[model.spec.kind].forecast)(model, h)


def insample_predictions(model: FittedModel, train: Series) -> tuple[np.ndarray, np.ndarray]:
    """(actual, predicted) one-step fitted values on the training frame."""
    return _current(FAMILIES[model.spec.kind].insample)(model, train)
