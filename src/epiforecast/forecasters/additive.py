"""Additive trend/seasonality regression.

Design: intercept, linear trend, hinge terms at evenly spaced changepoints,
and Fourier pairs for the weekly cycle. Only the hinge coefficients are ridge
penalized, so heavy penalties recover a single straight trend while the
Fourier terms stay free. Beyond the training range every hinge is active,
which extrapolates the last trend segment linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Series
from ..errors import ContractError, SingularFitError
from .base import AdditiveConfig, FittedModel, ForecasterSpec, check_shape, fitted


@dataclass(frozen=True)
class AdditiveParams:
    beta: np.ndarray
    changepoints: np.ndarray
    n_train: int


def design_width(config: AdditiveConfig) -> int:
    """Design columns: intercept, trend, hinges, a cos/sin pair per Fourier order."""
    return 2 + config.n_changepoints + 2 * config.fourier_order


def check_additive_params(params: AdditiveParams, config: AdditiveConfig) -> None:
    """Raise ValueError unless beta has one coefficient per design column and
    changepoints one entry per hinge."""
    owner = "the additive config"
    check_shape("beta", params.beta, (design_width(config),), owner)
    check_shape("changepoints", params.changepoints, (config.n_changepoints,), owner)


def training_changepoints(n: int, n_changepoints: int) -> np.ndarray:
    """Evenly spaced interior points i * n / (n_cp + 1), i = 1..n_cp."""
    if n < 2:
        raise ContractError("need at least two training points to place changepoints")
    return np.array(
        [i * n / (n_changepoints + 1) for i in range(1, n_changepoints + 1)],
        dtype=np.float64,
    )


def build_additive_design(
    t: np.ndarray, config: AdditiveConfig, changepoints: np.ndarray | None = None
) -> np.ndarray:
    """Design matrix at times t. With changepoints omitted, t is taken to be
    the training time vector and changepoints are placed from its length."""
    t = np.asarray(t, dtype=np.float64)
    if changepoints is None:
        changepoints = training_changepoints(t.size, config.n_changepoints)
    cols = [np.ones_like(t), t]
    for c in changepoints:
        cols.append(np.maximum(0.0, t - c))
    for k in range(1, config.fourier_order + 1):
        angle = 2.0 * np.pi * k * t / config.period
        cols.append(np.cos(angle))
        cols.append(np.sin(angle))
    return np.column_stack(cols)


def fit_additive(train: Series, config: AdditiveConfig) -> FittedModel:
    n = len(train)
    n_cols = design_width(config)
    if n < n_cols:
        raise ContractError(
            f"series of length {n} too short for a {n_cols}-column additive design"
        )
    t = np.arange(n, dtype=np.float64)
    changepoints = training_changepoints(n, config.n_changepoints)
    X = build_additive_design(t, config, changepoints)
    y = train.values
    lam = config.changepoint_penalty
    if lam > 0 and config.n_changepoints > 0:
        # ridge on hinge columns only, via augmented least squares
        penalty = np.zeros((config.n_changepoints, n_cols))
        for j in range(config.n_changepoints):
            penalty[j, 2 + j] = np.sqrt(lam)
        A = np.vstack([X, penalty])
        rhs = np.concatenate([y, np.zeros(config.n_changepoints)])
    else:
        A = X
        rhs = y
    beta, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < n_cols:
        raise SingularFitError(
            f"additive design is rank deficient (rank {rank} of {n_cols})"
        )
    params = AdditiveParams(beta=beta, changepoints=changepoints, n_train=n)
    return fitted(ForecasterSpec("additive", config), params, train)


def forecast_additive(model: FittedModel, h: int) -> np.ndarray:
    """The first h days of the design for whole blocks of four days, times beta.
    OpenBLAS's gemv computes X @ beta four rows at a time and a last part-block
    another way, which may differ in the last bit; whole blocks make each
    forecast the first rows of a longer one, bit for bit, as the recursive
    forecasts are."""
    config: AdditiveConfig = model.spec.config
    params: AdditiveParams = model.params
    t = np.arange(params.n_train, params.n_train + -(-h // 4) * 4, dtype=np.float64)
    X = build_additive_design(t, config, params.changepoints)
    return (X @ params.beta)[:h]


def insample_additive(model: FittedModel, train: Series) -> tuple[np.ndarray, np.ndarray]:
    config: AdditiveConfig = model.spec.config
    params: AdditiveParams = model.params
    t = np.arange(params.n_train, dtype=np.float64)
    X = build_additive_design(t, config, params.changepoints)
    return train.values.copy(), X @ params.beta
