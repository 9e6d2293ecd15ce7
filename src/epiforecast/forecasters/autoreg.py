"""Autoregression fitted by ordinary least squares on the lag matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Series
from ..errors import ContractError, SingularFitError
from .base import ArOrder, FittedModel, ForecasterSpec, check_shape, fitted, recursive_forecast


@dataclass(frozen=True)
class ArParams:
    c: float
    phi: np.ndarray  # phi[i-1] multiplies y_{t-i}


def lag_matrix(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Design [1, y_{t-1}, ..., y_{t-p}] and targets y_t for t = p..n-1."""
    n = values.size
    X = np.empty((n - p, p + 1), dtype=np.float64)
    X[:, 0] = 1.0
    for i in range(1, p + 1):
        X[:, i] = values[p - i : n - i]
    return X, values[p:].copy()


def fit_autoreg(train: Series, order: ArOrder) -> FittedModel:
    p = order.p
    n = len(train)
    if n < p + 2:
        raise ContractError(f"series of length {n} too short for AR({p})")
    X, y = lag_matrix(train.values, p)
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < p + 1:
        raise SingularFitError(f"AR({p}) design matrix is rank deficient (rank {rank})")
    params = ArParams(c=float(beta[0]), phi=beta[1:].copy())
    return fitted(ForecasterSpec("autoreg", order), params, train)


def check_ar_params(params: ArParams, order: ArOrder) -> None:
    """Raise ValueError unless phi holds one coefficient per lag of the order."""
    check_shape("phi", params.phi, (order.p,), f"AR({order.p})")


def ar_sum(c: float, phi, z) -> float:
    """c + sum_i phi[i-1] * z[-i], added in lag order i = 1..len(phi).

    The forecasts pass lists of Python floats, far cheaper to add than NumPy
    scalars; the oracles pass arrays. The bits are the same: both are IEEE
    doubles, each * and + rounds once, and both overflow to inf and make NaN
    of inf - inf without raising. Only which of two NaNs a sum passes on (a
    NaN's sign) may differ; no output holds one, as non-finite forecasts are refused."""
    acc = c
    for i in range(1, len(phi) + 1):
        acc += phi[i - 1] * z[-i]
    return acc


def forecast_autoreg(model: FittedModel, h: int) -> np.ndarray:
    params: ArParams = model.params
    phi = params.phi.tolist()
    tail = model.train_tail[-len(phi) :].tolist()
    return recursive_forecast(tail, h, lambda z, k: ar_sum(params.c, phi, z))


def insample_autoreg(model: FittedModel, train: Series) -> tuple[np.ndarray, np.ndarray]:
    """One-step fitted values on the training frame: rows t = p..n-1."""
    params: ArParams = model.params
    p = params.phi.size
    X, y = lag_matrix(train.values, p)
    beta = np.concatenate(([params.c], params.phi))
    return y, X @ beta
