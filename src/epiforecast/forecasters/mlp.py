"""Feed-forward one-hidden-layer regressor over lag windows.

tanh hidden activation, linear output, full-batch gradient descent. With
hidden_units = 0 the net collapses to a linear map of the window, i.e. plain
linear autoregression trained by gradient descent. The seasonal variant
appends a day-of-week one-hot for the day being predicted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..data import Series
from ..transform import make_windows
from .base import FittedModel, ForecasterSpec, MlpConfig, check_shape, descend, fitted
from .base import recursive_forecast

INIT_SCALE = 0.08


@dataclass(frozen=True)
class MlpParams:
    """hidden_w/hidden_b are None when the hidden layer is absent."""

    hidden_w: np.ndarray | None
    hidden_b: np.ndarray | None
    out_w: np.ndarray
    out_b: float
    next_dow: int | None = None  # weekday index of the first post-training day
    loss_history: tuple[float, ...] = ()


def _dow_onehot(dow: np.ndarray) -> np.ndarray:
    out = np.zeros((dow.size, 7), dtype=np.float64)
    out[np.arange(dow.size), dow % 7] = 1.0
    return out


def _features(inputs: np.ndarray, target_dows: np.ndarray | None) -> np.ndarray:
    if target_dows is None:
        return inputs
    return np.concatenate([inputs, _dow_onehot(target_dows)], axis=1)


def _design(train: Series, config: MlpConfig) -> tuple[np.ndarray, np.ndarray]:
    """Features (each lag window, plus the predicted day's weekday one-hot when
    seasonal) and targets over the training frame."""
    windows = make_windows(train, config.window)
    target_dows = None
    if config.seasonal:
        first_target = train.start_date.weekday() + config.window
        target_dows = (first_target + np.arange(len(windows))) % 7
    return _features(windows.inputs, target_dows), windows.targets


def check_mlp_params(params: MlpParams, config: MlpConfig) -> None:
    """Raise ValueError unless hidden_w is (h, d) and hidden_b (h,), both None
    when h = 0, and out_w is (h or d,), with d the window plus 7 weekday inputs
    when seasonal; and unless next_dow is set exactly when seasonal."""
    h, d = config.hidden_units, config.window + (7 if config.seasonal else 0)
    check_shape("hidden_w", params.hidden_w, (h, d) if h else None, "the mlp config")
    check_shape("hidden_b", params.hidden_b, (h,) if h else None, "the mlp config")
    check_shape("out_w", params.out_w, (h or d,), "the mlp config")
    if (params.next_dow is None) == config.seasonal:
        raise ValueError(f"next_dow is {params.next_dow} but seasonal is {config.seasonal}")


def _hidden(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """The tanh layer's activations, or X itself when the hidden layer is absent."""
    if params.hidden_w is None:
        return X
    return np.tanh(X @ params.hidden_w.T + params.hidden_b)


def _forward(params: MlpParams, X: np.ndarray) -> np.ndarray:
    return _hidden(params, X) @ params.out_w + params.out_b


def mlp_gradients(
    params: MlpParams, X: np.ndarray, y: np.ndarray
) -> tuple[MlpParams, np.ndarray]:
    """Exact gradient of mean squared error over (X, y), as an MlpParams with
    params' shapes, plus the predictions."""
    H = _hidden(params, X)
    preds = H @ params.out_w + params.out_b
    d_preds = (2.0 / len(y)) * (preds - y)
    hidden_w = hidden_b = None
    if params.hidden_w is not None:
        dH = np.outer(d_preds, params.out_w) * (1.0 - H * H)
        hidden_w, hidden_b = dH.T @ X, dH.sum(axis=0)
    return MlpParams(hidden_w, hidden_b, H.T @ d_preds, float(np.sum(d_preds))), preds


def fit_mlp(train: Series, config: MlpConfig, seed: int = 0) -> FittedModel:
    X, y = _design(train, config)
    n, d = X.shape

    rng = np.random.default_rng(seed)
    h = config.hidden_units
    hidden_w = hidden_b = None
    if h > 0:
        hidden_w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(h, d))
        hidden_b = rng.uniform(-INIT_SCALE, INIT_SCALE, size=h)
    out_w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=h or d)
    out_b = float(rng.uniform(-INIT_SCALE, INIT_SCALE))
    params = MlpParams(hidden_w, hidden_b, out_w, out_b)

    lr = config.learning_rate

    def epoch(params: MlpParams) -> tuple[MlpParams, float]:
        grads, preds = mlp_gradients(params, X, y)
        err = preds - y
        return MlpParams(  # next_dow is set after training
            hidden_w=params.hidden_w - lr * grads.hidden_w if h > 0 else None,
            hidden_b=params.hidden_b - lr * grads.hidden_b if h > 0 else None,
            out_w=params.out_w - lr * grads.out_w,
            out_b=params.out_b - lr * grads.out_b,
        ), float(np.mean(err * err))

    def loss(params: MlpParams) -> float:
        return float(np.mean((_forward(params, X) - y) ** 2))

    params = descend("MLP", params, config.epochs, loss, epoch)
    next_dow = (train.start_date.weekday() + len(train)) % 7 if config.seasonal else None
    return fitted(ForecasterSpec("mlp", config, seed), replace(params, next_dow=next_dow), train)


def forecast_mlp(model: FittedModel, h: int) -> np.ndarray:
    config: MlpConfig = model.spec.config
    params: MlpParams = model.params

    def step(window: list, k: int) -> float:
        x = np.array(window, dtype=np.float64)[None, :]
        dows = np.array([(params.next_dow + k) % 7]) if config.seasonal else None
        return float(_forward(params, _features(x, dows))[0])

    return recursive_forecast(model.train_tail[-config.window :], h, step)


def insample_mlp(model: FittedModel, train: Series) -> tuple[np.ndarray, np.ndarray]:
    X, y = _design(train, model.spec.config)
    return y, _forward(model.params, X)
