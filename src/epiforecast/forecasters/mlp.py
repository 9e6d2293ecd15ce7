"""Feed-forward one-hidden-layer regressor over lag windows.

tanh hidden activation, linear output, full-batch gradient descent. With
hidden_units = 0 the net collapses to a linear map of the window, i.e. plain
linear autoregression trained by gradient descent. The seasonal variant
appends a day-of-week one-hot for the day being predicted.

Training kernel. _layers, the one tanh-layer kernel, is every forward: each
epoch and the initial and final loss (through _gradients), the in-sample
predictions and each forecast step. An epoch is per-op dispatch and allocation
on small arrays, so _gradients hands _layers a buffer for H and writes dH,
1 - H*H, the error and d_preds into buffers that fit_mlp allocates once per
fit; preds - y serves the gradient and the loss. fit_mlp writes W - lr * g
into the gradient arrays the products and dH.sum(axis=0) have just allocated,
so no buffer aliases an MlpParams. This reproduces the allocating version
(kept as a test oracle) bit for bit:
  * every matrix product keeps its operands, shapes and memory layout, from
    which OpenBLAS picks its kernel and so its summation order: X @ W.T (into
    a new or buffered C-contiguous (n, h) array), H @ out_w, dH.T @ X and
    H.T @ d_preds;
  * np.add.reduce over err * err is the pairwise sum inside np.mean of
    err ** 2, divided by n as np.mean does; dH.sum(axis=0) is unchanged;
  * an elementwise op writes the same bits into a buffer as into a new array,
    and each keeps its operands (np.outer(a, b) is a[:, None] * b; lr * g is
    g * lr). Stacked candidates, transposed layouts, ones @ dH or fused ops
    would change summation orders or roundings.
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


def _layers(params: MlpParams, X: np.ndarray, H: np.ndarray | None = None) -> tuple:
    """The tanh layer's activations (into H when given; X when h = 0) and the predictions."""
    if params.hidden_w is None:
        H = X
    else:
        H = np.matmul(X, params.hidden_w.T, out=H)
        np.add(H, params.hidden_b, out=H)
        np.tanh(H, out=H)
    return H, H @ params.out_w + params.out_b


def _forward(params: MlpParams, X: np.ndarray) -> np.ndarray:
    return _layers(params, X)[1]


def _work(n: int, h: int) -> tuple[np.ndarray, ...]:
    """_gradients' buffers for n rows and h hidden units: H, dH and 1 - H*H
    (n, h), then the error and d_preds (n,)."""
    return np.empty((n, h)), np.empty((n, h)), np.empty((n, h)), np.empty(n), np.empty(n)


def _gradients(
    params: MlpParams, X: np.ndarray, y: np.ndarray, work: tuple[np.ndarray, ...]
) -> tuple[MlpParams, np.ndarray, float]:
    """mlp_gradients' kernel, plus the mean squared error of the predictions.
    Temporaries go into work's buffers; the gradient arrays are new, so a
    caller may overwrite them."""
    H, dH, dtanh, err, d_preds = work
    H, preds = _layers(params, X, H)
    np.subtract(preds, y, out=err)
    np.multiply(2.0 / len(y), err, out=d_preds)
    hidden_w = hidden_b = None
    if params.hidden_w is not None:
        np.multiply(d_preds[:, None], params.out_w, out=dH)
        np.multiply(H, H, out=dtanh)
        np.subtract(1.0, dtanh, out=dtanh)
        np.multiply(dH, dtanh, out=dH)
        hidden_w, hidden_b = dH.T @ X, dH.sum(axis=0)
    grads = MlpParams(hidden_w, hidden_b, H.T @ d_preds, float(np.add.reduce(d_preds)))
    np.multiply(err, err, out=err)
    return grads, preds, float(np.add.reduce(err)) / len(y)


def mlp_gradients(
    params: MlpParams, X: np.ndarray, y: np.ndarray
) -> tuple[MlpParams, np.ndarray]:
    """Exact gradient of mean squared error over (X, y), as an MlpParams with
    params' shapes, plus the predictions."""
    h = 0 if params.hidden_w is None else len(params.hidden_w)
    return _gradients(params, X, y, _work(len(y), h))[:2]


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
    work = _work(n, h)

    def update(w: np.ndarray, g: np.ndarray) -> np.ndarray:
        """w - lr * g, written into g."""
        np.multiply(g, lr, out=g)
        return np.subtract(w, g, out=g)

    def epoch(params: MlpParams) -> tuple[MlpParams, float]:
        grads, _, value = _gradients(params, X, y, work)
        return MlpParams(  # next_dow is set after training
            hidden_w=update(params.hidden_w, grads.hidden_w) if h > 0 else None,
            hidden_b=update(params.hidden_b, grads.hidden_b) if h > 0 else None,
            out_w=update(params.out_w, grads.out_w),
            out_b=params.out_b - lr * grads.out_b,
        ), value

    params = descend("MLP", params, config.epochs, lambda p: _gradients(p, X, y, work)[2], epoch)
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
