"""Feed-forward one-hidden-layer regressor over lag windows.

tanh hidden activation, linear output, full-batch gradient descent. With
hidden_units = 0 the net collapses to a linear map of the window, i.e. plain
linear autoregression trained by gradient descent. The seasonal variant
appends a day-of-week one-hot for the day being predicted.

Training kernel. _layers, the one tanh-layer kernel, is every forward: each
epoch and the initial and final loss (through _gradients), the in-sample
predictions and each forecast step. An epoch is per-op dispatch on small
arrays, so it allocates only the predictions: _gradients hands _layers a
buffer for H and writes dH, 1 - H*H, the error, d_preds and the three
gradient arrays into buffers that fit_mlp allocates once per fit, with
d_preds' (n, 1) column view; preds - y serves the gradient and the loss.
fit_mlp's epoch writes w - lr * g into the weight arrays in place, so the
MlpParams it returns holds the arrays of the one it was given. This
reproduces the allocating version (kept as a test oracle) bit for bit:
  * every matrix product keeps its operands, shapes and memory layout, from
    which OpenBLAS picks its kernel and so its summation order: X @ W.T,
    H @ out_w, dH.T @ X and H.T @ d_preds, each into a new or a buffered
    C-contiguous array of its shape;
  * np.add.reduce over err * err is the pairwise sum inside np.mean of
    err ** 2, divided by n as np.mean does; np.add.reduce(dH, axis=0) is
    what dH.sum(axis=0) calls;
  * an elementwise op writes the same bits into a buffer as into a new array,
    and each keeps its operands (np.outer(a, b) is a[:, None] * b; lr * g is
    g * lr). Stacked candidates, transposed layouts, ones @ dH or fused ops
    would change summation orders or roundings.
A forecast step writes its window and weekday one-hot into one (1, d) row,
the values np.concatenate built, and runs _layers on it with a buffered
(1, h) H, so its (1, k) @ W.T product keeps its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date

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


def weekday_after(day: date) -> int:
    """The weekday index (Monday 0) of the day after day: next_dow after a last training day."""
    return (day.weekday() + 1) % 7


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
    when seasonal; and unless next_dow is set exactly when seasonal, to a
    weekday index 0..6."""
    h, d = config.hidden_units, config.window + (7 if config.seasonal else 0)
    check_shape("hidden_w", params.hidden_w, (h, d) if h else None, "the mlp config")
    check_shape("hidden_b", params.hidden_b, (h,) if h else None, "the mlp config")
    check_shape("out_w", params.out_w, (h or d,), "the mlp config")
    if (params.next_dow is None) == config.seasonal:
        raise ValueError(f"next_dow is {params.next_dow} but seasonal is {config.seasonal}")
    if params.next_dow not in (None, *range(7)):
        raise ValueError(f"next_dow is {params.next_dow}, not a weekday index 0..6")


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


def _work(n: int, d: int, h: int) -> tuple:
    """_gradients' buffers for n rows of d features and h hidden units: H, dH and
    1 - H*H (n, h), the error and d_preds (n,), d_preds as an (n, 1) column,
    then the gradients of hidden_w (h, d) and hidden_b (h,), None when h = 0,
    and of out_w (h or d,)."""
    d_preds = np.empty(n)
    hidden = (np.empty((h, d)), np.empty(h)) if h else (None, None)
    return (
        np.empty((n, h)), np.empty((n, h)), np.empty((n, h)), np.empty(n), d_preds,
        d_preds[:, None], *hidden, np.empty(h or d),
    )


def _gradients(params: MlpParams, X: np.ndarray, y: np.ndarray, work: tuple) -> tuple:
    """mlp_gradients' kernel: the gradients of hidden_w, hidden_b (None when
    h = 0) and out_w, written into work's buffers, the out_b gradient, the
    predictions and their mean squared error."""
    H, dH, dtanh, err, d_preds, d_col, g_hidden_w, g_hidden_b, g_out_w = work
    H, preds = _layers(params, X, H)
    np.subtract(preds, y, out=err)
    np.multiply(2.0 / len(y), err, out=d_preds)
    if params.hidden_w is not None:
        np.multiply(d_col, params.out_w, out=dH)
        np.multiply(H, H, out=dtanh)
        np.subtract(1.0, dtanh, out=dtanh)
        np.multiply(dH, dtanh, out=dH)
        np.matmul(dH.T, X, out=g_hidden_w)
        np.add.reduce(dH, axis=0, out=g_hidden_b)
    np.matmul(H.T, d_preds, out=g_out_w)
    g_out_b = float(np.add.reduce(d_preds))
    np.multiply(err, err, out=err)
    return g_hidden_w, g_hidden_b, g_out_w, g_out_b, preds, float(np.add.reduce(err)) / len(y)


def mlp_gradients(
    params: MlpParams, X: np.ndarray, y: np.ndarray
) -> tuple[MlpParams, np.ndarray]:
    """Exact gradient of mean squared error over (X, y), as an MlpParams with
    params' shapes, plus the predictions."""
    h = 0 if params.hidden_w is None else len(params.hidden_w)
    g_hidden_w, g_hidden_b, g_out_w, g_out_b, preds, _ = _gradients(
        params, X, y, _work(len(y), X.shape[1], h)
    )
    return MlpParams(g_hidden_w, g_hidden_b, g_out_w, g_out_b), preds


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
    work = _work(n, d, h)

    def epoch(params: MlpParams) -> tuple[MlpParams, float]:
        """One update, written into the weight arrays: the params returned hold
        the arrays of the params given, which descend no longer uses."""
        hidden_w, hidden_b, out_w = params.hidden_w, params.hidden_b, params.out_w
        g_hidden_w, g_hidden_b, g_out_w, g_out_b, _, value = _gradients(params, X, y, work)
        if h > 0:
            np.subtract(hidden_w, np.multiply(g_hidden_w, lr, out=g_hidden_w), out=hidden_w)
            np.subtract(hidden_b, np.multiply(g_hidden_b, lr, out=g_hidden_b), out=hidden_b)
        np.subtract(out_w, np.multiply(g_out_w, lr, out=g_out_w), out=out_w)
        # next_dow is set after training
        return MlpParams(hidden_w, hidden_b, out_w, params.out_b - lr * g_out_b), value

    params = descend("MLP", params, config.epochs, lambda p: _gradients(p, X, y, work)[5], epoch)
    next_dow = weekday_after(train.end_date) if config.seasonal else None
    return fitted(ForecasterSpec("mlp", config, seed), replace(params, next_dow=next_dow), train)


def forecast_mlp(model: FittedModel, h: int) -> np.ndarray:
    """Recursive forecast; each step writes its window, and when seasonal the
    predicted day's weekday one-hot, into one (1, d) row and runs _layers on it."""
    config: MlpConfig = model.spec.config
    params: MlpParams = model.params
    w = config.window
    x = np.zeros((1, w + 7 if config.seasonal else w))
    row = x[0]
    H = None if params.hidden_w is None else np.empty((1, len(params.hidden_w)))

    def step(window: list, k: int) -> float:
        row[:w] = window
        if config.seasonal:
            row[w:] = 0.0
            row[w + (params.next_dow + k) % 7] = 1.0
        return float(_layers(params, x, H)[1][0])

    return recursive_forecast(model.train_tail[-w:], h, step)


def insample_mlp(model: FittedModel, train: Series) -> tuple[np.ndarray, np.ndarray]:
    X, y = _design(train, model.spec.config)
    return y, _forward(model.params, X)
