"""Stacked LSTM regressor trained from scratch by mini-batch gradient descent.

Gate equations per step (row blocks of W in the order input, forget, output,
candidate):

    i = sigmoid(W_i [x; h] + b_i)      f = sigmoid(W_f [x; h] + b_f)
    o = sigmoid(W_o [x; h] + b_o)      g = tanh(W_g [x; h] + b_g)
    c = f * c_prev + i * g             h = o * tanh(c)

Windows feed one value per step; a linear head reads the final hidden state
of the top layer. Backpropagation through time is exact; gradients are
checked against central finite differences in the test suite.

Batch kernel layout. Training cost is per-op dispatch on small arrays, and an
op on a strided gate slice costs several times one on a contiguous block, so
_forward_batch and _backward_batch keep every per-step gate array unit-major,
(units, batch), C-contiguous. Per layer, the step inputs [x_t, h_{t-1}] of
all windows fill one preallocated buffer Z (window + 1, batch, d + u), and each
new h is written into the next row. Each step takes a = Z[t] @ W.T + b, one
transposed copy of a, one sigmoid call over its input, forget and output rows
and one tanh over the candidate rows. Backward writes [di, df, do, dg] into one
(4u, batch) buffer and scales the three sigmoid blocks in place.

The kernel reproduces the batch-major version it replaced bit for bit (the
test suite keeps that version as an oracle), which holds because:
  * every matrix product keeps its operands, shapes and memory layout, since
    OpenBLAS picks its kernel, and so its summation order, from them:
    Z[t] (batch, d + u) C-contiguous against the W.T view, da.T @ Z[t] and
    da @ W with da (batch, 4u) C-contiguous, and a head input h_last that is
    contiguous only when window = 1, like the last step of a
    (batch, window, u) sequence;
  * the reductions da.sum(axis=0), np.sum(d_preds) and err @ err are unchanged;
  * elementwise ops keep their operand order, e.g. (f * c) + (i * g),
    (di * i) * (1 - i) and dc + (dh * o) * (1 - tanh_c * tanh_c); layout does
    not change an elementwise result, except the sign of a NaN (see below).
Splitting W into input and recurrent blocks, one stacked gemm over all steps
for dW, or stacking candidates into one model would change summation orders,
so none of them is done here. An evaluation forward (cache=False: the
full-batch loss and the in-sample predictions) runs the same ops on the same
operands, but keeps no step tuples, and each Z lives only until the layer
above has copied it: what outlives a step feeds no op, so the bits are equal.

Forecast layout. The forecast of day k runs the window of input days k to
k + w - 1 through the layers, and its prediction is input day w + k. Run one
window at a time at batch 1, that is h * w cell steps per layer.
forecast_lstm runs them as a wavefront on a ring of n = min(w, h) window
slots: window k lives in slot k mod n, and no two windows of one slot are
open together. On each input day every slot takes its cell step, per layer
as one stacked (n, 1, d + u) @ W.T product and the elementwise ops of
_forward_batch in their operand order, all written into per-layer buffers
through views built once before the day loop. The day a window opens, its
slot's h and c are zeroed; the day it closes, its h goes through the head,
and its prediction is input day t + 1. A 180-day forecast at window 14 takes
193 stacked steps per layer instead of 2,520 single ones, and the state does
not grow with the horizon. An idle slot steps too: before its first window
it repeats window 0's steps, after its last one it carries on from that
window's bounded state (|h| <= 1) on the inputs the open windows read.

It reproduces the window-at-a-time loop (kept in the test suite as an
oracle) bit for bit, because:
  * NumPy's matmul gufunc makes the same M = 1 BLAS call (gemv) for every
    (1, d + u) slice of a stacked 3-D product, with the operands and strides
    of the single window's product. A 2-D (n, d + u) product is one gemm,
    whose rows differ from the same row computed alone: with OpenBLAS on an
    Intel Xeon, 42,058 of 42,160 rows of the 2-D product differed and 0 of
    the stacked one (2 to 33 inputs, 8 to 128 outputs, batch 2 to 32);
  * an elementwise op gives each element the value it gives it in any other
    layout or buffer, so the (n, u) slot-major buffers reproduce the (u, 1)
    columns of the window loop;
  * the head reads the finished window's h as a (1, u) view with the
    strides _forward_batch gives h_last at batch 1, copied when w = 1.
The one exception is the sign of a NaN. Where NaNs of both signs meet in a
product or sum, NumPy's vector loops return the first operand's NaN in whole
8-lane blocks and the second's in the tail after them, so the survivor
depends on the element's place in the array, and a NaN forecast may carry
the other sign bit. That sign reaches no output: the CLI refuses a
non-finite forecast, and a score computed from one is NaN whatever its sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Series
from ..errors import ContractError
from ..transform import make_windows
from .base import FittedModel, ForecasterSpec, LstmConfig, check_shape, descend, fitted

INIT_SCALE = 0.08
FORGET_BIAS = 1.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class LstmLayerParams:
    """One layer's stacked gate weights W (4u, input_dim + u) and biases b (4u,)."""

    W: np.ndarray
    b: np.ndarray

    @property
    def units(self) -> int:
        return self.W.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.W.shape[1] - self.units

    # bias views of the first two gates, in stack order
    @property
    def b_i(self) -> np.ndarray:
        return self.b[: self.units]

    @property
    def b_f(self) -> np.ndarray:
        return self.b[self.units : 2 * self.units]


@dataclass(frozen=True)
class LstmParameters:
    layers: tuple[LstmLayerParams, ...]
    head_w: np.ndarray
    head_b: float
    loss_history: tuple[float, ...] = ()


def lstm_cell_step(
    x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, layer: LstmLayerParams
) -> tuple[np.ndarray, np.ndarray]:
    """One cell update for a single (unbatched) step."""
    u = layer.units
    z = np.concatenate([np.atleast_1d(np.asarray(x, dtype=np.float64)), h_prev])
    if z.size != layer.W.shape[1]:
        raise ContractError(
            f"step input of size {z.size} does not match weight columns {layer.W.shape[1]}"
        )
    a = layer.W @ z + layer.b
    i = _sigmoid(a[:u])
    f = _sigmoid(a[u : 2 * u])
    o = _sigmoid(a[2 * u : 3 * u])
    g = np.tanh(a[3 * u :])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def _forward_batch(params: LstmParameters, X: np.ndarray, cache: bool = True):
    """Run a (batch, window) input matrix through all layers, caching activations.

    Per layer the cache holds Z, whose row t is the step input [x_t, h_{t-1}]
    for every window and whose last row carries the final h, plus one
    (s, g, c_prev, tanh_c) tuple per step in (units, batch) layout. With
    cache=False it keeps neither and returns (preds, None).
    """
    B, w = X.shape
    below = X.T[:, :, None]  # (w, B, d): the layer's input at every step
    caches = []
    for layer in params.layers:
        u = layer.units
        d = layer.input_dim
        Z = np.empty((w + 1, B, d + u))
        Z[:w, :, :d] = below
        del below  # without the cache, this frees the layer below's Z
        Z[0, :, d:] = 0.0
        c = np.zeros((u, B))
        steps = []
        for t in range(w):
            a = Z[t] @ layer.W.T + layer.b
            aT = a.T.copy()
            s = _sigmoid(aT[: 3 * u])
            g = np.tanh(aT[3 * u :])
            i, f, o = s[:u], s[u : 2 * u], s[2 * u :]
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            Z[t + 1, :, d:] = (o * tanh_c).T
            if cache:
                steps.append((s, g, c, tanh_c))
            c = c_new
        if cache:
            caches.append((Z, steps))
        below = Z[1:, :, d:]
    # h_last is contiguous only when w = 1, like the last step of a (B, w, u)
    # sequence: at u = 1, h_last.T @ d_preds is an OpenBLAS dot product, which
    # sums a contiguous vector in another order than a strided one
    h_last = below[-1] if w > 1 else below[-1].copy()
    preds = h_last @ params.head_w + params.head_b
    return preds, (caches, h_last) if cache else None


def _backward_batch(params: LstmParameters, cache, d_preds: np.ndarray) -> LstmParameters:
    """Exact BPTT for the batched forward pass; d_preds is dLoss/dprediction. The
    gradient has params' shapes and an empty loss_history."""
    caches, h_last = cache
    grad_head_w = h_last.T @ d_preds
    grad_head_b = float(np.sum(d_preds))
    d_h_inject = d_preds[None, :] * params.head_w[:, None]

    top = len(params.layers) - 1
    layer_grads: list[LstmLayerParams] = [None] * len(params.layers)  # type: ignore[list-item]
    d_inputs_above: list[np.ndarray] | None = None
    for li in range(top, -1, -1):
        layer = params.layers[li]
        Z, steps = caches[li]
        u = layer.units
        d = layer.input_dim
        B = Z.shape[1]
        w = len(steps)
        dW = np.zeros_like(layer.W)
        db = np.zeros_like(layer.b)
        dh = np.zeros((u, B))
        dc = np.zeros((u, B))
        daT = np.empty((4 * u, B))
        d_gates, d_cand = daT[: 3 * u], daT[3 * u :]
        d_inputs = [None] * w  # gradient w.r.t. this layer's inputs, per step, (d, B)
        for t in range(w - 1, -1, -1):
            s, g, c_prev, tanh_c = steps[t]
            i, f, o = s[:u], s[u : 2 * u], s[2 * u :]
            dh_t = dh
            if li == top:
                if t == w - 1:
                    dh_t = dh_t + d_h_inject
            else:
                dh_t = dh_t + d_inputs_above[t]
            dc_t = dc + dh_t * o * (1.0 - tanh_c * tanh_c)
            np.multiply(dc_t, g, out=daT[:u])  # di
            np.multiply(dc_t, c_prev, out=daT[u : 2 * u])  # df
            np.multiply(dh_t, tanh_c, out=daT[2 * u : 3 * u])  # do
            d_gates *= s
            d_gates *= 1.0 - s
            np.multiply(dc_t, i, out=d_cand)  # dg
            d_cand *= 1.0 - g * g
            da = daT.T.copy()
            dW += da.T @ Z[t]
            db += da.sum(axis=0)
            dzT = (da @ layer.W).T.copy()
            d_inputs[t] = dzT[:d]
            dh = dzT[d:]
            dc = dc_t * f
        layer_grads[li] = LstmLayerParams(W=dW, b=db)
        d_inputs_above = d_inputs
    return LstmParameters(layers=tuple(layer_grads), head_w=grad_head_w, head_b=grad_head_b)


def lstm_forward(params: LstmParameters, window: np.ndarray):
    """Predict from one window; returns (prediction, cache for lstm_backward)."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1 or window.size < 1:
        raise ContractError("window must be a non-empty vector")
    preds, cache = _forward_batch(params, window[None, :])
    return float(preds[0]), cache


def lstm_backward(params: LstmParameters, cache, d_prediction: float) -> LstmParameters:
    """Gradients of the loss contribution given dLoss/dprediction for one window."""
    return _backward_batch(params, cache, np.array([d_prediction], dtype=np.float64))


def check_lstm_parameters(params: LstmParameters, config: LstmConfig) -> None:
    """Raise ValueError unless params has the layer count and shapes config implies:
    W (4u, d + u) and b (4u,) per layer, with d = 1 for the first layer and u
    above it, and head_w (u,)."""
    u = config.num_units
    if len(params.layers) != config.layers:
        raise ValueError(f"{len(params.layers)} LSTM layers, the config has {config.layers}")
    d = 1
    for k, layer in enumerate(params.layers):
        if layer.W.shape != (4 * u, d + u) or layer.b.shape != (4 * u,):
            raise ValueError(
                f"LSTM layer {k}: W {layer.W.shape} and b {layer.b.shape}, "
                f"the config needs {(4 * u, d + u)} and {(4 * u,)}"
            )
        d = u
    check_shape("LSTM head_w", params.head_w, (u,), "the config")


def init_lstm_parameters(config: LstmConfig, rng: np.random.Generator) -> LstmParameters:
    """Seeded uniform init in [-0.08, 0.08]; forget-gate biases start at 1.0.

    Draw order is fixed: per layer W then b, then head weights, then head bias.
    """
    layers = []
    input_dim = 1
    u = config.num_units
    for _ in range(config.layers):
        W = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(4 * u, input_dim + u))
        b = rng.uniform(-INIT_SCALE, INIT_SCALE, size=4 * u)
        b[u : 2 * u] = FORGET_BIAS
        layers.append(LstmLayerParams(W=W, b=b))
        input_dim = u
    head_w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=u)
    head_b = float(rng.uniform(-INIT_SCALE, INIT_SCALE))
    return LstmParameters(layers=tuple(layers), head_w=head_w, head_b=head_b)


def train_lstm(train: Series, config: LstmConfig, seed: int = 0) -> FittedModel:
    """Window the series and fit by mini-batch gradient descent.

    Deterministic for identical (series, config, seed). epochs = 0 returns the
    freshly initialized parameters untouched.
    """
    windows = make_windows(train, config.window)
    X, y = windows.inputs, windows.targets
    n = len(windows)
    rng = np.random.default_rng(seed)
    params = init_lstm_parameters(config, rng)
    batch = n if config.batch_size == 0 else min(config.batch_size, n)
    lr = config.learning_rate

    def loss(params: LstmParameters) -> float:
        # an evaluation forward: no full-batch backprop cache is ever built
        preds = _forward_batch(params, X, cache=False)[0]
        return float(np.mean((preds - y) ** 2))

    def epoch(params: LstmParameters) -> tuple[LstmParameters, float]:
        order = rng.permutation(n) if batch < n else np.arange(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            preds, cache = _forward_batch(params, X[idx])
            err = preds - y[idx]
            total += float(err @ err)
            grads = _backward_batch(params, cache, (2.0 / idx.size) * err)
            params = LstmParameters(
                layers=tuple(
                    LstmLayerParams(W=lp.W - lr * gp.W, b=lp.b - lr * gp.b)
                    for lp, gp in zip(params.layers, grads.layers)
                ),
                head_w=params.head_w - lr * grads.head_w,
                head_b=params.head_b - lr * grads.head_b,
            )
        return params, total / n

    params = descend("LSTM", params, config.epochs, loss, epoch)
    return fitted(ForecasterSpec("lstm", config, seed), params, train)


def forecast_lstm(model: FittedModel, h: int) -> np.ndarray:
    """Recursive multi-step forecast, each prediction appended to the window,
    run as a wavefront on a ring of window slots (module docstring)."""
    params = model.params
    tail = model.train_tail[-model.spec.config.window :]
    w = tail.size
    n = min(w, h)  # window slots; the window of forecast k lives in slot k % n
    out = np.empty(h, dtype=np.float64)
    if h and not w:
        raise ContractError("window must be a non-empty vector")
    # per layer, with every view the day loop reads or writes: the step inputs
    # Z = [x, h_prev] (n, 1, d + u), the products A, the sigmoid rows S, the
    # candidates G, the cell states C and a scratch T. Per slot: its h and c
    layers, resets = [], [[] for _ in range(n)]
    for lp in params.layers:
        u, d = lp.units, lp.input_dim
        Z, A, C = np.zeros((n, 1, d + u)), np.empty((n, 1, 4 * u)), np.zeros((n, u))
        S, G, T = np.empty((n, 3 * u)), np.empty((n, u)), np.empty((n, u))
        layers.append((
            Z, Z[:, 0, :d], Z[:, 0, d:], lp.W.T, lp.b, A, A[:, 0, : 3 * u], A[:, 0, 3 * u :],
            S, S[:, :u], S[:, u : 2 * u], S[:, 2 * u :], G, C, T,
        ))
        for k in range(n):
            resets[k] += (Z[k, 0, d:], C[k])
    heads = [Z[k, :, d:] for k in range(n)]  # the top layer's h as (1, u) views
    for day in range(h + w - 1 if h else 0):
        if day < h:  # the window of forecast `day` opens in its slot
            for state in resets[day % n]:
                state.fill(0.0)
        below = tail[day] if day < w else out[day - w]
        for Z, Zx, Zh, Wt, b, A, As, Ag, S, i, f, o, G, C, T in layers:
            Zx[...] = below
            np.matmul(Z, Wt, out=A)
            np.add(A, b, out=A)
            np.negative(As, out=S)  # S = 1.0 / (1.0 + exp(-a))
            np.exp(S, out=S)
            np.add(1.0, S, out=S)
            np.divide(1.0, S, out=S)
            np.tanh(Ag, out=G)
            np.multiply(f, C, out=C)  # c = f * c + i * g
            np.multiply(i, G, out=T)
            np.add(C, T, out=C)
            np.tanh(C, out=T)
            np.multiply(o, T, out=Zh)  # h = o * tanh(c)
            below = Zh
        if day >= w - 1:  # the window of forecast day - w + 1 has read its last value
            h_last = heads[(day - w + 1) % n] if w > 1 else heads[0].copy()
            out[day - w + 1] = (h_last @ params.head_w + params.head_b)[0]
    return out


def insample_lstm(model: FittedModel, train: Series) -> tuple[np.ndarray, np.ndarray]:
    """Window predictions over the training frame."""
    config: LstmConfig = model.spec.config
    windows = make_windows(train, config.window)
    preds, _ = _forward_batch(model.params, windows.inputs, cache=False)
    return windows.targets, preds
