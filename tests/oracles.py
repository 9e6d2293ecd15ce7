"""Independent reference implementations used as test oracles.

Everything here is written from the defining formulas with plain loops, so a
failure always points at the package, not at a shared helper. The gradient
probes check analytic gradients against central finite differences at
well-conditioned parameter points.
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
import json
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import date, timedelta
from pathlib import Path
from typing import get_type_hints

import numpy as np

from epiforecast.backtest import (
    ARIMA_DEFAULT_D,
    ARIMA_DEFAULT_P_MAX,
    ARIMA_DEFAULT_Q_MAX,
    DEFAULT_GRIDS,
    DISPLAY_NAMES,
    EvalProtocol,
    FoldScore,
    _failure,
    _fold_mse,
    fit_normalized,
)
from epiforecast.cli import UsageError, _parse_bool
from epiforecast.data import (
    TARGETS,
    EpidemicDataset,
    _first_decrease,
    _iso_date,
    _normalize_header,
    train_test_split,
)
from epiforecast.errors import (
    ContractError,
    DivergenceError,
    ExhaustedGridError,
    ParseError,
    SingularFitError,
    StructuralError,
    ValidationError,
)
from epiforecast.forecasters import KINDS, ForecasterSpec
from epiforecast.forecasters.additive import AdditiveParams
from epiforecast.forecasters.arima import (
    AR_ROOT_LIMIT,
    MAX_ITER,
    NEAR_TIE_FACTOR,
    REL_TOL,
    ArimaParams,
    _hannan_rissanen_init,
    _ma_filter,
    _root_warnings,
    arima_orders,
    css_residuals,
    fit_arima,
)
from epiforecast.forecasters.autoreg import ArParams, ar_sum, lag_matrix
from epiforecast.forecasters.base import CONFIG_TYPES, LstmConfig, recursive_forecast
from epiforecast.forecasters.lstm import (
    LstmLayerParams,
    LstmParameters,
    init_lstm_parameters,
    lstm_backward,
    lstm_forward,
)
from epiforecast.forecasters.mlp import MlpParams, _forward, mlp_gradients
from epiforecast.forecasters.serialize import SCHEMA_VERSION, _encode
from epiforecast.transform import difference_values, integrate_forecast

FD_EPS = 1e-5


def simulate_arma(phi=(), theta=(), n=1000, sigma=1.0, seed=0, c=0.0, burn=300):
    """Simulate an ARMA(p, q) path by direct recursion and drop the burn-in.

    z[t] = c + sum_i phi[i] z[t-i] + sum_j theta[j] eps[t-j] + eps[t], with
    out-of-range lags treated as zero.
    """
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, sigma, n + burn)
    p, q = len(phi), len(theta)
    z = np.zeros(n + burn)
    for t in range(n + burn):
        acc = c + eps[t]
        for i in range(1, p + 1):
            if t - i >= 0:
                acc += phi[i - 1] * z[t - i]
        for j in range(1, q + 1):
            if t - j >= 0:
                acc += theta[j - 1] * eps[t - j]
        z[t] = acc
    return z[burn:]


# --- ARIMA CSS kernel reference ---------------------------------------------


def oracle_ma_recursion(base, theta):
    """u_t = b_t - sum_j theta_j u_{t-j} over the lags that exist, in j order."""
    q = len(theta)
    u = [0.0] * len(base)
    for t in range(len(base)):
        acc = base[t]
        for j in range(1, q + 1):
            if t - j >= 0:
                acc -= theta[j - 1] * u[t - j]
        u[t] = acc
    return u


def oracle_css_residuals(z, p, q, beta):
    """Conditional residuals for t = p..m-1 with the same elementwise
    association as the package, so results are comparable bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    m = z.size
    e = z[p:] - beta[0]
    for i in range(1, p + 1):
        e = e - beta[i] * z[p - i : m - i]
    if q == 0:
        return e
    return np.array(oracle_ma_recursion(e.tolist(), beta[1 + p :].tolist()), dtype=np.float64)


def oracle_css_jacobian(z, p, q, beta):
    """Residuals and d(residual)/d(params), filtering every column on its own:
    the intercept, each AR lag, and each MA lag's base -e_{t-j}."""
    z = np.asarray(z, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    m = z.size
    T = m - p
    eps = oracle_css_residuals(z, p, q, beta)
    k = 1 + p + q
    J = np.empty((T, k), dtype=np.float64)
    J[:, 0] = -1.0
    for i in range(1, p + 1):
        J[:, i] = -z[p - i : m - i]
    if q == 0:
        return eps, J
    eps_l = eps.tolist()
    theta = beta[1 + p :].tolist()
    for col in range(k):
        if col < 1 + p:
            base = J[:, col].tolist()
        else:
            j_lag = col - p
            base = [-(eps_l[t - j_lag]) if t - j_lag >= 0 else 0.0 for t in range(T)]
        J[:, col] = oracle_ma_recursion(base, theta)
    return eps, J


# --- ARIMA facts before each was written once ----------------------------------
# arima.py's two root tests, its second complexity key, its two residual paths,
# its guarded MA forecast loop and its per-lag Jacobian base columns, as they
# were; root notes, screens, choices, scores and forecasts must stay
# bit-identical to them.


def oracle_root_warnings(order, beta):
    p, q = order.p, order.q
    notes = []
    if p:
        coeffs = np.concatenate((-beta[1 : 1 + p][::-1], [1.0]))
        roots = np.roots(coeffs)
        if roots.size and np.min(np.abs(roots)) < 1.0:
            notes.append("ar roots inside the unit circle: forecasts are non-stationary")
    if q:
        coeffs = np.concatenate((beta[1 + p :][::-1], [1.0]))
        roots = np.roots(coeffs)
        if roots.size and np.min(np.abs(roots)) < 1.0:
            notes.append("ma roots inside the unit circle: representation is non-invertible")
    return tuple(notes)


def oracle_max_ar_root_modulus(phi):
    """Largest modulus among the reciprocal roots of the AR polynomial."""
    if phi.size == 0:
        return 0.0
    coeffs = np.concatenate((-phi[::-1], [1.0]))
    mods = np.abs(np.roots(coeffs))
    if mods.size == 0 or mods.min() == 0.0:
        return 0.0
    return float(1.0 / mods.min())


def oracle_insample_arima(model, train):
    order, params = model.spec.config, model.params
    z, _ = difference_values(train.values, order.d)
    beta = np.concatenate(([params.c], params.phi, params.theta))
    eps = css_residuals(z, order, beta)
    actual = train.values[order.d + order.p :]
    return actual, actual - eps


def oracle_validation_onestep_mse(model, train, validation):
    order = model.spec.config
    full = np.concatenate([train.values, validation.values])
    z, _ = difference_values(full, order.d)
    params = model.params
    beta = np.concatenate(([params.c], params.phi, params.theta))
    eps = css_residuals(z, order, beta)
    tail = eps[-len(validation) :]
    with np.errstate(over="ignore"):
        return float(np.mean(tail * tail))


def oracle_grid_search_arima(train, validation, p_max, q_max):
    """The old search without its logging: screen, score, then the simplest
    near-tie by its own (p + d + q, d, p, score) key."""
    results = []
    for order in arima_orders(p_max, q_max):
        try:
            model = fit_arima(train, order)
            if oracle_max_ar_root_modulus(model.params.phi) > AR_ROOT_LIMIT:
                continue
            score = oracle_validation_onestep_mse(model, train, validation)
        except Exception:  # noqa: BLE001 - a skipped candidate, as in the package
            continue
        results.append((score, order, model))
    best_score = min(score for score, _, _ in results)
    threshold = best_score * (1.0 + NEAR_TIE_FACTOR)
    tied = [entry for entry in results if entry[0] <= threshold]
    score, order, model = min(
        tied, key=lambda e: (e[1].p + e[1].d + e[1].q, e[1].d, e[1].p, e[0])
    )
    return order, model, score


def oracle_forecast_arima_guarded(model, h):
    """forecast_arima with d = 0 skipping difference_values and each MA lag
    guarded on its own."""
    order, params = model.spec.config, model.params
    p, d, q = order.p, order.d, order.q
    tail = model.train_tail
    z_tail, _ = difference_values(tail, d) if d else (tail, None)
    resid = params.resid_tail

    def step(z, k):
        acc = ar_sum(params.c, params.phi, z)
        for j in range(1, q + 1):
            lag = k - j
            if lag < 0 and resid.size + lag >= 0:
                acc += params.theta[j - 1] * resid[lag]
        return acc

    diffs = recursive_forecast(z_tail[-p:] if p else [], h, step)
    return integrate_forecast(diffs, tail, d)


def oracle_css_jacobian_lag_loop(z, order, beta, eps):
    """_css_jacobian with its intercept and AR base columns set one by one."""
    p, q = order.p, order.q
    m = z.size
    T = m - p
    J = np.zeros((T, 1 + p + q), dtype=np.float64)
    J[:, 0] = -1.0
    for i in range(1, p + 1):
        J[:, i] = -z[p - i : m - i]
    if q == 0:
        return J
    theta = beta[1 + p :].tolist()
    for col in range(1 + p):
        J[:, col] = _ma_filter(J[:, col].tolist(), theta)
    ma = np.array(_ma_filter([0.0] + (-eps[:-1]).tolist(), theta), dtype=np.float64)
    for lag in range(min(q, T)):
        J[lag:, 1 + p + lag] = ma[: T - lag]
    return J


# --- ARIMA Jacobian and Levenberg-Marquardt loop with their per-call set-up ----
# _css_jacobian with its base columns from lag_matrix, negated in place and read
# back one tolist per column, and fit_arima's loop entering np.errstate, reading
# np.finfo and calling np.isfinite on every trial, as they were; fits must stay
# bit-identical to them.


def oracle_css_jacobian_lag_matrix(z, order, beta, eps):
    """_css_jacobian with lag_matrix base columns and one tolist per column."""
    p, q = order.p, order.q
    T = z.size - p
    J = np.zeros((T, 1 + p + q), dtype=np.float64)
    J[:, : 1 + p] = -lag_matrix(z, p)[0]
    if q == 0:
        return J
    theta = beta[1 + p :].tolist()
    for col in range(1 + p):
        J[:, col] = _ma_filter(J[:, col].tolist(), theta)
    ma = np.array(_ma_filter([0.0] + (-eps[:-1]).tolist(), theta), dtype=np.float64)
    for lag in range(min(q, T)):
        J[lag:, 1 + p + lag] = ma[: T - lag]
    return J


def _oracle_sum_of_squares(e):
    with np.errstate(over="ignore"):
        return float(e @ e)


def oracle_fit_arima_params(
    train, order, residuals=css_residuals, jacobian=oracle_css_jacobian_lag_matrix
):
    """fit_arima's ArimaParams from its loop as it was, with the residual and
    Jacobian functions given (so a caller can count their calls)."""
    p, d, q = order.p, order.d, order.q
    n = len(train)
    if n < p + q + d + 2:
        raise ContractError(f"series of length {n} too short for ARIMA({p},{d},{q})")
    z, _ = difference_values(train.values, d)
    beta = _hannan_rissanen_init(z, order)
    eps = residuals(z, order, beta)
    s = _oracle_sum_of_squares(eps)
    if not np.isfinite(s):
        raise DivergenceError("ARIMA starting values give a non-finite objective")
    lam = 1e-3
    identity = np.eye(beta.size)
    for _ in range(MAX_ITER):
        J = jacobian(z, order, beta, eps)
        g = J.T @ eps
        A = J.T @ J
        rel = 0.0
        for _ in range(30):
            try:
                delta = np.linalg.solve(A + lam * identity, -g)
            except np.linalg.LinAlgError:
                lam = min(lam * 10.0, 1e12)
                continue
            candidate = beta + delta
            eps_new = residuals(z, order, candidate)
            s_new = _oracle_sum_of_squares(eps_new)
            if np.isfinite(s_new) and s_new < s:
                rel = (s - s_new) / max(s, np.finfo(float).tiny)
                beta, eps, s = candidate, eps_new, s_new
                lam = max(lam / 10.0, 1e-12)
                break
            lam = min(lam * 10.0, 1e12)
        if rel < REL_TOL:
            break
    return ArimaParams(
        c=float(beta[0]),
        phi=beta[1 : 1 + p].copy(),
        theta=beta[1 + p :].copy(),
        resid_tail=eps[len(eps) - q :].copy(),
        warnings=_root_warnings(order, beta),
    )


# --- Hannan-Rissanen start and decrease checks, as they were -----------------
# _hannan_rissanen_init with its own second-stage column loop, and the four
# decrease checks of data.py before they became _first_decrease.


def oracle_hannan_rissanen_init(z, order):
    """Two-stage starting values with the second-stage design filled column by column."""
    p, q = order.p, order.q
    m = z.size
    if q == 0:
        if p == 0:
            return np.array([float(np.mean(z))])
        X, y = lag_matrix(z, p)
        beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        if rank < p + 1:
            raise SingularFitError(f"ARIMA AR stage is rank deficient (p = {p})")
        return beta
    fallback = np.concatenate(([float(np.mean(z))], np.zeros(p + q)))
    long_order = max(p + q, int(round(12.0 * (m / 100.0) ** 0.25)))
    long_order = min(long_order, (m - q - p - 2) // 2)
    if long_order < 1:
        return fallback
    X, y = lag_matrix(z, long_order)
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < long_order + 1:
        return fallback
    resid = np.zeros(m, dtype=np.float64)
    resid[long_order:] = y - X @ beta
    start = long_order + q
    rows = m - start
    if rows < 1 + p + q + 1:
        return fallback
    D = np.empty((rows, 1 + p + q), dtype=np.float64)
    D[:, 0] = 1.0
    for i in range(1, p + 1):
        D[:, i] = z[start - i : m - i]
    for j in range(1, q + 1):
        D[:, p + j] = resid[start - j : m - j]
    beta2, _, rank2, _ = np.linalg.lstsq(D, z[start:], rcond=None)
    if rank2 < 1 + p + q:
        return fallback
    return beta2


def oracle_first_decrease_pairwise(values):
    """parse_csv's loop over a column's neighbours."""
    for i in range(1, len(values)):
        if values[i] < values[i - 1]:
            return i
    return None


def oracle_first_decrease_argmax(values):
    """validate_series' check on the differences of a series."""
    diffs = np.diff(values)
    if diffs.size and float(diffs.min()) < 0:
        return int(np.argmax(diffs < 0)) + 1
    return None


def oracle_column_monotone(col):
    """EpidemicDataset.column_monotone."""
    return bool(np.all(np.diff(col) >= 0))


def oracle_first_negative_increment(values):
    """cumulative_to_incident's lookup of its first negative increment."""
    inc = np.empty_like(values)
    inc[0] = values[0]
    inc[1:] = np.diff(values)
    negative = inc[1:] < 0
    return int(np.argmax(negative)) + 1 if negative.any() else None


# --- LSTM gradient probe ----------------------------------------------------


def _lstm_loss(params, window, target):
    pred, _ = lstm_forward(params, window)
    return (pred - target) ** 2


def _lstm_perturbed(params, layer_idx, field, index, delta):
    layers = list(params.layers)
    if layer_idx is not None:
        layer = layers[layer_idx]
        W = layer.W.copy()
        b = layer.b.copy()
        if field == "W":
            W[index] += delta
        else:
            b[index] += delta
        layers[layer_idx] = LstmLayerParams(W, b)
        return LstmParameters(tuple(layers), params.head_w, params.head_b)
    if field == "head_w":
        head_w = params.head_w.copy()
        head_w[index] += delta
        return LstmParameters(params.layers, head_w, params.head_b)
    return LstmParameters(params.layers, params.head_w, params.head_b + delta)


def lstm_gradcheck_max_rel_err(seed: int) -> float:
    """Worst relative gap |fd - analytic| / max(1, |analytic|) over a random
    probe: a two-layer net rescaled off its tiny init so every sampled
    coordinate's finite difference sits well above rounding noise."""
    rng = np.random.default_rng(seed)
    config = LstmConfig(num_units=4, window=6, epochs=1, learning_rate=0.01)
    params = init_lstm_parameters(config, rng)
    layers = tuple(
        LstmLayerParams(layer.W * 5.0, layer.b * 5.0) for layer in params.layers
    )
    params = LstmParameters(layers, params.head_w * 5.0, params.head_b * 5.0)
    window = rng.uniform(-1.0, 1.0, size=config.window)
    target = float(rng.uniform(-1.0, 1.0))

    pred, cache = lstm_forward(params, window)
    grads = lstm_backward(params, cache, 2.0 * (pred - target))

    checks = []
    for li, layer in enumerate(params.layers):
        flat = rng.choice(layer.W.size, 6, replace=False)
        for (r, col) in zip(*np.unravel_index(flat, layer.W.shape)):
            checks.append((li, "W", (int(r), int(col)), grads.layers[li].W[r, col]))
        for r in rng.choice(layer.b.size, 3, replace=False):
            checks.append((li, "b", int(r), grads.layers[li].b[r]))
    for i in range(params.head_w.size):
        checks.append((None, "head_w", i, grads.head_w[i]))
    checks.append((None, "head_b", None, grads.head_b))

    worst = 0.0
    for layer_idx, field, index, analytic in checks:
        up = _lstm_loss(_lstm_perturbed(params, layer_idx, field, index, FD_EPS), window, target)
        dn = _lstm_loss(_lstm_perturbed(params, layer_idx, field, index, -FD_EPS), window, target)
        fd = (up - dn) / (2 * FD_EPS)
        worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
    return worst


# --- LSTM batch kernel reference --------------------------------------------
# The batch-major forward and backward passes the unit-major kernel in
# forecasters/lstm.py replaced; the kernel must reproduce them bit for bit.


@dataclass(frozen=True)
class LstmGradients:
    layers: tuple[LstmLayerParams, ...]
    head_w: np.ndarray
    head_b: float


def _oracle_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_lstm_forward_batch(params, X):
    """(B, w) windows -> (preds, cache): one concatenate and three sigmoid
    calls per step on (B, u) gate slices of the (B, 4u) pre-activations."""
    B, w = X.shape
    layer_inputs = X[:, :, None]  # (B, w, 1)
    caches = []
    for layer in params.layers:
        u = layer.units
        h = np.zeros((B, u))
        c = np.zeros((B, u))
        steps = []
        hs = np.empty((B, w, u))
        for t in range(w):
            z = np.concatenate([layer_inputs[:, t, :], h], axis=1)
            a = z @ layer.W.T + layer.b
            i = _oracle_sigmoid(a[:, :u])
            f = _oracle_sigmoid(a[:, u : 2 * u])
            o = _oracle_sigmoid(a[:, 2 * u : 3 * u])
            g = np.tanh(a[:, 3 * u :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            steps.append((z, i, f, o, g, c, tanh_c))
            h, c = h_new, c_new
            hs[:, t, :] = h
        caches.append(steps)
        layer_inputs = hs
    h_last = layer_inputs[:, -1, :]
    preds = h_last @ params.head_w + params.head_b
    return preds, (caches, h_last)


def oracle_lstm_backward_batch(params, cache, d_preds):
    """Exact BPTT over an oracle_lstm_forward_batch cache, batch-major."""
    caches, h_last = cache
    grad_head_w = h_last.T @ d_preds
    grad_head_b = float(np.sum(d_preds))
    d_h_inject = d_preds[:, None] * params.head_w[None, :]

    layer_grads = [None] * len(params.layers)
    d_inputs_above = None
    for li in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[li]
        steps = caches[li]
        u = layer.units
        d_in = layer.input_dim
        B = steps[0][0].shape[0]
        w = len(steps)
        dW = np.zeros_like(layer.W)
        db = np.zeros_like(layer.b)
        dh = np.zeros((B, u))
        dc = np.zeros((B, u))
        d_inputs = [None] * w
        for t in range(w - 1, -1, -1):
            z, i, f, o, g, c_prev, tanh_c = steps[t]
            dh_t = dh
            if li == len(params.layers) - 1:
                if t == w - 1:
                    dh_t = dh_t + d_h_inject
            else:
                dh_t = dh_t + d_inputs_above[t]
            dc_t = dc + dh_t * o * (1.0 - tanh_c * tanh_c)
            do = dh_t * tanh_c
            di = dc_t * g
            dg = dc_t * i
            df = dc_t * c_prev
            da = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    do * o * (1.0 - o),
                    dg * (1.0 - g * g),
                ],
                axis=1,
            )
            dW += da.T @ z
            db += da.sum(axis=0)
            dz = da @ layer.W
            d_inputs[t] = dz[:, :d_in]
            dh = dz[:, d_in:]
            dc = dc_t * f
        layer_grads[li] = LstmLayerParams(W=dW, b=db)
        d_inputs_above = d_inputs
    return LstmGradients(layers=tuple(layer_grads), head_w=grad_head_w, head_b=grad_head_b)


def oracle_train_lstm_params(X, y, config, seed):
    """train_lstm's loop over the oracle kernel: (params, loss_history).

    Same init draws, permutations, mini-batch slicing, updates and loss
    accumulation as the package's trainer, so every byte must agree."""
    n = len(y)
    rng = np.random.default_rng(seed)
    params = init_lstm_parameters(config, rng)
    batch = n if config.batch_size == 0 else min(config.batch_size, n)
    preds, _ = oracle_lstm_forward_batch(params, X)
    losses = [float(np.mean((preds - y) ** 2))]
    lr = config.learning_rate
    for _ in range(config.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            preds, cache = oracle_lstm_forward_batch(params, X[idx])
            err = preds - y[idx]
            epoch_loss += float(err @ err)
            grads = oracle_lstm_backward_batch(params, cache, (2.0 / idx.size) * err)
            params = LstmParameters(
                layers=tuple(
                    LstmLayerParams(W=lp.W - lr * gp.W, b=lp.b - lr * gp.b)
                    for lp, gp in zip(params.layers, grads.layers)
                ),
                head_w=params.head_w - lr * grads.head_w,
                head_b=params.head_b - lr * grads.head_b,
            )
        losses.append(epoch_loss / n)
    preds, _ = oracle_lstm_forward_batch(params, X)
    losses.append(float(np.mean((preds - y) ** 2)))
    return params, tuple(losses)


# --- MLP gradient probe -----------------------------------------------------


def mlp_gradcheck_max_rel_err(seed: int) -> float:
    """Every coordinate of a random one-hidden-layer net vs central FD."""
    rng = np.random.default_rng(seed)
    n, d, h = 8, 10, 5
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = rng.uniform(-1.0, 1.0, size=n)
    params = MlpParams(
        hidden_w=rng.uniform(-0.5, 0.5, size=(h, d)),
        hidden_b=rng.uniform(-0.5, 0.5, size=h),
        out_w=rng.uniform(-0.5, 0.5, size=h),
        out_b=float(rng.uniform(-0.5, 0.5)),
    )
    grads, _ = mlp_gradients(params, X, y)

    def loss(p):
        e = _forward(p, X) - y
        return float(np.mean(e * e))

    def bump(field, idx, delta):
        hw = params.hidden_w.copy()
        hb = params.hidden_b.copy()
        ow = params.out_w.copy()
        ob = params.out_b
        if field == "hidden_w":
            hw[idx] += delta
        elif field == "hidden_b":
            hb[idx] += delta
        elif field == "out_w":
            ow[idx] += delta
        else:
            ob += delta
        return MlpParams(hw, hb, ow, ob)

    coords = (
        [("hidden_w", (i, j), grads.hidden_w[i, j]) for i in range(h) for j in range(d)]
        + [("hidden_b", i, grads.hidden_b[i]) for i in range(h)]
        + [("out_w", i, grads.out_w[i]) for i in range(h)]
        + [("out_b", None, grads.out_b)]
    )
    worst = 0.0
    for field, idx, analytic in coords:
        fd = (loss(bump(field, idx, FD_EPS)) - loss(bump(field, idx, -FD_EPS))) / (2 * FD_EPS)
        worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
    return worst


# --- MLP two-branch reference ------------------------------------------------
# The forward pass and gradient as they were written before the hidden layer
# and the h = 0 case shared one path; the package must agree bit for bit.


def oracle_mlp_forward(params, X):
    if params.hidden_w is None:
        return X @ params.out_w + params.out_b
    H = np.tanh(X @ params.hidden_w.T + params.hidden_b)
    return H @ params.out_w + params.out_b


def oracle_mlp_gradients(params, X, y):
    """(hidden_w, hidden_b, out_w, out_b) gradients of the mean squared error,
    hidden ones None when h = 0, plus the predictions."""
    n = len(y)
    if params.hidden_w is not None:
        A = X @ params.hidden_w.T + params.hidden_b
        H = np.tanh(A)
        preds = H @ params.out_w + params.out_b
        d_preds = (2.0 / n) * (preds - y)
        dH = np.outer(d_preds, params.out_w) * (1.0 - H * H)
        grads = (dH.T @ X, dH.sum(axis=0), H.T @ d_preds, float(np.sum(d_preds)))
        return grads, preds
    preds = X @ params.out_w + params.out_b
    d_preds = (2.0 / n) * (preds - y)
    return (None, None, X.T @ d_preds, float(np.sum(d_preds))), preds


def oracle_mlp_init(h, d, seed):
    """fit_mlp's initial parameters: the same draws in the same order."""
    rng = np.random.default_rng(seed)
    if h > 0:
        hidden_w = rng.uniform(-0.08, 0.08, size=(h, d))
        hidden_b = rng.uniform(-0.08, 0.08, size=h)
        out_w = rng.uniform(-0.08, 0.08, size=h)
    else:
        hidden_w = None
        hidden_b = None
        out_w = rng.uniform(-0.08, 0.08, size=d)
    return MlpParams(hidden_w, hidden_b, out_w, float(rng.uniform(-0.08, 0.08)))


def oracle_fit_mlp_params(X, y, config, seed):
    """fit_mlp's training loop over the two-branch reference: (params, loss_history)."""
    h = config.hidden_units
    params = oracle_mlp_init(h, X.shape[1], seed)
    lr = config.learning_rate
    losses = [float(np.mean((oracle_mlp_forward(params, X) - y) ** 2))]
    for _ in range(config.epochs):
        (g_hw, g_hb, g_ow, g_ob), preds = oracle_mlp_gradients(params, X, y)
        params = MlpParams(
            hidden_w=params.hidden_w - lr * g_hw if h > 0 else None,
            hidden_b=params.hidden_b - lr * g_hb if h > 0 else None,
            out_w=params.out_w - lr * g_ow,
            out_b=params.out_b - lr * g_ob,
        )
        err = preds - y
        losses.append(float(np.mean(err * err)))
    losses.append(float(np.mean((oracle_mlp_forward(params, X) - y) ** 2)))
    return params, tuple(losses)


# --- Model-file params codec reference ---------------------------------------
# The hand-written per-kind codec the generic dataclass walk in
# forecasters/serialize.py replaced; model files must stay byte-identical to it.


def oracle_params_to_dict(kind: str, params) -> dict:
    if kind == "autoreg":
        return {"c": params.c, "phi": params.phi.tolist()}
    if kind == "arima":
        return {
            "c": params.c,
            "phi": params.phi.tolist(),
            "theta": params.theta.tolist(),
            "resid_tail": params.resid_tail.tolist(),
            "warnings": list(params.warnings),
        }
    if kind == "lstm":
        return {
            "layers": [{"W": l.W.tolist(), "b": l.b.tolist()} for l in params.layers],
            "head_w": params.head_w.tolist(),
            "head_b": params.head_b,
            "loss_history": list(params.loss_history),
        }
    if kind == "mlp":
        return {
            "hidden_w": None if params.hidden_w is None else params.hidden_w.tolist(),
            "hidden_b": None if params.hidden_b is None else params.hidden_b.tolist(),
            "out_w": params.out_w.tolist(),
            "out_b": params.out_b,
            "next_dow": params.next_dow,
            "loss_history": list(params.loss_history),
        }
    return {
        "beta": params.beta.tolist(),
        "changepoints": params.changepoints.tolist(),
        "n_train": params.n_train,
    }


def oracle_params_from_dict(kind: str, d: dict):
    arr = lambda x: np.asarray(x, dtype=np.float64)  # noqa: E731
    if kind == "autoreg":
        return ArParams(c=float(d["c"]), phi=arr(d["phi"]))
    if kind == "arima":
        return ArimaParams(
            c=float(d["c"]),
            phi=arr(d["phi"]),
            theta=arr(d["theta"]),
            resid_tail=arr(d["resid_tail"]),
            warnings=tuple(d["warnings"]),
        )
    if kind == "lstm":
        return LstmParameters(
            layers=tuple(
                LstmLayerParams(W=arr(l["W"]), b=arr(l["b"])) for l in d["layers"]
            ),
            head_w=arr(d["head_w"]),
            head_b=float(d["head_b"]),
            loss_history=tuple(d["loss_history"]),
        )
    if kind == "mlp":
        return MlpParams(
            hidden_w=None if d["hidden_w"] is None else arr(d["hidden_w"]),
            hidden_b=None if d["hidden_b"] is None else arr(d["hidden_b"]),
            out_w=arr(d["out_w"]),
            out_b=float(d["out_b"]),
            next_dow=d["next_dow"],
            loss_history=tuple(d["loss_history"]),
        )
    return AdditiveParams(
        beta=arr(d["beta"]),
        changepoints=arr(d["changepoints"]),
        n_train=int(d["n_train"]),
    )


# --- Transform loops reference -----------------------------------------------


def oracle_integrate_values(diffed, heads):
    """Undo len(heads) difference passes with explicit running sums."""
    out = np.asarray(diffed, dtype=np.float64)
    for head in reversed(heads):
        levels = np.empty(out.size + 1, dtype=np.float64)
        levels[0] = head
        for i in range(out.size):
            levels[i + 1] = levels[i] + out[i]
        out = levels
    return out


def oracle_integrate_forecast(diff_forecast, level_tail, d):
    """Integrate d-times-differenced forecasts, resuming each pass's running
    sum from the last observed value of the matching differenced series."""
    level_tail = np.asarray(level_tail, dtype=np.float64)
    out = np.asarray(diff_forecast, dtype=np.float64)
    for j in range(d, 0, -1):
        tail = level_tail
        for _ in range(j - 1):
            tail = np.diff(tail)
        running = float(tail[-1])
        levels = np.empty_like(out)
        for i in range(out.size):
            running = running + out[i]
            levels[i] = running
        out = levels
    return out


def oracle_windows(values, w):
    """Row i holds values[i : i + w]; its target is values[i + w]."""
    v = np.asarray(values, dtype=np.float64)
    inputs = np.empty((v.size - w, w), dtype=np.float64)
    for i in range(v.size - w):
        inputs[i] = v[i : i + w]
    return inputs, v[w:].copy()


# --- Recursive forecast loops reference ---------------------------------------
# The per-family feedback loops that base.recursive_forecast replaced; every
# forecast must stay bit-identical to them.


def oracle_forecast_autoreg(model, h):
    params = model.params
    p = params.phi.size
    history = list(model.train_tail[-p:])
    out = np.empty(h, dtype=np.float64)
    for k in range(h):
        acc = params.c
        for i in range(1, p + 1):
            acc += params.phi[i - 1] * history[-i]
        out[k] = acc
        history.append(acc)
    return out


def oracle_forecast_arima(model, h):
    order, params = model.spec.config, model.params
    p, d, q = order.p, order.d, order.q
    tail = model.train_tail
    z_tail = tail
    for _ in range(d):
        z_tail = np.diff(z_tail)
    z_hist = list(z_tail[-p:]) if p else []
    resid = list(params.resid_tail)
    diffs = np.empty(h, dtype=np.float64)
    for k in range(h):
        acc = params.c
        for i in range(1, p + 1):
            acc += params.phi[i - 1] * z_hist[-i]
        for j in range(1, q + 1):
            lag = k - j
            if lag < 0 and len(resid) + lag >= 0:
                acc += params.theta[j - 1] * resid[lag]
        diffs[k] = acc
        if p:
            z_hist.append(acc)
    return oracle_integrate_forecast(diffs, tail, d)


def oracle_forecast_lstm(model, h):
    window = list(model.train_tail[-model.spec.config.window :])
    out = np.empty(h, dtype=np.float64)
    for k in range(h):
        pred, _ = lstm_forward(model.params, np.array(window))
        out[k] = pred
        window.pop(0)
        window.append(pred)
    return out


def oracle_forecast_mlp(model, h):
    config, params = model.spec.config, model.params
    window = list(model.train_tail[-config.window :])
    out = np.empty(h, dtype=np.float64)
    for k in range(h):
        x = np.array(window, dtype=np.float64)[None, :]
        if config.seasonal:
            onehot = np.zeros((1, 7))
            onehot[0, (params.next_dow + k) % 7] = 1.0
            x = np.concatenate([x, onehot], axis=1)
        pred = float(oracle_mlp_forward(params, x)[0])
        out[k] = pred
        window.pop(0)
        window.append(pred)
    return out


# --- Output writers -----------------------------------------------------------
# The idioms the CLI and save_model wrote their files with before every output
# went through data.write_output; outputs must stay byte-identical to them.


def oracle_write_csv(path, header, rows):
    """The forecast and plot CSV writer: csv.writer on a file opened with newline=""."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def oracle_write_json(path, doc):
    """The model file, report and sidecar writer."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# --- CSV text builders ----------------------------------------------------------
# cmd_forecast and cmd_plotdata built their CSV text this way before data.csv_text.


def oracle_forecast_csv_text(rows):
    """forecast.csv from (day, target, label, value) rows, values already floored."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["date", "target", "model", "point_forecast"])
    for day, target, label, value in rows:
        writer.writerow([day, target, label, f"{value:.6f}"])
    return text.getvalue()


def oracle_plot_csv_text(observed, blocks):
    """plot_<target>.csv from the observed Series and (day, label, value) blocks."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["date", "series_name", "value"])
    for i, value in enumerate(observed.values):
        writer.writerow([observed.date_at(i).isoformat(), "observed", f"{value:.6f}"])
    for day, model_label, value in blocks:
        writer.writerow([day, model_label, f"{value:.6f}"])
    return text.getvalue()


# --- candidate grids --------------------------------------------------------------
# The CLI and the harness built their candidate lists this way before
# backtest.expand_grid expanded ARIMA's grid too: the CLI filled an [arima]
# section's gaps from the ARIMA_DEFAULT_* constants, and the CLI's defaults went
# kind -> display name -> kind through default_model_grids.


def oracle_expand_product(kind, grid, seed):
    """One spec per combination of the grid's value lists, last key fastest."""
    keys = list(grid)
    return [
        ForecasterSpec(kind, CONFIG_TYPES[kind](**dict(zip(keys, combo))), seed)
        for combo in itertools.product(*(grid[k] for k in keys))
    ]


def oracle_arima_default_candidates(seed=0):
    orders = arima_orders(ARIMA_DEFAULT_P_MAX, ARIMA_DEFAULT_Q_MAX, ARIMA_DEFAULT_D)
    return [ForecasterSpec("arima", order, seed) for order in orders]


def oracle_default_model_grids(seed=0):
    grids = {
        kind: oracle_expand_product(kind, grid, seed)
        for kind, grid in DEFAULT_GRIDS.items()
        if kind != "arima"
    }
    grids["arima"] = oracle_arima_default_candidates(seed)
    return [(name, grids[kind]) for kind, name in DISPLAY_NAMES.items()]


def oracle_grid_section(ini, kind, seed):
    options = {k: [v.strip() for v in raw.split(",")] for k, raw in ini.items(kind)}
    config_type = CONFIG_TYPES[kind]
    types = get_type_hints(config_type)
    known = ("p_max", "q_max", "d") if kind == "arima" else types
    unknown = set(options) - set(known)
    if unknown:
        raise UsageError(f"unknown fields {sorted(unknown)} in grid section [{kind}]")
    if kind == "arima":
        for key in ("p_max", "q_max"):
            if len(options.get(key, ())) > 1:
                raise UsageError(f"{key} takes one value in grid section [arima]")
        p_max = int(options["p_max"][0]) if "p_max" in options else ARIMA_DEFAULT_P_MAX
        q_max = int(options["q_max"][0]) if "q_max" in options else ARIMA_DEFAULT_Q_MAX
        ds = [int(v) for v in options["d"]] if "d" in options else ARIMA_DEFAULT_D
        orders = arima_orders(p_max, q_max, ds)
        if not orders:  # refused as the package refuses it: such a section fits nothing
            raise ContractError(f"p_max {p_max}, q_max {q_max} and d {list(ds)} give no order")
        return [ForecasterSpec("arima", order, seed) for order in orders]
    missing = [
        f.name
        for f in fields(config_type)
        if f.default is MISSING and f.name not in options
    ]
    if missing:
        raise UsageError(f"grid section [{kind}] needs {', '.join(missing)}")
    parsers = {int: int, float: float, bool: _parse_bool}
    grid = {k: [parsers[types[k]](v) for v in vs] for k, vs in options.items()}
    return oracle_expand_product(kind, grid, seed)


def oracle_candidate_grids(seed, grid_path):
    """Candidates per kind, each default grid replaced by its grid-file section;
    the file read through configparser's own reader."""
    defaults = dict(oracle_default_model_grids(seed))
    grids = {kind: defaults[name] for kind, name in DISPLAY_NAMES.items()}
    if grid_path:
        ini = configparser.ConfigParser()
        try:
            read = ini.read(grid_path)
        except (ValueError, configparser.Error) as exc:
            raise UsageError(f"malformed grid file {grid_path}: {exc}") from exc
        if not read:
            raise UsageError(f"cannot read grid file {grid_path}")
        for kind in ini.sections():
            if kind not in KINDS:
                raise UsageError(f"unknown model kind [{kind}] in grid file")
            try:
                grids[kind] = oracle_grid_section(ini, kind, seed)
            except (ValueError, configparser.Error) as exc:
                raise UsageError(f"grid section [{kind}]: {exc}") from exc
    return grids


# --- validation folds ---------------------------------------------------------------
# grid_search's scoring and rolling_origin_eval as they were before
# EvalProtocol.folds decided which folds get scored: grid_search branched on the
# protocol's kind, and rolling_origin_eval kept the rolling layout and its checks.


def oracle_rolling_origin_eval(spec, s, protocol):
    if protocol.initial_train is None:
        raise ContractError("rolling_origin_eval requires protocol.initial_train")
    n = len(s)
    first = protocol.initial_train
    if first < 2:
        raise ContractError("initial_train must be >= 2")
    if n - first - protocol.horizon < 0:
        raise ContractError(
            f"series of length {n} has no room for one fold "
            f"(initial_train {first}, horizon {protocol.horizon})"
        )
    return [
        FoldScore(origin, _fold_mse(spec, s, origin, protocol.horizon))
        for origin in range(first, n - protocol.horizon + 1, protocol.step)
    ]


def oracle_grid_search(candidates, train, protocol=None):
    if not candidates:
        raise ContractError("grid_search needs at least one candidate")
    protocol = protocol or EvalProtocol()
    if protocol.kind == "holdout":
        fit_part, val = train_test_split(train, protocol.test_fraction)
    best_spec = best_score = None
    failures = []
    for spec in candidates:
        try:
            if protocol.kind == "holdout":
                score = _fold_mse(spec, train, len(fit_part), len(val))
            else:
                folds = oracle_rolling_origin_eval(spec, train, protocol)
                score = sum(f.mse for f in folds) / len(folds)
        except Exception as exc:
            reason = _failure(exc, f"grid search skipping {spec.kind} {spec.config}")
            failures.append((spec, reason))
            continue
        if best_score is None or score < best_score:
            best_score = score
            best_spec = spec
    if best_spec is None:
        raise ExhaustedGridError(
            f"all {len(failures)} grid candidates failed; last: {failures[-1][1]}"
        )
    return best_spec, fit_normalized(best_spec, train), best_score


# --- CSV rows and model files ---------------------------------------------------------
# parse_csv as it was when it buffered each row's counts and copied them in a
# second loop, and named the three columns again to build the dataset;
# model_to_dict as it was when it wrote the config through asdict and the scaler
# as a hand-written dict.


def oracle_parse_csv(text: str, *, allow_corrections: bool = False) -> EpidemicDataset:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise StructuralError("dataset is empty")
    pos = _normalize_header(rows[0])

    dates: list[date] = []
    counts: dict[str, list[int]] = {t: [] for t in TARGETS}
    for lineno, cells in enumerate(rows[1:], start=2):
        if not cells or all(c.strip() == "" for c in cells):
            continue
        if len(cells) != len(rows[0]):
            raise ParseError(
                f"expected {len(rows[0])} fields, found {len(cells)}", line=lineno
            )
        raw_date = cells[pos["date"]].strip()
        try:
            d = _iso_date(raw_date)
        except ValueError:
            raise ParseError(f"unparseable date {raw_date!r}", line=lineno) from None
        row_counts = {}
        for name in TARGETS:
            raw = cells[pos[name]].strip()
            if not (raw.isascii() and raw.removeprefix("-").isdigit()):  # -?[0-9]+
                raise ParseError(f"unparseable count {raw!r} in column {name}", line=lineno)
            value = int(raw)
            if value >= 2**63:  # the dataset stores counts as int64
                raise ParseError(f"count {raw} in column {name} exceeds 2**63 - 1", line=lineno)
            row_counts[name] = value
        dates.append(d)
        for name in TARGETS:
            counts[name].append(row_counts[name])

    if not dates:
        raise StructuralError("dataset is empty")

    for i in range(1, len(dates)):
        step = (dates[i] - dates[i - 1]).days
        if step == 0:
            raise StructuralError(f"duplicate date {dates[i].isoformat()}")
        if step < 0:
            raise StructuralError(f"dates out of order at {dates[i].isoformat()}")
        if step > 1:
            missing = dates[i - 1] + timedelta(days=1)
            raise StructuralError(f"date gap: missing {missing.isoformat()}")

    for name in TARGETS:
        col = counts[name]
        for i, value in enumerate(col):
            if value < 0:
                raise ValidationError(
                    f"negative count {value} in column {name} on {dates[i].isoformat()}"
                )
        i = _first_decrease(col)
        if i is not None and not allow_corrections:
            raise ValidationError(f"cumulative column {name} decreases on {dates[i].isoformat()}")

    return EpidemicDataset(
        dates=tuple(dates),
        confirmed=np.array(counts["confirmed"], dtype=np.int64),
        deaths=np.array(counts["deaths"], dtype=np.int64),
        recovered=np.array(counts["recovered"], dtype=np.int64),
        corrections_allowed=allow_corrections,
    )


def oracle_model_to_dict(model) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": model.spec.kind,
        "seed": model.spec.seed,
        "target": model.target,
        "train_end_date": (
            None if model.train_end_date is None else model.train_end_date.isoformat()
        ),
        "config": asdict(model.spec.config),
        "scaler": {"min": model.scaler.min, "max": model.scaler.max},
        "diff_state": None,
        "train_tail": model.train_tail.tolist(),
        "params": _encode(model.params),
    }
