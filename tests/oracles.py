"""Independent reference implementations used as test oracles.

Everything here is written from the defining formulas with plain loops, so a
failure always points at the package, not at a shared helper. The gradient
probes check analytic gradients against central finite differences at
well-conditioned parameter points.
"""

from __future__ import annotations

import numpy as np

from epiforecast.forecasters.additive import AdditiveParams
from epiforecast.forecasters.arima import ArimaParams
from epiforecast.forecasters.autoreg import ArParams
from epiforecast.forecasters.base import LstmConfig
from epiforecast.forecasters.lstm import (
    LstmLayerParams,
    LstmParameters,
    init_lstm_parameters,
    lstm_backward,
    lstm_forward,
)
from epiforecast.forecasters.mlp import MlpParams, _forward, mlp_gradients

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
