"""ARIMA(p, d, q) with intercept, estimated by conditional sum of squares.

The objective conditions on the first p differenced observations and treats
pre-sample moving-average errors as zero. Starting values come from the
Hannan-Rissanen two-stage regression; a Levenberg-Marquardt loop with an
analytic Jacobian refines them.

Kernels. About half of a fit is the MA recursion, _ma_filter, a sequential
loop over Python floats; the rest is the set-up around it, one Jacobian per
iteration and one solve and residual pass per trial step. So the Jacobian
slices its intercept and AR bases from one list of -z instead of reading
array columns back, each filtered list goes back to NumPy through struct
(_array), and fit_arima enters np.errstate and reads the float limits once
per fit. Every product keeps its operands, shapes and layout, so fits are
bit-identical to the versions kept as test oracles.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..data import Series
from ..errors import ContractError, DivergenceError, ExhaustedGridError, SingularFitError
from ..transform import difference_values, integrate_forecast
from .base import ArimaOrder, FittedModel, ForecasterSpec, check_shape, fitted, recursive_forecast
from .autoreg import ar_sum, lag_matrix

logger = logging.getLogger(__name__)

MAX_ITER = 200
REL_TOL = 1e-10
_TINY = float(np.finfo(float).tiny)  # guards the relative reduction against s = 0


def _ma_filter(base: list, theta: list) -> list:
    """u_t = b_t - sum_{j <= min(q, t)} theta_j u_{t-j}, subtracting in j order.

    Pre-sample values of u are zero, so the first q steps use only the lags
    that exist. Plain floats beat numpy scalars in this sequential loop, and
    the straight-line bodies for q <= 5 skip the inner loop; every form
    rounds exactly like the generic one.
    """
    q = len(theta)
    u = list(base)
    T = len(u)
    for t in range(1, min(q, T)):
        acc = u[t]
        for j in range(1, t + 1):
            acc -= theta[j - 1] * u[t - j]
        u[t] = acc
    if T <= q:
        return u
    if q == 1:
        (a1,) = theta
        u1 = u[0]
        for t in range(1, T):
            u1 = u[t] = u[t] - a1 * u1
    elif q == 2:
        a1, a2 = theta
        u2, u1 = u[:2]
        for t in range(2, T):
            u1, u2 = u[t] - a1 * u1 - a2 * u2, u1
            u[t] = u1
    elif q == 3:
        a1, a2, a3 = theta
        u3, u2, u1 = u[:3]
        for t in range(3, T):
            u1, u2, u3 = u[t] - a1 * u1 - a2 * u2 - a3 * u3, u1, u2
            u[t] = u1
    elif q == 4:
        a1, a2, a3, a4 = theta
        u4, u3, u2, u1 = u[:4]
        for t in range(4, T):
            u1, u2, u3, u4 = u[t] - a1 * u1 - a2 * u2 - a3 * u3 - a4 * u4, u1, u2, u3
            u[t] = u1
    elif q == 5:
        a1, a2, a3, a4, a5 = theta
        u5, u4, u3, u2, u1 = u[:5]
        for t in range(5, T):
            u1, u2, u3, u4, u5 = (
                u[t] - a1 * u1 - a2 * u2 - a3 * u3 - a4 * u4 - a5 * u5, u1, u2, u3, u4
            )
            u[t] = u1
    else:
        lags = list(enumerate(theta, 1))
        for t in range(q, T):
            acc = u[t]
            for j, a in lags:
                acc -= a * u[t - j]
            u[t] = acc
    return u


def _array(values: list) -> np.ndarray:
    """np.array(values) for a list of Python floats, in about a third of the
    time: struct copies each float's double as it is, so the bits are equal."""
    out = np.empty(len(values))
    struct.pack_into(f"{len(values)}d", out, 0, *values)
    return out


def css_residuals(z: np.ndarray, order: ArimaOrder, params) -> np.ndarray:
    """Conditional residuals e_t for t = p..m-1 on an already-differenced series.

    e_t = z_t - c - sum_i phi_i z_{t-i} - sum_j theta_j e_{t-j}, with e taken
    as 0 before t = p.
    """
    p, q = order.p, order.q
    beta = np.asarray(params, dtype=np.float64)
    if beta.size != 1 + p + q:
        raise ContractError(f"expected {1 + p + q} parameters, got {beta.size}")
    z = np.asarray(z, dtype=np.float64)
    m = z.size
    if m <= p:
        raise ContractError(f"series of length {m} too short for p = {p}")
    c = beta[0]
    phi = beta[1 : 1 + p]
    theta = beta[1 + p :]
    e = z[p:] - c
    for i in range(1, p + 1):
        e = e - phi[i - 1] * z[p - i : m - i]
    if q == 0:
        return e
    return _array(_ma_filter(e.tolist(), theta.tolist()))


def arima_css_objective(z: np.ndarray, order: ArimaOrder, params) -> float:
    """Sum of squared conditional residuals; with q = 0 this is the AR objective."""
    e = css_residuals(z, order, params)
    # far-from-stationary candidates overflow to inf here; callers treat a
    # non-finite objective as divergence, so silence the intermediate warning
    with np.errstate(over="ignore"):
        return float(e @ e)


def _css_jacobian(
    z: np.ndarray, order: ArimaOrder, beta: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """d(residual)/d(params) at beta, given beta's residuals eps.

    Each column is its base sensitivity passed through the MA recursion: -1
    for the intercept, -z_{t-i} for phi_i. The base of theta_j is -e_{t-j},
    the theta_1 base lagged by j - 1 with zero rows above; the pre-sample is
    zero and the filter is time-invariant, so filtering the theta_1 base once
    and lagging the result gives every MA column. The terms this skips are
    theta_k * 0.0 on the zero rows, which change no value (at most the sign
    of an exact zero). The filter takes lists, so the intercept and AR bases
    are sliced from one list of -z; negation is exact, so every base holds
    the bits of the lag matrix's negated columns.
    """
    p, q = order.p, order.q
    if q == 0:
        return -lag_matrix(z, p)[0]
    m = z.size
    T = m - p
    theta = beta[1 + p :].tolist()
    J = np.zeros((T, 1 + p + q), dtype=np.float64)
    J[:, 0] = _array(_ma_filter([-1.0] * T, theta))
    neg_z = (-z).tolist()
    for i in range(1, p + 1):
        J[:, i] = _array(_ma_filter(neg_z[p - i : m - i], theta))
    ma = _array(_ma_filter([0.0] + (-eps[:-1]).tolist(), theta))
    for lag in range(min(q, T)):
        J[lag:, 1 + p + lag] = ma[: T - lag]
    return J


def _hannan_rissanen_init(z: np.ndarray, order: ArimaOrder) -> np.ndarray:
    """Two-stage starting values: long AR, then regression on lagged residuals."""
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
    # [1, z_{t-1..t-p}, resid_{t-1..t-q}] for t = start..m-1
    D = np.hstack((lag_matrix(z, p)[0][start - p :], lag_matrix(resid, q)[0][start - q :, 1:]))
    beta2, _, rank2, _ = np.linalg.lstsq(D, z[start:], rcond=None)
    if rank2 < 1 + p + q:
        return fallback
    return beta2


def _root_modulus(a: np.ndarray) -> float:
    """Largest reciprocal root modulus of 1 + a_1 B + ... + a_k B^k (0.0 without
    roots); a root lies inside the unit circle exactly when this exceeds 1.0."""
    roots = np.roots(np.concatenate((a[::-1], [1.0])))
    with np.errstate(divide="ignore"):  # a computed root of 0.0 (a = [0, -1, -1e-24]) gives inf
        return float(1.0 / np.abs(roots).min()) if roots.size else 0.0


def _root_warnings(order: ArimaOrder, beta: np.ndarray) -> tuple[str, ...]:
    """Flag AR roots inside the unit circle (and MA likewise); never fatal."""
    p = order.p
    notes = []
    if _root_modulus(-beta[1 : 1 + p]) > 1.0:
        notes.append("ar roots inside the unit circle: forecasts are non-stationary")
    if _root_modulus(beta[1 + p :]) > 1.0:
        notes.append("ma roots inside the unit circle: representation is non-invertible")
    return tuple(notes)


@dataclass(frozen=True)
class ArimaParams:
    c: float
    phi: np.ndarray
    theta: np.ndarray
    resid_tail: np.ndarray  # last q conditional residuals, chronological
    warnings: tuple[str, ...] = ()


def check_arima_params(params: ArimaParams, order: ArimaOrder) -> None:
    """Raise ValueError unless phi holds p coefficients and theta and resid_tail q each."""
    owner = f"ARIMA({order.p},{order.d},{order.q})"
    for name, n in (("phi", order.p), ("theta", order.q), ("resid_tail", order.q)):
        check_shape(name, getattr(params, name), (n,), owner)


def fit_arima(train: Series, order: ArimaOrder) -> FittedModel:
    p, d, q = order.p, order.d, order.q
    n = len(train)
    if n < p + q + d + 2:
        raise ContractError(f"series of length {n} too short for ARIMA({p},{d},{q})")
    z, _ = difference_values(train.values, d)
    beta = _hannan_rissanen_init(z, order)
    # far-from-stationary candidates overflow to inf in their residuals and sums
    # of squares; a non-finite objective is divergence at the start and a
    # refused step later, so keep numpy quiet on that handled path
    with np.errstate(over="ignore"):
        # eps always holds the residuals of the current beta
        eps = css_residuals(z, order, beta)
        s = float(eps @ eps)
        if not math.isfinite(s):
            raise DivergenceError("ARIMA starting values give a non-finite objective")

        lam = 1e-3
        identity = np.eye(beta.size)
        for _ in range(MAX_ITER):
            J = _css_jacobian(z, order, beta, eps)
            neg_g = -(J.T @ eps)
            A = J.T @ J
            rel = 0.0  # stays 0.0, below REL_TOL, when no step is accepted
            for _ in range(30):
                try:
                    delta = np.linalg.solve(A + lam * identity, neg_g)
                except np.linalg.LinAlgError:
                    lam = min(lam * 10.0, 1e12)
                    continue
                candidate = beta + delta
                eps_new = css_residuals(z, order, candidate)
                s_new = float(eps_new @ eps_new)
                if s_new < s:  # s is finite, so an inf or NaN s_new fails this
                    rel = (s - s_new) / max(s, _TINY)
                    beta, eps, s = candidate, eps_new, s_new
                    lam = max(lam / 10.0, 1e-12)
                    break
                lam = min(lam * 10.0, 1e12)
            if rel < REL_TOL:
                break

    params = ArimaParams(
        c=float(beta[0]),
        phi=beta[1 : 1 + p].copy(),
        theta=beta[1 + p :].copy(),
        resid_tail=eps[len(eps) - q :].copy(),
        warnings=_root_warnings(order, beta),
    )
    for note in params.warnings:
        logger.warning("ARIMA(%d,%d,%d): %s", p, d, q, note)
    return fitted(ForecasterSpec("arima", order), params, train)


def forecast_arima(model: FittedModel, h: int) -> np.ndarray:
    order: ArimaOrder = model.spec.config
    params: ArimaParams = model.params
    p, d, q = order.p, order.d, order.q
    tail = model.train_tail
    z_tail, _ = difference_values(tail, d)
    # Python floats (see ar_sum); resid has q entries: check_arima_params and fit_arima hold it
    phi, theta, resid = params.phi.tolist(), params.theta.tolist(), params.resid_tail.tolist()

    def step(z: list, k: int) -> float:
        acc = ar_sum(params.c, phi, z)
        for j in range(k + 1, q + 1):  # MA lags that still reach the training residuals
            acc += theta[j - 1] * resid[k - j]
        return acc

    diffs = recursive_forecast(z_tail[-p:].tolist() if p else [], h, step)
    return integrate_forecast(diffs, tail, d)


def _residuals(model: FittedModel, values: np.ndarray) -> np.ndarray:
    """Conditional residuals of the model's frozen coefficients on a series of levels."""
    order: ArimaOrder = model.spec.config
    params: ArimaParams = model.params
    z, _ = difference_values(values, order.d)
    return css_residuals(z, order, np.concatenate(([params.c], params.phi, params.theta)))


def insample_arima(model: FittedModel, train: Series) -> tuple[np.ndarray, np.ndarray]:
    """One-step fitted levels: the level error equals the differenced residual."""
    order: ArimaOrder = model.spec.config
    actual = train.values[order.d + order.p :]
    return actual, actual - _residuals(model, train.values)


def arima_orders(p_max: int, q_max: int, ds: Sequence[int] = (0, 1)) -> list[ArimaOrder]:
    """Every order with p <= p_max, d in ds and q <= q_max except (0, 0, 0),
    simplest first: by p + d + q, then d, then p, then q."""
    orders = [
        ArimaOrder(p, d, q)
        for p in range(p_max + 1)
        for d in ds
        for q in range(q_max + 1)
        if p + d + q > 0
    ]
    orders.sort(key=lambda o: (o.p + o.d + o.q, o.d, o.p, o.q))
    return orders


# Candidates whose AR polynomial has a root at or near the unit circle produce
# forecasts that either diverge or imitate a differenced model with an
# ill-determined root; standard order-selection practice rejects them.
AR_ROOT_LIMIT = 0.97
# Scores within this relative band of the best are treated as ties and broken
# toward the simpler order (a one-standard-error-style parsimony rule).
NEAR_TIE_FACTOR = 0.15


def _validation_onestep_mse(model: FittedModel, train: Series, validation: Series) -> float:
    """Mean squared one-step-ahead error over the validation tail.

    Coefficients stay frozen from the training fit; each prediction uses
    actual values up to the previous day. Because the one-step level
    prediction equals actual minus the conditional residual for any d, the
    scores are comparable across differencing orders.
    """
    eps = _residuals(model, np.concatenate([train.values, validation.values]))
    tail = eps[-len(validation) :]
    # near-unstable candidates overflow to inf; the caller ranks them last or
    # skips them, so silence the intermediate warning on that handled path
    with np.errstate(over="ignore"):
        return float(np.mean(tail * tail))


def grid_search_arima(
    train: Series, validation: Series, p_max: int, q_max: int
) -> tuple[ArimaOrder, FittedModel, float]:
    """Exhaustive (p, d, q) search scored on a held-out validation tail.

    Each candidate is fitted on train only and scored by the mean squared
    one-step-ahead error of its frozen coefficients rolled across the
    validation segment. Candidates whose fitted AR part is non-stationary or
    nearly so (reciprocal root modulus above AR_ROOT_LIMIT) are skipped, as
    are candidates that fail to fit; skips are logged, never fatal. Among
    candidates scoring within NEAR_TIE_FACTOR of the best the simplest order
    wins, simplest as arima_orders ranks it. Returns the chosen order, its
    fitted model, and its validation MSE.
    """
    if p_max < 0 or q_max < 0:
        raise ContractError("p_max and q_max must be >= 0")
    results = []
    skipped = []
    for order in arima_orders(p_max, q_max):
        try:
            model = fit_arima(train, order)
            root = _root_modulus(-model.params.phi)
            if root > AR_ROOT_LIMIT:
                raise DivergenceError(
                    f"ar reciprocal root modulus {root:.4f} exceeds {AR_ROOT_LIMIT}"
                )
            score = _validation_onestep_mse(model, train, validation)
        except Exception as exc:  # noqa: BLE001 - candidates must never be fatal
            skipped.append((order, str(exc)))
            logger.warning("skipping ARIMA(%d,%d,%d): %s", order.p, order.d, order.q, exc)
            continue
        results.append((score, order, model))
    if not results:
        raise ExhaustedGridError(
            f"all {len(skipped)} ARIMA candidates failed; last: {skipped[-1][1]}"
        )
    best_score = min(score for score, _, _ in results)
    threshold = best_score * (1.0 + NEAR_TIE_FACTOR)
    tied = [entry for entry in results if entry[0] <= threshold]
    # results are in arima_orders' simplest-first order, where no two orders tie before q
    score, order, model = tied[0]
    return order, model, score
