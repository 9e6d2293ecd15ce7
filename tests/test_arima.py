"""ARIMA: conditional-sum-of-squares residuals, fitting, forecasting and the
validation-scored order search."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epiforecast.backtest import ARIMA_DEFAULT_D, ARIMA_DEFAULT_P_MAX, ARIMA_DEFAULT_Q_MAX
from epiforecast.data import TARGETS, extract_series, train_test_split
from epiforecast.errors import ContractError, ExhaustedGridError, SingularFitError
from epiforecast.forecasters import ForecasterSpec, arima, fit, forecast, insample_predictions
from epiforecast.forecasters.arima import (
    AR_ROOT_LIMIT,
    _css_jacobian,
    _hannan_rissanen_init,
    _ma_filter,
    _root_modulus,
    _root_warnings,
    _validation_onestep_mse,
    arima_css_objective,
    arima_orders,
    css_residuals,
    fit_arima,
    grid_search_arima,
)
from epiforecast.forecasters.autoreg import lag_matrix
from epiforecast.forecasters.base import ArimaOrder
from epiforecast.transform import difference_values, fit_scaler, scale
from oracles import (
    oracle_css_jacobian,
    oracle_css_jacobian_lag_loop,
    oracle_css_jacobian_lag_matrix,
    oracle_css_residuals,
    oracle_fit_arima_params,
    oracle_forecast_arima_guarded,
    oracle_grid_search_arima,
    oracle_hannan_rissanen_init,
    oracle_insample_arima,
    oracle_ma_recursion,
    oracle_max_ar_root_modulus,
    oracle_root_warnings,
    oracle_validation_onestep_mse,
    simulate_arma,
)
from support import series


def naive_css_residuals(z, p, q, c, phi, theta):
    """Loop transcription of the conditional residual recursion: residuals for
    t = p..n-1, pre-sample shocks treated as zero."""
    eps = []
    for t in range(p, len(z)):
        e = z[t] - c
        for i in range(1, p + 1):
            e -= phi[i - 1] * z[t - i]
        for j in range(1, q + 1):
            k = t - p - j  # index into eps, which starts at t = p
            if k >= 0:
                e -= theta[j - 1] * eps[k]
        eps.append(e)
    return np.array(eps)


def test_css_residuals_match_naive_recursion():
    rng = np.random.default_rng(5)
    z = rng.normal(0.0, 1.0, 6)
    beta = np.array([0.2, 0.5, -0.3])  # c, phi_1, theta_1
    got = css_residuals(z, ArimaOrder(1, 0, 1), beta)
    want = naive_css_residuals(z, 1, 1, 0.2, [0.5], [-0.3])
    assert got.shape == want.shape == (5,)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_css_residuals_longer_orders_match_naive_recursion():
    rng = np.random.default_rng(6)
    z = rng.normal(0.0, 1.0, 40)
    beta = np.array([0.1, 0.4, -0.2, 0.3, 0.15])  # c, phi x2, theta x2
    got = css_residuals(z, ArimaOrder(2, 0, 2), beta)
    want = naive_css_residuals(z, 2, 2, 0.1, [0.4, -0.2], [0.3, 0.15])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_css_residuals_contract():
    with pytest.raises(ContractError, match="parameters"):
        css_residuals(np.ones(10), ArimaOrder(1, 0, 1), np.array([0.1, 0.2]))
    with pytest.raises(ContractError, match="too short"):
        css_residuals(np.ones(2), ArimaOrder(2, 0, 0), np.array([0.0, 0.1, 0.2]))


def test_css_objective_with_q_zero_equals_ar_sum_of_squares():
    rng = np.random.default_rng(0)
    z = rng.normal(0.0, 1.0, 80).cumsum()
    for p in (1, 2, 3):
        beta = np.concatenate([[0.3], rng.uniform(-0.4, 0.4, p)])
        c, phi = beta[0], beta[1:]
        # AR residuals written with the same elementwise association
        r = z[p:] - c
        for i in range(1, p + 1):
            r = r - phi[i - 1] * z[p - i : len(z) - i]
        assert arima_css_objective(z, ArimaOrder(p, 0, 0), beta) == float(r @ r)
        # and the matmul form of the same objective agrees to rounding
        X, y = lag_matrix(z, p)
        res = y - X @ beta
        assert arima_css_objective(z, ArimaOrder(p, 0, 0), beta) == pytest.approx(
            float(res @ res), rel=1e-12
        )


# --- CSS kernel against the per-column reference -----------------------------

# every straight-line MA recursion (q = 1..5) and the generic loop (q = 6)
KERNEL_ORDERS = [(0, 1), (2, 2), (1, 3), (2, 4), (3, 5), (0, 6)]


@pytest.mark.parametrize("q", sorted({q for _, q in KERNEL_ORDERS}))
def test_ma_filter_equals_naive_recursion(q):
    rng = np.random.default_rng(100 + q)
    base = rng.normal(0.0, 1.0, 60).tolist()
    theta = rng.uniform(-0.6, 0.6, q).tolist()
    assert np.array_equal(_ma_filter(base, theta), oracle_ma_recursion(base, theta))
    # series no longer than q run only the start-up steps
    for n in (0, 1, q):
        assert np.array_equal(_ma_filter(base[:n], theta), oracle_ma_recursion(base[:n], theta))


@pytest.mark.parametrize("p,q", KERNEL_ORDERS + [(2, 0)])
def test_css_jacobian_equals_per_column_filtering(p, q):
    rng = np.random.default_rng(200 + 10 * p + q)
    z = rng.normal(0.0, 1.0, 80).cumsum()
    beta = np.concatenate([[0.1], rng.uniform(-0.3, 0.3, p), rng.uniform(-0.5, 0.5, q)])
    order = ArimaOrder(p, 0, q)
    eps_want, J_want = oracle_css_jacobian(z, p, q, beta)
    eps = css_residuals(z, order, beta)
    assert np.array_equal(eps, eps_want)
    assert np.array_equal(_css_jacobian(z, order, beta, eps), J_want)


def test_css_jacobian_matches_central_differences():
    rng = np.random.default_rng(7)
    z = simulate_arma(phi=(0.5, -0.2), theta=(0.4, 0.2, -0.1), n=120, sigma=0.1, seed=8)
    order = ArimaOrder(2, 0, 3)
    beta = np.array([0.05, 0.45, -0.15, 0.35, 0.15, -0.05]) + rng.uniform(-0.02, 0.02, 6)
    J = _css_jacobian(z, order, beta, css_residuals(z, order, beta))
    h = 1e-6
    for k in range(beta.size):
        up, dn = beta.copy(), beta.copy()
        up[k] += h
        dn[k] -= h
        fd = (css_residuals(z, order, up) - css_residuals(z, order, dn)) / (2 * h)
        assert np.max(np.abs(fd - J[:, k])) <= 1e-6 * max(1.0, np.max(np.abs(J[:, k])))


# (3,0,2) is the backtest's pick and, like (5,1,4), runs to MAX_ITER on this
# split; (2,0,3) converges after about 110 iterations and (1,1,1) after 7
@pytest.mark.parametrize("pdq", [(3, 0, 2), (5, 1, 4), (2, 0, 3), (1, 1, 1)])
def test_fit_is_bit_identical_to_per_column_jacobian(deaths, monkeypatch, pdq):
    """The backtest's ARIMA fit split (scaled validation fit part of deaths),
    fitted with the kernel and with the per-column reference Jacobian."""
    train, _ = train_test_split(deaths, 0.2)
    fit_part, _ = train_test_split(train, 0.2)
    fit_part = scale(fit_scaler(fit_part), fit_part)
    order = ArimaOrder(*pdq)
    got = fit_arima(fit_part, order).params

    def per_column(z, order, beta, eps):
        eps_want, J = oracle_css_jacobian(z, order.p, order.q, beta)
        # the residuals the fit carries are those of the current beta
        assert eps.tobytes() == eps_want.tobytes()
        return J

    monkeypatch.setattr(arima, "_css_jacobian", per_column)
    want = fit_arima(fit_part, order).params
    assert got.c == want.c
    assert np.array_equal(got.phi, want.phi)
    assert np.array_equal(got.theta, want.theta)
    assert np.array_equal(got.resid_tail, want.resid_tail)
    z, _ = difference_values(fit_part.values, order.d)
    beta = np.concatenate(([got.c], got.phi, got.theta))
    tail = oracle_css_residuals(z, order.p, order.q, beta)[len(z) - order.p - order.q :]
    assert np.array_equal(got.resid_tail, tail)


def test_arima_orders_are_complexity_ordered_and_complete():
    orders = arima_orders(2, 1, (0, 1))
    keys = [(o.p + o.d + o.q, o.d, o.p, o.q) for o in orders]
    assert keys == sorted(keys)
    assert len(set(orders)) == len(orders) == 3 * 2 * 2 - 1
    assert [(o.p, o.d, o.q) for o in arima_orders(0, 1, (1,))] == [(0, 1, 0), (0, 1, 1)]


def test_objective_is_zero_at_true_params_of_noiseless_ar1():
    z = np.empty(50)
    z[0] = 1.0
    for t in range(1, 50):
        z[t] = 0.8 * z[t - 1]
    assert arima_css_objective(z, ArimaOrder(1, 0, 0), np.array([0.0, 0.8])) <= 1e-16


def test_arma_order_contract():
    with pytest.raises(ContractError):
        ArimaOrder(0, 0, 0)
    with pytest.raises(ContractError):
        ArimaOrder(-1, 0, 1)


def test_fit_matches_autoreg_on_pure_ar_data():
    z = simulate_arma(phi=(0.6, -0.3), n=400, sigma=0.05, seed=1, c=0.1)
    s = series(z)
    from epiforecast.forecasters.base import ArOrder

    m_ar = fit(ForecasterSpec("autoreg", ArOrder(2), 0), s)
    m_arima = fit(ForecasterSpec("arima", ArimaOrder(2, 0, 0), 0), s)
    assert m_arima.params.c == pytest.approx(m_ar.params.c, abs=1e-6)
    assert np.max(np.abs(m_arima.params.phi - m_ar.params.phi)) <= 1e-6
    assert np.max(np.abs(forecast(m_arima, 10) - forecast(m_ar, 10))) <= 1e-6


def test_recovery_differenced_ar1():
    dz = simulate_arma(phi=(0.7,), n=500, sigma=0.02, seed=100)
    levels = np.cumsum(dz)
    model = fit(ForecasterSpec("arima", ArimaOrder(1, 1, 0), 0), series(levels))
    assert model.params.phi[0] == pytest.approx(0.7, abs=0.07)


def test_recovery_ma1():
    z = simulate_arma(theta=(0.5,), n=1000, sigma=0.02, seed=200)
    model = fit(ForecasterSpec("arima", ArimaOrder(0, 0, 1), 0), series(z))
    assert model.params.theta[0] == pytest.approx(0.5, abs=0.08)


def test_random_walk_with_drift_forecasts_linearly():
    # (0,1,0): the differenced series is fitted by its mean, so levels extend
    # by a constant step
    v = 3.0 * np.arange(40, dtype=np.float64) + 2.0
    model = fit(ForecasterSpec("arima", ArimaOrder(0, 1, 0), 0), series(v))
    assert model.params.c == pytest.approx(3.0, abs=1e-8)
    fc = forecast(model, 4)
    last = v[-1]
    assert np.max(np.abs(fc - (last + 3.0 * np.arange(1, 5)))) <= 1e-6


def test_fit_rejects_too_short_series():
    with pytest.raises(ContractError, match="too short"):
        fit_arima(series([1.0, 2.0, 3.0]), ArimaOrder(1, 1, 1))


def test_insample_alignment():
    z = simulate_arma(phi=(0.5,), n=120, sigma=0.1, seed=9, c=0.2)
    s = series(np.cumsum(z))
    model = fit(ForecasterSpec("arima", ArimaOrder(1, 1, 0), 0), s)
    actual, predicted = insample_predictions(model, s)
    # d + p leading observations are consumed by differencing and conditioning
    assert len(actual) == len(s) - 2
    assert actual.tolist() == s.values[2:].tolist()
    assert np.all(np.isfinite(predicted))


def test_forecast_contract():
    model = fit_arima(series(np.arange(30.0)), ArimaOrder(0, 1, 0))
    with pytest.raises(ContractError):
        forecast(model, 0)


# --- order search ------------------------------------------------------------


def test_grid_search_picks_minimal_order_on_white_noise():
    rng = np.random.default_rng(42)
    z = rng.normal(0.0, 1.0, 300)
    train, val = train_test_split(series(z), 0.2)
    order, model, score = grid_search_arima(train, val, 3, 3)
    # every candidate is near-tied on noise, so the simplest order wins
    assert (order.p, order.d, order.q) == (0, 0, 1)
    assert score == pytest.approx(float(np.var(val.values)), rel=0.10)


def test_grid_search_selects_differencing_on_drifting_walk():
    z = simulate_arma(phi=(0.9,), n=500, sigma=1.0, seed=1003, c=0.1)
    levels = np.cumsum(z)
    train = series(levels[:400])
    val = series(levels[400:])
    order, model, score = grid_search_arima(train, val, 3, 3)
    assert order.d == 1
    assert order.p in (1, 2)


def test_grid_search_returns_models_own_validation_score():
    rng = np.random.default_rng(11)
    z = rng.normal(0.0, 1.0, 300)
    train, val = train_test_split(series(z), 0.2)
    order, model, score = grid_search_arima(train, val, 2, 2)
    assert model.spec.config == order
    assert score >= 0.0


def test_grid_search_without_ar_ma_terms_returns_pure_walk():
    v = np.arange(60, dtype=np.float64) ** 1.1
    train, val = train_test_split(series(v), 0.2)
    order, _, _ = grid_search_arima(train, val, 0, 0)
    assert (order.p, order.d, order.q) == (0, 1, 0)


def test_grid_search_contract_and_exhaustion():
    train = series([1.0, 2.0])
    val = series([3.0, 4.0])
    with pytest.raises(ContractError):
        grid_search_arima(train, val, -1, 0)
    with pytest.raises(ExhaustedGridError):
        # every order needs at least p + d + q + 2 >= 3 training points
        grid_search_arima(train, val, 3, 3)


# --- each ARIMA fact written once, bit-identical to the code it replaced -----


def _outcome(f, *args):
    """f's result as bytes, or the type of what it raised."""
    try:
        with np.errstate(over="ignore"):  # np.roots of a tiny leading coefficient
            value = f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc)
    return value if isinstance(value, tuple) else np.float64(value).tobytes()


COEFFS = st.lists(st.floats(-4.0, 4.0), max_size=6)


@given(phi=COEFFS, theta=COEFFS)
@example(phi=[], theta=[])
@example(phi=[0.0, 0.0, 0.0], theta=[0.0, 0.0])
@example(phi=[0.5, 0.0], theta=[-0.4, 0.0])  # a zero phi_p (and theta_q) drops a degree
@example(phi=[1.0], theta=[-1.0])  # exact unit roots
@example(phi=[0.0, 1.0], theta=[0.0, 1.0])
@example(phi=[1.5, -0.5], theta=[2.0])  # a unit root and an explosive MA
@example(phi=[0.0, 1.0, 1e-24], theta=[0.0, 1.0, 1e-24])  # a computed root of exactly 0.0
@settings(max_examples=400, deadline=None, derandomize=True)
def test_one_root_test_is_bit_identical_to_the_two_it_replaced(phi, theta):
    phi, theta = np.array(phi, dtype=np.float64), np.array(theta, dtype=np.float64)
    order = ArimaOrder(phi.size, 1, theta.size)
    beta = np.concatenate(([0.1], phi, theta))
    notes = _outcome(oracle_root_warnings, order, beta)
    assert _outcome(_root_warnings, order, beta) == notes
    got = _outcome(_root_modulus, -phi)
    want = _outcome(oracle_max_ar_root_modulus, phi)
    if got != want:
        # the one difference: np.roots returned an exact 0.0 root, which the old
        # screen read as modulus 0.0 while the root note flagged it; now both refuse it
        assert (got, want) == (np.float64(np.inf).tobytes(), np.float64(0.0).tobytes())
        assert notes[0] == "ar roots inside the unit circle: forecasts are non-stationary"


def test_root_notes_flag_roots_on_and_inside_the_unit_circle():
    order = ArimaOrder(1, 0, 1)
    assert _root_warnings(order, np.array([0.0, 0.5, 0.5])) == ()
    assert _root_warnings(order, np.array([0.0, 1.0, -1.0])) == ()
    assert _root_warnings(order, np.array([0.0, 1.0 + 2**-52, -1.0 - 2**-52])) == (
        "ar roots inside the unit circle: forecasts are non-stationary",
        "ma roots inside the unit circle: representation is non-invertible",
    )
    assert _root_modulus(np.array([])) == _root_modulus(np.zeros(3)) == 0.0
    assert _root_modulus(np.array([-0.5, 0.0])) == 0.5
    # np.roots finds an exact 0.0 root here: the screen refuses it, as the note does
    assert _root_modulus(-np.array([0.0, 1.0, 1e-24])) == np.inf > AR_ROOT_LIMIT


def _arma_split(phi, theta, d, seed, n=140):
    z = simulate_arma(phi=phi, theta=theta, n=n, sigma=0.1, seed=seed, c=0.02)
    return train_test_split(series(np.cumsum(z) if d else z), 0.2)


# white noise near-ties every order; the drifting walks' d = 0 fits are screened
SEARCH_SERIES = [
    ((), (), 0, 42),
    ((0.6,), (), 0, 1),
    ((0.5, -0.3), (0.4,), 0, 2),
    ((), (0.6, 0.2), 0, 3),
    ((0.7,), (), 1, 4),
    ((0.4,), (0.5,), 1, 5),
    ((0.9,), (), 1, 1003),
]


@pytest.mark.parametrize("phi, theta, d, seed", SEARCH_SERIES)
def test_grid_search_is_bit_identical_to_the_old_selection(phi, theta, d, seed):
    train, val = _arma_split(phi, theta, d, seed)
    order, model, score = grid_search_arima(train, val, 2, 2)
    want_order, want_model, want_score = oracle_grid_search_arima(train, val, 2, 2)
    assert order == want_order
    assert np.float64(score).tobytes() == np.float64(want_score).tobytes()
    got, want = model.params, want_model.params
    assert np.float64(got.c).tobytes() == np.float64(want.c).tobytes()
    for name in ("phi", "theta", "resid_tail"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.warnings == want.warnings
    assert model.train_tail.tobytes() == want_model.train_tail.tobytes()


PDQS = [(0, 0, 1), (0, 0, 3), (1, 0, 0), (2, 0, 2), (0, 1, 0), (1, 1, 2), (0, 2, 1), (3, 1, 1)]


@pytest.mark.parametrize("pdq", PDQS, ids=lambda pdq: "%d%d%d" % pdq)
def test_one_residual_path_and_forecast_step_are_bit_identical(pdq):
    train, val = _arma_split((0.5,), (0.3,), pdq[1] > 0, 7)
    model = fit_arima(train, ArimaOrder(*pdq))
    for h in (1, 2, 3, 7, 180):
        assert forecast(model, h).tobytes() == oracle_forecast_arima_guarded(model, h).tobytes()
    actual, predicted = insample_predictions(model, train)
    want_actual, want_predicted = oracle_insample_arima(model, train)
    assert actual.tobytes() == want_actual.tobytes()
    assert predicted.tobytes() == want_predicted.tobytes()
    score = _validation_onestep_mse(model, train, val)
    want = oracle_validation_onestep_mse(model, train, val)
    assert np.float64(score).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("p,q", KERNEL_ORDERS + [(1, 0), (4, 0), (6, 2)])
def test_css_jacobian_base_columns_are_bit_identical_to_the_lag_loop(p, q):
    rng = np.random.default_rng(300 + 10 * p + q)
    z = rng.normal(0.0, 1.0, 50).cumsum()
    beta = np.concatenate([[0.1], rng.uniform(-0.3, 0.3, p), rng.uniform(-0.5, 0.5, q)])
    order = ArimaOrder(p, 0, q)
    eps = css_residuals(z, order, beta)
    got = _css_jacobian(z, order, beta, eps)
    assert got.tobytes() == oracle_css_jacobian_lag_loop(z, order, beta, eps).tobytes()


@pytest.mark.parametrize("target", TARGETS)
def test_hannan_rissanen_start_is_bit_identical_to_the_column_loop(iran, target):
    """Every default order on the backtest's ARIMA fit split (the scaled
    validation fit part) of each bundled target."""
    train, _ = train_test_split(extract_series(iran, target), 0.2)
    fit_part, _ = train_test_split(train, 0.2)
    fit_part = scale(fit_scaler(fit_part), fit_part)
    orders = arima_orders(ARIMA_DEFAULT_P_MAX, ARIMA_DEFAULT_Q_MAX, ARIMA_DEFAULT_D)
    for order in orders:
        z, _ = difference_values(fit_part.values, order.d)
        got = _hannan_rissanen_init(z, order)
        want = oracle_hannan_rissanen_init(z, order)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), order


def _fallback(z, p, q):
    return np.concatenate(([np.mean(z)], np.zeros(p + q)))


@pytest.mark.parametrize(
    "z, pdq",
    [
        # too short for a long AR of order 1: (4 - 1 - 0 - 2) // 2 = 0
        (np.array([0.1, 0.4, 0.2, 0.3]), (0, 0, 1)),
        # a constant series makes the long AR's design rank deficient
        (np.full(50, 0.5), (0, 0, 1)),
        # a long AR of order 1 leaves 6 - 1 - 2 = 3 rows for 4 columns + 1
        (np.array([0.1, 0.4, 0.2, 0.3, 0.7, 0.5]), (0, 0, 2)),
    ],
    ids=["no-long-ar", "long-ar-rank-deficient", "too-few-second-stage-rows"],
)
def test_hannan_rissanen_falls_back_to_the_mean_and_zeros(z, pdq):
    order = ArimaOrder(*pdq)
    want = _fallback(z, order.p, order.q)
    assert _hannan_rissanen_init(z, order).tobytes() == want.tobytes()
    assert oracle_hannan_rissanen_init(z, order).tobytes() == want.tobytes()


def test_hannan_rissanen_falls_back_when_the_second_stage_is_rank_deficient():
    """z_t = z_{t-11} + 1 exactly, so the long AR of order 11 has full rank and
    residuals of rounding size only, and the second stage's lagged-residual
    column adds no rank to [1, z_{t-1}]."""
    base = np.random.default_rng(0).random(11)
    t = np.arange(80)
    z = base[t % 11] + t // 11
    order = ArimaOrder(1, 0, 1)
    assert np.linalg.matrix_rank(lag_matrix(z, 11)[0]) == 12
    want = _fallback(z, order.p, order.q)
    assert _hannan_rissanen_init(z, order).tobytes() == want.tobytes()
    assert oracle_hannan_rissanen_init(z, order).tobytes() == want.tobytes()


def test_hannan_rissanen_ar_stage_refuses_a_constant_series():
    with pytest.raises(SingularFitError, match=r"AR stage is rank deficient \(p = 2\)"):
        _hannan_rissanen_init(np.full(30, 0.5), ArimaOrder(2, 0, 0))
    with pytest.raises(SingularFitError, match="rank deficient"):
        fit_arima(series(np.full(30, 0.5)), ArimaOrder(1, 0, 0))


@pytest.mark.parametrize(
    "p, q, m", [(p, q, 60) for p, q in KERNEL_ORDERS + [(1, 0), (4, 0), (6, 2), (0, 2)]]
    + [(1, 3, 3), (2, 0, 3)],
)
def test_css_jacobian_is_bit_identical_to_the_lag_matrix_columns(p, q, m):
    """Bytes, shape and C layout (on which J.T @ J's kernel depends); m = 3
    leaves fewer rows than MA lags, or a single row."""
    rng = np.random.default_rng(400 + 10 * p + q)
    z = rng.normal(0.0, 1.0, m).cumsum()
    beta = np.concatenate([[0.1], rng.uniform(-0.3, 0.3, p), rng.uniform(-0.5, 0.5, q)])
    order = ArimaOrder(p, 0, q)
    eps = css_residuals(z, order, beta)
    got = _css_jacobian(z, order, beta, eps)
    want = oracle_css_jacobian_lag_matrix(z, order, beta, eps)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def _params_bytes(fit):
    """A fit's c, phi, theta and resid_tail bytes and its warnings, or its error."""
    try:
        params = fit()
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc).__name__, str(exc)
    arrays = (np.float64(params.c), params.phi, params.theta, params.resid_tail)
    return tuple(a.tobytes() for a in arrays) + (params.warnings,)


@pytest.mark.parametrize("target", TARGETS)
def test_every_default_order_fits_bit_identically_to_the_loop_as_it_was(
    iran, target, monkeypatch
):
    """All 71 default orders on the backtest's ARIMA fit split of each target,
    against the loop and Jacobian kept in the oracles, with the same number of
    residual and Jacobian calls."""
    train, _ = train_test_split(extract_series(iran, target), 0.2)
    fit_part, _ = train_test_split(train, 0.2)
    fit_part = scale(fit_scaler(fit_part), fit_part)
    calls = Counter()

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(arima, "css_residuals", counted("residuals", css_residuals))
    monkeypatch.setattr(arima, "_css_jacobian", counted("jacobian", _css_jacobian))
    oracle_residuals = counted("oracle residuals", css_residuals)
    oracle_jacobian = counted("oracle jacobian", oracle_css_jacobian_lag_matrix)
    orders = arima_orders(ARIMA_DEFAULT_P_MAX, ARIMA_DEFAULT_Q_MAX, ARIMA_DEFAULT_D)
    assert len(orders) == 71
    fitted_orders = 0
    for order in orders:
        calls.clear()
        got = _params_bytes(lambda: fit_arima(fit_part, order).params)
        want = _params_bytes(
            lambda: oracle_fit_arima_params(fit_part, order, oracle_residuals, oracle_jacobian)
        )
        assert got == want, order
        assert calls["residuals"] == calls["oracle residuals"] > 0, order
        assert calls["jacobian"] == calls["oracle jacobian"], order
        fitted_orders += calls["jacobian"] > 0
    assert fitted_orders >= 60
