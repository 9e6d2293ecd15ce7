"""Piecewise-linear trend with weekly Fourier terms and hinge ridge penalty."""

import numpy as np
import pytest

from epiforecast.errors import ContractError
from epiforecast.forecasters import ForecasterSpec, fit, forecast, insample_predictions
from epiforecast.forecasters.additive import (
    build_additive_design,
    fit_additive,
    training_changepoints,
)
from epiforecast.forecasters.base import AdditiveConfig
from epiforecast.transform import fit_scaler, scale
from support import series


def test_changepoints_are_evenly_spaced_interior_points():
    cps = training_changepoints(100, 2)
    assert cps.tolist() == pytest.approx([100 / 3, 200 / 3])
    assert training_changepoints(100, 0).tolist() == []
    with pytest.raises(ContractError):
        training_changepoints(1, 2)


def test_design_matrix_columns():
    config = AdditiveConfig(n_changepoints=2, changepoint_penalty=1.0, fourier_order=3)
    t = np.arange(20, dtype=np.float64)
    X = build_additive_design(t, config)
    assert X.shape == (20, 2 + 2 + 2 * 3)
    assert X[:, 0].tolist() == [1.0] * 20  # intercept
    assert X[:, 1].tolist() == t.tolist()  # linear trend
    cps = training_changepoints(20, 2)
    assert X[:, 2].tolist() == np.maximum(0.0, t - cps[0]).tolist()
    assert X[:, 3].tolist() == np.maximum(0.0, t - cps[1]).tolist()
    # first Fourier pair has weekly period
    assert X[:, 4].tolist() == pytest.approx(np.cos(2 * np.pi * t / 7.0).tolist())
    assert X[:, 5].tolist() == pytest.approx(np.sin(2 * np.pi * t / 7.0).tolist())


def test_no_structure_config_equals_linear_regression():
    rng = np.random.default_rng(0)
    y = 0.5 + 0.01 * np.arange(90) + rng.normal(0.0, 0.2, 90)
    s = series(y)
    config = AdditiveConfig(n_changepoints=0, changepoint_penalty=1.0, fourier_order=0)
    model = fit(ForecasterSpec("additive", config, 0), s)
    t = np.arange(90, dtype=np.float64)
    A = np.column_stack([np.ones(90), t])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    fc = forecast(model, 5)
    t_new = np.arange(90, 95, dtype=np.float64)
    assert np.max(np.abs(fc - (beta[0] + beta[1] * t_new))) <= 1e-10


def test_noiseless_line_is_fit_and_extrapolated_exactly():
    y = 2.0 + 0.3 * np.arange(60)
    s = series(y)
    config = AdditiveConfig(n_changepoints=5, changepoint_penalty=1.0, fourier_order=2)
    model = fit(ForecasterSpec("additive", config, 0), s)
    actual, predicted = insample_predictions(model, s)
    assert np.max(np.abs(actual - predicted)) <= 1e-8
    fc = forecast(model, 7)
    expected = 2.0 + 0.3 * np.arange(60, 67)
    assert np.max(np.abs(fc - expected)) <= 1e-7


def test_weekly_pattern_is_recovered():
    t = np.arange(70, dtype=np.float64)
    y = 10.0 + 0.1 * t + 2.0 * np.sin(2 * np.pi * t / 7.0)
    config = AdditiveConfig(n_changepoints=0, changepoint_penalty=0.0, fourier_order=1)
    model = fit(ForecasterSpec("additive", config, 0), series(y))
    fc = forecast(model, 14)
    t_new = np.arange(70, 84, dtype=np.float64)
    expected = 10.0 + 0.1 * t_new + 2.0 * np.sin(2 * np.pi * t_new / 7.0)
    assert np.max(np.abs(fc - expected)) <= 1e-8


def test_huge_penalty_suppresses_hinges_to_a_single_trend():
    # a sharply kinked series: without the penalty the hinge at the kink is
    # essential; with a huge penalty the fit collapses to one straight line
    t = np.arange(80, dtype=np.float64)
    y = np.where(t < 40, t, 40.0 + 3.0 * (t - 40.0))
    config_free = AdditiveConfig(n_changepoints=7, changepoint_penalty=0.0, fourier_order=0)
    config_stiff = AdditiveConfig(n_changepoints=7, changepoint_penalty=1e12, fourier_order=0)
    free = fit(ForecasterSpec("additive", config_free, 0), series(y))
    stiff = fit(ForecasterSpec("additive", config_stiff, 0), series(y))
    assert np.max(np.abs(free.params.beta[2:9])) > 0.1
    assert np.max(np.abs(stiff.params.beta[2:9])) <= 1e-6
    # and the stiff fit matches plain linear regression
    A = np.column_stack([np.ones(80), t])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert stiff.params.beta[0] == pytest.approx(beta[0], abs=1e-4)
    assert stiff.params.beta[1] == pytest.approx(beta[1], abs=1e-4)


def test_too_short_series_is_contract_error():
    config = AdditiveConfig(n_changepoints=5, changepoint_penalty=1.0, fourier_order=3)
    with pytest.raises(ContractError, match="too short"):
        fit_additive(series(np.arange(10.0)), config)


def test_config_contract():
    with pytest.raises(ContractError):
        AdditiveConfig(n_changepoints=-1)
    with pytest.raises(ContractError):
        AdditiveConfig(changepoint_penalty=-0.5)
    with pytest.raises(ContractError):
        AdditiveConfig(fourier_order=-1)
    with pytest.raises(ContractError):
        AdditiveConfig(period=0.0)


def test_forecast_contract():
    model = fit_additive(series(np.arange(30.0)), AdditiveConfig(n_changepoints=0, fourier_order=0))
    with pytest.raises(ContractError):
        forecast(model, 0)


@pytest.mark.parametrize("n_changepoints, fourier_order", [(0, 0), (5, 3), (10, 3), (20, 1)])
def test_each_forecast_is_the_first_rows_of_a_longer_one_bit_for_bit(
    deaths, n_changepoints, fourier_order
):
    # As the recursive forecasts are. When X @ beta had h rows, the last h mod 4
    # came from BLAS's part-block path and differed in the last bit for most h
    train = scale(fit_scaler(deaths), deaths)
    config = AdditiveConfig(n_changepoints=n_changepoints, fourier_order=fourier_order)
    model = fit(ForecasterSpec("additive", config), train)
    full = forecast(model, 180)
    for h in range(1, 180):
        assert forecast(model, h).tobytes() == full[:h].tobytes(), h
