"""One-hidden-layer network with optional day-of-week one-hot features."""

import itertools
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiforecast.backtest import MLP_DEFAULT_GRID, expand_grid
from epiforecast.data import TARGETS, extract_series, train_test_split
from epiforecast.errors import ContractError, DivergenceError
from epiforecast.forecasters import ForecasterSpec, fit, forecast, insample_predictions
from epiforecast.forecasters.base import MlpConfig
from epiforecast.forecasters.mlp import MlpParams, _features, _forward, fit_mlp, forecast_mlp
from epiforecast.forecasters.mlp import mlp_gradients
from epiforecast.forecasters.mlp import _design, weekday_after
from epiforecast.transform import fit_scaler, scale
from oracles import (
    mlp_gradcheck_max_rel_err,
    oracle_fit_mlp_params,
    oracle_forecast_mlp,
    oracle_mlp_forward,
    oracle_mlp_gradients,
    oracle_mlp_init,
)
from support import START, series


def test_gradients_match_finite_differences():
    assert mlp_gradcheck_max_rel_err(8000) < 1e-7


def test_gradients_vanish_at_a_perfect_fit():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
    params = MlpParams(hidden_w=None, hidden_b=None, out_w=np.array([2.0, -1.0]), out_b=0.5)
    y = X @ params.out_w + params.out_b
    grads, preds = mlp_gradients(params, X, y)
    assert preds.tolist() == y.tolist()
    assert np.all(grads.out_w == 0.0)
    assert grads.out_b == 0.0


def test_linear_degenerate_network_solves_ar1_exactly():
    y = 0.9 * np.power(0.5, np.arange(60, dtype=np.float64))
    config = MlpConfig(window=1, hidden_units=0, epochs=4000, learning_rate=0.3, seasonal=False)
    model = fit(ForecasterSpec("mlp", config, 0), series(y))
    assert model.params.hidden_w is None
    assert model.params.loss_history[-1] < 1e-6
    # the learned map is essentially x -> 0.5 x
    assert model.params.out_w[0] == pytest.approx(0.5, abs=1e-3)
    fc = forecast(model, 3)
    expected = y[-1] * 0.5 ** np.arange(1, 4)
    assert np.max(np.abs(fc - expected)) <= 1e-4


def test_seasonal_features_are_window_plus_onehot():
    # START is a Wednesday (weekday 2)
    assert START.weekday() == 2
    v = np.arange(20, dtype=np.float64) / 19.0
    config = MlpConfig(window=3, hidden_units=2, epochs=0, learning_rate=0.1, seasonal=True)
    model = fit_mlp(series(v), config, seed=0)
    # first target is index 3 -> weekday (2 + 3) % 7; next forecast day weekday
    assert model.params.next_dow == (2 + 20) % 7
    assert model.params.hidden_w.shape == (2, 3 + 7)


def test_seasonal_forecast_uses_rolling_day_of_week():
    v = np.sin(np.arange(40, dtype=np.float64))
    config = MlpConfig(window=4, hidden_units=3, epochs=5, learning_rate=0.05, seasonal=True)
    model = fit_mlp(series(v), config, seed=1)
    fc = forecast(model, 3)
    window = list(v[-4:])
    for k in range(3):
        x = np.array(window, dtype=np.float64)[None, :]
        dows = np.array([(model.params.next_dow + k) % 7])
        pred = float(_forward(model.params, _features(x, dows))[0])
        assert fc[k] == pred
        window.pop(0)
        window.append(pred)


def test_non_seasonal_has_no_dow_state():
    v = np.arange(20, dtype=np.float64)
    config = MlpConfig(window=3, hidden_units=2, epochs=1, learning_rate=0.01, seasonal=False)
    model = fit_mlp(series(v / 19.0), config, seed=0)
    assert model.params.next_dow is None
    assert model.params.hidden_w.shape == (2, 3)


def test_training_is_deterministic_and_seed_sensitive():
    v = np.sin(np.arange(50.0) / 5.0)
    config = MlpConfig(window=5, hidden_units=4, epochs=50, learning_rate=0.05, seasonal=True)
    a = fit_mlp(series(v), config, seed=4)
    b = fit_mlp(series(v), config, seed=4)
    other = fit_mlp(series(v), config, seed=5)
    assert a.params.loss_history == b.params.loss_history
    assert forecast(a, 4).tolist() == forecast(b, 4).tolist()
    assert forecast(a, 4).tolist() != forecast(other, 4).tolist()


def test_zero_epochs_keeps_init_and_loss_history_brackets():
    v = np.arange(30.0) / 29.0
    config = MlpConfig(window=2, hidden_units=3, epochs=0, learning_rate=0.1)
    model = fit_mlp(series(v), config, seed=7)
    assert len(model.params.loss_history) == 2
    assert model.params.loss_history[0] == model.params.loss_history[-1]


def test_loss_decreases_on_trainable_data():
    v = np.arange(60.0) / 59.0
    config = MlpConfig(window=4, hidden_units=6, epochs=300, learning_rate=0.05)
    model = fit_mlp(series(v), config, seed=0)
    assert model.params.loss_history[-1] < model.params.loss_history[0]


def test_divergence_error_names_the_epoch():
    v = np.arange(40.0)
    config = MlpConfig(window=3, hidden_units=4, epochs=50, learning_rate=1e6)
    with pytest.raises(DivergenceError, match="epoch"):
        fit_mlp(series(v), config, seed=0)


def test_insample_matches_training_features():
    v = np.sin(np.arange(30.0))
    s = series(v)
    config = MlpConfig(window=3, hidden_units=2, epochs=10, learning_rate=0.05, seasonal=True)
    model = fit(ForecasterSpec("mlp", config, 0), s)
    actual, predicted = insample_predictions(model, s)
    assert actual.tolist() == v[3:].tolist()
    assert len(predicted) == 27
    assert np.all(np.isfinite(predicted))


def test_forecast_contract():
    model = fit_mlp(series(np.arange(10.0) / 9.0), MlpConfig(window=2, hidden_units=0, epochs=1, learning_rate=0.1), 0)
    with pytest.raises(ContractError):
        forecast(model, 0)


def test_config_contract():
    with pytest.raises(ContractError):
        MlpConfig(window=0, hidden_units=1, epochs=1, learning_rate=0.1)
    with pytest.raises(ContractError):
        MlpConfig(window=1, hidden_units=-1, epochs=1, learning_rate=0.1)
    with pytest.raises(ContractError):
        MlpConfig(window=1, hidden_units=1, epochs=-1, learning_rate=0.1)
    with pytest.raises(ContractError):
        MlpConfig(window=1, hidden_units=1, epochs=1, learning_rate=-0.2)


def _same_bytes(got, want):
    if want is None:
        return got is None
    return np.asarray(got).tobytes() == np.asarray(want, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seasonal", [False, True], ids=["plain", "seasonal"])
@pytest.mark.parametrize("h", [0, 4])
def test_gradients_and_predictions_equal_the_two_branch_reference(h, seasonal):
    config = MlpConfig(window=5, hidden_units=h, epochs=0, learning_rate=0.05, seasonal=seasonal)
    X, y = _design(series(np.sin(np.arange(40.0) / 4.0)), config)
    rng = np.random.default_rng(11)
    d = X.shape[1]
    params = MlpParams(
        hidden_w=rng.normal(0.0, 0.5, size=(h, d)) if h else None,
        hidden_b=rng.normal(0.0, 0.5, size=h) if h else None,
        out_w=rng.normal(0.0, 0.5, size=h or d),
        out_b=float(rng.normal()),
    )
    grads, preds = mlp_gradients(params, X, y)
    want_grads, want_preds = oracle_mlp_gradients(params, X, y)
    assert isinstance(grads, MlpParams)
    assert np.array_equal(preds, want_preds)
    assert np.array_equal(_forward(params, X), oracle_mlp_forward(params, X))
    for name, want in zip(("hidden_w", "hidden_b", "out_w", "out_b"), want_grads):
        assert _same_bytes(getattr(grads, name), want), name


@pytest.mark.parametrize("seasonal", [False, True], ids=["plain", "seasonal"])
@pytest.mark.parametrize("h", [0, 4])
def test_fit_mlp_equals_the_two_branch_reference_bit_for_bit(h, seasonal):
    s = series(np.sin(np.arange(60.0) / 5.0))
    config = MlpConfig(window=6, hidden_units=h, epochs=300, learning_rate=0.05, seasonal=seasonal)
    _assert_fit_equals_the_reference(s, config, seed=2)


def _assert_fit_equals_the_reference(s, config, seed):
    params = fit_mlp(s, config, seed=seed).params
    X, y = _design(s, config)
    want, want_losses = oracle_fit_mlp_params(X, y, config, seed=seed)
    for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
        assert _same_bytes(getattr(params, name), getattr(want, name)), name
    assert params.loss_history == want_losses


# The shapes the backtest trains: every default-grid candidate (cut to 300
# epochs), one without a hidden layer and one without the weekday one-hot.
RUN_SHAPES = [
    spec.config for spec in expand_grid("mlp", {**MLP_DEFAULT_GRID, "epochs": (300,)}, 0)
]
RUN_SHAPES += [
    MlpConfig(window=14, hidden_units=0, epochs=300, learning_rate=0.05, seasonal=True),
    MlpConfig(window=14, hidden_units=8, epochs=300, learning_rate=0.1, seasonal=False),
]


def _shape_id(config):
    kind = "seasonal" if config.seasonal else "plain"
    return f"h{config.hidden_units}-lr{config.learning_rate}-{kind}"


@pytest.fixture(scope="module")
def deaths_fit_part(deaths):
    """The scaled fit part of the backtest's deaths training split, the series
    each default-grid ANN candidate is fitted on (230 rows of 21 features)."""
    train, _ = train_test_split(deaths, 0.2)
    fit_part, _ = train_test_split(train, 0.2)
    return scale(fit_scaler(fit_part), fit_part)


def _arrays(params):
    return [a for a in (params.hidden_w, params.hidden_b, params.out_w) if a is not None]


@pytest.mark.parametrize("config", RUN_SHAPES, ids=_shape_id)
def test_fit_mlp_equals_the_reference_on_the_backtest_shapes(config, deaths_fit_part):
    _assert_fit_equals_the_reference(deaths_fit_part, config, seed=0)


def test_a_second_fit_leaves_the_first_fits_arrays_unchanged(deaths_fit_part):
    config = RUN_SHAPES[0]
    first = fit_mlp(deaths_fit_part, config, seed=0).params
    before = [a.tobytes() for a in _arrays(first)]
    fit_mlp(deaths_fit_part, config, seed=1)
    assert [a.tobytes() for a in _arrays(first)] == before


@pytest.mark.parametrize("config", RUN_SHAPES[:1] + RUN_SHAPES[-2:], ids=_shape_id)
def test_no_two_fitted_arrays_share_memory(config, deaths_fit_part):
    arrays = _arrays(fit_mlp(deaths_fit_part, config, seed=0).params)
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("config", RUN_SHAPES[:1] + RUN_SHAPES[-2:], ids=_shape_id)
def test_no_two_gradient_arrays_share_memory(config, deaths_fit_part):
    X, y = _design(deaths_fit_part, config)
    params = oracle_mlp_init(config.hidden_units, X.shape[1], seed=0)
    grads, preds = mlp_gradients(params, X, y)
    returned = _arrays(grads) + [preds]
    for a, b in itertools.combinations(returned, 2):
        assert not np.shares_memory(a, b)
    for a, b in itertools.product(returned, _arrays(params) + [X, y]):
        assert not np.shares_memory(a, b)


def test_divergence_is_raised_at_the_references_first_non_finite_epoch(deaths_fit_part):
    config = MlpConfig(window=14, hidden_units=8, epochs=300, learning_rate=5.0, seasonal=True)
    X, y = _design(deaths_fit_part, config)
    with np.errstate(all="ignore"):
        _, losses = oracle_fit_mlp_params(X, y, config, seed=0)
    # losses[k] is the loss before epoch k's update, for k = 1..epochs
    k = next(k for k, value in enumerate(losses) if not np.isfinite(value))
    assert 1 < k <= config.epochs
    with pytest.raises(DivergenceError, match=f"diverged at epoch {k}$"):
        fit_mlp(deaths_fit_part, config, seed=0)


@pytest.mark.parametrize("seasonal", [False, True], ids=["plain", "seasonal"])
@pytest.mark.parametrize("hidden_units", [0, 8, 16])
def test_the_buffered_forecast_equals_the_reference_and_its_prefixes(
    hidden_units, seasonal, deaths_fit_part
):
    config = MlpConfig(window=14, hidden_units=hidden_units, epochs=50, learning_rate=0.1,
                       seasonal=seasonal)
    model = fit_mlp(deaths_fit_part, config, seed=0)
    full = forecast_mlp(model, 180)
    for h in (1, 7, 180):
        got = forecast_mlp(model, h)
        assert got.tobytes() == oracle_forecast_mlp(model, h).tobytes(), h
        assert got.tobytes() == full[:h].tobytes(), h


# The four default-grid candidates, cut to 2,000 epochs: a run of E epochs is
# the first E epochs of the default run.
DEFAULT_CANDIDATES = [
    spec.config for spec in expand_grid("mlp", {**MLP_DEFAULT_GRID, "epochs": (2000,)}, 0)
]


@pytest.mark.parametrize("target", TARGETS)
def test_the_default_candidates_train_as_the_reference_on_every_target(iran, target):
    """Parameters and loss_history bytes on the backtest's fit split of each target."""
    train, _ = train_test_split(extract_series(iran, target), 0.2)
    fit_part, _ = train_test_split(train, 0.2)
    fit_part = scale(fit_scaler(fit_part), fit_part)
    assert len(DEFAULT_CANDIDATES) == 4
    for config in DEFAULT_CANDIDATES:
        _assert_fit_equals_the_reference(fit_part, config, seed=0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(start=st.dates(max_value=date(9000, 1, 1)), n=st.integers(1, 4000))
def test_weekday_after_the_last_training_day_is_the_start_plus_length_rule(start, n):
    """fit_mlp's next_dow used to be (start weekday + training length) mod 7."""
    train = series(np.zeros(n), start=start)
    assert train.end_date == start + timedelta(days=n - 1)
    assert weekday_after(train.end_date) == (start.weekday() + n) % 7
