"""The forecasters' shared steps: the fitted-model constructor, the
gradient-descent driver and the recursive feedback loop."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiforecast.errors import ContractError, DivergenceError
from epiforecast.forecasters import (
    FAMILIES,
    fit,
    fit_additive,
    fit_arima,
    fit_autoreg,
    fit_mlp,
    forecast,
    train_lstm,
)
from epiforecast.forecasters.base import (
    AdditiveConfig,
    ArimaOrder,
    ArOrder,
    FittedModel,
    ForecasterSpec,
    LstmConfig,
    MlpConfig,
    descend,
)
from epiforecast.forecasters.arima import ArimaParams
from epiforecast.forecasters.autoreg import ArParams
from oracles import (
    oracle_forecast_arima,
    oracle_forecast_autoreg,
    oracle_forecast_lstm,
    oracle_forecast_mlp,
)
from support import series


def train_series(n=80):
    rng = np.random.default_rng(4)
    t = np.arange(n, dtype=np.float64)
    return series(t / n + 0.05 * np.sin(t) + rng.normal(0.0, 0.01, n))


ORACLES = {
    "autoreg": oracle_forecast_autoreg,
    "arima": oracle_forecast_arima,
    "lstm": oracle_forecast_lstm,
    "mlp": oracle_forecast_mlp,
}

RECURSIVE_SPECS = [
    ForecasterSpec("autoreg", ArOrder(1)),
    ForecasterSpec("autoreg", ArOrder(7)),
    ForecasterSpec("arima", ArimaOrder(0, 1, 0)),
    ForecasterSpec("arima", ArimaOrder(0, 1, 2)),
    ForecasterSpec("arima", ArimaOrder(0, 2, 1)),
    ForecasterSpec("arima", ArimaOrder(1, 0, 3)),
    ForecasterSpec("arima", ArimaOrder(2, 0, 0)),
    ForecasterSpec("arima", ArimaOrder(2, 1, 1)),
    ForecasterSpec("arima", ArimaOrder(1, 2, 2)),
    ForecasterSpec("lstm", LstmConfig(num_units=3, window=4, epochs=5, learning_rate=0.1), 11),
    ForecasterSpec("mlp", MlpConfig(window=5, hidden_units=3, epochs=50, learning_rate=0.05), 2),
    ForecasterSpec(
        "mlp", MlpConfig(window=7, hidden_units=0, epochs=50, learning_rate=0.05, seasonal=True), 3
    ),
    ForecasterSpec(
        "mlp", MlpConfig(window=6, hidden_units=4, epochs=50, learning_rate=0.05, seasonal=True), 5
    ),
]


@pytest.mark.parametrize(
    "spec", RECURSIVE_SPECS, ids=lambda s: f"{s.kind}-{'-'.join(map(str, vars(s.config).values()))}"
)
def test_recursive_forecasts_match_the_old_feedback_loops(spec):
    model = fit(spec, train_series())
    for h in (1, 7, 180):
        assert np.array_equal(forecast(model, h), ORACLES[spec.kind](model, h))


# Coefficients and values that keep the loops finite, and ones that overflow
# them to +-inf or turn them to NaN (inf - inf, 0 * inf) within a few steps
LOOP_FLOATS = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([-0.0, 1e200, -1e300, float("inf"), float("-inf"), float("nan")]),
)


@st.composite
def linear_models(draw):
    """An AutoReg or ARIMA model with random coefficients, residuals and tail."""
    floats = lambda n: np.array(draw(st.lists(LOOP_FLOATS, min_size=n, max_size=n)))
    if draw(st.booleans()):
        config = ArOrder(draw(st.integers(1, 14)))
        params = ArParams(c=draw(LOOP_FLOATS), phi=floats(config.p))
    else:
        p, d = draw(st.integers(0, 14)), draw(st.integers(0, 1))
        config = ArimaOrder(p, d, draw(st.integers(0 if p + d else 1, 2)))  # not (0, 0, 0)
        params = ArimaParams(
            c=draw(LOOP_FLOATS), phi=floats(config.p), theta=floats(config.q),
            resid_tail=floats(config.q),
        )
    spec = ForecasterSpec("autoreg" if isinstance(config, ArOrder) else "arima", config)
    return FittedModel(spec, params, train_tail=floats(FAMILIES[spec.kind].tail_length(config)))


def nan_as_one(values: np.ndarray) -> bytes:
    """The bytes of values with every NaN as the one NaN np.nan.

    Where two NaNs of opposite sign meet in a sum or product, which one comes
    out depends on the operand order the machine code happens to use: NumPy
    scalars, np.cumsum and CPython's float ops differ, and CPython 3.11's
    specialized float add and multiply differ from their first calls. No output
    can carry a NaN's sign, since the CLI refuses a non-finite forecast and the
    metrics a non-finite value, so NaNs are compared by position."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=linear_models(), h=st.integers(1, 40))
def test_linear_feedback_loops_over_python_floats_keep_the_old_bytes(model, h):
    # bytes, not array_equal, so that -0.0 and the NaN positions count too
    with np.errstate(all="ignore"):  # the oracles' scalars and np.diff warn on overflow
        expected, got = ORACLES[model.spec.kind](model, h), forecast(model, h)
    assert nan_as_one(got) == nan_as_one(expected)


@pytest.mark.parametrize(
    "fitter",
    [
        lambda s: fit_autoreg(s, ArOrder(3)),
        lambda s: fit_arima(s, ArimaOrder(2, 1, 1)),
        lambda s: train_lstm(s, LstmConfig(num_units=3, window=4, epochs=2, learning_rate=0.1), 5),
        lambda s: fit_mlp(s, MlpConfig(window=5, hidden_units=2, epochs=10, learning_rate=0.05)),
        lambda s: fit_additive(s, AdditiveConfig()),
    ],
    ids=["autoreg", "arima", "lstm", "mlp", "additive"],
)
def test_direct_fitter_calls_store_the_registry_tail_and_end_date(fitter):
    s = train_series()
    model = fitter(s)
    n = FAMILIES[model.spec.kind].tail_length(model.spec.config)
    assert np.array_equal(model.train_tail, s.values[-n:])
    assert model.train_end_date == s.end_date


@dataclass(frozen=True)
class Scalar:
    x: float
    loss_history: tuple = ()


def test_descend_records_every_loss_and_names_the_diverging_epoch():
    def halve(p):
        return Scalar(p.x / 2), p.x

    def blow_up(p):
        return Scalar(p.x * 1e300), p.x

    def loss(p):
        return p.x

    assert descend("toy", Scalar(8.0), 3, loss, halve) == Scalar(1.0, (8.0, 8.0, 4.0, 2.0, 1.0))
    with pytest.raises(DivergenceError, match="^toy training diverged at epoch 2$"):
        descend("toy", Scalar(1e300), 3, loss, blow_up)
    with pytest.raises(DivergenceError, match="^toy training diverged at epoch 1$"):
        descend("toy", Scalar(1e300), 1, loss, blow_up)


def test_spec_refuses_an_unknown_kind_and_another_kind_s_config():
    with pytest.raises(ContractError, match="unknown forecaster kind 'prophet'"):
        ForecasterSpec("prophet", ArOrder(1))
    with pytest.raises(ContractError, match="arima expects a ArimaOrder, got ArOrder"):
        ForecasterSpec("arima", ArOrder(1))


@pytest.mark.parametrize(
    "kind, config, field",
    [
        ("additive", AdditiveConfig(period=float("nan")), "period"),
        ("additive", AdditiveConfig(changepoint_penalty=float("inf")), "changepoint_penalty"),
        ("additive", AdditiveConfig(changepoint_penalty=float("nan")), "changepoint_penalty"),
        ("lstm", LstmConfig(4, 7, 0, float("inf")), "learning_rate"),
        ("mlp", MlpConfig(3, 2, 5, float("nan")), "learning_rate"),
    ],
)
def test_spec_refuses_non_finite_config_floats(kind, config, field):
    with pytest.raises(ContractError, match=f"^{field} must be finite, got (nan|inf)$"):
        ForecasterSpec(kind, config)
