"""Scaling, differencing and windowing, with property-based round trips."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiforecast.errors import ContractError, DegenerateScaleError
from epiforecast.transform import (
    IDENTITY_SCALER,
    DifferenceState,
    MinMaxScaler,
    WindowSet,
    difference,
    difference_values,
    fit_scaler,
    integrate,
    integrate_forecast,
    integrate_values,
    inverse_scale,
    make_windows,
    scale,
)
from oracles import oracle_integrate_forecast, oracle_integrate_values, oracle_windows
from support import START, series

finite_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def test_fit_scaler_maps_range_to_unit_interval():
    s = series([10.0, 30.0, 20.0], scale_state="raw")
    scaler = fit_scaler(s)
    assert scaler.min == 10.0 and scaler.max == 30.0
    out = scale(scaler, s)
    assert out.scale_state == "normalized"
    assert out.kind == s.kind
    assert out.values.tolist() == [0.0, 1.0, 0.5]


def test_scaler_rejects_degenerate_range():
    with pytest.raises(DegenerateScaleError):
        fit_scaler(series([5.0, 5.0, 5.0]))
    with pytest.raises(DegenerateScaleError):
        MinMaxScaler(2.0, 2.0)
    with pytest.raises(DegenerateScaleError):
        MinMaxScaler(3.0, 1.0)


def test_identity_scaler_is_a_no_op():
    v = np.array([0.25, 0.5])
    assert IDENTITY_SCALER.transform(v).tolist() == v.tolist()
    assert IDENTITY_SCALER.inverse(v).tolist() == v.tolist()


def test_inverse_scale_restores_raw_state():
    s = series([10.0, 30.0, 20.0], scale_state="raw")
    scaler = fit_scaler(s)
    back = inverse_scale(scaler, scale(scaler, s))
    assert back.scale_state == "raw"
    assert np.allclose(back.values, s.values, rtol=0, atol=1e-12)


@given(
    st.lists(finite_values, min_size=2, max_size=50).filter(
        lambda vs: max(vs) - min(vs) > 1e-6
    )
)
@settings(max_examples=200, deadline=None)
def test_scale_inverse_round_trip_property(values):
    s = series(values, scale_state="raw")
    scaler = fit_scaler(s)
    back = inverse_scale(scaler, scale(scaler, s))
    scale_span = scaler.max - scaler.min
    assert np.max(np.abs(back.values - s.values)) <= 1e-12 * max(1.0, scale_span)


def test_difference_values_and_state():
    out, state = difference_values(np.array([1.0, 4.0, 9.0, 16.0]), 2)
    assert out.tolist() == [2.0, 2.0]
    assert state == DifferenceState(order=2, heads=(1.0, 3.0))
    assert integrate_values(out, state).tolist() == [1.0, 4.0, 9.0, 16.0]


def test_difference_contract():
    with pytest.raises(ContractError):
        difference_values(np.ones(3), -1)
    with pytest.raises(ContractError, match="too short"):
        difference_values(np.ones(2), 2)
    with pytest.raises(ContractError):
        DifferenceState(order=2, heads=(1.0,))
    with pytest.raises(ContractError):
        DifferenceState(order=-1, heads=())


def test_difference_series_metadata():
    s = series([1.0, 3.0, 6.0, 10.0], kind="cumulative", scale_state="raw")
    d1, state = difference(s, 1)
    assert d1.kind == "incident"
    assert d1.start_date == START + timedelta(days=1)
    assert d1.values.tolist() == [2.0, 3.0, 4.0]
    back = integrate(d1, state)
    assert back.kind == "cumulative"
    assert back.start_date == START
    assert back.values.tolist() == s.values.tolist()


def test_difference_order_zero_is_identity():
    s = series([1.0, 2.0, 5.0])
    d0, state = difference(s, 0)
    assert d0.values.tolist() == s.values.tolist()
    assert d0.kind == s.kind and d0.start_date == s.start_date
    back = integrate(d0, state)
    assert back.values.tolist() == s.values.tolist()
    assert back.kind == s.kind


@given(
    st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=3, max_size=40),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=200, deadline=None)
def test_difference_integrate_exact_on_integers(values, d):
    arr = np.array(values, dtype=np.float64)
    out, state = difference_values(arr, d)
    back = integrate_values(out, state)
    # integer-valued float arithmetic at this magnitude is exact
    assert back.tolist() == arr.tolist()


def test_integrate_forecast_first_order_is_anchored_cumsum():
    fc = np.array([1.0, 2.0, 3.0])
    out = integrate_forecast(fc, level_tail=np.array([5.0, 10.0]), d=1)
    assert out.tolist() == [11.0, 13.0, 16.0]


def test_integrate_forecast_second_order_matches_manual():
    # levels 1, 4, 9 -> first diffs 3, 5 -> second diffs per forecast
    tail = np.array([1.0, 4.0, 9.0])
    out = integrate_forecast(np.array([2.0, 2.0]), tail, d=2)
    # next first-diffs: 5+2=7, 7+2=9; next levels: 9+7=16, 16+9=25
    assert out.tolist() == [16.0, 25.0]


def test_integrate_forecast_contract():
    assert integrate_forecast(np.array([1.0, 2.0]), np.array([]), 0).tolist() == [1.0, 2.0]
    with pytest.raises(ContractError, match="at least 2"):
        integrate_forecast(np.array([1.0]), np.array([4.0]), 2)
    with pytest.raises(ContractError):
        integrate_forecast(np.array([1.0]), np.array([4.0]), -1)


def test_make_windows_rows_and_targets():
    ws = make_windows(series(np.arange(6.0)), 2)
    assert ws.window == 2
    assert len(ws) == 4
    assert ws.inputs.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4]]
    assert ws.targets.tolist() == [2.0, 3.0, 4.0, 5.0]


def test_make_windows_contract():
    with pytest.raises(ContractError, match=">= 1"):
        make_windows(series([1.0, 2.0]), 0)
    with pytest.raises(ContractError, match="no complete window"):
        make_windows(series([1.0, 2.0]), 2)
    with pytest.raises(ContractError):
        WindowSet(inputs=np.ones((3, 2)), targets=np.ones(2), window=2)
    with pytest.raises(ContractError):
        WindowSet(inputs=np.ones((3, 2)), targets=np.ones(3), window=3)


@given(
    st.lists(finite_values, min_size=3, max_size=40),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_windows_reconstruct_series_property(values, w):
    if len(values) <= w:
        return
    s = series(values)
    ws = make_windows(s, w)
    rebuilt = np.concatenate([ws.inputs[0], ws.targets])
    assert rebuilt.tolist() == s.values.tolist()
    # each row is the w values preceding its target
    for i in range(len(ws)):
        assert ws.inputs[i].tolist() == s.values[i : i + w].tolist()


@given(
    st.lists(finite_values, min_size=0, max_size=40),
    st.lists(finite_values, min_size=3, max_size=3),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_vectorized_integration_matches_loop_oracles_bit_for_bit(diffed, tail, d):
    diffed = np.array(diffed, dtype=np.float64)
    heads = tuple(tail[:d])
    state = DifferenceState(order=d, heads=heads)
    assert np.array_equal(integrate_values(diffed, state), oracle_integrate_values(diffed, heads))
    out = integrate_forecast(diffed, np.array(tail), d)
    assert np.array_equal(out, oracle_integrate_forecast(diffed, tail, d))


@given(
    st.lists(finite_values, min_size=2, max_size=40),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_vectorized_windows_match_loop_oracle(values, w):
    if len(values) <= w:
        return
    ws = make_windows(series(values), w)
    inputs, targets = oracle_windows(values, w)
    assert np.array_equal(ws.inputs, inputs) and np.array_equal(ws.targets, targets)
    assert ws.inputs.flags.owndata and ws.inputs.flags.writeable
