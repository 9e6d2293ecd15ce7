"""Accuracy metrics: frozen worked examples, invariants and hard failures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiforecast.errors import ContractError, UndefinedMetricError
from epiforecast.metrics import fit_score, mape, mase, mse, rmse


def test_mse_matches_hand_computation():
    # ((1-2)^2 + (2-4)^2) / 2 = (1 + 4) / 2
    assert mse([1.0, 2.0], [2.0, 4.0]) == 2.5


def test_rmse_is_root_of_mse():
    assert rmse([1.0, 2.0], [2.0, 4.0]) == pytest.approx(np.sqrt(2.5), rel=0, abs=0)


def test_mape_matches_hand_computation():
    # 100 * (|10/100| + |20/200|) / 2 = 100 * (0.1 + 0.1) / 2
    assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0)


def test_fit_score_matches_hand_computation():
    # ss_res = 1, ss_tot = 2 -> 1 - 1/2
    assert fit_score([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5)


def test_mase_of_naive_one_step_forecast_is_one():
    # predicting each test value by the previous one, on a unit-step train
    train = [1.0, 2.0, 3.0, 4.0]
    actual = [5.0, 6.0]
    predicted = [4.0, 5.0]
    assert mase(actual, predicted, train) == pytest.approx(1.0)


def test_mase_scales_with_train_step_size():
    train = [0.0, 2.0, 4.0]  # mean absolute step 2
    assert mase([6.0], [5.0], train) == pytest.approx(0.5)


def test_perfect_predictions():
    a = np.array([3.0, 4.0, 5.0])
    assert mse(a, a) == 0.0
    assert rmse(a, a) == 0.0
    assert mape(a, a) == 0.0
    assert fit_score(a, a) == 1.0


def test_mape_rejects_zero_actuals():
    with pytest.raises(UndefinedMetricError, match="zero"):
        mape([0.0, 1.0], [1.0, 1.0])


def test_mase_rejects_constant_train():
    with pytest.raises(UndefinedMetricError, match="constant"):
        mase([1.0], [2.0], [3.0, 3.0, 3.0])


def test_mase_needs_two_train_points():
    with pytest.raises(ContractError):
        mase([1.0], [2.0], [3.0])


def test_fit_score_rejects_constant_actuals():
    with pytest.raises(UndefinedMetricError, match="constant"):
        fit_score([2.0, 2.0], [1.0, 3.0])


@pytest.mark.parametrize("bad_pair", [
    ([1.0, 2.0], [1.0]),            # length mismatch
    ([], []),                        # empty
    ([[1.0, 2.0]], [[1.0, 2.0]]),    # not 1-d
    ([1.0, np.nan], [1.0, 2.0]),     # non-finite actual
    ([1.0, 2.0], [np.inf, 2.0]),     # non-finite prediction
])
def test_metrics_reject_malformed_pairs(bad_pair):
    a, p = bad_pair
    for metric in (mse, rmse, mape, fit_score):
        with pytest.raises(ContractError):
            metric(a, p)
    with pytest.raises(ContractError):
        mase(a, p, [0.0, 1.0, 2.0])


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    ),
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=200, deadline=None)
def test_mse_rmse_consistency_property(a, p):
    n = min(len(a), len(p))
    a, p = a[:n], p[:n]
    m = mse(a, p)
    assert m >= 0.0
    assert rmse(a, p) == pytest.approx(np.sqrt(m), rel=1e-12, abs=0.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_fit_score_never_exceeds_one_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, 20)
    p = rng.normal(0.0, 1.0, 20)
    assert fit_score(a, p) <= 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mase_rejects_a_non_finite_train_value(bad):
    with pytest.raises(ContractError, match="^training series must be finite$"):
        mase([1.0], [2.0], [3.0, bad, 4.0])
