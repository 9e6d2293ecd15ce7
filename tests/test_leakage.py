"""Leakage as a property of the whole harness: change the future, and nothing
computed before it may move.

Criterion 11 spies on two calls; these metamorphic checks catch a leak through
any channel, for every family and both protocols. Each example swaps the
values after a cut for others and compares the scores' bytes with the run on
the unchanged series (Tashman 2000; Bergmeir & Benitez 2012).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from epiforecast.backtest import (
    EvalProtocol,
    compare_models,
    rolling_origin_eval,
    score_candidate,
)
from epiforecast.data import Series, extract_series, train_test_split
from epiforecast.datasets import iran_covid
from epiforecast.forecasters import ForecasterSpec
from epiforecast.forecasters.base import (
    AdditiveConfig,
    ArimaOrder,
    ArOrder,
    LstmConfig,
    MlpConfig,
)

# Two candidates per family, so every family runs its grid search.
GRIDS = {
    "additive": [AdditiveConfig(n_changepoints=2), AdditiveConfig(n_changepoints=5)],
    "autoreg": [ArOrder(1), ArOrder(3)],
    "arima": [ArimaOrder(1, 1, 0), ArimaOrder(1, 1, 1)],
    "lstm": [
        LstmConfig(num_units=2, window=3, epochs=2, learning_rate=lr, batch_size=32, layers=1)
        for lr in (0.1, 0.3)
    ],
    "mlp": [
        MlpConfig(window=3, hidden_units=2, epochs=20, learning_rate=lr, seasonal=True)
        for lr in (0.05, 0.1)
    ],
}
SPECS = [ForecasterSpec(kind, config, 0) for kind, configs in GRIDS.items() for config in configs]
PROTOCOLS = {
    "holdout": EvalProtocol(),
    "rolling": EvalProtocol(kind="rolling_origin", initial_train=200, step=25, horizon=10),
}
DEATHS = extract_series(iran_covid(), "deaths")
N_TRAIN = len(train_test_split(DEATHS, 0.2)[0])
N_TEST = len(DEATHS) - N_TRAIN
FIRST_FOLD_END = PROTOCOLS["rolling"].initial_train + PROTOCOLS["rolling"].horizon
# An example replaces a whole stretch of the series, so shrinking a failure
# would rerun the harness hundreds of times; a failure is reported unshrunk.
LEAKAGE = settings(
    max_examples=2, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate)
)


def _with_tail(s: Series, cut: int, tail) -> Series:
    """s with every value from index cut on replaced by tail."""
    return Series(np.concatenate([s.values[:cut], tail]), s.start_date, s.kind, s.scale_state)


def _continuation(increments) -> np.ndarray:
    """A continuation of the training split: its last value plus the running sum
    of the increments, so it never falls and rises wherever one is positive."""
    return DEATHS.values[N_TRAIN - 1] + np.cumsum(np.asarray(increments, dtype=np.float64))


def _bytes(*values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _selection(protocol_name: str, s: Series) -> list[tuple]:
    """Each family's chosen hyperparameters and the bytes of its validation_mse,
    mse_train and r2_train, after checking that no row failed."""
    entries = [(kind, [spec for spec in SPECS if spec.kind == kind]) for kind in GRIDS]
    report = compare_models(entries, s, PROTOCOLS[protocol_name])
    assert [row.error for row in report.rows] == [None] * len(GRIDS)
    return [
        (row.name, row.hyperparameters, _bytes(row.validation_mse, row.mse_train, row.r2_train))
        for row in report.rows
    ]


def _candidate_bytes(protocol_name: str, s: Series) -> list[bytes]:
    """Each candidate's score_candidate bytes over the protocol's folds of the
    training split, with s standing in for the series the folds index."""
    outcomes = [score_candidate(spec, s, _folds(protocol_name)) for spec in SPECS]
    assert not [o for o in outcomes if isinstance(o, Exception)]
    return [_bytes(o) for o in outcomes]


def _fold_bytes(spec: ForecasterSpec, s: Series) -> list[tuple[int, int, bytes]]:
    """(origin, end, MSE bytes) of each rolling-origin fold of s."""
    protocol = PROTOCOLS["rolling"]
    return [(o, o + protocol.horizon, _bytes(m)) for o, m in rolling_origin_eval(spec, s, protocol)]


@lru_cache(maxsize=None)
def _unchanged(score, *args):
    """score(*args, DEATHS), computed once per argument tuple."""
    return score(*args, DEATHS)


def _folds(protocol_name: str) -> list[tuple[int, int]]:
    return PROTOCOLS[protocol_name].folds(train_test_split(DEATHS, 0.2)[0])


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
@LEAKAGE
@given(st.lists(st.integers(1, 5_000), min_size=len(DEATHS) - N_TRAIN,
                max_size=len(DEATHS) - N_TRAIN))
def test_compare_models_selection_ignores_the_test_split(protocol_name, increments):
    changed = _with_tail(DEATHS, N_TRAIN, _continuation(increments))
    assert _selection(protocol_name, changed) == _unchanged(_selection, protocol_name)


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
@LEAKAGE
@given(st.lists(st.integers(0, 5_000), min_size=N_TEST, max_size=N_TEST))
@example([0] * N_TEST)  # a count that stops rising: the test split is constant
def test_compare_models_selection_ignores_a_test_split_that_plateaus(protocol_name, increments):
    changed = _with_tail(DEATHS, N_TRAIN, _continuation(increments))
    assert _selection(protocol_name, changed) == _unchanged(_selection, protocol_name)


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
@LEAKAGE
@given(st.data())
def test_score_candidate_ignores_values_after_the_last_fold(protocol_name, data):
    end = max(o + h for o, h in _folds(protocol_name))
    tail = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(DEATHS) - end,
                              max_size=len(DEATHS) - end))
    changed = _candidate_bytes(protocol_name, _with_tail(DEATHS, end, tail))
    assert changed == _unchanged(_candidate_bytes, protocol_name)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.kind}-{spec.config}")
@LEAKAGE
@given(st.integers(FIRST_FOLD_END, len(DEATHS) - 1), st.floats(-1e6, 1e6))
def test_rolling_origin_fold_depends_only_on_its_first_values(spec, cut, value):
    changed = _fold_bytes(spec, _with_tail(DEATHS, cut, np.full(len(DEATHS) - cut, value)))
    want = _unchanged(_fold_bytes, spec)
    assert [fold[:2] for fold in changed] == [fold[:2] for fold in want]
    kept = [got == fold for got, fold in zip(changed, want) if fold[1] <= cut]
    assert kept and all(kept)
