"""Evaluation harness: splits, rolling origins, grid search and reports."""

import json
import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epiforecast.backtest as bt
from epiforecast.backtest import (
    ARIMA_DEFAULT_D,
    ARIMA_DEFAULT_P_MAX,
    ARIMA_DEFAULT_Q_MAX,
    AUTOREG_DEFAULT_P,
    DISPLAY_NAMES,
    EvalProtocol,
    arima_default_candidates,
    compare_models,
    default_model_grids,
    expand_grid,
    grid_search,
    holdout_eval,
    render_table,
    rolling_origin_eval,
    score_candidate,
)
from epiforecast.data import train_test_split
from epiforecast.errors import ContractError, ExhaustedGridError
import epiforecast.forecasters as fc
from epiforecast.forecasters import FAMILIES, KINDS, ForecasterSpec, fit, forecast
from epiforecast.forecasters.base import ArimaOrder, ArOrder, LstmConfig
from epiforecast.forecasters.base import AdditiveConfig, MlpConfig
from epiforecast.metrics import mse
from epiforecast.transform import fit_scaler, scale
from oracles import oracle_grid_search, oracle_rolling_origin_eval
from support import series


def wiggly_series(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return series(0.01 * np.arange(n) + 0.05 * rng.normal(0.0, 1.0, n) + 1.0)


def test_protocol_contract():
    with pytest.raises(ContractError, match="protocol kind"):
        EvalProtocol(kind="jackknife")
    with pytest.raises(ContractError):
        EvalProtocol(step=0)
    with pytest.raises(ContractError):
        EvalProtocol(horizon=0)
    assert EvalProtocol().kind == "holdout"
    assert EvalProtocol().test_fraction == 0.2


@pytest.mark.parametrize(
    "field",
    [{"initial_train": 5}, {"step": 3}, {"horizon": 9}],
    ids=["initial_train", "step", "horizon"],
)
def test_holdout_protocol_refuses_rolling_fields(field):
    with pytest.raises(ContractError, match="holdout protocol takes no initial_train"):
        EvalProtocol(**field)
    EvalProtocol(kind="rolling_origin", **field)


def test_holdout_eval_matches_manual_protocol():
    s = wiggly_series()
    spec = ForecasterSpec("autoreg", ArOrder(2), 0)
    scores = holdout_eval(spec, s)

    train, test = train_test_split(s, 0.2)
    scaler = fit_scaler(train)
    model = fit(spec, scale(scaler, train))
    fc = forecast(model, len(test))
    want = mse(scaler.transform(test.values), fc)
    assert scores.test_mse == pytest.approx(want, rel=0, abs=0)
    assert np.isfinite(scores.train_mse)
    assert scores.train_score <= 1.0 and scores.test_score <= 1.0


def test_rolling_origin_fold_layout():
    s = wiggly_series(100)
    protocol = EvalProtocol(kind="rolling_origin", initial_train=60, step=10, horizon=10)
    folds = rolling_origin_eval(ForecasterSpec("autoreg", ArOrder(1), 0), s, protocol)
    assert [f.origin for f in folds] == [60, 70, 80, 90]
    assert all(f.mse >= 0.0 for f in folds)


def test_rolling_origin_contract():
    s = wiggly_series(30)
    with pytest.raises(ContractError, match="initial_train"):
        rolling_origin_eval(
            ForecasterSpec("autoreg", ArOrder(1), 0), s, EvalProtocol(kind="rolling_origin")
        )
    with pytest.raises(ContractError, match=">= 2"):
        rolling_origin_eval(
            ForecasterSpec("autoreg", ArOrder(1), 0),
            s,
            EvalProtocol(kind="rolling_origin", initial_train=1),
        )
    with pytest.raises(ContractError, match="no room"):
        rolling_origin_eval(
            ForecasterSpec("autoreg", ArOrder(1), 0),
            s,
            EvalProtocol(kind="rolling_origin", initial_train=25, horizon=10),
        )


def test_grid_search_refits_winner_on_full_train():
    s = wiggly_series()
    candidates = [ForecasterSpec("autoreg", ArOrder(p), 0) for p in (1, 2, 3)]
    chosen, model, score = grid_search(candidates, s)
    assert chosen in candidates
    assert model.spec.config == chosen.config
    # refit on all of s: the stored tail is the scaled end of the full series
    assert len(model.train_tail) == chosen.config.p
    scaled_tail = model.scaler.transform(s.values[-chosen.config.p :])
    assert model.train_tail.tolist() == scaled_tail.tolist()
    assert score >= 0.0


def test_grid_search_breaks_ties_toward_earlier_candidate():
    s = wiggly_series()
    first = ForecasterSpec("autoreg", ArOrder(2), 0)
    twin = ForecasterSpec("autoreg", ArOrder(2), 0)
    chosen, _, _ = grid_search([first, twin], s)
    assert chosen is first


def test_grid_search_skips_failures_and_exhausts():
    s = wiggly_series(30)
    ok = ForecasterSpec("autoreg", ArOrder(1), 0)
    too_big = ForecasterSpec("autoreg", ArOrder(50), 0)
    chosen, _, _ = grid_search([too_big, ok], s)
    assert chosen is ok
    with pytest.raises(ExhaustedGridError):
        grid_search([too_big], s)
    with pytest.raises(ContractError):
        grid_search([], s)


def test_grid_search_rolling_protocol_scores_mean_fold_mse():
    s = wiggly_series(80)
    protocol = EvalProtocol(kind="rolling_origin", initial_train=50, step=10, horizon=5)
    spec = ForecasterSpec("autoreg", ArOrder(1), 0)
    _, _, score = grid_search([spec], s, protocol)
    folds = rolling_origin_eval(spec, s, protocol)
    assert score == pytest.approx(sum(f.mse for f in folds) / len(folds))


def test_compare_models_rows_and_split_bookkeeping():
    s = wiggly_series(100)
    entries = [
        ("AUTO REG", [ForecasterSpec("autoreg", ArOrder(p), 0) for p in (1, 2)]),
        ("BROKEN", [ForecasterSpec("autoreg", ArOrder(90), 0)]),
    ]
    report = compare_models(entries, s, target="confirmed")
    assert report.n_train == 80 and report.n_test == 20
    assert report.target == "confirmed"
    assert [r.name for r in report.rows] == ["AUTO REG", "BROKEN"]

    good, bad = report.rows
    assert good.error is None
    assert good.kind == "autoreg"
    assert good.validation_mse is not None  # grid search ran
    assert good.mse_test is not None and good.rmse_test == pytest.approx(np.sqrt(good.mse_test))
    assert bad.error is not None and bad.mse_test is None


def test_compare_models_single_spec_skips_grid_search():
    s = wiggly_series(100)
    report = compare_models([("AR", [ForecasterSpec("autoreg", ArOrder(2), 0)])], s)
    assert report.rows[0].validation_mse is None
    assert report.rows[0].error is None


def test_compare_models_empty_entry_is_error_row():
    report = compare_models([("EMPTY", [])], wiggly_series())
    assert "no candidate specs" in report.rows[0].error


def test_report_dict_shape_and_determinism():
    s = wiggly_series(100)
    lstm_spec = ForecasterSpec(
        "lstm", LstmConfig(num_units=3, window=5, epochs=8, learning_rate=0.1), 0
    )
    entries = [
        ("AUTO REG", [ForecasterSpec("autoreg", ArOrder(p), 0) for p in (1, 2)]),
        ("LSTM", [lstm_spec]),
    ]
    a = compare_models(entries, s, target="deaths")
    b = compare_models(entries, s, target="deaths")
    da, db = a.to_dict(), b.to_dict()
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    assert da["schema_version"] == 1
    assert da["split"]["n_train"] == 80
    assert da["protocol"]["kind"] == "holdout"
    assert {m["name"] for m in da["models"]} == {"AUTO REG", "LSTM"}
    assert all("wall_time_s" not in m for m in da["models"])
    with_times = a.to_dict(include_wall_times=True)
    assert all("wall_time_s" in m for m in with_times["models"])
    # wall times are the only nondeterministic field, and they stay out of
    # the default document
    assert "wall_time" not in json.dumps(da)


def test_rolling_origin_report_names_its_folds():
    protocol = EvalProtocol(kind="rolling_origin", initial_train=40, step=10, horizon=5)
    entries = [("AUTO REG", [ForecasterSpec("autoreg", ArOrder(p), 0) for p in (1, 2)])]
    doc = compare_models(entries, wiggly_series(100), protocol).to_dict()
    assert doc["protocol"] == {
        "kind": "rolling_origin",
        "test_fraction": 0.2,
        "initial_train": 40,
        "step": 10,
        "horizon": 5,
    }
    assert doc["protocol_note"] == bt.PROTOCOL_NOTES["rolling_origin"]
    assert "rolling-origin folds" in doc["protocol_note"]
    assert "Tashman 2000" in doc["protocol_note"]
    assert "validation tail" not in doc["protocol_note"]


def test_render_table_layout_and_error_cells():
    s = wiggly_series(100)
    entries = [
        ("AUTO REG", [ForecasterSpec("autoreg", ArOrder(1), 0)]),
        ("BROKEN", [ForecasterSpec("autoreg", ArOrder(90), 0)]),
    ]
    text = render_table(compare_models(entries, s))
    lines = text.splitlines()
    assert "AUTO REG" in lines[0] and "BROKEN" in lines[0]
    for label in ("Train Score", "Test Score", "MSE Train", "MSE Test"):
        assert any(line.startswith(label) for line in lines)
    assert any("error" in line for line in lines[1:5])
    assert lines[-1].startswith("BROKEN: error:")


def test_default_grids_cover_all_five_families():
    grids = default_model_grids(seed=7)
    by_name = dict(grids)
    assert list(by_name) == ["Prophet", "LSTM", "AUTO REG", "ARIMA", "ANN"]
    assert len(by_name["Prophet"]) == 6
    assert len(by_name["LSTM"]) == 2
    assert len(by_name["AUTO REG"]) == len(AUTOREG_DEFAULT_P)
    n_orders = (ARIMA_DEFAULT_P_MAX + 1) * len(ARIMA_DEFAULT_D) * (ARIMA_DEFAULT_Q_MAX + 1) - 1
    assert len(by_name["ARIMA"]) == n_orders
    assert len(by_name["ANN"]) == 4
    for name, specs in grids:
        assert DISPLAY_NAMES[specs[0].kind] == name
        assert all(spec.seed == 7 for spec in specs)


def test_arima_default_candidates_are_complexity_ordered():
    orders = [spec.config for spec in arima_default_candidates()]
    assert len(set((o.p, o.d, o.q) for o in orders)) == len(orders)
    sums = [o.p + o.d + o.q for o in orders]
    assert sums == sorted(sums)
    assert all(s >= 1 for s in sums)


def test_fitting_and_selection_never_touch_test_indices(monkeypatch):
    """Spy on every fitting entry point while compare_models runs a grid
    search: no call may receive values from the held-out test segment."""
    s = wiggly_series(100)
    train, _ = train_test_split(s, 0.2)
    n_train = len(train)

    seen = []
    real_fit, real_fit_scaler = bt.fit, bt.fit_scaler

    def spy_fit(spec, train_series):
        seen.append(("fit", train_series))
        return real_fit(spec, train_series)

    def spy_fit_scaler(train_series):
        seen.append(("fit_scaler", train_series))
        return real_fit_scaler(train_series)

    monkeypatch.setattr(bt, "fit", spy_fit)
    monkeypatch.setattr(bt, "fit_scaler", spy_fit_scaler)

    entries = [
        ("AUTO REG", [ForecasterSpec("autoreg", ArOrder(p), 0) for p in (1, 2, 3)]),
        ("AR SINGLE", [ForecasterSpec("autoreg", ArOrder(2), 0)]),
    ]
    report = compare_models(entries, s, target=None)
    assert all(row.error is None for row in report.rows)

    assert len(seen) >= 8  # 3 candidates + refit + single, for two functions
    for name, arg in seen:
        # every fitted series is a chronological prefix of the training split
        assert len(arg) <= n_train, f"{name} saw {len(arg)} points"
        assert arg.start_date == s.start_date
        assert arg.end_date <= train.end_date
        if name == "fit_scaler":  # raw values: must be the exact prefix
            assert arg.values.tolist() == s.values[: len(arg)].tolist()


def test_every_kind_has_family_display_name_and_default_grid():
    assert set(FAMILIES) == set(KINDS)
    assert set(DISPLAY_NAMES) == set(KINDS)
    grid_kinds = [specs[0].kind for _, specs in default_model_grids()]
    assert sorted(grid_kinds) == sorted(KINDS)


def test_foreign_exception_becomes_error_row_and_others_score(monkeypatch):
    def broken_fit(train, order):
        raise np.linalg.LinAlgError("SVD did not converge")

    # replaced on the package, where the family registry looks it up per call
    monkeypatch.setattr(fc, "fit_autoreg", broken_fit)
    entries = [e for e in default_model_grids(0) if e[0] in ("Prophet", "AUTO REG")]
    entries.append(("AR ONE", [ForecasterSpec("autoreg", ArOrder(2), 0)]))
    report = compare_models(entries, wiggly_series(100))
    prophet, autoreg, single = report.rows
    assert prophet.error is None and prophet.mse_test is not None
    assert autoreg.error == (
        f"all {len(AUTOREG_DEFAULT_P)} grid candidates failed; "
        "last: LinAlgError: SVD did not converge"
    )
    assert single.error == "LinAlgError: SVD did not converge"


def test_grid_search_skips_candidate_with_foreign_exception(monkeypatch):
    real = fc.fit_autoreg

    def flaky_fit(train, order):
        if order.p == 1:
            raise FloatingPointError("overflow")
        return real(train, order)

    monkeypatch.setattr(fc, "fit_autoreg", flaky_fit)
    candidates = [ForecasterSpec("autoreg", ArOrder(p), 0) for p in (1, 2)]
    chosen, model, score = grid_search(candidates, wiggly_series(100))
    assert chosen.config == ArOrder(2)
    assert np.isfinite(score)


@pytest.mark.parametrize(
    "spec",
    [
        ForecasterSpec("autoreg", ArOrder(3), 0),
        ForecasterSpec("additive", AdditiveConfig(n_changepoints=3, fourier_order=1), 0),
        ForecasterSpec("mlp", MlpConfig(window=4, hidden_units=3, epochs=50, learning_rate=0.05), 1),
    ],
    ids=lambda spec: spec.kind,
)
def test_grid_search_holdout_score_is_the_fit_part_validation_mse(spec):
    s = wiggly_series(100)
    _, _, score = grid_search([spec], s)
    fit_part, val = train_test_split(s, 0.2)
    scaler = fit_scaler(fit_part)
    model = fit(spec, scale(scaler, fit_part))
    assert score == mse(scaler.transform(val.values), forecast(model, len(val)))


def test_score_notes_the_metrics_it_cannot_define():
    spec = ForecasterSpec("autoreg", ArOrder(2), 0)
    values = wiggly_series(100).values.copy()
    values[90] = values[:80].min()  # the scaler's min: 0.0 on the normalized scale
    report = compare_models([("AR", [spec])], series(values))
    (row,) = report.rows
    assert row.mape_test is None and row.mase_test is not None
    assert row.notes == ["mape_test undefined: mape undefined: actual contains a zero"]
    # a constant train has no scaler, so only a direct call scores one
    train, test = train_test_split(wiggly_series(100), 0.2)
    model = bt.fit_normalized(spec, train)
    row = bt.ReportRow(name="AR")
    bt._score(row, spec, model, series(np.full(80, 1.0)), test)
    assert row.mase_test is None and row.mape_test is not None
    assert row.notes == ["mase_test undefined: mase undefined: training series is constant"]


# Two tiny candidates per family, so every family runs its grid search
TINY_GRIDS = {
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
R2_TEST_NOTE = "r2_test undefined: fit_score undefined: actual series is constant"


def plateaued_series(n=100, test_fraction=0.2):
    """wiggly_series held at its last training value over the test split, as a
    cumulative count is when it stops rising."""
    values = wiggly_series(n).values.copy()
    n_train = len(train_test_split(series(values), test_fraction)[0])
    values[n_train:] = values[n_train - 1]
    return series(values)


@pytest.mark.parametrize(
    "protocol",
    [EvalProtocol(), EvalProtocol(kind="rolling_origin", initial_train=40, step=10, horizon=5)],
    ids=["holdout", "rolling"],
)
def test_a_constant_test_split_scores_every_family_and_notes_its_r2(protocol):
    entries = [
        (kind, [ForecasterSpec(kind, config, 0) for config in configs])
        for kind, configs in TINY_GRIDS.items()
    ]
    report = compare_models(entries, plateaued_series(), protocol)
    assert [row.error for row in report.rows] == [None] * len(TINY_GRIDS)
    for row in report.rows:
        assert row.r2_test is None and row.notes == [R2_TEST_NOTE]
        assert row.hyperparameters is not None
        assert row.validation_mse is not None and row.mse_test is not None
        assert row.r2_train is not None and row.rmse_test is not None
    doc = report.to_dict()
    assert [m["metrics"]["r2_test"] for m in doc["models"]] == [None] * len(TINY_GRIDS)
    assert doc["schema_version"] == 1


def test_render_table_shows_n_a_for_an_undefined_metric():
    entries = [(f"AR{p}", [ForecasterSpec("autoreg", ArOrder(p), 0)]) for p in (1, 2)]
    lines = render_table(compare_models(entries, plateaued_series())).splitlines()
    test_score = next(line for line in lines if line.startswith("Test Score"))
    train_score = next(line for line in lines if line.startswith("Train Score"))
    assert test_score.split() == ["Test", "Score", "n/a", "n/a"]
    assert "n/a" not in train_score and "error" not in "\n".join(lines)


# --- one fold rule -----------------------------------------------------------------


def assert_same_float(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


FOLD_GRIDS = {
    "autoreg": expand_grid("autoreg", {"p": (1, 2, 3, 7, 14)}, 0),
    "additive": expand_grid(
        "additive",
        {
            "n_changepoints": (2, 5),
            "changepoint_penalty": (0.1, 10.0),
            "fourier_order": (1, 3),
            "period": (7.0,),
        },
        0,
    ),
}
FOLD_PROTOCOLS = {
    "holdout": EvalProtocol(),
    "holdout-0.35": EvalProtocol(test_fraction=0.35),
    "rolling-50-10-5": EvalProtocol(kind="rolling_origin", initial_train=50, step=10, horizon=5),
    "rolling-60-7-14": EvalProtocol(kind="rolling_origin", initial_train=60, step=7, horizon=14),
}


@pytest.mark.parametrize("protocol", FOLD_PROTOCOLS.values(), ids=FOLD_PROTOCOLS)
@pytest.mark.parametrize("kind", FOLD_GRIDS)
def test_grid_search_scores_as_before_the_fold_rule(kind, protocol):
    s = wiggly_series(100, seed=3)
    candidates = FOLD_GRIDS[kind]
    chosen, model, score = grid_search(candidates, s, protocol)
    want_chosen, want_model, want_score = oracle_grid_search(candidates, s, protocol)
    assert chosen is want_chosen
    assert_same_float(score, want_score)
    assert forecast(model, 20).tobytes() == forecast(want_model, 20).tobytes()
    assert model.train_tail.tobytes() == want_model.train_tail.tobytes()
    if protocol.kind == "rolling_origin":
        for spec in candidates:
            got = rolling_origin_eval(spec, s, protocol)
            want = oracle_rolling_origin_eval(spec, s, protocol)
            assert [f.origin for f in got] == [f.origin for f in want]
            for got_fold, want_fold in zip(got, want):
                assert_same_float(got_fold.mse, want_fold.mse)


def test_grid_search_calls_mse_once_per_scored_fold(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return mse(*args)

    monkeypatch.setattr(bt, "mse", counted)
    grid_search(FOLD_GRIDS["autoreg"], wiggly_series(100), FOLD_PROTOCOLS["rolling-50-10-5"])
    assert len(calls) == len(FOLD_GRIDS["autoreg"]) * 5  # origins 50, 60, 70, 80 and 90


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 400),
    test_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(n=100, test_fraction=0.2)
@example(n=1, test_fraction=0.2)
def test_holdout_folds_are_the_train_test_split(n, test_fraction):
    s = series(np.zeros(n))
    protocol = EvalProtocol(test_fraction=test_fraction)
    try:
        fit_part, val = train_test_split(s, test_fraction)
    except ContractError as exc:
        with pytest.raises(ContractError, match=re.escape(str(exc))):
            protocol.folds(s)
    else:
        assert protocol.folds(s) == [(len(fit_part), len(val))]


@pytest.mark.parametrize(
    "protocol, message",
    [
        (EvalProtocol(kind="rolling_origin"), "initial_train"),
        (EvalProtocol(kind="rolling_origin", initial_train=25, horizon=10), "no room"),
    ],
    ids=["no-initial-train", "no-room"],
)
def test_grid_search_refuses_a_rolling_protocol_that_cannot_fold_train(
    monkeypatch, protocol, message
):
    # the folds are laid out once, before any candidate is fitted, so a layout that
    # does not fit train is the caller's error, not a failure of every candidate
    fits = []
    monkeypatch.setattr(bt, "fit_normalized", lambda *args: fits.append(args))
    candidates = FOLD_GRIDS["autoreg"][:2]
    with pytest.raises(ContractError, match=message):
        grid_search(candidates, wiggly_series(30), protocol)
    assert fits == []


def test_rolling_origin_eval_scores_the_one_fold_of_a_holdout_protocol():
    s = wiggly_series(100)
    spec = ForecasterSpec("autoreg", ArOrder(2), 0)
    protocol = EvalProtocol(test_fraction=0.25)
    (fold,) = rolling_origin_eval(spec, s, protocol)
    _, _, score = grid_search([spec], s, protocol)
    assert fold.origin == 75
    assert_same_float(fold.mse, score)


# --- one candidate scorer ------------------------------------------------------------


def log_records(caplog):
    """(logger, level, message, exc_info type) of each captured record, in order."""
    return [
        (r.name, r.levelno, r.getMessage(), r.exc_info[0] if r.exc_info else None)
        for r in caplog.records
    ]


def plant_zero_division(monkeypatch, p):
    """fit_autoreg raises ZeroDivisionError, a foreign exception, for order p."""
    real = fc.fit_autoreg

    def planted(train, order):
        if order.p == p:
            raise ZeroDivisionError("planted")
        return real(train, order)

    monkeypatch.setattr(fc, "fit_autoreg", planted)


def test_grid_search_logs_and_selects_as_the_oracle_with_both_kinds_of_failure(
    monkeypatch, caplog
):
    plant_zero_division(monkeypatch, 2)
    s = wiggly_series(30)
    # ArOrder(50) cannot fit the 24-point fit part: a package failure
    candidates = [ForecasterSpec("autoreg", ArOrder(p), 0) for p in (50, 3, 2, 1)]
    caplog.set_level(logging.DEBUG)
    chosen, model, score = grid_search(candidates, s)
    got = log_records(caplog)
    caplog.clear()
    want_chosen, want_model, want_score = oracle_grid_search(candidates, s)
    assert got == log_records(caplog)
    assert [(name, level, exc_type) for name, level, _, exc_type in got] == [
        ("epiforecast.backtest", logging.WARNING, None),
        ("epiforecast.backtest", logging.WARNING, ZeroDivisionError),
    ]
    assert chosen is want_chosen
    assert_same_float(score, want_score)
    assert forecast(model, 20).tobytes() == forecast(want_model, 20).tobytes()
    # every candidate failing: the same records and the same error text
    caplog.clear()
    with pytest.raises(ExhaustedGridError) as got_error:
        grid_search(candidates[::2], s)
    got = log_records(caplog)
    caplog.clear()
    with pytest.raises(ExhaustedGridError) as want_error:
        oracle_grid_search(candidates[::2], s)
    assert got == log_records(caplog)
    assert str(got_error.value) == str(want_error.value)
    assert str(got_error.value) == "all 2 grid candidates failed; last: ZeroDivisionError: planted"


def test_score_candidate_returns_the_failure_and_logs_nothing(monkeypatch, caplog):
    plant_zero_division(monkeypatch, 2)
    s = wiggly_series(30)
    folds = EvalProtocol().folds(s)
    caplog.set_level(logging.DEBUG)
    too_big = score_candidate(ForecasterSpec("autoreg", ArOrder(50), 0), s, folds)
    foreign = score_candidate(ForecasterSpec("autoreg", ArOrder(2), 0), s, folds)
    assert isinstance(too_big, ContractError)
    assert isinstance(foreign, ZeroDivisionError) and str(foreign) == "planted"
    assert caplog.records == []
    s = wiggly_series(100)
    spec = ForecasterSpec("autoreg", ArOrder(3), 0)
    for protocol in FOLD_PROTOCOLS.values():
        folds = protocol.folds(s)
        want = sum(bt._fold_mse(spec, s, o, h) for o, h in folds) / len(folds)
        assert_same_float(score_candidate(spec, s, folds), want)
    assert caplog.records == []
