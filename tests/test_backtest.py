"""Evaluation harness: splits, rolling origins, grid search and reports."""

import json

import numpy as np
import pytest

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
    grid_search,
    holdout_eval,
    render_table,
    rolling_origin_eval,
)
from epiforecast.data import train_test_split
from epiforecast.errors import ContractError, ExhaustedGridError
import epiforecast.forecasters as fc
from epiforecast.forecasters import FAMILIES, KINDS, ForecasterSpec, fit, forecast
from epiforecast.forecasters.base import ArOrder, LstmConfig
from epiforecast.forecasters.base import AdditiveConfig, MlpConfig
from epiforecast.metrics import mse
from epiforecast.transform import fit_scaler, scale
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
