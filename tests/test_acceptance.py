"""Release gate: twelve end-to-end checks, one visible verdict line each.

Every test prints "ACCEPTANCE nn <name>: PASS/FAIL (<detail>)" directly to
the console — even under plain pytest — so a run's verdicts read straight
off the output. The checks cover numerical correctness (metric formulas,
gradients, estimator recovery), structural equivalences between models,
exact round trips, the bundled-dataset comparison experiments, CLI output
contracts, run-to-run determinism, and a train/test isolation audit.
"""

import csv
import math
import statistics
import time
from contextlib import contextmanager
from datetime import date, timedelta

import numpy as np
import pytest

import epiforecast.backtest as bt
from epiforecast.backtest import compare_models, default_model_grids
from epiforecast.cli import main
from epiforecast.data import cumulative_to_incident, extract_series, incident_to_cumulative
from epiforecast.data import train_test_split
from epiforecast.forecasters import (
    ForecasterSpec,
    fit,
    forecast,
    insample_predictions,
    load_model,
    save_model,
)
from epiforecast.forecasters.arima import arima_css_objective, fit_arima, grid_search_arima
from epiforecast.forecasters.autoreg import fit_autoreg
from epiforecast.forecasters.base import (
    AdditiveConfig,
    ArimaOrder,
    ArOrder,
    LstmConfig,
    MlpConfig,
)
from epiforecast.metrics import fit_score, mape, mase, mse, rmse
from epiforecast.transform import difference_values, fit_scaler, integrate_values
from oracles import lstm_gradcheck_max_rel_err, mlp_gradcheck_max_rel_err, simulate_arma
from support import series


@contextmanager
def announced(capsys, num, name):
    """Print one verdict line for the enclosing criterion, pass or fail."""
    holder = type("Detail", (), {"text": ""})()
    try:
        yield holder
    except BaseException as exc:
        with capsys.disabled():
            reason = holder.text or f"{type(exc).__name__}: {exc}"
            print(f"\nACCEPTANCE {num:02d} {name}: FAIL ({reason})")
        raise
    with capsys.disabled():
        suffix = f" ({holder.text})" if holder.text else ""
        print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}")


# ---------------------------------------------------------------- criterion 1


def _straight_line_metrics(a, p, train):
    """Direct formula evaluations, written independently of the library."""
    n = len(a)
    sq = sum((x - y) ** 2 for x, y in zip(a, p))
    m = sum(a) / n
    naive_step = sum(abs(train[i] - train[i - 1]) for i in range(1, len(train)))
    naive_step /= len(train) - 1
    return {
        "mse": sq / n,
        "rmse": math.sqrt(sq / n),
        "mape": 100.0 * sum(abs((x - y) / x) for x, y in zip(a, p)) / n,
        "mase": (sum(abs(x - y) for x, y in zip(a, p)) / n) / naive_step,
        "fit_score": 1.0 - sq / sum((x - m) ** 2 for x in a),
    }


def test_criterion_01_metric_oracles(capsys):
    with announced(capsys, 1, "metric formulas match direct evaluation") as d:
        fns = {"mse": mse, "rmse": rmse, "mape": mape, "mase": mase, "fit_score": fit_score}
        worst = 0.0
        t0 = time.perf_counter()
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 30))
            actual = rng.uniform(1.0, 200.0, n)
            predicted = actual + rng.normal(0.0, 20.0, n)
            train = rng.uniform(0.0, 100.0, int(rng.integers(3, 30)))
            expected = _straight_line_metrics(actual.tolist(), predicted.tolist(), train.tolist())
            for name, want in expected.items():
                args = (actual, predicted, train) if name == "mase" else (actual, predicted)
                got = fns[name](*args)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        elapsed = time.perf_counter() - t0
        d.text = f"1000 random pairs, max rel err {worst:.2e} in {elapsed:.2f}s"
        assert worst < 1e-12
        assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_gradient_checks(capsys):
    with announced(capsys, 2, "analytic gradients match finite differences") as d:
        t0 = time.perf_counter()
        worst_lstm = max(lstm_gradcheck_max_rel_err(seed) for seed in range(7000, 7050))
        worst_mlp = max(mlp_gradcheck_max_rel_err(seed) for seed in range(8000, 8050))
        elapsed = time.perf_counter() - t0
        d.text = (
            f"50 probes each: lstm max rel err {worst_lstm:.2e}, "
            f"mlp {worst_mlp:.2e} in {elapsed:.1f}s"
        )
        assert worst_lstm < 1e-4
        assert worst_mlp < 1e-4
        assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_parameter_recovery(capsys):
    with announced(capsys, 3, "estimators recover known coefficients") as d:
        t0 = time.perf_counter()

        ar_hits = 0
        for seed in range(20):
            z = simulate_arma(phi=(1.5, -0.9), n=1000, sigma=0.01, seed=seed)
            phi = fit_autoreg(series(z), ArOrder(2)).params.phi
            if abs(phi[0] - 1.5) <= 0.05 and abs(phi[1] + 0.9) <= 0.05:
                ar_hits += 1

        arima_hits = 0
        for seed in range(100, 120):
            z = simulate_arma(phi=(0.7,), n=500, sigma=0.02, seed=seed)
            model = fit_arima(series(np.cumsum(z)), ArimaOrder(1, 1, 0))
            if abs(model.params.phi[0] - 0.7) <= 0.07:
                arima_hits += 1

        ma_hits = 0
        for seed in range(200, 220):
            z = simulate_arma(theta=(0.5,), n=1000, sigma=0.02, seed=seed)
            model = fit_arima(series(z), ArimaOrder(0, 0, 1))
            if abs(model.params.theta[0] - 0.5) <= 0.08:
                ma_hits += 1

        elapsed = time.perf_counter() - t0
        d.text = (
            f"AR(2) {ar_hits}/20, differenced AR(1) {arima_hits}/20, "
            f"MA(1) {ma_hits}/20 in {elapsed:.1f}s"
        )
        assert ar_hits >= 18
        assert arima_hits >= 18
        assert ma_hits >= 18
        assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_order_selection(capsys):
    with announced(capsys, 4, "grid search finds the generating order") as d:
        t0 = time.perf_counter()
        picks = []
        for seed in range(1000, 1020):
            z = simulate_arma(phi=(0.9,), c=0.1, n=500, sigma=1.0, seed=seed)
            train, val = train_test_split(series(np.cumsum(z)), 0.2)
            order, _, _ = grid_search_arima(train, val, p_max=3, q_max=3)
            picks.append(order)
        elapsed = time.perf_counter() - t0
        d_hits = sum(1 for o in picks if o.d == 1)
        p_hits = sum(1 for o in picks if o.p in (1, 2))
        d.text = f"d=1 in {d_hits}/20, p in {{1,2}} in {p_hits}/20, {elapsed:.1f}s"
        assert d_hits >= 18
        assert p_hits >= 16
        assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_model_equivalences(capsys):
    with announced(capsys, 5, "degenerate configurations collapse as expected") as d:
        s = series(simulate_arma(phi=(0.6, -0.3), n=300, sigma=1.0, seed=0))

        # pure-AR special case of the general model matches the direct fit
        ar = fit_autoreg(s, ArOrder(2))
        general = fit_arima(s, ArimaOrder(2, 0, 0))
        param_diff = max(
            abs(ar.params.c - general.params.c),
            float(np.max(np.abs(ar.params.phi - general.params.phi))),
        )
        forecast_diff = float(np.max(np.abs(forecast(ar, 10) - forecast(general, 10))))
        assert param_diff <= 1e-6
        assert forecast_diff <= 1e-6

        # no changepoints + no seasonality reduces to ordinary linear regression
        rng = np.random.default_rng(7)
        t = np.arange(120.0)
        y = 3.0 + 0.8 * t + rng.normal(0.0, 0.5, 120)
        line_series = series(y)
        trend_only = AdditiveConfig(n_changepoints=0, changepoint_penalty=1.0, fourier_order=0)
        model = fit(ForecasterSpec("additive", trend_only, 0), line_series)
        X = np.column_stack([np.ones(120), t])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        _, fitted = insample_predictions(model, line_series)
        linreg_diff = float(np.max(np.abs(fitted - X @ beta)))
        t_future = np.arange(120.0, 135.0)
        fc_diff = float(
            np.max(np.abs(forecast(model, 15) - (beta[0] + beta[1] * t_future)))
        )
        assert linreg_diff <= 1e-10
        assert fc_diff <= 1e-10

        # with no moving-average part the conditional objective IS the AR
        # sum of squared residuals, reproduced here operation for operation
        z = simulate_arma(phi=(0.5,), n=200, sigma=1.0, seed=5)
        for c, phi in [(0.3, (0.45,)), (0.1, (0.5, -0.2))]:
            p, m = len(phi), len(z)
            e = z[p:] - c
            for i in range(1, p + 1):
                e = e - phi[i - 1] * z[p - i : m - i]
            direct = float(e @ e)
            packed = np.array([c, *phi])
            assert arima_css_objective(z, ArimaOrder(p, 0, 0), packed) == direct

        d.text = (
            f"AR embed {max(param_diff, forecast_diff):.1e}, "
            f"trend-only vs linreg {max(linreg_diff, fc_diff):.1e}, "
            f"objective identity exact"
        )


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_round_trips(capsys, tmp_path, iran, confirmed, deaths):
    with announced(capsys, 6, "transforms and persistence round-trip") as d:
        # normalization round trip at real count magnitudes (span ~1.7e6)
        worst_rel = 0.0
        for s in (confirmed, deaths):
            scaler = fit_scaler(s)
            back = scaler.inverse(scaler.transform(s.values))
            span = float(np.max(s.values) - np.min(s.values))
            worst_rel = max(worst_rel, float(np.max(np.abs(back - s.values))) / max(1.0, span))
        assert worst_rel <= 1e-12

        # differencing restores integer counts exactly at first and second order
        for order_d in (1, 2):
            diffed, state = difference_values(deaths.values, order_d)
            assert np.array_equal(integrate_values(diffed, state), deaths.values)

        # save/load keeps forecasts bit-identical for every model family
        rng = np.random.default_rng(0)
        small = series(np.cumsum(np.abs(rng.normal(0.5, 0.2, 60))) / 30.0)
        specs = [
            ForecasterSpec("autoreg", ArOrder(3), 0),
            ForecasterSpec("arima", ArimaOrder(1, 1, 1), 0),
            ForecasterSpec("additive", AdditiveConfig(2, 1.0, 2), 0),
            ForecasterSpec("lstm", LstmConfig(3, 4, 5, 0.1), 11),
            ForecasterSpec("mlp", MlpConfig(3, 2, 20, 0.05, seasonal=True), 3),
        ]
        for spec in specs:
            model = fit(spec, small)
            path = tmp_path / f"{spec.kind}.json"
            save_model(model, path)
            assert np.array_equal(forecast(load_model(path), 12), forecast(model, 12))

        # count bookkeeping is exactly invertible on the bundled data
        inc = cumulative_to_incident(deaths)
        back = incident_to_cumulative(inc)
        assert back.kind == "cumulative"
        assert np.array_equal(back.values, deaths.values)

        d.text = f"scale rel err {worst_rel:.1e}; difference/persistence/counts exact"


# ---------------------------------------------------------------- criterion 7


def _tuned_test_mse(name, seed, s, target):
    """Test MSE of one family's default grid, tuned and refitted by compare_models."""
    entries = [e for e in default_model_grids(seed) if e[0] == name]
    row = compare_models(entries, s, target=target).rows[0]
    assert row.error is None, f"{name}: {row.error}"
    return row.mse_test


@pytest.mark.slow
def test_criterion_07_tuned_lstm_beats_linear_baselines(capsys, deaths):
    with announced(capsys, 7, "tuned LSTM beats ARIMA and AR on held-out data") as d:
        t0 = time.perf_counter()

        def test_mse(name, seed):
            return _tuned_test_mse(name, seed, deaths, "deaths")

        arima_score = test_mse("ARIMA", 0)
        autoreg_score = test_mse("AUTO REG", 0)
        lstm_median = statistics.median(test_mse("LSTM", seed) for seed in range(10))

        elapsed = time.perf_counter() - t0
        d.text = (
            f"lstm median {lstm_median:.2e} < arima {arima_score:.2e} "
            f"and autoreg {autoreg_score:.2e} in {elapsed:.0f}s"
        )
        assert lstm_median < arima_score
        assert lstm_median < autoreg_score
        assert elapsed < 900.0


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_forecast_horizon_contract(capsys, tmp_path, iran_path):
    with announced(capsys, 8, "180-day forecasts are complete and non-negative") as d:
        grid = tmp_path / "grid.ini"
        grid.write_text("[autoreg]\np = 14\n")
        last_observed = date(2021, 3, 12)
        for target in ("confirmed", "deaths", "recovered"):
            out = tmp_path / target
            assert main([
                "fit", "--input", str(iran_path), "--model", "autoreg",
                "--target", target, "--grid", str(grid), "--out", str(out),
            ]) == 0
            assert main([
                "forecast", "--model-file", str(out / f"model_{target}_autoreg.json"),
                "--horizon", "180", "--out", str(out),
            ]) == 0
            with open(out / "forecast.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["date", "target", "model", "point_forecast"]
            body = rows[1:]
            assert len(body) == 180
            for k, row in enumerate(body):
                assert row[0] == (last_observed + timedelta(days=k + 1)).isoformat()
                assert row[1] == target
                assert float(row[3]) >= 0.0
        d.text = "3 targets x 180 contiguous daily rows, all values >= 0"


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_cumulative_sanity_band(capsys, tmp_path, iran_path):
    with announced(capsys, 9, "6-month death-toll forecast lands in a sane band") as d:
        out = tmp_path / "sanity"
        assert main([
            "fit", "--input", str(iran_path), "--model", "autoreg",
            "--target", "deaths", "--out", str(out),
        ]) == 0
        assert main([
            "forecast", "--model-file", str(out / "model_deaths_autoreg.json"),
            "--horizon", "180", "--out", str(out),
        ]) == 0
        with open(out / "forecast.csv", newline="") as fh:
            body = list(csv.reader(fh))[1:]
        final = float(body[-1][3])
        d.text = f"day-180 cumulative deaths {final:.0f} in [35577, 142308]"
        assert 35577.0 <= final <= 142308.0


# --------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(capsys, tmp_path, iran_path):
    with announced(capsys, 10, "identical seeds give byte-identical outputs") as d:
        grid = tmp_path / "grid.ini"
        grid.write_text(
            "[lstm]\nnum_units = 8\nwindow = 7\nepochs = 100\n"
            "learning_rate = 0.1\nbatch_size = 16\nlayers = 1\n"
        )
        fit_args = [
            "fit", "--input", str(iran_path), "--model", "lstm",
            "--target", "deaths", "--grid", str(grid), "--seed", "3",
        ]
        for run in ("a", "b"):
            assert main(fit_args + ["--out", str(tmp_path / run)]) == 0
        model_a = (tmp_path / "a" / "model_deaths_lstm.json").read_bytes()
        model_b = (tmp_path / "b" / "model_deaths_lstm.json").read_bytes()
        assert model_a == model_b

        bt_args = [
            "backtest", "--input", str(iran_path), "--models", "autoreg",
            "--target", "deaths", "--seed", "3",
        ]
        for run in ("c", "d"):
            assert main(bt_args + ["--out", str(tmp_path / run)]) == 0
        report_c = (tmp_path / "c" / "backtest_report.json").read_bytes()
        report_d = (tmp_path / "d" / "backtest_report.json").read_bytes()
        assert report_c == report_d

        d.text = f"model files {len(model_a)}B equal, reports {len(report_c)}B equal"


# --------------------------------------------------------------- criterion 11


def test_criterion_11_no_test_leakage(capsys, monkeypatch, deaths):
    with announced(capsys, 11, "fitting and tuning never touch test data") as d:
        train, test = train_test_split(deaths, 0.2)
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

        entries = [e for e in default_model_grids(0) if e[0] in ("Prophet", "AUTO REG")]
        report = compare_models(entries, deaths, target="deaths")
        assert all(row.error is None for row in report.rows)

        # grid candidates + refits for two families, each fitting a scaler too
        assert len(seen) >= 20
        for name, arg in seen:
            assert len(arg) <= n_train, f"{name} received {len(arg)} points"
            assert arg.start_date == deaths.start_date
            assert arg.end_date <= train.end_date
            if name == "fit_scaler":
                assert arg.values.tolist() == deaths.values[: len(arg)].tolist()

        d.text = (
            f"{len(seen)} fitting calls audited, all strict prefixes of the "
            f"{n_train}-row train split; {len(test)} test rows untouched"
        )


# ---------------------------------------------------------------- criterion 12


@pytest.mark.slow
def test_criterion_12_seasonal_ann_beats_linear_baselines(capsys, iran):
    with announced(capsys, 12, "seasonal ANN beats ARIMA and AR on held-out data") as d:
        t0 = time.perf_counter()
        scores = {}
        for target in ("deaths", "confirmed", "recovered"):
            s = extract_series(iran, target)
            scores[target] = (
                statistics.median(_tuned_test_mse("ANN", seed, s, target) for seed in range(10)),
                _tuned_test_mse("ARIMA", 0, s, target),
                _tuned_test_mse("AUTO REG", 0, s, target),
            )

        elapsed = time.perf_counter() - t0
        d.text = "; ".join(
            f"{target} ann median {ann:.2e} < arima {arima:.2e} and autoreg {autoreg:.2e}"
            for target, (ann, arima, autoreg) in scores.items()
        ) + f" in {elapsed:.0f}s"
        for target, (ann, arima, autoreg) in scores.items():
            assert ann < arima, target
            assert ann < autoreg, target
        assert elapsed < 180.0
