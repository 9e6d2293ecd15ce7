"""End-to-end command-line behavior: exit codes, files written, precedence."""

import csv
import json
import logging
import sys
import tempfile
import warnings
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from epiforecast import cli, errors
import epiforecast.forecasters as fc
from epiforecast.backtest import arima_default_candidates, default_model_grids
from epiforecast.cli import main
from epiforecast.data import parse_csv, train_test_split
from epiforecast.forecasters import KINDS, ForecasterSpec, fit, save_model
from epiforecast.forecasters.base import CONFIG_TYPES, ArOrder
from oracles import (
    oracle_arima_default_candidates,
    oracle_candidate_grids,
    oracle_default_model_grids,
)
from support import series


def make_csv(path, n=30, seed=0, start=date(2020, 2, 26)):
    """A small synthetic cumulative dataset for fast CLI runs."""
    rng = np.random.default_rng(seed)
    rows = ["Date,Confirmed,Deaths,Recovered"]
    c = d = r = 0
    for i in range(n):
        c += int(rng.integers(5, 60))
        d += int(rng.integers(0, 5))
        r += int(rng.integers(0, 40))
        day = start + timedelta(days=i)
        rows.append(f"{day.isoformat()},{c},{d},{r}")
    path.write_text("\n".join(rows) + "\n")
    return path


def write_grid(path, text):
    path.write_text(text)
    return path


def make_plateau_csv(path, n, rise, seed=0):
    """make_csv's columns, but deaths rise only from day 1 to day rise and then
    stay flat, as a cumulative count does once the daily count reaches zero."""
    rng = np.random.default_rng(seed)
    rows = ["Date,Confirmed,Deaths,Recovered"]
    c = d = r = 0
    for i in range(n):
        c += int(rng.integers(5, 60))
        d += int(rng.integers(1, 5)) if 0 < i <= rise else 0
        r += int(rng.integers(0, 40))
        rows.append(f"{(date(2020, 2, 26) + timedelta(days=i)).isoformat()},{c},{d},{r}")
    path.write_text("\n".join(rows) + "\n")
    return path


def test_validate_reports_span_and_monotonicity(iran_path, capsys):
    assert main(["validate", "--input", str(iran_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "381 records, 2020-02-26..2021-03-12"
    assert "confirmed: non-decreasing" in out
    assert "deaths: non-decreasing" in out
    assert "recovered: non-decreasing" in out


def test_validate_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_bad_data_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("Date,Confirmed,Deaths,Recovered\n2020-02-26,10,1,0\n2020-02-28,12,1,0\n")
    assert main(["validate", "--input", str(bad)]) == 2
    assert "missing 2020-02-27" in capsys.readouterr().err


def test_missing_subcommand_and_unknown_flags_are_usage_errors(capsys):
    assert main([]) == 1
    assert main(["validate", "--frobnicate"]) == 1
    assert main(["fit", "--input", "x.csv", "--model", "quantum"]) == 1
    capsys.readouterr()


def test_fit_writes_model_and_sidecar(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv", n=60)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 2, 3\n")
    out = tmp_path / "out"
    code = main([
        "fit", "--input", str(data), "--model", "autoreg", "--target", "deaths",
        "--grid", str(grid), "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "model: autoreg" in stdout
    assert "validation mse:" in stdout  # two candidates -> grid search ran
    assert "train mse:" in stdout

    model_path = out / "model_deaths_autoreg.json"
    assert model_path.exists()
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "autoreg"
    assert doc["target"] == "deaths"

    sidecar = json.loads((out / "model_deaths_autoreg.json.meta.json").read_text())
    assert sidecar["command"] == "fit"
    assert sidecar["effective_config"]["target"] == "deaths"


def test_fit_on_a_series_flat_after_day_one_notes_its_undefined_train_r2(tmp_path, capsys):
    data = make_plateau_csv(tmp_path / "data.csv", n=40, rise=1)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 1\n")
    out = tmp_path / "out"
    code = main([
        "fit", "--input", str(data), "--model", "autoreg", "--target", "deaths",
        "--grid", str(grid), "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out.splitlines()
    assert "train r2 undefined: fit_score undefined: actual series is constant" in stdout
    assert not [line for line in stdout if line.startswith("train r2:")]
    assert (out / "model_deaths_autoreg.json").exists()
    assert (out / "model_deaths_autoreg.json.meta.json").exists()


def test_fit_single_candidate_skips_grid_search(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv", n=60)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 3\n")
    code = main([
        "fit", "--input", str(data), "--model", "autoreg",
        "--grid", str(grid), "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert "validation mse:" not in capsys.readouterr().out


def test_fit_reruns_are_byte_identical(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv", n=60)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 2, 3\n")
    args = ["fit", "--input", str(data), "--model", "autoreg", "--grid", str(grid)]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "model_confirmed_autoreg.json").read_bytes()
    b = (tmp_path / "b" / "model_confirmed_autoreg.json").read_bytes()
    assert a == b


def test_bad_grid_file_is_usage_error(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    bad = write_grid(tmp_path / "grid.ini", "[teleport]\np = 1\n")
    assert main([
        "fit", "--input", str(data), "--model", "autoreg", "--grid", str(bad),
    ]) == 1
    assert main([
        "fit", "--input", str(data), "--model", "autoreg",
        "--grid", str(tmp_path / "missing.ini"),
    ]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("arima", "[arima]\np_max = x\n", "grid section [arima]: invalid literal"),
        ("autoreg", "p = 2\n", "malformed grid file"),
        ("mlp", "[mlp]\nwindow = 7\n", "grid section [mlp] needs hidden_units"),
    ],
    ids=["non-integer-p_max", "no-section-header", "missing-field"],
)
def test_malformed_grid_file_is_usage_error_without_traceback(
    tmp_path, capsys, kind, text, message
):
    data = make_csv(tmp_path / "data.csv")
    grid = write_grid(tmp_path / "grid.ini", text)
    assert main(["fit", "--input", str(data), "--model", kind, "--grid", str(grid)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_malformed_config_value_is_usage_error_without_traceback(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    config = tmp_path / "run.ini"
    config.write_text("[run]\nseed = abc\n")
    args = ["backtest", "--input", str(data), "--models", "autoreg", "--config", str(config)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config [run] seed: invalid literal")
    assert "Traceback" not in err


def fitted_model_file(tmp_path, capsys, target="deaths", n=60):
    data = make_csv(tmp_path / "data.csv", n=n)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 3\n")
    out = tmp_path / "models"
    assert main([
        "fit", "--input", str(data), "--model", "autoreg", "--target", target,
        "--grid", str(grid), "--out", str(out),
    ]) == 0
    capsys.readouterr()
    return data, out / f"model_{target}_autoreg.json"


def test_forecast_emits_contiguous_nonnegative_rows(tmp_path, capsys):
    data, model_path = fitted_model_file(tmp_path, capsys)
    out = tmp_path / "fc"
    assert main([
        "forecast", "--model-file", str(model_path), "--horizon", "7", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    with open(out / "forecast.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["date", "target", "model", "point_forecast"]
    body = rows[1:]
    assert len(body) == 7
    last_train_day = parse_csv(data.read_text()).end_date
    for k, row in enumerate(body):
        assert row[0] == (last_train_day + timedelta(days=k + 1)).isoformat()
        assert row[1] == "deaths"
        assert row[2] == "autoreg"
        assert float(row[3]) >= 0.0


def test_forecast_usage_and_model_errors(tmp_path, capsys):
    _, model_path = fitted_model_file(tmp_path, capsys)
    assert main(["forecast", "--model-file", str(model_path), "--horizon", "0"]) == 1
    assert main(["forecast", "--model-file", str(tmp_path / "absent.json")]) == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{}")
    assert main(["forecast", "--model-file", str(broken)]) == 3
    capsys.readouterr()


def test_forecast_rejects_models_without_cli_metadata(tmp_path, capsys):
    # a model saved through the library API without target metadata
    values = np.arange(20.0) + 1.0 + np.sin(np.arange(20.0))
    model = fit(ForecasterSpec("autoreg", ArOrder(2), 0), series(values))
    path = tmp_path / "bare.json"
    save_model(model, path)
    assert main(["forecast", "--model-file", str(path), "--horizon", "3"]) == 3
    assert "metadata" in capsys.readouterr().err


def test_backtest_writes_report_and_table(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv", n=80)
    grid = write_grid(
        tmp_path / "grid.ini",
        "[autoreg]\np = 1, 2\n\n[additive]\nn_changepoints = 2\nchangepoint_penalty = 1.0\nfourier_order = 1\n",
    )
    out = tmp_path / "bt"
    code = main([
        "backtest", "--input", str(data), "--models", "autoreg,additive",
        "--grid", str(grid), "--out", str(out), "--target", "recovered",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "AUTO REG" in stdout and "Prophet" in stdout
    assert "MSE Test" in stdout

    doc = json.loads((out / "backtest_report.json").read_text())
    assert doc["target"] == "recovered"
    assert {m["name"] for m in doc["models"]} == {"Prophet", "AUTO REG"}
    sidecar = json.loads((out / "backtest_report.json.meta.json").read_text())
    assert set(sidecar["effective_config"]["wall_times_s"]) == {"Prophet", "AUTO REG"}


def test_backtest_report_reruns_are_byte_identical(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv", n=80)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 1, 2\n")
    args = ["backtest", "--input", str(data), "--models", "autoreg", "--grid", str(grid)]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "backtest_report.json").read_bytes()
    b = (tmp_path / "b" / "backtest_report.json").read_bytes()
    assert a == b


def test_backtest_unknown_model_kind_is_usage_error(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    assert main(["backtest", "--input", str(data), "--models", "autoreg,oracle"]) == 1
    assert "unknown model kinds: oracle" in capsys.readouterr().err


@pytest.mark.parametrize("models", ("", "lstm,", " , "))
def test_backtest_empty_model_kind_is_usage_error(tmp_path, capsys, monkeypatch, models):
    def refuse(*args, **kwargs):
        raise AssertionError("compare_models was called")

    monkeypatch.setattr(cli, "compare_models", refuse)
    data = make_csv(tmp_path / "data.csv")
    out = tmp_path / "bt"
    assert main(["backtest", "--input", str(data), "--models", models, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: a kind name in --models {models!r} is empty\n"
    assert not out.exists()


def test_the_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def _forecast_outputs(out):
    sidecar = json.loads((out / "forecast.csv.meta.json").read_text())
    config = {k: v for k, v in sidecar["effective_config"].items() if k != "out"}
    return (out / "forecast.csv").read_bytes(), config


def test_consecutive_forecasts_in_one_process_write_what_each_writes_alone(tmp_path, capsys):
    _, deaths = fitted_model_file(tmp_path, capsys, target="deaths")
    _, recovered = fitted_model_file(tmp_path, capsys, target="recovered")
    calls = {
        "deaths": ["forecast", "--model-file", str(deaths), "--horizon", "7"],
        "recovered": ["forecast", "--model-file", str(recovered), "--horizon", "12"],
    }
    for name, args in calls.items():  # one parser serves both calls
        assert main(args + ["--out", str(tmp_path / "together" / name)]) == 0
    for name, args in calls.items():  # each call on a parser of its own
        cli._build_parser.cache_clear()
        assert main(args + ["--out", str(tmp_path / "alone" / name)]) == 0
    capsys.readouterr()
    for name, args in calls.items():
        together = _forecast_outputs(tmp_path / "together" / name)
        assert together == _forecast_outputs(tmp_path / "alone" / name)
        rows = together[0].decode().splitlines()[1:]
        assert len(rows) == int(args[-1]) and {row.split(",")[1] for row in rows} == {name}
        assert together[1]["model_files"] == [args[2]]


def test_a_usage_error_after_a_successful_call_is_reported_as_on_a_new_parser(tmp_path, capsys):
    _, model_path = fitted_model_file(tmp_path, capsys)
    bad = ["forecast", "--model-file", str(model_path), "--horizon", "x"]
    cli._build_parser.cache_clear()
    assert main(bad) == 1
    alone = capsys.readouterr().err
    assert main(bad[:-1] + ["3", "--out", str(tmp_path / "fc")]) == 0
    capsys.readouterr()
    assert main(bad) == 1
    assert capsys.readouterr().err == alone == "error: argument --horizon: invalid int value: 'x'\n"


def test_backtest_on_a_plateaued_series_reports_an_undefined_test_r2(tmp_path, capsys):
    data = make_plateau_csv(tmp_path / "data.csv", n=60, rise=45)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 1, 2\n")
    out = tmp_path / "bt"
    code = main([
        "backtest", "--input", str(data), "--models", "autoreg", "--target", "deaths",
        "--grid", str(grid), "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out.splitlines()
    assert [line.split() for line in stdout if line.startswith("Test Score")] == [
        ["Test", "Score", "n/a"]
    ]
    (model,) = json.loads((out / "backtest_report.json").read_text())["models"]
    assert "error" not in model and model["metrics"]["r2_test"] is None
    assert model["notes"] == ["r2_test undefined: fit_score undefined: actual series is constant"]


def test_backtest_total_failure_is_model_error(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv", n=12)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 300\n")
    code = main([
        "backtest", "--input", str(data), "--models", "autoreg",
        "--grid", str(grid), "--out", str(tmp_path / "bt"),
    ])
    assert code == 3
    assert "every model failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, failing_call",
    [("[autoreg]\np = 2\n", 1), ("[autoreg]\np = 2, 3\n", 3)],
    ids=["single-candidate", "grid-winner-refit"],
)
def test_a_fitters_foreign_exception_in_fit_is_a_model_error(
    tmp_path, capsys, caplog, monkeypatch, grid, failing_call
):
    real, calls = fc.fit_autoreg, []

    def planted(train, order):
        calls.append(order)
        if len(calls) == failing_call:
            raise ZeroDivisionError("planted")
        return real(train, order)

    monkeypatch.setattr(fc, "fit_autoreg", planted)
    data = make_csv(tmp_path / "data.csv", n=60)
    grid = write_grid(tmp_path / "grid.ini", grid)
    out = tmp_path / "out"
    code = main([
        "fit", "--input", str(data), "--model", "autoreg", "--grid", str(grid), "--out", str(out),
    ])
    assert code == 3
    assert capsys.readouterr().err == "error: ZeroDivisionError: planted\n"
    (record,) = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert record.getMessage() == "model autoreg failed: ZeroDivisionError: planted"
    assert record.exc_info[0] is ZeroDivisionError
    assert not out.exists()  # no model file and no sidecar


@pytest.mark.parametrize(
    "section, message",
    [
        ("p_max = 0\nq_max = 0\nd = 0\n", "p_max 0, q_max 0 and d [0] give no order"),
        ("p_max = -1\n", "p_max -1, q_max 5 and d [0, 1] give no order"),
        ("q_max = -1\n", "p_max 5, q_max -1 and d [0, 1] give no order"),
    ],
    ids=["only-000", "p_max-negative", "q_max-negative"],
)
@pytest.mark.parametrize("command", ["fit", "backtest"])
def test_an_arima_section_with_no_order_is_refused_before_anything_is_fitted(
    tmp_path, capsys, monkeypatch, command, section, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be fitted")

    monkeypatch.setattr(fc, "fit_arima", refuse)
    data = make_csv(tmp_path / "data.csv")
    grid = write_grid(tmp_path / "grid.ini", "[arima]\n" + section)
    out = tmp_path / "out"
    model = ["--model", "arima"] if command == "fit" else ["--models", "arima"]
    code = main([command, "--input", str(data), *model, "--grid", str(grid), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: grid section [arima]: {message}\n"
    assert not out.exists()


def test_plotdata_merges_observed_and_forecasts(tmp_path, capsys):
    data, model_path = fitted_model_file(tmp_path, capsys, target="deaths", n=60)
    out = tmp_path / "fc"
    assert main([
        "forecast", "--model-file", str(model_path), "--horizon", "5", "--out", str(out),
    ]) == 0
    code = main([
        "plotdata", "--input", str(data), "--forecast", str(out / "forecast.csv"),
        "--out", str(tmp_path / "plot"),
    ])
    assert code == 0
    capsys.readouterr()
    with open(tmp_path / "plot" / "plot_deaths.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["date", "series_name", "value"]
    names = [r[1] for r in rows[1:]]
    assert names.count("observed") == 60
    assert names.count("autoreg") == 5


def test_plotdata_rejects_mixed_targets_and_bad_headers(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    fc1 = tmp_path / "a.csv"
    fc1.write_text("date,target,model,point_forecast\n2020-04-01,deaths,arima,1.0\n")
    fc2 = tmp_path / "b.csv"
    fc2.write_text("date,target,model,point_forecast\n2020-04-01,confirmed,arima,2.0\n")
    assert main([
        "plotdata", "--input", str(data), "--forecast", str(fc1), "--forecast", str(fc2),
    ]) == 1

    bad = tmp_path / "c.csv"
    bad.write_text("day,target,model,value\n")
    assert main(["plotdata", "--input", str(data), "--forecast", str(bad)]) == 1

    empty = tmp_path / "d.csv"
    empty.write_text("")
    assert main(["plotdata", "--input", str(data), "--forecast", str(empty)]) == 2
    capsys.readouterr()


def test_config_file_fills_defaults_but_flags_win(tmp_path, capsys):
    data, model_path = fitted_model_file(tmp_path, capsys)
    config = tmp_path / "run.ini"
    config.write_text("[run]\nhorizon = 3\nout = " + str(tmp_path / "from_config") + "\n")

    assert main(["forecast", "--model-file", str(model_path), "--config", str(config)]) == 0
    with open(tmp_path / "from_config" / "forecast.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3

    assert main([
        "forecast", "--model-file", str(model_path), "--config", str(config),
        "--horizon", "4", "--out", str(tmp_path / "flag_wins"),
    ]) == 0
    with open(tmp_path / "flag_wins" / "forecast.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 4
    capsys.readouterr()


def test_default_horizon_is_180_days(tmp_path, capsys):
    _, model_path = fitted_model_file(tmp_path, capsys)
    out = tmp_path / "long"
    assert main(["forecast", "--model-file", str(model_path), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "forecast.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 180


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "train_end_date", "garbage"),
        ("params", "c", "abc"),
        ("config", "p", 0),
    ],
    ids=["bad-date", "non-numeric-param", "config-check"],
)
def test_malformed_model_file_values_are_model_errors(tmp_path, capsys, section, key, value):
    _, model_path = fitted_model_file(tmp_path, capsys)
    doc = json.loads(model_path.read_text())
    (doc if section is None else doc[section])[key] = value
    model_path.write_text(json.dumps(doc))
    assert main(["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file: ")
    assert "Traceback" not in err


def test_plotdata_non_numeric_forecast_is_data_error(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    fc = tmp_path / "fc.csv"
    fc.write_text(
        "date,target,model,point_forecast\n"
        "2020-04-01,deaths,arima,1.0\n"
        "2020-04-02,deaths,arima,lots\n"
    )
    code = main(["plotdata", "--input", str(data), "--forecast", str(fc), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: non-numeric point_forecast 'lots'")
    assert "Traceback" not in err


def test_unknown_autoreg_grid_field_is_usage_error(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 1, 2\nq = 1\n")
    args = ["fit", "--input", str(data), "--model", "autoreg", "--grid", str(grid)]
    assert main(args + ["--out", str(tmp_path)]) == 1
    assert "unknown fields ['q'] in grid section [autoreg]" in capsys.readouterr().err


def fitted_lstm_file(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv", n=40)
    grid = write_grid(
        tmp_path / "lstm.ini",
        "[lstm]\nnum_units = 2\nwindow = 4\nepochs = 1\nlearning_rate = 0.1\n",
    )
    out = tmp_path / "models"
    assert main([
        "fit", "--input", str(data), "--model", "lstm", "--target", "deaths",
        "--grid", str(grid), "--out", str(out),
    ]) == 0
    capsys.readouterr()
    return out / "model_deaths_lstm.json"


def _narrow_layer_1_W(doc):
    layer = doc["params"]["layers"][1]
    layer["W"] = [row[:-1] for row in layer["W"]]


def _shorten_layer_0_b(doc):
    doc["params"]["layers"][0]["b"].pop()


def _lengthen_head_w(doc):
    doc["params"]["head_w"].append(0.5)


def _drop_layer_1(doc):
    doc["params"]["layers"].pop()


def _shorten_train_tail(doc):
    doc["train_tail"].pop(0)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_narrow_layer_1_W, "LSTM layer 1: W (8, 3)"),
        (_shorten_layer_0_b, "LSTM layer 0: W (8, 3) and b (7,)"),
        (_lengthen_head_w, "LSTM head_w has shape (3,)"),
        (_drop_layer_1, "1 LSTM layers, the config has 2"),
        (_shorten_train_tail, "train_tail has shape (3,), the lstm config needs (4,)"),
    ],
    ids=["W-width", "b-length", "head_w-length", "layer-count", "short-train_tail"],
)
def test_lstm_model_file_shapes_are_checked_against_config(tmp_path, capsys, tamper, message):
    model_path = fitted_lstm_file(tmp_path, capsys)
    assert main(["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = json.loads(model_path.read_text())
    tamper(doc)
    model_path.write_text(json.dumps(doc))
    assert main(["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("phi", [0.5], "phi has shape (1,), AR(3) needs (3,)"),
        ("train_tail", [0.1, 0.2], "train_tail has shape (2,), the autoreg config needs (3,)"),
    ],
    ids=["phi-length", "short-train_tail"],
)
def test_autoreg_model_file_shapes_are_checked_against_config(tmp_path, capsys, key, value, message):
    _, model_path = fitted_model_file(tmp_path, capsys)
    doc = json.loads(model_path.read_text())
    (doc["params"] if key == "phi" else doc)[key] = value
    model_path.write_text(json.dumps(doc))
    assert main(["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file: ") and message in err
    assert "Traceback" not in err


def test_backtest_reads_the_grid_file_once(tmp_path, capsys, monkeypatch):
    reads = []
    read_ini = cli._read_ini

    def spy(path, what):
        reads.append((path, what))
        return read_ini(path, what)

    monkeypatch.setattr(cli, "_read_ini", spy)
    data = make_csv(tmp_path / "data.csv", n=60)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 2, 3\n")
    args = [
        "backtest", "--input", str(data), "--models", "autoreg,additive",
        "--grid", str(grid), "--out", str(tmp_path),
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert reads == [(str(grid), "grid")]


def test_unknown_arima_grid_field_is_usage_error(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    grid = write_grid(tmp_path / "grid.ini", "[arima]\np_max = 1\nq_max = 0\nq = 3\ntypo = 1\n")
    args = ["fit", "--input", str(data), "--model", "arima", "--grid", str(grid)]
    assert main(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown fields ['q', 'typo'] in grid section [arima]")
    assert "Traceback" not in err


def test_arima_grid_defaults_are_the_backtest_defaults(tmp_path):
    grid = write_grid(tmp_path / "grid.ini", "[arima]\n")
    assert cli._candidate_grids(0, str(grid))["arima"] == arima_default_candidates(0)
    grid = write_grid(tmp_path / "grid.ini", "[arima]\np_max = 1\nq_max = 1\nd = 1\n")
    orders = [
        (s.config.p, s.config.d, s.config.q) for s in cli._candidate_grids(0, str(grid))["arima"]
    ]
    assert sorted(orders) == [(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]


def saved_model_file(tmp_path, spec, n=60):
    """A model fitted through the library on a synthetic series, with the
    target metadata the forecast command needs."""
    t = np.arange(n, dtype=np.float64)
    model = fit(spec, series(t / n + 0.05 * np.sin(t)))
    path = tmp_path / f"model_{spec.kind}.json"
    save_model(replace(model, target="deaths"), path)
    return path


def _empty(*keys):
    def tamper(params):
        for key in keys:
            params[key] = []
    return tamper


def _drop_last_column(key):
    def tamper(params):
        params[key] = [row[:-1] for row in params[key]]
    return tamper


def _append(key, value):
    def tamper(params):
        params[key].append(value)
    return tamper


def _set(key, value):
    def tamper(params):
        params[key] = value
    return tamper


def _spec(kind, **config):
    return ForecasterSpec(kind, CONFIG_TYPES[kind](**config), 0)


@pytest.mark.parametrize(
    "spec, tamper, message",
    [
        (_spec("arima", p=0, d=1, q=1), _empty("theta", "resid_tail"),
         "theta has shape (0,), ARIMA(0,1,1) needs (1,)"),
        (_spec("arima", p=1, d=0, q=2), _empty("resid_tail"),
         "resid_tail has shape (0,), ARIMA(1,0,2) needs (2,)"),
        (_spec("arima", p=2, d=1, q=1), _set("phi", [0.5]),
         "phi has shape (1,), ARIMA(2,1,1) needs (2,)"),
        (_spec("mlp", window=3, hidden_units=2, epochs=2, learning_rate=0.1, seasonal=True),
         _drop_last_column("hidden_w"), "hidden_w has shape (2, 9), the mlp config needs (2, 10)"),
        (_spec("mlp", window=3, hidden_units=0, epochs=2, learning_rate=0.1),
         _append("out_w", 0.5), "out_w has shape (4,), the mlp config needs (3,)"),
        (_spec("mlp", window=3, hidden_units=2, epochs=2, learning_rate=0.1, seasonal=True),
         _set("next_dow", None), "next_dow is None but seasonal is True"),
        (_spec("mlp", window=3, hidden_units=2, epochs=2, learning_rate=0.1),
         _set("next_dow", 3), "next_dow is 3 but seasonal is False"),
        (_spec("additive", n_changepoints=3, fourier_order=2), _set("beta", [0.1, 0.2]),
         "beta has shape (2,), the additive config needs (9,)"),
        (_spec("additive", n_changepoints=3, fourier_order=2), _append("changepoints", 50.0),
         "changepoints has shape (4,), the additive config needs (3,)"),
    ],
    ids=[
        "arima-empty-theta-and-resid_tail", "arima-empty-resid_tail", "arima-short-phi",
        "mlp-hidden_w-width", "mlp-out_w-length", "mlp-next_dow-missing", "mlp-next_dow-unseasonal",
        "additive-beta-length", "additive-changepoints-length",
    ],
)
def test_model_file_params_are_checked_against_config(tmp_path, capsys, spec, tamper, message):
    model_path = saved_model_file(tmp_path, spec)
    assert main(["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = json.loads(model_path.read_text())
    tamper(doc["params"])
    model_path.write_text(json.dumps(doc))
    assert main(["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["p_max", "q_max"])
def test_arima_grid_order_bounds_take_one_value(tmp_path, capsys, key):
    data = make_csv(tmp_path / "data.csv")
    other = "q_max" if key == "p_max" else "p_max"
    grid = write_grid(tmp_path / "grid.ini", f"[arima]\n{key} = 1, 4\n{other} = 0\nd = 1\n")
    args = ["fit", "--input", str(data), "--model", "arima", "--grid", str(grid)]
    assert main(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} takes one value in grid section [arima]\n"


# The README's exit-code table: 1 usage, 2 data, 3 model errors.
EXIT_CODES = {
    cli.UsageError: 1,
    errors.ContractError: 1,
    errors.ParseError: 2,
    errors.StructuralError: 2,
    errors.ValidationError: 2,
    errors.EpiForecastError: 3,
    errors.DegenerateScaleError: 3,
    errors.SingularFitError: 3,
    errors.DivergenceError: 3,
    errors.UndefinedMetricError: 3,
    errors.ExhaustedGridError: 3,
    errors.ModelFileError: 3,
}


def test_exit_code_table_names_every_error_class_and_matches_the_readme():
    classes = {
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.EpiForecastError)
    }
    assert set(EXIT_CODES) == classes | {cli.UsageError}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for code, meaning in [(1, "usage error"), (2, "data error"), (3, "model error")]:
        assert f"\n| {code}    | {meaning}:" in readme


@pytest.mark.parametrize("error_class", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error_class):
    def fail(args):
        raise error_class("boom")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert main(["validate", "--input", "data.csv"]) == EXIT_CODES[error_class]
    assert capsys.readouterr().err == "error: boom\n"


def test_forecast_past_the_last_representable_date_is_usage_error(tmp_path, capsys):
    _, model_path = fitted_model_file(tmp_path, capsys)
    doc = json.loads(model_path.read_text())
    doc["train_end_date"] = "9999-12-30"
    model_path.write_text(json.dumps(doc))
    args = ["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]
    assert main(args + ["--horizon", "1"]) == 0
    assert main(args + ["--horizon", "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --horizon 2 ends after 9999-12-31 for {model_path}\n"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("config", "p"), 1.5, "1.5 is not a valid int"),
        (("config", "q"), "1", "'1' is not a valid int"),
        (("config", "lag"), 1, "'lag'"),
        (("seed",), float("inf"), "cannot convert float infinity to integer"),
        (("params", "c"), float("nan"), "nan is not a valid float"),
    ],
    ids=["fractional-order", "string-order", "unknown-config-key", "infinite-seed", "nan-param"],
)
def test_model_file_values_must_have_their_field_types(tmp_path, capsys, path, value, message):
    model_path = saved_model_file(tmp_path, _spec("arima", p=1, d=1, q=1))
    doc = json.loads(model_path.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    model_path.write_text(json.dumps(doc))
    assert main(["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file: ") and message in err
    assert "Traceback" not in err


def test_integral_float_orders_load_as_ints(tmp_path, capsys):
    model_path = saved_model_file(tmp_path, _spec("arima", p=1, d=1, q=1))
    args = ["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]
    assert main(args) == 0
    expected = (tmp_path / "forecast.csv").read_bytes()
    doc = json.loads(model_path.read_text())
    doc["config"]["p"] = 1.0
    model_path.write_text(json.dumps(doc))
    assert main(args) == 0
    assert (tmp_path / "forecast.csv").read_bytes() == expected


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("params", "c"), float("inf"), "inf is not a valid float"),
        (("params", "phi", 1), float("nan"), "nan is not a finite number"),
        (("scaler", "max"), float("inf"), "inf is not a valid float"),
        (("train_tail", 0), float("inf"), "inf is not a finite number"),
    ],
    ids=["infinite-c", "nan-in-phi", "infinite-scaler-max", "infinite-train_tail"],
)
def test_non_finite_model_file_numbers_are_model_errors(tmp_path, capsys, path, value, message):
    _, model_path = fitted_model_file(tmp_path, capsys)
    doc = json.loads(model_path.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    model_path.write_text(json.dumps(doc))
    assert "Infinity" in model_path.read_text() or "NaN" in model_path.read_text()
    out = tmp_path / "fc"
    assert main(["forecast", "--model-file", str(model_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file: ") and message in err
    assert "Traceback" not in err
    assert not (out / "forecast.csv").exists()


@pytest.mark.parametrize("target", [5, "foo", "Deaths"])
def test_model_file_target_must_be_a_known_target(tmp_path, capsys, target):
    _, model_path = fitted_model_file(tmp_path, capsys)
    doc = json.loads(model_path.read_text())
    doc["target"] = target
    model_path.write_text(json.dumps(doc))
    assert main(["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"error: malformed model file: target {target!r} is not one of "
        "confirmed, deaths, recovered\n"
    )


def test_flooring_logs_one_line_per_model_and_keeps_the_csv_bytes(tmp_path, capsys, caplog):
    from epiforecast.forecasters import forecast, load_model

    _, model_path = fitted_model_file(tmp_path, capsys)
    doc = json.loads(model_path.read_text())
    doc["params"]["c"], doc["params"]["phi"] = -0.1, [1.0, 0.0, 0.0]  # falls 0.1 a day
    model_path.write_text(json.dumps(doc))
    model = load_model(model_path)
    values = model.scaler.inverse(forecast(model, 30))
    days = [(model.train_end_date + timedelta(days=k + 1)).isoformat() for k in range(30)]
    negative = [day for day, value in zip(days, values) if value < 0.0]
    assert 0 < len(negative) < 30
    out = tmp_path / "fc"
    args = ["forecast", "--model-file", str(model_path), "--model-file", str(model_path)]
    with caplog.at_level(logging.INFO):
        assert main(args + ["--horizon", "30", "--out", str(out)]) == 0
    floored = [r for r in caplog.records if r.name == "epiforecast.cli" and "floored" in r.message]
    assert len(floored) == 2
    assert all(r.levelno == logging.WARNING for r in floored)
    assert floored[0].getMessage() == (
        f"floored {len(negative)} negative deaths forecasts to 0 for {model_path}, "
        f"the first on {negative[0]}"
    )
    rows = "".join(
        f"{day},deaths,autoreg,{max(value, 0.0):.6f}\r\n" for day, value in zip(days, values)
    )
    expected = "date,target,model,point_forecast\r\n" + 2 * rows
    assert (out / "forecast.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize(
    "spec, path, value, message",
    [
        (_spec("autoreg", p=3), ("seed",), 1.5, "1.5 is not a valid int"),
        (_spec("autoreg", p=3), ("seed",), "7", "'7' is not a valid int"),
        (_spec("autoreg", p=3), ("seed",), True, "True is not a valid int"),
        (_spec("autoreg", p=3), ("params", "c"), True, "True is not a valid float"),
        (_spec("autoreg", p=3), ("scaler", "min"), False, "False is not a valid float"),
        (_spec("autoreg", p=3), ("config", "p"), True, "True is not a valid int"),
        (_spec("mlp", window=3, hidden_units=2, epochs=5, learning_rate=0.1, seasonal=True),
         ("config", "seasonal"), 1, "1 is not a valid bool"),
    ],
    ids=["fractional-seed", "string-seed", "boolean-seed", "boolean-param", "boolean-scaler",
         "boolean-order", "integer-bool"],
)
def test_model_file_booleans_and_seeds_must_have_their_field_types(
    tmp_path, capsys, spec, path, value, message
):
    model_path = saved_model_file(tmp_path, spec)
    doc = json.loads(model_path.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    model_path.write_text(json.dumps(doc))
    assert main(["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file: ") and message in err
    assert "Traceback" not in err


def test_counts_beyond_int64_are_data_errors(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    lines = data.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + f",{2**63 - 1}"
    data.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--input", str(data)]) == 0
    lines[3] = lines[3].rsplit(",", 1)[0] + ",100000000000000000000"
    data.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--input", str(data)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 4: count 100000000000000000000 in column recovered exceeds 2**63 - 1\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_plotdata_non_finite_forecast_is_data_error(tmp_path, capsys, value):
    data = make_csv(tmp_path / "data.csv")
    fc = tmp_path / "fc.csv"
    fc.write_text(
        "date,target,model,point_forecast\n"
        "2020-04-01,deaths,arima,1.0\n"
        f"2020-04-02,deaths,arima,{value}\n"
    )
    code = main(["plotdata", "--input", str(data), "--forecast", str(fc), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: line 3: non-finite point_forecast '{value}' in {fc}\n"
    assert not (tmp_path / "plot_deaths.csv").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_out_that_cannot_be_created_is_usage_error(tmp_path, capsys, below):
    _, model_path = fitted_model_file(tmp_path, capsys)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    assert main(["forecast", "--model-file", str(model_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("count", ["1_000", "２０００", "+7", "1 000", "0x10"])
def test_counts_must_be_ascii_digits(tmp_path, capsys, count):
    data = make_csv(tmp_path / "data.csv")
    lines = data.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + f",{count}"
    data.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--input", str(data)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line 31: unparseable count {count!r} in column recovered\n"


def test_a_negative_count_still_reaches_the_negative_count_check(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    lines = data.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",-1"
    data.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--input", str(data)]) == 2
    err = capsys.readouterr().err
    assert err == "error: negative count -1 in column recovered on 2020-03-26\n"


_MLP = _spec("mlp", window=3, hidden_units=2, epochs=5, learning_rate=0.1, seasonal=True)


@pytest.mark.parametrize(
    "spec, path, value, message",
    [
        (_spec("autoreg", p=3), ("params", "phi"), [True, False, 0.0], "True is not a valid float"),
        (_spec("autoreg", p=3), ("params", "phi"), ["0.5", 0.0, 0.0], "'0.5' is not a valid float"),
        (_spec("autoreg", p=3), ("params", "phi"), [None, 0.0, 0.0], "None is not a valid float"),
        (_spec("autoreg", p=3), ("params", "phi"), [[0.5], 0.0, 0.0], "[0.5] is not a valid float"),
        (_spec("autoreg", p=3), ("train_tail", 0), True, "True is not a valid float"),
        (_MLP, ("params", "loss_history"), "abc", "'abc' is not a list"),
        (_MLP, ("params", "loss_history"), [0.5, False], "False is not a valid float"),
        (_MLP, ("params", "hidden_w", 0, 0), "1", "'1' is not a valid float"),
        (_spec("arima", p=1, d=1, q=1), ("params", "warnings"), [1], "1 is not a valid str"),
    ],
    ids=["boolean-phi", "string-phi", "null-phi", "nested-phi", "boolean-train_tail",
         "string-loss_history", "boolean-loss_history", "string-hidden_w", "number-warning"],
)
def test_model_file_array_and_list_items_keep_their_json_kind(
    tmp_path, capsys, spec, path, value, message
):
    model_path = saved_model_file(tmp_path, spec)
    doc = json.loads(model_path.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "fc"
    assert main(["forecast", "--model-file", str(model_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: malformed model file: {message}\n"
    assert not (out / "forecast.csv").exists()


def test_integer_array_items_load_as_floats(tmp_path, capsys):
    model_path = saved_model_file(tmp_path, _spec("autoreg", p=3))
    doc = json.loads(model_path.read_text())
    doc["params"]["phi"] = [0.0, 1.0, 0.0]
    model_path.write_text(json.dumps(doc))
    args = ["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]
    assert main(args) == 0
    expected = (tmp_path / "forecast.csv").read_bytes()
    doc["params"]["phi"] = [0, 1, 0]
    model_path.write_text(json.dumps(doc))
    assert main(args) == 0
    assert (tmp_path / "forecast.csv").read_bytes() == expected


@pytest.mark.parametrize(
    "row, message",
    [
        ("not-a-date,deaths,anything,1e300", "date 'not-a-date' is not an ISO date"),
        ("2020-4-2,deaths,arima,1.0", "date '2020-4-2' is not an ISO date"),
        ("20200402,deaths,arima,1.0", "date '20200402' is not an ISO date"),
        ("2020-02-30,deaths,arima,1.0", "date '2020-02-30' is not an ISO date"),
        ("2020-04-02,Deaths,arima,1.0", "unknown target 'Deaths'"),
        ("2020-04-02,deaths,anything,1.0", "unknown model label 'anything'"),
        ("2020-04-02,deaths,AUTO REG,1.0", "unknown model label 'AUTO REG'"),
        ("2020-04-02,deaths,arima,-5", "negative point_forecast '-5'"),
        ("2020-04-02,deaths,arima,-1e-9", "negative point_forecast '-1e-9'"),
    ],
)
def test_plotdata_refuses_rows_the_forecast_writer_never_writes(tmp_path, capsys, row, message):
    data = make_csv(tmp_path / "data.csv")
    fc = tmp_path / "fc.csv"
    fc.write_text("date,target,model,point_forecast\n2020-04-01,deaths,arima,1.0\n" + row + "\n")
    code = main(["plotdata", "--input", str(data), "--forecast", str(fc), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: line 3: {message} in {fc}\n"
    assert not (tmp_path / "plot_deaths.csv").exists()


def test_plotdata_reads_lf_and_crlf_forecast_files_alike(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    lines = [
        "date,target,model,point_forecast",
        "2020-03-27,deaths,prophet,12.500000",
        "2020-03-27,deaths,ann,-0.000000",  # the writer keeps a -0.0 forecast's sign
    ]
    for end in ("\n", "\r\n"):
        out = tmp_path / repr(end)
        fc = tmp_path / "fc.csv"
        fc.write_bytes((end.join(lines) + end).encode())
        assert main(["plotdata", "--input", str(data), "--forecast", str(fc), "--out", str(out)]) == 0
    capsys.readouterr()
    plots = [(tmp_path / repr(end) / "plot_deaths.csv").read_bytes() for end in ("\n", "\r\n")]
    assert plots[0] == plots[1]
    assert plots[0].endswith(b"2020-03-27,prophet,12.500000\r\n2020-03-27,ann,-0.000000\r\n")


def test_unknown_config_run_key_is_usage_error(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv", n=60)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 3\n")
    config = tmp_path / "run.ini"
    out = tmp_path / "out"
    argv = [
        "fit", "--input", str(data), "--model", "autoreg", "--grid", str(grid),
        "--config", str(config), "--out", str(out),
    ]
    config.write_text("[run]\ntagret = deaths\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: unknown keys ['tagret'] in config section [run]\n"
    assert not out.exists()
    # one config file serves every command, so fit accepts forecast's horizon
    config.write_text("[run]\ntarget = deaths\nhorizon = 7\n")
    assert main(argv) == 0
    capsys.readouterr()
    assert (out / "model_deaths_autoreg.json").exists()


@pytest.mark.parametrize("row, day", [(1, "20200226"), (2, "2020-W09-4")])
def test_csv_dates_must_be_yyyy_mm_dd_on_every_python(tmp_path, capsys, row, day):
    # Python 3.11's date.fromisoformat reads these as the row's own date
    # (2020-02-26 and 2020-02-27), while 3.10's refuses them
    data = make_csv(tmp_path / "data.csv")
    lines = data.read_text().splitlines()
    assert lines[row].startswith(f"2020-02-2{6 + row - 1},")
    lines[row] = day + lines[row][len("2020-02-26") :]
    data.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--input", str(data)]) == 2
    assert capsys.readouterr().err == f"error: line {row + 1}: unparseable date {day!r}\n"


@pytest.mark.parametrize("value", ["1_000", " 7", "1e3", "+7", "７", "１２.５", "1.", ".5", "7 "])
def test_plotdata_point_forecasts_must_be_plain_decimals(tmp_path, capsys, value):
    data = make_csv(tmp_path / "data.csv")
    fc = tmp_path / "fc.csv"
    fc.write_text(
        "date,target,model,point_forecast\n"
        "2020-04-01,deaths,arima,1.0\n"
        f"2020-04-02,deaths,arima,{value}\n"
    )
    code = main(["plotdata", "--input", str(data), "--forecast", str(fc), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: line 3: non-numeric point_forecast {value!r} in {fc}\n"
    assert not (tmp_path / "plot_deaths.csv").exists()


def test_plotdata_accepts_the_decimals_the_writer_writes(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    fc = tmp_path / "fc.csv"
    fc.write_text(
        "date,target,model,point_forecast\n"
        "2020-03-27,deaths,arima,1.0\n"
        "2020-03-28,deaths,arima,12.500000\n"
        "2020-03-29,deaths,arima,-0.000000\n"
        "2020-03-30,deaths,arima,7\n"
    )
    assert main(["plotdata", "--input", str(data), "--forecast", str(fc), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "plot_deaths.csv").read_text().endswith(
        "2020-03-27,arima,1.000000\n2020-03-28,arima,12.500000\n"
        "2020-03-29,arima,-0.000000\n2020-03-30,arima,7.000000\n"
    )


@pytest.mark.parametrize("raw, seasonal", [("yes", True), ("off", False), ("maybe", None)])
def test_grid_booleans(tmp_path, capsys, raw, seasonal):
    data = make_csv(tmp_path / "data.csv")
    config = "window = 3\nhidden_units = 2\nepochs = 5\nlearning_rate = 0.1"
    grid = write_grid(tmp_path / "grid.ini", f"[mlp]\n{config}\nseasonal = {raw}\n")
    out = tmp_path / "out"
    args = ["fit", "--input", str(data), "--model", "mlp", "--grid", str(grid), "--out", str(out)]
    code = main(args)
    err = capsys.readouterr().err
    if seasonal is None:
        assert code == 1 and err == "error: not a boolean: 'maybe'\n"
        assert not out.exists()
    else:
        assert code == 0
        doc = json.loads((out / "model_confirmed_mlp.json").read_text())
        assert doc["config"]["seasonal"] is seasonal


@pytest.mark.parametrize(
    "kind, section, message",
    [
        ("additive", "period = nan", "period must be finite, got nan"),
        ("additive", "changepoint_penalty = inf", "changepoint_penalty must be finite, got inf"),
        ("additive", "changepoint_penalty = nan", "changepoint_penalty must be finite, got nan"),
        ("lstm", "num_units = 4\nwindow = 7\nepochs = 0\nlearning_rate = inf",
         "learning_rate must be finite, got inf"),
    ],
    ids=["nan-period", "infinite-penalty", "nan-penalty", "infinite-learning-rate"],
)
def test_non_finite_grid_numbers_are_usage_errors(
    iran_path, tmp_path, capsys, kind, section, message
):
    # before the check, the first two crashed in the fit with a LinAlgError and
    # the last two wrote a model file with NaN or Infinity that forecast refused
    grid = write_grid(tmp_path / "grid.ini", f"[{kind}]\n{section}\n")
    out = tmp_path / "out"
    args = ["fit", "--input", str(iran_path), "--model", kind, "--grid", str(grid)]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: grid section [{kind}]: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("day", ["20210312", "2021-W10-5"])
def test_model_file_train_end_date_must_be_yyyy_mm_dd_on_every_python(tmp_path, capsys, day):
    # Python 3.11's date.fromisoformat reads both, while 3.10's refuses them
    _, model_path = fitted_model_file(tmp_path, capsys)
    doc = json.loads(model_path.read_text())
    doc["train_end_date"] = day
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "fc"
    assert main(["forecast", "--model-file", str(model_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file: ") and "Traceback" not in err
    assert not (out / "forecast.csv").exists()


# --- one reader for every input file ---------------------------------------------

NOT_TEXT = b"\xff\xfe"  # not UTF-8, the locale encoding of the suite's hosts


@pytest.mark.parametrize(
    "flag, code",
    [("--input", 1), ("--forecast", 1), ("--grid", 1), ("--config", 1), ("--model-file", 3)],
)
def test_a_file_that_is_not_text_is_refused_without_traceback(tmp_path, capsys, flag, code):
    data = make_csv(tmp_path / "data.csv")
    bad = tmp_path / "not_text"
    bad.write_bytes(NOT_TEXT)
    out = ["--out", str(tmp_path / "out")]
    args = {
        "--input": ["validate", "--input", str(bad)],
        "--forecast": ["plotdata", "--input", str(data), "--forecast", str(bad), *out],
        "--grid": ["fit", "--input", str(data), "--model", "autoreg", "--grid", str(bad), *out],
        "--config": [
            "fit", "--input", str(data), "--model", "autoreg", "--config", str(bad), *out,
        ],
        "--model-file": ["forecast", "--model-file", str(bad), *out],
    }[flag]
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "codec can't decode" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_directory_as_grid_file_is_usage_error(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv")
    args = ["fit", "--input", str(data), "--model", "autoreg", "--grid", str(tmp_path)]
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {tmp_path}: ") and "Traceback" not in err


BOM = "\ufeff".encode()  # the UTF-8 byte-order mark spreadsheet exports write


@pytest.mark.parametrize("flag", ["--input", "--forecast", "--grid", "--config", "--model-file"])
def test_a_leading_byte_order_mark_is_accepted(tmp_path, capsys, monkeypatch, iran_path, flag):
    # the same commands twice, from two directories with equal relative paths, the
    # flag's file prefixed with the mark in the second: equal stdout and outputs
    data = ["--input", "data.csv"]
    fit_args = ["fit", *data, "--model", "autoreg", "--target", "deaths"]
    plot_args = ["plotdata", *data, "--forecast", "made/forecast.csv", "--out", "out"]
    commands, name = {
        "--input": ([["validate", *data], plot_args], "data.csv"),
        "--forecast": ([plot_args], "made/forecast.csv"),
        "--grid": ([[*fit_args, "--grid", "grid.ini", "--out", "out"]], "grid.ini"),
        "--config": (
            [["fit", *data, "--model", "autoreg", "--config", "run.ini", "--out", "out"]],
            "run.ini",
        ),
        "--model-file": (
            [["forecast", "--model-file", "made/model_deaths_autoreg.json", "--out", "out"]],
            "made/model_deaths_autoreg.json",
        ),
    }[flag]
    runs = []
    for mark in (b"", BOM):
        root = tmp_path / ("bom" if mark else "plain")
        root.mkdir()
        monkeypatch.chdir(root)
        Path("data.csv").write_bytes(Path(iran_path).read_bytes())
        Path("grid.ini").write_text("[autoreg]\np = 1, 2, 7\n")
        Path("run.ini").write_text("[run]\ntarget = deaths\nseed = 3\ntest_fraction = 0.25\n")
        assert main([*fit_args, "--out", "made"]) == 0
        made = ["--model-file", "made/model_deaths_autoreg.json", "--horizon", "7"]
        assert main(["forecast", *made, "--out", "made"]) == 0
        Path(name).write_bytes(mark + Path(name).read_bytes())
        capsys.readouterr()
        codes = [main(args) for args in commands]
        outputs = {
            path.name: json.loads(path.read_text())["effective_config"]
            if path.name.endswith(".meta.json") else path.read_bytes()
            for path in sorted(Path("out").glob("*"))
        }
        runs.append((codes, capsys.readouterr(), outputs))
    assert set(runs[0][0]) == {0} and len(runs[0][2]) == 2
    assert runs[1] == runs[0]


# --- forecasts that are not finite --------------------------------------------------


def bundled_deaths_autoreg(tmp_path, capsys, iran_path):
    out = tmp_path / "models"
    args = ["fit", "--input", str(iran_path), "--target", "deaths", "--model", "autoreg"]
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    return out / "model_deaths_autoreg.json"


@pytest.mark.parametrize(
    "section, key, value, first",
    [("params", "phi", 1e300, "2021-03-14"), ("scaler", "max", 1.797e308, "2021-03-13")],
    ids=["diverging-phi", "overflowing-scaler"],
)
def test_a_forecast_that_is_not_finite_is_a_model_error(
    tmp_path, capsys, iran_path, section, key, value, first
):
    model_path = bundled_deaths_autoreg(tmp_path, capsys, iran_path)
    doc = json.loads(model_path.read_text())
    if key == "phi":
        doc[section][key][0] = value
    else:
        doc[section][key] = value
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "fc"
    args = ["forecast", "--model-file", str(model_path), "--horizon", "5", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 3
    err = capsys.readouterr().err
    assert err == f"error: model file {model_path}: non-finite forecast on {first}\n"
    assert not caught, [str(w.message) for w in caught]
    assert not out.exists()


# --- one expander for every candidate grid ------------------------------------------


def assert_same_specs(new, old):
    """Equal spec lists in equal order, with equal reprs (1 and 1.0 differ there)."""
    assert new == old
    assert [repr(spec) for spec in new] == [repr(spec) for spec in old]


@pytest.mark.parametrize("seed", range(10))
def test_default_grids_match_the_old_expansion(seed):
    new, old = default_model_grids(seed), oracle_default_model_grids(seed)
    assert [name for name, _ in new] == [name for name, _ in old]
    for (_, new_specs), (_, old_specs) in zip(new, old):
        assert_same_specs(new_specs, old_specs)
    assert_same_specs(arima_default_candidates(seed), oracle_arima_default_candidates(seed))
    grids, old_grids = cli._candidate_grids(seed, None), oracle_candidate_grids(seed, None)
    assert sorted(grids) == sorted(old_grids) == sorted(KINDS)
    for kind in KINDS:
        assert_same_specs(grids[kind], old_grids[kind])


_GRID_VALUES = {
    int: st.integers(1, 3).map(str),
    float: st.sampled_from(["0.1", "1", "2.5", "1e-3"]),
    bool: st.sampled_from(["yes", "off", "true", "0"]),
}
_ARIMA_VALUES = st.integers(0, 2).map(str)  # d = 0 and p_max = q_max = 0 among them


@st.composite
def _value_list(draw, values, max_size):
    return ", ".join(draw(st.lists(values, min_size=1, max_size=max_size)))


@st.composite
def grid_files(draw):
    """Grid-file text with a section for some kinds. A section has some of its
    keys, sometimes lacks a required one or has an unknown one, and an [arima]
    section has or omits each of p_max, q_max and d."""
    sections = []
    for kind in draw(st.lists(st.sampled_from(KINDS), unique=True, max_size=len(KINDS))):
        if kind == "arima":
            keys = dict.fromkeys(("p_max", "q_max", "d"), _ARIMA_VALUES)
        else:
            keys = {k: _GRID_VALUES[tp] for k, tp in get_type_hints(CONFIG_TYPES[kind]).items()}
        lines = [f"[{kind}]"]
        for key, values in keys.items():
            if draw(st.integers(0, 9)):  # most sections give most keys
                size = 1 if key in ("p_max", "q_max") and draw(st.integers(0, 9)) else 3
                lines.append(f"{key} = {draw(_value_list(values, size))}")
        if not draw(st.integers(0, 19)):
            lines.append("typo = 1")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


def _candidates_or_error(candidate_grids, seed, path):
    try:
        grids = candidate_grids(seed, path)
    except cli.UsageError as exc:
        return str(exc)
    return {kind: [repr(spec) for spec in grids[kind]] for kind in sorted(grids)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=grid_files(), seed=st.integers(0, 9))
def test_grid_files_expand_as_before(text, seed):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "grid.ini"
        path.write_text(text)
        new = _candidates_or_error(cli._candidate_grids, seed, str(path))
        old = _candidates_or_error(oracle_candidate_grids, seed, str(path))
    event("refused" if isinstance(new, str) else "expanded")
    event("with [arima]" if "[arima]" in text else "without [arima]")
    assert new == old


# --- one process serving every kind ---------------------------------------------------

SERVE_GRID = """\
[additive]
n_changepoints = 4

[autoreg]
p = 7

[arima]
p_max = 1
q_max = 1

[lstm]
num_units = 3
window = 5
epochs = 2
learning_rate = 0.1

[mlp]
window = 7
hidden_units = 4
epochs = 20
learning_rate = 0.1
seasonal = true
"""


def assert_valid_forecast(text: bytes, horizon: int, target: str, label: str, end: date):
    """The checks the benchmark makes of a model's reference forecast: header,
    row count, the contiguous days after the data, one target and label, and
    finite values >= 0."""
    header, *rows = csv.reader(text.decode().splitlines())
    assert header == ["date", "target", "model", "point_forecast"]
    assert [row[0] for row in rows] == [
        (end + timedelta(days=k + 1)).isoformat() for k in range(horizon)
    ]
    assert {(row[1], row[2]) for row in rows} == {(target, label)}
    assert all(np.isfinite(float(row[3])) and float(row[3]) >= 0.0 for row in rows)


def module_state() -> dict:
    """The size of every mutable container and function cache that a module of
    the package holds: what one call could leave behind for the next."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "epiforecast":
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                state[name, attr] = len(value)
            elif hasattr(value, "cache_info"):
                state[name, attr] = value.cache_info().currsize
    return state


def test_one_process_serves_every_kind_as_prefixes_of_its_reference(
    tmp_path, capsys, iran_path, deaths
):
    """The benchmark's serving loop in small: fit one model of each kind, write
    each one's 180-day reference, then serve shuffled requests of random
    horizons from one process. A request's CSV is its reference's first rows,
    whatever ran before it, and no call leaves state at module level."""
    grid = write_grid(tmp_path / "grid.ini", SERVE_GRID)
    models = tmp_path / "models"
    data = ["--input", str(iran_path), "--target", "deaths", "--grid", str(grid)]
    reference = {}
    for kind in KINDS:
        assert main(["fit", *data, "--model", kind, "--out", str(models)]) == 0
        path = models / f"model_deaths_{kind}.json"
        out = tmp_path / "reference" / kind
        assert main(["forecast", "--model-file", str(path), "--out", str(out)]) == 0
        text = (out / "forecast.csv").read_bytes()
        assert_valid_forecast(text, 180, "deaths", cli.LABELS[kind], deaths.end_date)
        reference[path] = text.splitlines(keepends=True)
    rng = np.random.default_rng(22)
    out = tmp_path / "served"
    state = module_state()  # a cache keyed by id() is found here, not only when an id recurs
    for _ in range(6):
        for i in rng.permutation(len(KINDS)):
            path = models / f"model_deaths_{KINDS[i]}.json"
            for horizon in rng.integers(1, 181, size=2).tolist():  # the same model twice running
                argv = ["forecast", "--model-file", str(path), "--horizon", str(horizon)]
                assert main([*argv, "--out", str(out)]) == 0
                served = (out / "forecast.csv").read_bytes()
                assert served == b"".join(reference[path][: horizon + 1])
    assert module_state() == state
    capsys.readouterr()


SEASONAL_MLP = _spec("mlp", window=3, hidden_units=2, epochs=2, learning_rate=0.1, seasonal=True)


def _day_after(doc):
    """The weekday index of the day after the file's train_end_date."""
    return (date.fromisoformat(doc["train_end_date"]) + timedelta(days=1)).weekday()


@pytest.mark.parametrize(
    "next_dow, message",
    [
        (7, "next_dow is 7, not a weekday index 0..6"),
        (-1, "next_dow is -1, not a weekday index 0..6"),
        (100, "next_dow is 100, not a weekday index 0..6"),
        (None, "but the day after train_end_date "),
    ],
    ids=["seven", "minus-one", "hundred", "another-weekday"],
)
def test_a_seasonal_ann_file_whose_next_dow_is_not_the_day_after_training_is_refused(
    tmp_path, capsys, next_dow, message
):
    """7, -1 and 100 used to forecast what 0, 6 and 2 do, and an in-range
    weekday other than the day after training shifted the weekly pattern."""
    model_path = saved_model_file(tmp_path, SEASONAL_MLP)
    args = ["forecast", "--model-file", str(model_path), "--out", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    doc = json.loads(model_path.read_text())
    right = _day_after(doc)
    assert doc["params"]["next_dow"] == right
    wrong = (right + 3) % 7 if next_dow is None else next_dow
    doc["params"]["next_dow"] = wrong
    model_path.write_text(json.dumps(doc))
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file: ") and message in err
    if next_dow is None:
        assert f"next_dow is {wrong} but the day after train_end_date" in err
        assert err.rstrip().endswith(f"is weekday {right}")
    assert "Traceback" not in err


# --- an empty --grid or --config path -----------------------------------------------------


@pytest.mark.parametrize(
    "command, flag",
    [
        ("fit", "--grid"), ("backtest", "--grid"),
        ("fit", "--config"), ("forecast", "--config"), ("backtest", "--config"),
        ("plotdata", "--config"),
    ],
)
def test_an_empty_grid_or_config_path_is_a_usage_error(tmp_path, capsys, command, flag):
    """An empty path used to count as no file: the command ran on the default
    grids and options and its sidecar recorded the empty path."""
    data = str(make_csv(tmp_path / "data.csv"))
    made = tmp_path / "made"
    fit_args = ["fit", "--input", data, "--target", "deaths", "--model", "autoreg"]
    assert main([*fit_args, "--out", str(made)]) == 0
    model = str(made / "model_deaths_autoreg.json")
    assert main(["forecast", "--model-file", model, "--horizon", "5", "--out", str(made)]) == 0
    args = {
        "fit": fit_args,
        "forecast": ["forecast", "--model-file", model],
        "backtest": ["backtest", "--input", data, "--target", "deaths", "--models", "autoreg"],
        "plotdata": ["plotdata", "--input", data, "--forecast", str(made / "forecast.csv")],
    }[command]
    assert main([*args, "--out", str(tmp_path / "given")]) == 0  # the same command with no flag
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*args, flag, "", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read : ") and "Traceback" not in err
    assert not out.exists()
