"""End-to-end command-line behavior: exit codes, files written, precedence."""

import csv
import json
from datetime import date, timedelta

import numpy as np
import pytest

from epiforecast.cli import main
from epiforecast.data import parse_csv, train_test_split
from epiforecast.forecasters import ForecasterSpec, fit, save_model
from epiforecast.forecasters.base import ArOrder
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


def test_backtest_total_failure_is_model_error(tmp_path, capsys):
    data = make_csv(tmp_path / "data.csv", n=12)
    grid = write_grid(tmp_path / "grid.ini", "[autoreg]\np = 300\n")
    code = main([
        "backtest", "--input", str(data), "--models", "autoreg",
        "--grid", str(grid), "--out", str(tmp_path / "bt"),
    ])
    assert code == 3
    assert "every model failed" in capsys.readouterr().err


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
