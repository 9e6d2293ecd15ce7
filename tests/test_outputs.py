"""Every output file is replaced on a rerun, not written through, and keeps the
bytes of the write idioms it replaced."""

import csv
import importlib
import importlib.util
import json
import os
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiforecast import cli
from epiforecast.backtest import compare_models
from epiforecast.cli import main
from epiforecast.data import FORECAST_HEADER, Series, csv_text, read_forecast_csv, write_output
from epiforecast.errors import ContractError
from epiforecast.forecasters import ForecasterSpec, load_model, model_to_dict
from epiforecast.forecasters.base import AdditiveConfig, ArimaOrder, ArOrder, LstmConfig, MlpConfig
from oracles import (
    oracle_forecast_csv_text,
    oracle_plot_csv_text,
    oracle_write_csv,
    oracle_write_json,
)

COMMANDS = ("fit", "forecast", "backtest", "plotdata")


def run_commands(tmp_path, iran_path, capsys):
    """Runs the four writing commands on the bundled data into tmp_path/out and
    returns each command's argv and the output file it writes."""
    grid = tmp_path / "grid.ini"
    grid.write_text("[autoreg]\np = 3\n")
    out = tmp_path / "out"
    model, fc = out / "model_deaths_autoreg.json", out / "forecast.csv"
    data = ["--input", str(iran_path), "--target", "deaths", "--grid", str(grid)]
    commands = {
        "fit": (["fit", *data, "--model", "autoreg", "--out", str(out)], model),
        "forecast": (
            ["forecast", "--model-file", str(model), "--horizon", "30", "--out", str(out)], fc
        ),
        "backtest": (
            ["backtest", *data, "--models", "autoreg", "--out", str(out)],
            out / "backtest_report.json",
        ),
        "plotdata": (
            ["plotdata", "--input", str(iran_path), "--forecast", str(fc), "--out", str(out)],
            out / "plot_deaths.csv",
        ),
    }
    for name in COMMANDS:
        assert main(commands[name][0]) == 0
    capsys.readouterr()
    return commands


def sidecar(path: Path) -> Path:
    return Path(f"{path}.meta.json")


@pytest.mark.parametrize("command", COMMANDS)
def test_rerun_replaces_outputs_instead_of_writing_through_hard_links(
    tmp_path, iran_path, capsys, command
):
    argv, output = run_commands(tmp_path, iran_path, capsys)[command]
    links = tmp_path / "links"
    links.mkdir()
    old = {}
    for path in (output, sidecar(output)):
        os.link(path, links / path.name)
        old[links / path.name] = path.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    for path in (output, sidecar(output)):
        assert path.stat().st_nlink == 1
    for link, data in old.items():
        assert link.stat().st_nlink == 1
        assert link.read_bytes() == data


def test_outputs_are_byte_equal_to_the_old_write_idioms(tmp_path, iran_path, capsys):
    commands = run_commands(tmp_path, iran_path, capsys)
    old = tmp_path / "old"
    old.mkdir()
    for name in ("forecast", "plotdata"):
        path = commands[name][1]
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        oracle_write_csv(old / path.name, rows[0], rows[1:])
        data = path.read_bytes()
        assert data == (old / path.name).read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") == len(rows) > 30
    model_path = commands["fit"][1]
    oracle_write_json(old / model_path.name, model_to_dict(load_model(model_path)))
    assert model_path.read_bytes() == (old / model_path.name).read_bytes()
    report = commands["backtest"][1]
    json_outputs = [report] + [sidecar(output) for _, output in commands.values()]
    for path in json_outputs:
        oracle_write_json(old / path.name, json.loads(path.read_text()))
        assert path.read_bytes() == (old / path.name).read_bytes()


def test_write_output_writes_text_as_is_and_replaces_a_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("kept\n")
    path = tmp_path / "out.txt"
    path.symlink_to(target)
    write_output(path, "a\r\nb\n")
    assert not path.is_symlink()
    assert path.read_bytes() == b"a\r\nb\n"
    assert target.read_text() == "kept\n"
    write_output(str(tmp_path / "new.txt"), "x")
    assert (tmp_path / "new.txt").read_bytes() == b"x"


def test_write_output_failure_is_a_contract_error(tmp_path):
    (tmp_path / "dir").mkdir()
    with pytest.raises(ContractError, match=f"^cannot write {tmp_path / 'dir'}: "):
        write_output(tmp_path / "dir", "x")


@pytest.mark.parametrize("name", ["forecast.csv", "forecast.csv.meta.json"])
def test_output_path_held_by_a_directory_is_usage_error(tmp_path, iran_path, capsys, name):
    argv, output = run_commands(tmp_path, iran_path, capsys)["forecast"]
    blocked = output.parent / name
    blocked.unlink()
    blocked.mkdir()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocked}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", COMMANDS)
def test_an_output_whose_sidecar_cannot_be_written_is_removed(
    tmp_path, iran_path, capsys, command
):
    argv, output = run_commands(tmp_path, iran_path, capsys)[command]
    blocked = sidecar(output)
    blocked.unlink()
    blocked.mkdir()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {blocked}: ")
    assert not output.exists()
    assert f"wrote {output}" not in captured.out
    assert blocked.is_dir()


# -0.0 is kept as written, -1e-9 is floored, 5e-7 rounds at the sixth decimal
# and 1e300 prints as a 301-digit number.
CELLS = st.one_of(
    st.sampled_from([-0.0, -1e-9, 5e-7, 1e300]),
    st.floats(min_value=-1e3, max_value=1e15),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.lists(CELLS, min_size=1, max_size=12), as_numpy=st.booleans())
def test_csv_text_is_byte_equal_to_the_old_csv_builders(values, as_numpy):
    cells = list(np.asarray(values, dtype=np.float64)) if as_numpy else values
    start = date(2021, 3, 13)
    days = [(start + timedelta(days=k)).isoformat() for k in range(len(cells))]
    # floored as cmd_forecast floors them
    rows = [(day, "deaths", "arima", 0.0 if v < 0.0 else v) for day, v in zip(days, cells)]
    text = csv_text(FORECAST_HEADER, rows)
    assert text == oracle_forecast_csv_text(rows)
    assert read_forecast_csv(text, "forecast.csv", {"arima"}) == [
        (day, target, label, float(f"{v:.6f}")) for day, target, label, v in rows
    ]
    observed = Series(np.abs(np.asarray(values, dtype=np.float64)), start)
    blocks = [(day, label, v) for day, _, label, v in rows]
    plot = [(observed.date_at(i).isoformat(), "observed", v) for i, v in enumerate(observed.values)]
    assert csv_text(("date", "series_name", "value"), plot + blocks) == oracle_plot_csv_text(
        observed, blocks
    )


# The characters that make csv.writer quote a cell: its delimiter, its quote
# character and the line breaks
QUOTED = ',"\r\n'
PLAIN_CELLS = st.text(st.characters(exclude_characters=QUOTED), max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cells=st.lists(st.tuples(PLAIN_CELLS, PLAIN_CELLS), min_size=1, max_size=4))
def test_csv_text_writes_any_cell_that_needs_no_quoting_as_csv_writer_does(cells):
    rows = [(day, target, "arima", 1.5) for day, target in cells]
    assert csv_text(FORECAST_HEADER, rows) == oracle_forecast_csv_text(rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    cell=st.tuples(PLAIN_CELLS, st.sampled_from(QUOTED), PLAIN_CELLS).map("".join),
    column=st.integers(0, 2),
    in_header=st.booleans(),
)
def test_csv_text_refuses_a_cell_that_csv_writer_would_quote(cell, column, in_header):
    header = list(FORECAST_HEADER)
    rows = [["2021-03-13", "deaths", "arima", 1.5], ["2021-03-14", "deaths", "arima", 2.5]]
    (header if in_header else rows[1])[column] = cell
    with pytest.raises(ContractError, match="^a CSV cell holds a comma, quote or line break"):
        csv_text(tuple(header), [tuple(row) for row in rows])


def test_a_label_that_would_need_quoting_leaves_no_forecast_behind(
    tmp_path, iran_path, capsys, monkeypatch
):
    argv, output = run_commands(tmp_path, iran_path, capsys)["forecast"]
    monkeypatch.setitem(cli.LABELS, "autoreg", "auto,reg")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: a CSV cell holds a comma, quote or line break")
    assert not output.exists()
    assert not sidecar(output).exists()


# Which commands call each epiforecast.cli attribute the benchmark's tracer wraps
CALLERS = {
    "cmd_forecast": {"forecast"},
    "parse_csv": {"fit", "backtest", "plotdata"},
    "load_model": {"forecast"},
    "save_model": {"fit"},
    "grid_search": {"fit"},
    "compare_models": {"backtest"},
}


def traced_cli_attributes() -> set[str]:
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {attr for _, module, attr, _ in spans.BOUNDARIES if module == "epiforecast.cli"}


def test_each_traced_cli_attribute_is_called_by_its_commands(
    tmp_path, iran_path, capsys, monkeypatch
):
    assert traced_cli_attributes() == set(CALLERS)
    commands = run_commands(tmp_path, iran_path, capsys)
    (tmp_path / "grid.ini").write_text("[autoreg]\np = 2, 3\n")  # fit now grid-searches
    calls = []
    for attr in CALLERS:
        def spy(*args, _attr=attr, _original=getattr(cli, attr), **kwargs):
            calls.append(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, attr, spy)
    callers = {attr: set() for attr in CALLERS}
    for name in COMMANDS:
        calls.clear()
        assert main(commands[name][0]) == 0
        for attr in calls:
            callers[attr].add(name)
    capsys.readouterr()
    assert callers == CALLERS


def package_patch_points() -> set[tuple[str, str]]:
    """Every (module, attribute) outside epiforecast.cli that the benchmark wraps:
    the rest of spans.BOUNDARIES, and what Accounting.install patches, recorded by
    a stand-in for spans.patch."""
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    points = {(module, attr) for _, module, attr, _ in spans.BOUNDARIES}
    spans.patch = lambda module, attr, make_wrapper: points.add((module, attr))
    spans.Accounting().install()
    return {(module, attr) for module, attr in points if module != "epiforecast.cli"}


TINY_GRIDS = {
    "autoreg": [ArOrder(1), ArOrder(2)],
    "arima": [ArimaOrder(1, 1, 0), ArimaOrder(0, 1, 1)],
    "lstm": [LstmConfig(2, 3, 2, 0.1, layers=1), LstmConfig(2, 3, 2, 0.05, layers=1)],
    "mlp": [MlpConfig(3, 2, 3, 0.1), MlpConfig(3, 2, 3, 0.1, seasonal=True)],
    "additive": [AdditiveConfig(n_changepoints=2), AdditiveConfig(n_changepoints=3)],
}


def test_each_traced_package_attribute_is_looked_up_when_called(monkeypatch, deaths):
    """A wrapper on a module attribute sees a call only if callers look the
    attribute up when they call it; one bound at import time (say, a FAMILIES
    entry holding fit_autoreg itself) would leave a traced run at zero calls.
    compare_models grid-searches two candidates per kind and forecasts each
    chosen model over the test split."""
    points = package_patch_points()
    called = set()
    for module, attr in points:
        owner = importlib.import_module(module)

        def spy(*args, _point=(module, attr), _original=getattr(owner, attr), **kwargs):
            called.add(_point)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    entries = [(kind, [ForecasterSpec(kind, c) for c in grid]) for kind, grid in TINY_GRIDS.items()]
    report = compare_models(entries, deaths)
    assert [row.error for row in report.rows] == [None] * len(TINY_GRIDS)
    assert sorted(points - called) == []
