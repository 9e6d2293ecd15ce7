"""Every output file is replaced on a rerun, not written through, and keeps the
bytes of the write idioms it replaced."""

import csv
import json
import os
from pathlib import Path

import pytest

from epiforecast.cli import main
from epiforecast.data import write_output
from epiforecast.errors import ContractError
from epiforecast.forecasters import load_model, model_to_dict
from oracles import oracle_write_csv, oracle_write_json

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
