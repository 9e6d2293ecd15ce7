"""Command-line entry points: validate, fit, forecast, backtest, plotdata.

Exit codes, each the exit_code of the error class raised: 0 success, 1 usage
error, 2 data validation error, 3 model or fitting error. Options resolve as
flags > config file > defaults, and every output file gets a .meta.json
sidecar holding the effective configuration, timestamps and wall times, so
the outputs themselves stay byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import json
import logging
import math
import sys
import time
from collections.abc import Callable
from dataclasses import MISSING, asdict, fields, replace
from datetime import date, datetime, timezone
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .backtest import (
    DEFAULT_GRIDS,
    DISPLAY_NAMES,
    EvalProtocol,
    _failure,
    compare_models,
    expand_grid,
    fit_normalized,
    grid_search,
    measure,
    render_table,
)
from .data import (
    FORECAST_HEADER,
    TARGETS,
    EpidemicDataset,
    csv_text,
    extract_series,
    parse_csv,
    read_forecast_csv,
    read_input,
    write_output,
)
from .errors import (
    ContractError, DivergenceError, EpiForecastError, ExhaustedGridError, ModelFileError
)
from .forecasters import (
    KINDS,
    ForecasterSpec,
    forecast,
    insample_predictions,
    load_model,
    save_model,
)
from .forecasters.base import CONFIG_TYPES
from .metrics import fit_score, mse
from .transform import scale

logger = logging.getLogger(__name__)

EXIT_OK = 0

DEFAULTS = {
    "target": "confirmed",
    "horizon": 180,
    "seed": 0,
    "test_fraction": 0.2,
    "out": ".",
}

# The model column of forecast.csv, the series names of the plot CSV
LABELS = {kind: name.lower().replace(" ", "") for kind, name in DISPLAY_NAMES.items()}


class UsageError(EpiForecastError):
    """Bad flags, input path, config or grid file. Not a ValueError, so the grid
    reader's ValueError handler does not wrap it a second time."""

    exit_code = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


@functools.cache  # built once per process: every parse_args starts from a fresh namespace
def _build_parser() -> _Parser:
    parser = _Parser(prog="epiforecast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", required=True)
    data.add_argument("--allow-corrections", action="store_true")
    tuning = argparse.ArgumentParser(add_help=False)
    tuning.add_argument("--target", choices=TARGETS)
    tuning.add_argument("--grid", help="INI grid file overriding default candidates")
    tuning.add_argument("--seed", type=int)
    tuning.add_argument("--test-fraction", type=float, dest="test_fraction")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output directory (default: current directory)")
    output.add_argument("--config", help="INI config file; flags override it")

    sub.add_parser("validate", parents=[data], help="parse a CSV and report its shape and checks")
    p = sub.add_parser("fit", parents=[data, tuning, output],
                       help="fit one model (grid-searched) and write a model file")
    p.add_argument("--model", required=True, choices=KINDS)
    p = sub.add_parser("forecast", parents=[output], help="forecast from saved model files")
    p.add_argument("--model-file", action="append", required=True, dest="model_files")
    p.add_argument("--horizon", type=int)
    p = sub.add_parser("backtest", parents=[data, tuning, output],
                       help="compare model families on one holdout split")
    p.add_argument("--models", help="comma-separated kinds (default: all five)")
    p = sub.add_parser("plotdata", parents=[data, output],
                       help="merge observed data and forecasts into tidy CSV")
    p.add_argument("--forecast", action="append", required=True, dest="forecasts")
    return parser


def _read_ini(path: str, what: str) -> configparser.ConfigParser:
    """Reads an INI file; an unreadable or malformed file is a usage error."""
    ini = configparser.ConfigParser()
    try:
        ini.read_string(read_input(path, UsageError), source=path)
    except (ValueError, configparser.Error) as exc:
        raise UsageError(f"malformed {what} file {path}: {exc}") from exc
    return ini


def _resolve(args) -> dict:
    """flags > config-file [run] section > defaults, for each DEFAULTS key the
    command has a flag for; every other flag is recorded as given. One config
    file serves every command, so [run] may hold keys another command uses."""
    keys = [k for k in DEFAULTS if hasattr(args, k)]
    effective = {k: DEFAULTS[k] for k in keys}
    if getattr(args, "config", None) is not None:  # "" is a path that cannot be read
        ini = _read_ini(args.config, "config")
        if ini.has_section("run"):
            unknown = set(ini.options("run")) - set(DEFAULTS)
            if unknown:
                raise UsageError(f"unknown keys {sorted(unknown)} in config section [run]")
            for k in [k for k in keys if ini.has_option("run", k)]:
                try:
                    effective[k] = type(DEFAULTS[k])(ini.get("run", k))
                except (ValueError, configparser.Error) as exc:
                    raise UsageError(f"config [run] {k}: {exc}") from exc
    for k, value in vars(args).items():
        if (k in DEFAULTS and value is None) or k in ("command", "config", "allow_corrections"):
            continue
        effective[k] = value
    if "target" in effective and effective["target"] not in TARGETS:
        raise UsageError(f"unknown target {effective['target']!r}")
    return effective


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise UsageError(f"not a boolean: {raw!r}") from None


def _grid_section(ini: configparser.ConfigParser, kind: str, seed: int) -> list[ForecasterSpec]:
    """Parses and checks one section and merges it over its defaults: an [arima]
    section keeps each default it omits, any other gives every field without one."""
    options = {k: [v.strip() for v in raw.split(",")] for k, raw in ini.items(kind)}
    config_type = CONFIG_TYPES[kind]
    defaults = DEFAULT_GRIDS[kind] if kind == "arima" else {}  # its keys are not config fields
    types = dict.fromkeys(defaults, int) if defaults else get_type_hints(config_type)
    required = [] if defaults else [f.name for f in fields(config_type) if f.default is MISSING]
    unknown = set(options) - set(types)
    if unknown:
        raise UsageError(f"unknown fields {sorted(unknown)} in grid section [{kind}]")
    missing = [name for name in required if name not in options]
    if missing:
        raise UsageError(f"grid section [{kind}] needs {', '.join(missing)}")
    for key in ("p_max", "q_max"):  # ARIMA's orders are expanded from one of each
        if len(options.get(key, ())) > 1:
            raise UsageError(f"{key} takes one value in grid section [arima]")
    parsers = {int: int, float: float, bool: _parse_bool}
    grid = {k: [parsers[types[k]](v) for v in vs] for k, vs in options.items()}
    return expand_grid(kind, {**defaults, **grid}, seed)


def _candidate_grids(seed: int, grid_path: str | None) -> dict[str, list[ForecasterSpec]]:
    """Candidates per kind: the default grids, each replaced by its --grid section."""
    grids = {kind: expand_grid(kind, DEFAULT_GRIDS[kind], seed) for kind in KINDS}
    if grid_path is not None:  # "" is a path that cannot be read
        ini = _read_ini(grid_path, "grid")
        for kind in ini.sections():
            if kind not in KINDS:
                raise UsageError(f"unknown model kind [{kind}] in grid file")
            try:
                grids[kind] = _grid_section(ini, kind, seed)
            except (ValueError, configparser.Error) as exc:
                raise UsageError(f"grid section [{kind}]: {exc}") from exc
    return grids


class _Run:
    """The steps every command shares: its start time, its effective options,
    reading --input, and writing an output with its .meta.json sidecar."""

    def __init__(self, args):
        self.t0 = time.perf_counter()
        self.args = args
        self.config = _resolve(args)

    def dataset(self) -> EpidemicDataset:
        text = read_input(self.args.input, UsageError)
        return parse_csv(text, allow_corrections=self.args.allow_corrections)

    def write(self, name: str, save: Callable[[Path], object], **extra) -> Path:
        """Creates --out, writes name there with save(path), then its sidecar
        with the effective options and extra. A write error leaves neither
        file behind, so no output stands without its sidecar."""
        out = Path(self.config["out"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file stands at the path or above it, or no permission
            raise UsageError(f"cannot create output directory {out}: {exc}") from exc
        path = out / name
        sidecar = Path(f"{path}.meta.json")
        try:
            save(path)
            doc = {
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "command": self.args.command,
                "package_version": __version__,
                "wall_time_s": round(time.perf_counter() - self.t0, 3),
                "effective_config": {**self.config, **extra},
            }
            write_output(sidecar, json.dumps(doc, indent=2) + "\n")
        except ContractError:
            for stale in (path, sidecar):
                with contextlib.suppress(OSError):  # absent, or a directory stands there
                    stale.unlink()
            raise
        return path


def cmd_validate(args) -> None:
    ds = _Run(args).dataset()
    print(f"{len(ds)} records, {ds.start_date.isoformat()}..{ds.end_date.isoformat()}")
    for name in TARGETS:
        status = "non-decreasing" if ds.column_monotone(name) else "has corrections"
        print(f"{name}: {status}")


def cmd_fit(args) -> None:
    run = _Run(args)
    target = run.config["target"]
    s = extract_series(run.dataset(), target)
    candidates = _candidate_grids(run.config["seed"], args.grid)[args.model]
    protocol = EvalProtocol(test_fraction=run.config["test_fraction"])
    try:
        if len(candidates) == 1:
            chosen, model, validation_mse = candidates[0], fit_normalized(candidates[0], s), None
        else:
            chosen, model, validation_mse = grid_search(candidates, s, protocol)
        model = replace(model, target=target)
        actual, predicted = insample_predictions(model, scale(model.scaler, s))
    except EpiForecastError:
        raise
    except Exception as exc:  # a fitter's own failure is a model error, as in a backtest
        raise EpiForecastError(_failure(exc, f"model {args.model} failed")) from exc
    path = run.write(f"model_{target}_{args.model}.json", lambda p: save_model(model, p))
    print(f"model: {args.model}")
    print(f"hyperparameters: {json.dumps(asdict(chosen.config), sort_keys=True)}")
    print(f"seed: {chosen.seed}")
    if validation_mse is not None:
        print(f"validation mse: {validation_mse:.6g}")
    print(f"train mse: {mse(actual, predicted):.6g}")
    notes: list[str] = []
    r2 = measure(notes, "train r2", fit_score, actual, predicted)
    print(notes[0] if notes else f"train r2: {r2:.6g}")
    print(f"wrote {path}")


def cmd_forecast(args) -> None:
    run = _Run(args)
    horizon = run.config["horizon"]
    rows = []
    for model_path in args.model_files:
        model = load_model(model_path)
        if model.target is None or model.train_end_date is None:
            raise ModelFileError(
                f"model file {model_path} lacks target/date metadata; refit it via the CLI"
            )
        if (date.max - model.train_end_date).days < horizon:
            raise UsageError(f"--horizon {horizon} ends after {date.max} for {model_path}")
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging model is refused below
            values = model.scaler.inverse(forecast(model, horizon)).tolist()
        start = np.datetime64(model.train_end_date, "D")
        days = np.datetime_as_string(start + np.arange(1, horizon + 1)).tolist()
        label = LABELS[model.spec.kind]
        floored = []
        for day, value in zip(days, values):
            if not math.isfinite(value):
                raise DivergenceError(f"model file {model_path}: non-finite forecast on {day}")
            if value < 0.0:  # -0.0 is not floored, so it is written as -0.000000
                floored.append(day)
                value = 0.0
            rows.append((day, model.target, label, value))
        if floored:
            logger.warning(
                "floored %d negative %s forecasts to 0 for %s, the first on %s",
                len(floored), model.target, model_path, floored[0],
            )
    path = run.write("forecast.csv", lambda p: write_output(p, csv_text(FORECAST_HEADER, rows)))
    print(f"wrote {path} ({len(rows)} rows)")


def cmd_backtest(args) -> None:
    run = _Run(args)
    s = extract_series(run.dataset(), run.config["target"])
    kinds = list(KINDS) if args.models is None else [k.strip() for k in args.models.split(",")]
    if "" in kinds:
        raise UsageError(f"a kind name in --models {args.models!r} is empty")
    unknown = [k for k in kinds if k not in KINDS]
    if unknown:
        raise UsageError(f"unknown model kinds: {', '.join(unknown)}")
    grids = _candidate_grids(run.config["seed"], args.grid)
    # in the standard presentation order
    entries = [(name, grids[k]) for k, name in DISPLAY_NAMES.items() if k in kinds]
    protocol = EvalProtocol(test_fraction=run.config["test_fraction"])
    report = compare_models(entries, s, protocol, target=run.config["target"])
    print(render_table(report))
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    wall_times_s = {row.name: round(row.wall_time_s, 3) for row in report.rows}
    path = run.write(
        "backtest_report.json", lambda p: write_output(p, text), wall_times_s=wall_times_s
    )
    print(f"wrote {path}")
    if all(row.error is not None for row in report.rows):
        raise ExhaustedGridError("every model failed; see the report for reasons")


def cmd_plotdata(args) -> None:
    run = _Run(args)
    ds = run.dataset()
    rows = []
    for fc_path in args.forecasts:
        rows += read_forecast_csv(read_input(fc_path, UsageError), fc_path, LABELS.values())
    targets = {target for _, target, _, _ in rows}
    if len(targets) != 1:
        raise UsageError(
            f"forecast files must share one target, found: {sorted(targets) or 'none'}"
        )
    (target,) = targets
    observed = extract_series(ds, target)
    plot = [(observed.date_at(i).isoformat(), "observed", v) for i, v in enumerate(observed.values)]
    plot += [(day, label, value) for day, _, label, value in rows]
    header = ("date", "series_name", "value")
    path = run.write(f"plot_{target}.csv", lambda p: write_output(p, csv_text(header, plot)))
    print(f"wrote {path}")


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        globals()[f"cmd_{args.command}"](args)  # looked up per call, so it can be wrapped
    except EpiForecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
