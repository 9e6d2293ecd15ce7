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
import csv
import io
import json
import logging
import math
import sys
import time
from dataclasses import MISSING, asdict, fields, replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .backtest import (
    ARIMA_DEFAULT_D,
    ARIMA_DEFAULT_P_MAX,
    ARIMA_DEFAULT_Q_MAX,
    DISPLAY_NAMES,
    EvalProtocol,
    compare_models,
    default_model_grids,
    expand_grid,
    fit_normalized,
    grid_search,
    render_table,
)
from .data import TARGETS, extract_series, parse_csv, write_output
from .errors import EpiForecastError, ExhaustedGridError, ModelFileError, ParseError
from .forecasters import (
    KINDS,
    ForecasterSpec,
    forecast,
    insample_predictions,
    load_model,
    save_model,
)
from .forecasters.arima import arima_orders
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


class UsageError(EpiForecastError):
    """Bad flags, input path, config or grid file. Not a ValueError, so the grid
    reader's ValueError handler does not wrap it a second time."""

    exit_code = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="epiforecast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, config=True):
        p.add_argument("--out", help="output directory (default: current directory)")
        if config:
            p.add_argument("--config", help="INI config file; flags override it")

    p = sub.add_parser("validate", help="parse a CSV and report its shape and checks")
    p.add_argument("--input", required=True)
    p.add_argument("--allow-corrections", action="store_true")

    p = sub.add_parser("fit", help="fit one model (grid-searched) and write a model file")
    p.add_argument("--input", required=True)
    p.add_argument("--target", choices=TARGETS)
    p.add_argument("--model", required=True, choices=KINDS)
    p.add_argument("--grid", help="INI grid file overriding default candidates")
    p.add_argument("--seed", type=int)
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.add_argument("--allow-corrections", action="store_true")
    common(p)

    p = sub.add_parser("forecast", help="forecast from saved model files")
    p.add_argument("--model-file", action="append", required=True, dest="model_files")
    p.add_argument("--horizon", type=int)
    common(p)

    p = sub.add_parser("backtest", help="compare model families on one holdout split")
    p.add_argument("--input", required=True)
    p.add_argument("--target", choices=TARGETS)
    p.add_argument("--models", help="comma-separated kinds (default: all five)")
    p.add_argument("--grid", help="INI grid file overriding default candidates")
    p.add_argument("--seed", type=int)
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.add_argument("--allow-corrections", action="store_true")
    common(p)

    p = sub.add_parser("plotdata", help="merge observed data and forecasts into tidy CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--forecast", action="append", required=True, dest="forecasts")
    p.add_argument("--allow-corrections", action="store_true")
    common(p)

    return parser


def _read_ini(path: str, what: str) -> configparser.ConfigParser:
    """Reads an INI file; a missing or malformed file is a usage error."""
    ini = configparser.ConfigParser()
    try:
        read = ini.read(path)
    except (ValueError, configparser.Error) as exc:
        raise UsageError(f"malformed {what} file {path}: {exc}") from exc
    if not read:
        raise UsageError(f"cannot read {what} file {path}")
    return ini


def _resolve(args, *keys) -> dict:
    """flags > config-file [run] section > defaults, for the requested keys."""
    effective = {k: DEFAULTS[k] for k in keys}
    config_path = getattr(args, "config", None)
    if config_path:
        ini = _read_ini(config_path, "config")
        if ini.has_section("run"):
            for k in keys:
                if ini.has_option("run", k):
                    try:
                        raw = ini.get("run", k)
                        effective[k] = type(DEFAULTS[k])(raw) if k != "target" else raw
                    except (ValueError, configparser.Error) as exc:
                        raise UsageError(f"config [run] {k}: {exc}") from exc
    for k in keys:
        value = getattr(args, k, None)
        if value is not None:
            effective[k] = value
    if "target" in effective and effective["target"] not in TARGETS:
        raise UsageError(f"unknown target {effective['target']!r}")
    return effective


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {raw!r}")


def _grid_overrides(path: str, seed: int) -> dict[str, list[ForecasterSpec]]:
    ini = _read_ini(path, "grid")
    out: dict[str, list[ForecasterSpec]] = {}
    for kind in ini.sections():
        if kind not in KINDS:
            raise UsageError(f"unknown model kind [{kind}] in grid file")
        try:
            out[kind] = _grid_section(ini, kind, seed)
        except (ValueError, configparser.Error) as exc:
            raise UsageError(f"grid section [{kind}]: {exc}") from exc
    return out


def _grid_section(ini: configparser.ConfigParser, kind: str, seed: int) -> list[ForecasterSpec]:
    options = {k: [v.strip() for v in raw.split(",")] for k, raw in ini.items(kind)}
    config_type = CONFIG_TYPES[kind]
    types = get_type_hints(config_type)
    known = ("p_max", "q_max", "d") if kind == "arima" else types
    unknown = set(options) - set(known)
    if unknown:
        raise UsageError(f"unknown fields {sorted(unknown)} in grid section [{kind}]")
    if kind == "arima":
        for key in ("p_max", "q_max"):
            if len(options.get(key, ())) > 1:
                raise UsageError(f"{key} takes one value in grid section [arima]")
        p_max = int(options["p_max"][0]) if "p_max" in options else ARIMA_DEFAULT_P_MAX
        q_max = int(options["q_max"][0]) if "q_max" in options else ARIMA_DEFAULT_Q_MAX
        ds = [int(v) for v in options["d"]] if "d" in options else ARIMA_DEFAULT_D
        return [ForecasterSpec("arima", order, seed) for order in arima_orders(p_max, q_max, ds)]
    missing = [
        f.name
        for f in fields(config_type)
        if f.default is MISSING and f.name not in options
    ]
    if missing:
        raise UsageError(f"grid section [{kind}] needs {', '.join(missing)}")
    parsers = {int: int, float: float, bool: _parse_bool}
    grid = {k: [parsers[types[k]](v) for v in vs] for k, vs in options.items()}
    return expand_grid(kind, grid, seed)


def _candidate_grids(seed: int, grid_path: str | None) -> dict[str, list[ForecasterSpec]]:
    """Candidates per kind: the default grids, each replaced by its --grid section."""
    defaults = dict(default_model_grids(seed))
    grids = {kind: defaults[name] for kind, name in DISPLAY_NAMES.items()}
    if grid_path:
        grids.update(_grid_overrides(grid_path, seed))
    return grids


def _write_sidecar(path: Path, command: str, config: dict, wall_time_s: float) -> None:
    doc = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "package_version": __version__,
        "wall_time_s": round(wall_time_s, 3),
        "effective_config": config,
    }
    write_output(f"{path}.meta.json", json.dumps(doc, indent=2) + "\n")


def _out_dir(effective: dict) -> Path:
    out = Path(effective.get("out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file stands at the path or above it, or no permission
        raise UsageError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_validate(args) -> int:
    text = _read_text(args.input)
    ds = parse_csv(text, allow_corrections=args.allow_corrections)
    print(f"{len(ds)} records, {ds.start_date.isoformat()}..{ds.end_date.isoformat()}")
    for name in TARGETS:
        status = "non-decreasing" if ds.column_monotone(name) else "has corrections"
        print(f"{name}: {status}")
    return EXIT_OK


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    effective = _resolve(args, "target", "seed", "test_fraction", "out")
    effective.update({"input": args.input, "model": args.model, "grid": args.grid})
    ds = parse_csv(_read_text(args.input), allow_corrections=args.allow_corrections)
    s = extract_series(ds, effective["target"])
    candidates = _candidate_grids(effective["seed"], args.grid)[args.model]
    protocol = EvalProtocol(test_fraction=effective["test_fraction"])
    if len(candidates) == 1:
        chosen, model, validation_mse = candidates[0], fit_normalized(candidates[0], s), None
    else:
        chosen, model, validation_mse = grid_search(candidates, s, protocol)
    model = replace(model, target=effective["target"])
    normalized = scale(model.scaler, s)
    actual, predicted = insample_predictions(model, normalized)
    out = _out_dir(effective)
    path = out / f"model_{effective['target']}_{args.model}.json"
    save_model(model, path)
    print(f"model: {args.model}")
    print(f"hyperparameters: {json.dumps(asdict(chosen.config), sort_keys=True)}")
    print(f"seed: {chosen.seed}")
    if validation_mse is not None:
        print(f"validation mse: {validation_mse:.6g}")
    print(f"train mse: {mse(actual, predicted):.6g}")
    print(f"train r2: {fit_score(actual, predicted):.6g}")
    print(f"wrote {path}")
    _write_sidecar(path, "fit", effective, time.perf_counter() - t0)
    return EXIT_OK


def cmd_forecast(args) -> int:
    t0 = time.perf_counter()
    effective = _resolve(args, "horizon", "out")
    effective["model_files"] = list(args.model_files)
    horizon = effective["horizon"]
    rows = []
    for model_path in args.model_files:
        model = load_model(model_path)
        if model.target is None or model.train_end_date is None:
            raise ModelFileError(
                f"model file {model_path} lacks target/date metadata; refit it via the CLI"
            )
        if (date.max - model.train_end_date).days < horizon:
            raise UsageError(f"--horizon {horizon} ends after {date.max} for {model_path}")
        values = model.scaler.inverse(forecast(model, horizon))
        label = DISPLAY_NAMES[model.spec.kind].lower().replace(" ", "")
        days = [(model.train_end_date + timedelta(days=k + 1)).isoformat() for k in range(horizon)]
        floored = [day for day, value in zip(days, values) if value < 0.0]
        if floored:
            logger.warning(
                "floored %d negative %s forecasts to 0 for %s, the first on %s",
                len(floored),
                model.target,
                model_path,
                floored[0],
            )
        for day, value in zip(days, values):
            rows.append((day, model.target, label, 0.0 if value < 0.0 else float(value)))
    out = _out_dir(effective)
    path = out / "forecast.csv"
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["date", "target", "model", "point_forecast"])
    for day, target, label, value in rows:
        writer.writerow([day, target, label, f"{value:.6f}"])
    write_output(path, text.getvalue())
    print(f"wrote {path} ({len(rows)} rows)")
    _write_sidecar(path, "forecast", effective, time.perf_counter() - t0)
    return EXIT_OK


def cmd_backtest(args) -> int:
    t0 = time.perf_counter()
    effective = _resolve(args, "target", "seed", "test_fraction", "out")
    effective.update({"input": args.input, "grid": args.grid, "models": args.models})
    ds = parse_csv(_read_text(args.input), allow_corrections=args.allow_corrections)
    s = extract_series(ds, effective["target"])
    kinds = list(KINDS) if not args.models else [
        k.strip() for k in args.models.split(",")
    ]
    unknown = [k for k in kinds if k not in KINDS]
    if unknown:
        raise UsageError(f"unknown model kinds: {', '.join(unknown)}")
    # keep the standard presentation order
    kinds = [k for k in DISPLAY_NAMES if k in kinds]
    grids = _candidate_grids(effective["seed"], args.grid)
    entries = [(DISPLAY_NAMES[k], grids[k]) for k in kinds]
    protocol = EvalProtocol(test_fraction=effective["test_fraction"])
    report = compare_models(entries, s, protocol, target=effective["target"])
    print(render_table(report))
    out = _out_dir(effective)
    path = out / "backtest_report.json"
    write_output(path, json.dumps(report.to_dict(), indent=2) + "\n")
    print(f"wrote {path}")
    sidecar_config = dict(effective)
    sidecar_config["wall_times_s"] = {
        row.name: round(row.wall_time_s, 3) for row in report.rows
    }
    _write_sidecar(path, "backtest", sidecar_config, time.perf_counter() - t0)
    if all(row.error is not None for row in report.rows):
        raise ExhaustedGridError("every model failed; see the report for reasons")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    t0 = time.perf_counter()
    effective = _resolve(args, "out")
    effective.update({"input": args.input, "forecasts": list(args.forecasts)})
    ds = parse_csv(_read_text(args.input), allow_corrections=args.allow_corrections)
    blocks = []
    targets = set()
    for fc_path in args.forecasts:
        text = _read_text(fc_path)
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"forecast file {fc_path} is empty") from None
        if header != ["date", "target", "model", "point_forecast"]:
            raise UsageError(f"{fc_path} is not a forecast CSV (bad header)")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ParseError(f"bad forecast row in {fc_path}", line=lineno)
            day, target, model_label, value = row
            try:
                value = float(value)
            except ValueError:
                raise ParseError(
                    f"non-numeric point_forecast {value!r} in {fc_path}", line=lineno
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite point_forecast {row[3]!r} in {fc_path}", line=lineno)
            targets.add(target)
            blocks.append((day, model_label, value))
    if len(targets) != 1:
        raise UsageError(
            f"forecast files must share one target, found: {sorted(targets) or 'none'}"
        )
    target = targets.pop()
    if target not in TARGETS:
        raise UsageError(f"unknown target {target!r} in forecast files")
    observed = extract_series(ds, target)
    out = _out_dir(effective)
    path = out / f"plot_{target}.csv"
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["date", "series_name", "value"])
    for i, value in enumerate(observed.values):
        writer.writerow([observed.date_at(i).isoformat(), "observed", f"{value:.6f}"])
    for day, model_label, value in blocks:
        writer.writerow([day, model_label, f"{value:.6f}"])
    write_output(path, text.getvalue())
    print(f"wrote {path}")
    _write_sidecar(path, "plotdata", effective, time.perf_counter() - t0)
    return EXIT_OK


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handlers = {
            "validate": cmd_validate,
            "fit": cmd_fit,
            "forecast": cmd_forecast,
            "backtest": cmd_backtest,
            "plotdata": cmd_plotdata,
        }
        return handlers[args.command](args)
    except EpiForecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
