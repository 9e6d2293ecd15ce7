"""Command-line entry points: validate, fit, forecast, backtest, plotdata.

Exit codes: 0 success, 1 usage error, 2 data validation error, 3 model or
fitting error. Options resolve as flags > config file > defaults, and every
output file gets a .meta.json sidecar holding the effective configuration,
timestamps and wall times, so the outputs themselves stay byte-identical
across reruns.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import logging
import sys
import time
from dataclasses import MISSING, asdict, fields, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .backtest import (
    DISPLAY_NAMES,
    EvalProtocol,
    compare_models,
    default_model_grids,
    expand_grid,
    grid_search,
    render_table,
)
from .data import extract_series, parse_csv, train_test_split
from .errors import (
    ContractError,
    DegenerateScaleError,
    DivergenceError,
    EpiForecastError,
    ExhaustedGridError,
    ModelFileError,
    ParseError,
    SingularFitError,
    StructuralError,
    UndefinedMetricError,
    ValidationError,
)
from .forecasters import (
    KINDS,
    ForecasterSpec,
    fit,
    forecast,
    insample_predictions,
    load_model,
    save_model,
)
from .forecasters.arima import arima_orders
from .forecasters.base import CONFIG_TYPES
from .metrics import fit_score, mse
from .transform import fit_scaler, scale

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3

TARGET_CHOICES = ("confirmed", "deaths", "recovered")

DEFAULTS = {
    "target": "confirmed",
    "horizon": 180,
    "seed": 0,
    "test_fraction": 0.2,
    "out": ".",
}


class UsageError(Exception):
    pass


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
    p.add_argument("--target", choices=TARGET_CHOICES)
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
    p.add_argument("--target", choices=TARGET_CHOICES)
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
    if "target" in effective and effective["target"] not in TARGET_CHOICES:
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
    if kind == "arima":
        p_max = int(options.get("p_max", ["5"])[0])
        q_max = int(options.get("q_max", ["5"])[0])
        ds = [int(v) for v in options.get("d", ["0", "1"])]
        return [ForecasterSpec("arima", order, seed) for order in arima_orders(p_max, q_max, ds)]
    config_type = CONFIG_TYPES[kind]
    types = get_type_hints(config_type)
    unknown = set(options) - set(types)
    if unknown:
        raise UsageError(f"unknown fields {sorted(unknown)} in grid section [{kind}]")
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


def _candidates_for(kind: str, seed: int, grid_path: str | None) -> list[ForecasterSpec]:
    overrides = _grid_overrides(grid_path, seed) if grid_path else {}
    if kind in overrides:
        return overrides[kind]
    return dict(default_model_grids(seed))[DISPLAY_NAMES[kind]]


def _write_sidecar(path: Path, command: str, config: dict, wall_time_s: float) -> None:
    doc = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "package_version": __version__,
        "wall_time_s": round(wall_time_s, 3),
        "effective_config": config,
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(doc, indent=2) + "\n")


def _out_dir(effective: dict) -> Path:
    out = Path(effective.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(args) -> int:
    text = _read_text(args.input)
    ds = parse_csv(text, allow_corrections=args.allow_corrections)
    print(f"{len(ds)} records, {ds.start_date.isoformat()}..{ds.end_date.isoformat()}")
    for name in TARGET_CHOICES:
        status = "non-decreasing" if ds.column_monotone(name) else "has corrections"
        print(f"{name}: {status}")
    return EXIT_OK


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    effective = _resolve(args, "target", "seed", "test_fraction", "out")
    effective.update({"input": args.input, "model": args.model, "grid": args.grid})
    ds = parse_csv(_read_text(args.input), allow_corrections=args.allow_corrections)
    s = extract_series(ds, effective["target"])
    candidates = _candidates_for(args.model, effective["seed"], args.grid)
    protocol = EvalProtocol(test_fraction=effective["test_fraction"])
    if len(candidates) == 1:
        chosen = candidates[0]
        scaler = fit_scaler(s)
        model = fit(chosen, scale(scaler, s))
        model = replace(model, scaler=scaler, target=effective["target"])
        validation_mse = None
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
    if horizon < 1:
        raise UsageError("--horizon must be >= 1")
    rows = []
    for model_path in args.model_files:
        model = load_model(model_path)
        if model.target is None or model.train_end_date is None:
            raise ModelFileError(
                f"model file {model_path} lacks target/date metadata; refit it via the CLI"
            )
        values = model.scaler.inverse(forecast(model, horizon))
        label = DISPLAY_NAMES[model.spec.kind].lower().replace(" ", "")
        for k in range(horizon):
            day = model.train_end_date + timedelta(days=k + 1)
            value = float(values[k])
            if value < 0.0:
                logger.warning(
                    "floored negative %s forecast %.6f to 0 on %s",
                    model.target,
                    value,
                    day.isoformat(),
                )
                value = 0.0
            rows.append((day.isoformat(), model.target, label, value))
    out = _out_dir(effective)
    path = out / "forecast.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "target", "model", "point_forecast"])
        for day, target, label, value in rows:
            writer.writerow([day, target, label, f"{value:.6f}"])
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
    entries = [
        (DISPLAY_NAMES[k], _candidates_for(k, effective["seed"], args.grid)) for k in kinds
    ]
    protocol = EvalProtocol(test_fraction=effective["test_fraction"])
    report = compare_models(entries, s, protocol, target=effective["target"])
    print(render_table(report))
    out = _out_dir(effective)
    path = out / "backtest_report.json"
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
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
            targets.add(target)
            blocks.append((day, model_label, value))
    if len(targets) != 1:
        raise UsageError(
            f"forecast files must share one target, found: {sorted(targets) or 'none'}"
        )
    target = targets.pop()
    if target not in TARGET_CHOICES:
        raise UsageError(f"unknown target {target!r} in forecast files")
    observed = extract_series(ds, target)
    out = _out_dir(effective)
    path = out / f"plot_{target}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "series_name", "value"])
        for i, value in enumerate(observed.values):
            writer.writerow([observed.date_at(i).isoformat(), "observed", f"{value:.6f}"])
        for day, model_label, value in blocks:
            writer.writerow([day, model_label, f"{value:.6f}"])
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
    except (UsageError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, StructuralError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        DegenerateScaleError,
        SingularFitError,
        DivergenceError,
        ExhaustedGridError,
        ModelFileError,
        UndefinedMetricError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except EpiForecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
