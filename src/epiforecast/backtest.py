"""Shared evaluation harness: holdout and rolling-origin backtests, generic
grid search over forecaster specs, and multi-model comparison reports.

Scalers are fitted on training data only, and hyperparameter selection only
ever sees a validation tail carved from the training split; test indices stay
untouched until final scoring.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import date
from typing import Any, NamedTuple, Sequence

from .data import Series, train_test_split
from .errors import ContractError, EpiForecastError, ExhaustedGridError, UndefinedMetricError
from .forecasters import FittedModel, ForecasterSpec, fit, forecast, insample_predictions
from .forecasters.base import CONFIG_TYPES
from .forecasters.arima import arima_orders
from .metrics import fit_score, mape, mase, mse, rmse
from .transform import fit_scaler, scale

logger = logging.getLogger(__name__)

REPORT_SCHEMA_VERSION = 1

PROTOCOL_NOTES = {
    "holdout": (
        "hyperparameters selected on a validation tail of the training split; "
        "test data is never used for fitting or selection"
    ),
    "rolling_origin": (
        "hyperparameters selected on rolling-origin folds of the training split "
        "(Tashman 2000): origins from initial_train by step, each scoring the next "
        "horizon points; test data is never used for fitting or selection"
    ),
}

# Published benchmark scores for this dataset family (normalized-scale MSE and
# R^2). The seeds and exact hyperparameters behind them are unpublished, so
# they are shipped as reference values, not reproduction targets; the asserted
# target is the test-MSE ordering (tuned LSTM below tuned ARIMA and AutoReg).
REFERENCE_SCORES = {
    "Prophet": {"train_score": 0.76, "test_score": 0.81, "mse_train": 0.051, "mse_test": 0.052},
    "LSTM": {"train_score": 0.86, "test_score": 0.85, "mse_train": 0.018, "mse_test": 0.011},
    "AUTO REG": {"train_score": 0.82, "test_score": 0.81, "mse_train": 0.037, "mse_test": 0.091},
    "ARIMA": {"train_score": 0.75, "test_score": 0.69, "mse_train": 0.056, "mse_test": 0.029},
}

DISPLAY_NAMES = {
    "additive": "Prophet",
    "lstm": "LSTM",
    "autoreg": "AUTO REG",
    "arima": "ARIMA",
    "mlp": "ANN",
}


@dataclass(frozen=True)
class EvalProtocol:
    """How to score a spec: chronological holdout or rolling origins.

    test_fraction drives holdout splits; initial_train/step/horizon drive the
    rolling variant. folds decides which folds of a series get scored.
    """

    kind: str = "holdout"
    test_fraction: float = 0.2
    initial_train: int | None = None
    step: int = 1
    horizon: int = 1

    def __post_init__(self):
        if self.kind not in ("holdout", "rolling_origin"):
            raise ContractError(f"unknown protocol kind {self.kind!r}")
        if self.step < 1 or self.horizon < 1:
            raise ContractError("step and horizon must be >= 1")
        if self.kind == "holdout" and (self.initial_train, self.step, self.horizon) != (None, 1, 1):
            raise ContractError("a holdout protocol takes no initial_train, step or horizon")

    def folds(self, s: Series) -> list[tuple[int, int]]:
        """The (origin, horizon) pairs scored on s: a holdout is the one fold at
        the end of its fit part, a rolling protocol every origin from initial_train."""
        if self.kind == "holdout":
            fit_part, val = train_test_split(s, self.test_fraction)
            return [(len(fit_part), len(val))]
        n, first = len(s), self.initial_train
        if first is None:
            raise ContractError("a rolling_origin protocol requires initial_train")
        if first < 2:
            raise ContractError("initial_train must be >= 2")
        if n - first - self.horizon < 0:
            raise ContractError(
                f"series of length {n} has no room for one fold "
                f"(initial_train {first}, horizon {self.horizon})"
            )
        return [(origin, self.horizon) for origin in range(first, n - self.horizon + 1, self.step)]


class HoldoutScores(NamedTuple):
    train_mse: float
    test_mse: float
    train_score: float
    test_score: float


class FoldScore(NamedTuple):
    origin: int
    mse: float


def fit_normalized(spec: ForecasterSpec, train: Series) -> FittedModel:
    """Fit the scaler on train, fit the model on the scaled series."""
    scaler = fit_scaler(train)
    model = fit(spec, scale(scaler, train))
    return replace(model, scaler=scaler)


def holdout_eval(
    spec: ForecasterSpec, s: Series, protocol: EvalProtocol | None = None
) -> HoldoutScores:
    """Chronological split, fit on train, score both frames on the normalized scale."""
    protocol = protocol or EvalProtocol()
    train, test = train_test_split(s, protocol.test_fraction)
    row = ReportRow(name=spec.kind)
    _score(row, spec, fit_normalized(spec, train), train, test)
    return HoldoutScores(row.mse_train, row.mse_test, row.r2_train, row.r2_test)


def _fold_mse(spec: ForecasterSpec, s: Series, origin: int, horizon: int) -> float:
    """Fit on s[:origin], score the forecast of the next horizon values."""
    model = fit_normalized(spec, Series(s.values[:origin], s.start_date, s.kind, s.scale_state))
    actual = model.scaler.transform(s.values[origin : origin + horizon])
    return mse(actual, forecast(model, horizon))


def rolling_origin_eval(
    spec: ForecasterSpec, s: Series, protocol: EvalProtocol
) -> list[FoldScore]:
    """Refit at each of the protocol's origins and score each fold's forecast."""
    return [FoldScore(o, _fold_mse(spec, s, o, h)) for o, h in protocol.folds(s)]


def grid_search(
    candidates: Sequence[ForecasterSpec], train: Series, protocol: EvalProtocol | None = None
) -> tuple[ForecasterSpec, FittedModel, float]:
    """Score each candidate by its mean MSE over the protocol's folds of train;
    refit the winner on all of train. Ties break toward the earlier candidate
    (strict improvement only); failed candidates are logged and skipped."""
    if not candidates:
        raise ContractError("grid_search needs at least one candidate")
    folds = (protocol or EvalProtocol()).folds(train)
    best_spec = best_score = None
    failures = []
    for spec in candidates:
        try:
            score = sum(_fold_mse(spec, train, o, h) for o, h in folds) / len(folds)
        except Exception as exc:  # one failing candidate must not end the search
            reason = _failure(exc, f"grid search skipping {spec.kind} {spec.config}")
            failures.append((spec, reason))
            continue
        if best_score is None or score < best_score:
            best_score = score
            best_spec = spec
    if best_spec is None:
        raise ExhaustedGridError(
            f"all {len(failures)} grid candidates failed; last: {failures[-1][1]}"
        )
    return best_spec, fit_normalized(best_spec, train), best_score


def _failure(exc: Exception, context: str) -> str:
    """Logs a failure and returns its reason: a package error's message as is,
    any other exception as "TypeName: message", logged with its traceback."""
    foreign = not isinstance(exc, EpiForecastError)
    reason = f"{type(exc).__name__}: {exc}" if foreign else str(exc)
    logger.warning("%s: %s", context, reason, exc_info=foreign)
    return reason


@dataclass
class ReportRow:
    name: str
    kind: str | None = None
    hyperparameters: dict[str, Any] | None = None
    seed: int | None = None
    mse_train: float | None = None
    mse_test: float | None = None
    r2_train: float | None = None
    r2_test: float | None = None
    rmse_test: float | None = None
    mape_test: float | None = None
    mase_test: float | None = None
    validation_mse: float | None = None
    notes: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0
    error: str | None = None

    def metrics_dict(self) -> dict[str, float | None]:
        return {
            "mse_train": self.mse_train,
            "mse_test": self.mse_test,
            "r2_train": self.r2_train,
            "r2_test": self.r2_test,
            "rmse_test": self.rmse_test,
            "mape_test": self.mape_test,
            "mase_test": self.mase_test,
        }


@dataclass
class BacktestReport:
    rows: list[ReportRow]
    n_train: int
    n_test: int
    train_start: date
    test_start: date
    test_end: date
    target: str | None = None
    protocol: EvalProtocol = field(default_factory=EvalProtocol)

    def to_dict(self, include_wall_times: bool = False) -> dict:
        """Key-value tree for the report file. Wall times stay out by default
        so reruns are byte identical; sidecars carry them instead."""
        p = self.protocol
        protocol = {"kind": p.kind, "test_fraction": p.test_fraction}
        if p.kind == "rolling_origin":
            protocol.update(initial_train=p.initial_train, step=p.step, horizon=p.horizon)
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "target": self.target,
            "split": {
                "n_train": self.n_train,
                "n_test": self.n_test,
                "train_start": self.train_start.isoformat(),
                "test_start": self.test_start.isoformat(),
                "test_end": self.test_end.isoformat(),
            },
            "protocol": protocol,
            "protocol_note": PROTOCOL_NOTES[p.kind],
            "models": [],
            "reference": {
                "scores": REFERENCE_SCORES,
                "note": (
                    "published benchmark values for this dataset family; "
                    "not bit-reproducible, shipped for orientation only"
                ),
            },
        }
        for row in self.rows:
            entry: dict[str, Any] = {"name": row.name}
            if row.error is not None:
                entry["error"] = row.error
            else:
                entry.update(
                    {
                        "kind": row.kind,
                        "hyperparameters": row.hyperparameters,
                        "seed": row.seed,
                        "metrics": row.metrics_dict(),
                        "validation_mse": row.validation_mse,
                        "notes": row.notes,
                    }
                )
            if include_wall_times:
                entry["wall_time_s"] = row.wall_time_s
            doc["models"].append(entry)
        return doc


def compare_models(
    entries: Sequence[tuple[str, Sequence[ForecasterSpec]]],
    s: Series,
    protocol: EvalProtocol | None = None,
    target: str | None = None,
) -> BacktestReport:
    """Evaluate every entry on one shared chronological split.

    An entry is (name, candidate specs); multiple candidates trigger a grid
    search on the training split. A failing entry becomes an error row; the
    comparison itself never aborts.
    """
    protocol = protocol or EvalProtocol()
    train, test = train_test_split(s, protocol.test_fraction)
    rows = []
    for name, specs in entries:
        t0 = time.perf_counter()
        row = ReportRow(name=name)
        try:
            if len(specs) == 0:
                raise ContractError(f"entry {name!r} has no candidate specs")
            if len(specs) == 1:
                chosen, model = specs[0], fit_normalized(specs[0], train)
            else:
                chosen, model, row.validation_mse = grid_search(specs, train, protocol)
            _score(row, chosen, model, train, test)
        except Exception as exc:  # one failing family must not end the comparison
            row.error = _failure(exc, f"model {name} failed")
        row.wall_time_s = time.perf_counter() - t0
        rows.append(row)
    return BacktestReport(
        rows=rows,
        n_train=len(train),
        n_test=len(test),
        train_start=train.start_date,
        test_start=test.start_date,
        test_end=test.end_date,
        target=target,
        protocol=protocol,
    )


def _score(
    row: ReportRow, spec: ForecasterSpec, model: FittedModel, train: Series, test: Series
) -> None:
    """Fill row's spec fields, metrics and notes: the model's in-sample fit on
    train and its forecast of test, both on the model's normalized scale."""
    train_n = scale(model.scaler, train)
    test_n = scale(model.scaler, test)
    fc = forecast(model, len(test_n))
    actual, predicted = insample_predictions(model, train_n)
    row.kind = spec.kind
    row.hyperparameters = asdict(spec.config)
    row.seed = spec.seed
    row.mse_train = mse(actual, predicted)
    row.mse_test = mse(test_n.values, fc)
    row.r2_train = fit_score(actual, predicted)
    row.r2_test = fit_score(test_n.values, fc)
    row.rmse_test = rmse(test_n.values, fc)
    try:
        row.mape_test = mape(test_n.values, fc)
    except UndefinedMetricError as exc:
        row.notes.append(f"mape_test undefined: {exc}")
    try:
        row.mase_test = mase(test_n.values, fc, train_n.values)
    except UndefinedMetricError as exc:
        row.notes.append(f"mase_test undefined: {exc}")


def render_table(report: BacktestReport) -> str:
    """Fixed four-row comparison table: models across, scores down."""
    metric_rows = (
        ("Train Score", "r2_train"),
        ("Test Score", "r2_test"),
        ("MSE Train", "mse_train"),
        ("MSE Test", "mse_test"),
    )
    names = [row.name for row in report.rows]
    width = max(10, *(len(n) + 2 for n in names)) if names else 10
    label_w = max(len(label) for label, _ in metric_rows)
    lines = [" " * label_w + "".join(n.rjust(width) for n in names)]
    for label, attr in metric_rows:
        cells = []
        for row in report.rows:
            if row.error is not None:
                cells.append("error".rjust(width))
            else:
                value = getattr(row, attr)
                cells.append(f"{value:.4f}".rjust(width))
        lines.append(label.ljust(label_w) + "".join(cells))
    for row in report.rows:
        if row.error is not None:
            lines.append(f"{row.name}: error: {row.error}")
    return "\n".join(lines)


# Default candidate grids. Sizes are chosen so a full five-family comparison
# with ten LSTM seeds stays inside a laptop-scale time budget; all of this is
# plain configuration, overridable through the CLI grid file.

AUTOREG_DEFAULT_P = (1, 2, 3, 7, 14)
ARIMA_DEFAULT_P_MAX = 5
ARIMA_DEFAULT_Q_MAX = 5
ARIMA_DEFAULT_D = (0, 1)
LSTM_DEFAULT_GRID = {
    "num_units": (16,),
    "window": (14,),
    "epochs": (1000,),
    "learning_rate": (0.1, 0.3),
    "batch_size": (32,),
    "layers": (2,),
}
MLP_DEFAULT_GRID = {
    "window": (14,),
    "hidden_units": (8, 16),
    "epochs": (8000,),
    "learning_rate": (0.05, 0.1),
    "seasonal": (True,),
}
ADDITIVE_DEFAULT_GRID = {
    "n_changepoints": (5, 10),
    "changepoint_penalty": (0.1, 1.0, 10.0),
    "fourier_order": (3,),
    "period": (7.0,),
}
# ARIMA's grid holds one p_max, one q_max and the d values; see expand_grid
DEFAULT_GRIDS = {
    "additive": ADDITIVE_DEFAULT_GRID,
    "lstm": LSTM_DEFAULT_GRID,
    "autoreg": {"p": AUTOREG_DEFAULT_P},
    "arima": {
        "p_max": (ARIMA_DEFAULT_P_MAX,), "q_max": (ARIMA_DEFAULT_Q_MAX,), "d": ARIMA_DEFAULT_D
    },
    "mlp": MLP_DEFAULT_GRID,
}


def expand_grid(kind: str, grid: dict, seed: int) -> list[ForecasterSpec]:
    """One spec per combination of the grid's value lists, last key fastest; an
    ARIMA grid gives arima_orders(p_max, q_max, d), simplest order first."""
    if kind == "arima":
        (p_max,), (q_max,) = grid["p_max"], grid["q_max"]
        configs = arima_orders(p_max, q_max, grid["d"])
    else:
        keys = list(grid)
        combos = itertools.product(*(grid[k] for k in keys))
        configs = [CONFIG_TYPES[kind](**dict(zip(keys, combo))) for combo in combos]
    return [ForecasterSpec(kind, config, seed) for config in configs]


def arima_default_candidates(seed: int = 0) -> list[ForecasterSpec]:
    """The default (p, d, q) orders, simplest first."""
    return expand_grid("arima", DEFAULT_GRIDS["arima"], seed)


def default_model_grids(seed: int = 0) -> list[tuple[str, list[ForecasterSpec]]]:
    """The five standard entries for a full comparison run, in DISPLAY_NAMES order."""
    return [(name, expand_grid(k, DEFAULT_GRIDS[k], seed)) for k, name in DISPLAY_NAMES.items()]
