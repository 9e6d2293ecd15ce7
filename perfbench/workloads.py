"""The three workloads: their inputs, their set-up and their requests.

Every request is one in-process call of ``epiforecast.cli.main`` with the
arguments a user would type, issued by one caller in a closed loop: the next
request starts when the previous one has returned.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

TARGETS = ("confirmed", "deaths", "recovered")
KINDS = ("additive", "autoreg", "arima", "lstm", "mlp")
DEFAULT_SEED = 0

# Epochs per LSTM fit in lstm_tune: the default grid's shape with 1000 epochs
# cut so one backtest (two candidates plus the refit) takes about a second.
LSTM_TUNE_EPOCHS = 10

LSTM_TUNE_GRID = f"""[lstm]
num_units = 16
window = 14
epochs = {LSTM_TUNE_EPOCHS}
learning_rate = 0.1, 0.3
batch_size = 32
layers = 2
"""

# Small grids for the fifteen served models. The LSTM keeps the default
# shape (16 units, window 14, 2 layers), which sets its forecast cost.
SERVE_GRID = """[lstm]
num_units = 16
window = 14
epochs = 10
learning_rate = 0.1
batch_size = 32
layers = 2

[mlp]
window = 14
hidden_units = 8, 16
epochs = 300
learning_rate = 0.1
seasonal = true

[additive]
n_changepoints = 5, 10
changepoint_penalty = 1.0

[autoreg]
p = 1, 7, 14

[arima]
p_max = 2
q_max = 1
d = 0, 1
"""

SERVE_HORIZON = 180
SERVE_FULL_HORIZON_SHARE = 0.75


def synthetic_csv(bundled: str, seed: int) -> str:
    """A dataset of the bundled one's dates and shape, drawn from ``seed``.

    Each cumulative column keeps its daily increments up to a slowly varying
    log-normal factor (AR(1) with coefficient 0.9, sd 0.1), so the series stay
    non-decreasing epidemic curves of the same length and scale.
    """
    rows = list(csv.reader(io.StringIO(bundled)))
    header, body = rows[0], rows[1:]
    rng = np.random.default_rng([seed, 1])
    columns = []
    for j in range(1, len(header)):
        cumulative = np.array([float(r[j]) for r in body])
        increments = np.diff(cumulative, prepend=0.0)
        shocks = rng.standard_normal(cumulative.size) * math.sqrt(1 - 0.9**2)
        factor = np.empty(cumulative.size)
        level = 0.0
        for t, shock in enumerate(shocks):
            level = 0.9 * level + shock
            factor[t] = math.exp(0.1 * level)
        columns.append(np.cumsum(np.round(increments * factor)).astype(np.int64))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for i, row in enumerate(body):
        writer.writerow([row[0], *(int(c[i]) for c in columns)])
    return out.getvalue()


class Workload:
    """One workload. ``prepare`` writes its input files (not timed),
    ``setup`` is the program's timed set-up, ``after_setup`` records what the
    requests are checked against (not timed), ``requests`` yields the argument
    lists of the timed loop and ``check`` validates one request's output."""

    name = ""
    synthetic = True  # non-default seeds run on synthetic_csv(bundled, seed)
    setup_repeats = 15  # setup_s is the median of this many set-ups
    reference_keys: tuple[str, ...] = ()  # details the default seed must reproduce

    def __init__(self, work: Path, seed: int, accounting, expected: dict | None):
        self.work = work
        self.seed = seed
        self.accounting = accounting
        # The default seed's digests from BASELINE.json, or None where they
        # do not apply (see run.default_seed_reference).
        self.expected = None if expected is None else {k: expected.get(k) for k in self.reference_keys}
        self.rng = np.random.default_rng([seed, 2])
        self.input = work / "input.csv"
        self.out = work / "out"

    def prepare(self, bundled: str) -> None:
        synthetic = self.synthetic and self.seed != DEFAULT_SEED
        text = synthetic_csv(bundled, self.seed) if synthetic else bundled
        self.input.write_text(text)
        self.last_date = date.fromisoformat(text.rstrip("\n").rsplit("\n", 1)[1].split(",")[0])

    def setup(self, main) -> list[str]:
        """Runs the set-up; returns the problems found in its outputs."""
        problems = []
        if main(["validate", "--input", str(self.input)]) != 0:
            problems.append("validate failed")
        return problems

    def after_setup(self, main) -> list[str]:
        return []

    def requests(self):
        raise NotImplementedError

    def check(self, args, rc: int) -> list[str]:
        raise NotImplementedError

    def details(self) -> dict:
        return {}

    def against_reference(self, state: dict) -> list[str]:
        if self.expected is None:
            return []
        return [
            f"{key} differs from the default seed's in BASELINE.json"
            for key, value in self.expected.items()
            if state.get(key) != value
        ]


class TuneWorkload(Workload):
    """Repeated ``backtest`` commands on the deaths target. Every pass must
    report a result for each requested family and no error row, write a
    byte-identical report, count the same candidates and fit bit-identical
    ARIMA parameters; on the default seed all of these must also match
    BASELINE.json."""

    models = ""
    grid = None
    reference_keys = ("report_sha256", "arima_params_sha256", "candidates")

    def __init__(self, work, seed, accounting, expected):
        super().__init__(work, seed, accounting, expected)
        self.first = None
        self.last_report = None

    def prepare(self, bundled):
        super().prepare(bundled)
        if self.grid:
            (self.work / "grid.ini").write_text(self.grid)

    def requests(self):
        args = [
            "backtest", "--input", str(self.input), "--target", "deaths",
            "--models", self.models, "--seed", str(self.seed), "--out", str(self.out),
        ]
        if self.grid:
            args += ["--grid", str(self.work / "grid.ini")]
        while True:
            self.accounting.reset()
            yield args

    def check(self, args, rc):
        if rc != 0:
            return [f"backtest exited {rc}"]
        report = (self.out / "backtest_report.json").read_bytes()
        doc = json.loads(report)
        rows = doc["models"]
        problems = [f"{m['name']} failed: {m['error']}" for m in rows if "error" in m]
        kinds = sorted(m["kind"] for m in rows if "kind" in m)
        if kinds != sorted(self.models.split(",")):
            problems.append(f"report has results for {kinds}, not for {self.models}")
        state = {"report_sha256": hashlib.sha256(report).hexdigest(), **self.accounting.snapshot()}
        if self.first is None:
            self.first = state
            self.last_report = doc
            return problems + self.against_reference(state)
        return problems + [
            f"{key} differs from the first pass" for key in state if state[key] != self.first[key]
        ]

    def details(self) -> dict:
        doc = dict(self.first or {})
        if self.last_report:
            doc["chosen"] = {
                m["kind"]: m["hyperparameters"] for m in self.last_report["models"] if "kind" in m
            }
            doc["test_mse"] = {
                m["kind"]: m["metrics"]["mse_test"] for m in self.last_report["models"] if "kind" in m
            }
        return doc


class LstmTune(TuneWorkload):
    name = "lstm_tune"
    models = "lstm"
    grid = LSTM_TUNE_GRID


class ClassicTune(TuneWorkload):
    name = "classic_tune"
    models = "additive,autoreg,arima,mlp"
    # ARIMA's Levenberg-Marquardt iteration counts, hence its cost, change
    # chaotically with the data (5.7 s to 9.3 s for 1 % noise on the series),
    # so this workload always runs on the bundled series; the seed still
    # picks the MLP seeds.
    synthetic = False


class ForecastServe(Workload):
    """Forecast requests over the fifteen saved models. After the set-ups
    each model's horizon-180 forecast is written once; every request's CSV
    must be that forecast's first ``horizon`` rows (the forecasts are
    recursive, so a shorter horizon is a prefix). On the default seed the
    model files and those forecasts must also match BASELINE.json."""

    name = "forecast_serve"
    setup_repeats = 3
    reference_keys = ("models_sha256", "forecasts_sha256")

    def __init__(self, work, seed, accounting, expected):
        super().__init__(work, seed, accounting, expected)
        self.models_sha256 = None
        self.forecasts_sha256 = None
        self.reference = {}  # model file -> rows of its horizon-180 forecast

    def prepare(self, bundled):
        super().prepare(bundled)
        (self.work / "grid.ini").write_text(SERVE_GRID)
        self.models_dir = self.work / "models"
        self.files = {
            (t, k): self.models_dir / f"model_{t}_{k}.json" for t in TARGETS for k in KINDS
        }

    def setup(self, main):
        problems = super().setup(main)
        for target, kind in self.files:
            rc = main([
                "fit", "--input", str(self.input), "--target", target, "--model", kind,
                "--grid", str(self.work / "grid.ini"), "--seed", str(self.seed),
                "--out", str(self.models_dir),
            ])
            if rc != 0:
                problems.append(f"fit {target} {kind} exited {rc}")
        digest = hashlib.sha256()
        for path in self.files.values():
            digest.update(path.read_bytes() if path.exists() else b"missing")
        if self.models_sha256 not in (None, digest.hexdigest()):
            problems.append("model files differ between set-ups")
        self.models_sha256 = digest.hexdigest()
        return problems

    def after_setup(self, main):
        problems = []
        digest = hashlib.sha256()
        for (target, _kind), path in self.files.items():
            out = self.work / "reference"
            rc = main([
                "forecast", "--model-file", str(path),
                "--horizon", str(SERVE_HORIZON), "--out", str(out),
            ])
            if rc != 0:
                problems.append(f"reference forecast of {path.name} exited {rc}")
                continue
            text = (out / "forecast.csv").read_bytes()
            digest.update(text)
            rows = list(csv.reader(io.StringIO(text.decode())))
            problems.extend(f"{path.name}: {p}" for p in self.validate(rows, SERVE_HORIZON, target))
            self.reference[path] = rows
        self.forecasts_sha256 = digest.hexdigest()
        return problems + self.against_reference(self.details())

    def validate(self, rows, horizon, target) -> list[str]:
        """A forecast CSV's header, row count, dates, labels and values."""
        if rows[0] != ["date", "target", "model", "point_forecast"]:
            return ["bad forecast header"]
        rows = rows[1:]
        problems = []
        if len(rows) != horizon:
            problems.append(f"{len(rows)} rows for horizon {horizon}")
        expected = [(self.last_date + timedelta(days=k + 1)).isoformat() for k in range(len(rows))]
        if [r[0] for r in rows] != expected:
            problems.append("forecast dates are not the contiguous days after the data")
        if any(r[1] != target for r in rows) or len({r[2] for r in rows}) != 1:
            problems.append("forecast rows mix targets or models")
        values = [float(r[3]) for r in rows]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            problems.append("forecast has a negative or non-finite value")
        return problems

    def requests(self):
        keys = list(self.files)
        while True:
            for i in self.rng.permutation(len(keys)):
                target, kind = keys[i]
                if self.rng.random() < SERVE_FULL_HORIZON_SHARE:
                    horizon = SERVE_HORIZON
                else:
                    horizon = int(self.rng.integers(1, SERVE_HORIZON))
                yield [
                    "forecast", "--model-file", str(self.files[target, kind]),
                    "--horizon", str(horizon), "--out", str(self.out),
                ]

    def check(self, args, rc):
        if rc != 0:
            return [f"forecast exited {rc}"]
        horizon = int(args[args.index("--horizon") + 1])
        reference = self.reference.get(Path(args[args.index("--model-file") + 1]))
        with open(self.out / "forecast.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if reference is None or rows != reference[: horizon + 1]:
            return [f"forecast differs from the first {horizon} rows of the model's reference"]
        return []

    def details(self) -> dict:
        return {"models_sha256": self.models_sha256, "forecasts_sha256": self.forecasts_sha256}


WORKLOADS = {w.name: w for w in (LstmTune, ClassicTune, ForecastServe)}
