"""Ingestion and validation of daily cumulative epidemic count data.

The on-disk format is a CSV with a header naming the columns Date, Confirmed,
Deaths and Recovered (case-insensitive, any order), one row per calendar day,
YYYY-MM-DD dates, integer counts. Rows must be consecutive days; cumulative
columns must be non-decreasing unless corrections are explicitly allowed.
csv_text writes the CSV outputs and read_forecast_csv reads forecast.csv back;
read_input and write_output are the package's one file reader and one writer.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError, StructuralError, ValidationError

logger = logging.getLogger(__name__)

TARGETS = ("confirmed", "deaths", "recovered")
FORECAST_HEADER = ("date", "target", "model", "point_forecast")

SERIES_KINDS = ("cumulative", "incident")
SCALE_STATES = ("raw", "normalized")

_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")  # a superset of what f"{v:.6f}" writes


@dataclass(frozen=True)
class Series:
    """A daily univariate series with its provenance tags.

    values are float64 and immutable. kind says whether the numbers are a
    running total ("cumulative") or per-day amounts ("incident"); scale_state
    says whether they are on the original count scale ("raw") or min-max
    normalized ("normalized"). Monotonicity of raw cumulative data is checked
    at parse time (it may be deliberately relaxed there), not here; use
    validate_series() to re-check the full invariant set.
    """

    values: np.ndarray
    start_date: date
    kind: str = "cumulative"
    scale_state: str = "raw"

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ContractError("series must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ContractError("series values must be finite")
        if self.kind not in SERIES_KINDS:
            raise ContractError(f"unknown series kind {self.kind!r}")
        if self.scale_state not in SCALE_STATES:
            raise ContractError(f"unknown scale state {self.scale_state!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=len(self) - 1)

    def date_at(self, i: int) -> date:
        return self.start_date + timedelta(days=i)


def _first_decrease(values) -> int | None:
    """The first index whose value is below the one before it, None if there
    is none. Compares neighbours, so no difference can overflow."""
    v = np.asarray(values)
    drops = np.flatnonzero(v[1:] < v[:-1])
    return int(drops[0]) + 1 if drops.size else None


def validate_series(s: Series) -> None:
    """Assert the full Series invariant set, including cumulative monotonicity."""
    if s.kind == "cumulative" and s.scale_state == "raw":
        i = _first_decrease(s.values)
        if i is not None:
            raise ValidationError(
                f"cumulative series decreases at {s.date_at(i).isoformat()}"
            )


@dataclass(frozen=True)
class EpidemicDataset:
    """Parsed daily records: parallel date and count columns.

    Construction does not re-run monotonicity validation; parse_csv owns that
    so the relaxed (--allow-corrections) path can carry raw reporting
    corrections through to cumulative_to_incident.
    """

    dates: tuple[date, ...]
    confirmed: np.ndarray
    deaths: np.ndarray
    recovered: np.ndarray
    corrections_allowed: bool = field(default=False, compare=False)

    def __post_init__(self):
        n = len(self.dates)
        if n == 0:
            raise StructuralError("dataset is empty")
        for name in TARGETS:
            col = np.asarray(getattr(self, name), dtype=np.int64)
            if col.shape != (n,):
                raise ContractError(f"column {name} must have one value per date")
            col = col.copy()
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def start_date(self) -> date:
        return self.dates[0]

    @property
    def end_date(self) -> date:
        return self.dates[-1]

    def column_monotone(self, target: str) -> bool:
        return _first_decrease(getattr(self, target)) is None


def _iso_date(raw: str) -> date:
    """The date of a YYYY-MM-DD string. Any other form is a ValueError, also the
    basic and week forms that date.fromisoformat reads since Python 3.11."""
    day = date.fromisoformat(raw)
    if day.isoformat() != raw:
        raise ValueError(f"{raw!r} is not a YYYY-MM-DD date")
    return day


def _normalize_header(cells: list[str]) -> dict[str, int]:
    names = [c.strip().lower() for c in cells]
    wanted = ("date",) + TARGETS
    positions = {}
    for name in wanted:
        if name not in names:
            raise ParseError(f"missing required column {name!r} in header", line=1)
        positions[name] = names.index(name)
    return positions


def parse_csv(text: str, *, allow_corrections: bool = False) -> EpidemicDataset:
    """Parse CSV text into a validated EpidemicDataset.

    Accepts LF or CRLF endings and any column order. Raises ParseError with a
    line number for malformed rows, StructuralError for date gaps, duplicates
    or an empty body, and ValidationError when a cumulative column decreases,
    unless allow_corrections suppresses the monotonicity check.
    """
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise StructuralError("dataset is empty")
    pos = _normalize_header(rows[0])

    dates: list[date] = []
    counts: dict[str, list[int]] = {t: [] for t in TARGETS}
    for lineno, cells in enumerate(rows[1:], start=2):
        if not cells or all(c.strip() == "" for c in cells):
            continue
        if len(cells) != len(rows[0]):
            raise ParseError(
                f"expected {len(rows[0])} fields, found {len(cells)}", line=lineno
            )
        raw_date = cells[pos["date"]].strip()
        try:
            d = _iso_date(raw_date)
        except ValueError:
            raise ParseError(f"unparseable date {raw_date!r}", line=lineno) from None
        dates.append(d)
        for name in TARGETS:  # a ParseError ends the whole parse, half-appended row and all
            raw = cells[pos[name]].strip()
            if not (raw.isascii() and raw.removeprefix("-").isdigit()):  # -?[0-9]+
                raise ParseError(f"unparseable count {raw!r} in column {name}", line=lineno)
            value = int(raw)
            if value >= 2**63:  # the dataset stores counts as int64
                raise ParseError(f"count {raw} in column {name} exceeds 2**63 - 1", line=lineno)
            counts[name].append(value)

    if not dates:
        raise StructuralError("dataset is empty")

    for i in range(1, len(dates)):
        step = (dates[i] - dates[i - 1]).days
        if step == 0:
            raise StructuralError(f"duplicate date {dates[i].isoformat()}")
        if step < 0:
            raise StructuralError(f"dates out of order at {dates[i].isoformat()}")
        if step > 1:
            missing = dates[i - 1] + timedelta(days=1)
            raise StructuralError(f"date gap: missing {missing.isoformat()}")

    for name in TARGETS:
        col = counts[name]
        for i, value in enumerate(col):
            if value < 0:
                raise ValidationError(
                    f"negative count {value} in column {name} on {dates[i].isoformat()}"
                )
        i = _first_decrease(col)
        if i is not None and not allow_corrections:
            raise ValidationError(f"cumulative column {name} decreases on {dates[i].isoformat()}")

    columns = {name: np.array(col, dtype=np.int64) for name, col in counts.items()}
    return EpidemicDataset(tuple(dates), **columns, corrections_allowed=allow_corrections)


def csv_text(header, rows) -> str:
    """The text of a CSV output as csv.writer's default dialect writes it, CRLF
    line ends included: one join of "%s,...,%.6f\\r\\n" lines, the last cell of a
    row tuple being its value ("%.6f" prints the digits of f"{v:.6f}"). No cell
    is quoted, and none needs to be: dates, TARGETS, the CLI's labels,
    "observed" and the headers hold no comma, quote or line break, the only
    characters csv.writer quotes for. A cell that holds one is refused with
    ContractError, found by counting those characters in the finished text."""
    line = "%s," * (len(header) - 1) + "%.6f\r\n"
    text = ",".join(header) + "\r\n" + "".join([line % row for row in rows])
    lines = len(rows) + 1
    counts = (text.count(","), text.count("\r"), text.count("\n"), text.count('"'))
    if counts != ((len(header) - 1) * lines, lines, lines, 0):
        raise ContractError("a CSV cell holds a comma, quote or line break; it would need quoting")
    return text


def read_forecast_csv(text: str, path, labels) -> list[tuple[str, str, str, float]]:
    """The (date, target, label, value) rows of the forecast CSV read from path.
    Only rows the writer writes pass: a YYYY-MM-DD date, a target in TARGETS, a
    label in labels and a finite value >= 0 written as -?[0-9]+(.[0-9]+)?; any
    other is a ParseError on its line."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ParseError(f"forecast file {path} is empty")
    if tuple(header) != FORECAST_HEADER:
        raise ContractError(f"{path} is not a forecast CSV (bad header)")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(FORECAST_HEADER):
            raise ParseError(f"bad forecast row in {path}", line=lineno)
        day, target, label, raw = row
        try:
            _iso_date(day)
        except ValueError:
            raise ParseError(f"date {day!r} is not an ISO date in {path}", line=lineno) from None
        if target not in TARGETS:
            raise ParseError(f"unknown target {target!r} in {path}", line=lineno)
        if label not in labels:
            raise ParseError(f"unknown model label {label!r} in {path}", line=lineno)
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(f"non-numeric point_forecast {raw!r} in {path}", line=lineno) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite point_forecast {raw!r} in {path}", line=lineno)
        if value < 0.0:
            raise ParseError(f"negative point_forecast {raw!r} in {path}", line=lineno)
        if not _DECIMAL.fullmatch(raw):
            raise ParseError(f"non-numeric point_forecast {raw!r} in {path}", line=lineno)
        rows.append((day, target, label, value))
    return rows


def extract_series(ds: EpidemicDataset, target: str) -> Series:
    """Pull one cumulative column out of a dataset as a raw Series."""
    if target not in TARGETS:
        raise ContractError(f"unknown target {target!r}, expected one of {TARGETS}")
    col = getattr(ds, target)
    return Series(
        values=col.astype(np.float64),
        start_date=ds.start_date,
        kind="cumulative",
        scale_state="raw",
    )


def cumulative_to_incident(s: Series, *, clamp_corrections: bool = False) -> Series:
    """Convert a running total into per-day amounts.

    out[0] = in[0]; out[t] = in[t] - in[t-1]. A negative increment means the
    source data carried a downward correction: that is an error unless
    clamp_corrections is set, in which case the increment is clamped to 0
    (logged) and the running-sum inverse no longer reproduces the input.
    """
    if s.kind != "cumulative":
        raise ContractError("cumulative_to_incident requires a cumulative series")
    inc = np.empty_like(s.values)
    inc[0] = s.values[0]
    inc[1:] = np.diff(s.values)
    i = _first_decrease(s.values)
    if i is not None:
        if not clamp_corrections:
            raise ValidationError(
                f"negative increment at {s.date_at(i).isoformat()}; "
                "pass clamp_corrections to floor corrections at 0"
            )
        negative = inc[1:] < 0
        n_clamped = int(negative.sum())
        logger.warning("clamped %d negative increments to 0", n_clamped)
        inc[1:][negative] = 0.0
    return Series(inc, s.start_date, kind="incident", scale_state=s.scale_state)


def incident_to_cumulative(s: Series) -> Series:
    """Running-sum inverse of cumulative_to_incident."""
    if s.kind != "incident":
        raise ContractError("incident_to_cumulative requires an incident series")
    return Series(
        np.cumsum(s.values), s.start_date, kind="cumulative", scale_state=s.scale_state
    )


def train_test_split(s: Series, test_fraction: float = 0.2) -> tuple[Series, Series]:
    """Chronological split; test gets round(n * test_fraction) points, at least 1."""
    if not (0.0 < test_fraction < 1.0):
        raise ContractError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(s)
    n_test = max(1, int(math.floor(n * test_fraction + 0.5)))
    n_train = n - n_test
    if n_train < 1:
        raise ContractError(f"series of length {n} too short to split both parts non-empty")
    train = Series(s.values[:n_train], s.start_date, s.kind, s.scale_state)
    test = Series(
        s.values[n_train:],
        s.start_date + timedelta(days=n_train),
        s.kind,
        s.scale_state,
    )
    return train, test


def read_input(path: str | Path, error: type[Exception]) -> str:
    """The text of the file at path, less a leading byte-order mark. An empty path, or a
    file that cannot be read or is not text in the locale's encoding, raises error, each
    caller's own."""
    if path == "":  # Path("") is the current directory
        raise error("cannot read : the path is empty")
    try:
        return Path(path).read_text().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def write_output(path: str | Path, text: str) -> None:
    """Replaces the file at path with text, written as is (newline="").

    The old file is unlinked first, so the new one is created, not truncated:
    ext4 (auto_da_alloc) flushes a truncated-and-rewritten file on close, and
    every rerun would wait for it. A link at path is replaced, not written
    through, and after a crash a just-written file can be empty. An OSError
    is a usage error (exit 1).
    """
    path = Path(path)
    try:
        path.unlink(missing_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ContractError(f"cannot write {path}: {exc}") from exc
