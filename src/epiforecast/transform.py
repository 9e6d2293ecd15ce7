"""Reversible preprocessing: min-max scaling, differencing, sliding windows.

Scalers are always fitted on training data only; differencing keeps enough
state for an exact inverse and for extending a series with forecast
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Series
from .errors import ContractError, DegenerateScaleError


@dataclass(frozen=True)
class MinMaxScaler:
    """Affine map x -> (x - min) / (max - min) fitted on a training series."""

    min: float
    max: float

    def __post_init__(self):
        if not (self.max > self.min):
            raise DegenerateScaleError(
                f"degenerate scale: max ({self.max}) must exceed min ({self.min})"
            )

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.min) / (self.max - self.min)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * (self.max - self.min) + self.min


IDENTITY_SCALER = MinMaxScaler(0.0, 1.0)


def fit_scaler(s: Series) -> MinMaxScaler:
    lo = float(s.values.min())
    hi = float(s.values.max())
    if hi == lo:
        raise DegenerateScaleError("cannot fit a min-max scaler on a constant series")
    return MinMaxScaler(lo, hi)


def scale(scaler: MinMaxScaler, s: Series) -> Series:
    return Series(scaler.transform(s.values), s.start_date, s.kind, "normalized")


def inverse_scale(scaler: MinMaxScaler, s: Series) -> Series:
    return Series(scaler.inverse(s.values), s.start_date, s.kind, "raw")


@dataclass(frozen=True)
class DifferenceState:
    """Leading values consumed by each differencing pass, for exact inversion."""

    order: int
    heads: tuple[float, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ContractError("difference order must be >= 0")
        if len(self.heads) != self.order:
            raise ContractError("one stored head per differencing pass required")


def difference_values(values: np.ndarray, d: int) -> tuple[np.ndarray, DifferenceState]:
    """Apply d first-difference passes to a float array."""
    values = np.asarray(values, dtype=np.float64)
    if values.size <= d:  # a d < 0 passes here; DifferenceState refuses it
        raise ContractError(f"series of length {values.size} too short to difference {d} times")
    heads = []
    out = values
    for _ in range(d):
        heads.append(float(out[0]))
        out = np.diff(out)
    return out, DifferenceState(order=d, heads=tuple(heads))


def integrate_values(diffed: np.ndarray, state: DifferenceState) -> np.ndarray:
    """Exact inverse of difference_values (np.cumsum adds in sequence)."""
    out = np.asarray(diffed, dtype=np.float64)
    for head in reversed(state.heads):
        out = np.cumsum(np.concatenate(([head], out)))
    return out


def difference(s: Series, d: int) -> tuple[Series, DifferenceState]:
    diffed, state = difference_values(s.values, d)
    kind = s.kind if d == 0 else "incident"
    return Series(diffed, s.date_at(d), kind, s.scale_state), state


def integrate(s: Series, state: DifferenceState) -> Series:
    levels = integrate_values(s.values, state)
    kind = s.kind if state.order == 0 else "cumulative"
    return Series(levels, s.date_at(-state.order), kind, s.scale_state)


def integrate_forecast(diff_forecast: np.ndarray, level_tail: np.ndarray, d: int) -> np.ndarray:
    """Turn d-times-differenced forecasts into level forecasts.

    level_tail holds the last observed level values (at least d of them, in
    chronological order); each integration pass resumes the running sum from
    the last value of the correspondingly-differenced observed series.
    """
    level_tail = np.asarray(level_tail, dtype=np.float64)
    if d < 0:
        raise ContractError("difference order must be >= 0")
    if d > 0 and level_tail.size < d:
        raise ContractError(f"need at least {d} trailing levels to integrate order {d}")
    out = np.asarray(diff_forecast, dtype=np.float64)
    for j in range(d, 0, -1):
        # resume from the last observed value of the (j-1)-times-differenced series
        anchor = np.diff(level_tail, n=j - 1)[-1]
        out = np.cumsum(np.concatenate(([anchor], out)))[1:]
    return out


@dataclass(frozen=True)
class WindowSet:
    """Supervised one-step framing: inputs (n-w, w), targets (n-w,)."""

    inputs: np.ndarray
    targets: np.ndarray
    window: int

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[1] != self.window:
            raise ContractError("inputs must be (n - w, w)")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ContractError("one target per input row required")

    def __len__(self) -> int:
        return int(self.targets.size)


def make_windows(s: Series, w: int) -> WindowSet:
    """Slide a length-w window over the series; row i predicts values[i + w]."""
    n = len(s)
    if w < 1:
        raise ContractError("window length must be >= 1")
    if n <= w:
        raise ContractError(f"series of length {n} has no complete window of {w} + target")
    v = s.values
    inputs = sliding_window_view(v[:-1], w).copy()
    return WindowSet(inputs=inputs, targets=v[w:].copy(), window=w)
