"""Counters and spans recorded around calls into the epiforecast package.

Nothing inside the package is edited. The benchmark replaces the module
attributes that callers resolve at call time (for example
``epiforecast.backtest.grid_search``, which ``compare_models`` looks up in its
own module) with wrappers, and the wrappers record what crosses that boundary.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from collections import Counter

import numpy as np

FAMILIES = ("additive", "autoreg", "arima", "lstm", "mlp")


def patch(module_name: str, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` with ``make_wrapper(original)``. The benchmark
    imports the package afresh for every set-up, so nothing is restored."""
    module = sys.modules[module_name]
    setattr(module, attr, make_wrapper(getattr(module, attr)))


class Accounting:
    """Grid candidates per family, counted from outside the package.

    A candidate is attempted when ``backtest.grid_search`` receives it and
    scored when its validation ``mse`` returns; the difference failed. A
    candidate is root-flagged when its fitted ARIMA parameters carry
    ``params.warnings``. Every ``fit_arima`` outcome (order, then the exact
    parameter bytes or the error type) feeds one SHA-256 digest.
    """

    def __init__(self):
        self._family = None
        self.reset()

    def reset(self) -> None:
        self.attempted = Counter()
        self.scored = Counter()
        self.root_flagged = Counter()
        self.arima_digest = hashlib.sha256()

    def snapshot(self) -> dict:
        return {
            "candidates": {
                f: {
                    "attempted": self.attempted[f],
                    "failed": self.attempted[f] - self.scored[f],
                    "root_flagged": self.root_flagged[f],
                }
                for f in FAMILIES
            },
            "arima_params_sha256": self.arima_digest.hexdigest(),
        }

    def install(self) -> None:
        patch("epiforecast.backtest", "grid_search", self._grid_search)
        patch("epiforecast.backtest", "mse", self._mse)
        patch("epiforecast.forecasters", "fit_arima", self._fit_arima)

    def _grid_search(self, original):
        def grid_search(candidates, *args, **kwargs):
            self._family = candidates[0].kind if candidates else None
            self.attempted[self._family] += len(candidates)
            try:
                return original(candidates, *args, **kwargs)
            finally:
                self._family = None

        return grid_search

    def _mse(self, original):
        def mse(*args, **kwargs):
            value = original(*args, **kwargs)
            if self._family is not None:
                self.scored[self._family] += 1
            return value

        return mse

    def _fit_arima(self, original):
        def fit_arima(train, order):
            self.arima_digest.update(repr((order.p, order.d, order.q)).encode())
            try:
                model = original(train, order)
            except Exception as exc:
                self.arima_digest.update(type(exc).__name__.encode())
                raise
            params = model.params
            for part in (params.c, params.phi, params.theta):
                self.arima_digest.update(np.asarray(part, dtype=np.float64).tobytes())
            if self._family is not None and params.warnings:
                self.root_flagged[self._family] += 1
            return model

        return fit_arima


def lstm_minibatches(train, config, *_args, **_kwargs) -> int:
    """Mini-batch steps one ``train_lstm`` call runs, from its config and data."""
    n = len(train) - config.window
    batch = n if config.batch_size == 0 else min(config.batch_size, n)
    return config.epochs * math.ceil(n / batch)


def mlp_epochs(train, config, *_args, **_kwargs) -> int:
    return config.epochs


# (span name, module whose attribute callers resolve, attribute, work counter)
BOUNDARIES = (
    ("cli.cmd_forecast", "epiforecast.cli", "cmd_forecast", None),
    ("backtest.compare_models", "epiforecast.cli", "compare_models", None),
    ("backtest.grid_search", "epiforecast.backtest", "grid_search", None),
    ("backtest.grid_search", "epiforecast.cli", "grid_search", None),
    ("data.parse_csv", "epiforecast.cli", "parse_csv", None),
    ("serialize.load_model", "epiforecast.cli", "load_model", None),
    ("serialize.save_model", "epiforecast.cli", "save_model", None),
    ("lstm.train_lstm", "epiforecast.forecasters", "train_lstm", lstm_minibatches),
    ("lstm.forecast_lstm", "epiforecast.forecasters", "forecast_lstm", None),
    ("arima.fit_arima", "epiforecast.forecasters", "fit_arima", None),
    ("arima.forecast_arima", "epiforecast.forecasters", "forecast_arima", None),
    ("arima.css_residuals", "epiforecast.forecasters.arima", "css_residuals", None),
    ("mlp.fit_mlp", "epiforecast.forecasters", "fit_mlp", mlp_epochs),
    ("mlp.forecast_mlp", "epiforecast.forecasters", "forecast_mlp", None),
    ("additive.fit_additive", "epiforecast.forecasters", "fit_additive", None),
    ("additive.forecast_additive", "epiforecast.forecasters", "forecast_additive", None),
    ("autoreg.fit_autoreg", "epiforecast.forecasters", "fit_autoreg", None),
    ("autoreg.forecast_autoreg", "epiforecast.forecasters", "forecast_autoreg", None),
    ("transform.make_windows", "epiforecast.forecasters.lstm", "make_windows", None),
    ("transform.make_windows", "epiforecast.forecasters.mlp", "make_windows", None),
    ("transform.difference_values", "epiforecast.forecasters.arima", "difference_values", None),
)


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, request, ok, work).

    ``request`` is the index of the timed request the span belongs to,
    ``"setup"`` or ``"reference"`` (the untimed calls between set-up and
    loop). ``work`` is a count derived from the call's arguments
    (mini-batches for the LSTM, epochs for the MLP), else 0.
    """

    def __init__(self):
        self.spans: list = []
        self.request = "setup"
        self._open: list[int] = []

    def install(self) -> None:
        for name, module, attr, work in BOUNDARIES:
            patch(module, attr, self._wrapper(name, work))

    def _wrapper(self, name, work):
        def make(original):
            def traced(*args, **kwargs):
                index = len(self.spans)
                parent = self._open[-1] if self._open else -1
                amount = work(*args, **kwargs) if work else 0
                self.spans.append(None)
                self._open.append(index)
                ok = False
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    end = time.perf_counter()
                    self._open.pop()
                    self.spans[index] = (name, start, end, parent, self.request, ok, amount)

            return traced

        return make

    def summary(self) -> dict:
        """Per span name, split into set-up, reference and timed-loop parts:
        call count, failed calls, total seconds, self seconds (total minus the
        direct children's spans) and the summed work counter."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, request, ok, amount) in enumerate(self.spans):
            phase = request if isinstance(request, str) else "loop"
            entry = out.setdefault(phase, {}).setdefault(
                name, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0, "work": 0}
            )
            entry["calls"] += 1
            entry["failed"] += 0 if ok else 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["work"] += amount
        return out
