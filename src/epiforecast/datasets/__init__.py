"""Bundled data. iran_covid() loads the packaged 381-day daily count file,
a synthetic reconstruction calibrated to officially reported cumulative
totals at both endpoints (see scripts/generate_dataset.py)."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from ..data import EpidemicDataset, parse_csv, read_input
from ..errors import EpiForecastError


def iran_covid_path() -> Path:
    return Path(str(resources.files(__package__) / "iran_covid.csv"))


def iran_covid() -> EpidemicDataset:
    return parse_csv(read_input(iran_covid_path(), EpiForecastError))
