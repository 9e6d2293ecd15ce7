"""Versioned model files: JSON key-value trees with exact float round trip.

Floats are written in Python's shortest round-trip decimal form, so a loaded
model forecasts bit-identically to the one saved. Unknown schema versions and
truncated files are refused.
"""

from __future__ import annotations

import json
import types
from dataclasses import asdict, fields, is_dataclass
from datetime import date
from functools import cache
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from ..errors import ModelFileError
from ..transform import MinMaxScaler
from .base import CONFIG_TYPES, FittedModel, ForecasterSpec

SCHEMA_VERSION = 1


def _encode(value):
    """Params dataclass -> JSON tree: arrays and tuples become lists, nested
    dataclasses objects keyed in field order; scalars and None pass through."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


_field_types = cache(get_type_hints)  # annotations of a params dataclass, by field


def _decode(tp, value):
    """Inverse of _encode, driven by the field annotations of the params type."""
    if is_dataclass(tp):
        return tp(**{name: _decode(ftp, value[name]) for name, ftp in _field_types(tp).items()})
    if get_origin(tp) in (Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if tp is np.ndarray:
        return np.asarray(value, dtype=np.float64)
    if get_origin(tp) is tuple:
        item_tp = get_args(tp)[0]
        if is_dataclass(item_tp):
            return tuple(_decode(item_tp, item) for item in value)
        return tuple(value)  # scalars as read: loss histories run to thousands
    if tp in (int, float):
        return tp(value)
    return value


def model_to_dict(model: FittedModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": model.spec.kind,
        "seed": model.spec.seed,
        "target": model.target,
        "train_end_date": (
            None if model.train_end_date is None else model.train_end_date.isoformat()
        ),
        "config": asdict(model.spec.config),
        "scaler": {"min": model.scaler.min, "max": model.scaler.max},
        # always null: no fitter keeps a differencing state; the key is part of schema 1
        "diff_state": None,
        "train_tail": model.train_tail.tolist(),
        "params": _encode(model.params),
    }


def model_from_dict(doc: dict) -> FittedModel:
    from . import FAMILIES  # the package imports this module before defining FAMILIES

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelFileError(f"unsupported model schema version {version!r}")
    try:
        kind = doc["kind"]
        config = CONFIG_TYPES[kind](**doc["config"])
        spec = ForecasterSpec(kind, config, int(doc["seed"]))
        if doc["diff_state"] is not None:
            raise ModelFileError(f"unsupported diff_state {doc['diff_state']!r}; expected null")
        return FittedModel(
            spec=spec,
            params=_decode(FAMILIES[kind].params_type, doc["params"]),
            scaler=MinMaxScaler(float(doc["scaler"]["min"]), float(doc["scaler"]["max"])),
            train_tail=np.asarray(doc["train_tail"], dtype=np.float64),
            target=doc["target"],
            train_end_date=(
                None
                if doc["train_end_date"] is None
                else date.fromisoformat(doc["train_end_date"])
            ),
        )
    # ValueError includes the ContractError a config or spec check raises
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ModelFileError(f"malformed model file: {exc}") from exc


def save_model(model: FittedModel, path: str | Path) -> None:
    doc = model_to_dict(model)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_model(path: str | Path) -> FittedModel:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"truncated or corrupt model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError(f"malformed model file {path}: not a key-value tree")
    return model_from_dict(doc)
