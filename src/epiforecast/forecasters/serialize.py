"""Versioned model files: JSON key-value trees with exact float round trip.

Floats are written in Python's shortest round-trip decimal form, so a loaded
model forecasts bit-identically to the one saved. Unknown schema versions and
truncated files are refused.
"""

from __future__ import annotations

import json
import math
import types
from dataclasses import fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from ..data import TARGETS, _iso_date, read_input, write_output
from ..errors import ModelFileError
from ..transform import MinMaxScaler
from .base import CONFIG_TYPES, FittedModel, ForecasterSpec, check_shape
from .mlp import weekday_after

SCHEMA_VERSION = 1


def _encode(value):
    """Config, scaler, params or train tail -> JSON tree: arrays and tuples become
    lists, dataclasses objects keyed in field order; scalars and None pass through."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


_field_types = cache(get_type_hints)  # annotations of a config or params dataclass, by field

_LEAF_KINDS = {float: {int, float}, str: {str}}  # JSON kinds of array and tuple items


def _check_leaves(items, item_tp) -> None:
    """Refuses an item whose JSON kind is not item_tp's: a boolean, string, null
    or list for a number, anything but a string for a string."""
    kinds = _LEAF_KINDS[item_tp]
    if not set(map(type, items)) <= kinds:
        bad = next(item for item in items if type(item) not in kinds)
        raise ValueError(f"{bad!r} is not a valid {item_tp.__name__}")


def _decode(tp, value):
    """Inverse of _encode, driven by the field annotations of the config, params
    or scaler type. Refuses NaN and infinities in every float and array, and
    any leaf whose JSON kind is not its field's."""
    if is_dataclass(tp):
        return tp(**{name: _decode(ftp, value[name]) for name, ftp in _field_types(tp).items()})
    if get_origin(tp) in (Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if tp is np.ndarray:
        leaves = np.asarray(value, dtype=object)  # a ragged row stays one list leaf
        _check_leaves(leaves.ravel(), float)
        array = leaves.astype(np.float64)
        if not np.isfinite(array).all():
            raise ValueError(f"{array[~np.isfinite(array)][0]} is not a finite number")
        return array
    if get_origin(tp) is tuple:
        item_tp = get_args(tp)[0]
        if is_dataclass(item_tp):
            return tuple(_decode(item_tp, item) for item in value)
        if not isinstance(value, list):
            raise ValueError(f"{value!r} is not a list")
        _check_leaves(value, item_tp)
        return tuple(value)  # numbers as read: loss histories are not checked for NaN
    if tp in (int, float, bool):
        # refuses 1.5 for an int, "1", NaN, inf, and a JSON boolean for a number or 1 for a bool
        same = isinstance(value, bool) == (tp is bool) and tp(value) == value
        if not same or not math.isfinite(value):
            raise ValueError(f"{value!r} is not a valid {tp.__name__}")
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
        "config": _encode(model.spec.config),
        "scaler": _encode(model.scaler),
        # always null: no fitter keeps a differencing state; the key is part of schema 1
        "diff_state": None,
        "train_tail": _encode(model.train_tail),
        "params": _encode(model.params),
    }


def model_from_dict(doc: dict) -> FittedModel:
    from . import FAMILIES  # the package imports this module before defining FAMILIES

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelFileError(f"unsupported model schema version {version!r}")
    try:
        kind = doc["kind"]
        raw, hints = doc["config"], _field_types(CONFIG_TYPES[kind])  # unknown key: KeyError
        config = CONFIG_TYPES[kind](**{k: _decode(hints[k], raw[k]) for k in raw})
        spec = ForecasterSpec(kind, config, _decode(int, doc["seed"]))
        if doc["diff_state"] is not None:
            raise ModelFileError(f"unsupported diff_state {doc['diff_state']!r}; expected null")
        family = FAMILIES[kind]
        params = _decode(family.params_type, doc["params"])
        family.check_params(params, config)
        train_tail = _decode(np.ndarray, doc["train_tail"])
        check_shape("train_tail", train_tail, (family.tail_length(config),), f"the {kind} config")
        if doc["target"] not in (None, *TARGETS):
            raise ValueError(f"target {doc['target']!r} is not one of {', '.join(TARGETS)}")
        end = None if doc["train_end_date"] is None else _iso_date(doc["train_end_date"])
        next_dow = getattr(params, "next_dow", None)  # the seasonal ANN's first forecast weekday
        if end is not None and next_dow not in (None, weekday_after(end)):
            raise ValueError(
                f"next_dow is {next_dow} but the day after train_end_date {end} is weekday "
                f"{weekday_after(end)}"
            )
        return FittedModel(
            spec=spec,
            params=params,
            scaler=_decode(MinMaxScaler, doc["scaler"]),
            train_tail=train_tail,
            target=doc["target"],
            train_end_date=end,
        )
    # ValueError includes a config or spec check's ContractError; int(inf) overflows
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"malformed model file: {exc}") from exc


def save_model(model: FittedModel, path: str | Path) -> None:
    write_output(path, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: str | Path) -> FittedModel:
    try:
        doc = json.loads(read_input(path, ModelFileError))
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"truncated or corrupt model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError(f"malformed model file {path}: not a key-value tree")
    return model_from_dict(doc)
