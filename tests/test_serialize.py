"""Model persistence: JSON round trips and malformed-file failures."""

import json
from dataclasses import replace

import numpy as np
import pytest

from epiforecast.errors import ModelFileError
from epiforecast.forecasters import ForecasterSpec, fit, forecast, load_model, save_model
from epiforecast.forecasters.base import (
    AdditiveConfig,
    ArimaOrder,
    ArOrder,
    LstmConfig,
    MlpConfig,
)
from epiforecast.forecasters.serialize import SCHEMA_VERSION, model_from_dict, model_to_dict
from epiforecast.transform import MinMaxScaler
from oracles import oracle_params_from_dict, oracle_params_to_dict
from support import series

SPECS = [
    ForecasterSpec("autoreg", ArOrder(3), 0),
    ForecasterSpec("arima", ArimaOrder(1, 1, 1), 0),
    ForecasterSpec("lstm", LstmConfig(num_units=3, window=4, epochs=5, learning_rate=0.1), 11),
    ForecasterSpec("mlp", MlpConfig(window=3, hidden_units=2, epochs=20, learning_rate=0.05, seasonal=True), 3),
    ForecasterSpec("additive", AdditiveConfig(n_changepoints=2, changepoint_penalty=1.0, fourier_order=2), 0),
]


def small_series():
    rng = np.random.default_rng(0)
    return series(np.cumsum(np.abs(rng.normal(0.5, 0.2, 60))) / 30.0)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_save_load_round_trip_preserves_forecasts(tmp_path, spec):
    s = small_series()
    model = fit(spec, s)
    model = replace(model, scaler=MinMaxScaler(2.0, 9.0), target="deaths")
    path = tmp_path / f"{spec.kind}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.spec == model.spec
    assert loaded.target == "deaths"
    assert loaded.train_end_date == model.train_end_date
    assert loaded.scaler == model.scaler
    assert loaded.train_tail.tolist() == model.train_tail.tolist()
    assert forecast(loaded, 10).tolist() == forecast(model, 10).tolist()


def test_saved_file_is_plain_versioned_json(tmp_path):
    model = fit(SPECS[0], small_series())
    path = tmp_path / "m.json"
    save_model(model, path)
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["kind"] == "autoreg"


def test_dict_round_trip_without_files():
    model = fit(SPECS[1], small_series())
    clone = model_from_dict(model_to_dict(model))
    assert forecast(clone, 5).tolist() == forecast(model, 5).tolist()


def test_unsupported_schema_version(tmp_path):
    model = fit(SPECS[0], small_series())
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError, match="schema"):
        load_model(path)


def test_missing_key_is_model_file_error(tmp_path):
    model = fit(SPECS[0], small_series())
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["params"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError):
        load_model(path)


def test_malformed_json_and_wrong_shape(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelFileError):
        load_model(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(ModelFileError):
        load_model(path)


def test_missing_file_is_model_file_error(tmp_path):
    with pytest.raises(ModelFileError):
        load_model(tmp_path / "absent.json")


CODEC_SPECS = SPECS + [
    ForecasterSpec("arima", ArimaOrder(3, 0, 2), 0),
    ForecasterSpec("mlp", MlpConfig(window=3, hidden_units=0, epochs=20, learning_rate=0.05), 3),
    ForecasterSpec(
        "mlp",
        MlpConfig(window=3, hidden_units=0, epochs=20, learning_rate=0.05, seasonal=True),
        3,
    ),
]


def assert_same_tree(a, b):
    """Equal types all the way down; arrays equal in dtype, shape and bits."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_tree(x, y)
    elif hasattr(a, "__dataclass_fields__"):
        for name in a.__dataclass_fields__:
            assert_same_tree(getattr(a, name), getattr(b, name))
    else:
        assert a == b


@pytest.mark.parametrize(
    "spec", CODEC_SPECS, ids=lambda s: f"{s.kind}-{'-'.join(map(str, vars(s.config).values()))}"
)
def test_generic_params_codec_matches_hand_written_codec(spec):
    model = fit(spec, small_series())
    doc = model_to_dict(model)
    expected = oracle_params_to_dict(spec.kind, model.params)
    assert json.dumps(doc["params"], indent=2) == json.dumps(expected, indent=2)
    # decode what the file holds, as the loader does
    stored = json.loads(json.dumps(doc))
    decoded = model_from_dict(stored).params
    assert_same_tree(decoded, oracle_params_from_dict(spec.kind, stored["params"]))
    assert_same_tree(decoded, model.params)


def test_diff_state_must_be_null(tmp_path):
    model = fit(SPECS[0], small_series())
    doc = model_to_dict(model)
    assert doc["diff_state"] is None
    doc["diff_state"] = {"order": 1, "heads": [0.5]}
    with pytest.raises(ModelFileError, match="diff_state"):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        (("train_end_date",), "garbage"),
        (("params", "c"), "abc"),
        (("params", "phi"), [[1.0], [2.0, 3.0]]),
        (("config", "p"), 0),
        (("seed",), -1),
    ],
    ids=["date", "float", "ragged-array", "config-check", "seed-range"],
)
def test_bad_values_are_model_file_errors(path, value):
    doc = model_to_dict(fit(SPECS[0], small_series()))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ModelFileError, match="malformed model file"):
        model_from_dict(doc)
