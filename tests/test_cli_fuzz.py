"""Mutated command-line inputs end in a documented exit code, never a traceback."""

import json
import logging
import re
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from epiforecast.cli import main
from epiforecast.forecasters import ForecasterSpec, fit, model_to_dict
from epiforecast.forecasters.base import ArOrder
from support import series

START = date(2020, 2, 26)


def _data_csv(n=40):
    rng = np.random.default_rng(0)
    rows = ["Date,Confirmed,Deaths,Recovered"]
    c = d = r = 0
    for i in range(n):
        c += int(rng.integers(5, 60))
        d += int(rng.integers(0, 5))
        r += int(rng.integers(0, 40))
        rows.append(f"{(START + timedelta(days=i)).isoformat()},{c},{d},{r}")
    return "\n".join(rows) + "\n"


def _model_json():
    t = np.arange(40, dtype=np.float64)
    model = fit(ForecasterSpec("autoreg", ArOrder(3), 0), series(t / 40 + 0.05 * np.sin(t)))
    doc = model_to_dict(model)
    doc["target"] = "deaths"
    return json.dumps(doc, indent=2) + "\n"


# Valid inputs, one per file the mutated runs read.
BASE = {
    "data.csv": _data_csv(),
    "model.json": _model_json(),
    "forecast.csv": (
        "date,target,model,point_forecast\n"
        "2020-04-06,deaths,autoreg,12.500000\n"
        "2020-04-07,deaths,autoreg,13.250000\n"
    ),
    "config.ini": "[run]\ntarget = deaths\nseed = 3\ntest_fraction = 0.25\n",
    "grid.ini": "[autoreg]\np = 2, 3\n",
}

# The command each mutated file is fed to; the other files stay valid. Every
# command but validate also gets --out.
COMMANDS = {
    "data.csv": ["validate", "--input", "data.csv"],
    "forecast.csv": ["plotdata", "--input", "data.csv", "--forecast", "forecast.csv"],
    "model.json": ["forecast", "--model-file", "model.json", "--horizon", "5"],
    "config.ini": ["fit", "--input", "data.csv", "--model", "autoreg", "--config", "config.ini",
                   "--grid", "grid.ini"],
    "grid.ini": ["fit", "--input", "data.csv", "--model", "autoreg", "--grid", "grid.ini"],
}

# Characters that make numbers, dates, JSON and INI syntax; no "o" or "u", so
# an inserted run cannot spell the "out" key.
ALPHABET = "0123456789-+.,:;=[]{}\"' \n\tenaifEx"
OUT_KEY = re.compile(r"^\s*out\s*[=:]", re.IGNORECASE | re.MULTILINE)


@st.composite
def mutations(draw):
    """One input file with one to three slices replaced by short runs of ALPHABET."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    text = BASE[name]
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + draw(st.text(ALPHABET, max_size=8)) + text[end:]
    # an `out` key in a config file would point the run outside its directory
    assume(name != "config.ini" or not OUT_KEY.search(text))
    return name, text


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutation=mutations())
def test_mutated_inputs_exit_with_a_documented_code(tmp_path, capsys, caplog, mutation):
    name, text = mutation
    # a fresh directory per example: new files, never rewritten ones
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    for file_name, base in BASE.items():
        (work / file_name).write_text(text if file_name == name else base)
    args = [str(work / a) if a in BASE else a for a in COMMANDS[name]]
    if args[0] != "validate":
        args += ["--out", str(work / "out")]
    capsys.readouterr()
    caplog.clear()
    with caplog.at_level(logging.INFO):
        code = main(args)
    err = capsys.readouterr().err
    event(f"{args[0]} on a mutated {name}: exit {code}")  # see --hypothesis-show-statistics
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert not [r for r in caplog.records if r.exc_info], "a traceback was logged"
    if code:
        assert err.startswith("error: ")
