"""CSV ingestion, dataset structure, series extraction and splitting."""

import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from epiforecast.data import (
    TARGETS,
    EpidemicDataset,
    Series,
    _first_decrease,
    cumulative_to_incident,
    extract_series,
    incident_to_cumulative,
    parse_csv,
    read_input,
    train_test_split,
    validate_series,
)
from epiforecast.errors import (
    ContractError,
    ParseError,
    StructuralError,
    ValidationError,
)
from oracles import (
    oracle_column_monotone,
    oracle_first_decrease_argmax,
    oracle_first_decrease_pairwise,
    oracle_first_negative_increment,
    oracle_parse_csv,
)
from support import START, series

GOOD = (
    "Date,Confirmed,Deaths,Recovered\n"
    "2020-02-26,10,1,0\n"
    "2020-02-27,15,2,1\n"
    "2020-02-28,23,2,4\n"
)


def test_parse_basic_fields():
    ds = parse_csv(GOOD)
    assert len(ds) == 3
    assert ds.start_date == date(2020, 2, 26)
    assert ds.end_date == date(2020, 2, 28)
    assert ds.confirmed.tolist() == [10, 15, 23]
    assert ds.deaths.tolist() == [1, 2, 2]
    assert ds.recovered.tolist() == [0, 1, 4]
    assert not ds.corrections_allowed


def test_parse_header_any_case_any_order():
    text = (
        "RECOVERED,date,DEATHS,confirmed\n"
        "0,2020-02-26,1,10\n"
        "1,2020-02-27,2,15\n"
    )
    ds = parse_csv(text)
    assert ds.confirmed.tolist() == [10, 15]
    assert ds.recovered.tolist() == [0, 1]


def test_parse_accepts_crlf_and_blank_lines():
    text = GOOD.replace("\n", "\r\n") + "\r\n\r\n"
    ds = parse_csv(text)
    assert len(ds) == 3


def test_parse_missing_column_is_line_one_error():
    with pytest.raises(ParseError, match="line 1.*deaths"):
        parse_csv("Date,Confirmed,Recovered\n2020-02-26,10,0\n")


@pytest.mark.parametrize("extra, times", [(",Deaths", 2), (",date,DATE", 3)])
def test_parse_a_column_named_twice_in_the_header_is_line_one_error(extra, times):
    """The first of the same-named columns used to win without a warning."""
    name = extra.split(",")[1].lower()
    text = f"Date,Confirmed,Deaths,Recovered{extra}\n2020-02-26,10,1,0{',0' * (times - 1)}\n"
    with pytest.raises(ParseError) as exc:
        parse_csv(text)
    assert str(exc.value) == f"line 1: column {name!r} appears {times} times in header"


def test_parse_wrong_field_count_names_line():
    text = "Date,Confirmed,Deaths,Recovered\n2020-02-26,10,1,0\n2020-02-27,15,2\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_csv(text)


def test_parse_bad_date_names_line():
    text = "Date,Confirmed,Deaths,Recovered\n26/02/2020,10,1,0\n"
    with pytest.raises(ParseError, match="line 2.*26/02/2020"):
        parse_csv(text)


def test_parse_bad_count_names_column_and_line():
    text = "Date,Confirmed,Deaths,Recovered\n2020-02-26,10,one,0\n"
    with pytest.raises(ParseError, match="line 2.*'one' in column deaths"):
        parse_csv(text)


def test_parse_empty_inputs():
    with pytest.raises(StructuralError, match="empty"):
        parse_csv("")
    with pytest.raises(StructuralError, match="empty"):
        parse_csv("Date,Confirmed,Deaths,Recovered\n")


def test_parse_duplicate_date():
    text = (
        "Date,Confirmed,Deaths,Recovered\n"
        "2020-02-26,10,1,0\n"
        "2020-02-26,15,2,1\n"
    )
    with pytest.raises(StructuralError, match="duplicate date 2020-02-26"):
        parse_csv(text)


def test_parse_date_gap_names_first_missing_day():
    text = (
        "Date,Confirmed,Deaths,Recovered\n"
        "2020-02-26,10,1,0\n"
        "2020-02-29,15,2,1\n"
    )
    with pytest.raises(StructuralError, match="missing 2020-02-27"):
        parse_csv(text)


def test_parse_out_of_order_dates():
    text = (
        "Date,Confirmed,Deaths,Recovered\n"
        "2020-02-27,10,1,0\n"
        "2020-02-26,15,2,1\n"
    )
    with pytest.raises(StructuralError, match="out of order"):
        parse_csv(text)


def test_parse_negative_count_always_rejected():
    text = "Date,Confirmed,Deaths,Recovered\n2020-02-26,10,-1,0\n"
    with pytest.raises(ValidationError, match="negative count -1"):
        parse_csv(text)
    with pytest.raises(ValidationError, match="negative count -1"):
        parse_csv(text, allow_corrections=True)


DECREASING = (
    "Date,Confirmed,Deaths,Recovered\n"
    "2020-02-26,10,1,5\n"
    "2020-02-27,15,2,3\n"
)


def test_parse_decreasing_cumulative_rejected_by_default():
    with pytest.raises(ValidationError, match="recovered decreases on 2020-02-27"):
        parse_csv(DECREASING)


def test_parse_decreasing_cumulative_allowed_with_corrections():
    ds = parse_csv(DECREASING, allow_corrections=True)
    assert ds.corrections_allowed
    assert ds.column_monotone("confirmed")
    assert not ds.column_monotone("recovered")


def test_dataset_rejects_mismatched_columns():
    with pytest.raises(ContractError, match="deaths"):
        EpidemicDataset(
            dates=(date(2020, 2, 26), date(2020, 2, 27)),
            confirmed=np.array([1, 2]),
            deaths=np.array([1]),
            recovered=np.array([0, 0]),
        )


def test_dataset_with_no_dates_is_empty():
    empty = np.array([], dtype=np.int64)
    with pytest.raises(StructuralError, match="^dataset is empty$"):
        EpidemicDataset(dates=(), confirmed=empty, deaths=empty, recovered=empty)


def test_dataset_columns_are_immutable():
    ds = parse_csv(GOOD)
    with pytest.raises(ValueError):
        ds.confirmed[0] = 99


def test_extract_series_is_raw_cumulative_float():
    ds = parse_csv(GOOD)
    s = extract_series(ds, "confirmed")
    assert s.kind == "cumulative"
    assert s.scale_state == "raw"
    assert s.values.dtype == np.float64
    assert s.values.tolist() == [10.0, 15.0, 23.0]
    assert s.start_date == ds.start_date
    with pytest.raises(ContractError, match="unknown target"):
        extract_series(ds, "cases")


def test_series_contract_violations():
    with pytest.raises(ContractError, match="non-empty"):
        series([])
    with pytest.raises(ContractError, match="non-empty"):
        Series(np.zeros((2, 2)), START)
    with pytest.raises(ContractError, match="finite"):
        series([1.0, np.nan])
    with pytest.raises(ContractError, match="unknown series kind"):
        Series(np.ones(3), START, kind="weekly")
    with pytest.raises(ContractError, match="unknown scale state"):
        Series(np.ones(3), START, scale_state="zscored")


def test_series_values_are_immutable_and_dates_index():
    s = series([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0
    assert len(s) == 3
    assert s.end_date == date(2020, 2, 28)
    assert s.date_at(1) == date(2020, 2, 27)


def test_validate_series_flags_first_decrease():
    s = Series(np.array([1.0, 2.0, 1.5, 3.0]), START, "cumulative", "raw")
    with pytest.raises(ValidationError, match="decreases at 2020-02-28"):
        validate_series(s)
    validate_series(Series(np.array([1.0, 2.0, 2.0]), START, "cumulative", "raw"))
    # normalized or incident series are exempt from the monotone rule
    validate_series(series([3.0, 1.0], kind="incident"))


def test_cumulative_to_incident_and_back_is_exact():
    s = Series(np.array([10.0, 15.0, 23.0, 23.0]), START, "cumulative", "raw")
    inc = cumulative_to_incident(s)
    assert inc.kind == "incident"
    assert inc.values.tolist() == [10.0, 5.0, 8.0, 0.0]
    back = incident_to_cumulative(inc)
    assert back.kind == "cumulative"
    assert back.values.tolist() == s.values.tolist()
    assert back.start_date == s.start_date


def test_cumulative_to_incident_rejects_corrections_unless_clamped():
    s = Series(np.array([10.0, 8.0, 12.0]), START, "cumulative", "raw")
    with pytest.raises(ValidationError, match="negative increment at 2020-02-27"):
        cumulative_to_incident(s)
    clamped = cumulative_to_incident(s, clamp_corrections=True)
    assert clamped.values.tolist() == [10.0, 0.0, 4.0]


def test_conversion_kind_contracts():
    with pytest.raises(ContractError, match="cumulative"):
        cumulative_to_incident(series([1.0, 2.0], kind="incident"))
    with pytest.raises(ContractError, match="incident"):
        incident_to_cumulative(Series(np.ones(3), START, "cumulative", "raw"))


def test_train_test_split_sizes_and_dates():
    s = series(np.arange(10.0))
    train, test = train_test_split(s, 0.2)
    assert len(train) == 8 and len(test) == 2
    assert train.values.tolist() == list(map(float, range(8)))
    assert test.values.tolist() == [8.0, 9.0]
    assert test.start_date == train.end_date.fromordinal(train.end_date.toordinal() + 1)
    assert train.kind == test.kind == s.kind


def test_train_test_split_rounds_half_up_and_floors_at_one():
    n_test = lambda n, f: len(train_test_split(series(np.arange(float(n))), f)[1])
    assert n_test(381, 0.2) == 76
    assert n_test(10, 0.25) == 3  # 2.5 rounds up
    assert n_test(100, 0.001) == 1  # floor at one test point


def test_train_test_split_contract():
    with pytest.raises(ContractError, match="test_fraction"):
        train_test_split(series([1.0, 2.0]), 0.0)
    with pytest.raises(ContractError, match="test_fraction"):
        train_test_split(series([1.0, 2.0]), 1.0)
    with pytest.raises(ContractError, match="too short"):
        train_test_split(series([1.0]), 0.5)


def test_bundled_dataset_shape_and_anchors(iran):
    assert len(iran) == 381
    assert iran.start_date == date(2020, 2, 26)
    assert iran.end_date == date(2021, 3, 12)
    assert int(iran.confirmed[-1]) == 1_723_470
    assert int(iran.deaths[-1]) == 61_069
    assert int(iran.recovered[-1]) == 1_470_167
    for target in ("confirmed", "deaths", "recovered"):
        assert iran.column_monotone(target)


DECREASE_CASES = st.one_of(
    st.lists(st.integers(0, 3), max_size=8),  # mostly equal neighbours
    st.lists(st.integers(-(2**61), 2**61), max_size=8),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=DECREASE_CASES)
@example(values=[])
@example(values=[7])
@example(values=[2, 2, 2])
@example(values=[0.0, -0.0])
@example(values=[1.7e308, -1.7e308])  # the old checks' difference overflows to -inf
def test_first_decrease_is_the_four_checks_it_replaced(values):
    want = oracle_first_decrease_pairwise(values)
    arr = np.asarray(values)
    assert _first_decrease(values) == _first_decrease(arr) == want
    with np.errstate(over="ignore"):
        assert oracle_first_decrease_argmax(arr) == want
        assert oracle_column_monotone(arr) == (want is None)
        if values:
            assert oracle_first_negative_increment(arr) == want


def test_read_input_returns_the_text_of_a_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("Date,Confirmed\n")
    assert read_input(path, ContractError) == "Date,Confirmed\n"


@pytest.mark.parametrize("case", ["missing", "directory", "not-text"])
def test_read_input_raises_the_callers_error_class(tmp_path, case):
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    elif case == "not-text":
        path.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError, match=f"^cannot read {re.escape(str(path))}: ") as info:
        read_input(path, ParseError)
    cause = UnicodeDecodeError if case == "not-text" else OSError
    assert isinstance(info.value.__cause__, cause)


def test_read_input_refuses_an_empty_path_with_the_callers_error_class():
    """Path("") would read the current directory."""
    with pytest.raises(ParseError, match="^cannot read : the path is empty$"):
        read_input("", ParseError)


# --- one pass per CSV row ---------------------------------------------------------------

FAULTS = (
    "arity", "date", "count", "negative", "decrease", "gap", "duplicate", "order",
    "blank", "bom", "crlf",
)
BAD_DATES = ("2020-13-01", "20200226", "2020-W09-4", "26/02/2020", "", "2020-2-26")
BAD_COUNTS = ("\uff12", "1_000", "+7", "1.0", "", "x", "\u0663", str(2**63), str(10**30))


@st.composite
def faulty_csv(draw):
    """A CSV text of valid rows, in a drawn column order and header case, with one
    or two planted faults; sometimes a text that only changes its line ends."""
    names = draw(st.permutations(["Date", "Confirmed", "Deaths", "Recovered"]))
    header = [draw(st.sampled_from([n, n.lower(), n.upper(), f" {n} "])) for n in names]
    n = draw(st.integers(1, 6))
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2))
    gap = draw(st.integers(1, n)) if "gap" in faults else n  # rows from gap on skip a day
    start = draw(st.dates(date(2020, 1, 1), date(2021, 12, 31)))
    totals = {t: draw(st.integers(0, 50)) for t in TARGETS}
    rows = []
    for i in range(n):
        for t in TARGETS:
            totals[t] += draw(st.integers(0, 9))
        cell = {"date": (start + timedelta(days=i + (i >= gap))).isoformat(), **totals}
        rows.append([str(cell[name.lower()]) for name in names])
    date_at, column = names.index("Date"), [names.index(t.title()) for t in TARGETS]
    newline = "\n"
    for fault in faults:
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if fault in ("date", "count", "negative", "decrease") and len(row) < len(names):
            continue  # a blank or short row the other fault planted
        if fault == "arity":
            rows[i] = row[:-1] if draw(st.booleans()) else [*row, "0"]
        elif fault == "date":
            row[date_at] = draw(st.sampled_from(BAD_DATES))
        elif fault in ("count", "negative", "decrease"):
            j = draw(st.sampled_from(column))
            if fault == "count":
                row[j] = draw(st.sampled_from(BAD_COUNTS))
            elif fault == "negative":
                row[j] = str(-draw(st.integers(1, 2**70)))
            elif row[j].isdigit() and int(row[j]) > 0:
                row[j] = str(int(row[j]) - draw(st.integers(1, int(row[j]))))
        elif fault == "duplicate":
            rows.insert(i, list(row))
        elif fault == "order" and len(rows) > 1:
            j = (i + 1) % len(rows)
            rows[i], rows[j] = rows[j], rows[i]
        elif fault == "blank":
            rows.insert(i, draw(st.sampled_from([[], [""], [" "] * len(names)])))
        elif fault == "crlf":
            newline = "\r\n"
    text = newline.join(",".join(r) for r in [header, *rows]) + newline
    return ("\ufeff" + text) if "bom" in faults else text


def parse_outcome(parse, text, allow_corrections):
    """The dataset's dates, column bytes and flag, or the error's type, message and line."""
    try:
        ds = parse(text, allow_corrections=allow_corrections)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    columns = tuple((getattr(ds, t).dtype, getattr(ds, t).tobytes()) for t in TARGETS)
    return ds.dates, columns, ds.corrections_allowed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=faulty_csv())
@example(text="")
@example(text="Date,Confirmed,Deaths,Recovered\n")
@example(text="Date,Confirmed,Deaths,Recovered\n\n ,,, \n")
@example(text=GOOD)
def test_parse_csv_appends_each_row_as_the_two_pass_parser_did(text):
    for allow in (False, True):
        got = parse_outcome(parse_csv, text, allow)
        assert got == parse_outcome(oracle_parse_csv, text, allow)
        event(got[0].__name__ if isinstance(got[0], type) else "parsed")
