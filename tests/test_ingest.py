"""The columnar CSV loader against the cell-by-cell oracle, on generated files.

Every generated file is read by ``cli._load_arrays`` and by
``loop_oracle.cell_load_arrays``; both must give bit-identical (Y, Z) or
raise the same exception with the same text.  The files mix padded, quoted
and multi-line cells, missing tokens in mixed case, unparsable and
non-finite cells, blank and whitespace-only rows, ragged rows, shuffled long
rows with numeric and non-numeric time keys, keys that differ only in a
trailing NUL, duplicated (time, unit) rows and absent ones, and headers
that repeat a column name, read or not.  The loader reads the file a chunk
of rows at a time; the comparisons also run with chunks of one to three rows,
so that blank rows, multi-line rows and faulty rows fall in later chunks.
"""

import csv
import gc
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loop_oracle import cell_load_arrays
from mtgee import cli
from mtgee.cli import DatasetSpec, _load_arrays, parse_dataset
from mtgee.errors import ContractError

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "data", "wind_synthetic.csv")

NUMBERS = st.one_of(
    st.integers(-999, 999).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: format(v, ".3f")),
    st.sampled_from(["1_0", "+.5", "5.", "-0", "1E2", " 7 ", "\x1c4"]),
)
MISSING = st.sampled_from(["", " ", "NA", "na", "Na", "NaN", "nan", "NULL", "null",
                           "None", "nOnE", " NA "])
BAD = st.sampled_from(["x", "1,5", "1\n2", "1\r2", "1\r\n2", "inf", "-Infinity", "-nan",
                       "+NaN", "1e999", "nan(1)", "--1", "0x10", "1__0", "\x001"])
PADS = st.sampled_from(["", "", " ", "  ", "\t"])
BLANK_ROWS = st.sampled_from([[], [""], ["  "], [" ", "\t"], ["", "", ""], [" \n", "\r\n\r"]])


@st.composite
def cells(draw, missing, bad):
    """One cell: mostly a number, a missing token or a bad cell when allowed, padded."""
    kinds = [NUMBERS] * 6 + ([MISSING] if missing else []) + ([BAD] if bad else [])
    return draw(PADS) + draw(st.one_of(*kinds)) + draw(PADS)


@st.composite
def csv_text(draw, header, rows):
    """``header`` and ``rows`` as CSV, with blank rows inserted and maybe one ragged row."""
    rows = [list(row) for row in rows]
    if rows and draw(st.integers(0, 9)) == 0:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()) and len(row) > 1:
            row.pop()
        else:
            row.append("extra")
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(BLANK_ROWS))
    lead = draw(st.lists(BLANK_ROWS, max_size=2))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    out = []

    class Sink:
        write = out.append

    writer = csv.writer(Sink(), quoting=quoting, lineterminator=terminator)
    writer.writerows(lead + [header] + rows)
    return "".join(out)


def repeat_header_name(draw, header):
    """Now and then, one header cell takes the name of another."""
    if len(header) > 1 and draw(st.integers(0, 9)) == 0:
        source, target = draw(st.permutations(range(len(header))))[:2]
        header[target] = header[source]


@st.composite
def wide_files(draw):
    """(CSV text, DatasetSpec keywords) of a wide file."""
    m, q, T = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 7))
    missing_y, missing_z, bad = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    response = [f"y{j}" for j in range(m)]
    exog = [[f"z{v}_{j}" for j in range(m)] for v in range(q)]
    names = ["date"] + response + [c for group in exog for c in group]
    order = draw(st.permutations(range(len(names))))
    rows = []
    for t in range(T):
        row = [f"d{t}"] + [draw(cells(missing_y and t % 3 == 1, bad and t % 2 == 0))
                           for _ in response]
        row += [draw(cells(missing_z, bad and t % 3 == 0)) for _ in range(m * q)]
        rows.append([row[k] for k in order])
    header = [draw(PADS) + names[k] + draw(PADS) for k in order]
    repeat_header_name(draw, header)
    if q and draw(st.integers(0, 9)) == 0:
        exog[0] = exog[0][:-1] or exog[0] * 2  # a group that does not list m columns
    impute = draw(st.sampled_from(["nearest", "none"]))
    text = draw(csv_text(header, rows))
    return text, dict(layout="wide", response_cols=response, exog_cols=exog, impute=impute)


TIME_KEYS = st.one_of(
    st.integers(-50, 50).map(str),
    st.integers(-50, 50).map(lambda k: f"{k}.0"),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["d1", "d2", "x", "2020-01-0", "1e1", "inf", "nan", "t\x00", "t"]),
)
UNITS = st.sampled_from(["a", "b", "a\x00", "s 1", "B", "1", "10", "2"])


@st.composite
def long_files(draw):
    """(CSV text, DatasetSpec keywords) of a shuffled long file."""
    times = draw(st.lists(TIME_KEYS, min_size=1, max_size=5, unique_by=str.strip))
    units = draw(st.lists(UNITS, min_size=1, max_size=3, unique=True))
    q = draw(st.integers(0, 2))
    missing_y, missing_z, bad = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    rows = []
    for k, (t, u) in enumerate((t, u) for t in times for u in units):
        row = [draw(PADS) + t + draw(PADS), draw(PADS) + u + draw(PADS),
               draw(cells(missing_y and k % 4 == 1, bad and k % 3 == 0))]
        rows.append(row + [draw(cells(missing_z, bad and k % 2 == 0)) for _ in range(q)])
    if draw(st.integers(0, 4)) == 0:  # a (time, unit) pair left out
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # a (time, unit) pair repeated
        if rows:
            copy = list(rows[draw(st.integers(0, len(rows) - 1))])
            copy[2] = draw(cells(False, bad))
            rows.append(copy)
    rows = draw(st.permutations(rows))
    exog = [f"x{v}" for v in range(q)]
    header = ["day", "unit", "y"] + exog
    repeat_header_name(draw, header)
    impute = draw(st.sampled_from(["nearest", "none"]))
    text = draw(csv_text(header, rows))
    return text, dict(layout="long", response_cols=["y"], exog_cols=exog, time_col="day",
                      unit_col="unit", impute=impute)


def outcome(load, spec):
    """The arrays a loader returns, as bytes and shapes, or its exception and text."""
    try:
        Y, Z = load(spec)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    arrays = (Y,) if Z is None else (Y, Z)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def assert_same_as_oracle(path, **kw):
    groups = kw["exog_cols"] if kw.get("layout", "wide") == "wide" else []
    if any(len(group) != len(kw["response_cols"]) for group in groups):
        # a spec fault, rejected before the file is read
        with pytest.raises(ContractError, match="must list"):
            DatasetSpec(path=str(path), **kw)
        return
    spec = DatasetSpec(path=str(path), **kw)
    assert outcome(_load_arrays, spec) == outcome(cell_load_arrays, spec)


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


@SETTINGS
@given(wide_files())
def test_wide_loader_matches_cell_oracle(tmp_path, file):
    text, kw = file
    path = tmp_path / "wide.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_as_oracle(path, **kw)


@SETTINGS
@given(long_files())
def test_long_loader_matches_cell_oracle(tmp_path, file):
    text, kw = file
    path = tmp_path / "long.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_as_oracle(path, **kw)


SMALL_CHUNKS = pytest.mark.parametrize("chunk", [1, 2, 3])
SMALL_CHUNK_SETTINGS = settings(SETTINGS, max_examples=100)


def assert_file_same_as_oracle(tmp_path, file):
    text, kw = file
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_as_oracle(path, **kw)


@SMALL_CHUNKS
@SMALL_CHUNK_SETTINGS
@given(file=wide_files())
def test_wide_loader_matches_cell_oracle_in_small_chunks(tmp_path, monkeypatch, chunk, file):
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
    assert_file_same_as_oracle(tmp_path, file)


@SMALL_CHUNKS
@SMALL_CHUNK_SETTINGS
@given(file=long_files())
def test_long_loader_matches_cell_oracle_in_small_chunks(tmp_path, monkeypatch, chunk, file):
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
    assert_file_same_as_oracle(tmp_path, file)


def write_long_file(path, days, units, seed, fault=None):
    """A shuffled long file (day, station, y, x1) of ``days`` x ``units`` rows
    with padded cells, blank rows, missing x1 cells (some of them holding line
    breaks, so that some chunks hold multi-line rows) and, past its first
    few thousand rows, one ``fault``: a bad cell, a repeated (day, station), a
    ragged row or a non-finite day."""
    rng = np.random.default_rng(seed)
    rows = [[f" {t + 1}", f"st{u + 1} ", str(int(rng.random() < 0.4)), format(rng.normal(), ".6f")]
            for t in range(days) for u in range(units)]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    for k in rng.choice(len(rows), size=len(rows) // 500, replace=False):
        rows[k][3] = rng.choice(["", "NA", " \n", "\r\n", " \r "])
    late = len(rows) - 1 - int(rng.integers(0, len(rows) // 4))
    if fault == "bad_cell":
        rows[late][2] = "x"
    elif fault == "duplicate":
        rows.insert(late, list(rows[len(rows) // 3]))
    elif fault == "ragged":
        rows[late].append("extra")
    elif fault == "time":
        rows[late][0] = "inf"
    for k in sorted(rng.choice(len(rows), size=20, replace=False), reverse=True):
        rows.insert(int(k), ["", " "] if k % 2 else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([["day", "station", "y", "x1"]] + rows)


LONG_SPEC = dict(layout="long", response_cols=["y"], exog_cols=["x1"], time_col="day",
                 unit_col="station")


@pytest.mark.parametrize("fault", [None, "bad_cell", "duplicate", "ragged", "time"])
def test_a_long_file_of_many_chunks_matches_cell_oracle(tmp_path, fault):
    path = tmp_path / "long.csv"
    write_long_file(path, 1000, 5, seed=3, fault=fault)
    spec = DatasetSpec(path=str(path), **LONG_SPEC)
    result = outcome(_load_arrays, spec)
    assert result == outcome(cell_load_arrays, spec)
    assert isinstance(result, list) == (fault is None)


def test_parsing_a_long_file_runs_no_older_collection(tmp_path):
    """Reading a 36,000-row long file holds no row list beyond its chunk and
    sorts its times by float keys, so it sets off few collections, and none
    of an older generation than the youngest.  The counts depend on
    CPython's collector thresholds: at the default (700, 10, 10), CPython
    3.11 runs none here, where the reader that held one list per row ran 55
    young and 4 older collections."""
    path = tmp_path / "long.csv"
    write_long_file(path, 6000, 6, seed=1)
    spec = DatasetSpec(path=str(path), lags=2, **LONG_SPEC)
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        parse_dataset(spec)
    finally:
        gc.callbacks.remove(count)
    assert set(generations) <= {0}
    assert len(generations) < 15


def test_loader_matches_cell_oracle_on_the_wind_fixture():
    assert_same_as_oracle(FIXTURE, response_cols=["wind_s1", "wind_s2", "wind_s3"],
                          exog_cols=[["airtemp_s1", "airtemp_s2", "airtemp_s3"]])


def test_generated_files_reach_both_outcomes(tmp_path):
    """The strategies give loadable files as well as bad ones."""
    seen = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.one_of(wide_files(), long_files()))
    def classify(file):
        text, kw = file
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            result = outcome(_load_arrays, DatasetSpec(path=str(path), **kw))
        except ContractError:  # a wide exogenous group that does not list m columns
            result = None
        seen.add((kw["layout"], isinstance(result, list)))

    classify()
    assert seen == {("wide", True), ("wide", False), ("long", True), ("long", False)}
