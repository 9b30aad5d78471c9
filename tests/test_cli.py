import json
import os

import numpy as np
import pytest

from loop_oracle import loop_design
from mtgee import corr, model, simgen
from mtgee.cli import (
    DatasetSpec,
    build_parser,
    json_dumps,
    next_design,
    parse_dataset,
    run_command,
)
from mtgee.errors import ContractError, DataError
from mtgee.estfun import EstimatingContext, fit
from mtgee.model import get_link, moment_arrays

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "data", "wind_synthetic.csv")

WIDE_5ROWS = """date,y_a,y_b,y_c,z_a,z_b,z_c
d1,1.0,2.0,3.0,10,11,12
d2,1.5,2.5,3.5,10,11,12
d3,2.0,3.0,4.0,13,14,15
d4,2.5,3.5,4.5,13,14,15
d5,3.0,4.0,5.0,16,17,18
"""


def wide_spec(path, **kw):
    defaults = dict(
        path=str(path),
        layout="wide",
        response_cols=["y_a", "y_b", "y_c"],
        exog_cols=[["z_a", "z_b", "z_c"]],
        lags=2,
        intercept=True,
    )
    defaults.update(kw)
    return DatasetSpec(**defaults)


@pytest.fixture
def wide_file(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(WIDE_5ROWS)
    return path


def test_parse_wide_shapes(wide_file):
    series = parse_dataset(wide_spec(wide_file))
    assert (series.n, series.m, series.p) == (3, 3, 4)
    # row for unit a at the first step: intercept, y lag1, y lag2, exog
    assert np.array_equal(series.Xs[0][0], [1.0, 1.5, 1.0, 13.0])
    assert np.array_equal(series.ys[0], [2.0, 3.0, 4.0])


def test_parse_wide_no_intercept_no_exog(wide_file):
    series = parse_dataset(wide_spec(wide_file, exog_cols=[], intercept=False, lags=1))
    assert (series.n, series.m, series.p) == (4, 3, 1)


def test_parse_wind_shaped_file(tmp_path):
    # 366 rows, two of them seeding the lags: n = 364, p = 4
    rng = np.random.default_rng(0)
    lines = ["date,w1,w2,w3,t1,t2,t3"]
    for i in range(366):
        vals = np.round(rng.uniform(2, 8, size=3), 2)
        temps = np.round(rng.uniform(30, 60, size=3), 1)
        lines.append(f"r{i}," + ",".join(map(str, vals)) + "," + ",".join(map(str, temps)))
    path = tmp_path / "wind366.csv"
    path.write_text("\n".join(lines) + "\n")
    spec = DatasetSpec(
        path=str(path),
        response_cols=["w1", "w2", "w3"],
        exog_cols=[["t1", "t2", "t3"]],
        lags=2,
    )
    series = parse_dataset(spec)
    assert (series.n, series.m, series.p) == (364, 3, 4)


def test_imputation_nearest_with_tie_prefers_earlier(tmp_path):
    path = tmp_path / "missing.csv"
    path.write_text(
        "t,y1,z1\n"
        "1,1.0,5.0\n"
        "2,1.1,\n"      # equidistant neighbours at t=1 (5.0) and t=3 (9.0)
        "3,1.2,9.0\n"
        "4,1.3,7.0\n"
    )
    spec = DatasetSpec(
        path=str(path), response_cols=["y1"], exog_cols=[["z1"]], lags=1
    )
    series = parse_dataset(spec)
    # step for row index 1 carries the imputed exog value from the earlier tie
    assert series.Xs[0][0, -1] == 5.0


def test_imputation_none_rejects_missing(tmp_path):
    path = tmp_path / "missing.csv"
    path.write_text("t,y1,z1\n1,1.0,5.0\n2,1.1,\n3,1.2,9.0\n")
    spec = DatasetSpec(
        path=str(path), response_cols=["y1"], exog_cols=[["z1"]], lags=1, impute="none"
    )
    with pytest.raises(DataError):
        parse_dataset(spec)


def test_missing_response_is_hard_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y1\n1,1.0\n2,\n3,1.2\n")
    with pytest.raises(DataError, match="never imputed"):
        parse_dataset(DatasetSpec(path=str(path), response_cols=["y1"], lags=1))


def test_ragged_row_reports_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("t,y1\n1,1.0\n2,1.0,extra\n")
    with pytest.raises(DataError, match="line 3"):
        parse_dataset(DatasetSpec(path=str(path), response_cols=["y1"], lags=0))


def test_wide_cell_error_names_the_file_line_after_blank_lines(tmp_path):
    path = tmp_path / "blank_lines.csv"
    path.write_text("t,y1\n1,1.0\n\n\n3,x\n")  # '3,x' is on line 5
    with pytest.raises(DataError, match="cannot parse 'x' at line 5,"):
        parse_dataset(DatasetSpec(path=str(path), response_cols=["y1"], lags=0))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("text, layout, message", [
    ("t,y1\n1,1.0\n\n3,x\n", "wide", "cannot parse 'x' at line 4,"),
    ('t,y1\n"1\n",1.0\n2,1.0,extra\n', "wide", "ragged row at line 4 "),
    ("time,unit,y\n1,a,1.0\n\n1,a,2.0\n", "long",
     "duplicate row for time '1', unit 'a' at line 4"),
])
def test_error_line_when_the_data_comes_through_a_pipe(capsys, text, layout, message):
    """A pipe can be read only once; the line number must come from that one read."""
    read, write = os.pipe()
    os.write(write, text.encode())
    os.close(write)
    argv = ["fit", "--data", f"/dev/fd/{read}", "--layout", layout, "--response",
            "y" if layout == "long" else "y1", "--lags", "0", "--method", "linear"]
    if layout == "long":
        argv += ["--time-col", "time", "--unit-col", "unit"]
    try:
        assert run_command(argv) == 2
    finally:
        os.close(read)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["inf", " -nan ", "-Infinity", "1e999"])
def test_wide_non_finite_response_is_data_error(tmp_path, capsys, cell):
    path = tmp_path / "non_finite.csv"
    path.write_text(f"t,y1,y2\n1,1.0,2.0\n2,1.5,{cell}\n3,1.2,2.2\n")
    argv = ["fit", "--data", str(path), "--response", "y1,y2", "--lags", "0",
            "--method", "linear"]
    assert run_command(argv) == 2
    assert capsys.readouterr().err == (
        f"data error: {path}: non-finite response value {cell.strip()!r} at line 3, "
        "column 'y2' (responses must be finite)\n"
    )


def test_wide_non_finite_exogenous_cell_is_imputed(tmp_path):
    path = tmp_path / "exog_inf.csv"
    path.write_text("t,y1,z1\n1,1.0,5.0\n2,1.1,inf\n3,1.2,9.0\n")
    series = parse_dataset(DatasetSpec(path=str(path), response_cols=["y1"],
                                       exog_cols=[["z1"]], lags=0))
    assert np.array_equal(series.Xs[:, 0, 1], [5.0, 5.0, 9.0])


def test_long_non_finite_response_is_data_error(tmp_path):
    path = tmp_path / "long_non_finite.csv"
    # the first copy of (2, a) reads -nan; the second copy, on line 6, is a duplicate
    path.write_text("time,unit,y\n1,a,1.0\n1,b,2.0\n2,b,2.5\n2,a,-nan\n2,a,1.7\n")
    spec = DatasetSpec(
        path=str(path), layout="long", response_cols=["y"],
        time_col="time", unit_col="unit", lags=0,
    )
    with pytest.raises(DataError, match="non-finite response value '-nan' at line 5, column 'y'"):
        parse_dataset(spec)
    path.write_text("time,unit,y\n1,a,1.0\n1,b,inf\n2,a,1.5\n2,b,2.5\n")
    with pytest.raises(DataError, match="non-finite response value 'inf' at line 3, column 'y'"):
        parse_dataset(spec)


@pytest.mark.parametrize("cell", ["nan", " inf", "-Infinity", "1e999"])
def test_long_non_finite_time_is_data_error(tmp_path, capsys, cell):
    # a NaN time key made the time order depend on the string hash seed; the
    # first such cell in file order is reported (line 4, not line 6)
    path = tmp_path / "long_time.csv"
    path.write_text(f"time,unit,y\n1,a,1.0\n1,b,2.0\n{cell},a,1.5\n2,b,2.5\n{cell},b,1.7\n")
    argv = ["fit", "--data", str(path), "--layout", "long", "--response", "y",
            "--time-col", "time", "--unit-col", "unit", "--lags", "0", "--method", "linear"]
    assert run_command(argv) == 2
    want = f"non-finite time value {cell.strip()!r} at line 4, column 'time'"
    assert capsys.readouterr().err == f"data error: {path}: {want}\n"


def test_responses_never_modified_by_imputation(wide_file):
    series = parse_dataset(wide_spec(wide_file))
    raw = np.array([[2.0, 3.0, 4.0], [2.5, 3.5, 4.5], [3.0, 4.0, 5.0]])
    assert np.array_equal(series.ys, raw)


def test_long_layout_missing_pair_is_data_error(tmp_path):
    path = tmp_path / "long_missing.csv"
    path.write_text("time,unit,y\n1,a,1.0\n1,b,2.0\n2,a,1.5\n")  # (2, b) absent
    spec = DatasetSpec(
        path=str(path), layout="long", response_cols=["y"],
        time_col="time", unit_col="unit", lags=0,
    )
    with pytest.raises(DataError, match="no response observation"):
        parse_dataset(spec)


# (time 2, unit a) appears twice; the second copy is on line 5
LONG_DUPLICATE = "time,unit,y\n1,a,1.0\n1,b,2.0\n2,a,1.5\n2,a,1.7\n2,b,2.5\n3,a,1.6\n3,b,2.6\n"


def test_long_layout_duplicate_pair_is_data_error(tmp_path):
    path = tmp_path / "long_duplicate.csv"
    path.write_text(LONG_DUPLICATE)
    spec = DatasetSpec(
        path=str(path), layout="long", response_cols=["y"],
        time_col="time", unit_col="unit", lags=0,
    )
    with pytest.raises(DataError, match="duplicate row for time '2', unit 'a' at line 5"):
        parse_dataset(spec)


def test_long_layout_duplicate_names_the_file_line_after_blank_lines(tmp_path):
    path = tmp_path / "long_blank_lines.csv"
    # two blank lines, then the second copy of (time 2, unit a) on line 7
    path.write_text("time,unit,y\n1,a,1.0\n1,b,2.0\n\n\n2,a,1.5\n2,a,1.7\n2,b,2.5\n")
    spec = DatasetSpec(
        path=str(path), layout="long", response_cols=["y"],
        time_col="time", unit_col="unit", lags=0,
    )
    with pytest.raises(DataError, match="duplicate row for time '2', unit 'a' at line 7"):
        parse_dataset(spec)


def test_cli_long_layout_duplicate_pair_exit_2(tmp_path, capsys):
    path = tmp_path / "long_duplicate.csv"
    path.write_text(LONG_DUPLICATE)
    argv = ["fit", "--data", str(path), "--layout", "long", "--response", "y",
            "--time-col", "time", "--unit-col", "unit", "--lags", "0",
            "--method", "linear"]
    assert run_command(argv) == 2
    assert "duplicate row" in capsys.readouterr().err


WIDE_REPEATED = "t,y1,y1,z,z\n1,1.0,2.0,5.0,6.0\n2,1.1,2.1,5.5,6.5\n3,1.2,2.2,9.0,9.5\n"
LONG_REPEATED = "time,unit,y,x,x\n1,a,1.0,5.0,6.0\n1,b,2.0,5.5,6.5\n2,a,1.1,5.2,6.2\n2,b,2.1,5.7,6.7\n"


@pytest.mark.parametrize("text, flags, name", [
    (WIDE_REPEATED, ["--response", "y1"], "y1"),
    (WIDE_REPEATED, ["--response", "t", "--exog", "z"], "z"),
    (LONG_REPEATED, ["--layout", "long", "--response", "y", "--exog", "x"], "x"),
    (LONG_REPEATED, ["--layout", "long", "--response", "y", "--unit-col", "x"], "x"),
], ids=["wide_response", "wide_exog", "long_exog", "long_unit"])
def test_a_repeated_column_that_the_spec_reads_is_a_data_error(tmp_path, capsys, text, flags,
                                                              name):
    # neither copy is read (the last --unit-col flag wins)
    path = tmp_path / "repeated.csv"
    path.write_text(text)
    argv = ["fit", "--data", str(path), "--lags", "0", "--method", "linear",
            "--time-col", "time", "--unit-col", "unit"] + flags
    assert run_command(argv) == 2
    want = f"data error: {path}: column {name!r} appears 2 times in header\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("text, spec, ys", [
    (WIDE_REPEATED, dict(response_cols=["t"]), [[2.0], [3.0]]),
    (LONG_REPEATED, dict(layout="long", response_cols=["y"], time_col="time", unit_col="unit"),
     [[1.1, 2.1]]),
], ids=["wide", "long"])
def test_a_repeated_column_that_the_spec_does_not_read_is_allowed(tmp_path, text, spec, ys):
    path = tmp_path / "repeated.csv"
    path.write_text(text)
    series = parse_dataset(DatasetSpec(path=str(path), lags=1, **spec))
    assert np.array_equal(series.ys, ys)


@pytest.mark.parametrize("text, layout, column", [
    ("t,y1,y2,z1,z2\n1,1.0,2.0,5.0,NA\n2,1.1,2.1,,\n3,1.2,2.2,6.0,nan\n", "wide", "column 'z2'"),
    ("time,unit,y,x\n1,a,1.0,5.0\n1,b,2.0,NA\n2,a,1.1,\n2,b,2.1,\n", "long",
     "column 'x' of unit 'b'"),
], ids=["wide", "long"])
def test_an_exogenous_series_with_nothing_to_impute_from_is_named(tmp_path, text, layout, column):
    path = tmp_path / "empty_exog.csv"
    path.write_text(text)
    if layout == "wide":
        spec = DatasetSpec(path=str(path), response_cols=["y1", "y2"],
                           exog_cols=[["z1", "z2"]], lags=0)
    else:
        spec = DatasetSpec(path=str(path), layout="long", response_cols=["y"],
                           exog_cols=["x"], time_col="time", unit_col="unit", lags=0)
    with pytest.raises(DataError) as err:
        parse_dataset(spec)
    assert str(err.value) == f"{path}: {column} is entirely missing; nothing to impute from"


def test_dataset_spec_validation():
    with pytest.raises(ContractError):
        DatasetSpec(path="x.csv", layout="diagonal", response_cols=["y"])
    with pytest.raises(ContractError):
        DatasetSpec(path="x.csv", response_cols=["y"], lags=-1)
    with pytest.raises(ContractError):
        DatasetSpec(path="x.csv", response_cols=["y"], impute="linear")
    with pytest.raises(ContractError):
        DatasetSpec(path="x.csv", response_cols=[])


def test_long_layout_matches_wide(tmp_path, wide_file):
    rows = ["time,unit,y,z"]
    wide_rows = WIDE_5ROWS.strip().splitlines()[1:]
    for t, line in enumerate(wide_rows):
        cells = line.split(",")
        for j, unit in enumerate(["a", "b", "c"]):
            rows.append(f"{t},{unit},{cells[1 + j]},{cells[4 + j]}")
    long_path = tmp_path / "long.csv"
    long_path.write_text("\n".join(rows) + "\n")
    long_spec = DatasetSpec(
        path=str(long_path),
        layout="long",
        response_cols=["y"],
        exog_cols=["z"],
        time_col="time",
        unit_col="unit",
        lags=2,
    )
    a = parse_dataset(long_spec)
    b = parse_dataset(wide_spec(wide_file))
    assert np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.Xs, b.Xs)


def test_next_design_carries_exog_forward(wide_file):
    spec = wide_spec(wide_file)
    x_next = next_design(spec, parse_dataset(spec))
    # intercept, last row, second-to-last row, exog carried from the last row
    assert np.array_equal(x_next[0], [1.0, 3.0, 2.5, 16.0])


def _design_fixture(tmp_path, layout):
    """14 days x 3 units with two exogenous variables, a few exogenous cells missing;
    the long copy lists its rows in shuffled order."""
    rng = np.random.default_rng(17)
    T, units = 14, ["a", "b", "c"]
    y = rng.normal(size=(T, 3)).round(3)
    z = rng.normal(size=(T, 3, 2)).round(3).astype(object)
    z[0, 1, 0] = z[6, 2, 1] = z[13, 0, 0] = ""
    path = tmp_path / f"{layout}.csv"
    if layout == "wide":
        head = [f"y_{u}" for u in units] + [f"z{v}_{u}" for v in (1, 2) for u in units]
        lines = [",".join(["day"] + head)]
        for t in range(T):
            cells = [str(y[t, j]) for j in range(3)]
            cells += [str(z[t, j, v]) for v in range(2) for j in range(3)]
            lines.append(",".join([f"d{t}"] + cells))
    else:
        lines = ["day,unit,y,z1,z2"]
        body = [f"{t},{u},{y[t, j]},{z[t, j, 0]},{z[t, j, 1]}"
                for t in range(T) for j, u in enumerate(units)]
        lines += [body[k] for k in rng.permutation(len(body))]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("layout", ["wide", "long"])
@pytest.mark.parametrize("exog", [True, False])
@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("lags", [0, 1, 2, 3])
def test_sliced_design_matches_row_by_row(tmp_path, layout, exog, intercept, lags):
    path = _design_fixture(tmp_path, layout)
    units = ["a", "b", "c"]
    if layout == "wide":
        kw = dict(response_cols=[f"y_{u}" for u in units],
                  exog_cols=[[f"z{v}_{u}" for u in units] for v in (1, 2)] if exog else [])
    else:
        kw = dict(response_cols=["y"], exog_cols=["z1", "z2"] if exog else [],
                  time_col="day", unit_col="unit")
    spec = DatasetSpec(path=str(path), layout=layout, lags=lags, intercept=intercept, **kw)
    if not (exog or intercept or lags):
        with pytest.raises(ContractError, match="design has zero columns"):
            parse_dataset(spec)
        return
    series = parse_dataset(spec)
    Xs, x_next = loop_design(spec)
    assert series.Xs.shape == Xs.shape and np.array_equal(series.Xs, Xs)
    got = next_design(spec, series)
    assert got.shape == x_next.shape and np.array_equal(got, x_next)


def test_json_dumps_17_digit_roundtrip():
    values = [0.1, 1 / 3, 2.0**-520, 1.7976931348623157e308, 0.95]
    parsed = json.loads(json_dumps({"v": values}))
    assert parsed["v"] == values


def test_emit_report_roundtrip_structures():
    payload = {"schema": "mtgee/1", "beta": [0.1, -2.5], "nested": {"ok": True, "x": None}}
    assert json.loads(json_dumps(payload)) == payload


# ---------------------------------------------------------------------------
# end-to-end command runs
# ---------------------------------------------------------------------------

FIT_ARGV = [
    "fit",
    "--data", FIXTURE,
    "--response", "wind_s1,wind_s2,wind_s3",
    "--exog", "airtemp_s1,airtemp_s2,airtemp_s3",
    "--lags", "2",
    "--method", "two_step",
]


def test_cli_fit_on_fixture(tmp_path, capsys):
    assert run_command(FIT_ARGV) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "mtgee/1"
    assert len(payload["result"]["beta_hat"]) == 4
    assert len(payload["result"]["cis"]) == 4
    assert len(payload["result"]["prediction"]) == 3
    assert payload["diagnostics"] is None


def test_cli_two_step_is_the_linear_fit_with_the_two_step_provider(capsys):
    # --method two_step is the closed form with the two-step provider; the
    # 17-digit JSON floats round-trip to that fit's beta bit for bit
    assert run_command(FIT_ARGV) == 0
    beta = json.loads(capsys.readouterr().out)["result"]["beta_hat"]
    series = parse_dataset(DatasetSpec(
        path=FIXTURE, response_cols=["wind_s1", "wind_s2", "wind_s3"],
        exog_cols=[["airtemp_s1", "airtemp_s2", "airtemp_s3"]], lags=2,
    ))
    ctx = EstimatingContext(data=series, link=get_link("identity"), corr=corr.two_step(3))
    assert np.array_equal(np.array(beta), fit(ctx, "linear").beta_hat)


def test_cli_fit_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_command(FIT_ARGV + ["--output", str(out1)]) == 0
    assert run_command(FIT_ARGV + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_missing_file_exit_2(capsys):
    assert run_command(["fit", "--data", "/no/such/file.csv", "--response", "y"]) == 2


def test_cli_method_mismatch_exit_1(capsys):
    argv = [a for a in FIT_ARGV]
    argv[argv.index("two_step")] = "linear"
    assert run_command(argv + ["--link", "logistic"]) == 1


def test_cli_bad_flag_exit_1(capsys):
    assert run_command(["fit", "--data", "x.csv", "--response", "y", "--method", "bogus"]) == 1
    assert run_command(["simulate", "--design", "ar2"]) == 1


@pytest.mark.parametrize("threads", ["0", "-1", "abc"])
def test_cli_bad_thread_count_is_a_usage_error(monkeypatch, capsys, threads):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("MTGEE_THREADS", threads)
    argv = ["simulate", "--n", "30", "--m", "2", "--s", "4", "--parallel"]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: MTGEE_THREADS must be a positive integer, got {threads!r}\n"


def test_cli_numerical_failure_exit_3(capsys):
    # explosive design trips the generation guard -> numerical failure
    argv = [
        "simulate", "--truth", "independence", "--beta0", "1.2,0.5",
        "--n", "500", "--m", "3", "--s", "4", "--seed", "0",
    ]
    assert run_command(argv) == 3


def test_cli_non_finite_output_exit_3(capsys):
    # a perturbation budget of 1e100 overflows the determinant ratios to NaN
    argv = ["diagnose", "--data", FIXTURE, "--response", "wind_s1,wind_s2,wind_s3",
            "--method", "linear", "--corr", "cs", "--d-grid", "0,1e100"]
    with np.errstate(all="ignore"):
        assert run_command(argv) == 3
    assert capsys.readouterr().err.endswith(
        "numerical failure: cannot serialize non-finite float to JSON\n")


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_cli_non_finite_budget_exit_1(capsys, budget):
    argv = ["diagnose", "--data", FIXTURE, "--response", "wind_s1,wind_s2,wind_s3",
            "--d-grid", f"0,{budget}"]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    want = f"usage error: budgets must be finite, got [0.0, {budget}]\n"
    assert (captured.out, captured.err) == ("", want)


def test_every_provider_name_is_a_key_of_the_one_table():
    # the --corr choices, --method two_step and every study column but the
    # reference name a provider of corr.PROVIDERS
    fit_command = next(action for action in build_parser()._actions
                       if action.dest == "command").choices["fit"]
    choices = next(action.choices for action in fit_command._actions if action.dest == "corr")
    names = set(choices) | {"two_step"} | set(simgen.ESTIMATORS) - {"quasi_true"}
    assert names <= set(corr.PROVIDERS)
    assert "quasi_true" in simgen.ESTIMATORS


def test_fit_help_lists_the_choices_of_the_tables(capsys):
    # --corr lists corr.PROVIDERS but the --method two_step plug-in, and --link
    # lists model.LINKS, in table order
    assert run_command(["fit", "--help"]) == 0
    usage = " ".join(capsys.readouterr().out.split())
    corr_names = ",".join(name for name in corr.PROVIDERS if name != "two_step")
    assert f"[--corr {{{corr_names}}}]" in usage
    assert f"[--link {{{','.join(model.LINKS)}}}]" in usage
    assert corr_names == "independence,cs,ar1,empirical"
    assert list(model.LINKS) == ["identity", "logistic", "exponential"]


def test_cli_overflowing_refit_is_a_numerical_failure_exit_3(capsys):
    # a budget of 1e200 overflows the two-step refit's normal matrix to inf;
    # its rank test rejects it instead of handing it to eigvalsh
    argv = ["diagnose", "--data", FIXTURE, "--response", "wind_s1,wind_s2,wind_s3",
            "--d-grid", "0,1e200"]
    with np.errstate(all="ignore"):
        assert run_command(argv) == 3
    assert capsys.readouterr().err == "numerical failure: normal matrix is not finite\n"


@pytest.mark.parametrize("flags, message", [
    (["--tol", "nan"], "tol must be finite and > 0, got nan"),
    (["--tol", "-1"], "tol must be finite and > 0, got -1.0"),
    (["--tol", "inf"], "tol must be finite and > 0, got inf"),
    (["--max-iter", "-3"], "max_iter must be >= 0, got -3"),
])
def test_cli_bad_newton_settings_exit_1(capsys, flags, message):
    argv = ["fit", "--data", FIXTURE, "--response", "wind_s1,wind_s2,wind_s3",
            "--method", "newton", "--corr", "cs"] + flags
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {message}\n")


def test_cli_simulate_non_finite_beta0_exit_1(capsys):
    argv = ["simulate", "--n", "50", "--m", "2", "--s", "4", "--beta0", "inf,0"]
    assert run_command(argv) == 1
    assert capsys.readouterr().err == "usage error: beta0 must be finite, got (inf, 0.0)\n"


def test_cli_intercept_flag_is_accepted(capsys):
    configs = []
    for flag in ("--intercept", "--no-intercept"):
        assert run_command(FIT_ARGV + [flag]) == 0
        configs.append(json.loads(capsys.readouterr().out)["config"])
    assert configs[0]["intercept"] is True and configs[1]["intercept"] is False
    assert configs[1]["p"] == configs[0]["p"] - 1


def test_fit_json_parse_serialize_idempotent(tmp_path):
    out = tmp_path / "fit.json"
    assert run_command(FIT_ARGV + ["--output", str(out)]) == 0
    text = out.read_text()
    assert json_dumps(json.loads(text)) == text


def test_cli_simulate_tables(tmp_path, capsys):
    argv = [
        "simulate", "--truth", "cs", "--alpha", "0.7",
        "--n", "80", "--m", "3", "--s", "12", "--seed", "5",
        "--output", str(tmp_path / "sim"),
    ]
    assert run_command(argv) == 0
    payload = json.loads((tmp_path / "sim.json").read_text())
    assert payload["command"] == "simulate"
    assert len(payload["reports"]) == 1
    table2 = (tmp_path / "sim_table2.csv").read_text().splitlines()
    assert table2[0] == "estimator,truth,component,value"
    assert len(table2) == 1 + 5 * 1 * 2  # header + estimators x truths x p


def test_cli_simulate_deterministic(tmp_path):
    argv = [
        "simulate", "--truth", "ar1", "--n", "60", "--m", "3",
        "--s", "8", "--seed", "9",
    ]
    a, b = tmp_path / "r1", tmp_path / "r2"
    assert run_command(argv + ["--output", str(a)]) == 0
    assert run_command(argv + ["--output", str(b)]) == 0
    assert (a.parent / "r1.json").read_bytes() == (b.parent / "r2.json").read_bytes()
    assert (a.parent / "r1_table2.csv").read_bytes() == (b.parent / "r2_table2.csv").read_bytes()


def test_replicate_tables_is_the_three_simulate_runs(tmp_path):
    common = ["--n", "60", "--m", "3", "--s", "4", "--seed", "11"]
    assert run_command(["replicate-tables", *common, "--output", str(tmp_path / "grid")]) == 0
    reports, tables = [], {"table1": [], "table2": []}
    for truth in ("independence", "cs", "ar1"):
        argv = ["simulate", "--truth", truth, *common, "--output", str(tmp_path / truth)]
        assert run_command(argv) == 0
        reports += json.loads((tmp_path / f"{truth}.json").read_text())["reports"]
        for name, rows in tables.items():
            rows += (tmp_path / f"{truth}_{name}.csv").read_text().splitlines()[1:]
    assert json.loads((tmp_path / "grid.json").read_text())["reports"] == reports
    for name, rows in tables.items():
        assert (tmp_path / f"grid_{name}.csv").read_text().splitlines()[1:] == rows


def test_cli_diagnose_payload(capsys):
    argv = [
        "diagnose",
        "--data", FIXTURE,
        "--response", "wind_s1,wind_s2,wind_s3",
        "--lags", "2",
        "--method", "two_step",
        "--d-grid", "0,0.01",
    ]
    assert run_command(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    diag = payload["diagnostics"]
    assert set(diag) == {"conditions", "leverage", "optimality", "perturbation"}
    assert diag["perturbation"]["perturb_drift"][0] == 0
    assert diag["conditions"]["verdicts"]["D"] in {"supported", "violated", "inconclusive"}


def test_cli_diagnose_with_empirical_provider(capsys):
    argv = [
        "diagnose",
        "--data", FIXTURE,
        "--response", "wind_s1,wind_s2,wind_s3",
        "--lags", "2",
        "--method", "linear",
        "--corr", "empirical",
    ]
    assert run_command(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"]["optimality"]["det_ratio_H"]


def test_cli_diagnose_reference_correlation_is_the_running_regulariser(capsys):
    # rbar regularises the full-sample average of the standardized residual
    # outer products at the fitted beta, as a running average of n steps is
    argv = ["diagnose", "--data", FIXTURE, "--response", "wind_s1,wind_s2,wind_s3",
            "--lags", "2", "--method", "two_step"]
    assert run_command(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    series = parse_dataset(DatasetSpec(path=FIXTURE, layout="wide",
                                       response_cols=["wind_s1", "wind_s2", "wind_s3"],
                                       exog_cols=[], lags=2))
    beta = np.array(payload["result"]["beta_hat"])
    _, _, eps = moment_arrays(series.Xs, series.ys, beta, get_link("identity"))
    avg = np.mean(eps[:, :, None] * eps[:, None, :], axis=0)
    want = corr.regularized_empirical(avg[None], np.array([series.n]))[0]
    assert np.array_equal(np.array(payload["diagnostics"]["optimality"]["reference_correlation"]),
                          want)


def test_cli_predict_reduced_model(capsys):
    argv = [
        "predict",
        "--data", FIXTURE,
        "--response", "wind_s1,wind_s2,wind_s3",
        "--lags", "2",
        "--method", "two_step",
    ]
    assert run_command(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["result"]["prediction"]) == 3


def write_binary_long(path, days=400, m=4, seed=3):
    """Shuffled long CSV of 0/1 responses whose log-odds load on lag 1 and on x1."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(days, m))
    y = np.zeros((days, m))
    for t in range(1, days):
        theta = -0.4 + 0.9 * y[t - 1] + 0.7 * x[t]
        y[t] = rng.uniform(size=m) < 1.0 / (1.0 + np.exp(-theta))
    rows = [f"{t},u{j},{int(y[t, j])},{x[t, j]:.6f}" for t in range(days) for j in range(m)]
    rng.shuffle(rows)
    path.write_text("\n".join(["day,station,y,x1"] + rows) + "\n")


def test_cli_diagnose_passes_tol_and_max_iter(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    write_binary_long(path)
    base = ["--data", str(path), "--layout", "long", "--time-col", "day",
            "--unit-col", "station", "--response", "y", "--exog", "x1", "--lags", "2",
            "--link", "logistic", "--method", "newton", "--corr", "cs"]

    def beta_of(argv):
        assert run_command(argv) == 0
        return json.loads(capsys.readouterr().out)["result"]["beta_hat"]

    converged = beta_of(["fit"] + base)
    for flags in (["--max-iter", "1"], ["--tol", "1e-2"]):
        early = beta_of(["fit"] + base + flags)
        assert early != converged
        assert beta_of(["diagnose"] + base + flags) == early
