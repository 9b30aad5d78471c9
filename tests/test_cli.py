import json
import os

import numpy as np
import pytest

from loop_oracle import loop_design
from mtgee.cli import (
    DatasetSpec,
    json_dumps,
    next_design,
    parse_dataset,
    run_command,
)
from mtgee.errors import ContractError, DataError

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


def test_cli_numerical_failure_exit_3(capsys):
    # explosive design trips the generation guard -> numerical failure
    argv = [
        "simulate", "--truth", "independence", "--beta0", "1.2,0.5",
        "--n", "500", "--m", "3", "--s", "4", "--seed", "0",
    ]
    assert run_command(argv) == 3


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
