#!/usr/bin/env python3
"""Run a fixed list of CLI commands on two source trees and compare every output byte.

The commands:

- ``fit``, ``predict`` and ``diagnose --d-grid 0,0.01,0.1`` for every
  ``--method`` x ``--corr`` pair on ``data/wind_synthetic.csv`` and on two
  of the benchmark's CSVs, which ``perfbench/inputs.py`` writes for seed 1
  (through ``bench.write_inputs``): the wide wind file in m/s, 5,000 days x
  8 stations, and the long binary file, 6,000 days x 6 stations (logistic
  link, so the closed forms exit 1 there);
- a few error paths: other links on the wind fixture and a bad flag;
- the numerical failures of overflowed input, on two small files written
  next to the benchmark's: a 20-step wide file of 3 responses, one of them
  1e200 (``fit`` and ``diagnose`` with the two-step and running empirical
  plug-ins, and ``diagnose --corr cs``, whose reference correlation
  overflows), and a two-row file whose closed-form root overflows;
- the same failures with one response (m = 1), where an overflowed running
  average is [[inf]], whose inverse is 0: ``fit --method linear``,
  ``fit --method newton`` and ``predict --method linear`` with
  ``--corr empirical`` on a 4-row file (1, 2, 1e200, 3) and a 2-row file
  (1, 1e200);
- ``diagnose --method newton --max-iter 0 --d-grid 0,1e-9`` on the wind
  fixture, whose refits start at the fit's root and take no step, and
  ``diagnose --method newton --corr cs --max-iter 1 --d-grid 0,0.01`` on
  the long binary file, whose refits each take one step from that root;
- the designs that hold their own response, which exit 1: the wind
  fixture with its responses as exogenous, the long binary file with
  ``--exog y``, and the wind fixture with a response column listed twice;
- ``diagnose --method linear`` on a 5-row wide file of 5 units with 2 lags
  and one exogenous variable: fewer steps (3) than regressors (4), but 15
  rows in H'_n;
- ``fit --layout long`` on an 8-day long file of stations numbered 1-3
  whose time, unit and response columns are not three distinct columns
  (time = response, unit = response, time = unit), without ``--time-col``,
  and with the unit column as ``--exog``; each exits 1;
- specs that fail before any file is read, which exit 1: on the wind
  fixture an ``--exog`` group of two columns against three responses and an
  empty ``--exog``, and on the 8-day long file an empty ``--exog``;
- ``fit --method two_step`` and ``fit --method linear --corr empirical`` on
  a copy of the wind fixture with its responses x10;
- ``fit --layout long`` on a shuffled 400-row long file with padded keys,
  blank rows and missing cells that hold line breaks, and on the same file
  with one row repeated at its end, which exits 2 and names its line;
- ``fit`` on a file with a byte that is not UTF-8 and on a file with a cell
  over csv's field limit, which exit 2;
- ``diagnose --delta-grid 0.1,abc``, which exits 1;
- ``simulate --s 50`` and ``replicate-tables --s 50`` with seeds 1 and 3,
  ``simulate --s 50 --truth independence`` and ``--truth ar1``, and
  ``replicate-tables --s 500 --seed 3``;
- ``simulate --s 50 --seed 1 --truth compound_symmetry``, the default
  ``cs`` truth under its ``simgen.TRUTHS`` name, and ``simulate --s 50
  --truth bogus``, which exits 1;
- ``replicate-tables --s 50 --seed 1 --parallel`` and ``simulate --s 50
  --seed 3 --parallel``, which run the study's worker pool on a host with
  two or more usable CPUs.

The files of a command named with a suffix of ``TWIN_SUFFIXES`` (the
``--parallel`` runs and the ``compound_symmetry`` run) must also equal
those of its twin, the same command without the flag the suffix names.
A command on the wind fixture x10 (suffix ``SCALED``) is checked against
its twin on the fixture itself: an identity-link estimator is
scale-equivariant, so the lag coefficients must be equal and the intercept
and air-temperature slopes x10, to ``SCALE_RTOL`` relative.

Each tree (``--baseline-src`` and ``--src``, both ``src`` directories of
an mtgee checkout) runs the whole list in one child process, with BLAS on
one thread and floating-point warnings off, through
``mtgee.cli.run_command``; an exception that escapes it is recorded as the
exit code "raised" with the exception as the stderr text.  Every JSON and
CSV file written, every exit code and every stderr text (the output
directory replaced by ``<out>``) is compared; any difference is printed and the
script exits 1.  A JSON file that differs is reported by JSON path, each
with its largest absolute and relative difference; the path names an
estimator by its label and a Monte Carlo report by its truth, as in
``reports[ar1].estimators[two_step].re``.  A CSV file is reported with the
largest absolute and relative difference over its cells.  A relative difference is |a - b| /
max(|a|, |b|); a difference that is not between two finite numbers counts
as inf.

Usage::

    git archive <parent> src | tar -x -C /tmp/parent
    python scripts/compare_outputs.py --baseline-src /tmp/parent/src --src src
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

from bench import INPUTS, LAGS, LONG_CSV, WIDE_CSV, import_file, write_inputs

inputs = import_file("inputs", INPUTS)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "data",
                       "wind_synthetic.csv")
METHODS = ("two_step", "linear", "newton")
CORRS = ("independence", "cs", "ar1", "empirical")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OVERFLOW_CSV, TWO_ROWS_CSV, FIVE_ROWS_CSV = "overflow.csv", "two_rows.csv", "five_rows.csv"
LONG_8DAYS_CSV, WIND_X10_CSV = "long_8days.csv", "wind_x10.csv"
MESSY_LONG_CSV, MESSY_LONG_DUPLICATE_CSV = "messy_long.csv", "messy_long_duplicate.csv"
NOT_UTF8_CSV, OVER_FIELD_LIMIT_CSV = "not_utf8.csv", "over_field_limit.csv"
ONE_UNIT_CSVS = {"one_unit": "t,y\n0,1\n1,2\n2,1e200\n3,3\n",
                 "one_unit_two_rows": "t,y\n0,1\n1,1e200\n"}
# suffixes of commands whose twin lacks --parallel, or takes the default --truth cs
PARALLEL, COMPOUND_SYMMETRY = "_parallel", "_compound_symmetry"
TWIN_SUFFIXES = (PARALLEL, COMPOUND_SYMMETRY)
# suffix of the commands on the wind fixture x10; what its beta_hat
# (intercept, two lags, air temperature) is against its twin's, and to what
# relative tolerance
SCALED, SCALE_BETA, SCALE_RTOL = "_x10", np.array([10.0, 1.0, 1.0, 10.0]), 1e-9


def write_small_inputs(directory, rows=20, units=3):
    """Write the overflowing files, the 5-row file, the 8-day long file, the
    wind fixture x10, the messy long files and the unreadable files of the
    command list into ``directory``."""
    ys = np.round(np.random.default_rng(0).normal(size=(rows, units)), 3)
    ys[rows // 2, 1] = 1e200
    lines = [",".join(["t"] + [f"y{j + 1}" for j in range(units)])]
    lines += [",".join([str(t)] + [repr(float(v)) for v in row]) for t, row in enumerate(ys)]
    with open(os.path.join(directory, OVERFLOW_CSV), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, TWO_ROWS_CSV), "w", encoding="utf-8") as fh:
        fh.write("t,y1,y2\n0,1e308,1\n1,2,1e308\n")
    for name, text in ONE_UNIT_CSVS.items():
        with open(os.path.join(directory, name + ".csv"), "w", encoding="utf-8") as fh:
            fh.write(text)
    cells = np.round(np.random.default_rng(1).normal(size=(5, 10)), 3)
    lines = [",".join(["t"] + [f"y{j}" for j in range(5)] + [f"z{j}" for j in range(5)])]
    lines += [",".join([str(t)] + [repr(float(v)) for v in row]) for t, row in enumerate(cells)]
    with open(os.path.join(directory, FIVE_ROWS_CSV), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    cells = np.round(np.random.default_rng(2).normal(size=(8, 3, 2)), 4)
    lines = ["day,station,y,x"] + [f"{t},{u},{y!r},{x!r}" for t in range(8)
                                   for u, (y, x) in zip("123", cells[t].tolist())]
    with open(os.path.join(directory, LONG_8DAYS_CSV), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(FIXTURE, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    wind = [k for k, name in enumerate(rows[0]) if name.startswith("wind_")]
    for row in rows[1:]:
        for k in wind:
            row[k] = repr(10.0 * float(row[k]))
    with open(os.path.join(directory, WIND_X10_CSV), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    rng = np.random.default_rng(3)
    rows = [[f" {t}", f"s{u} ", repr(float(y)), format(x, ".4f")]
            for t in range(100) for u in range(4)
            for y, x in [np.round(rng.normal(size=2), 3)]]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    for k in rng.choice(len(rows), size=8, replace=False):
        rows[k][3] = ["", " \n", "\r\n", "NA"][k % 4]
    for k in sorted(rng.choice(len(rows), size=6, replace=False), reverse=True):
        rows.insert(int(k), [] if k % 2 else [" ", ""])
    for name, extra in ((MESSY_LONG_CSV, []), (MESSY_LONG_DUPLICATE_CSV, [list(rows[40])])):
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([["day", "station", "y", "x"]]
                                                           + rows + extra)
    with open(os.path.join(directory, NOT_UTF8_CSV), "wb") as fh:
        fh.write(b"t,y1\n1,1.0\n2,\xff\n3,1.2\n")
    with open(os.path.join(directory, OVER_FIELD_LIMIT_CSV), "w", encoding="utf-8") as fh:
        fh.write("t,y1\n1,1.0\n2," + "1" * (csv.field_size_limit() + 1) + "\n3,1.2\n")


def commands(directory):
    """(name, argv without --output) of every command, in run order, on the
    CSV files of ``write_inputs`` in ``directory``."""
    wind_cols, temp_cols = inputs.wind_station_names(inputs.WIND_MODEL["stations"])
    wind = ["--data", os.path.abspath(FIXTURE), "--response", "wind_s1,wind_s2,wind_s3",
            "--exog", "airtemp_s1,airtemp_s2,airtemp_s3", "--lags", "2"]
    datasets = {
        "wind_synthetic": wind,
        "wind_wide": [
            "--data", os.path.join(directory, WIDE_CSV),
            "--response", ",".join(wind_cols), "--exog", ",".join(temp_cols),
            "--lags", str(LAGS),
        ],
        "binary_long": [
            "--data", os.path.join(directory, LONG_CSV), "--layout", "long",
            "--time-col", "day", "--unit-col", "station", "--response", "y",
            "--exog", "x1", "--lags", str(LAGS), "--link", "logistic",
        ],
    }
    out = []
    for data, flags in datasets.items():
        for method in METHODS:
            for corr in CORRS:
                model = flags + ["--method", method, "--corr", corr]
                out.append((f"fit_{data}_{method}_{corr}", ["fit"] + model))
                out.append((f"predict_{data}_{method}_{corr}", ["predict"] + model))
                out.append((f"diagnose_{data}_{method}_{corr}",
                            ["diagnose"] + model + ["--d-grid", "0,0.01,0.1", "--seed", "4"]))
    for link in ("logistic", "exponential"):
        out.append((f"fit_wind_synthetic_newton_{link}",
                    ["fit"] + wind + ["--method", "newton", "--link", link]))
        out.append((f"fit_wind_synthetic_two_step_{link}",
                    ["fit"] + wind + ["--method", "two_step", "--link", link]))
    out.append(("fit_bad_method", ["fit"] + wind + ["--method", "bogus"]))
    overflow = ["--data", os.path.join(directory, OVERFLOW_CSV), "--response", "y1,y2,y3",
                "--lags", "0"]
    for command, method, corr in [("fit", "two_step", "independence"),
                                  ("fit", "newton", "empirical"),
                                  ("diagnose", "two_step", "independence"),
                                  ("diagnose", "linear", "cs"),
                                  ("diagnose", "newton", "empirical")]:
        out.append((f"{command}_overflow_{method}_{corr}",
                    [command] + overflow + ["--method", method, "--corr", corr]))
    for command in ("fit", "diagnose"):
        out.append((f"{command}_two_rows_linear", [
            command, "--data", os.path.join(directory, TWO_ROWS_CSV), "--response", "y1,y2",
            "--method", "linear", "--corr", "independence", "--lags", "0"]))
    for name in ONE_UNIT_CSVS:
        one_unit = ["--data", os.path.join(directory, name + ".csv"), "--response", "y",
                    "--lags", "0", "--corr", "empirical"]
        for command, method in (("fit", "linear"), ("fit", "newton"), ("predict", "linear")):
            out.append((f"{command}_{name}_{method}_empirical",
                        [command] + one_unit + ["--method", method]))
    out.append(("diagnose_wind_synthetic_newton_cs_max_iter0",
                ["diagnose"] + wind + ["--method", "newton", "--corr", "cs", "--max-iter", "0",
                                       "--d-grid", "0,1e-9"]))
    out.append(("diagnose_binary_long_newton_cs_max_iter1",
                ["diagnose"] + datasets["binary_long"] + ["--method", "newton", "--corr", "cs",
                                                          "--max-iter", "1", "--d-grid", "0,0.01"]))
    own_response = {
        "wind_synthetic_exog": wind[:4] + ["--exog", "wind_s1,wind_s2,wind_s3"],
        "binary_long_exog": ["--data", os.path.join(directory, LONG_CSV), "--layout", "long",
                             "--time-col", "day", "--unit-col", "station", "--response", "y",
                             "--exog", "y"],
        "wind_synthetic_response_twice": wind[:2] + ["--response", "wind_s1,wind_s1,wind_s2"],
    }
    for name, flags in own_response.items():
        out.append((f"fit_own_response_{name}", ["fit"] + flags + ["--method", "linear",
                                                                   "--corr", "cs"]))
    out.append(("diagnose_five_rows_linear", [
        "diagnose", "--data", os.path.join(directory, FIVE_ROWS_CSV),
        "--response", "y0,y1,y2,y3,y4", "--exog", "z0,z1,z2,z3,z4", "--lags", "2",
        "--method", "linear"]))
    long_8days = ["fit", "--data", os.path.join(directory, LONG_8DAYS_CSV), "--layout", "long",
                  "--response", "y", "--exog", "x", "--lags", "1", "--method", "linear"]
    for name, keys in [("time_is_response", ["--time-col", "y", "--unit-col", "station"]),
                       ("unit_is_response", ["--time-col", "day", "--unit-col", "y"]),
                       ("time_is_unit", ["--time-col", "day", "--unit-col", "day"]),
                       ("no_time_col", ["--unit-col", "station"]),
                       ("unit_is_exog", ["--time-col", "day", "--unit-col", "station",
                                         "--exog", "station"])]:
        out.append((f"fit_long_8days_{name}", long_8days + keys))
    for name, argv in [("wind_synthetic_exog_two_of_three",
                        ["fit"] + wind[:4] + ["--exog", "airtemp_s1,airtemp_s2", "--lags", "2"]),
                       ("wind_synthetic_exog_empty", ["fit"] + wind[:4] + ["--exog", ""]),
                       ("long_8days_exog_empty", long_8days[:5] + [
                           "--time-col", "day", "--unit-col", "station", "--response", "y",
                           "--exog", "", "--lags", "1", "--method", "linear"])]:
        out.append((f"fit_spec_{name}", argv))
    for name, fname in (("messy_long", MESSY_LONG_CSV),
                        ("messy_long_duplicate", MESSY_LONG_DUPLICATE_CSV)):
        out.append((f"fit_{name}", [
            "fit", "--data", os.path.join(directory, fname), "--layout", "long",
            "--time-col", "day", "--unit-col", "station", "--response", "y", "--exog", "x",
            "--lags", "2", "--method", "two_step"]))
    for name, fname in (("not_utf8", NOT_UTF8_CSV), ("over_field_limit", OVER_FIELD_LIMIT_CSV)):
        out.append((f"fit_{name}", ["fit", "--data", os.path.join(directory, fname),
                                    "--response", "y1", "--lags", "0", "--method", "linear"]))
    wind_x10 = ["--data", os.path.join(directory, WIND_X10_CSV)] + wind[2:]
    for method, corr in (("two_step", "independence"), ("linear", "empirical")):
        out.append((f"fit_wind_synthetic_{method}_{corr}{SCALED}",
                    ["fit"] + wind_x10 + ["--method", method, "--corr", corr]))
    out.append(("diagnose_wind_synthetic_delta_grid_abc",
                ["diagnose"] + wind + ["--delta-grid", "0.1,abc"]))
    for seed in (1, 3):
        out.append((f"simulate_s50_seed{seed}", ["simulate", "--s", "50", "--seed", str(seed)]))
        out.append((f"replicate_s50_seed{seed}",
                    ["replicate-tables", "--s", "50", "--seed", str(seed)]))
    for truth in ("independence", "ar1"):
        out.append((f"simulate_s50_{truth}", ["simulate", "--s", "50", "--truth", truth]))
    out.append(("simulate_s50_seed1" + COMPOUND_SYMMETRY,
                ["simulate", "--s", "50", "--seed", "1", "--truth", "compound_symmetry"]))
    out.append(("simulate_s50_bogus", ["simulate", "--s", "50", "--truth", "bogus"]))
    out.append(("replicate_s500_seed3", ["replicate-tables", "--s", "500", "--seed", "3"]))
    for name, argv in [("replicate_s50_seed1", ["replicate-tables", "--s", "50", "--seed", "1"]),
                       ("simulate_s50_seed3", ["simulate", "--s", "50", "--seed", "3"])]:
        out.append((name + PARALLEL, argv + ["--parallel"]))
    return out


def worker(directory, out_dir):
    """Run every command, writing its outputs under ``out_dir``; print {name: [exit, stderr]}."""
    from mtgee.cli import run_command

    results = {}
    for name, argv in commands(directory):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            try:
                code = run_command(argv + ["--output", os.path.join(out_dir, name)])
            except Exception as exc:  # a traceback out of the CLI is an output too
                code = "raised"
                err.write(f"{type(exc).__name__}: {exc}")
        results[name] = [code, err.getvalue().replace(out_dir, "<out>")]
    json.dump(results, sys.stdout)


def run_tree(src, directory, out_dir):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--input", directory,
         "--out", out_dir],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def compare(before, after, dirs):
    """Lines naming every difference between the two trees' runs."""
    diffs = []
    for name in before:
        if before[name][0] != after[name][0]:
            diffs.append(f"{name}: exit {before[name][0]} -> {after[name][0]}")
        if before[name][1] != after[name][1]:
            diffs.append(f"{name}: stderr {before[name][1]!r} -> {after[name][1]!r}")
    files = [sorted(os.listdir(d)) for d in dirs]
    if files[0] != files[1]:
        diffs.append(f"files differ: {sorted(set(files[0]) ^ set(files[1]))}")
    for fname in sorted(set(files[0]) & set(files[1])):
        blobs = [_read(d, fname) for d in dirs]
        if blobs[0] != blobs[1]:
            paths = {}
            if fname.endswith(".json"):
                json_diffs(*(json.loads(blob) for blob in blobs), "", paths)
            elif fname.endswith(".csv"):
                paths["a cell"] = csv_gap(*blobs)
            diffs.extend(f"{fname}: {path} differs by at most {gap:.3g} (relative {rel:.3g})"
                         for path, (gap, rel) in paths.items())
            if not paths:
                diffs.append(f"{fname}: bytes differ")
    for fname in files[1]:
        for suffix in TWIN_SUFFIXES:
            twin = fname.replace(suffix, "")
            if twin != fname and _read(dirs[1], fname) != _read(dirs[1], twin):
                diffs.append(f"{fname}: differs from its twin {twin}")
        twin = fname.replace(SCALED, "")
        if twin != fname:
            beta, base = (np.array(json.loads(_read(dirs[1], f))["result"]["beta_hat"])
                          for f in (fname, twin))
            rel = np.max(np.abs(beta - SCALE_BETA * base) / np.abs(SCALE_BETA * base))
            if not rel <= SCALE_RTOL:
                diffs.append(f"{fname}: beta_hat is not its twin {twin}'s rescaled "
                             f"(relative {rel:.3g})")
    return diffs, len(files[1])


def _read(directory, fname):
    path = os.path.join(directory, fname)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def gap(a, b):
    """(absolute, relative) difference of two different values: inf, inf
    unless both are finite numbers."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not (numbers and math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b), abs(a - b) / max(abs(a), abs(b))


def widest(old, new):
    return max(old[0], new[0]), max(old[1], new[1])


def item_name(item):
    """The name of a list item in a JSON path: an estimator's ``label``, a Monte
    Carlo report's ``design.truth``; None for any other item."""
    if not isinstance(item, dict):
        return None
    design = item.get("design")
    return item.get("label", design.get("truth") if isinstance(design, dict) else None)


def json_diffs(a, b, path, out):
    """Record in ``out`` the largest (absolute, relative) difference at each
    JSON path where ``a`` and ``b`` differ.  A list item named by ``item_name``
    in both trees keeps its name, as in ``reports[ar1].estimators[two_step].re``;
    other list items fold into their list's path."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            json_diffs(a[key], b[key], f"{path}.{key}" if path else key, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            name = item_name(x)
            json_diffs(x, y, f"{path}[{name}]" if name is not None and name == item_name(y)
                       else path, out)
    elif a != b and not (a != a and b != b):  # two NaNs are the same output
        key = path or "$"
        out[key] = widest(out.get(key, (0.0, 0.0)), gap(a, b))


def csv_gap(a, b):
    """The largest (absolute, relative) difference between the cells of two
    CSV files; a cell that is not a number, or a different shape, counts as inf."""
    tables = [list(csv.reader(io.StringIO(blob.decode("utf-8")))) for blob in (a, b)]
    if list(map(len, tables[0])) != list(map(len, tables[1])):
        return math.inf, math.inf
    worst = (0.0, 0.0)
    for x, y in zip(*(sum(t, []) for t in tables)):
        if x != y:
            try:
                worst = widest(worst, gap(float(x), float(y)))
            except ValueError:
                return math.inf, math.inf
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--input", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--baseline-src", help="src directory of the version before the change")
    parser.add_argument("--src", default="src", help="src directory of the version after it")
    args = parser.parse_args()
    if args.worker:
        worker(args.input, args.out)
        return 0
    if not args.baseline_src:
        parser.error("--baseline-src is required")
    with tempfile.TemporaryDirectory() as tmp:
        directory = tempfile.mkdtemp(dir=tmp)
        write_inputs(inputs, directory)
        write_small_inputs(directory)
        dirs = [os.path.join(tmp, "before"), os.path.join(tmp, "after")]
        runs = []
        for src, out_dir in zip((args.baseline_src, args.src), dirs):
            os.mkdir(out_dir)
            runs.append(run_tree(src, directory, out_dir))
        diffs, n_files = compare(runs[0], runs[1], dirs)
    for line in diffs:
        print(line)
    codes = sorted({str(code) for code, _ in runs[1].values()})
    print(f"{len(runs[1])} commands (exit codes {codes}), {n_files} files: "
          f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
