#!/usr/bin/env python3
"""Time the weighted-design kernels and CSV ingestion before and after a change; write BENCH JSON.

Each source tree (``--baseline-src`` and ``--src``, both ``src`` directories
of an mtgee checkout) is timed in its own child process with BLAS pinned to
one thread.  Recorded per tree, as the median and minimum of ``--repeats``
calls after one warm-up call, at the shape of a 6,000-day, 6-station long
CSV with two lags and one covariate, (n, m, p) = (5998, 6, 4), logistic
link, running empirical working correlation:

- ``eval_g`` and ``eval_jacobian``;
- ``sandwich``;
- ``optimality_ratios`` against a compound-symmetry reference;
- ``parse_dataset`` of that long CSV (rows shuffled);
- ``fit --corr empirical`` on that CSV end to end, through the CLI entry point.

Usage::

    git archive <parent> src | tar -x -C /tmp/parent
    python scripts/bench_kernels.py --baseline-src /tmp/parent/src \\
        --src src --output BENCH_kernels.json
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from bench_running_corr import THREAD_VARS, _environment, _time

DAYS, STATIONS, LAGS = 6000, 6, 2
BETA = (-0.4, 0.9, 0.4, 0.7)  # intercept, lag 1, lag 2, x1


def write_long_csv(path):
    """Binary responses from the logistic model with two lags and one covariate."""
    import numpy as np

    rng = np.random.default_rng(2024)
    x = rng.normal(size=(DAYS, STATIONS))
    y = np.zeros((DAYS, STATIONS))
    for t in range(LAGS, DAYS):
        theta = BETA[0] + BETA[1] * y[t - 1] + BETA[2] * y[t - 2] + BETA[3] * x[t]
        y[t] = rng.uniform(size=STATIONS) < 1.0 / (1.0 + np.exp(-theta))
    rows = [f"{t},s{j},{int(y[t, j])},{x[t, j]:.6f}"
            for t in range(DAYS) for j in range(STATIONS)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("day,station,y,x1\n")
        fh.write("\n".join(rows[k] for k in rng.permutation(len(rows))) + "\n")


def _worker(repeats, csv_path):
    import numpy as np

    from mtgee import corr
    from mtgee.cli import DatasetSpec, parse_dataset, run_command
    from mtgee.diagnostics import optimality_ratios
    from mtgee.estfun import EstimatingContext, eval_g, eval_jacobian
    from mtgee.inference import sandwich
    from mtgee.model import get_link

    spec = DatasetSpec(path=csv_path, layout="long", response_cols=["y"], exog_cols=["x1"],
                       time_col="day", unit_col="station", lags=LAGS)
    data = parse_dataset(spec)
    beta = np.array(BETA)
    ctx = EstimatingContext(data=data, link=get_link("logistic"),
                            corr=corr.empirical_running(STATIONS, plugin_beta=beta))
    ctx.corr_inverses()  # realize and invert the sequence once, outside the timings
    reference = corr.build_fixed_corr("compound_symmetry", 0.4, STATIONS)

    out = {
        "eval_g": _time(lambda: eval_g(ctx, beta), repeats),
        "eval_jacobian": _time(lambda: eval_jacobian(ctx, beta), repeats),
        "sandwich": _time(lambda: sandwich(ctx, beta), repeats),
        "optimality_ratios": _time(lambda: optimality_ratios(ctx, beta, reference), repeats),
        "parse_dataset": _time(lambda: parse_dataset(spec), max(1, repeats // 2)),
    }
    argv = ["fit", "--data", csv_path, "--layout", "long", "--time-col", "day",
            "--unit-col", "station", "--response", "y", "--exog", "x1", "--lags", str(LAGS),
            "--link", "logistic", "--method", "newton", "--corr", "empirical",
            "--output", os.devnull]
    out["fit_cli_empirical"] = _time(lambda: run_command(argv), max(1, repeats // 4))
    out["shape"] = list(data.Xs.shape)
    json.dump(out, sys.stdout)


def _run_tree(src, repeats, csv_path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--repeats", str(repeats),
         "--csv", csv_path],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--csv", help=argparse.SUPPRESS)
    parser.add_argument("--baseline-src", help="src directory of the version before the change")
    parser.add_argument("--src", default="src", help="src directory of the version after it")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--output", default="BENCH_kernels.json")
    args = parser.parse_args()
    if args.worker:
        _worker(args.repeats, args.csv)
        return
    if not args.baseline_src:
        parser.error("--baseline-src is required")
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "binary_long.csv")
        write_long_csv(csv_path)
        before = _run_tree(args.baseline_src, args.repeats, csv_path)
        after = _run_tree(args.src, args.repeats, csv_path)
    shape = after.pop("shape")
    before.pop("shape")
    report = {
        "schema": "mtgee-bench/1",
        "what": "weighted design R^-1 A^1/2 X: batched einsum vs one GEMM kernel; "
                "CSV design built row by row and read twice vs sliced and read once",
        "shape_n_m_p": shape,
        "environment": _environment(),
        "timings": {
            name: {
                "before": before[name],
                "after": after[name],
                "speedup_median": before[name]["median_s"] / after[name]["median_s"],
            }
            for name in before
        },
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
