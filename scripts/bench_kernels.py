#!/usr/bin/env python3
"""Time the weighted-design kernels and CSV ingestion before and after a change; write BENCH JSON.

Recorded per tree, as the median and minimum over all timed calls, at the
shape of a 6,000-day, 6-station long CSV with two lags and one covariate,
(n, m, p) = (5998, 6, 4), logistic link, running empirical working
correlation:

- ``eval_g`` and ``eval_jacobian``;
- ``sandwich``;
- ``optimality_ratios`` against a compound-symmetry reference;
- ``parse_dataset`` of that long CSV (rows shuffled);
- ``fit --corr empirical`` on that CSV end to end, through the CLI entry point.

The trees alternate in ABBA order, as described in ``bench_running_corr.py``,
whose timing harness this script uses.

Usage::

    git archive <parent> src | tar -x -C /tmp/parent
    python scripts/bench_kernels.py --baseline-src /tmp/parent/src \\
        --src src --output BENCH_kernels.json
"""

import os

from bench_running_corr import _time, main

DAYS, STATIONS, LAGS = 6000, 6, 2
BETA = (-0.4, 0.9, 0.4, 0.7)  # intercept, lag 1, lag 2, x1


def write_long_csv(directory):
    """Binary responses from the logistic model with two lags and one covariate."""
    import numpy as np

    path = os.path.join(directory, "binary_long.csv")
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
    return path


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
    return out


if __name__ == "__main__":
    main(__file__, _worker,
         "weighted design R^-1 A^1/2 X: batched einsum vs one GEMM kernel; "
         "CSV design built row by row and read twice vs sliced and read once",
         "BENCH_kernels.json", 15, prepare=write_long_csv,
         extra={"shape_n_m_p": [DAYS - LAGS, STATIONS, len(BETA)]})
