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
- ``parse_dataset`` of a wide wind-shaped CSV, 5,000 days x 8 stations with
  an air-temperature column per station and 1% of those cells missing
  (nearest-neighbour imputed);
- ``fit --corr empirical`` on the long CSV end to end, through the CLI entry point.

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
WIND_DAYS, WIND_STATIONS, WIND_MISSING = 5000, 8, 0.01
LONG_CSV, WIDE_CSV = "binary_long.csv", "wind_wide.csv"


def write_inputs(directory):
    """The long and the wide CSV, written into ``directory``, which is returned."""
    write_long_csv(os.path.join(directory, LONG_CSV))
    write_wide_csv(os.path.join(directory, WIDE_CSV))
    return directory


def write_wide_csv(path):
    """Wind speeds (3 decimals) and air temperatures (1 decimal, 1% blank), one row per day."""
    import numpy as np

    rng = np.random.default_rng(2025)
    wind = rng.gamma(4.0, 1.5, size=(WIND_DAYS, WIND_STATIONS))
    temp = 50.0 + 15.0 * rng.standard_normal((WIND_DAYS, WIND_STATIONS))
    missing = rng.uniform(size=temp.shape) < WIND_MISSING
    head = ([f"wind_s{j}" for j in range(WIND_STATIONS)]
            + [f"airtemp_s{j}" for j in range(WIND_STATIONS)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["date"] + head) + "\n")
        for t in range(WIND_DAYS):
            cells = [f"{v:.3f}" for v in wind[t]]
            cells += ["" if gap else f"{v:.1f}" for v, gap in zip(temp[t], missing[t])]
            fh.write(",".join([f"d{t}"] + cells) + "\n")


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


def _worker(repeats, directory):
    import numpy as np

    from mtgee import corr
    from mtgee.cli import DatasetSpec, parse_dataset, run_command
    from mtgee.diagnostics import optimality_ratios
    from mtgee.estfun import EstimatingContext, eval_g, eval_jacobian
    from mtgee.inference import sandwich
    from mtgee.model import get_link

    csv_path = os.path.join(directory, LONG_CSV)
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
    wide = DatasetSpec(path=os.path.join(directory, WIDE_CSV),
                       response_cols=[f"wind_s{j}" for j in range(WIND_STATIONS)],
                       exog_cols=[[f"airtemp_s{j}" for j in range(WIND_STATIONS)]], lags=LAGS)
    out["parse_dataset_wide"] = _time(lambda: parse_dataset(wide), max(1, repeats // 2))
    argv = ["fit", "--data", csv_path, "--layout", "long", "--time-col", "day",
            "--unit-col", "station", "--response", "y", "--exog", "x1", "--lags", str(LAGS),
            "--link", "logistic", "--method", "newton", "--corr", "empirical",
            "--output", os.devnull]
    out["fit_cli_empirical"] = _time(lambda: run_command(argv), max(1, repeats // 4))
    return out


if __name__ == "__main__":
    main(__file__, _worker,
         "CSV ingestion: one float call per cell vs one conversion per column; "
         "logistic link: two exp calls and mask gathers vs one exp",
         "BENCH_kernels.json", 15, prepare=write_inputs,
         extra={"shape_n_m_p": [DAYS - LAGS, STATIONS, len(BETA)]})
