#!/usr/bin/env python3
"""Time the running-correlation layer before and after a change; write BENCH JSON.

Each source tree (``--baseline-src`` and ``--src``, both ``src`` directories
of an mtgee checkout) is timed in its own child process with BLAS pinned to
one thread.  Recorded per tree, as the median and minimum of ``--repeats``
calls after one warm-up call:

- ``fit_two_step`` at (n, m, p) = (500, 5, 2) and (4800, 8, 4);
- ``EmpiricalRunningCorr.realize`` with the logistic link at (5948, 6, 4);
- one replication of the paper design (n=500, m=5, cs truth, alpha=0.7,
  all five estimators), from a ``monte_carlo_study`` of 20 replications;
- ``replicate-tables --s 50`` end to end, through the CLI entry point.

Usage::

    git archive <parent> src | tar -x -C /tmp/parent
    python scripts/bench_running_corr.py --baseline-src /tmp/parent/src \\
        --src src --output BENCH_running_corr.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPLICATIONS = 20


def _time(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "min_s": min(times), "repeats": repeats}


def _worker(repeats):
    import numpy as np

    from mtgee import corr
    from mtgee.cli import run_command
    from mtgee.estfun import fit_two_step
    from mtgee.model import ClusterSeries, get_link
    from mtgee.simgen import SimDesign, monte_carlo_study, substream

    def gaussian(n, m, p):
        rng = substream(2024, n)
        Xs = rng.normal(scale=0.5, size=(n, m, p))
        return ClusterSeries(ys=1.0 + Xs @ np.linspace(0.5, -0.3, p) + rng.normal(size=(n, m)),
                             Xs=Xs)

    out = {}
    for n, m, p in ((500, 5, 2), (4800, 8, 4)):
        data = gaussian(n, m, p)
        out[f"fit_two_step_{n}x{m}x{p}"] = _time(lambda: fit_two_step(data), repeats)

    rng = substream(2024, 1)
    binary = ClusterSeries(ys=(rng.uniform(size=(5948, 6)) < 0.4).astype(np.float64),
                           Xs=rng.normal(scale=0.4, size=(5948, 6, 4)))
    provider = corr.empirical_running(6, plugin_beta=[-0.4, 0.9, 0.4, 0.7])
    logistic = get_link("logistic")
    out["realize_5948x6x4"] = _time(lambda: provider.realize(binary, logistic), repeats)

    design = SimDesign(n=500, m=5, corr_kind="cs", alpha0=0.7, seed=11)
    study = _time(lambda: monte_carlo_study(design, s=REPLICATIONS), max(1, repeats // 4))
    out["paper_replication"] = {
        "median_s": study["median_s"] / REPLICATIONS,
        "min_s": study["min_s"] / REPLICATIONS,
        "repeats": study["repeats"],
        "replications_per_repeat": REPLICATIONS,
    }
    argv = ["replicate-tables", "--s", "50", "--seed", "3", "--output", os.devnull]
    out["replicate_tables_s50"] = _time(lambda: run_command(argv), 1)
    json.dump(out, sys.stdout)


def _run_tree(src, repeats):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _environment():
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_vars": {var: "1" for var in THREAD_VARS},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--baseline-src", help="src directory of the version before the change")
    parser.add_argument("--src", default="src", help="src directory of the version after it")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--output", default="BENCH_running_corr.json")
    args = parser.parse_args()
    if args.worker:
        _worker(args.repeats)
        return
    if not args.baseline_src:
        parser.error("--baseline-src is required")
    before = _run_tree(args.baseline_src, args.repeats)
    after = _run_tree(args.src, args.repeats)
    report = {
        "schema": "mtgee-bench/1",
        "what": "running-correlation kernel: per-step loops vs one block kernel",
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
