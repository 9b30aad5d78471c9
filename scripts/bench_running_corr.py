#!/usr/bin/env python3
"""Time the running-correlation layer before and after a change; write BENCH JSON.

Recorded per tree, as the median and minimum over all timed calls:

- ``fit_two_step`` at (n, m, p) = (500, 5, 2) and (4800, 8, 4);
- ``EmpiricalRunningCorr.realize`` with the logistic link at (5948, 6, 4);
- ``TwoStepCorr.realize`` on one replication of the paper design
  (n=500, m=5, p=2, cs truth, alpha=0.7), on a stack of 4 of them (the
  stacks the Monte Carlo harness fits) and on one series of the wind
  fits' shape, (n, m, p) = (4998, 8, 4);
- ``generate_ar2`` per replication of the paper design, from 20
  replications simulated as the Monte Carlo harness simulates them (one
  chunk where ``simgen.CHUNK_REPS`` exists, one call per replication
  before it);
- one replication of the paper design (all five estimators), from a
  ``monte_carlo_study`` of 20 replications;
- ``replicate-tables --s 50`` end to end, through the CLI entry point;
- ``replicate-tables --s 500`` end to end, serial, one call per child
  after the calls above (no warm-up of its own).

This file also holds the timing harness that ``bench_kernels.py`` uses.
The two source trees (``--baseline-src`` and ``--src``, both ``src``
directories of an mtgee checkout) run in ``ROUNDS`` rounds of four child
processes in ABBA order (baseline, change, change, baseline), with BLAS
pinned to one thread.  Each child makes half of ``--repeats`` timed calls
per entry after one warm-up call, and the children of a tree are pooled,
so a drift of the host's speed over the run falls on both trees alike.
Each entry gives the quartiles of its pooled times and the speed-up of
every round, whose spread shows how much of a speed-up is host noise.

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
import tempfile
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ORDER = ("before", "after", "after", "before")
ROUNDS = 5
REPLICATIONS = 20


def _time(fn, repeats):
    """Seconds taken by each of ``repeats`` calls of ``fn``, after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _run_tree(script, src, repeats, extra):
    """One child process of ``script`` importing mtgee from ``src``: {entry: [seconds]}."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, os.path.abspath(script), "--worker", "--repeats", str(repeats),
         *extra],
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


def _summary(times):
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"median_s": statistics.median(times), "min_s": min(times), "q1_s": q1, "q3_s": q3,
            "repeats": len(times)}


def main(script, worker, what, output, repeats, prepare=None, extra=None):
    """Command line of a bench script.

    With ``--worker`` the process is a child: it prints the JSON of
    ``worker(repeats, input_path)``, a dict of entry name to seconds per
    call.  Otherwise ``prepare(directory)``, if given, writes the inputs into
    ``directory`` and returns the path (a file or the directory) that every
    child receives, the trees run in ``ORDER`` once per round, and the
    report, with the keys of ``extra`` added, goes to ``--output``.
    """
    parser = argparse.ArgumentParser(description=sys.modules["__main__"].__doc__.splitlines()[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--input", help=argparse.SUPPRESS)
    parser.add_argument("--baseline-src", help="src directory of the version before the change")
    parser.add_argument("--src", default="src", help="src directory of the version after it")
    parser.add_argument("--repeats", type=int, default=repeats)
    parser.add_argument("--output", default=output)
    args = parser.parse_args()
    if args.worker:
        json.dump(worker(args.repeats, args.input), sys.stdout)
        return
    if not args.baseline_src:
        parser.error("--baseline-src is required")
    trees = {"before": args.baseline_src, "after": args.src}
    rounds = []  # per round: {tree: {entry: [seconds]}}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = ["--input", prepare(tmp)] if prepare else []
        for _ in range(ROUNDS):
            times = {"before": {}, "after": {}}
            for label in ORDER:
                for name, ts in _run_tree(script, trees[label], -(-args.repeats // 2),
                                          inputs).items():
                    times[label].setdefault(name, []).extend(ts)
            rounds.append(times)

    def pooled(label, name):
        return [t for times in rounds for t in times[label][name]]

    def speedup(times, name):
        return statistics.median(times["before"][name]) / statistics.median(times["after"][name])

    names = list(rounds[0]["before"])
    before = {name: _summary(pooled("before", name)) for name in names}
    after = {name: _summary(pooled("after", name)) for name in names}
    report = {
        "schema": "mtgee-bench/1",
        "what": what,
        "rounds": ROUNDS,
        **(extra or {}),
        "environment": _environment(),
        "timings": {
            name: {
                "before": before[name],
                "after": after[name],
                "speedup_median": before[name]["median_s"] / after[name]["median_s"],
                "speedup_rounds": [speedup(times, name) for times in rounds],
            }
            for name in names
        },
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _worker(repeats, _input):
    import numpy as np

    from mtgee import corr, simgen
    from mtgee.cli import run_command
    from mtgee.estfun import fit_two_step
    from mtgee.model import ClusterSeries, get_link
    from mtgee.simgen import SimDesign, generate_ar2, monte_carlo_study, substream

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
    paper = generate_ar2(design, 0)
    two_step = corr.two_step(5)
    identity = get_link("identity")
    out["realize_two_step_500x5x2"] = _time(lambda: two_step.realize(paper, identity), repeats)
    stack = generate_ar2(design, range(4))
    out["realize_two_step_4x500x5x2"] = _time(lambda: two_step.realize(stack, identity), repeats)
    wind, wide = gaussian(4998, 8, 4), corr.two_step(8)
    out["realize_two_step_4998x8x4"] = _time(lambda: wide.realize(wind, identity), repeats)
    if hasattr(simgen, "CHUNK_REPS"):
        def simulate():
            return generate_ar2(design, range(REPLICATIONS))
    else:
        def simulate():
            return [generate_ar2(design, rep) for rep in range(REPLICATIONS)]
    out["generate_ar2_per_replication"] = [t / REPLICATIONS for t in _time(simulate, repeats)]
    study = _time(lambda: monte_carlo_study(design, s=REPLICATIONS), max(1, repeats // 4))
    out["paper_replication"] = [t / REPLICATIONS for t in study]
    argv = ["replicate-tables", "--s", "50", "--seed", "3", "--output", os.devnull]
    out["replicate_tables_s50"] = _time(lambda: run_command(argv), 1)
    start = time.perf_counter()
    run_command(["replicate-tables", "--s", "500", "--seed", "3", "--output", os.devnull])
    out["replicate_tables_s500"] = [time.perf_counter() - start]
    return out


if __name__ == "__main__":
    main(__file__, _worker, "Two-step plug-in: five moment arrays per step (x'x, x'y, yy', "
         "y (x) x, x (x) x) packed in one slab, vs one moment array z_j z_k' over the unit "
         "pairs j <= k, with z = [y | X]",
         "BENCH_running_corr.json", 7)
