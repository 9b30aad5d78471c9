#!/usr/bin/env python3
"""Time mtgee's layers in two source trees, alternating call by call; write BENCH JSON.

Both trees (``--baseline-src`` and ``--src``, the ``src`` directories of
two mtgee checkouts) are imported into this one process as two packages
with distinct names; the package's modules import one another by relative
names only, so the copies share no module.  BLAS is pinned to one thread
before numpy is imported.  Each entry makes one warm-up call per tree, then
``--repeats`` pairs of calls (a half or a quarter of that for the slow
entries), the trees taking turns to go first; a garbage collection precedes
every timed call.  Two adjacent calls run at the same host speed, so the
ratio of a pair, the ``--src`` call's seconds over the ``--baseline-src``
call's, needs no normalisation by a speed probe.  Each entry records the
quartiles of both trees' times and of its per-pair ratios.

The entries:

- the two-step estimate (``fit_linear_two_step_*``), ``fit(ctx, "linear",
  with_inference=False)`` with the provider ``corr.two_step`` in a new
  context, so that each call realizes and solves its sequence, at
  (n, m, p) = (500, 5, 2) and (4800, 8, 4);
- ``EmpiricalRunningCorr.realize`` with the logistic link at (5948, 6, 4);
- ``TwoStepCorr.realize`` on one replication of the paper design
  (n=500, m=5, p=2, cs truth, alpha=0.7), on a stack of 4 of them (the
  stacks the Monte Carlo harness fits) and on one series of the wind
  fits' shape, (n, m, p) = (4998, 8, 4);
- ``provider.solve(seq, rhs)`` on sequences realized once, outside the
  timings: R^{-1} of the empirical sequence at (5948, 6, 4)
  (``solve_empirical_5948x6``), and R^{-1} X of the two-step sequences of
  the wind-shaped series (``solve_two_step_4998x8x4``) and of the stack of
  4 (``solve_two_step_4x500x5x2``);
- ``generate_ar2`` per replication of the paper design, from one chunk of 20;
- one replication of the paper design (all five estimators), from a
  ``monte_carlo_study`` of 20 replications;
- ``replicate-tables --s 50`` and ``--s 500`` (serial), through the CLI
  entry point;
- on the long binary CSV that ``perfbench/inputs.py`` writes for seed 1,
  (n, m, p) = (5998, 6, 4), logistic link, running empirical working
  correlation: ``eval_g``, ``eval_jacobian``, ``sandwich``,
  ``eigen_conditions``, ``leverage`` and ``optimality_ratios`` against
  compound symmetry, each call at the other of two betas (a context keeps
  the moments of the last beta it evaluated, so a repeated beta would time
  that memo), ``perturbation_sensitivity`` with budgets 0, 0.01 and 0.1 on
  the Newton fit with a running empirical correlation whose plug-in is the
  working-independence estimate, ``parse_dataset``, and ``fit --corr
  empirical`` (``fit_cli_empirical``) and ``diagnose --corr empirical
  --d-grid 0,0.01,0.1`` (``diagnose_cli_empirical``) through the CLI entry
  point;
- ``solve_newton`` on the same data from the working-independence
  estimate, with that running empirical correlation
  (``solve_newton_empirical``) and with compound symmetry, alpha = 0.4
  (``solve_newton_cs``);
- ``parse_dataset_wide``: the wide wind CSV of ``perfbench/inputs.py``,
  5,000 days x 8 stations, 1% of its air temperatures missing.

Usage::

    git archive <parent> src | tar -x -C /tmp/parent
    python scripts/bench.py --baseline-src /tmp/parent/src --src src \\
        --output BENCH_layers.json
"""

import argparse
import gc
import importlib
import importlib.util
import itertools
import json
import os
import platform
import statistics
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
INPUTS = os.path.join(ROOT, "perfbench", "inputs.py")  # the benchmark's seeded CSV writers
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED, LAGS, REPLICATIONS = 1, 2, 20
LONG_CSV, WIDE_CSV = "binary_long.csv", "wind_wide.csv"


def import_file(name, path, package=False):
    """Import the file ``path`` as the module ``name``; with ``package``, it is
    a package's ``__init__.py`` and its directory holds the submodules."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[os.path.dirname(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(src, name):
    """Import the mtgee package under the directory ``src`` as the package ``name``,
    with its ``cli`` module."""
    package = import_file(name, os.path.join(os.path.abspath(src), "mtgee", "__init__.py"),
                          package=True)
    importlib.import_module(f"{name}.cli")
    return package


def write_inputs(inputs, directory):
    """Write the benchmark's long binary CSV and wide wind CSV (in m/s) of seed
    ``SEED`` into ``directory``, as ``LONG_CSV`` and ``WIDE_CSV``, with
    ``inputs``, the module ``INPUTS``."""
    inputs.write_binary_csv(SEED, os.path.join(directory, LONG_CSV))
    inputs.write_wind_csvs(SEED, os.path.join(directory, WIDE_CSV),
                           os.path.join(directory, "wind_knots.csv"))


def entries(mt, directory, wide_columns):
    """{entry: (divisor of --repeats, call)} of one tree, its inputs built from
    the CSV files in ``directory``; ``wide_columns`` are the wind and the air
    temperature columns of the wide file."""
    import numpy as np

    corr, estfun, simgen = mt.corr, mt.estfun, mt.simgen
    identity, logistic = mt.get_link("identity"), mt.get_link("logistic")

    def gaussian(n, m, p):
        rng = simgen.substream(2024, n)
        Xs = rng.normal(scale=0.5, size=(n, m, p))
        ys = 1.0 + Xs @ np.linspace(0.5, -0.3, p) + rng.normal(size=(n, m))
        return mt.ClusterSeries(ys=ys, Xs=Xs)

    def cli(*argv):
        return lambda: mt.cli.run_command(list(argv) + ["--output", os.devnull])

    small, large = gaussian(500, 5, 2), gaussian(4800, 8, 4)
    rng = simgen.substream(2024, 1)
    binary = mt.ClusterSeries(ys=(rng.uniform(size=(5948, 6)) < 0.4).astype(np.float64),
                              Xs=rng.normal(scale=0.4, size=(5948, 6, 4)))
    empirical = corr.empirical_running(6, plugin_beta=[-0.4, 0.9, 0.4, 0.7])
    # positional: the parent tree of a comparison may spell the truth keyword otherwise
    design = simgen.SimDesign(500, 5, (0.5, 0.2), "cs", 0.7, 11)
    paper, stack = simgen.generate_ar2(design, 0), simgen.generate_ar2(design, range(4))
    wind, two_step5, two_step8 = gaussian(4998, 8, 4), corr.two_step(5), corr.two_step(8)
    # the sequences that the solve entries invert, realized once
    emp_seq = empirical.realize(binary, logistic)
    wind_seq, stack_seq = two_step8.realize(wind, identity), two_step5.realize(stack, identity)

    long_csv, wide_csv = os.path.join(directory, LONG_CSV), os.path.join(directory, WIDE_CSV)
    long_flags = ["--data", long_csv, "--layout", "long", "--time-col", "day",
                  "--unit-col", "station", "--response", "y", "--exog", "x1",
                  "--lags", str(LAGS), "--link", "logistic"]
    spec = mt.cli.DatasetSpec(path=long_csv, layout="long", response_cols=["y"],
                              exog_cols=["x1"], time_col="day", unit_col="station", lags=LAGS)
    wide = mt.cli.DatasetSpec(path=wide_csv, response_cols=wide_columns[0],
                              exog_cols=[wide_columns[1]], lags=LAGS)
    beta = np.array([-0.4, 0.9, 0.4, 0.7])
    long = mt.cli.parse_dataset(spec)
    ctx = estfun.EstimatingContext(data=long, link=logistic,
                                   corr=corr.empirical_running(6, plugin_beta=beta))
    cs_ctx = estfun.EstimatingContext(data=long, link=logistic,
                                      corr=corr.compound_symmetry(0.4, 6))
    for context in (ctx, cs_ctx):
        # realize and invert the sequence once, outside the timings, at a beta
        # that no timed call evaluates
        estfun.eval_g(context, beta - 0.05)
    start = estfun.working_independence_estimate(long, logistic)
    reference = corr.build_fixed_corr("compound_symmetry", 0.4, 6)
    fitted = estfun.fit(estfun.EstimatingContext(data=long, link=logistic,
                                                 corr=corr.empirical_running(6)),
                        "newton", with_inference=False)

    def alternating(evaluate):
        betas = itertools.cycle((beta, beta + 0.05))
        return lambda: evaluate(ctx, next(betas))

    def two_step_fit(data):
        # a new context per call: a context caches its R^{-1} X
        return lambda: estfun.fit(
            estfun.EstimatingContext(data=data, link=identity, corr=corr.two_step(data.m)),
            "linear", with_inference=False)
    return {
        "fit_linear_two_step_500x5x2": (1, two_step_fit(small)),
        "fit_linear_two_step_4800x8x4": (1, two_step_fit(large)),
        "realize_5948x6x4": (1, lambda: empirical.realize(binary, logistic)),
        "realize_two_step_500x5x2": (1, lambda: two_step5.realize(paper, identity)),
        "realize_two_step_4x500x5x2": (1, lambda: two_step5.realize(stack, identity)),
        "realize_two_step_4998x8x4": (1, lambda: two_step8.realize(wind, identity)),
        "solve_empirical_5948x6": (1, lambda: empirical.solve(emp_seq)),
        "solve_two_step_4998x8x4": (1, lambda: two_step8.solve(wind_seq, wind.Xs)),
        "solve_two_step_4x500x5x2": (1, lambda: two_step5.solve(stack_seq, stack.Xs)),
        "generate_ar2_per_replication":
            (1, lambda: simgen.generate_ar2(design, range(REPLICATIONS))),
        "paper_replication": (2, lambda: simgen.monte_carlo_study(design, s=REPLICATIONS)),
        "replicate_tables_s50": (1, cli("replicate-tables", "--s", "50", "--seed", "3")),
        "replicate_tables_s500": (4, cli("replicate-tables", "--s", "500", "--seed", "3")),
        "eval_g": (1, alternating(estfun.eval_g)),
        "eval_jacobian": (1, alternating(estfun.eval_jacobian)),
        "sandwich": (1, alternating(mt.sandwich)),
        "eigen_conditions": (1, alternating(mt.diagnostics.eigen_conditions)),
        "leverage": (1, alternating(mt.diagnostics.leverage)),
        "optimality_ratios": (1, alternating(
            lambda context, b: mt.diagnostics.optimality_ratios(context, b, reference))),
        "perturbation_sensitivity": (2, lambda: mt.diagnostics.perturbation_sensitivity(
            fitted, (0.0, 0.01, 0.1), seed=4, true_corr=reference)),
        "parse_dataset": (1, lambda: mt.cli.parse_dataset(spec)),
        "parse_dataset_wide": (1, lambda: mt.cli.parse_dataset(wide)),
        "fit_cli_empirical": (2, cli("fit", *long_flags, "--method", "newton",
                                     "--corr", "empirical")),
        "diagnose_cli_empirical": (4, cli("diagnose", *long_flags, "--method", "newton",
                                          "--corr", "empirical", "--d-grid", "0,0.01,0.1")),
        "solve_newton_empirical": (1, lambda: estfun.solve_newton(ctx, start)),
        "solve_newton_cs": (1, lambda: estfun.solve_newton(cs_ctx, start)),
    }


# seconds per call are divided by this for the entries timed per replication
PER_CALL = {"generate_ar2_per_replication": REPLICATIONS, "paper_replication": REPLICATIONS}


def time_pairs(calls, pairs):
    """Seconds of each of ``pairs`` calls of both ``calls``, after one warm-up
    call each; the two take turns to go first, and each call starts from a
    collected heap."""
    for call in calls:
        call()
    times = ([], [])
    for k in range(pairs):
        for side in ((0, 1), (1, 0))[k % 2]:
            gc.collect()
            start = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - start)
    return times


def _quartiles(values, unit=""):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {f"q1{unit}": q1, f"median{unit}": median, f"q3{unit}": q3}


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-src", required=True,
                        help="src directory of the version before the change")
    parser.add_argument("--src", default="src", help="src directory of the version after it")
    parser.add_argument("--repeats", type=int, default=40,
                        help="pairs of calls per entry (the slow entries make a share of them)")
    parser.add_argument("--output", default="BENCH_layers.json")
    args = parser.parse_args()
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy is imported
    trees = [load_tree(args.baseline_src, "mtgee_before"), load_tree(args.src, "mtgee_after")]
    timings = {}
    inputs = import_file("inputs", INPUTS)
    wide_columns = inputs.wind_station_names(inputs.WIND_MODEL["stations"])
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(inputs, tmp)
        built = [entries(tree, tmp, wide_columns) for tree in trees]
        for name, (divisor, before) in built[0].items():
            pairs = max(2, args.repeats // divisor)
            per = PER_CALL.get(name, 1)
            times = [[t / per for t in side] for side in time_pairs((before, built[1][name][1]),
                                                                     pairs)]
            timings[name] = {
                "before": {**_quartiles(times[0], "_s"), "min_s": min(times[0])},
                "after": {**_quartiles(times[1], "_s"), "min_s": min(times[1])},
                "ratio": _quartiles([a / b for b, a in zip(*times)]),
                "pairs": pairs,
            }
            print(f"{name}: ratio {timings[name]['ratio']['median']:.3f}", file=sys.stderr)
    report = {
        "schema": "mtgee-bench/2",
        "ratio": "seconds of the --src call over the --baseline-src call, per pair",
        "environment": _environment(),
        "timings": timings,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
