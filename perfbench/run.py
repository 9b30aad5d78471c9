"""Benchmark entry point: one workload, one seed, one run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload mc-paper-grid --seed 1 --seconds 36 --trace 0

The run measures set-up (a fresh interpreter importing ``mtgee``, several
times), writes the workload's inputs from the seed, then runs passes for
about ``--seconds`` seconds.  Each pass is a fresh process
(``perfbench/passrun.py``) that runs the workload's CLI commands in process;
its outputs are checked after it ends, untimed.  Every end-to-end time is in
reference seconds: wall time scaled by the speed probe (``probe.py``) run
just before and after it, so that the host's drift in speed cancels.  With ``--trace 1`` the
passes alternate untraced and traced, and the per-layer metrics come from
the traced ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 9
MIN_PASSES = 3
PASS_TIMEOUT_S = 90
# BLAS is pinned to one thread in the measured processes: on two shared cores,
# OpenBLAS's second thread made the same fit vary by a third from call to call
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "mc_reps_per_s": "1/s", "fit_s": "s",
                    "diagnose_s": "s", "peak_rss_mb": "MB"}


def _child_env():
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: _child_env().get(k) for k in (*PINNED_THREADS, "MTGEE_THREADS")},
    }


def run_child(argv, timeout):
    """Run a child process to its exit; returns its wall time.

    The child is reaped by a blocking wait and a timer kills it if it
    overruns.  ``subprocess.run(timeout=...)`` instead polls for the exit in
    steps of up to 50 ms, which rounded every set-up time to one of two values.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=_child_env(), stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    except BaseException:  # SIGTERM or Ctrl-C: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {code}")
    return elapsed


def measure_setup():
    """Median time, raw and in reference seconds, of a fresh interpreter running ``import mtgee``.

    One import runs first to warm the bytecode cache. The probe runs before
    and after each timed import, here in the parent process.
    """
    run_child([sys.executable, "-c", "import mtgee"], 60)
    raw, ref = [], []
    probe_s = probe.measure()
    for _ in range(SETUP_SAMPLES):
        seconds = run_child([sys.executable, "-c", "import mtgee"], 60)
        probe_after = probe.measure()
        raw.append(seconds)
        ref.append(probe.reference_seconds(seconds, (probe_s + probe_after) / 2))
        probe_s = probe_after
    return statistics.median(raw), statistics.median(ref)


def run_pass(workload, traced, index):
    plan_path = workload.path(f"plan{index}.json")
    result_path = workload.path(f"result{index}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "trace": traced, "commands": workload.commands()}, fh)
    # the pass process's stderr (CLI error messages, tracebacks) goes to ours
    run_child([sys.executable, os.path.join(HERE, "passrun.py"), plan_path, result_path],
              PASS_TIMEOUT_S)
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    for cmd in result["commands"]:
        cmd["ref_s"] = probe.reference_seconds(cmd["seconds"], cmd["probe_s"])
    result["ref_wall_s"] = sum(cmd["ref_s"] for cmd in result["commands"])
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: run_child kills and reaps its child, finally removes the work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "mtgee", "__init__.py")):
        print(f"no program source at {SRC}/mtgee; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        probe.measure()  # warm-up
        setup = measure_setup()
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        info = workload.prepare()
        print("# inputs " + json.dumps(info, sort_keys=True), flush=True)
        return measure(args, workload, setup, workloads.KNOWN_FAULT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup, known_fault):
    attempted = failed = 0
    correct = True
    untraced, traced = [], []
    reported = set()
    start = time.perf_counter()
    pass_costs = []
    while True:
        pass_start = time.perf_counter()
        is_traced = bool(args.trace) and len(untraced) > len(traced)
        result = run_pass(workload, is_traced, len(untraced) + len(traced))
        logs, fits_failed = workload.check_pass(result)
        attempted += workload.ops_per_pass()
        failed += fits_failed
        for name, log in logs.items():
            failed += bool(log.failures)
            for check, message in log.failures:
                if (workload.name, name, check) == known_fault:
                    note = f"# known fault, operation counted as failed: {name}: {check}: {message}"
                else:
                    correct = False
                    note = f"# CHECK FAILED {name}: {check}: {message}"
                if (name, check) not in reported:
                    reported.add((name, check))
                    print(note, file=sys.stderr, flush=True)
        (traced if is_traced else untraced).append(result)
        for target in result.get("missing", ()):
            if target not in reported:
                reported.add(target)
                # its metrics read 0 because the layer is no longer measured, not because it is free
                print(f"# trace: missing {target}", flush=True)
        pass_costs.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        # stop where the run ends nearest to --seconds, after MIN_PASSES passes
        if (len(untraced) + len(traced) >= MIN_PASSES
                and elapsed + 0.5 * statistics.median(pass_costs) > args.seconds):
            break

    def median_of(key_fn, results):
        return statistics.median(key_fn(r) for r in results)

    if args.trace:
        metrics = {key: median_of(lambda r: r["layers"][key], traced) for key in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (median_of(lambda r: r["ref_wall_s"], traced)
                                       - median_of(lambda r: r["ref_wall_s"], untraced))
        units = {key: _layer_unit(key) for key in metrics}
    else:
        metrics = {
            "setup_s": setup[1],
            "wall_s": median_of(lambda r: r["ref_wall_s"], untraced),
            "peak_rss_mb": median_of(lambda r: r["peak_rss_mb"], untraced),
        }
        for key in ("mc_reps_per_s", "fit_s", "diagnose_s"):
            metrics[key] = median_of(lambda r: workload.timings(r)[key], untraced)
        units = END_TO_END_UNITS
    passes = untraced + traced
    print(f"# passes untraced={len(untraced)} traced={len(traced)} "
          f"seconds={time.perf_counter() - start:.1f} "
          f"pass_wall_s={[round(r['wall_s'], 2) for r in passes]} "
          f"pass_ref_s={[round(r['ref_wall_s'], 2) for r in passes]}", flush=True)
    print(f"# raw setup_s={setup[0]:.4f} wall_s={median_of(lambda r: r['wall_s'], untraced):.4f} "
          f"probe_s={statistics.median(c['probe_s'] for r in passes for c in r['commands']):.4f} "
          f"(reference probe_s={probe.REF_S})", flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(key):
    suffix = key.rsplit(".", 1)[1]
    return {"s": "s", "overhead_s": "s", "calls": "count", "rows": "count", "bytes": "bytes",
            "iterations": "count", "distinct_ratio": "ratio", "accept_ratio": "ratio"}[suffix]


if __name__ == "__main__":
    sys.exit(main())
