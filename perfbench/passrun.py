"""One pass of a workload: a fresh process that runs the planned CLI commands in process.

Usage: python3 perfbench/passrun.py PLAN.json RESULT.json

PLAN.json holds {"src": SRC_DIR, "trace": bool, "commands": [{"name", "argv"}]}.
The process imports ``mtgee.cli`` once, then calls ``run_command`` for each
command in order, timing each with ``time.perf_counter``.  It uses no worker
pool.  RESULT.json receives the exit code and seconds of each command, the
pass wall time, the peak resident memory of this process and, for a traced
pass, the per-layer metrics and the traced functions that were not found.
"""

import json
import os
import resource
import sys
import time
import traceback


def peak_rss_mb():
    """High-water resident set of this process image, in MB (VmHWM, else ru_maxrss)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(plan_path, result_path):
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.abspath(plan["src"])
    sys.path.insert(0, src)
    import mtgee.cli
    import probe

    if not os.path.abspath(mtgee.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"mtgee imported from {mtgee.cli.__file__}, not from {src}")

    tracer = None
    missing = []
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        missing = tracer.install()

    commands = []
    probe.measure()  # warm-up: numpy's linalg set-up is not the machine's pace
    probe_s = probe.measure()
    for cmd in plan["commands"]:
        if tracer is not None:
            root = tracer.begin("cli.command")
        start = time.perf_counter()
        try:
            code = mtgee.cli.run_command(cmd["argv"])
        except Exception:  # a crash fails this operation, as exit code 1 would
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
        probe_after = probe.measure()
        commands.append({"name": cmd["name"], "code": code, "seconds": seconds,
                         "probe_s": (probe_s + probe_after) / 2})
        probe_s = probe_after

    result = {"commands": commands, "wall_s": sum(c["seconds"] for c in commands),
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing"] = missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
