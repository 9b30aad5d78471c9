"""Span recording around the program's public functions, from outside the program.

A traced pass replaces every binding of each traced function inside the
``mtgee`` package with a wrapper that records a span (id, parent, name,
start, end).  Functions imported by name into several modules, such as
``fit_two_step`` and ``solve_linear``, have one binding per module; all of
them are found by identity and replaced, so a call is recorded whichever
module makes it.  A traced function that a later version of the program no
longer has cannot be wrapped: ``install`` returns its name, and the run
prints it on a ``# trace: missing`` line, so that its zero calls are not
mistaken for a layer made free.

Work the tracer does itself (hashing inputs, counting CSV rows) is timed
and charged to the tracer, not to the span that was open around it.
"""

import functools
import hashlib
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    """In-memory span log for one pass; spans are [id, parent, name, start, end]."""

    def __init__(self):
        self.spans = []
        self.hook_time = defaultdict(float)  # span id -> tracer time spent inside it
        self.counters = defaultdict(float)
        self._stack = []
        self._seen_inputs = defaultdict(set)
        self._row_counts = {}

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [sid, parent, name, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(sid)
        span[3] = clock()
        return span

    def end(self, span):
        span[4] = clock()
        self._stack.pop()

    def _charge(self, started):
        if self._stack:
            self.hook_time[self._stack[-1]] += clock() - started

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                started = clock()
                before(tracer, args, kwargs)
                tracer._charge(started)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                started = clock()
                after(tracer, result)
                tracer._charge(started)
            return result

        return wrapper

    def install(self):
        """Wrap every binding of the traced functions in the loaded mtgee modules.

        Returns the targets ("module.attribute") that were not found.
        """
        by_name = {key: mod for key, mod in sys.modules.items()
                   if key == "mtgee" or key.startswith("mtgee.")}
        missing = []
        for name, (module, attr), before, after in _TARGETS:
            owner = by_name.get(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    missing.append(f"{module}.{attr}")
                    continue
                setattr(cls, meth, self.wrap(name, vars(cls)[meth], before, after))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapper = self.wrap(name, original, before, after)
            for mod in by_name.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return missing

    # -- counters ---------------------------------------------------------

    def count_rows(self, path):
        if path not in self._row_counts:
            with open(path, "r", encoding="utf-8") as fh:
                lines = sum(1 for line in fh if line.strip().strip(","))
            self._row_counts[path] = max(lines - 1, 0)
        return self._row_counts[path]

    def note_input(self, name, *arrays):
        digest = hashlib.blake2b(digest_size=16)
        for arr in arrays:
            if isinstance(arr, str):
                digest.update(arr.encode())
            else:
                digest.update(repr(arr.shape).encode())
                digest.update(arr.tobytes())
        self._seen_inputs[name].add(digest.hexdigest())

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self):
        """Per-layer self time, call counts and the layer counters for this pass."""
        child_time = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for sid, _, name, start, end in self.spans:
            self_s[name] += (end - start) - child_time[sid] - self.hook_time.get(sid, 0.0)
            calls[name] += 1
        out = {}
        for name in LAYERS:
            out[f"{name}.s"] = max(self_s.get(name, 0.0), 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        c = self.counters
        out["cli.ingest.rows"] = int(c["ingest_rows"])
        out["cli.serialize.bytes"] = int(c["serialize_bytes"])
        out["estfun.fit_two_step.distinct_ratio"] = _ratio(
            len(self._seen_inputs["fit_two_step"]), calls.get("estfun.fit_two_step", 0))
        out["estfun.solve_newton.iterations"] = int(c["newton_iterations"])
        trials = sum(1 for _, parent, name, _, _ in self.spans
                     if name == "estfun.eval_g" and parent >= 0
                     and self.spans[parent][2] == "estfun.solve_newton")
        trials -= calls.get("estfun.solve_newton", 0)  # the first g of each solve is no trial
        out["estfun.solve_newton.accept_ratio"] = _ratio(c["newton_accepted"], trials)
        return out


def _ratio(num, den):
    return float(num) / den if den > 0 else 0.0


# -- hooks --------------------------------------------------------------------

def _ingest_before(tracer, args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    tracer.counters["ingest_rows"] += tracer.count_rows(spec.path)


def _serialize_after(tracer, result):
    tracer.counters["serialize_bytes"] += len(result.encode("utf-8"))


def _two_step_before(tracer, args, kwargs):
    data = args[0] if args else kwargs["data"]
    link = args[1] if len(args) > 1 else kwargs.get("link")
    tracer.note_input("fit_two_step", data.ys, data.Xs,
                      "identity" if link is None else link.kind)


def _newton_after(tracer, report):
    tracer.counters["newton_iterations"] += report.iterations
    trace = report.trace
    tracer.counters["newton_accepted"] += sum(
        1 for k in range(1, len(trace)) if trace[k][1] != trace[k - 1][1]
    )


# (span name, (module, attribute), before hook, after hook)
_TARGETS = [
    ("cli.ingest", ("mtgee.cli", "parse_dataset"), _ingest_before, None),
    ("cli.ingest", ("mtgee.cli", "next_design"), _ingest_before, None),
    ("cli.serialize", ("mtgee.cli", "json_dumps"), None, _serialize_after),
    ("cli.serialize", ("mtgee.cli", "_mc_table_csv"), None, _serialize_after),
    ("simgen.generate_ar2", ("mtgee.simgen", "generate_ar2"), None, None),
    ("estfun.fit_two_step", ("mtgee.estfun", "fit_two_step"), _two_step_before, None),
    ("corr.regularized_empirical", ("mtgee.corr", "regularized_empirical"), None, None),
    ("corr.realize", ("mtgee.corr", "EmpiricalRunningCorr.realize"), None, None),
    ("estfun.solve_linear", ("mtgee.estfun", "solve_linear"), None, None),
    ("inference.sandwich", ("mtgee.inference", "sandwich_from_arrays"), None, None),
    ("estfun.solve_newton", ("mtgee.estfun", "solve_newton"), None, _newton_after),
    ("estfun.eval_g", ("mtgee.estfun", "eval_g"), None, None),
    ("estfun.eval_jacobian", ("mtgee.estfun", "eval_jacobian"), None, None),
    ("model.moment_arrays", ("mtgee.model", "moment_arrays"), None, None),
    ("diagnostics.eigen_conditions", ("mtgee.diagnostics", "eigen_conditions"), None, None),
    ("diagnostics.leverage", ("mtgee.diagnostics", "leverage"), None, None),
    ("diagnostics.optimality_ratios", ("mtgee.diagnostics", "optimality_ratios"), None, None),
    ("diagnostics.perturbation_sensitivity",
     ("mtgee.diagnostics", "perturbation_sensitivity"), None, None),
]

LAYERS = list(dict.fromkeys(name for name, _, _, _ in _TARGETS)) + ["cli.command"]
