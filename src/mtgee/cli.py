"""Command-line surface: ingestion, fitting, simulation, diagnostics, reports.

Subcommands
-----------
fit               estimate the regression on a CSV dataset, with CIs and a
                  one-step-ahead prediction
predict           one-step-ahead prediction only
simulate          Monte Carlo study of one simulation design
replicate-tables  the full three-truth simulation grid (RB and RE tables)
diagnose          condition/optimality/leverage monitors on a dataset

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.

All JSON output is deterministic for a fixed argv + seed: floats are
serialized with 17 significant digits and no timestamps are embedded.
CSV tables use comma delimiters, '.' decimals, UTF-8 and LF line endings.
"""

import argparse
import csv as _csv
import io
import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate, compress, islice
from typing import Optional

import numpy as np

from . import corr as corrmod
from . import diagnostics as diagmod
from .errors import ContractError, DataError, MtgeeError, NumericalError
from .estfun import EstimatingContext, fit
from .inference import predict_next
from .model import LINKS, ClusterSeries, get_link
from .simgen import TRUTHS, SimDesign, monte_carlo_study

SCHEMA = "mtgee/1"

MISSING_TOKENS = {"", "na", "nan", "null", "none"}
JSON_INDENT = "  "
CHUNK_ROWS = 64  # rows the CSV reader gives at a time; their lists die with the chunk


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _json_scalar(value):
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise NumericalError("cannot serialize non-finite float to JSON")
        return format(v, ".17g")
    if isinstance(value, str):
        import json as _json

        return _json.dumps(value)
    raise ContractError(f"cannot serialize {type(value).__name__} to JSON")


def json_dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant digits."""

    def render(node, depth):
        pad = JSON_INDENT * depth
        pad_in = pad + JSON_INDENT
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = [
                f"{pad_in}{_json_scalar(str(k))}: {render(v, depth + 1)}"
                for k, v in node.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(node, np.ndarray):
            node = node.tolist()
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            items = [f"{pad_in}{render(v, depth + 1)}" for v in node]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return _json_scalar(node)

    return render(obj, 0) + "\n"


def _mc_table_csv(reports, metric: str) -> str:
    """Long-format metric table: one row per estimator x truth x component."""
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["estimator", "truth", "component", "value"])
    for report in reports:
        truth = TRUTHS[report.design.corr_kind]
        for summ in report.estimators:
            for k, v in enumerate(getattr(summ, metric)):
                writer.writerow([summ.label, truth, k + 1, format(float(v), ".17g")])
    return buf.getvalue()


def _mc_report_dict(report) -> dict:
    return {
        "design": {
            "n": report.design.n,
            "m": report.design.m,
            "beta0": list(report.design.beta0),
            "truth": report.design.corr_kind,
            "alpha0": report.design.alpha0,
            "seed": report.design.seed,
        },
        "s": report.s,
        "level": report.level,
        "estimators": [
            {
                "label": e.label,
                "bias": e.bias,
                "rb": e.rb,
                "mse": e.mse,
                "re": e.re,
                "coverage": e.coverage,
                "failures": e.failures,
            }
            for e in report.estimators
        ],
    }


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------

@dataclass
class DatasetSpec:
    """How to turn a CSV file into a ClusterSeries.

    Wide layout: one row per time step; ``response_cols`` lists the m
    response columns and each entry of ``exog_cols`` lists the m columns of
    one exogenous variable.  Long layout: one row per (time, unit);
    ``response_cols`` holds the single response column and each exogenous
    variable is a single column.

    The design matrix row for unit j at step i is
    [1 (optional) | y_{i-1,j} ... y_{i-lags,j} | z_{ij}...]: intercept
    first, then lags newest-first, then the exogenous block.  The first
    ``lags`` rows seed the lag window and produce no steps.  No column name
    is empty, and no response column is listed twice or as an exogenous
    column.  The long layout's time, unit and response columns are three
    distinct columns; an exogenous column may be the time column, a trend
    regressor, but not the unit column, whose labels are names, not values.
    """

    path: str
    layout: str = "wide"
    response_cols: list = field(default_factory=list)
    exog_cols: list = field(default_factory=list)
    time_col: Optional[str] = None
    unit_col: Optional[str] = None
    lags: int = 2
    intercept: bool = True
    impute: str = "nearest"

    def __post_init__(self):
        if self.layout not in ("wide", "long"):
            raise ContractError(f"layout must be 'wide' or 'long', got {self.layout!r}")
        if self.lags < 0:
            raise ContractError("lags must be >= 0")
        if self.impute not in ("none", "nearest"):
            raise ContractError(f"unknown imputation mode {self.impute!r}")
        if not self.response_cols:
            raise ContractError("at least one response column is required")
        if self.layout == "long" and len(self.response_cols) != 1:
            raise ContractError(f"long layout takes one response column, got {self.response_cols}")
        groups = [self.exog_cols] if self.layout == "long" else self.exog_cols
        names = [self.time_col, self.unit_col, *self.response_cols, *(c for g in groups for c in g)]
        if any(name is not None and not name.strip() for name in names):
            raise ContractError("column names must not be empty")
        for group in groups if self.layout == "wide" else []:
            if len(group) != len(self.response_cols):
                raise ContractError(f"exogenous group {group} must list "
                                    f"{len(self.response_cols)} columns (one per unit)")
        # a repeated unit, or a regressor z_ij that is y_ij itself
        for k, col in enumerate(self.response_cols):
            if col in self.response_cols[:k]:
                raise ContractError(f"response column {col!r} is listed twice")
        for col in (col for group in groups for col in group):
            if col in self.response_cols:
                raise ContractError(f"exogenous column {col!r} is a response column")
        if self.layout == "long":
            if self.time_col is None or self.unit_col is None:
                raise ContractError("long layout requires time_col and unit_col")
            keys = [self.time_col, self.unit_col, self.response_cols[0]]
            if len(set(keys)) != 3:
                raise ContractError(
                    f"long layout needs distinct time, unit and response columns, got {keys}")
            if self.unit_col in self.exog_cols:
                raise ContractError(f"exogenous column {self.unit_col!r} is the unit column")


def _read_columns(path, names):
    """The cells of each column of ``names``, by name, and the file line on which
    the reader finished each non-blank body row.  DataError unless each body
    row has the header's width and the stripped header holds each of ``names``
    once; other names may repeat."""
    from array import array  # a command that reads no CSV never loads it

    header, ragged, lines, read = None, None, array("q"), 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = _csv.reader(fh)
            while chunk := list(islice(reader, CHUNK_ROWS)):
                ends = range(read + 1, reader.line_num + 1)
                if len(ends) != len(chunk):  # a multi-line row: count the lines of each
                    ends = list(accumulate(map(_row_lines, chunk), initial=read))[1:]
                read = reader.line_num
                keep = list(map(str.strip, map("".join, chunk)))  # "" for a blank row
                if not all(keep):
                    chunk, ends = list(compress(chunk, keep)), list(compress(ends, keep))
                if header is None and chunk:
                    header, chunk, ends = list(map(str.strip, chunk[0])), chunk[1:], ends[1:]
                    columns = [[] for _ in header]
                if ragged is not None or not chunk:
                    continue  # read on: an unreadable file is named before a ragged row
                if set(map(len, chunk)) == {len(header)}:
                    lines.extend(ends)
                    for column, cells in zip(columns, zip(*chunk)):
                        column.extend(cells)
                else:
                    k = next(k for k, row in enumerate(chunk) if len(row) != len(header))
                    ragged = DataError(f"{path}: ragged row at line {ends[k]} "
                                       f"({len(chunk[k])} cells, header has {len(header)})")
    except (OSError, UnicodeDecodeError, _csv.Error) as exc:
        raise DataError(f"cannot read dataset {path!r}: {exc}") from exc
    if ragged is not None:
        raise ragged
    if not lines:
        raise DataError(f"dataset {path!r} has no data rows")
    for name in names:
        count = header.count(name)
        if count != 1:
            where = "not found in header" if count == 0 else f"appears {count} times in header"
            raise DataError(f"{path}: column {name!r} {where}")
    return {name: columns[header.index(name)] for name in names}, lines


def _row_lines(row):
    """The file lines the reader took for ``row``: one more than its cells hold line breaks."""
    text = ",".join(row)
    return 1 + text.count("\n") + text.count("\r") - text.count("\r\n")


def _rejection(text, required):
    """Why the stripped cell ``text`` is rejected, as (what, note) around its
    location; None if it reads as a float (or, not ``required``, as missing)."""
    if text.lower() in MISSING_TOKENS:
        return ("missing response value", " (responses are never imputed)") if required else None
    try:
        value = float(text)
    except ValueError:
        return f"cannot parse {text!r}", ""
    if required and not math.isfinite(value):
        return f"non-finite response value {text!r}", " (responses must be finite)"
    return None


def _cell_error(path, columns, lines, k, col, required):
    """The DataError for body row ``k``'s cell of column ``col``, one of ``columns``."""
    what, note = _rejection(columns[col][k].strip(), required)
    return DataError(f"{path}: {what} at line {lines[k]}, column {col!r}{note}")


def _read_column(cells, required):
    """The ``cells`` as float64 with NaN for a missing token, and None; or None and
    the index of the first cell that ``_rejection`` rejects.  Responses are ``required``.

    A column without missing tokens converts in one pass over the raw cells
    (``float`` of a padded cell equals ``float`` of the stripped cell whenever
    it succeeds); another column stops that pass at its first missing token
    and is converted over the stripped cells with the tokens mapped to "nan"."""
    # float() strips fewer characters than str.strip()
    for texts in (cells, (text if text.lower() not in MISSING_TOKENS else "nan"
                          for text in map(str.strip, cells))):
        try:
            values = np.fromiter(map(float, texts), dtype=np.float64, count=len(cells))
        except ValueError:
            continue
        if not required or np.isfinite(values).all():
            return values, None
    return None, next(k for k, cell in enumerate(cells) if _rejection(cell.strip(), required))


def _read_block(columns, names, required, out, at=slice(None)):
    """Read the named columns into the columns of ``out``, body row k into row
    ``at[k]``; return the (row, column position) of the first rejected cell in
    row-major order, or None."""
    rejected = []
    for j, name in enumerate(names):
        values, k = _read_column(columns[name], required)
        if k is None:
            out[at, j] = values
        else:
            rejected.append((k, j))
    return min(rejected, default=None)


def _impute_nearest(series, column):
    """Fill NaNs from the nearest time index (earlier index wins ties); ``column``
    names the series in the error for one that is entirely missing."""
    out = series.copy()
    known = np.isfinite(out)
    finite = np.flatnonzero(known)
    if finite.size == 0:
        raise DataError(f"{column} is entirely missing; nothing to impute from")
    gaps = np.flatnonzero(~known)
    after = np.searchsorted(finite, gaps)
    before = finite[np.maximum(after - 1, 0)]
    after = finite[np.minimum(after, finite.size - 1)]
    out[gaps] = out[np.where(gaps - before <= after - gaps, before, after)]
    return out


def _load_wide(spec):
    columns, lines = _read_columns(
        spec.path, list(spec.response_cols) + [c for grp in spec.exog_cols for c in grp])
    m = len(spec.response_cols)
    Y = np.empty((len(lines), m))
    Z = np.empty((len(lines), m, len(spec.exog_cols)))
    blocks = [(spec.response_cols, True, Y)]
    blocks += [(group, False, Z[:, :, v]) for v, group in enumerate(spec.exog_cols)]
    for names, required, out in blocks:
        rejected = _read_block(columns, names, required, out)
        if rejected is not None:
            k, j = rejected
            raise _cell_error(spec.path, columns, lines, k, names[j], required)
    return Y, Z if spec.exog_cols else None


def _time_key(text):
    """A time's value, inf if it is not numeric: numeric times first, by value.
    A float, not a tuple: freed tuples stay on CPython's free list, holding
    the parse's memory.  A non-finite numeric time has no place: ValueError."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        return math.inf
    if not math.isfinite(value):
        raise ValueError(f"non-finite time value {text!r}")
    return value


def _ranks(cells, key=None):
    """The distinct stripped ``cells``, sorted by text and then stably by
    ``key``, and the position of each cell's among them."""
    stripped = {cell: cell.strip() for cell in set(cells)}
    distinct = sorted(sorted(set(stripped.values())), key=key)
    rank = {text: k for k, text in enumerate(distinct)}
    code = {cell: rank[text] for cell, text in stripped.items()}
    return distinct, np.fromiter(map(code.__getitem__, cells), dtype=np.intp, count=len(cells))


def _load_long(spec):
    y_col = spec.response_cols[0]
    columns, lines = _read_columns(
        spec.path, [spec.time_col, spec.unit_col, y_col] + list(spec.exog_cols))
    try:
        times, code = _ranks(columns[spec.time_col], _time_key)
    except ValueError:
        # report the first such cell in file order, not the first the sort met
        for k, cell in enumerate(columns[spec.time_col]):
            try:
                _time_key(cell)
            except ValueError as exc:
                raise DataError(f"{spec.path}: {exc} at line {lines[k]}, "
                                f"column {spec.time_col!r}") from None
        raise
    units, unit_code = _ranks(columns[spec.unit_col])
    T, m = len(times), len(units)
    code *= m
    code += unit_code  # cell t*m + u of each row
    del unit_code  # hold one index array, not two, while the values are read
    Y = np.empty((T * m, 1))
    Z = np.empty((T * m, len(spec.exog_cols)))
    y_rejected = _read_block(columns, [y_col], True, Y, code)
    z_rejected = _read_block(columns, spec.exog_cols, False, Z, code)

    # the first fault in file order; within a row: a repeated (time, unit),
    # then the response cell, then the exogenous cells
    faults = [] if y_rejected is None else [y_rejected]
    if z_rejected is not None:
        faults.append((z_rejected[0], 1 + z_rejected[1]))
    seen = np.zeros(T * m, dtype=bool)
    seen[code] = True
    if np.count_nonzero(seen) < len(code):
        repeat = np.ones(len(code), dtype=bool)
        repeat[np.unique(code, return_index=True)[1]] = False
        faults.append((int(np.argmax(repeat)), -1))
    if faults:
        k, j = min(faults)
        if j < 0:
            t, u = divmod(int(code[k]), m)
            raise DataError(
                f"{spec.path}: duplicate row for time {times[t]!r}, unit {units[u]!r} "
                f"at line {lines[k]}"
            )
        name = ([y_col] + list(spec.exog_cols))[j]
        raise _cell_error(spec.path, columns, lines, k, name, j == 0)
    if len(code) < T * m:
        t, u = divmod(int(np.argmin(seen)), m)
        raise DataError(
            f"{spec.path}: no response observation for time {times[t]!r}, unit {units[u]!r}"
        )
    return Y.reshape(T, m), Z.reshape(T, m, -1) if spec.exog_cols else None, units


def _load_arrays(spec: DatasetSpec):
    if spec.layout == "wide":
        Y, Z = _load_wide(spec)
        # series (j, v) of Z, for messages: unit j's column of exogenous variable v
        columns = [[f"column {name!r}" for name in unit] for unit in zip(*spec.exog_cols)]
    else:
        Y, Z, units = _load_long(spec)
        columns = [[f"column {name!r} of unit {unit!r}" for name in spec.exog_cols]
                   for unit in units]
    if Z is not None:
        if spec.impute == "nearest":
            for j in range(Z.shape[1]):
                for v in range(Z.shape[2]):
                    Z[:, j, v] = _impute_nearest(Z[:, j, v], f"{spec.path}: {columns[j][v]}")
        elif np.any(~np.isfinite(Z)):
            raise DataError(
                f"{spec.path}: missing exogenous values present and imputation is 'none'"
            )
    return Y, Z


def parse_dataset(spec: DatasetSpec) -> ClusterSeries:
    """Build the clustered series: steps i = lags..T-1, first ``lags`` rows seed the lags."""
    Y, Z = _load_arrays(spec)
    T = Y.shape[0]
    if T <= spec.lags:
        raise DataError(
            f"{spec.path}: {T} rows cannot support {spec.lags} lags plus one step"
        )
    lags = spec.lags
    blocks = [Y[lags - lag : T - lag, :, None] for lag in range(1, lags + 1)]
    if spec.intercept:
        blocks.insert(0, np.ones((T - lags, Y.shape[1], 1)))
    if Z is not None:
        blocks.append(Z[lags:])
    if not blocks:
        raise ContractError("design has zero columns; add lags, intercept, or exogenous columns")
    Xs = np.concatenate(blocks, axis=2)
    return ClusterSeries(ys=Y[lags:], Xs=Xs)


def next_design(spec: DatasetSpec, series: ClusterSeries) -> np.ndarray:
    """Design matrix for the step after the last observed one.

    Built from ``series = parse_dataset(spec)`` without reading the file
    again: lag 1 is the last response row and lag k is lag k-1 of the last
    step; an exogenous block, if present, carries the last observed
    (imputed) values forward, i.e. the unknown next-step exogenous value is
    nearest-neighbour imputed from the final time index.
    """
    m, first_lag = series.m, int(spec.intercept)
    blocks = [np.ones((m, 1))] if spec.intercept else []
    if spec.lags:
        blocks.append(series.ys[-1][:, None])
        blocks.append(series.Xs[-1][:, first_lag : first_lag + spec.lags - 1])
    blocks.append(series.Xs[-1][:, first_lag + spec.lags :])
    return np.hstack(blocks)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ContractError(message)


def _add_dataset_command(commands, name, summary):
    """fit, predict and diagnose: dataset, model, seed and output flags."""
    sub = commands.add_parser(name, help=summary)
    sub.add_argument("--data", required=True, help="CSV file")
    sub.add_argument("--layout", choices=["wide", "long"], default="wide")
    sub.add_argument("--response", required=True,
                     help="wide: comma list of the m response columns; long: the response column")
    sub.add_argument("--exog", action="append", default=[],
                     help="one exogenous variable (wide: comma list of m columns); repeatable")
    sub.add_argument("--time-col", default=None)
    sub.add_argument("--unit-col", default=None)
    sub.add_argument("--lags", type=int, default=2)
    sub.add_argument("--intercept", action=argparse.BooleanOptionalAction, default=True,
                     help="include an intercept column")
    sub.add_argument("--impute", choices=["none", "nearest"], default="nearest")
    sub.add_argument("--link", choices=list(LINKS), default="identity")
    sub.add_argument("--method", choices=["two_step", "linear", "newton"],
                     default="two_step")
    sub.add_argument("--corr", choices=[name for name in corrmod.PROVIDERS if name != "two_step"],
                     default="independence",
                     help="working correlation for linear/newton methods")
    sub.add_argument("--alpha", type=float, default=0.7)
    sub.add_argument("--level", type=float, default=0.95)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--max-iter", type=int, default=50)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output", default=None, help="JSON path (default: stdout)")
    return sub


def _add_monte_carlo_command(commands, name, summary):
    """simulate and replicate-tables: design, study, seed and output flags."""
    sub = commands.add_parser(name, help=summary)
    sub.add_argument("--alpha", type=float, default=0.7)
    sub.add_argument("--n", type=int, default=500)
    sub.add_argument("--m", type=int, default=5)
    sub.add_argument("--beta0", default="0.5,0.2")
    sub.add_argument("--s", type=int, default=500)
    sub.add_argument("--level", type=float, default=0.95)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--parallel", action="store_true")
    sub.add_argument("--output", default=None,
                     help="prefix: writes PREFIX.json, PREFIX_table1.csv, PREFIX_table2.csv")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtgee", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    _add_dataset_command(commands, "fit", "fit the model on a dataset")
    _add_dataset_command(commands, "predict", "one-step-ahead prediction")
    p_sim = _add_monte_carlo_command(commands, "simulate", "Monte Carlo study of one design")
    p_sim.add_argument("--truth", default="cs", help=f"one of {', '.join(TRUTHS)}, or cs")
    _add_monte_carlo_command(commands, "replicate-tables",
                             "full simulation grid over all three truths")
    p_diag = _add_dataset_command(commands, "diagnose", "condition and optimality monitors")
    p_diag.add_argument("--delta-grid", default="0.1,0.25,0.5")
    p_diag.add_argument("--d-grid", default=None,
                        help="perturbation budgets (must include 0), e.g. 0,0.01,0.1")
    return parser


def _float_list(text):
    try:
        return [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise ContractError(f"cannot parse float list {text!r}") from None


def _spec_from_args(args) -> DatasetSpec:
    response = [c.strip() for c in args.response.split(",") if c.strip()]
    if args.layout == "wide":
        exog = [[c.strip() for c in grp.split(",") if c.strip()] for grp in args.exog]
    else:
        exog = [grp.strip() for grp in args.exog]
    return DatasetSpec(
        path=args.data,
        layout=args.layout,
        response_cols=response,
        exog_cols=exog,
        time_col=args.time_col,
        unit_col=args.unit_col,
        lags=args.lags,
        intercept=args.intercept,
        impute=args.impute,
    )


def _fit_from_args(args, with_inference=True):
    """Read the dataset and fit it as the model flags say; returns (spec, result)."""
    spec = _spec_from_args(args)
    series = parse_dataset(spec)
    two_step = args.method == "two_step"
    # --method two_step is the closed form with the two-step plug-in
    provider = corrmod.PROVIDERS["two_step" if two_step else args.corr]
    ctx = EstimatingContext(data=series, link=get_link(args.link),
                            corr=provider(args.alpha, series.m))
    result = fit(ctx, method="linear" if two_step else args.method, level=args.level,
                 tol=args.tol, max_iter=args.max_iter, with_inference=with_inference)
    return spec, result


def _prediction(spec, result):
    """One-step-ahead conditional mean at the fitted beta."""
    ctx = result.ctx
    return predict_next(next_design(spec, ctx.data), result.beta_hat, ctx.link)


def _dataset_payload(args, result, out, diagnostics=None):
    series = result.ctx.data
    return {
        "schema": SCHEMA,
        "command": args.command,
        "config": {
            "data": args.data,
            "layout": args.layout,
            "n": series.n,
            "m": series.m,
            "p": series.p,
            "lags": args.lags,
            "intercept": args.intercept,
            "impute": args.impute,
            "link": args.link,
            "method": args.method,
            "corr": args.corr if args.method != "two_step" else "two_step_empirical",
            "level": args.level,
            "seed": args.seed,
        },
        "result": out,
        "diagnostics": diagnostics,
    }


def _solver_dict(result):
    report = result.solver
    if report is None:
        return None
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "final_residual_norm": report.final_residual_norm,
        "trace": [{"beta": b, "g_norm": g} for b, g in report.trace],
    }


def _cmd_fit(args):
    spec, result = _fit_from_args(args)
    return _dataset_payload(args, result, {
        "beta_hat": result.beta_hat,
        "se": result.se,
        "cis": result.cis,
        "psi": result.psi,
        "level": result.level,
        "solver": _solver_dict(result),
        "prediction": _prediction(spec, result),
    }), {}


def _cmd_predict(args):
    spec, result = _fit_from_args(args, with_inference=False)
    out = {"prediction": _prediction(spec, result), "beta_hat": result.beta_hat}
    return _dataset_payload(args, result, out), {}


def _cmd_monte_carlo(args):
    """simulate (the --truth design) and replicate-tables (all three truths)."""
    truths = [args.truth] if args.command == "simulate" else TRUTHS
    beta0 = _float_list(args.beta0)
    reports = [
        monte_carlo_study(
            SimDesign(n=args.n, m=args.m, beta0=tuple(beta0), corr_kind=truth,
                      alpha0=args.alpha, seed=args.seed),
            s=args.s,
            level=args.level,
            parallel=args.parallel,
        )
        for truth in truths
    ]
    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "config": {
            "n": args.n,
            "m": args.m,
            "beta0": beta0,
            "alpha": args.alpha,
            "s": args.s,
            "level": args.level,
            "seed": args.seed,
        },
        "reports": [_mc_report_dict(r) for r in reports],
        "diagnostics": None,
    }
    tables = {
        "table1": _mc_table_csv(reports, "rb"),
        "table2": _mc_table_csv(reports, "re"),
    }
    return payload, tables


def _cmd_diagnose(args):
    _, result = _fit_from_args(args, with_inference=False)
    # the fit's own context serves the monitors; the fit is the perturbation's budget 0
    ctx, beta = result.ctx, result.beta_hat

    cond = diagmod.eigen_conditions(ctx, beta, _float_list(args.delta_grid))
    lev = diagmod.leverage(ctx, beta)
    # the correlation truth is unknown on real data; plug in the full-sample
    # average of standardized residual outer products, regularised as every
    # running average is at its own count
    eps = ctx.moments(beta)[1]
    avg = (eps[:, :, None] * eps[:, None, :]).mean(axis=0)
    rbar = corrmod.regularized_empirical(avg[None], np.array([ctx.data.n]))[0]
    if not np.all(np.isfinite(rbar)):
        raise NumericalError("reference correlation is not finite")
    opt = diagmod.optimality_ratios(ctx, beta, rbar)

    diagnostics = {
        "conditions": {
            "checkpoints": cond.checkpoints,
            "lambda_min": cond.lambda_min,
            "lambda_max": cond.lambda_max,
            "s_delta_ratio": {format(d, "g"): r for d, r in cond.s_delta_ratio.items()},
            "verdicts": cond.verdicts,
        },
        "leverage": {"gamma_prime": lev.gamma_prime, "a_prime": lev.a_prime},
        "optimality": {
            "checkpoints": opt.checkpoints,
            "det_ratio_H": opt.det_ratio_H,
            "det_ratio_M": opt.det_ratio_M,
            "reference_correlation": rbar,
        },
    }
    if args.d_grid is not None:
        pert = diagmod.perturbation_sensitivity(result, _float_list(args.d_grid), args.seed, rbar)
        diagnostics["perturbation"] = {
            "budgets": pert.budgets,
            "perturb_drift": pert.perturb_drift,
            "det_ratio_H": pert.det_ratio_H,
            "det_ratio_M": pert.det_ratio_M,
        }
    return _dataset_payload(args, result, {"beta_hat": beta}, diagnostics), {}


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "simulate": _cmd_monte_carlo,
    "replicate-tables": _cmd_monte_carlo,
    "diagnose": _cmd_diagnose,
}


def _write_outputs(args, payload, tables):
    text = json_dumps(payload)
    if not args.output:
        sys.stdout.write(text)
        return
    json_path = args.output if args.output.endswith(".json") else args.output + ".json"
    stem = json_path[: -len(".json")]
    files = [(json_path, text)] + [(f"{stem}_{name}.csv", table) for name, table in tables.items()]
    for path, content in files:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
        except OSError as exc:
            raise ContractError(f"cannot write output {path!r}: {exc}") from exc


def run_command(argv) -> int:
    """Parse argv, run the subcommand, write artifacts; returns the exit code."""
    try:
        args = build_parser().parse_args(list(argv))
        payload, tables = _COMMANDS[args.command](args)
        _write_outputs(args, payload, tables)
    except SystemExit as exc:  # argparse --help and friends
        return 0 if not exc.code else 1
    except ContractError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MtgeeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
