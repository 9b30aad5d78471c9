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
from typing import Optional

import numpy as np

from . import corr as corrmod
from . import diagnostics as diagmod
from .errors import ContractError, DataError, MtgeeError, NumericalError
from .estfun import EstimatingContext, fit, resolve_plugin
from .inference import predict_next
from .model import ClusterSeries, get_link, moment_arrays
from .simgen import (
    CORR_KIND_ALIASES,
    SimDesign,
    default_estimators,
    monte_carlo_study,
)

SCHEMA = "mtgee/1"

MISSING_TOKENS = {"", "na", "nan", "null", "none"}


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
            raise ContractError("cannot serialize non-finite float to JSON")
        return format(v, ".17g")
    if isinstance(value, str):
        import json as _json

        return _json.dumps(value)
    raise ContractError(f"cannot serialize {type(value).__name__} to JSON")


def json_dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant digits."""

    def render(node, depth):
        pad = " " * (indent * depth)
        pad_in = " " * (indent * (depth + 1))
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


def _truth_label(kind: str) -> str:
    return {"independence": "R1", "compound_symmetry": "R2", "ar1": "R3"}[kind]


def _mc_table_csv(reports, metric: str) -> str:
    """Long-format metric table: one row per estimator x truth x component."""
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["estimator", "truth", "component", "value"])
    for report in reports:
        truth = _truth_label(report.design.corr_kind)
        for summ in report.estimators:
            values = getattr(summ, metric)
            if values is None:
                values = [float("nan")] * len(summ.bias)
            for k, v in enumerate(values):
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
    ``lags`` rows seed the lag window and produce no steps.
    """

    path: str
    layout: str = "wide"
    response_cols: list = field(default_factory=list)
    exog_cols: list = field(default_factory=list)
    time_col: Optional[str] = None
    unit_col: Optional[str] = None
    lags: int = 2
    intercept: bool = True
    impute: str = "nearest_neighbor"

    def __post_init__(self):
        if self.layout not in ("wide", "long"):
            raise ContractError(f"layout must be 'wide' or 'long', got {self.layout!r}")
        if self.lags < 0:
            raise ContractError("lags must be >= 0")
        if self.impute not in ("none", "nearest_neighbor"):
            raise ContractError(f"unknown imputation mode {self.impute!r}")
        if not self.response_cols:
            raise ContractError("at least one response column is required")


def _read_rows(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = _csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path!r}: {exc}") from exc
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise DataError(f"dataset {path!r} has no data rows")
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: ragged row at line {lineno} "
                f"({len(row)} cells, header has {len(header)})"
            )
    return header, body


def _cell_value(cell, path, lineno, col, required):
    text = cell.strip()
    if text.lower() in MISSING_TOKENS:
        if required:
            raise DataError(
                f"{path}: missing response value at line {lineno}, column {col!r} "
                "(responses are never imputed)"
            )
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise DataError(
            f"{path}: cannot parse {text!r} at line {lineno}, column {col!r}"
        ) from None


def _impute_nearest(series):
    """Fill NaNs from the nearest time index (earlier index wins ties)."""
    out = series.copy()
    finite = np.flatnonzero(np.isfinite(out))
    if finite.size == 0:
        raise DataError("a column is entirely missing; nothing to impute from")
    for t in np.flatnonzero(~np.isfinite(out)):
        dist = np.abs(finite - t)
        out[t] = out[finite[np.argmin(dist)]]  # argmin takes the earliest on ties
    return out


def _load_wide(spec, header, body):
    col_index = {name: k for k, name in enumerate(header)}
    for name in list(spec.response_cols) + [c for grp in spec.exog_cols for c in grp]:
        if name not in col_index:
            raise DataError(f"{spec.path}: column {name!r} not found in header")
    m = len(spec.response_cols)
    T = len(body)
    Y = np.empty((T, m))
    for t, row in enumerate(body):
        for j, col in enumerate(spec.response_cols):
            Y[t, j] = _cell_value(row[col_index[col]], spec.path, t + 2, col, required=True)
    Z = None
    if spec.exog_cols:
        q = len(spec.exog_cols)
        Z = np.empty((T, m, q))
        for v, group in enumerate(spec.exog_cols):
            if len(group) != m:
                raise DataError(
                    f"{spec.path}: exogenous group {group} must list {m} columns (one per unit)"
                )
            for t, row in enumerate(body):
                for j, col in enumerate(group):
                    Z[t, j, v] = _cell_value(
                        row[col_index[col]], spec.path, t + 2, col, required=False
                    )
    return Y, Z


def _load_long(spec, header, body):
    if spec.time_col is None or spec.unit_col is None:
        raise ContractError("long layout requires time_col and unit_col")
    col_index = {name: k for k, name in enumerate(header)}
    needed = [spec.time_col, spec.unit_col, spec.response_cols[0]] + [
        g for g in spec.exog_cols
    ]
    for name in needed:
        if name not in col_index:
            raise DataError(f"{spec.path}: column {name!r} not found in header")
    t_idx, u_idx = col_index[spec.time_col], col_index[spec.unit_col]
    y_col = spec.response_cols[0]

    def time_key(text):
        text = text.strip()
        try:
            return (0, float(text), text)
        except ValueError:
            return (1, 0.0, text)

    times = sorted({row[t_idx].strip() for row in body}, key=time_key)
    units = sorted({row[u_idx].strip() for row in body})
    t_pos = {t: k for k, t in enumerate(times)}
    u_pos = {u: k for k, u in enumerate(units)}
    T, m = len(times), len(units)
    Y = np.full((T, m), math.nan)
    q = len(spec.exog_cols)
    Z = np.full((T, m, q), math.nan) if q else None
    for lineno, row in enumerate(body, start=2):
        t = t_pos[row[t_idx].strip()]
        u = u_pos[row[u_idx].strip()]
        Y[t, u] = _cell_value(row[col_index[y_col]], spec.path, lineno, y_col, required=True)
        for v, col in enumerate(spec.exog_cols):
            Z[t, u, v] = _cell_value(row[col_index[col]], spec.path, lineno, col, required=False)
    if np.any(~np.isfinite(Y)):
        t, u = np.argwhere(~np.isfinite(Y))[0]
        raise DataError(
            f"{spec.path}: no response observation for time {times[t]!r}, unit {units[u]!r}"
        )
    return Y, Z


def _load_arrays(spec: DatasetSpec):
    header, body = _read_rows(spec.path)
    if spec.layout == "wide":
        Y, Z = _load_wide(spec, header, body)
    else:
        Y, Z = _load_long(spec, header, body)
    if Z is not None:
        if spec.impute == "nearest_neighbor":
            for j in range(Z.shape[1]):
                for v in range(Z.shape[2]):
                    Z[:, j, v] = _impute_nearest(Z[:, j, v])
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
    ys = Y[lags:]
    zs = Z[lags:].reshape(len(ys), -1) if Z is not None else None
    return ClusterSeries(ys=ys, Xs=Xs, zs=zs)


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
    if series.zs is not None:
        blocks.append(series.zs[-1].reshape(m, -1))
    return np.hstack(blocks)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ContractError(message)


def _add_dataset_args(sub):
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


def _add_model_args(sub):
    sub.add_argument("--link", choices=["identity", "logistic", "exponential"],
                     default="identity")
    sub.add_argument("--method", choices=["two_step", "linear", "newton"],
                     default="two_step")
    sub.add_argument("--corr", choices=["independence", "cs", "ar1", "empirical"],
                     default="independence",
                     help="working correlation for linear/newton methods")
    sub.add_argument("--alpha", type=float, default=0.7)
    sub.add_argument("--level", type=float, default=0.95)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--max-iter", type=int, default=50)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtgee", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p_fit = commands.add_parser("fit", help="fit the model on a dataset")
    _add_dataset_args(p_fit)
    _add_model_args(p_fit)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--output", default=None, help="JSON path (default: stdout)")

    p_pred = commands.add_parser("predict", help="one-step-ahead prediction")
    _add_dataset_args(p_pred)
    _add_model_args(p_pred)
    p_pred.add_argument("--seed", type=int, default=0)
    p_pred.add_argument("--output", default=None)

    p_sim = commands.add_parser("simulate", help="Monte Carlo study of one design")
    p_sim.add_argument("--design", choices=["ar2"], default="ar2")
    p_sim.add_argument("--truth", choices=["independence", "cs", "ar1"], default="cs")
    p_sim.add_argument("--alpha", type=float, default=0.7)
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--m", type=int, default=5)
    p_sim.add_argument("--beta0", default="0.5,0.2")
    p_sim.add_argument("--s", type=int, default=500)
    p_sim.add_argument("--level", type=float, default=0.95)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--parallel", action="store_true")
    p_sim.add_argument("--output", default=None,
                       help="prefix: writes PREFIX.json, PREFIX_table1.csv, PREFIX_table2.csv")

    p_rep = commands.add_parser("replicate-tables",
                                help="full simulation grid over all three truths")
    p_rep.add_argument("--alpha", type=float, default=0.7)
    p_rep.add_argument("--n", type=int, default=500)
    p_rep.add_argument("--m", type=int, default=5)
    p_rep.add_argument("--beta0", default="0.5,0.2")
    p_rep.add_argument("--s", type=int, default=500)
    p_rep.add_argument("--level", type=float, default=0.95)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--parallel", action="store_true")
    p_rep.add_argument("--output", default=None)

    p_diag = commands.add_parser("diagnose", help="condition and optimality monitors")
    _add_dataset_args(p_diag)
    _add_model_args(p_diag)
    p_diag.add_argument("--delta-grid", default="0.1,0.25,0.5")
    p_diag.add_argument("--d-grid", default=None,
                        help="perturbation budgets (must include 0), e.g. 0,0.01,0.1")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--output", default=None)
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
        response = response[:1]
    return DatasetSpec(
        path=args.data,
        layout=args.layout,
        response_cols=response,
        exog_cols=exog,
        time_col=args.time_col,
        unit_col=args.unit_col,
        lags=args.lags,
        intercept=args.intercept,
        impute="nearest_neighbor" if args.impute == "nearest" else "none",
    )


def _provider_from_args(args, m):
    if args.method == "two_step":
        return None
    if args.corr == "independence":
        return corrmod.independence(m)
    if args.corr == "cs":
        return corrmod.compound_symmetry(args.alpha, m)
    if args.corr == "ar1":
        return corrmod.ar1(args.alpha, m)
    if args.corr == "empirical":
        return corrmod.empirical_running(m)
    raise ContractError(f"unknown correlation {args.corr!r}")


def _fit_from_args(args):
    spec = _spec_from_args(args)
    series = parse_dataset(spec)
    link = get_link(args.link)
    ctx = EstimatingContext(data=series, link=link, corr=_provider_from_args(args, series.m))
    result = fit(ctx, method=args.method, level=args.level, tol=args.tol,
                 max_iter=args.max_iter)
    x_next = next_design(spec, series)
    prediction = predict_next(x_next, result.beta_hat, link)
    return spec, series, ctx, result, prediction


def _config_echo(args, series):
    return {
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
    }


def _solver_dict(result):
    if result.trace is None:
        return None
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "final_residual_norm": result.final_residual_norm,
        "trace": [{"beta": b, "g_norm": g} for b, g in result.trace],
    }


def _cmd_fit(args):
    _, series, _, result, prediction = _fit_from_args(args)
    payload = {
        "schema": SCHEMA,
        "command": "fit",
        "config": _config_echo(args, series),
        "result": {
            "beta_hat": result.beta_hat,
            "se": result.se,
            "cis": result.cis,
            "psi": result.psi,
            "level": result.level,
            "solver": _solver_dict(result),
            "prediction": prediction,
        },
        "diagnostics": None,
    }
    return payload, {}


def _cmd_predict(args):
    _, series, _, result, prediction = _fit_from_args(args)
    payload = {
        "schema": SCHEMA,
        "command": "predict",
        "config": _config_echo(args, series),
        "result": {"prediction": prediction, "beta_hat": result.beta_hat},
        "diagnostics": None,
    }
    return payload, {}


def _run_designs(args, truths):
    beta0 = tuple(_float_list(args.beta0))
    reports = []
    for truth in truths:
        design = SimDesign(
            n=args.n, m=args.m, beta0=beta0, corr_kind=truth,
            alpha0=args.alpha, seed=args.seed,
        )
        reports.append(
            monte_carlo_study(
                design,
                default_estimators(args.alpha),
                s=args.s,
                level=args.level,
                parallel=args.parallel,
            )
        )
    return reports


def _sim_payload(args, command, reports):
    return {
        "schema": SCHEMA,
        "command": command,
        "config": {
            "n": args.n,
            "m": args.m,
            "beta0": _float_list(args.beta0),
            "alpha": args.alpha,
            "s": args.s,
            "level": args.level,
            "seed": args.seed,
        },
        "reports": [_mc_report_dict(r) for r in reports],
        "diagnostics": None,
    }


def _cmd_simulate(args):
    reports = _run_designs(args, [CORR_KIND_ALIASES[args.truth]])
    payload = _sim_payload(args, "simulate", reports)
    tables = {
        "table1": _mc_table_csv(reports, "rb"),
        "table2": _mc_table_csv(reports, "re"),
    }
    return payload, tables


def _cmd_replicate(args):
    reports = _run_designs(args, ["independence", "compound_symmetry", "ar1"])
    payload = _sim_payload(args, "replicate-tables", reports)
    tables = {
        "table1": _mc_table_csv(reports, "rb"),
        "table2": _mc_table_csv(reports, "re"),
    }
    return payload, tables


def _cmd_diagnose(args):
    spec = _spec_from_args(args)
    series = parse_dataset(spec)
    link = get_link(args.link)
    # one context for the fit, the monitors and the perturbation base
    ctx = resolve_plugin(
        EstimatingContext(data=series, link=link, corr=_provider_from_args(args, series.m))
    )
    result = fit(ctx, method=args.method, level=args.level, tol=args.tol,
                 max_iter=args.max_iter, with_inference=False)
    beta = result.beta_hat

    cond = diagmod.eigen_conditions(ctx, beta, _float_list(args.delta_grid))
    lev = diagmod.leverage(ctx, beta)
    # the correlation truth is unknown on real data; plug in the full-sample
    # average of standardized residual outer products
    _, _, eps = moment_arrays(series.Xs, series.ys, beta, link)
    rbar = corrmod.spd_project((eps[:, :, None] * eps[:, None, :]).mean(axis=0))
    opt_ctx = ctx
    if args.method == "two_step":
        opt_ctx = EstimatingContext(data=series, link=link,
                                    corr=corrmod.SequenceCorr(result.corr_seq))
    opt = diagmod.optimality_ratios(opt_ctx, beta, rbar)

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
        pert = diagmod.perturbation_sensitivity(
            ctx, args.method, _float_list(args.d_grid), seed=args.seed, true_corr=rbar,
            base=(beta, opt_ctx.corr_matrices()),
        )
        diagnostics["perturbation"] = {
            "budgets": pert.budgets,
            "perturb_drift": pert.perturb_drift,
            "det_ratio_H": pert.det_ratio_H,
            "det_ratio_M": pert.det_ratio_M,
        }

    payload = {
        "schema": SCHEMA,
        "command": "diagnose",
        "config": _config_echo(args, series),
        "result": {"beta_hat": beta},
        "diagnostics": diagnostics,
    }
    return payload, {}


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "simulate": _cmd_simulate,
    "replicate-tables": _cmd_replicate,
    "diagnose": _cmd_diagnose,
}


def _write_outputs(args, payload, tables):
    text = json_dumps(payload)
    if getattr(args, "output", None):
        base = args.output
        json_path = base if base.endswith(".json") else base + ".json"
        with open(json_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        stem = json_path[: -len(".json")]
        for name, content in tables.items():
            with open(f"{stem}_{name}.csv", "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
    else:
        sys.stdout.write(text)


def run_command(argv) -> int:
    """Parse argv, run the subcommand, write artifacts; returns the exit code."""
    try:
        args = build_parser().parse_args(list(argv))
    except ContractError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help and friends
        return 0 if not exc.code else 1
    try:
        payload, tables = _COMMANDS[args.command](args)
        _write_outputs(args, payload, tables)
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
