"""Step-by-step reference implementations of the running correlation sequences,
the simulated series and the CSV design matrices.

These are the per-step loops that the block kernel ``corr.running_corr``
replaced, kept as oracles: one running sum updated per step, and a scalar
regulariser that shares no code with the batched ``corr.regularized_empirical``.
``loop_generate_ar2`` is the one-replication AR(2) recursion that the chunked
``simgen.generate_ar2`` replaced, with its explosion check on every step.
``loop_design`` is the row-by-row design construction that ``cli.parse_dataset``
and ``cli.next_design`` replaced, with the next-step design read from the file
again.  ``cell_load_arrays`` is the row-by-row, cell-by-cell CSV loader that
the columnar ``cli._load_arrays`` replaced, with one ``float`` call per cell,
a dict of (time, unit) positions and a per-gap imputation loop; it keeps the
rule that a response cell must be finite.  ``masked_sigmoid`` and
``masked_logistic_d2`` are the logistic link as it was before it shared one
``exp``: two boolean-mask gathers, and mu'' from two ``exp`` calls.
``extended_two_step`` is no former code path but an accuracy reference: the
two-step averages formed afresh at every step in ``np.longdouble``.
``newton_reference`` is the damped Newton loop as it was before the context
kept the moments of the last beta: every g_n and D_n evaluates the moments
afresh, and g_n is (A^{1/2} X)' R^{-1} eps.
"""

import csv
import math
from array import array

import numpy as np

from mtgee.cli import MISSING_TOKENS, _load_arrays
from mtgee.errors import DataError, InstabilityError, NumericalError, SolverFailureError
from mtgee.estfun import SolveReport
from mtgee.model import ClusterSeries, moment_arrays
from mtgee.simgen import EXPLOSION_GUARD, substream, true_correlation


def scalar_regularize(mat, count):
    """One step's average over its dispersion tr/m, shrunk toward the identity
    by min(1/2, m/(2 count)); an average of trace 0 or less is the identity."""
    m = mat.shape[0]
    mat = 0.5 * (mat + mat.T)
    trace = float(np.trace(mat))
    if trace <= 0.0:
        return np.eye(m)
    lam = min(0.5, m / (2.0 * max(count, 1)))
    return (1.0 - lam) * (m / trace) * mat + lam * np.eye(m)


def loop_generate_ar2(design, rep):
    """One replication of the AR(2) design, one step at a time."""
    n, m = design.n, design.m
    innovations = (substream(design.seed, rep).standard_normal((n, m))
                   @ np.linalg.cholesky(true_correlation(design)).T)
    b1, b2 = float(design.beta0[0]), float(design.beta0[1])
    prev1 = prev2 = np.zeros(m)
    ys = np.empty((n, m))
    Xs = np.empty((n, m, 2))
    for i in range(n):
        Xs[i, :, 0] = prev1
        Xs[i, :, 1] = prev2
        y_i = b1 * prev1 + b2 * prev2 + innovations[i]
        if np.max(np.abs(y_i)) > EXPLOSION_GUARD:
            raise InstabilityError(
                f"simulated series exceeded {EXPLOSION_GUARD:g} at step {i}", step=i
            )
        ys[i] = y_i
        prev2 = prev1
        prev1 = y_i
    return ClusterSeries(ys=ys, Xs=Xs)


def loop_realize(eps, warmup_steps=2):
    """Running empirical correlations from standardized residuals ``eps`` (n, m)."""
    n, m = eps.shape
    out = np.empty((n, m, m))
    total = np.zeros((m, m))
    for i in range(n):
        if i < max(warmup_steps, m):
            out[i] = np.eye(m)
        else:
            out[i] = scalar_regularize(total / i, i)
        total = total + np.outer(eps[i], eps[i])
    return out


def loop_two_step(data, warmup_steps=2):
    """Two-step estimate and its correlation sequence, one step at a time; a
    step whose residuals leave fewer than m degrees of freedom gets I."""
    n, m, p = data.n, data.m, data.p
    Xs, ys = data.Xs, data.ys
    sxx = np.zeros((p, p))
    sxy = np.zeros(p)
    syy = np.zeros((m, m))
    t1 = np.zeros((m, m, p))
    t2 = np.zeros((m, p, m, p))
    k_mat = np.zeros((p, p))
    rhs = np.zeros(p)
    seq = np.empty((n, m, m))
    guard = max(warmup_steps, m)
    for i in range(n):
        r_mat = np.eye(m)
        if i >= guard and i * m >= p + m:
            try:
                b = np.linalg.solve(sxx, sxy)
            except np.linalg.LinAlgError:
                b = None
            if b is not None and np.all(np.isfinite(b)):
                c1 = np.einsum("ack,k->ac", t1, b)
                raw = (syy - c1 - c1.T + np.einsum("akcj,k,j->ac", t2, b, b)) / i
                r_mat = scalar_regularize(raw, i)
        seq[i] = r_mat
        x_i, y_i = Xs[i], ys[i]
        rinv_x = np.linalg.solve(r_mat, x_i)
        k_mat += x_i.T @ rinv_x
        rhs += rinv_x.T @ y_i
        sxx += x_i.T @ x_i
        sxy += x_i.T @ y_i
        syy += np.outer(y_i, y_i)
        t1 += np.einsum("a,ck->ack", y_i, x_i)
        t2 += np.einsum("ak,cj->akcj", x_i, x_i)
    return np.linalg.solve(k_mat, rhs), seq


def extended_two_step(data, warmup_steps=2):
    """The two-step correlation sequence with each step's sums, b_i and raw
    residual average formed in ``np.longdouble``; R_i is that average
    rounded to float64 and shrunk by ``scalar_regularize``, or I at a step
    whose residuals leave fewer than m degrees of freedom."""
    n, m, p = data.n, data.m, data.p
    Xs, ys = data.Xs.astype(np.longdouble), data.ys.astype(np.longdouble)
    seq = np.tile(np.eye(m), (n, 1, 1))
    for i in range(max(warmup_steps, m), n):
        if i * m < p + m:
            continue
        x, y = Xs[:i].reshape(-1, p), ys[:i].reshape(-1)
        sxx, sxy = x.T @ x, x.T @ y
        b = np.zeros(p, dtype=np.longdouble)
        for _ in range(3):  # a float64 solve refined against extended-precision residuals
            b += np.linalg.solve(sxx.astype(np.float64), (sxy - sxx @ b).astype(np.float64))
        r = ys[:i] - Xs[:i] @ b
        seq[i] = scalar_regularize((r.T @ r / i).astype(np.float64), i)
    return seq


def _reference_g(ctx, beta):
    """g_n = (A^{1/2} X)' R^{-1} eps, from fresh moments; not the identity link."""
    Xs = ctx.data.Xs
    _, a, eps = moment_arrays(Xs, ctx.data.ys, beta, ctx.link)
    w = ctx.corr_inverses @ eps[:, :, None]
    return (Xs * np.sqrt(a)[:, :, None]).reshape(-1, Xs.shape[-1]).T @ w.reshape(-1)


def _reference_jacobian(ctx, beta):
    """D_n = -d g_n / d beta', from fresh moments; not the identity link."""
    Xs = ctx.data.Xs
    _, a, eps = moment_arrays(Xs, ctx.data.ys, beta, ctx.link)
    rinv = ctx.corr_inverses
    xa = Xs * np.sqrt(a)[:, :, None]
    rinv_xa = rinv @ xa
    d = ctx.link.d2(Xs @ beta) / (2.0 * a)
    w = np.sqrt(a) * (rinv @ eps[:, :, None])[:, :, 0]

    def gram(left, right):
        return left.reshape(-1, left.shape[-1]).T @ right.reshape(-1, right.shape[-1])

    return (gram(xa, rinv_xa) - gram(Xs, (d * w)[:, :, None] * Xs)
            + gram(rinv_xa, (d * eps)[:, :, None] * Xs))


def newton_reference(ctx, beta_init, tol=1e-8, max_iter=50):
    """Damped Newton for g_n(beta) = 0 from ``beta_init``, with up to 20 step
    halvings per iteration; returns (SolveReport, evaluations of g_n)."""
    beta = np.asarray(beta_init, dtype=np.float64).copy()
    g = _reference_g(ctx, beta)
    evaluations = 1
    norm = float(np.max(np.abs(g)))
    trace = [(beta.copy(), norm)]
    iterations = 0
    for _ in range(max_iter):
        if norm <= tol:
            break
        try:
            step = np.linalg.solve(_reference_jacobian(ctx, beta), g)
        except np.linalg.LinAlgError:
            raise SolverFailureError("singular derivative matrix", trace=trace) from None
        if not np.all(np.isfinite(step)):
            raise SolverFailureError("non-finite Newton step", trace=trace)
        t, accepted = 1.0, False
        for _halving in range(21):
            cand = beta + t * step
            try:
                g_new = _reference_g(ctx, cand)
            except NumericalError:
                t *= 0.5
                continue
            finally:
                evaluations += 1
            norm_new = float(np.max(np.abs(g_new)))
            if norm_new < norm or norm_new <= tol:
                beta, g, norm = cand, g_new, norm_new
                accepted = True
                break
            t *= 0.5
        iterations += 1
        trace.append((beta.copy(), norm))
        if not accepted:
            return SolveReport(beta, iterations, norm, False, trace), evaluations
    converged = norm <= tol
    if converged:
        cond = np.linalg.cond(_reference_jacobian(ctx, beta))
        if not np.isfinite(cond) or cond > 1e14:
            raise SolverFailureError("derivative matrix is singular at the solution", trace=trace)
    return SolveReport(beta, iterations, norm, converged, trace), evaluations


def _design_row(spec, Y, Z, i):
    """Regressors [1 | y_{i-1} .. y_{i-lags} | z_i] for row index i of Y."""
    m = Y.shape[1]
    blocks = []
    if spec.intercept:
        blocks.append(np.ones((m, 1)))
    for lag in range(1, spec.lags + 1):
        blocks.append(Y[i - lag][:, None])
    if Z is not None:
        blocks.append(Z[min(i, len(Z) - 1)])  # the step after the last carries z forward
    return np.hstack(blocks)


def loop_design(spec):
    """(Xs, x_next) built one step at a time from a fresh read of the file."""
    Y, Z = _load_arrays(spec)
    T = Y.shape[0]
    Xs = np.stack([_design_row(spec, Y, Z, i) for i in range(spec.lags, T)])
    Y, Z = _load_arrays(spec)
    return Xs, _design_row(spec, Y, Z, T)


def masked_sigmoid(theta):
    """The logistic mean, filled through two boolean masks."""
    out = np.empty_like(theta, dtype=np.float64)
    pos = theta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-theta[pos]))
    ez = np.exp(theta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def masked_logistic_d2(theta):
    """mu'' = mu'(1-2mu), with mu' and mu each from its own exp."""
    e = np.exp(-np.abs(theta))
    return e / (1.0 + e) ** 2 * (1.0 - 2.0 * masked_sigmoid(theta))


def _read_rows(path):
    rows, lines = [], array("q")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if row and any(cell.strip() for cell in row):
                    rows.append(row)
                    lines.append(reader.line_num)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path!r}: {exc}") from exc
    if len(rows) < 2:
        raise DataError(f"dataset {path!r} has no data rows")
    header = [h.strip() for h in rows[0]]
    body, lines = rows[1:], lines[1:]
    for lineno, row in zip(lines, body):
        if len(row) != len(header):
            raise DataError(
                f"{path}: ragged row at line {lineno} "
                f"({len(row)} cells, header has {len(header)})"
            )
    return header, body, lines


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
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path}: cannot parse {text!r} at line {lineno}, column {col!r}"
        ) from None
    if required and not math.isfinite(value):
        raise DataError(
            f"{path}: non-finite response value {text!r} at line {lineno}, column {col!r} "
            "(responses must be finite)"
        )
    return value


def _impute_nearest(series, path, label):
    out = series.copy()
    finite = np.flatnonzero(np.isfinite(out))
    if finite.size == 0:
        raise DataError(f"{path}: {label} is entirely missing; nothing to impute from")
    for t in np.flatnonzero(~np.isfinite(out)):
        dist = np.abs(finite - t)
        out[t] = out[finite[np.argmin(dist)]]  # argmin takes the earliest on ties
    return out


def time_key(text):
    """Numbers first, by value and then text; then the rest by text.  A
    non-finite number has no place in that order: ValueError."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        return (1, 0.0, text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite time value {text!r}")
    return (0, value, text)


def _check_columns(path, header, names):
    """Every column the spec reads is in the header exactly once."""
    for name in names:
        if name not in header:
            raise DataError(f"{path}: column {name!r} not found in header")
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} appears {header.count(name)} times "
                            "in header")


def _load_wide(spec, header, body, lines):
    _check_columns(spec.path, header,
                   list(spec.response_cols) + [c for grp in spec.exog_cols for c in grp])
    col_index = {name: k for k, name in enumerate(header)}
    m = len(spec.response_cols)
    T = len(body)
    Y = np.empty((T, m))
    for t, row in enumerate(body):
        for j, col in enumerate(spec.response_cols):
            Y[t, j] = _cell_value(row[col_index[col]], spec.path, lines[t], col, required=True)
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
                        row[col_index[col]], spec.path, lines[t], col, required=False
                    )
    labels = [[f"column {group[j]!r}" for group in spec.exog_cols] for j in range(m)]
    return Y, Z, labels


def _load_long(spec, header, body, lines):
    _check_columns(spec.path, header,
                   [spec.time_col, spec.unit_col, spec.response_cols[0]] + list(spec.exog_cols))
    col_index = {name: k for k, name in enumerate(header)}
    t_idx, u_idx = col_index[spec.time_col], col_index[spec.unit_col]
    y_col = spec.response_cols[0]
    for lineno, row in zip(lines, body):
        try:
            time_key(row[t_idx])
        except ValueError as exc:
            raise DataError(f"{spec.path}: {exc} at line {lineno}, column {spec.time_col!r}") from None
    times = sorted({row[t_idx].strip() for row in body}, key=time_key)
    units = sorted({row[u_idx].strip() for row in body})
    t_pos = {t: k for k, t in enumerate(times)}
    u_pos = {u: k for k, u in enumerate(units)}
    T, m = len(times), len(units)
    Y = np.full((T, m), math.nan)
    q = len(spec.exog_cols)
    Z = np.full((T, m, q), math.nan) if q else None
    for lineno, row in zip(lines, body):
        t = t_pos[row[t_idx].strip()]
        u = u_pos[row[u_idx].strip()]
        if not math.isnan(Y[t, u]):
            raise DataError(
                f"{spec.path}: duplicate row for time {times[t]!r}, unit {units[u]!r} "
                f"at line {lineno}"
            )
        Y[t, u] = _cell_value(row[col_index[y_col]], spec.path, lineno, y_col, required=True)
        for v, col in enumerate(spec.exog_cols):
            Z[t, u, v] = _cell_value(row[col_index[col]], spec.path, lineno, col, required=False)
    if np.any(~np.isfinite(Y)):
        t, u = np.argwhere(~np.isfinite(Y))[0]
        raise DataError(
            f"{spec.path}: no response observation for time {times[t]!r}, unit {units[u]!r}"
        )
    labels = [[f"column {col!r} of unit {unit!r}" for col in spec.exog_cols] for unit in units]
    return Y, Z, labels


def cell_load_arrays(spec):
    """(Y, Z) of ``spec``'s CSV, read one row and one cell at a time."""
    header, body, lines = _read_rows(spec.path)
    load = _load_wide if spec.layout == "wide" else _load_long
    Y, Z, labels = load(spec, header, body, lines)
    if Z is not None:
        if spec.impute == "nearest":
            for j in range(Z.shape[1]):
                for v in range(Z.shape[2]):
                    Z[:, j, v] = _impute_nearest(Z[:, j, v], spec.path, labels[j][v])
        elif np.any(~np.isfinite(Z)):
            raise DataError(
                f"{spec.path}: missing exogenous values present and imputation is 'none'"
            )
    return Y, Z
