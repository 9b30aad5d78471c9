"""Reference computations for the output checks, written apart from the program.

Only numpy is used, plus scipy for the standard-normal quantile.  Nothing
here imports ``mtgee``; the two-step property checks in workloads.py call
the library function under test and judge its output with these helpers.
Every tolerance is stated where it is used.
"""

import csv
import math

import numpy as np
from scipy.stats import norm

MISSING_TOKENS = {"", "na", "nan", "null", "none"}


class CheckLog:
    """Failures of one operation, each tagged with the id of the check that failed."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, check, message):
        if not ok:
            self.failures.append((check, message))
        return bool(ok)

    def close(self, check, got, want, rtol, atol=0.0):
        """|got - want| <= atol + rtol * |want| elementwise, shapes equal."""
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            return self.expect(False, check, f"shape {got.shape} != expected {want.shape}")
        if not (np.all(np.isfinite(got)) and np.all(np.isfinite(want))):
            return self.expect(False, check, "non-finite value")
        excess = np.abs(got - want) - (atol + rtol * np.abs(want))
        worst = float(np.max(excess)) if excess.size else 0.0
        dev = float(np.max(np.abs(got - want))) if excess.size else 0.0
        return self.expect(worst <= 0.0, check,
                           f"max deviation {dev:.3e} exceeds rtol={rtol:g}, atol={atol:g}")


# ---------------------------------------------------------------------------
# CSV ingestion, re-implemented from the documented rules
# ---------------------------------------------------------------------------

def _cell(text):
    text = text.strip()
    return math.nan if text.lower() in MISSING_TOKENS else float(text)


def impute_nearest(col):
    """Fill NaNs from the nearest finite time index; the earlier index wins ties."""
    col = np.asarray(col, dtype=np.float64)
    ok = np.flatnonzero(np.isfinite(col))
    bad = np.flatnonzero(~np.isfinite(col))
    if bad.size == 0:
        return col
    pos = np.searchsorted(ok, bad)
    left = ok[np.clip(pos - 1, 0, ok.size - 1)]
    right = ok[np.clip(pos, 0, ok.size - 1)]
    use_left = (pos > 0) & ((pos == ok.size) | (bad - left <= right - bad))
    out = col.copy()
    out[bad] = col[np.where(use_left, left, right)]
    return out


def _rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    header = [h.strip() for h in rows[0]]
    return {name: k for k, name in enumerate(header)}, rows[1:]


def design_arrays(Y, Z, lags):
    """Steps i = lags..T-1 with row [1 | y_{i-1} .. y_{i-lags} | z_i]; plus the next-step row."""
    T, m = Y.shape
    blocks = [np.ones((T - lags, m, 1))]
    blocks += [Y[lags - lag:T - lag][:, :, None] for lag in range(1, lags + 1)]
    blocks.append(Z[lags:])
    Xs = np.concatenate(blocks, axis=2)
    x_next = np.concatenate(
        [np.ones((m, 1))] + [Y[T - lag][:, None] for lag in range(1, lags + 1)] + [Z[T - 1]],
        axis=1,
    )
    return Xs, Y[lags:], x_next


def read_wide(path, response_cols, exog_groups, lags):
    col, body = _rows(path)
    Y = np.array([[float(r[col[c]]) for c in response_cols] for r in body])
    Z = np.stack(
        [np.array([[_cell(r[col[c]]) for c in group] for r in body]) for group in exog_groups],
        axis=2,
    )
    for j in range(Z.shape[1]):
        for v in range(Z.shape[2]):
            Z[:, j, v] = impute_nearest(Z[:, j, v])
    return design_arrays(Y, Z, lags)


def read_long(path, time_col, unit_col, response_col, exog_cols, lags):
    col, body = _rows(path)
    times = sorted({float(r[col[time_col]]) for r in body})
    units = sorted({r[col[unit_col]].strip() for r in body})
    t_pos = {t: k for k, t in enumerate(times)}
    u_pos = {u: k for k, u in enumerate(units)}
    Y = np.full((len(times), len(units)), math.nan)
    Z = np.full((len(times), len(units), len(exog_cols)), math.nan)
    for r in body:
        t, u = t_pos[float(r[col[time_col]])], u_pos[r[col[unit_col]].strip()]
        Y[t, u] = float(r[col[response_col]])
        Z[t, u] = [_cell(r[col[c]]) for c in exog_cols]
    if not np.all(np.isfinite(Y)):
        raise ValueError(f"{path}: a (time, unit) response is missing")
    for j in range(Z.shape[1]):
        for v in range(Z.shape[2]):
            Z[:, j, v] = impute_nearest(Z[:, j, v])
    return design_arrays(Y, Z, lags)


# ---------------------------------------------------------------------------
# links, estimating function, sandwich
# ---------------------------------------------------------------------------

def link_mean_var(kind, theta):
    """(mu, mu') for the identity and logistic links."""
    if kind == "identity":
        return theta, np.ones_like(theta)
    if kind == "logistic":
        mu = 0.5 * (1.0 + np.tanh(0.5 * theta))
        return mu, mu * (1.0 - mu)
    raise ValueError(kind)


def fixed_corr(kind, alpha, m):
    idx = np.arange(m)
    if kind == "independence":
        return np.eye(m)
    if kind == "compound_symmetry":
        return np.where(idx[:, None] == idx[None, :], 1.0, alpha)
    if kind == "ar1":
        return float(alpha) ** np.abs(idx[:, None] - idx[None, :])
    raise ValueError(kind)


def gee_pieces(Xs, ys, beta, link, rinv):
    """g_n, H, M and Psi = H^-1 M H^-1 for a fixed working correlation (rinv is m x m)."""
    mu, a = link_mean_var(link, Xs @ beta)
    eps = (ys - mu) / np.sqrt(a)
    xa = Xs * np.sqrt(a)[:, :, None]
    w_xa = np.einsum("ab,nbk->nak", rinv, xa)
    scores = np.einsum("nak,na->nk", w_xa, eps)
    g = scores.sum(axis=0)
    h_mat = np.einsum("nap,nak->pk", xa, w_xa)
    m_mat = scores.T @ scores
    h_inv = np.linalg.inv(h_mat)
    psi = h_inv @ m_mat @ h_inv
    return g, h_mat, m_mat, 0.5 * (psi + psi.T)


def z_quantile(level):
    return float(norm.ppf(0.5 + 0.5 * level))


def check_estimate_block(log, result, x_next, link, level, beta_true, n_se):
    """Prediction, intervals, Psi and closeness to the generating beta for a fit payload."""
    beta = np.asarray(result["beta_hat"], dtype=np.float64)
    se = np.asarray(result["se"], dtype=np.float64)
    psi = np.asarray(result["psi"], dtype=np.float64)
    cis = np.asarray(result["cis"], dtype=np.float64)
    mu, _ = link_mean_var(link, x_next @ beta)
    log.close("prediction", result["prediction"], mu, rtol=1e-12, atol=1e-12)
    z = z_quantile(level)
    log.close("intervals", cis, np.column_stack([beta - z * se, beta + z * se]),
              rtol=1e-12, atol=1e-13 * float(np.max(np.abs(beta))))
    log.close("psi_symmetric", psi, psi.T, rtol=0.0, atol=1e-14 * float(np.max(np.abs(psi))))
    log.expect(np.linalg.eigvalsh(0.5 * (psi + psi.T))[0] >= -1e-12 * float(np.max(np.abs(psi))),
               "psi_psd", "Psi has a negative eigenvalue")
    log.close("se_is_sqrt_diag_psi", se, np.sqrt(np.diag(psi)), rtol=1e-12)
    zscores = np.abs(beta - np.asarray(beta_true)) / se
    log.expect(np.all(zscores <= n_se), "near_generating_beta",
               f"|beta_hat - beta_true| / se = {np.round(zscores, 2).tolist()} exceeds {n_se}")
    return beta


# ---------------------------------------------------------------------------
# diagnose payloads
# ---------------------------------------------------------------------------

def checkpoints(n, pieces=10):
    stride = max(1, -(-n // pieces))
    pts = list(range(stride, n + 1, stride))
    if pts[-1] != n:
        pts.append(n)
    return pts


def check_diagnose(log, payload, Xs, beta_fit, link, d_grid, delta_grid):
    """Eigenvalue trajectory, leverage and zero-budget drift against Sum X'AX at beta_hat."""
    beta = np.asarray(payload["result"]["beta_hat"], dtype=np.float64)
    log.close("diagnose_beta_matches_fit", beta, beta_fit, rtol=1e-12, atol=1e-15)
    diag = payload["diagnostics"]
    _, a = link_mean_var(link, Xs @ beta)
    terms = np.einsum("nmp,nm,nmk->npk", Xs, a, Xs)
    cum = np.cumsum(terms, axis=0)
    pts = checkpoints(Xs.shape[0])
    cond = diag["conditions"]
    log.expect(cond["checkpoints"] == pts, "checkpoints", "checkpoint grid differs")
    lam = np.linalg.eigvalsh(cum[np.asarray(pts) - 1])
    scale = float(lam[-1, -1])
    log.close("lambda_min", cond["lambda_min"], lam[:, 0], rtol=1e-8, atol=1e-11 * scale)
    log.close("lambda_max", cond["lambda_max"], lam[:, -1], rtol=1e-10)
    for d in delta_grid:
        key = format(d, "g")
        got = cond["s_delta_ratio"].get(key)
        log.expect(got is not None, "s_delta_ratio", f"no ratio series for delta {key}")
        if got is not None:
            log.close("s_delta_ratio", got, lam[:, 0] / lam[:, -1] ** (0.5 + d), rtol=1e-7,
                      atol=1e-11 * scale / lam[0, -1] ** 0.5)
    h_inv = np.linalg.inv(cum[-1])
    gamma = float(np.max(np.einsum("nmp,pq,nmq->nm", Xs, h_inv, Xs)))
    lev = diag["leverage"]
    log.close("leverage_gamma", lev["gamma_prime"], gamma, rtol=1e-8)
    log.close("leverage_a", lev["a_prime"], lam[-1, -1] * gamma, rtol=1e-8)
    pert = diag.get("perturbation")
    log.expect(pert is not None, "perturbation", "no perturbation block")
    if pert is not None:
        log.close("perturbation_budgets", pert["budgets"], d_grid, rtol=0.0)
        zero = [k for k, b in enumerate(pert["budgets"]) if b == 0]
        log.expect(zero and all(pert["perturb_drift"][k] == 0 for k in zero),
                   "zero_budget_drift", "drift at budget 0 is not exactly 0")
        log.expect(all(math.isfinite(v) and v >= 0 for v in pert["perturb_drift"]),
                   "drift_finite", "drift is negative or not finite")


# ---------------------------------------------------------------------------
# Monte Carlo: series and fixed-correlation estimators
# ---------------------------------------------------------------------------

def philox_normals(seed, rep, n, m):
    """Standard normals of replication ``rep``: Philox keyed by (seed mod 2^64, rep)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, rep], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((n, m))


def ar2_replications(normals, corr, beta0):
    """y_i = b1 y_{i-1} + b2 y_{i-2} + L z_i from zero start; X_i = [y_{i-1} | y_{i-2}].

    ``normals`` has shape (S, n, m); returns ys (S, n, m) and Xs (S, n, m, 2).
    """
    innov = normals @ np.linalg.cholesky(corr).T
    S, n, m = innov.shape
    ys = np.empty((S, n, m))
    Xs = np.zeros((S, n, m, 2))
    prev1 = np.zeros((S, m))
    prev2 = np.zeros((S, m))
    for i in range(n):
        Xs[:, i, :, 0] = prev1
        Xs[:, i, :, 1] = prev2
        ys[:, i] = beta0[0] * prev1 + beta0[1] * prev2 + innov[:, i]
        prev2, prev1 = prev1, ys[:, i]
    return ys, Xs


def gls_replications(Xs, ys, corr, level):
    """Closed-form GLS with a fixed R, its sandwich and per-component intervals, per replication."""
    rinv = np.linalg.inv(corr)
    w_x = np.einsum("ab,snbk->snak", rinv, Xs)
    h_mat = np.einsum("snap,snak->spk", Xs, w_x)
    beta = np.linalg.solve(h_mat, np.einsum("snak,sna->sk", w_x, ys)[..., None])[..., 0]
    eps = ys - np.einsum("snmp,sp->snm", Xs, beta)
    scores = np.einsum("snak,sna->snk", w_x, eps)
    m_mat = np.einsum("snk,snl->skl", scores, scores)
    h_inv = np.linalg.inv(h_mat)
    psi = h_inv @ m_mat @ h_inv
    se = np.sqrt(np.diagonal(psi, axis1=1, axis2=2))
    z = z_quantile(level)
    return beta, beta - z * se, beta + z * se
