"""Numerical monitors for the asymptotic-theory conditions and optimality.

Divergence conditions ("the smallest eigenvalue of the cumulative
information grows without bound") cannot be proved from a finite sample;
the verdicts here are heuristic growth tests and are labelled
supported / violated / inconclusive accordingly.  The optimality monitor
tracks the determinant ratios det(H*_n)/det(Mbar_n) and
det(M*_n)/det(Mbar_n), which approach 1 when the working correlation
sequence converges to the true one, and a perturbation study that refits
after disturbing the regressors under a geometrically decaying budget
||delta_i|| <= d * 2^{-i}.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corr import SequenceCorr
from .errors import ContractError, NumericalError, RankDeficiencyError
from .estfun import (
    EstimatingContext,
    _check_rank,
    _rows,
    fit_two_step,
    solve_linear,
    solve_newton,
    weighted_design,
)
from .model import moment_arrays
from .simgen import substream

_TINY = 1e-12


def _check_sym_psd(mat, what, checkpoint):
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-8 * scale:
        raise NumericalError(f"{what} lost symmetry at checkpoint {checkpoint}")
    if np.linalg.eigvalsh(mat)[0] < -1e-8 * scale:
        raise NumericalError(f"{what} lost positive semidefiniteness at checkpoint {checkpoint}")


def _checkpoints(n: int, pieces: int = 10):
    stride = max(1, -(-n // pieces))  # ceil(n / pieces)
    pts = list(range(stride, n + 1, stride))
    if pts[-1] != n:
        pts.append(n)
    return pts


@dataclass
class ConditionReport:
    checkpoints: list
    lambda_min: np.ndarray
    lambda_max: np.ndarray
    s_delta_ratio: dict  # delta -> ratio series lambda_min / lambda_max^(1/2+delta)
    verdicts: dict


@dataclass
class ErgodicityReport:
    checkpoints: list
    deviations: np.ndarray  # (n_checkpoints, n_replications)

    def median(self):
        return np.median(self.deviations, axis=1)


@dataclass
class OptimalityReport:
    checkpoints: list
    det_ratio_H: np.ndarray
    det_ratio_M: np.ndarray


@dataclass
class PerturbationReport:
    budgets: np.ndarray
    perturb_drift: np.ndarray  # ||beta(delta) - beta(0)|| per budget
    det_ratio_H: Optional[np.ndarray] = None  # full-sample ratios per budget
    det_ratio_M: Optional[np.ndarray] = None


@dataclass
class LeverageStats:
    gamma_prime: float
    a_prime: float


def _running_gram(left, right, pts):
    """sum_{i < pt} left_i' right_i at each checkpoint pt, shape (len(pts), p, q);
    each increment is one GEMM over the flattened (steps * m, p) rows."""
    out = np.empty((len(pts), left.shape[-1], right.shape[-1]))
    running, prev = 0.0, 0
    for k, pt in enumerate(pts):
        running = running + _rows(left[prev:pt]).T @ _rows(right[prev:pt])
        out[k] = running
        prev = pt
    return out


def _information_design(ctx: EstimatingContext, beta_hat):
    """A^{1/2} X per step, so that H'_n = sum X' A X is its Gram matrix."""
    _, a, _ = moment_arrays(ctx.data.Xs, ctx.data.ys, beta_hat, ctx.link)
    return ctx.data.Xs * np.sqrt(a)[:, :, None]


def eigen_conditions(
    ctx: EstimatingContext, beta_hat, delta_grid: Sequence[float] = (0.1, 0.25, 0.5)
) -> ConditionReport:
    """Track eigenvalues of the cumulative information H'_n = sum X'AX.

    Verdicts: divergence is called "supported" when the smallest eigenvalue
    at the last checkpoint is at least twice its first-checkpoint value,
    "violated" when it is (numerically) zero at the end, else
    "inconclusive".  The eigenvalue-ratio condition (smallest eigenvalue
    bounded below by a power of the largest) is "supported" when the ratio
    series over the second half of the checkpoints stays above half its
    first-half minimum.
    """
    for d in delta_grid:
        if not (0.0 < d <= 0.5):
            raise ContractError(f"delta values must lie in (0, 0.5], got {d}")
    n, p = ctx.data.n, ctx.data.p
    if n < p:
        raise ContractError(f"need n >= p, got n={n}, p={p}")
    xa = _information_design(ctx, beta_hat)
    pts = _checkpoints(n)
    lam_min = np.empty(len(pts))
    lam_max = np.empty(len(pts))
    for k, (pt, running) in enumerate(zip(pts, _running_gram(xa, xa, pts))):
        _check_sym_psd(running, "cumulative information", pt)
        w = np.linalg.eigvalsh(running)
        lam_min[k], lam_max[k] = w[0], w[-1]

    ratios = {}
    for d in delta_grid:
        denom = np.where(lam_max > 0, lam_max ** (0.5 + d), np.inf)
        ratios[float(d)] = lam_min / denom

    verdicts = {}
    if len(pts) < 3:
        verdicts["D"] = "inconclusive"
    elif lam_min[-1] <= _TINY:
        verdicts["D"] = "violated"
    elif lam_min[-1] >= 2.0 * max(lam_min[0], _TINY):
        verdicts["D"] = "supported"
    else:
        verdicts["D"] = "inconclusive"

    s_verdicts = {}
    for d, series in ratios.items():
        if len(pts) < 4:
            s_verdicts[d] = "inconclusive"
        elif lam_min[-1] <= _TINY:
            s_verdicts[d] = "violated"
        else:
            half = len(series) // 2
            first, second = np.min(series[:half]), np.min(series[half:])
            s_verdicts[d] = "supported" if second >= 0.5 * first > 0 else "inconclusive"
    verdicts["S_delta"] = s_verdicts

    return ConditionReport(
        checkpoints=pts,
        lambda_min=lam_min,
        lambda_max=lam_max,
        s_delta_ratio=ratios,
        verdicts=verdicts,
    )


def _score_terms(ctx: EstimatingContext, beta):
    """Per-step score contributions s_i = X' A^{1/2} R^{-1} eps, shape (n, p)."""
    _, a, eps = moment_arrays(ctx.data.Xs, ctx.data.ys, beta, ctx.link)
    _, rinv_xa = weighted_design(ctx.data.Xs, a, ctx.corr_inverses())
    return (eps[:, None, :] @ rinv_xa)[:, 0, :]


def ergodicity_check(mc_data, beta0, ctx_template: EstimatingContext) -> ErgodicityReport:
    """How far each replication's realized information V_n sits from the average.

    V_n is the running sum of score outer products at beta0; the
    across-replication mean at each checkpoint estimates its expectation
    M_n, and the report records ||M_n^{-1/2} V_n M_n^{-1/2} - I|| (spectral
    norm) per replication.  Under ergodic designs the deviations shrink
    with n.
    """
    reps = list(mc_data)
    if len(reps) < 50:
        raise ContractError(f"ergodicity check needs >= 50 replications, got {len(reps)}")
    n = reps[0].n
    p = reps[0].p
    pts = _checkpoints(n)
    v_mats = np.empty((len(reps), len(pts), p, p))
    for r, data in enumerate(reps):
        if data.n != n or data.p != p:
            raise ContractError("replications must share dimensions")
        ctx = ctx_template.with_data(data)
        scores = _score_terms(ctx, beta0)[:, None, :]
        v_mats[r] = _running_gram(scores, scores, pts)

    deviations = np.empty((len(pts), len(reps)))
    eye = np.eye(p)
    for k in range(len(pts)):
        m_hat = v_mats[:, k].mean(axis=0)
        w, vecs = np.linalg.eigh(m_hat)
        _check_rank(w, f"average information singular at checkpoint {pts[k]}")
        m_isqrt = (vecs / np.sqrt(w)) @ vecs.T
        for r in range(len(reps)):
            dev = m_isqrt @ v_mats[r, k] @ m_isqrt - eye
            deviations[k, r] = np.linalg.norm(dev, 2)
    return ErgodicityReport(checkpoints=pts, deviations=deviations)


def optimality_ratios(ctx: EstimatingContext, beta_hat, true_corr) -> OptimalityReport:
    """Determinant-ratio series of the provider's information vs the true-correlation one.

    H*_n sums X' A^{1/2} R_i^{-1} A^{1/2} X, Mbar_n the same with the true
    correlation, and M*_n the middle-sandwiched X' A^{1/2} R_i^{-1} Rbar
    R_i^{-1} A^{1/2} X.  When R_i equals the true matrix at every step all
    three coincide and both ratios are exactly 1.
    """
    true_corr = np.asarray(true_corr, dtype=np.float64)
    _, a, _ = moment_arrays(ctx.data.Xs, ctx.data.ys, beta_hat, ctx.link)
    xa, rinv_xa = weighted_design(ctx.data.Xs, a, ctx.corr_inverses())

    pts = _checkpoints(ctx.data.n)
    h_runs = _running_gram(xa, rinv_xa, pts)
    mbar_runs = _running_gram(xa, np.linalg.inv(true_corr) @ xa, pts)
    mstar_runs = _running_gram(rinv_xa, true_corr @ rinv_xa, pts)
    ratio_h = np.empty(len(pts))
    ratio_m = np.empty(len(pts))
    for k, pt in enumerate(pts):
        h_run, mbar_run, mstar_run = h_runs[k], mbar_runs[k], mstar_runs[k]
        _check_sym_psd(h_run, "provider information", pt)
        _check_sym_psd(mbar_run, "reference information", pt)
        _check_sym_psd(mstar_run, "sandwiched information", pt)
        det_bar = np.linalg.det(mbar_run)
        if det_bar <= 0.0:
            raise RankDeficiencyError(
                f"reference information singular at checkpoint {pt}",
                lambda_min=float(np.linalg.eigvalsh(mbar_run)[0]),
            )
        ratio_h[k] = np.linalg.det(h_run) / det_bar
        ratio_m[k] = np.linalg.det(mstar_run) / det_bar
    return OptimalityReport(checkpoints=pts, det_ratio_H=ratio_h, det_ratio_M=ratio_m)


def leverage(ctx: EstimatingContext, beta_hat) -> LeverageStats:
    """Leverage moduli of the cumulative information.

    gamma' is the largest quadratic form x_ij' (H'_n)^{-1} x_ij over all
    regressor rows, and a' = lambda_max(H'_n) * gamma'.
    """
    xa = _information_design(ctx, beta_hat)
    h_mat = _rows(xa).T @ _rows(xa)
    w = np.linalg.eigvalsh(h_mat)
    _check_rank(w, f"cumulative information is singular (lambda_min={w[0]!r})")
    hinv = np.linalg.inv(h_mat)
    gamma = float(np.max(((ctx.data.Xs @ hinv) * ctx.data.Xs).sum(axis=2)))
    return LeverageStats(gamma_prime=gamma, a_prime=float(w[-1]) * gamma)


def _refit(ctx: EstimatingContext, method: str):
    """Refit returning (beta, realized correlation sequence)."""
    if method == "two_step":
        ts = fit_two_step(ctx.data, ctx.link)
        return ts.beta, ts.corr_seq
    if method == "linear":
        return solve_linear(ctx), ctx.corr_matrices()
    if method == "newton":
        report = solve_newton(ctx)
        return report.beta_hat, ctx.corr_matrices()
    raise ContractError(f"unknown refit method {method!r}")


def perturbation_sensitivity(
    ctx: EstimatingContext,
    beta_method: str,
    d_grid: Sequence[float],
    seed: int,
    true_corr=None,
    base=None,
) -> PerturbationReport:
    """Refit after perturbing regressors within geometrically decaying budgets.

    For each budget d the step-i regressor matrix is shifted by a random
    matrix of spectral norm exactly d * 2^{-i} (direction uniform); the
    report records the estimate drift ||beta(delta) - beta(0)|| and, when
    the true correlation is supplied, the full-sample determinant ratios
    under the perturbed fit.  The grid must include 0, whose drift is
    exactly zero by construction.  ``base``, the (beta, correlation
    sequence) of a fit already made with ``beta_method`` on ``ctx``, spares
    the refit at budget 0.
    """
    budgets = np.asarray(list(d_grid), dtype=np.float64)
    if budgets.size == 0 or not np.any(budgets == 0.0):
        raise ContractError("d_grid must include 0")
    if np.any(budgets < 0):
        raise ContractError("budgets must be nonnegative")

    base_beta, base_seq = _refit(ctx, beta_method) if base is None else base
    n, m, p = ctx.data.n, ctx.data.m, ctx.data.p

    def ratios_at_full_n(data, beta, seq):
        sub = EstimatingContext(data=data, link=ctx.link, corr=SequenceCorr(seq))
        rep = optimality_ratios(sub, beta, true_corr)
        return rep.det_ratio_H[-1], rep.det_ratio_M[-1]

    drifts = np.empty(budgets.size)
    ratio_h = np.empty(budgets.size) if true_corr is not None else None
    ratio_m = np.empty(budgets.size) if true_corr is not None else None
    for k, d in enumerate(budgets):
        if d == 0.0:
            beta_d, seq_d, data_d = base_beta, base_seq, ctx.data
        else:
            rng = substream(seed, k)
            deltas = rng.standard_normal((n, m, p))
            # scale each delta_i to spectral norm d * 2^{-i} (i is 1-based)
            norms = np.linalg.norm(deltas, 2, axis=(1, 2))
            scale = np.zeros(n)
            np.divide(d * 2.0 ** -np.arange(1.0, n + 1), norms, out=scale, where=norms > 0)
            deltas *= scale[:, None, None]
            data_d = ctx.data.with_regressors(ctx.data.Xs + deltas)
            beta_d, seq_d = _refit(ctx.with_data(data_d), beta_method)
        drifts[k] = float(np.linalg.norm(beta_d - base_beta))
        if true_corr is not None:
            ratio_h[k], ratio_m[k] = ratios_at_full_n(data_d, beta_d, seq_d)
    return PerturbationReport(
        budgets=budgets, perturb_drift=drifts, det_ratio_H=ratio_h, det_ratio_M=ratio_m
    )
