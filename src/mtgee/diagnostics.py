"""Numerical monitors for the asymptotic-theory conditions and optimality.

Divergence conditions ("the smallest eigenvalue of the cumulative
information grows without bound") cannot be proved from a finite sample;
the verdicts here are heuristic growth tests and are labelled
supported / violated / inconclusive accordingly.  The optimality monitor
tracks the determinant ratios det(H*_n)/det(Mbar_n) and
det(M*_n)/det(Mbar_n), which approach 1 when the working correlation
sequence converges to the true one, and a perturbation study that refits a
fit on regressors disturbed within ||delta_i|| <= d * 2^{-i}: the fit's own
equation (provider, plug-in beta), a Newton fit continued from its root with
its tol and max_iter, so at max_iter 0 every drift is 0.
"""

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corr import _check_spd
from .errors import ContractError, NumericalError, RankDeficiencyError
from .estfun import (EstimatingContext, FitResult, _check_beta, _gram, _rank_test,
                     _single_series, solve_linear, solve_newton)
from .model import ClusterSeries
from .simgen import substream

_TINY = 1e-12
CHECKPOINT_PIECES = 10  # the monitors report at the ends of this many equal stretches


def _check_sym_psd(mat, what, checkpoint):
    """The ascending eigenvalues of ``mat``, once it is checked symmetric and PSD."""
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-8 * scale:
        raise NumericalError(f"{what} lost symmetry at checkpoint {checkpoint}")
    w = np.linalg.eigvalsh(mat)
    if w[0] < -1e-8 * scale:
        raise NumericalError(f"{what} lost positive semidefiniteness at checkpoint {checkpoint}")
    return w


def _checkpoints(n: int):
    stride = max(1, -(-n // CHECKPOINT_PIECES))  # ceil(n / CHECKPOINT_PIECES)
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
class OptimalityReport:
    checkpoints: list
    det_ratio_H: np.ndarray
    det_ratio_M: np.ndarray


@dataclass
class PerturbationReport:
    budgets: np.ndarray
    perturb_drift: np.ndarray  # ||beta(delta) - beta(0)|| per budget
    det_ratio_H: np.ndarray  # full-sample ratios per budget
    det_ratio_M: np.ndarray


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
        running = running + _gram(left[prev:pt], right[prev:pt])
        out[k] = running
        prev = pt
    return out


def _check_true_corr(true_corr, m):
    """``true_corr`` as an m x m SPD float64 matrix (see corr._check_spd)."""
    if np.shape(true_corr) != (m, m):
        raise ContractError(f"true_corr has shape {np.shape(true_corr)}, expected {(m, m)}")
    return _check_spd(true_corr, "true_corr")


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
    _single_series(ctx, "eigen_conditions")
    beta_hat = _check_beta(ctx, beta_hat)
    for d in delta_grid:
        if not (0.0 < d <= 0.5):
            raise ContractError(f"delta values must lie in (0, 0.5], got {d}")
    xa = ctx.moments(beta_hat)[2]  # A^{1/2} X: H'_n is its running Gram
    pts = _checkpoints(ctx.data.n)
    lam_min = np.empty(len(pts))
    lam_max = np.empty(len(pts))
    for k, (pt, running) in enumerate(zip(pts, _running_gram(xa, xa, pts))):
        w = _check_sym_psd(running, "cumulative information", pt)
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


def optimality_ratios(ctx: EstimatingContext, beta_hat, true_corr) -> OptimalityReport:
    """Determinant-ratio series of the provider's information vs the true-correlation one.

    H*_n sums X' A^{1/2} R_i^{-1} A^{1/2} X, Mbar_n the same with the true
    correlation, and M*_n the middle-sandwiched X' A^{1/2} R_i^{-1} Rbar
    R_i^{-1} A^{1/2} X.  When R_i equals the true matrix at every step all
    three coincide and both ratios are exactly 1.
    """
    _single_series(ctx, "optimality_ratios")
    beta_hat = _check_beta(ctx, beta_hat)
    true_corr = _check_true_corr(true_corr, ctx.data.m)
    _, _, xa, rinv_xa = ctx.moments(beta_hat)

    pts = _checkpoints(ctx.data.n)
    h_runs = _running_gram(xa, rinv_xa, pts)
    mbar_runs = _running_gram(xa, np.linalg.inv(true_corr) @ xa, pts)
    mstar_runs = _running_gram(rinv_xa, true_corr @ rinv_xa, pts)
    ratio_h = np.empty(len(pts))
    ratio_m = np.empty(len(pts))
    for k, pt in enumerate(pts):
        h_run, mbar_run, mstar_run = h_runs[k], mbar_runs[k], mstar_runs[k]
        _check_sym_psd(h_run, "provider information", pt)
        w_bar = _check_sym_psd(mbar_run, "reference information", pt)
        _check_sym_psd(mstar_run, "sandwiched information", pt)
        det_bar = np.linalg.det(mbar_run)
        if det_bar <= 0.0:
            raise RankDeficiencyError(
                f"reference information singular at checkpoint {pt}",
                lambda_min=float(w_bar[0]),
            )
        ratio_h[k] = np.linalg.det(h_run) / det_bar
        ratio_m[k] = np.linalg.det(mstar_run) / det_bar
    return OptimalityReport(checkpoints=pts, det_ratio_H=ratio_h, det_ratio_M=ratio_m)


def leverage(ctx: EstimatingContext, beta_hat) -> LeverageStats:
    """Leverage moduli of the cumulative information.

    gamma' is the largest quadratic form x_ij' (H'_n)^{-1} x_ij over all
    regressor rows, and a' = lambda_max(H'_n) * gamma'.
    """
    _single_series(ctx, "leverage")
    beta_hat = _check_beta(ctx, beta_hat)
    xa = ctx.moments(beta_hat)[2]
    h_mat = _gram(xa, xa)
    _rank_test(h_mat, "cumulative information")
    hinv = np.linalg.inv(h_mat)
    gamma = float(np.max(((ctx.data.Xs @ hinv) * ctx.data.Xs).sum(axis=2)))
    return LeverageStats(gamma_prime=gamma, a_prime=float(np.linalg.eigvalsh(h_mat)[-1]) * gamma)


def _scale_to_budget(deltas, d):
    """Scale each delta_i of ``deltas`` (n, m, p) in place to spectral norm
    d * 2^{-i} (i is 1-based) and return it; a zero delta_i stays zero.

    The spectral norm is the square root of the largest eigenvalue of the
    p x p Gram delta_i' delta_i, a well-conditioned eigenvalue, so it agrees
    with the largest singular value to a few ulps.
    """
    gram = np.swapaxes(deltas, 1, 2) @ deltas
    norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    scale = np.zeros(len(deltas))
    np.divide(d * 2.0 ** -np.arange(1.0, len(deltas) + 1), norms, out=scale, where=norms > 0)
    deltas *= scale[:, None, None]
    return deltas


def perturbation_sensitivity(fitted: FitResult, d_grid: Sequence[float], seed: int,
                             true_corr) -> PerturbationReport:
    """Refit ``fitted`` after perturbing its regressors within geometrically
    decaying budgets.

    For each budget d the step-i regressor matrix is shifted by a random
    matrix of spectral norm exactly d * 2^{-i} (direction uniform); the
    report records the estimate drift ||beta(delta) - beta(0)|| and the
    full-sample determinant ratios against ``true_corr``, each on its
    refit's own context.  The grid must include 0, whose fit is ``fitted``
    itself.  A refit is the fit's context (provider, plug-in beta, link) on
    the perturbed data, solved by the closed form if ``fitted`` has no
    Newton report, else by Newton from ``fitted.beta_hat`` with the fit's
    ``tol`` and ``max_iter``: a fit that did not converge is continued from
    its own root, so at ``max_iter`` 0 every drift is 0.
    """
    ctx, base = fitted.ctx, fitted.beta_hat
    _single_series(ctx, "perturbation_sensitivity")
    true_corr = _check_true_corr(true_corr, ctx.data.m)
    budgets = np.asarray(list(d_grid), dtype=np.float64)
    if budgets.size == 0 or not np.any(budgets == 0.0):
        raise ContractError("d_grid must include 0")
    if np.any(budgets < 0):
        raise ContractError("budgets must be nonnegative")
    if not np.all(np.isfinite(budgets)):
        raise ContractError(f"budgets must be finite, got {budgets.tolist()}")
    n, m, p = ctx.data.n, ctx.data.m, ctx.data.p

    def measure(k, d):
        """Drift and full-sample determinant ratios of the fit at budget d."""
        beta_d, ctx_d = base, ctx
        if d > 0.0:
            deltas = _scale_to_budget(substream(seed, k).standard_normal((n, m, p)), d)
            ctx_d = replace(ctx, data=ClusterSeries(ys=ctx.data.ys, Xs=ctx.data.Xs + deltas))
            del deltas  # freed before the refit, which sets the peak memory
            beta_d = solve_linear(ctx_d) if fitted.solver is None else solve_newton(
                ctx_d, beta_init=base, tol=fitted.tol, max_iter=fitted.max_iter).beta_hat
        rep = optimality_ratios(ctx_d, beta_d, true_corr)
        return float(np.linalg.norm(beta_d - base)), rep.det_ratio_H[-1], rep.det_ratio_M[-1]

    # one call per budget, so a refit's context and correlation sequences are
    # freed before the next refit starts
    drifts, ratio_h, ratio_m = zip(*(measure(k, d) for k, d in enumerate(budgets)))
    return PerturbationReport(budgets=budgets, perturb_drift=np.array(drifts),
                              det_ratio_H=np.array(ratio_h), det_ratio_M=np.array(ratio_m))
