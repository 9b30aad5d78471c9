"""Sandwich covariance, large-sample confidence intervals, one-step prediction.

The estimator covariance is approximated by Psi = H^{-1} M H^{-1} with

    H = sum_i X_i' A_i^{1/2} R_i^{-1} A_i^{1/2} X_i,
    M = sum_i s_i s_i',   s_i = X_i' A_i^{1/2} R_i^{-1} eps_i,

where eps_i are the standardized residuals at the fitted beta.  Interval
half-widths scale with the standard error sqrt(lam' Psi lam); that is the
scaling consistent with the normal approximation
Psi^{-1/2} (beta_hat - beta_0) ~ N(0, I).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .estfun import EstimatingContext, _check_beta, _check_rank, _rows, weighted_design
from .model import LinkSpec, moment_arrays


@dataclass(frozen=True)
class SandwichEstimate:
    h_mat: np.ndarray
    m_mat: np.ndarray
    psi: np.ndarray
    se: np.ndarray


def sandwich_from_arrays(Xs, a, eps, rinv) -> SandwichEstimate:
    """Sandwich pieces from precomputed per-step arrays (see module docstring)."""
    xa, rinv_xa = weighted_design(Xs, a, rinv)
    h_mat = _rows(xa).T @ _rows(rinv_xa)
    scores = (eps[:, None, :] @ rinv_xa)[:, 0, :]
    m_mat = scores.T @ scores

    w = np.linalg.eigvalsh(h_mat)
    _check_rank(w, f"sandwich bread is rank deficient (lambda_min={w[0]!r})")
    hinv_m = np.linalg.solve(h_mat, m_mat)
    psi = np.linalg.solve(h_mat, hinv_m.T)
    psi = 0.5 * (psi + psi.T)
    se = np.sqrt(np.maximum(np.diag(psi), 0.0))
    return SandwichEstimate(h_mat=h_mat, m_mat=m_mat, psi=psi, se=se)


def sandwich(ctx: EstimatingContext, beta_hat) -> SandwichEstimate:
    """Sandwich covariance of beta_hat under the context's working correlation."""
    beta_hat = _check_beta(ctx, beta_hat)
    _, a, eps = moment_arrays(ctx.data.Xs, ctx.data.ys, beta_hat, ctx.link)
    return sandwich_from_arrays(ctx.data.Xs, a, eps, ctx.corr_inverses())


# Acklam's rational approximation to the standard-normal quantile, followed
# by one Halley refinement against the exact erfc-based CDF; the refined
# result is accurate to well below 1e-12 over (0, 1).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF, no statistical library required."""
    q = float(q)
    if not (0.0 < q < 1.0):
        raise ContractError(f"quantile argument must be in (0, 1), got {q}")
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if q < p_low:
        u = math.sqrt(-2.0 * math.log(q))
        x = (((((_C[0] * u + _C[1]) * u + _C[2]) * u + _C[3]) * u + _C[4]) * u + _C[5]) / \
            ((((_D[0] * u + _D[1]) * u + _D[2]) * u + _D[3]) * u + 1.0)
    elif q <= p_high:
        u = q - 0.5
        r = u * u
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * u / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    else:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -(((((_C[0] * u + _C[1]) * u + _C[2]) * u + _C[3]) * u + _C[4]) * u + _C[5]) / \
            ((((_D[0] * u + _D[1]) * u + _D[2]) * u + _D[3]) * u + 1.0)
    # Halley step: e = Phi(x) - q, Phi via erfc for tail accuracy
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - q
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    x = x - u / (1.0 + 0.5 * x * u)
    return x


def confidence_interval(est: SandwichEstimate, beta_hat, lam, level: float = 0.95):
    """Two-sided interval for the contrast lam' beta at the given level.

    The half-width is c * sqrt(lam' Psi lam) with c the upper
    (1-level)/2 standard-normal quantile; lam must be a unit vector.
    """
    lam = np.asarray(lam, dtype=np.float64)
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    if lam.shape != beta_hat.shape:
        raise ContractError("contrast and estimate dimensions disagree")
    if abs(np.linalg.norm(lam) - 1.0) > 1e-8:
        raise ContractError("contrast vector must have unit norm")
    if not (0.0 < level < 1.0):
        raise ContractError(f"level must be in (0, 1), got {level}")
    c = normal_quantile(1.0 - (1.0 - level) / 2.0)
    center = float(lam @ beta_hat)
    spread = c * math.sqrt(max(float(lam @ est.psi @ lam), 0.0))
    return center - spread, center + spread


def component_intervals(est: SandwichEstimate, beta_hat, level: float = 0.95) -> np.ndarray:
    """Per-component intervals, stacked as a (p, 2) array."""
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    c = normal_quantile(1.0 - (1.0 - level) / 2.0)
    half = c * est.se
    return np.column_stack([beta_hat - half, beta_hat + half])


def predict_next(X_next, beta_hat, link: LinkSpec) -> np.ndarray:
    """One-step-ahead conditional mean mu(X_next beta_hat), row-wise."""
    X_next = np.asarray(X_next, dtype=np.float64)
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    if X_next.ndim != 2 or X_next.shape[1] != beta_hat.shape[0]:
        raise ContractError(
            f"X_next shape {X_next.shape} incompatible with beta of length {beta_hat.shape[0]}"
        )
    return link.eval(X_next @ beta_hat)
