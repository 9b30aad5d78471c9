"""Sandwich covariance, large-sample confidence intervals, one-step prediction.

The estimator covariance is approximated by Psi = H^{-1} M H^{-1} with

    H = sum_i X_i' A_i^{1/2} R_i^{-1} A_i^{1/2} X_i,
    M = sum_i s_i s_i',   s_i = (R_i^{-1} A_i^{1/2} X_i)' eps_i,

where eps_i are the standardized residuals at the fitted beta.  Both read
R_i only through the weighted design R_i^{-1} A_i^{1/2} X_i, the weight of
the estimating function; with the identity link that is the context's
cached R_i^{-1} X_i, the array the closed form solved with.  eps_i and both
designs are the context's moments at beta (``EstimatingContext.moments``),
which a Newton fit holds at its root.
Interval half-widths scale with the standard errors sqrt(Psi_kk), as the
normal approximation Psi^{-1/2} (beta_hat - beta_0) ~ N(0, I) implies.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ContractError
from .estfun import EstimatingContext, _check_beta, _gram, _rank_test
from .model import LinkSpec


@dataclass(frozen=True)
class SandwichEstimate:
    h_mat: np.ndarray
    m_mat: np.ndarray
    psi: np.ndarray
    se: np.ndarray


def sandwich_from_arrays(xa, rinv_xa, eps) -> SandwichEstimate:
    """Sandwich pieces from the per-step weighted designs A^{1/2} X and
    R^{-1} A^{1/2} X and the standardized residuals (see module docstring).

    The arrays may be stacks of series with a leading replication axis; each
    piece then has it too, from one stacked GEMM per sum, one batched rank
    test of the breads and one batched solve.  A bread that is not finite or
    fails the rank test raises for a single series (``estfun._rank_test``);
    in a stack its psi and se are NaN.
    """
    h_mat = _gram(xa, rinv_xa)
    scores = (eps[..., None, :] @ rinv_xa)[..., 0, :]
    m_mat = np.swapaxes(scores, -1, -2) @ scores

    ok = _rank_test(h_mat, "sandwich bread")
    psi = np.full(h_mat.shape, np.nan)
    hinv_m = np.linalg.solve(h_mat[ok], m_mat[ok])
    psi[ok] = np.linalg.solve(h_mat[ok], np.swapaxes(hinv_m, -1, -2))
    psi = 0.5 * (psi + np.swapaxes(psi, -1, -2))
    se = np.sqrt(np.maximum(np.diagonal(psi, axis1=-2, axis2=-1), 0.0))
    return SandwichEstimate(h_mat=h_mat, m_mat=m_mat, psi=psi, se=se)


def sandwich(ctx: EstimatingContext, beta_hat) -> SandwichEstimate:
    """Sandwich covariance of beta_hat under the context's working correlation."""
    _, eps, xa, rinv_xa = ctx.moments(_check_beta(ctx, beta_hat))
    return sandwich_from_arrays(xa, rinv_xa, eps)


def normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF (Wichura's AS241, from the standard library)."""
    q = float(q)
    if not (0.0 < q < 1.0):
        raise ContractError(f"quantile argument must be in (0, 1), got {q}")
    return NormalDist().inv_cdf(q)


def component_intervals(est: SandwichEstimate, beta_hat, level: float = 0.95) -> np.ndarray:
    """Per-component intervals, stacked as a (p, 2) array, or (k, p, 2) for a stack."""
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    c = normal_quantile(1.0 - (1.0 - level) / 2.0)
    half = c * est.se
    return np.stack([beta_hat - half, beta_hat + half], axis=-1)


def predict_next(X_next, beta_hat, link: LinkSpec) -> np.ndarray:
    """One-step-ahead conditional mean mu(X_next beta_hat), row-wise."""
    X_next = np.asarray(X_next, dtype=np.float64)
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    if X_next.ndim != 2 or X_next.shape[1] != beta_hat.shape[0]:
        raise ContractError(
            f"X_next shape {X_next.shape} incompatible with beta of length {beta_hat.shape[0]}"
        )
    return link.eval(X_next @ beta_hat)
