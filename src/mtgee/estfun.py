"""Estimating function g_n, its derivative matrix, and the solvers.

g_n(beta) = sum_i X_i' A_i^{1/2} R_i^{-1} A_i^{-1/2} (y_i - mu_i(beta)),

with A_i = diag(mu'(x_ij' beta)) and R_i the working correlation supplied
by a provider.  With the independence provider this collapses to
sum_i X_i' (y_i - mu_i(beta)).  For the identity link the equation is
affine in beta and admits the closed form implemented by `solve_linear`.
The sequential two-step pseudo-likelihood estimator is that closed form
with the two-step provider, `corr.two_step`, which re-estimates the
correlation from working-independence residuals as data accrue.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import corr as corrmod
from .errors import (
    ContractError,
    NumericalError,
    RankDeficiencyError,
    SolverFailureError,
)
from .model import ClusterSeries, LinkSpec, get_link, moment_arrays


@dataclass
class EstimatingContext:
    """Data + link + working correlation, with cached per-step matrices.

    ``corr=None`` means working independence.  The provider's correlation
    sequence and its inverses are realized together on first use and
    cached; all shipped providers are beta-free so the cache is valid for
    every beta.
    """

    data: ClusterSeries
    link: LinkSpec
    corr: Optional[corrmod.CorrProvider] = None

    def __post_init__(self):
        self.corr = self.corr or corrmod.independence(self.data.m)

    @cached_property
    def _realized(self):
        return self.corr.realize_with_inverse(self.data, self.link)

    def corr_matrices(self) -> np.ndarray:
        return self._realized[0]

    def corr_inverses(self) -> np.ndarray:
        return self._realized[1]

    def with_data(self, data: ClusterSeries) -> "EstimatingContext":
        return EstimatingContext(data=data, link=self.link, corr=self.corr)


def _check_beta(ctx, beta):
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (ctx.data.p,):
        raise ContractError(f"beta has shape {beta.shape}, expected ({ctx.data.p},)")
    if not np.all(np.isfinite(beta)):
        raise ContractError("beta must be finite")
    return beta


def weighted_design(Xs, a, rinv):
    """Per-step designs A_i^{1/2} X_i and R_i^{-1} A_i^{1/2} X_i, both (n, m, p).

    ``a=None`` means A_i = I.  Every sum over steps of these products is one
    GEMM over the flattened (n*m, p) rows; ``rinv`` may be a stride-0
    broadcast of one matrix.
    """
    xa = Xs if a is None else Xs * np.sqrt(a)[:, :, None]
    return xa, rinv @ xa


def _rows(arr):
    """(n, m, k) -> (n*m, k), so a sum over steps and units is one GEMM."""
    return arr.reshape(-1, arr.shape[-1])


def eval_g(ctx: EstimatingContext, beta) -> np.ndarray:
    """Evaluate the estimating function at beta."""
    beta = _check_beta(ctx, beta)
    Xs, ys = ctx.data.Xs, ctx.data.ys
    _, a, eps = moment_arrays(Xs, ys, beta, ctx.link)
    w = ctx.corr_inverses() @ eps[:, :, None]
    return _rows(Xs * np.sqrt(a)[:, :, None]).T @ w.reshape(-1)


def eval_jacobian(ctx: EstimatingContext, beta) -> np.ndarray:
    """Derivative matrix D_n(beta) = -d g_n / d beta'.

    Differentiates through the mean and variance terms while holding the
    (beta-free) correlation matrices fixed; for the identity link it
    reduces to sum_i X_i' R_i^{-1} X_i exactly.
    """
    beta = _check_beta(ctx, beta)
    Xs, ys = ctx.data.Xs, ctx.data.ys
    _, a, eps = moment_arrays(Xs, ys, beta, ctx.link)
    rinv = ctx.corr_inverses()
    xa, rinv_xa = weighted_design(Xs, a, rinv)
    d_mat = _rows(xa).T @ _rows(rinv_xa)
    if ctx.link.kind == "identity":
        return d_mat

    # curvature terms: with D_l = diag(d * X[:, l]), d = mu''/(2 mu'), the
    # correction to column l is X' (D_l B - B D_l) r where B = A^{1/2} R^{-1} A^{-1/2};
    # X' B D_l r = (R^{-1} A^{1/2} X)' diag(d eps) X by the symmetry of R^{-1}
    d = ctx.link.d2(Xs @ beta) / (2.0 * a)
    w = np.sqrt(a) * (rinv @ eps[:, :, None])[:, :, 0]  # B r
    corr1 = _rows(Xs).T @ _rows((d * w)[:, :, None] * Xs)
    corr2 = _rows(rinv_xa).T @ _rows((d * eps)[:, :, None] * Xs)
    return d_mat - corr1 + corr2


@dataclass
class SolveReport:
    """Outcome of a Newton solve; `trace` lists (beta, ||g||_inf) per iterate."""

    beta_hat: np.ndarray
    iterations: int
    final_residual_norm: float
    converged: bool
    trace: list


def _check_rank(w, message):
    """Raise RankDeficiencyError(message) unless the ascending eigenvalues
    ``w`` of a symmetric p x p matrix have lambda_min > lambda_max * p * eps."""
    if w[0] <= max(0.0, w[-1] * w.size * np.finfo(np.float64).eps):
        raise RankDeficiencyError(message, lambda_min=float(w[0]))


def solve_linear(ctx: EstimatingContext) -> np.ndarray:
    """Closed-form root for the identity link:
    (sum X' R^{-1} X)^{-1} sum X' R^{-1} y."""
    if ctx.link.kind != "identity":
        raise ContractError(
            f"solve_linear requires the identity link, got {ctx.link.kind!r}"
        )
    data = ctx.data
    _, rinv_x = weighted_design(data.Xs, None, ctx.corr_inverses())
    k_mat = _rows(data.Xs).T @ _rows(rinv_x)
    w = np.linalg.eigvalsh(k_mat)
    _check_rank(w, f"normal matrix is rank deficient (lambda_min={float(w[0])!r})")
    return np.linalg.solve(k_mat, _rows(rinv_x).T @ data.ys.reshape(-1))


def solve_newton(
    ctx: EstimatingContext,
    beta_init=None,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> SolveReport:
    """Damped Newton iteration for g_n(beta) = 0.

    Steps are halved (up to 20 times) whenever the residual norm fails to
    decrease; a singular derivative matrix raises SolverFailureError with
    the trace collected so far.  Exceeding ``max_iter`` returns a
    non-converged report rather than raising.
    """
    if beta_init is None:
        beta = working_independence_estimate(ctx.data, ctx.link)
    else:
        beta = _check_beta(ctx, np.asarray(beta_init, dtype=np.float64)).copy()
    g = eval_g(ctx, beta)
    norm = float(np.max(np.abs(g)))
    trace = [(beta.copy(), norm)]
    iterations = 0
    for _ in range(max_iter):
        if norm <= tol:
            break
        d_mat = eval_jacobian(ctx, beta)
        try:
            step = np.linalg.solve(d_mat, g)
        except np.linalg.LinAlgError:
            raise SolverFailureError(
                "singular derivative matrix in Newton iteration", trace=trace
            ) from None
        if not np.all(np.isfinite(step)):
            raise SolverFailureError(
                "non-finite Newton step (ill-conditioned derivative)", trace=trace
            )
        t = 1.0
        accepted = False
        for _halving in range(21):
            cand = beta + t * step
            try:
                g_new = eval_g(ctx, cand)
            except NumericalError:
                t *= 0.5
                continue
            norm_new = float(np.max(np.abs(g_new)))
            if norm_new < norm or norm_new <= tol:
                beta, g, norm = cand, g_new, norm_new
                accepted = True
                break
            t *= 0.5
        iterations += 1
        trace.append((beta.copy(), norm))
        if not accepted:
            return SolveReport(
                beta_hat=beta,
                iterations=iterations,
                final_residual_norm=norm,
                converged=False,
                trace=trace,
            )
    converged = norm <= tol
    if converged:
        # a root with a singular derivative is an identifiability failure
        # (zero-information designs reach here with g identically 0)
        cond = np.linalg.cond(eval_jacobian(ctx, beta))
        if not np.isfinite(cond) or cond > 1e14:
            raise SolverFailureError(
                "derivative matrix is singular at the solution", trace=trace
            )
    return SolveReport(
        beta_hat=beta,
        iterations=iterations,
        final_residual_norm=norm,
        converged=converged,
        trace=trace,
    )


def working_independence_estimate(data: ClusterSeries, link: LinkSpec) -> np.ndarray:
    """Initial estimate from the independence working structure."""
    ctx = EstimatingContext(data=data, link=link, corr=None)
    if link.kind == "identity":
        return solve_linear(ctx)
    report = solve_newton(ctx, beta_init=np.zeros(data.p))
    if not report.converged:
        raise SolverFailureError(
            "working-independence initialisation did not converge",
            trace=report.trace,
        )
    return report.beta_hat


@dataclass
class TwoStepResult:
    beta: np.ndarray
    corr_seq: np.ndarray  # (n, m, m) matrices actually used per step


def fit_two_step(
    data: ClusterSeries,
    link: Optional[LinkSpec] = None,
) -> TwoStepResult:
    """Sequential pseudo-likelihood estimator (identity link).

    The closed-form root of g_n with the two-step provider,
    :func:`corr.two_step`, as the working correlation: R_i averages the
    outer products of residuals from steps 1..i-1, taken at the
    working-independence estimate computed on those same steps.
    """
    ctx = EstimatingContext(data=data, link=link or get_link("identity"),
                            corr=corrmod.two_step(data.m))
    return TwoStepResult(beta=solve_linear(ctx), corr_seq=ctx.corr_matrices())


@dataclass
class FitResult:
    """Estimate plus inference bundle produced by `fit`."""

    beta_hat: np.ndarray
    ctx: EstimatingContext  # the context fitted and used for inference
    level: float
    solver: Optional[SolveReport] = None  # the Newton report; None for closed forms
    se: Optional[np.ndarray] = None
    psi: Optional[np.ndarray] = None
    cis: Optional[np.ndarray] = None  # (p, 2) per-component intervals


def fit(
    ctx: EstimatingContext,
    method: str = "newton",
    level: float = 0.95,
    beta_init=None,
    tol: float = 1e-8,
    max_iter: int = 50,
    with_inference: bool = True,
) -> FitResult:
    """Dispatch to a solver and attach the sandwich-based inference bundle.

    ``method`` is one of {"newton", "linear", "two_step"}; the latter two
    require the identity link.  ``two_step`` is the closed form with the
    two-step provider in place of ``ctx.corr``.  An unresolved empirical
    provider gets its plug-in beta from the working-independence estimate.
    """
    from . import inference  # local import avoids a cycle at module load

    if not (0.0 < level < 1.0):
        raise ContractError(f"level must be in (0, 1), got {level}")
    if method == "two_step":
        ctx = EstimatingContext(data=ctx.data, link=ctx.link, corr=corrmod.two_step(ctx.data.m))
    elif isinstance(ctx.corr, corrmod.EmpiricalRunningCorr) and ctx.corr.plugin_beta is None:
        plugin = working_independence_estimate(ctx.data, ctx.link)
        ctx = EstimatingContext(data=ctx.data, link=ctx.link,
                                corr=corrmod.empirical_running(ctx.corr.m, plugin))
    solver = None
    if method in ("linear", "two_step"):
        beta = solve_linear(ctx)
    elif method == "newton":
        solver = solve_newton(ctx, beta_init=beta_init, tol=tol, max_iter=max_iter)
        beta = solver.beta_hat
    else:
        raise ContractError(f"unknown fit method {method!r}")

    result = FitResult(beta_hat=beta, ctx=ctx, level=level, solver=solver)
    if with_inference:
        est = inference.sandwich(ctx, beta)
        result.se, result.psi = est.se, est.psi
        result.cis = inference.component_intervals(est, beta, level)
    return result
