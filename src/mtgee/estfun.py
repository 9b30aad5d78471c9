"""Estimating function g_n, its derivative matrix, and the solvers.

g_n(beta) = sum_i X_i' A_i^{1/2} R_i^{-1} A_i^{-1/2} (y_i - mu_i(beta)),

with A_i = diag(mu'(x_ij' beta)) and R_i the working correlation supplied
by a provider.  With the independence provider this collapses to
sum_i X_i' (y_i - mu_i(beta)).  For the identity link the equation is
affine in beta and admits the closed form implemented by `solve_linear`;
`fit_two_step` implements the sequential pseudo-likelihood recipe that
re-estimates the correlation from working-independence residuals as data
accrue.
"""

from dataclasses import dataclass, field
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

    ``corr=None`` means working independence.  The realized correlation
    sequence and its inverses are cached on first use; all shipped
    providers are beta-free so the cache is valid for every beta.
    """

    data: ClusterSeries
    link: LinkSpec
    corr: Optional[corrmod.CorrProvider] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def corr_matrices(self) -> np.ndarray:
        if "seq" not in self._cache:
            if self.corr is None:
                n, m = self.data.n, self.data.m
                self._cache["seq"] = np.broadcast_to(np.eye(m), (n, m, m))
            else:
                self._cache["seq"] = self.corr.realize(self.data, self.link)
        return self._cache["seq"]

    def corr_inverses(self) -> np.ndarray:
        if "inv" not in self._cache:
            seq = self.corr_matrices()
            if self.corr is None:
                self._cache["inv"] = seq
            elif isinstance(self.corr, corrmod.FixedCorr):
                self._cache["inv"] = np.broadcast_to(np.linalg.inv(self.corr.matrix), seq.shape)
            else:
                self._cache["inv"] = np.linalg.inv(seq)
        return self._cache["inv"]

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


def eval_jacobian(ctx: EstimatingContext, beta, mode: str = "analytic") -> np.ndarray:
    """Derivative matrix D_n(beta) = -d g_n / d beta'.

    The analytic mode differentiates through the mean and variance terms
    while holding the (beta-free) correlation matrices fixed; for the
    identity link it reduces to sum_i X_i' R_i^{-1} X_i exactly.  The
    finite-difference mode central-differences `eval_g` and also covers
    hypothetical beta-dependent providers.
    """
    beta = _check_beta(ctx, beta)
    if mode == "finite_diff":
        p = beta.size
        out = np.empty((p, p))
        for l in range(p):
            h = 1e-6 * max(1.0, abs(beta[l]))
            bp = beta.copy()
            bm = beta.copy()
            bp[l] += h
            bm[l] -= h
            out[:, l] = -(eval_g(ctx, bp) - eval_g(ctx, bm)) / (2.0 * h)
        return out
    if mode != "analytic":
        raise ContractError(f"unknown jacobian mode {mode!r}")

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


def _rank_checked_solve(mat, rhs, what):
    w = np.linalg.eigvalsh(mat)
    lam_min, lam_max = float(w[0]), float(w[-1])
    if lam_min <= max(0.0, lam_max * mat.shape[0] * np.finfo(np.float64).eps):
        raise RankDeficiencyError(
            f"{what} is rank deficient (lambda_min={lam_min!r})", lambda_min=lam_min
        )
    return np.linalg.solve(mat, rhs)


def solve_linear(ctx: EstimatingContext) -> np.ndarray:
    """Closed-form root for the identity link:
    (sum X' R^{-1} X)^{-1} sum X' R^{-1} y."""
    if ctx.link.kind != "identity":
        raise ContractError(
            f"solve_linear requires the identity link, got {ctx.link.kind!r}"
        )
    return _weighted_normal_solve(ctx.data, ctx.corr_inverses(), "normal matrix")


def _weighted_normal_solve(data, rinv, what):
    _, rinv_x = weighted_design(data.Xs, None, rinv)
    k_mat = _rows(data.Xs).T @ _rows(rinv_x)
    rhs = _rows(rinv_x).T @ data.ys.reshape(-1)
    return _rank_checked_solve(k_mat, rhs, what)


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


def resolve_plugin(ctx: EstimatingContext) -> EstimatingContext:
    """``ctx`` with an unresolved empirical provider's plug-in beta set to
    the working-independence estimate; any other context is returned as is."""
    if isinstance(ctx.corr, corrmod.EmpiricalRunningCorr) and ctx.corr.plugin_beta is None:
        plugin = working_independence_estimate(ctx.data, ctx.link)
        return EstimatingContext(data=ctx.data, link=ctx.link, corr=ctx.corr.with_plugin(plugin))
    return ctx


@dataclass
class TwoStepResult:
    beta: np.ndarray
    corr_seq: np.ndarray  # (n, m, m) matrices actually used per step
    corr_inv: np.ndarray  # their inverses


def fit_two_step(
    data: ClusterSeries,
    link: Optional[LinkSpec] = None,
    warmup_steps: int = 2,
    floor: float = 1e-6,
) -> TwoStepResult:
    """Sequential pseudo-likelihood estimator (identity link).

    For each step i the correlation plug-in is the average of residual
    outer products from steps 1..i-1, with residuals taken at the
    working-independence estimate computed on those same steps; the first
    two steps (and any step where the average is necessarily singular,
    i.e. fewer residuals than the cluster size, or where that estimate is
    singular or non-finite) use the identity.  The final estimate solves
    the weighted closed form with those per-step matrices.

    With b = beta_ind(i-1), sum_l (y_l - X_l b)(y_l - X_l b)' expands into
    prefix sums of per-step moment tensors, so :func:`corr.running_corr`
    builds the whole sequence block by block, with one batched solve for
    the b of a block.
    """
    if link is None:
        link = get_link("identity")
    if link.kind != "identity":
        raise ContractError("fit_two_step requires the identity link")
    n, m = data.n, data.m
    if n < 3:
        raise ContractError(f"two-step procedure needs n >= 3, got {n}")

    Xs, ys = data.Xs, data.ys

    def step_moments(lo, hi):
        x, y = Xs[lo:hi], ys[lo:hi]
        return (
            np.swapaxes(x, 1, 2) @ x,
            (np.swapaxes(x, 1, 2) @ y[:, :, None])[:, :, 0],
            y[:, :, None] * y[:, None, :],
            y[:, :, None, None] * x[:, None, :, :],
            x[:, :, :, None, None] * x[:, None, None, :, :],
        )

    def average(sums, counts):
        sxx, sxy, syy, t1, t2 = sums
        try:
            b = np.linalg.solve(sxx, sxy[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # one singular step fails the whole batch; it alone gets the identity
            b = np.full(sxy.shape, np.nan)
            for j in range(len(counts)):
                try:
                    b[j] = np.linalg.solve(sxx[j], sxy[j])
                except np.linalg.LinAlgError:
                    pass
        usable = np.all(np.isfinite(b), axis=1)
        b[~usable] = 0.0
        c1 = (t1 @ b[:, None, :, None])[..., 0]
        t2_b = (t2.reshape(len(b), -1, b.shape[1]) @ b[:, :, None]).reshape(t2.shape[:-1])
        quad = (b[:, None, None, :] @ t2_b)[:, :, 0, :]
        raw = (syy - c1 - np.swapaxes(c1, 1, 2) + quad) / counts[:, None, None]
        return raw, usable

    seq = corrmod.running_corr(n, m, step_moments, average, warmup_steps, floor)
    rinv = np.linalg.inv(seq)
    beta = _weighted_normal_solve(data, rinv, "two-step normal matrix")
    return TwoStepResult(beta=beta, corr_seq=seq, corr_inv=rinv)


@dataclass
class FitResult:
    """Estimate plus inference bundle produced by `fit`."""

    beta_hat: np.ndarray
    method: str
    link_kind: str
    corr_kind: str
    se: Optional[np.ndarray] = None
    psi: Optional[np.ndarray] = None
    h_mat: Optional[np.ndarray] = None
    m_mat: Optional[np.ndarray] = None
    cis: Optional[np.ndarray] = None  # (p, 2) per-component intervals
    level: float = 0.95
    converged: bool = True
    iterations: int = 0
    final_residual_norm: float = 0.0
    trace: Optional[list] = None
    corr_seq: Optional[np.ndarray] = None  # two_step: the (n, m, m) weights used
    diagnostics: Optional[dict] = None


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
    require the identity link.  An unresolved empirical provider gets its
    plug-in beta from the working-independence estimate.  ``two_step``
    builds its own correlation sequence and ignores ``ctx.corr``.
    """
    from . import inference  # local import avoids a cycle at module load

    if not (0.0 < level < 1.0):
        raise ContractError(f"level must be in (0, 1), got {level}")
    corr_kind = ctx.corr.kind if ctx.corr is not None else "independence"
    corr_seq = None
    trace = None
    converged, iterations, res_norm = True, 0, 0.0

    if method == "two_step":
        ts = fit_two_step(ctx.data, ctx.link)
        beta = ts.beta
        corr_seq = ts.corr_seq
        corr_kind = "two_step_empirical"
        infer_ctx = EstimatingContext(
            data=ctx.data, link=ctx.link, corr=corrmod.SequenceCorr(ts.corr_seq),
            _cache={"inv": ts.corr_inv},
        )
    else:
        infer_ctx = resolve_plugin(ctx)
        if method == "linear":
            beta = solve_linear(infer_ctx)
        elif method == "newton":
            report = solve_newton(infer_ctx, beta_init=beta_init, tol=tol, max_iter=max_iter)
            beta = report.beta_hat
            converged = report.converged
            iterations = report.iterations
            res_norm = report.final_residual_norm
            trace = report.trace
        else:
            raise ContractError(f"unknown fit method {method!r}")

    result = FitResult(
        beta_hat=beta,
        method=method,
        link_kind=ctx.link.kind,
        corr_kind=corr_kind,
        level=level,
        converged=converged,
        iterations=iterations,
        final_residual_norm=res_norm,
        trace=trace,
        corr_seq=corr_seq,
    )
    if with_inference:
        est = inference.sandwich(infer_ctx, beta)
        result.se = est.se
        result.psi = est.psi
        result.h_mat = est.h_mat
        result.m_mat = est.m_mat
        result.cis = inference.component_intervals(est, beta, level)
    return result
