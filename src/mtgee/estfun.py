"""Estimating function g_n, its derivative matrix, and the solvers.

g_n(beta) = sum_i X_i' A_i^{1/2} R_i^{-1} A_i^{-1/2} (y_i - mu_i(beta)),

with A_i = diag(mu'(x_ij' beta)) and R_i the working correlation supplied
by a provider.  With the independence provider this collapses to
sum_i X_i' (y_i - mu_i(beta)).  For the identity link A_i = I, so the
equation is affine in beta and admits the closed form implemented by
`solve_linear`; g_n = sum_i (R_i^{-1} X_i)' (y_i - X_i beta), its derivative
and the closed form read R_i only through the beta-free array R_i^{-1} X_i,
which the context solves for once.  For every link g_n = sum_i W_i' eps_i,
with eps_i = A_i^{-1/2} (y_i - mu_i) and the weight W_i = R_i^{-1} A_i^{1/2} X_i;
A's diagonal, eps_i, A_i^{1/2} X_i and W_i are the moments at beta, and
the context keeps those of the last beta evaluated, so that every reader at
a beta (g_n, D_n, the sandwich, the diagnostics) shares them.  The
sequential two-step pseudo-likelihood estimator is that closed form with
the two-step provider, `corr.two_step`, which re-estimates the correlation
from working-independence residuals as data accrue: its one public route
is ``fit(ctx, "linear")`` with ``ctx.corr = corr.two_step(m)``.
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
from .model import ClusterSeries, LinkSpec, get_link, linear_predictor, moment_arrays


@dataclass
class EstimatingContext:
    """Data + link + working correlation, with the per-step arrays the fits share.

    ``corr=None`` means working independence.  The fits read the provider's
    sequence R_i through one of two cached attributes, each realized and
    solved on first read: for the identity link ``rinv_x``, R_i^{-1} X_i,
    since A_i = I there and every fit, sandwich and diagnostic reads R_i
    only through it; for the other links, whose A_i depends on beta,
    ``corr_inverses``, R_i^{-1}.  All shipped providers are beta-free so the
    cache is valid for every beta.  A context on other data with the same
    link and provider is ``dataclasses.replace(ctx, data=...)``, which
    starts with empty caches.

    The context is the one source of the moments at a beta (``moments``).
    It keeps those of the last beta evaluated, keyed on its bytes, so g_n,
    D_n, the sandwich and the diagnostics at one beta share one evaluation:
    A's diagonal and eps, (n, m), and the weighted designs A^{1/2} X and
    R^{-1} A^{1/2} X, (n, m, p), each made read-only.  For the identity link
    only eps is formed: the designs are X and the cached R^{-1} X.  A beta
    whose moments raise leaves the memo as it was.
    """

    data: ClusterSeries
    link: LinkSpec
    corr: Optional[corrmod.CorrProvider] = None

    def __post_init__(self):
        self.corr = self.corr or corrmod.independence(self.data.m)
        self._memo = (None,)  # (beta.tobytes(), a, eps, xa, rinv_xa) at the last beta

    def moments(self, beta):
        """a, eps, A^{1/2} X and R^{-1} A^{1/2} X at the checked ``beta``, from
        the memo when it is the last beta evaluated; for the identity link a
        is None and the designs are X and R^{-1} X."""
        key, memo = beta.tobytes(), self._memo  # one read: a thread's memo is whole
        if memo[0] != key:
            _, a, eps = moment_arrays(self.data.Xs, self.data.ys, beta, self.link)
            if self.link.kind == "identity":
                a, xa, rinv_xa, fresh = None, self.data.Xs, self.rinv_x, (eps,)
            else:
                xa = self.data.Xs * np.sqrt(a)[..., None]
                rinv_xa = self.corr_inverses @ xa
                fresh = (a, eps, xa, rinv_xa)
            for arr in fresh:
                arr.flags.writeable = False
            memo = self._memo = (key, a, eps, xa, rinv_xa)
        return memo[1:]

    @cached_property
    def corr_inverses(self) -> np.ndarray:
        return self.corr.solve(self.corr.realize(self.data, self.link))

    @cached_property
    def rinv_x(self) -> np.ndarray:
        return self.corr.solve(self.corr.realize(self.data, self.link), self.data.Xs)


def _single_series(ctx, what):
    """Raise ContractError if ``ctx.data`` is a stack of series: ``what``
    works on one series only."""
    if ctx.data.ys.ndim > 2:
        raise ContractError(f"{what} takes a single series, not a stack of series")


def _check_newton_settings(tol, max_iter):
    """Raise ContractError unless ``tol`` is finite and > 0 and ``max_iter`` >= 0."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ContractError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 0:
        raise ContractError(f"max_iter must be >= 0, got {max_iter}")


def _check_beta(ctx, beta):
    """``beta`` as float64, one (p,) row per series of ``ctx.data``.  For a
    single series a non-finite beta is a ContractError; a stack's non-finite
    row is a replication whose fit failed, and its results are NaN."""
    beta = np.asarray(beta, dtype=np.float64)
    want = ctx.data.ys.shape[:-2] + (ctx.data.p,)
    if beta.shape != want:
        raise ContractError(f"beta has shape {beta.shape}, expected {want}")
    if beta.ndim == 1 and not np.all(np.isfinite(beta)):
        raise ContractError("beta must be finite")
    return beta


def _rows(arr):
    """(..., n, m, k) -> (..., n*m, k), so a sum over steps and units is one GEMM."""
    return arr.reshape(arr.shape[:-3] + (-1, arr.shape[-1]))


def _gram(left, right):
    """sum_i left_i' right_i over the steps of (..., n, m, p) and (..., n, m, q)
    arrays: one (p, n*m) x (n*m, q) GEMM per series."""
    return np.swapaxes(_rows(left), -1, -2) @ _rows(right)


def eval_g(ctx: EstimatingContext, beta) -> np.ndarray:
    """Evaluate the estimating function at beta."""
    _single_series(ctx, "eval_g")
    beta = _check_beta(ctx, beta)
    _, eps, _, rinv_xa = ctx.moments(beta)
    return _rows(rinv_xa).T @ eps.reshape(-1)  # X' A^{1/2} R^{-1} eps by symmetry


def eval_jacobian(ctx: EstimatingContext, beta) -> np.ndarray:
    """Derivative matrix D_n(beta) = -d g_n / d beta'.

    Differentiates through the mean and variance terms while holding the
    (beta-free) correlation matrices fixed; for the identity link it
    reduces to sum_i X_i' R_i^{-1} X_i exactly, which reads no moments.
    """
    _single_series(ctx, "eval_jacobian")
    beta = _check_beta(ctx, beta)
    Xs = ctx.data.Xs
    if ctx.link.kind == "identity":
        return _gram(Xs, ctx.rinv_x)
    a, eps, xa, rinv_xa = ctx.moments(beta)

    # curvature terms: with D_l = diag(d * X[:, l]), d = mu''/(2 mu'), the
    # correction to column l is X' (D_l B - B D_l) r where B = A^{1/2} R^{-1} A^{-1/2};
    # X' B D_l r = (R^{-1} A^{1/2} X)' diag(d eps) X by the symmetry of R^{-1}
    d = ctx.link.d2(linear_predictor(Xs, beta)) / (2.0 * a)
    w = np.sqrt(a) * (ctx.corr_inverses @ eps[..., None])[..., 0]  # B r
    corr1 = _gram(Xs, (d * w)[:, :, None] * Xs)
    corr2 = _gram(rinv_xa, (d * eps)[:, :, None] * Xs)
    return _gram(xa, rinv_xa) - corr1 + corr2


@dataclass
class SolveReport:
    """Outcome of a Newton solve; `trace` lists (beta, ||g||_inf) per iterate."""

    beta_hat: np.ndarray
    iterations: int
    final_residual_norm: float
    converged: bool
    trace: list


def _rank_test(mats, what):
    """The mask of the symmetric p x p matrices of a stack (..., p, p) that are
    finite and pass the rank test lambda_min > lambda_max * p * eps, from one
    batched ``eigvalsh``.

    A single matrix (no stack axis) that does not pass raises instead:
    NumericalError if it is not finite, else RankDeficiencyError.
    """
    finite = np.isfinite(mats).all(axis=(-2, -1))
    w = np.full(mats.shape[:-1], np.nan)
    w[finite] = np.linalg.eigvalsh(mats[finite])
    ok = w[..., 0] > np.maximum(0.0, w[..., -1] * w.shape[-1] * np.finfo(np.float64).eps)
    if mats.ndim == 2 and not ok:
        if not finite:
            raise NumericalError(f"{what} is not finite")
        lam = float(w[0])
        raise RankDeficiencyError(f"{what} is rank deficient (lambda_min={lam!r})", lambda_min=lam)
    return ok


def solve_linear(ctx: EstimatingContext) -> np.ndarray:
    """Closed-form root for the identity link:
    (sum X' R^{-1} X)^{-1} sum (R^{-1} X)' y, from the context's R^{-1} X.

    For a stack of series the roots are (k, p), from one stacked GEMM each
    for the normal matrices and the right-hand sides, one batched rank test
    and one batched solve.  A normal matrix that is not finite or fails the
    rank test raises for a single series (:func:`_rank_test`); in a stack it
    gives its replication a NaN root.  A single series' root that is not
    finite raises NumericalError.
    """
    if ctx.link.kind != "identity":
        raise ContractError(
            f"solve_linear requires the identity link, got {ctx.link.kind!r}"
        )
    k_mat = _gram(ctx.data.Xs, ctx.rinv_x)
    ok = _rank_test(k_mat, "normal matrix")
    rhs = _gram(ctx.rinv_x, ctx.data.ys[..., None])
    beta = np.full(k_mat.shape[:-1], np.nan)
    beta[ok] = np.linalg.solve(k_mat[ok], rhs[ok])[..., 0]
    if beta.ndim == 1 and not np.all(np.isfinite(beta)):  # an overflowed right-hand side
        raise NumericalError("closed-form root is not finite")
    return beta


def solve_newton(
    ctx: EstimatingContext,
    beta_init=None,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> SolveReport:
    """Damped Newton iteration for g_n(beta) = 0.

    Steps are halved (up to 20 times) whenever the residual norm fails to
    decrease; a non-finite starting g_n or a singular derivative matrix
    raises SolverFailureError with the trace collected so far.  Exceeding
    ``max_iter`` returns a non-converged report rather than raising.
    """
    _single_series(ctx, "solve_newton")
    _check_newton_settings(tol, max_iter)
    if beta_init is None:
        beta = working_independence_estimate(ctx.data, ctx.link)
    else:
        beta = _check_beta(ctx, np.asarray(beta_init, dtype=np.float64)).copy()
    g = eval_g(ctx, beta)
    norm = float(np.max(np.abs(g)))
    trace = [(beta.copy(), norm)]
    if not np.isfinite(norm):
        raise SolverFailureError("g_n at the Newton starting point is not finite", trace=trace)
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
        trace.append((beta.copy(), norm))
        if not accepted:
            break
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
        iterations=len(trace) - 1,
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


def fit_two_step(data: ClusterSeries) -> TwoStepResult:
    """Sequential pseudo-likelihood estimator (identity link), with its R_i.

    Not part of the package's surface: the estimator is
    ``fit(EstimatingContext(data, identity, corr.two_step(m)), "linear")``
    and its R_i are ``corr.two_step(m).realize(data, identity)``.  Its one
    caller is the benchmark's two-step property check
    (``perfbench/workloads.py``), which takes both from one call; a test
    pins them to those two routes bit for bit.
    """
    ctx = EstimatingContext(data, get_link("identity"), corrmod.two_step(data.m))
    seq = ctx.corr.realize(data, ctx.link)
    ctx.rinv_x = ctx.corr.solve(seq, data.Xs)  # fills the cache: the sequence is realized once
    return TwoStepResult(beta=solve_linear(ctx), corr_seq=seq)


@dataclass
class FitResult:
    """Estimate plus inference bundle produced by `fit`."""

    beta_hat: np.ndarray
    ctx: EstimatingContext  # the context fitted and used for inference
    level: float
    tol: float  # the Newton settings of the fit, which its refits reuse
    max_iter: int
    solver: Optional[SolveReport] = None  # the Newton report; None for closed forms
    se: Optional[np.ndarray] = None
    psi: Optional[np.ndarray] = None
    cis: Optional[np.ndarray] = None  # (p, 2) per-component intervals, (k, p, 2) for a stack
    # a stack's replications whose normal matrix failed, so that their
    # estimate is not finite (a single series raises instead)
    failed: Optional[np.ndarray] = None


def fit(
    ctx: EstimatingContext,
    method: str = "newton",
    level: float = 0.95,
    tol: float = 1e-8,
    max_iter: int = 50,
    with_inference: bool = True,
) -> FitResult:
    """Find the root of g_n with a solver and attach the sandwich-based
    inference bundle.

    ``method`` picks the solver, "newton" or "linear" (the closed form, for
    the identity link); ``ctx.corr`` alone picks the working correlation, so
    the two-step estimator is "linear" with the provider ``corr.two_step``.
    An unresolved empirical provider gets its plug-in beta from the
    working-independence estimate, which is also the Newton start.

    The closed form also fits a stack of series (``ctx.data`` with a leading
    replication axis) in one pass, every result with that axis.  A
    replication whose normal matrix is not finite or rank deficient is
    flagged in ``failed``, with NaN results, where a single series raises;
    for the identity link the sandwich bread is that normal matrix.
    """
    from . import inference  # local import avoids a cycle at module load

    if not (0.0 < level < 1.0):
        raise ContractError(f"level must be in (0, 1), got {level}")
    _check_newton_settings(tol, max_iter)
    if method not in ("linear", "newton"):
        raise ContractError(f"unknown fit method {method!r}")
    if method == "newton" or isinstance(ctx.corr, corrmod.EmpiricalRunningCorr):
        _single_series(ctx, "a Newton fit or a running empirical correlation")
    start = None  # solve_newton's own working-independence start
    if isinstance(ctx.corr, corrmod.EmpiricalRunningCorr) and ctx.corr.plugin_beta is None:
        start = working_independence_estimate(ctx.data, ctx.link)
        ctx = EstimatingContext(data=ctx.data, link=ctx.link,
                                corr=corrmod.empirical_running(ctx.corr.m, start))
    solver = None
    if method == "linear":
        beta = solve_linear(ctx)
    else:
        solver = solve_newton(ctx, beta_init=start, tol=tol, max_iter=max_iter)
        beta = solver.beta_hat

    result = FitResult(beta_hat=beta, ctx=ctx, level=level, tol=tol, max_iter=max_iter,
                       solver=solver, failed=~np.isfinite(beta).all(axis=-1))
    if with_inference:
        est = inference.sandwich(ctx, beta)
        result.se, result.psi = est.se, est.psi
        result.cis = inference.component_intervals(est, beta, level)
    return result
