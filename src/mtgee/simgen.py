"""Simulation designs and the Monte Carlo harness.

Data are generated from a multivariate second-order autoregression
y_i = beta_{0,1} y_{i-1} + beta_{0,2} y_{i-2} + eps_i with Gaussian
innovations whose covariance is one of three patterns (identity, compound
symmetry, AR(1)).  The study fits, per replication, the fixed-pattern
estimators, the two-step pseudo-likelihood estimator, and the reference
estimator that plugs in the true innovation correlation, then aggregates
Bias / RB / MSE / RE and confidence-interval coverage.

Randomness uses the counter-based Philox generator with one substream per
replication (keyed by (seed, replication index)), so serial and parallel
runs produce identical output.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import corr as corrmod
from .errors import ContractError, CorrelationDegeneracyError, InstabilityError, NumericalError, StudyError
from .estfun import EstimatingContext, fit_two_step, solve_linear
from .inference import component_intervals, sandwich_from_arrays
from .model import ClusterSeries, get_link, moment_arrays

EXPLOSION_GUARD = 1e6

CORR_KIND_ALIASES = {
    "independence": "independence",
    "r1": "independence",
    "cs": "compound_symmetry",
    "compound_symmetry": "compound_symmetry",
    "exchangeable": "compound_symmetry",
    "r2": "compound_symmetry",
    "ar1": "ar1",
    "r3": "ar1",
}


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); Philox keys make streams collision-free."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimDesign:
    """Second-order autoregression design for the simulation study."""

    n: int = 500
    m: int = 5
    beta0: tuple = (0.5, 0.2)
    corr_kind: str = "compound_symmetry"
    alpha0: float = 0.7
    seed: int = 0
    y0: Optional[tuple] = None  # defaults to zeros
    y1: Optional[tuple] = None

    def __post_init__(self):
        if len(self.beta0) != 2:
            raise ContractError("the AR(2) design uses a 2-dimensional beta0")
        if self.n < 1 or self.m < 1:
            raise ContractError("n and m must be positive")
        kind = CORR_KIND_ALIASES.get(str(self.corr_kind).lower())
        if kind is None:
            raise ContractError(f"unknown correlation kind {self.corr_kind!r}")
        object.__setattr__(self, "corr_kind", kind)
        # validates the alpha range for this kind/m
        corrmod.build_fixed_corr(kind, self.alpha0, self.m)


def true_correlation(design: SimDesign) -> np.ndarray:
    return corrmod.build_fixed_corr(design.corr_kind, design.alpha0, design.m)


def generate_ar2(design: SimDesign, rep: int = 0) -> ClusterSeries:
    """Simulate the design; deterministic given (design.seed, rep).

    Step i carries X_i = [y_{i-1} | y_{i-2}] (newest lag first).  The
    recursion aborts with InstabilityError once any |y| exceeds 1e6, which
    catches explosive parameter choices long before overflow.
    """
    n, m = design.n, design.m
    rng = substream(design.seed, rep)
    cov = true_correlation(design)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise CorrelationDegeneracyError("innovation covariance is not SPD") from None
    innovations = rng.standard_normal((n, m)) @ chol.T

    b1, b2 = float(design.beta0[0]), float(design.beta0[1])
    prev2 = np.zeros(m) if design.y0 is None else np.asarray(design.y0, dtype=np.float64)
    prev1 = np.zeros(m) if design.y1 is None else np.asarray(design.y1, dtype=np.float64)
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


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator column of the study.

    kind: "fixed" (constant working pattern), "two_step", or "true"
    (quasi-score with the design's innovation correlation plugged in).
    """

    label: str
    kind: str
    corr_kind: Optional[str] = None
    alpha: Optional[float] = None


def default_estimators(alpha: float = 0.7) -> list:
    """The simulation study's estimator grid (plus the quasi-score reference)."""
    return [
        EstimatorSpec("independence", "fixed", "independence"),
        EstimatorSpec("cs", "fixed", "compound_symmetry", alpha),
        EstimatorSpec("ar1", "fixed", "ar1", alpha),
        EstimatorSpec("two_step", "two_step"),
        EstimatorSpec("quasi_true", "true"),
    ]


_IDENTITY_LINK = get_link("identity")


def _fit_single(data: ClusterSeries, spec: EstimatorSpec, truth: np.ndarray, level: float):
    """Fit one estimator and its per-component CI bounds on one replication."""
    if spec.kind == "two_step":
        ts = fit_two_step(data)
        beta = ts.beta
        rinv = ts.corr_inv
    else:
        if spec.kind == "true":
            provider = corrmod.pseudo_fixed(truth)
        elif spec.kind == "fixed":
            mat = corrmod.build_fixed_corr(spec.corr_kind, spec.alpha or 0.0, data.m)
            provider = corrmod.FixedCorr(spec.corr_kind, mat)
        else:
            raise ContractError(f"unknown estimator kind {spec.kind!r}")
        ctx = EstimatingContext(data=data, link=_IDENTITY_LINK, corr=provider)
        beta = solve_linear(ctx)
        rinv = ctx.corr_inverses()
    _, a, eps = moment_arrays(data.Xs, data.ys, beta, _IDENTITY_LINK)
    est = sandwich_from_arrays(data.Xs, a, eps, rinv)
    cis = component_intervals(est, beta, level)
    return beta, cis[:, 0], cis[:, 1]


def _replication(design: SimDesign, specs, level: float, rep: int):
    data = generate_ar2(design, rep=rep)
    truth = true_correlation(design)
    p = data.p
    n_est = len(specs)
    betas = np.full((n_est, p), np.nan)
    los = np.full((n_est, p), np.nan)
    his = np.full((n_est, p), np.nan)
    failed = np.zeros(n_est, dtype=bool)
    for j, spec in enumerate(specs):
        try:
            betas[j], los[j], his[j] = _fit_single(data, spec, truth, level)
        except NumericalError:
            failed[j] = True
    return betas, los, his, failed


def _replication_worker(args):
    design, specs, level, rep = args
    return rep, _replication(design, specs, level, rep)


@dataclass
class EstimatorSummary:
    label: str
    bias: np.ndarray
    rb: np.ndarray
    mse: np.ndarray
    re: Optional[np.ndarray]
    coverage: np.ndarray
    failures: int


@dataclass
class MonteCarloReport:
    design: SimDesign
    level: float
    s: int
    estimators: list = field(default_factory=list)

    def summary(self, label: str) -> EstimatorSummary:
        for e in self.estimators:
            if e.label == label:
                return e
        raise KeyError(label)


def monte_carlo_study(
    design: SimDesign,
    estimators: Optional[Sequence[EstimatorSpec]] = None,
    s: int = 500,
    level: float = 0.95,
    parallel: bool = False,
) -> MonteCarloReport:
    """Run s replications of the design and aggregate the metric tables.

    Per component k: Bias = mean(beta_hat_k - beta0_k), RB = Bias/beta0_k
    (absolute bias is reported when |beta0_k| < 1e-8), MSE is the mean
    squared error, RE = MSE / MSE of the "true"-correlation reference
    estimator (present when the grid contains a spec of kind "true"), and
    coverage is the fraction of replications whose CI contains beta0_k.

    Replications failing with a numerical error are excluded per estimator;
    more than 5% exclusions aborts the study.  Results are identical
    whether ``parallel`` is on or off.
    """
    if s < 2:
        raise ContractError(f"Monte Carlo study needs s >= 2, got {s}")
    specs = list(estimators) if estimators is not None else default_estimators(design.alpha0)
    if not specs:
        raise ContractError("estimator grid is empty")
    p = len(design.beta0)
    n_est = len(specs)
    betas = np.empty((s, n_est, p))
    los = np.empty((s, n_est, p))
    his = np.empty((s, n_est, p))
    failed = np.empty((s, n_est), dtype=bool)

    if parallel:
        max_workers = int(os.environ.get("MTGEE_THREADS", os.cpu_count() or 1))
        args = [(design, specs, level, rep) for rep in range(s)]
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            for rep, (b, lo, hi, f) in pool.map(
                _replication_worker, args, chunksize=max(1, s // (4 * max_workers))
            ):
                betas[rep], los[rep], his[rep], failed[rep] = b, lo, hi, f
    else:
        for rep in range(s):
            betas[rep], los[rep], his[rep], failed[rep] = _replication(
                design, specs, level, rep
            )

    beta0 = np.asarray(design.beta0, dtype=np.float64)
    mse_by_label = {}
    summaries = []
    for j, spec in enumerate(specs):
        ok = ~failed[:, j]
        n_fail = int(failed[:, j].sum())
        if n_fail > 0.05 * s:
            raise StudyError(
                f"estimator {spec.label!r} failed on {n_fail}/{s} replications"
            )
        b = betas[ok, j, :]
        err = b - beta0
        bias = err.mean(axis=0)
        mse = (err**2).mean(axis=0)
        near_zero = np.abs(beta0) < 1e-8
        denom = np.where(near_zero, 1.0, beta0)
        rb = np.where(near_zero, bias, bias / denom)
        cover = ((los[ok, j, :] <= beta0) & (beta0 <= his[ok, j, :])).mean(axis=0)
        mse_by_label[spec.label] = mse
        summaries.append(
            EstimatorSummary(
                label=spec.label, bias=bias, rb=rb, mse=mse, re=None,
                coverage=cover, failures=n_fail,
            )
        )
    ref = next((sp.label for sp in specs if sp.kind == "true"), None)
    if ref is not None:
        ref_mse = mse_by_label[ref]
        for summ in summaries:
            summ.re = summ.mse / ref_mse
    return MonteCarloReport(design=design, level=level, s=s, estimators=summaries)
