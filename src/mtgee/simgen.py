"""Simulation designs and the Monte Carlo harness.

Data are generated from a multivariate second-order autoregression
y_i = beta_{0,1} y_{i-1} + beta_{0,2} y_{i-2} + eps_i with Gaussian
innovations whose covariance is one of the three ``TRUTHS`` (independence,
compound symmetry, AR(1)); per replication, the study fits the five columns of
``ESTIMATORS``: the working independence, compound symmetry and AR(1)
estimators and the two-step pseudo-likelihood estimator, each the provider
that ``corr.PROVIDERS`` gives its name at the design's alpha0, and the
reference "quasi_true", which plugs in the true innovation correlation.  It
aggregates Bias / RB / MSE / RE (against the reference) and
confidence-interval coverage.

Randomness uses the counter-based Philox generator with one substream per
replication (keyed by (seed, replication index)), so serial and parallel
runs produce identical output.

The harness works in chunks of at most ``CHUNK_REPS`` replications.
:func:`generate_ar2` simulates a chunk in one recursion over (chunk, m)
slices and returns it as one stacked series; each replication still draws
its innovations from its own substream, so its series is bit-identical to a
one-replication call.  The chunk is fitted in stacks of replications,
views of the chunk with a leading axis on every array: per estimator and
stack, one realization of the working correlation and one R_i^{-1} X_i
(one m x m inverse times X for a fixed pattern; one pass of the two-step
kernel and one batched solve for the two-step estimator), one stacked GEMM
per normal matrix and sandwich sum, one batched rank test and one batched
solve.  Every per-replication operation is the one a single series runs,
so the estimates are bit-identical to one fit per replication, and a
replication that fails numerically is flagged alone.  A serial study walks
the chunks in order, and ``parallel=True`` maps them over one worker per
usable CPU, at most one per chunk; both give the same estimates, whatever
the chunk length, and raise the same InstabilityError: the first exploding
replication's, at its first step past the guard.
"""

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import corr as corrmod
from .errors import ContractError, CorrelationDegeneracyError, InstabilityError, NumericalError, StudyError
from .estfun import EstimatingContext, fit
from .model import ClusterSeries, get_link

EXPLOSION_GUARD = 1e6

# Replications simulated in one AR(2) recursion and fitted together, whatever
# s is.  At the paper design (n=500, m=5) a chunk's series take 1.9 MB, and a
# chunk's traced working set peaks at 3.5 MB: the series and the two-step fit
# of one stack of 4 replications (see _replications).
CHUNK_REPS = 32

# The study's true innovation correlations, in table order, with the labels
# of the paper's tables; SimDesign also takes "cs", the corr.PROVIDERS name
TRUTHS = {"independence": "R1", "compound_symmetry": "R2", "ar1": "R3"}


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); Philox keys make streams collision-free."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimDesign:
    """Second-order autoregression design; a Monte Carlo report's ``design`` block."""

    n: int = 500
    m: int = 5
    beta0: tuple = (0.5, 0.2)
    truth: str = "compound_symmetry"
    alpha0: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if len(self.beta0) != 2:
            raise ContractError("the AR(2) design uses a 2-dimensional beta0")
        if not np.all(np.isfinite(self.beta0)):
            raise ContractError(f"beta0 must be finite, got {tuple(self.beta0)}")
        if self.n < 1 or self.m < 1:
            raise ContractError("n and m must be positive")
        truth = str(self.truth).lower()
        truth = "compound_symmetry" if truth == "cs" else truth
        if truth not in TRUTHS:
            raise ContractError(f"unknown correlation kind {self.truth!r}")
        object.__setattr__(self, "truth", truth)
        # validates the alpha range for this truth/m
        corrmod.build_fixed_corr(truth, self.alpha0, self.m)


def true_correlation(design: SimDesign) -> np.ndarray:
    return corrmod.build_fixed_corr(design.truth, design.alpha0, design.m)


def generate_ar2(design: SimDesign, rep=0):
    """Simulate the design; deterministic given (design.seed, rep).

    ``rep`` is one replication index, giving its ClusterSeries, or a range
    of indices, giving one ClusterSeries that stacks them in order (ys
    (len(rep), n, m), Xs (len(rep), n, m, 2)).  A range runs one recursion
    over (len(rep), m) slices; each replication draws its innovations from
    its own substream, so every series is bit-identical to a one-index call.

    Step i carries X_i = [y_{i-1} | y_{i-2}] (newest lag first), starting
    from y_{-1} = y_{-2} = 0.  InstabilityError is raised for the first
    replication in which some |y| exceeds 1e6, at its first such step,
    which catches explosive parameter choices long before overflow.
    """
    reps = rep if isinstance(rep, range) else range(rep, rep + 1)
    n, m, k = design.n, design.m, len(reps)
    cov = true_correlation(design)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise CorrelationDegeneracyError("innovation covariance is not SPD") from None
    # ys[i + 2] is step i of every replication; rows 0 and 1 are the zero start
    ys = np.zeros((n + 2, k, m))
    for j, r in enumerate(reps):
        ys[2:, j] = substream(design.seed, r).standard_normal((n, m)) @ chol.T

    b1, b2 = float(design.beta0[0]), float(design.beta0[1])
    # an exploding replication overflows after it crossed the guard; it is located below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(2, n + 2):
            ys[i] += b1 * ys[i - 1] + b2 * ys[i - 2]
        # a step whose max is NaN does not count, as for np.max of one step
        exceeded = np.max(np.abs(ys[2:]), axis=2) > EXPLOSION_GUARD

    for j in range(k):
        if exceeded[:, j].any():
            step = int(np.argmax(exceeded[:, j]))
            raise InstabilityError(
                f"simulated series exceeded {EXPLOSION_GUARD:g} at step {step}", step=step
            )
    ys = np.moveaxis(ys, 1, 0) if isinstance(rep, range) else ys[:, 0]
    # views of the recursion's rows, copied once by ClusterSeries: window i
    # of the lags holds (y_{i-2}, y_{i-1}), reversed to newest first
    lags = np.lib.stride_tricks.sliding_window_view(ys[..., :-1, :], 2, axis=-2)
    return ClusterSeries(ys=ys[..., 2:, :], Xs=lags[..., ::-1])


# The study's columns: names of corr.PROVIDERS, each at alpha = design.alpha0,
# then the reference "quasi_true", the quasi-score with the design's innovation
# correlation plugged in, against whose MSE every column's RE is taken
ESTIMATORS = ("independence", "cs", "ar1", "two_step", "quasi_true")

_IDENTITY_LINK = get_link("identity")


def _provider(design: SimDesign, name: str):
    """The working correlation of the study column ``name`` on ``design``."""
    if name == "quasi_true":
        return corrmod.pseudo_fixed(true_correlation(design))
    return corrmod.PROVIDERS[name](design.alpha0, design.m)


def _replications(design: SimDesign, names, level: float, reps: range):
    """Estimates, CI bounds and failure flags of the named estimators (of
    ``ESTIMATORS``) on a chunk of replications, as arrays with leading axis
    len(reps).

    The chunk is fitted in stacks of replications, each estimator with one
    realization of its provider per stack.  A replication whose fit fails
    numerically is flagged; its neighbours in the stack are unaffected.
    """
    chunk = generate_ar2(design, reps)
    providers = []
    for name in names:
        try:
            providers.append(_provider(design, name))
        except NumericalError:  # a pattern that is not positive definite fails every fit
            providers.append(None)
    shape = (len(reps), len(names), chunk.p)
    betas, los, his = np.full(shape, np.nan), np.full(shape, np.nan), np.full(shape, np.nan)
    failed = np.zeros(shape[:2], dtype=bool)
    failed[:, [provider is None for provider in providers]] = True
    # a two-step fit realizes R_i for every step of its stack, so a stack
    # holds at most CHUNK_REPS * BLOCK_STEPS (replication, step) rows: 0.4 MB
    # at m=5, a stack of 4 at n=500.  The stacks are views of the chunk.
    size = max(1, CHUNK_REPS * corrmod.BLOCK_STEPS // design.n)
    for lo in range(0, len(reps), size):
        at = slice(lo, lo + size)
        data = ClusterSeries(ys=chunk.ys[at], Xs=chunk.Xs[at])
        for j, provider in enumerate(providers):
            if provider is None:
                continue
            result = fit(EstimatingContext(data=data, link=_IDENTITY_LINK, corr=provider),
                         "linear", level=level)
            betas[at, j] = result.beta_hat
            los[at, j], his[at, j] = result.cis[..., 0], result.cis[..., 1]
            failed[at, j] = result.failed
    return betas, los, his, failed


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class EstimatorSummary:
    """One estimator's column; an entry of a Monte Carlo report's ``estimators`` block."""

    label: str
    bias: np.ndarray
    rb: np.ndarray
    mse: np.ndarray
    re: np.ndarray
    coverage: np.ndarray
    failures: int


@dataclass
class MonteCarloReport:
    """One design's study; its ``asdict`` is a report of the Monte Carlo payloads."""

    design: SimDesign
    s: int
    level: float
    estimators: list = field(default_factory=list)


def monte_carlo_study(
    design: SimDesign,
    s: int = 500,
    level: float = 0.95,
    parallel: bool = False,
) -> MonteCarloReport:
    """Run s replications of the design and aggregate the metric tables of
    the ``ESTIMATORS`` columns.

    Per component k: Bias = mean(beta_hat_k - beta0_k), RB = Bias/beta0_k
    (absolute bias is reported when |beta0_k| < 1e-8), MSE is the mean
    squared error, RE = MSE / MSE of the reference column "quasi_true", and
    coverage is the fraction of replications whose CI contains beta0_k.

    Replications failing with a numerical error are excluded per estimator;
    more than 5% exclusions aborts the study.  Results are identical
    whether ``parallel`` is on or off; on, the study runs one worker per
    CPU the process may run on, and never more workers than chunks.
    """
    if s < 2:
        raise ContractError(f"Monte Carlo study needs s >= 2, got {s}")
    workers = _usable_cpus() if parallel else 1
    size = min(CHUNK_REPS, -(-s // workers))  # at least one chunk per worker
    chunks = [range(lo, min(lo + size, s)) for lo in range(0, s, size)]
    work = functools.partial(_replications, design, ESTIMATORS, level)
    workers = min(workers, len(chunks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, chunks))
    else:
        parts = list(map(work, chunks))
    betas, los, his, failed = (np.concatenate(arrays) for arrays in zip(*parts))

    beta0 = np.asarray(design.beta0, dtype=np.float64)
    columns = []
    for j, name in enumerate(ESTIMATORS):
        ok = ~failed[:, j]
        n_fail = int(failed[:, j].sum())
        if n_fail > 0.05 * s:
            raise StudyError(
                f"estimator {name!r} failed on {n_fail}/{s} replications"
            )
        b = betas[ok, j, :]
        err = b - beta0
        bias = err.mean(axis=0)
        mse = (err**2).mean(axis=0)
        near_zero = np.abs(beta0) < 1e-8
        denom = np.where(near_zero, 1.0, beta0)
        rb = np.where(near_zero, bias, bias / denom)
        cover = ((los[ok, j, :] <= beta0) & (beta0 <= his[ok, j, :])).mean(axis=0)
        columns.append(dict(label=name, bias=bias, rb=rb, mse=mse, coverage=cover,
                            failures=n_fail))
    ref_mse = columns[ESTIMATORS.index("quasi_true")]["mse"]
    summaries = [EstimatorSummary(re=col["mse"] / ref_mse, **col) for col in columns]
    return MonteCarloReport(design=design, s=s, level=level, estimators=summaries)
