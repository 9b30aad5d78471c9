"""Working correlation structures for the estimating function.

A provider supplies, for every step i, the m x m surrogate matrix used to
weight that step's standardized residuals.  Fixed patterns (independence,
compound symmetry, AR(1)) are constant over time; the running empirical
provider averages outer products of standardized residuals from steps
strictly before i, so the matrix used at step i is determined by the past
alone.

Running averages are built by one kernel, :func:`running_corr`, shared with
the two-step estimator.  It walks the series in blocks of ``BLOCK_STEPS``
steps, takes exclusive prefix sums of per-step moment tensors inside each
block (carrying the totals into the next block), and regularises a whole
block of averages with one batched eigendecomposition.  Prefix sums are
accumulated step by step, so R_i depends on steps before i only and does
not depend on the block length.

Degenerate empirical averages (fewer residuals folded in than the cluster
size, hence rank-deficient) fall back to the identity; near-singular
averages are eigenvalue-floored by :func:`regularized_empirical` instead of
being rejected, keeping sequential procedures total.
"""

import numpy as np

from .errors import ContractError, CorrelationDegeneracyError
from .model import ClusterSeries, LinkSpec, moment_arrays

# Running averages are the identity at steps i < max(WARMUP_STEPS, m), where
# an average of i outer products is rank-deficient; EIG_FLOOR is the absolute
# eigenvalue floor of every regularised average.
WARMUP_STEPS = 2
EIG_FLOOR = 1e-6

# Steps per block of the running-correlation kernel.  The two-step
# estimator's prefix tensor holds m^2 p^2 floats per step (8 KB at m=8,
# p=4), so this bounds the kernel's working memory to a few MB.
BLOCK_STEPS = 64


def build_fixed_corr(kind: str, alpha: float, m: int) -> np.ndarray:
    """Build a fixed-pattern m x m correlation matrix.

    Parameters
    ----------
    kind : {"independence", "compound_symmetry", "ar1"}
    alpha : float
        Off-diagonal parameter; ignored for independence.  Admissible
        ranges (forced by positive definiteness): compound symmetry needs
        alpha in (-1/(m-1), 1), AR(1) needs alpha in (-1, 1).
    m : int
        Cluster size, m >= 1.
    """
    if m < 1:
        raise ContractError(f"cluster size must be >= 1, got {m}")
    if kind == "independence":
        return np.eye(m)
    alpha = float(alpha)
    if kind == "compound_symmetry":
        lo = -1.0 / (m - 1) if m > 1 else -1.0
        if not (lo < alpha < 1.0):
            raise ContractError(
                f"compound symmetry needs alpha in ({lo:g}, 1) for m={m}, got {alpha}"
            )
        mat = np.full((m, m), alpha)
        np.fill_diagonal(mat, 1.0)
        return mat
    if kind == "ar1":
        if not (-1.0 < alpha < 1.0):
            raise ContractError(f"ar1 needs alpha in (-1, 1), got {alpha}")
        idx = np.arange(m)
        return alpha ** np.abs(idx[:, None] - idx[None, :])
    raise ContractError(f"unknown fixed correlation kind {kind!r}")


def spd_project(mat: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """Clip eigenvalues below at ``floor``, reassemble, rescale to unit diagonal.

    Idempotent on symmetric matrices whose smallest eigenvalue already
    meets the floor (returned unchanged).  Asymmetric input is a contract
    violation.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractError(f"spd_project expects a square matrix, got {mat.shape}")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-8 * scale:
        raise ContractError("spd_project requires symmetric input")
    w, v = np.linalg.eigh(mat)
    if w[0] >= floor:
        return mat
    return _clip_spectrum(w, v, np.asarray(floor))


def _clip_spectrum(w, v, floors):
    """Reassemble eigenpairs (stacked or single) with eigenvalues clipped
    below at ``floors``, rescaled to unit diagonal and exactly symmetric."""
    w = np.maximum(w, floors[..., None])
    out = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
    d = np.sqrt(np.diagonal(out, axis1=-2, axis2=-1))
    out = out / (d[..., :, None] * d[..., None, :])
    diag = np.arange(out.shape[-1])
    out[..., diag, diag] = 1.0
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def regularized_empirical(mats: np.ndarray, counts) -> np.ndarray:
    """Floor a stack of empirical averages, ``mats`` (k, m, m), of ``counts``
    (k,) residual outer products each.

    Beyond the absolute floor ``EIG_FLOOR``, eigenvalues are floored at
    min(1/2, m/(2*count)) of the largest one: an average of count outer
    products sits at the hard edge of near-singularity while count is
    comparable to m, and inverting it would hand a handful of early steps
    weights that dominate the whole estimating equation.  The relative
    floor caps any step's condition number at 2*count/m and decays to
    nothing as data accrue, so the sequence converges to the plain
    empirical average.  A matrix whose eigenvalues all meet the floor is
    returned symmetrised but otherwise unchanged.
    """
    out = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    w, v = np.linalg.eigh(out)
    rel = np.minimum(0.5, out.shape[-1] / (2.0 * np.maximum(counts, 1)))
    floors = np.maximum(EIG_FLOOR, rel * w[:, -1])
    clip = w[:, 0] < floors
    if np.any(clip):
        out[clip] = _clip_spectrum(w[clip], v[clip], floors[clip])
    return out


def running_corr(n, m, step_moments, average) -> np.ndarray:
    """Regularised running averages R_0..R_{n-1} as an (n, m, m) array.

    ``step_moments(lo, hi)`` returns a tuple of per-step moment arrays for
    steps lo..hi-1, each with leading axis hi - lo.  For steps i at or past
    the warm-up, ``average(sums, counts)`` receives their exclusive prefix
    sums (totals over steps 0..i-1, leading axis k) and the counts i, and
    returns the (k, m, m) raw averages with a (k,) mask of the usable ones.
    Usable averages go through :func:`regularized_empirical`; warm-up steps
    (count < max(WARMUP_STEPS, m), where the average is necessarily
    rank-deficient) and unusable steps get the identity.
    """
    guard = max(WARMUP_STEPS, m)
    out = np.tile(np.eye(m), (n, 1, 1))
    totals = None
    for lo in range(0, n, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, n)
        moments = step_moments(lo, hi)
        if totals is None:
            totals = [np.zeros_like(t[0]) for t in moments]
        # row j sums steps before lo + j; the last row carries into the next block
        sums = [np.cumsum(np.concatenate([tot[None], t]), axis=0)
                for tot, t in zip(totals, moments)]
        totals = [s[-1] for s in sums]
        first = max(lo, guard)
        if first >= hi:  # the whole block is warm-up
            continue
        counts = np.arange(first, hi)
        raw, usable = average([s[first - lo:-1] for s in sums], counts)
        out[counts[usable]] = regularized_empirical(raw[usable], counts[usable])
    return out


def _check_spd(mat, what):
    mat = np.asarray(mat, dtype=np.float64)
    if np.max(np.abs(mat - mat.T)) > 1e-10 * max(1.0, np.max(np.abs(mat))):
        raise CorrelationDegeneracyError(f"{what} is not symmetric")
    w = np.linalg.eigvalsh(mat)
    if w[0] <= 0.0:
        raise CorrelationDegeneracyError(
            f"{what} is not positive definite (lambda_min={w[0]!r})",
            eigenvalue=float(w[0]),
        )
    return mat


class CorrProvider:
    """Base class: one m x m surrogate matrix per time step."""

    kind = "abstract"

    @property
    def m(self) -> int:
        raise NotImplementedError

    def realize(self, data: ClusterSeries, link: LinkSpec) -> np.ndarray:
        """Materialize the per-step matrices as an (n, m, m) array."""
        raise NotImplementedError


class FixedCorr(CorrProvider):
    """Constant matrix at every step (fixed pattern or user-supplied)."""

    def __init__(self, kind, matrix):
        self.kind = kind
        self.matrix = np.array(_check_spd(matrix, f"{kind} correlation"), dtype=np.float64)
        self.matrix.flags.writeable = False

    @property
    def m(self):
        return self.matrix.shape[0]

    def realize(self, data, link):
        if data.m != self.m:
            raise ContractError(
                f"provider cluster size {self.m} != data cluster size {data.m}"
            )
        return np.broadcast_to(self.matrix, (data.n, self.m, self.m))


class SequenceCorr(CorrProvider):
    """Explicit per-step matrix sequence (e.g. the two-step procedure's trace)."""

    kind = "sequence"

    def __init__(self, matrices):
        mats = np.asarray(matrices, dtype=np.float64)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ContractError(f"sequence provider expects (n, m, m), got {mats.shape}")
        self.matrices = mats

    @property
    def m(self):
        return self.matrices.shape[1]

    def realize(self, data, link):
        if data.n != self.matrices.shape[0] or data.m != self.m:
            raise ContractError("sequence provider does not match data dimensions")
        return self.matrices


class EmpiricalRunningCorr(CorrProvider):
    """Running average of standardized-residual outer products.

    The matrix used at step i averages residuals from steps < i only.
    While fewer than ``WARMUP_STEPS`` residuals have been folded in, it is
    the identity; the same applies while the average is necessarily
    rank-deficient (count < m), since an average of count outer products
    has rank at most count.  Past that point the average is conditioned
    through :func:`regularized_empirical`, whose eigenvalue floor decays
    with the count.  :func:`running_corr` builds the whole sequence.

    Residuals are standardized at a single plug-in value of the regression
    parameter (``plugin_beta``); ``fit`` resolves it to the
    working-independence estimate when left unset.
    """

    kind = "empirical_running"

    def __init__(self, m, plugin_beta=None):
        if m < 1:
            raise ContractError("cluster size must be >= 1")
        self._m = int(m)
        self.plugin_beta = (
            None if plugin_beta is None else np.asarray(plugin_beta, dtype=np.float64)
        )

    @property
    def m(self):
        return self._m

    def with_plugin(self, beta) -> "EmpiricalRunningCorr":
        return EmpiricalRunningCorr(self._m, plugin_beta=beta)

    def realize(self, data, link):
        if data.m != self._m:
            raise ContractError(
                f"provider cluster size {self._m} != data cluster size {data.m}"
            )
        if self.plugin_beta is None:
            raise ContractError(
                "empirical provider needs plugin_beta (fit() resolves it to the "
                "working-independence estimate)"
            )
        _, _, eps = moment_arrays(data.Xs, data.ys, self.plugin_beta, link)
        return running_corr(
            data.n,
            self._m,
            lambda lo, hi: (eps[lo:hi, :, None] * eps[lo:hi, None, :],),
            lambda sums, counts: (sums[0] / counts[:, None, None], np.ones(counts.size, bool)),
        )


def independence(m: int) -> FixedCorr:
    return FixedCorr("independence", build_fixed_corr("independence", 0.0, m))


def compound_symmetry(alpha: float, m: int) -> FixedCorr:
    return FixedCorr("compound_symmetry", build_fixed_corr("compound_symmetry", alpha, m))


def ar1(alpha: float, m: int) -> FixedCorr:
    return FixedCorr("ar1", build_fixed_corr("ar1", alpha, m))


def pseudo_fixed(matrix) -> FixedCorr:
    """Wrap a user-supplied constant matrix (validated SPD)."""
    return FixedCorr("pseudo_fixed", matrix)


def empirical_running(m, plugin_beta=None) -> EmpiricalRunningCorr:
    return EmpiricalRunningCorr(m, plugin_beta=plugin_beta)

