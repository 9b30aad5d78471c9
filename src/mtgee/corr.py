"""Working correlation structures for the estimating function.

A provider supplies, for every step i, the m x m surrogate matrix R_i used
to weight that step's standardized residuals, and applies R_i^{-1}.  Fixed
patterns (independence, compound symmetry, AR(1)) are constant over time;
the running empirical provider averages outer products of standardized
residuals from steps strictly before i, and the two-step provider does the
same with working-independence residuals re-estimated on those steps, so
the matrix used at step i is determined by the past alone.  ``PROVIDERS`` is
the one table from a name (``independence``, ``cs``, ``ar1``, ``empirical``,
``two_step``) to its provider; the CLI and the Monte Carlo study read it.

Both running providers build their averages with one kernel,
:func:`running_corr`.  It walks the series in blocks of ``BLOCK_STEPS``
steps, takes exclusive prefix sums of one per-step moment array inside each
block (carrying the totals into the next block), and regularises a whole
block of averages with one call of :func:`regularized_empirical`.  That
moment is eps eps' for the empirical provider and, with z = [y | X], z_j z_k'
over the unit pairs j <= k for the two-step provider, laid out (q, q, pairs)
so that products and contractions run along the pairs.  The block's moments
sit in one reused slab, step by step, with the series of a step side by
side; prefix sums are accumulated one step after another, by one add of the
previous row per step (or one cumsum down a slab of short rows, the same
adds), so R_i depends on steps before i only and does not depend on the
block length.  Every provider also takes a stack of series with a leading
replication axis; a block then covers all of them, and each series'
matrices are the ones it gets alone.

Degenerate empirical averages (fewer residuals folded in than the cluster
size, hence rank-deficient) fall back to the identity; near-singular
averages are eigenvalue-floored by :func:`regularized_empirical` instead of
being rejected, keeping sequential procedures total.  Past the first block
few averages need a floor, so :func:`regularized_empirical` first screens a
block with one batched Cholesky factorisation, which can prove that no
matrix needs its floor, and runs the batched eigendecomposition only on a
block that fails the screen.  The result is the same either way, bit for bit.
"""

import numpy as np

from .errors import ContractError, CorrelationDegeneracyError
from .model import ClusterSeries, LinkSpec, moment_arrays

# Running averages are the identity at steps i < max(WARMUP_STEPS, m), where
# an average of i outer products is rank-deficient; EIG_FLOOR is the absolute
# eigenvalue floor of every regularised average.
WARMUP_STEPS = 2
EIG_FLOOR = 1e-6
# Margin of the Cholesky screen in regularized_empirical, relative to the
# Frobenius norm of the matrix screened.
SCREEN_MARGIN = 1e-10

# Steps per block of the running-correlation kernel, for each series of a
# stack.  The kernel's slab holds BLOCK_STEPS + 1 rows, one per step, of
# k (p+1)^2 m(m+1)/2 floats for the two-step estimator (7.2 KB per series
# at m=8, p=4, so 468 KB), and each block gathers z = [y | X] for its own
# steps only, so this bounds the kernel's working memory to a few MB per
# series.
BLOCK_STEPS = 64
# Slab rows of at least this many floats take their prefix sums as one
# np.add per row, which is vectorised along the row; shorter rows take one
# np.cumsum down the slab, whose adds wait one on another but which makes a
# single call.  On a 2-core x86_64 host with numpy 2 the two cost the same
# per 64-step block at about 300 floats a row.  Both add the same rows in
# the same order, so the sums are the same bits either way.
ROW_ADD_MIN = 320


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


def _clip_spectrum(w, v, floors):
    """Reassemble a stack of eigenpairs, ``w`` (k, m) and ``v`` (k, m, m),
    with eigenvalues clipped below at ``floors`` (k,), rescaled to unit
    diagonal and exactly symmetric."""
    w = np.maximum(w, floors[:, None])
    out = (v * w[:, None, :]) @ np.swapaxes(v, 1, 2)
    d = np.sqrt(np.diagonal(out, axis1=1, axis2=2))
    out = out / (d[:, :, None] * d[:, None, :])
    diag = np.arange(out.shape[-1])
    out[:, diag, diag] = 1.0
    return 0.5 * (out + np.swapaxes(out, 1, 2))


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
    empirical average.  Every matrix of ``mats`` must be exactly symmetric,
    as every caller's averages are by construction.  ``mats`` is never
    written: it is returned as it came unless some matrix needs its floor,
    and then as a copy with those matrices rebuilt.

    A stack whose every matrix passes the Cholesky screen skips the
    eigendecomposition: with B the Frobenius norm, an upper bound on the
    largest eigenvalue, a factorisation of S - c I with
    c = max(EIG_FLOOR, rel * B) + SCREEN_MARGIN * B proves that S meets its
    floor.  The margin dwarfs the ~m^2 eps B rounding of both factorisations,
    so a matrix that passes is one the eigendecomposition would not clip.
    """
    m = mats.shape[-1]
    rel = np.minimum(0.5, m / (2.0 * np.maximum(counts, 1)))
    bound = np.sqrt(np.sum(mats * mats, axis=(1, 2)))
    if np.all(np.isfinite(bound)):
        shift = np.maximum(EIG_FLOOR, rel * bound) + SCREEN_MARGIN * bound
        try:
            np.linalg.cholesky(mats - shift[:, None, None] * np.eye(m))
            return mats
        except np.linalg.LinAlgError:
            pass  # some matrix may need its floor; the whole stack takes the exact path
    w, v = np.linalg.eigh(mats)
    floors = np.maximum(EIG_FLOOR, rel * w[:, -1])
    clip = w[:, 0] < floors
    if np.any(clip):
        mats = mats.copy()  # the caller's array is never written
        mats[clip] = _clip_spectrum(w[clip], v[clip], floors[clip])
    return mats


def running_corr(k, n, m, shape, step_moments, average) -> np.ndarray:
    """Regularised running averages R_0..R_{n-1} of k series as a (k, n, m, m) array.

    Each step contributes one moment array of the trailing ``shape`` for
    each series; ``step_moments(lo, hi, out)`` writes those of steps
    lo..hi-1 into ``out``, of shape (hi - lo, k) + ``shape``: step first,
    then series.  For the steps i at or past the warm-up,
    ``average(sums, counts)`` receives their exclusive prefix sums (totals
    over steps 0..i-1, leading axes (steps, k)) and the counts i, and
    returns the (steps, k, m, m) raw averages with a (steps, k) mask of the
    usable ones.  Usable averages go through :func:`regularized_empirical`;
    warm-up steps (count < max(WARMUP_STEPS, m), where the average is
    necessarily rank-deficient) and unusable steps get the identity.  A
    block holds ``BLOCK_STEPS`` steps of all k series, so one round of
    ``step_moments``, prefix sums, ``average`` and regularisation serves
    every series; a single series is the case k = 1.

    One slab of BLOCK_STEPS + 1 rows, each the k moment arrays of a step,
    serves every block: row 0 carries the totals of the blocks before, and
    each later row becomes a prefix sum by one in-place add of the row above
    it over the contiguous row.  Rows shorter than ``ROW_ADD_MIN`` floats
    take one cumsum down the slab instead, which makes the same adds in the
    same order.
    """
    guard = max(WARMUP_STEPS, m)
    out = np.tile(np.eye(m), (k, n, 1, 1))
    slab = np.zeros((min(BLOCK_STEPS, n) + 1, k) + shape)
    for lo in range(0, n, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, n)
        # row j sums the steps before lo + j, and the last row carries into
        # the next block
        rows = slab[: hi - lo + 1]
        step_moments(lo, hi, rows[1:])
        if rows[0].size < ROW_ADD_MIN:
            np.cumsum(rows, axis=0, out=rows)
        else:
            prev = rows[0]
            for row in rows[1:]:
                np.add(prev, row, out=row)
                prev = row
        first = max(lo, guard)
        if first < hi:  # else the whole block is warm-up
            counts = np.arange(first, hi)
            raw, usable = average(rows[first - lo:-1], counts)
            step, rep = np.nonzero(usable)
            out[rep, first + step] = regularized_empirical(raw[step, rep], counts[step])
        slab[0] = rows[-1]
    return out


def _check_spd(mat, what):
    mat = np.asarray(mat, dtype=np.float64)
    if not np.all(np.isfinite(mat)):
        raise CorrelationDegeneracyError(f"{what} is not finite")
    if np.max(np.abs(mat - mat.T)) > 1e-10 * max(1.0, np.max(np.abs(mat))):
        raise CorrelationDegeneracyError(f"{what} is not symmetric")
    w = np.linalg.eigvalsh(mat)
    if w[0] <= 0.0:
        raise CorrelationDegeneracyError(
            f"{what} is not positive definite (lambda_min={float(w[0])!r})",
            eigenvalue=float(w[0]),
        )
    return mat


def _stack(arr, core):
    """``arr`` as a stack: a single series' array (``core`` axes) gains a
    leading axis of one, a stack of them keeps its own."""
    return arr.reshape((-1,) + arr.shape[arr.ndim - core:])


class CorrProvider:
    """Base class: one m x m surrogate matrix per time step.

    ``data`` may be one series or a stack of them with a leading replication
    axis; the matrices then carry that axis too.
    """

    kind = "abstract"

    def __init__(self, m: int):
        if m < 1:
            raise ContractError("cluster size must be >= 1")
        self.m = int(m)

    def realize(self, data: ClusterSeries, link: LinkSpec) -> np.ndarray:
        """Materialize the per-step matrices as an (n, m, m) array, or (k, n, m, m)."""
        raise NotImplementedError

    def solve(self, seq: np.ndarray, rhs=None) -> np.ndarray:
        """R_i^{-1} rhs_i for the per-step matrices ``seq`` this provider
        realized, from one batched solve; R_i^{-1} itself when ``rhs`` is None."""
        return np.linalg.inv(seq) if rhs is None else np.linalg.solve(seq, rhs)

    def _check_size(self, data):
        if data.m != self.m:
            raise ContractError(
                f"provider cluster size {self.m} != data cluster size {data.m}"
            )


class FixedCorr(CorrProvider):
    """Constant matrix at every step (fixed pattern or user-supplied)."""

    def __init__(self, kind, matrix):
        self.kind = kind
        self.matrix = np.array(_check_spd(matrix, f"{kind} correlation"), dtype=np.float64)
        self.matrix.flags.writeable = False
        super().__init__(self.matrix.shape[0])

    def realize(self, data, link):
        self._check_size(data)
        return np.broadcast_to(self.matrix, data.ys.shape + (self.m,))

    def solve(self, seq, rhs=None):
        # one m x m inverse, multiplied into rhs or broadcast over the steps
        # (and replications)
        inv = np.linalg.inv(self.matrix)
        return np.broadcast_to(inv, seq.shape) if rhs is None else inv @ rhs


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
        super().__init__(m)
        if plugin_beta is not None:
            plugin_beta = np.asarray(plugin_beta, dtype=np.float64)
            if not np.all(np.isfinite(plugin_beta)):
                raise ContractError("plugin_beta must be finite")
        self.plugin_beta = plugin_beta

    def realize(self, data, link):
        self._check_size(data)
        if self.plugin_beta is None:
            raise ContractError(
                "empirical provider needs plugin_beta (fit() resolves it to the "
                "working-independence estimate)"
            )
        if self.plugin_beta.shape[-1:] != (data.p,):
            raise ContractError(f"plugin_beta has shape {self.plugin_beta.shape}, need ({data.p},)")
        _, _, eps = moment_arrays(data.Xs, data.ys, self.plugin_beta, link)
        eps = np.swapaxes(_stack(eps, 2), 0, 1)  # (n, k, m): step first
        seq = running_corr(
            eps.shape[1],
            data.n,
            self.m,
            (self.m, self.m),
            lambda lo, hi, out: np.multiply(eps[lo:hi, :, :, None], eps[lo:hi, :, None, :],
                                            out=out),
            lambda sums, counts: (sums / counts[:, None, None, None],
                                  np.ones(sums.shape[:2], bool)),
        )
        return seq.reshape(data.ys.shape + (self.m,))


class TwoStepCorr(CorrProvider):
    """The plug-in of the sequential two-step pseudo-likelihood estimator.

    R_i averages the outer products of the residuals y_l - X_l b_i over
    steps l < i, where b_i is the working-independence estimate computed on
    those same steps.  Warm-up steps, steps where b_i is singular or
    non-finite, and the flooring follow :func:`running_corr`.  With the
    identity link, solving g_n = 0 against this sequence is the two-step
    estimator.

    With z_lj = [y_lj | x_lj'] the response and regressors of unit j at step
    l and w = (1, -b), the residual of that unit is z_lj'w, so every entry
    of sum_l r_l r_l' is a quadratic form w' S_jk w of the prefix sum
    S_jk = sum_l z_lj z_lk'.  :func:`running_corr` sums one moment array per
    step, S_jk for the unit pairs j <= k, laid out (q, q, pairs) with
    q = p + 1, so that the pair products, the prefix adds and the
    contraction with w (x) w all run along the m(m+1)/2 pairs; its diagonal
    pairs also give the normal equations of b_i, sum X'X and sum X'y.  One
    batched solve gives the b of a block (of every series of a stack).
    """

    kind = "two_step_empirical"

    def realize(self, data, link):
        self._check_size(data)
        if link.kind != "identity":
            raise ContractError("the two-step correlation requires the identity link")
        if data.n < 3:
            raise ContractError(f"two-step procedure needs n >= 3, got {data.n}")
        Xs, ys = _stack(data.Xs, 3), _stack(data.ys, 2)
        k, m, q = len(ys), self.m, data.p + 1
        left, right = np.triu_indices(m)
        units = np.flatnonzero(left == right)  # the pairs (j, j), in unit order

        def step_moments(lo, hi, out):
            # z of the block as (steps, k, q, m), so that the pair products
            # run along the unit pairs
            z = np.empty((hi - lo, k, q, m))
            z[:, :, 0] = np.swapaxes(ys[:, lo:hi], 0, 1)
            z[:, :, 1:] = np.transpose(Xs[:, lo:hi], (1, 0, 3, 2))
            zl, zr = z[..., left], z[..., right]
            np.multiply(zl[:, :, :, None], zr[:, :, None], out=out)

        def average(sums, counts):
            # sum X'X and sum X'y, the diagonal pairs added one unit at a time
            normal = np.moveaxis(sums, -1, 0)[units].sum(axis=0)
            sxx, sxy = normal[..., 1:, 1:], normal[..., 1:, 0]
            try:
                b = np.linalg.solve(sxx, sxy[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # one singular step fails the whole batch; it alone gets the identity
                b = np.full(sxy.shape, np.nan)
                for j in np.ndindex(b.shape[:-1]):
                    try:
                        b[j] = np.linalg.solve(sxx[j], sxy[j])
                    except np.linalg.LinAlgError:
                        pass
            usable = np.all(np.isfinite(b), axis=-1)
            b[~usable] = 0.0
            # w' S_jk w of every pair, as one product of w (x) w with S_jk
            w = np.concatenate((np.ones(b.shape[:-1] + (1,)), -b), axis=-1)
            ww = (w[..., :, None] * w[..., None, :]).reshape(w.shape[:-1] + (1, q * q))
            quad = (ww @ sums.reshape(sums.shape[:2] + (q * q, -1)))[..., 0, :]
            quad /= counts[:, None, None]
            raw = np.empty(quad.shape[:2] + (m, m))
            raw[..., left, right] = quad
            raw[..., right, left] = quad
            return raw, usable

        seq = running_corr(k, data.n, m, (q, q, len(left)), step_moments, average)
        return seq.reshape(data.ys.shape + (self.m,))


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


def two_step(m) -> TwoStepCorr:
    return TwoStepCorr(m)


# The provider of each working-correlation name, built from (alpha, m); alpha
# matters to "cs" and "ar1" only
PROVIDERS = {
    "independence": lambda alpha, m: independence(m),
    "cs": compound_symmetry,
    "ar1": ar1,
    "empirical": lambda alpha, m: empirical_running(m),
    "two_step": lambda alpha, m: two_step(m),
}
