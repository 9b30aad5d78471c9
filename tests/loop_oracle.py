"""Step-by-step reference implementations of the running correlation sequences,
the simulated series and the CSV design matrices.

These are the per-step loops that the block kernel ``corr.running_corr``
replaced, kept as oracles: one running sum updated per step, and a scalar
regulariser that shares no code with the batched ``corr.regularized_empirical``.
``unscreened_regularized_empirical`` is the batched regulariser as it was
before the Cholesky screen: one eigendecomposition of every matrix.
``loop_generate_ar2`` is the one-replication AR(2) recursion that the chunked
``simgen.generate_ar2`` replaced, with its explosion check on every step.
``loop_design`` is the row-by-row design construction that ``cli.parse_dataset``
and ``cli.next_design`` replaced, with the next-step design read from the file
again.
"""

import numpy as np

from mtgee.cli import _load_arrays
from mtgee.corr import EIG_FLOOR, _clip_spectrum
from mtgee.errors import InstabilityError
from mtgee.model import ClusterSeries
from mtgee.simgen import EXPLOSION_GUARD, substream, true_correlation


def scalar_regularize(mat, count, floor=1e-6):
    """One step's relative eigenvalue floor, clip and unit-diagonal rescale."""
    mat = 0.5 * (mat + mat.T)
    lam_max = float(np.linalg.eigvalsh(mat)[-1])
    rel = min(0.5, mat.shape[0] / (2.0 * max(count, 1)))
    fl = max(floor, rel * lam_max)
    w, v = np.linalg.eigh(mat)
    if w[0] >= fl:
        return mat
    out = (v * np.maximum(w, fl)) @ v.T
    d = np.sqrt(np.diag(out))
    out = out / np.outer(d, d)
    np.fill_diagonal(out, 1.0)
    return 0.5 * (out + out.T)


def unscreened_regularized_empirical(mats, counts):
    """The batched floor of a (k, m, m) stack, through one eigh of every matrix."""
    out = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    w, v = np.linalg.eigh(out)
    rel = np.minimum(0.5, out.shape[-1] / (2.0 * np.maximum(counts, 1)))
    floors = np.maximum(EIG_FLOOR, rel * w[:, -1])
    clip = w[:, 0] < floors
    if np.any(clip):
        out[clip] = _clip_spectrum(w[clip], v[clip], floors[clip])
    return out


def loop_generate_ar2(design, rep):
    """One replication of the AR(2) design, one step at a time."""
    n, m = design.n, design.m
    innovations = (substream(design.seed, rep).standard_normal((n, m))
                   @ np.linalg.cholesky(true_correlation(design)).T)
    b1, b2 = float(design.beta0[0]), float(design.beta0[1])
    prev1 = prev2 = np.zeros(m)
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


def loop_realize(eps, warmup_steps=2, floor=1e-6):
    """Running empirical correlations from standardized residuals ``eps`` (n, m)."""
    n, m = eps.shape
    out = np.empty((n, m, m))
    total = np.zeros((m, m))
    for i in range(n):
        if i < max(warmup_steps, m):
            out[i] = np.eye(m)
        else:
            out[i] = scalar_regularize(total / i, i, floor)
        total = total + np.outer(eps[i], eps[i])
    return out


def loop_two_step(data, warmup_steps=2, floor=1e-6):
    """Two-step estimate and its correlation sequence, one step at a time."""
    n, m, p = data.n, data.m, data.p
    Xs, ys = data.Xs, data.ys
    sxx = np.zeros((p, p))
    sxy = np.zeros(p)
    syy = np.zeros((m, m))
    t1 = np.zeros((m, m, p))
    t2 = np.zeros((m, p, m, p))
    k_mat = np.zeros((p, p))
    rhs = np.zeros(p)
    seq = np.empty((n, m, m))
    guard = max(warmup_steps, m)
    for i in range(n):
        r_mat = np.eye(m)
        if i >= guard:
            try:
                b = np.linalg.solve(sxx, sxy)
            except np.linalg.LinAlgError:
                b = None
            if b is not None and np.all(np.isfinite(b)):
                c1 = np.einsum("ack,k->ac", t1, b)
                raw = (syy - c1 - c1.T + np.einsum("akcj,k,j->ac", t2, b, b)) / i
                r_mat = scalar_regularize(raw, i, floor)
        seq[i] = r_mat
        x_i, y_i = Xs[i], ys[i]
        rinv_x = np.linalg.solve(r_mat, x_i)
        k_mat += x_i.T @ rinv_x
        rhs += rinv_x.T @ y_i
        sxx += x_i.T @ x_i
        sxy += x_i.T @ y_i
        syy += np.outer(y_i, y_i)
        t1 += np.einsum("a,ck->ack", y_i, x_i)
        t2 += np.einsum("ak,cj->akcj", x_i, x_i)
    return np.linalg.solve(k_mat, rhs), seq


def _design_row(spec, Y, Z, i):
    """Regressors [1 | y_{i-1} .. y_{i-lags} | z_i] for row index i of Y."""
    m = Y.shape[1]
    blocks = []
    if spec.intercept:
        blocks.append(np.ones((m, 1)))
    for lag in range(1, spec.lags + 1):
        blocks.append(Y[i - lag][:, None])
    if Z is not None:
        blocks.append(Z[min(i, len(Z) - 1)])  # the step after the last carries z forward
    return np.hstack(blocks)


def loop_design(spec):
    """(Xs, x_next) built one step at a time from a fresh read of the file."""
    Y, Z = _load_arrays(spec)
    T = Y.shape[0]
    Xs = np.stack([_design_row(spec, Y, Z, i) for i in range(spec.lags, T)])
    Y, Z = _load_arrays(spec)
    return Xs, _design_row(spec, Y, Z, T)
