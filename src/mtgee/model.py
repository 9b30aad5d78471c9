"""Conditional-moment model: link functions, clustered data containers, residuals.

At each time step i an m-vector response y_i is observed together with an
m x p regressor matrix X_i whose rows are built from information available
strictly before y_i.  Given the past, each component y_ij has conditional
mean mu(x_ij' beta) and conditional variance mu'(x_ij' beta) (dispersion
fixed at 1).  Everything downstream (estimating functions, sandwich
covariances, diagnostics) consumes the quantities computed here.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, ModelViolationError, SaturationError

# Exponential-link arguments beyond this magnitude overflow float64; fail
# loudly instead of propagating inf.
EXP_SATURATION = 700.0


@dataclass(frozen=True)
class LinkSpec:
    """A link function mu together with its first two derivatives.

    All callables are vectorized (accept and return ndarrays).  The model
    requires mu' > 0 wherever the link is evaluated.
    """

    kind: str
    eval: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]


def _sigmoid(theta):
    # 1/(1+e^-t) for t >= 0 and e^t/(1+e^t) below, from one e = exp(-|t|);
    # in place, so that a call holds two arrays of theta's size, not four
    e = np.exp(-np.abs(theta))
    mu = np.where(theta >= 0, 1.0, e)
    e += 1.0
    mu /= e
    return mu


def _logistic_d1(theta):
    # exp(-|theta|)/(1+exp(-|theta|))^2 is symmetric and avoids overflow
    e = np.exp(-np.abs(theta))
    return e / (1.0 + e) ** 2


def _logistic_d2(theta):
    # mu'' = mu'(1-2mu), with mu' = e/(1+e)^2 and mu as in _sigmoid from one
    # e = exp(-|t|): the operations of those two, in place
    e = np.exp(-np.abs(theta))
    one_e = 1.0 + e
    mu = np.where(theta >= 0, 1.0, e)
    mu /= one_e
    mu *= -2.0
    mu += 1.0
    one_e **= 2
    e /= one_e
    e *= mu
    return e


def _guarded_exp(theta):
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(np.abs(theta) > EXP_SATURATION):
        bad = float(theta.ravel()[np.argmax(np.abs(theta.ravel()))])
        raise SaturationError(
            f"exponential link argument theta={bad!r} exceeds |theta| <= {EXP_SATURATION}",
            theta=bad,
        )
    return np.exp(theta)


_IDENTITY = LinkSpec(
    kind="identity",
    eval=lambda t: np.asarray(t, dtype=np.float64),
    d1=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
    d2=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
)

_LOGISTIC = LinkSpec(
    kind="logistic",
    eval=lambda t: _sigmoid(np.asarray(t, dtype=np.float64)),
    d1=lambda t: _logistic_d1(np.asarray(t, dtype=np.float64)),
    d2=lambda t: _logistic_d2(np.asarray(t, dtype=np.float64)),
)

_EXPONENTIAL = LinkSpec(
    kind="exponential",
    eval=_guarded_exp,
    d1=_guarded_exp,
    d2=_guarded_exp,
)

LINKS = {link.kind: link for link in (_IDENTITY, _LOGISTIC, _EXPONENTIAL)}


def get_link(kind):
    """Return the LinkSpec registered under ``kind``."""
    try:
        return LINKS[kind]
    except KeyError:
        raise ContractError(
            f"unknown link {kind!r}; expected one of {sorted(LINKS)}"
        ) from None


def _frozen(arr):
    """``arr`` as a read-only C-ordered float64 array.  An array that already
    is one, over memory nothing can write (a slice of another series'
    arrays), is shared; anything else is copied, so freezing never mutates
    caller-owned arrays."""
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is None and arr.dtype == np.float64 and arr.flags.c_contiguous:
        return arr
    out = np.array(arr, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ClusterSeries:
    """An ordered sequence of (y_i, X_i) pairs with constant cluster size.

    ``ys`` has shape (n, m) and ``Xs`` shape (n, m, p); index order is time
    order.  A stack of k series of one shape, as the Monte Carlo harness fits
    them, has a leading replication axis: ys (k, n, m) and Xs (k, n, m, p).
    Construction does not (cannot) verify the measurability contract that
    row j of X_i uses only information prior to y_i; generators and the
    dataset loader are responsible for honouring it.  Arrays are frozen
    read-only so instances are safe to share across workers, and slices of
    one series' arrays are shared, not copied, by the series built on them.
    """

    ys: np.ndarray
    Xs: np.ndarray

    def __post_init__(self):
        ys, Xs = _frozen(self.ys), _frozen(self.Xs)
        if ys.ndim not in (2, 3) or Xs.ndim != ys.ndim + 1:
            raise ContractError(
                f"ClusterSeries expects ys (n,m) and Xs (n,m,p), or a stack (k,n,m) and "
                f"(k,n,m,p); got {ys.shape}, {Xs.shape}"
            )
        if Xs.shape[:-1] != ys.shape:
            raise ContractError(
                f"ClusterSeries shapes disagree: ys {ys.shape}, Xs {Xs.shape}"
            )
        if ys.shape[-2] == 0:
            raise ContractError("ClusterSeries needs at least one time step")
        if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(Xs))):
            raise ContractError("ClusterSeries entries must be finite")
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "Xs", Xs)

    @property
    def n(self) -> int:
        return self.ys.shape[-2]

    @property
    def m(self) -> int:
        return self.ys.shape[-1]

    @property
    def p(self) -> int:
        return self.Xs.shape[-1]


def linear_predictor(Xs, beta):
    """theta = X beta, shaped as ``Xs`` without its last axis: one
    matrix-vector product per series over its (n*m, p) rows.  ``beta`` is
    (p,), or (k, p) for a stack of series."""
    beta = np.asarray(beta, dtype=np.float64)
    rows = Xs.reshape(Xs.shape[:-3] + (-1, Xs.shape[-1]))
    return (rows @ beta[..., None])[..., 0].reshape(Xs.shape[:-1])


def moment_arrays(Xs, ys, beta, link):
    """Vectorized conditional moments over all steps.

    Parameters
    ----------
    Xs : ndarray (n, m, p), or (k, n, m, p) for a stack of series
    ys : ndarray (n, m), or (k, n, m)
    beta : ndarray (p,), or (k, p): one row per series of a stack
    link : LinkSpec

    Returns
    -------
    mu, a, eps : ndarrays shaped as ys; a holds the mu' diagonal entries
    and eps the A^{-1/2}-standardized residuals.
    """
    thetas = linear_predictor(Xs, beta)
    mu = link.eval(thetas)
    a = link.d1(thetas)
    if np.any(a <= 0.0):
        at = np.unravel_index(np.argmin(a), a.shape)
        i, j = int(at[-2]), int(at[-1])  # a stack's replication axis leads
        theta = float(thetas[at])
        raise ModelViolationError(
            f"mu'(theta) <= 0 at step {i}, component {j} (theta={theta!r})",
            index=(i, j),
            theta=theta,
        )
    eps = (ys - mu) / np.sqrt(a)
    return mu, a, eps
