"""Conditional-moment model: link functions, clustered data containers, residuals.

At each time step i an m-vector response y_i is observed together with an
m x p regressor matrix X_i whose rows are built from information available
strictly before y_i.  Given the past, each component y_ij has conditional
mean mu(x_ij' beta) and conditional variance mu'(x_ij' beta) (dispersion
fixed at 1).  Everything downstream (estimating functions, sandwich
covariances, diagnostics) consumes the quantities computed here.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

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
    out = np.empty_like(theta, dtype=np.float64)
    pos = theta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-theta[pos]))
    ez = np.exp(theta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_d1(theta):
    # exp(-|theta|)/(1+exp(-|theta|))^2 is symmetric and avoids overflow
    e = np.exp(-np.abs(theta))
    return e / (1.0 + e) ** 2


def _guarded_exp(theta):
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(np.abs(theta) > EXP_SATURATION):
        bad = theta.ravel()[np.argmax(np.abs(theta.ravel()))]
        raise SaturationError(
            f"exponential link argument theta={bad!r} exceeds |theta| <= {EXP_SATURATION}",
            theta=float(bad),
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
    # mu'' = mu'(1-2mu)
    d2=lambda t: _logistic_d1(np.asarray(t, dtype=np.float64))
    * (1.0 - 2.0 * _sigmoid(np.asarray(t, dtype=np.float64))),
)

_EXPONENTIAL = LinkSpec(
    kind="exponential",
    eval=_guarded_exp,
    d1=_guarded_exp,
    d2=_guarded_exp,
)

LINKS = {
    "identity": _IDENTITY,
    "logistic": _LOGISTIC,
    "exponential": _EXPONENTIAL,
}


def get_link(kind):
    """Return the LinkSpec registered under ``kind``."""
    try:
        return LINKS[kind]
    except KeyError:
        raise ContractError(
            f"unknown link {kind!r}; expected one of {sorted(LINKS)}"
        ) from None


@dataclass(frozen=True)
class ClusterSeries:
    """An ordered sequence of (y_i, X_i) pairs with constant cluster size.

    ``ys`` has shape (n, m) and ``Xs`` shape (n, m, p); index order is time
    order.  Construction does not (cannot) verify the measurability contract
    that row j of X_i uses only information prior to y_i; generators and the
    dataset loader are responsible for honouring it.  Arrays are frozen
    read-only so instances are safe to share across workers.
    """

    ys: np.ndarray
    Xs: np.ndarray
    zs: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        # private copies so freezing never mutates caller-owned arrays
        ys = np.array(self.ys, dtype=np.float64, order="C")
        Xs = np.array(self.Xs, dtype=np.float64, order="C")
        if ys.ndim != 2 or Xs.ndim != 3:
            raise ContractError(
                f"ClusterSeries expects ys (n,m) and Xs (n,m,p); got {ys.shape}, {Xs.shape}"
            )
        if Xs.shape[:2] != ys.shape:
            raise ContractError(
                f"ClusterSeries shapes disagree: ys {ys.shape}, Xs {Xs.shape}"
            )
        if ys.shape[0] == 0:
            raise ContractError("ClusterSeries needs at least one time step")
        if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(Xs))):
            raise ContractError("ClusterSeries entries must be finite")
        ys.flags.writeable = False
        Xs.flags.writeable = False
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "Xs", Xs)
        if self.zs is not None:
            zs = np.array(self.zs, dtype=np.float64, order="C")
            zs.flags.writeable = False
            object.__setattr__(self, "zs", zs)

    @property
    def n(self) -> int:
        return self.ys.shape[0]

    @property
    def m(self) -> int:
        return self.ys.shape[1]

    @property
    def p(self) -> int:
        return self.Xs.shape[2]

    def with_regressors(self, Xs_new) -> "ClusterSeries":
        """Copy of the series with X_i replaced (used by perturbation studies)."""
        return ClusterSeries(ys=self.ys.copy(), Xs=np.asarray(Xs_new, dtype=np.float64).copy(), zs=self.zs)


def moment_arrays(Xs, ys, beta, link):
    """Vectorized conditional moments over all steps.

    Parameters
    ----------
    Xs : ndarray (n, m, p)
    ys : ndarray (n, m)
    beta : ndarray (p,)
    link : LinkSpec

    Returns
    -------
    mu, a, eps : ndarrays of shape (n, m); a holds the mu' diagonal entries
    and eps the A^{-1/2}-standardized residuals.
    """
    beta = np.asarray(beta, dtype=np.float64)
    thetas = Xs @ beta
    mu = link.eval(thetas)
    a = link.d1(thetas)
    if np.any(a <= 0.0):
        flat = np.argmin(a)
        i, j = np.unravel_index(flat, a.shape)
        raise ModelViolationError(
            f"mu'(theta) <= 0 at step {i}, component {j} (theta={thetas[i, j]!r})",
            index=(int(i), int(j)),
            theta=float(thetas[i, j]),
        )
    eps = (ys - mu) / np.sqrt(a)
    return mu, a, eps
