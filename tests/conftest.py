import numpy as np
import pytest

from mtgee.estfun import eval_g
from mtgee.model import ClusterSeries, get_link
from mtgee.simgen import substream


def random_series(rng, n=20, m=3, p=2, scale=0.5):
    """Small series with exogenous (past-measurable) regressors."""
    Xs = rng.normal(scale=scale, size=(n, m, p))
    ys = rng.normal(size=(n, m))
    return ClusterSeries(ys=ys, Xs=Xs)


def glm_series(rng, link_kind, beta0, n=60, m=3, x_scale=0.4):
    """Simulate from the conditional-moment model with exogenous regressors.

    identity: gaussian noise with unit variance; logistic: Bernoulli;
    exponential: Poisson (variance = mean under the canonical log link).
    """
    link = get_link(link_kind)
    p = len(beta0)
    Xs = rng.normal(scale=x_scale, size=(n, m, p))
    thetas = Xs @ np.asarray(beta0, dtype=np.float64)
    mu = link.eval(thetas)
    if link_kind == "identity":
        ys = mu + rng.normal(size=(n, m))
    elif link_kind == "logistic":
        ys = (rng.uniform(size=(n, m)) < mu).astype(np.float64)
    else:
        ys = rng.poisson(mu).astype(np.float64)
    return ClusterSeries(ys=ys, Xs=Xs)


def finite_diff_jacobian(ctx, beta):
    """Central differences of ``eval_g``, the oracle for ``eval_jacobian``.

    Column l steps beta_l by h = 1e-6 * max(1, |beta_l|) each way; this
    also covers providers whose matrices would depend on beta.
    """
    beta = np.asarray(beta, dtype=np.float64)
    out = np.empty((beta.size, beta.size))
    for l in range(beta.size):
        step = np.zeros(beta.size)
        step[l] = 1e-6 * max(1.0, abs(beta[l]))
        out[:, l] = -(eval_g(ctx, beta + step) - eval_g(ctx, beta - step)) / (2.0 * step[l])
    return out


# ``CorrProvider.solve`` factors each R_i by Cholesky and LAPACK's
# ``np.linalg.solve`` and ``inv`` by LU.  Each is backward stable, so per
# matrix the two differ by about m * cond(R_i) * eps * max|x_i| at most; the
# tolerance is SOLVE_TOL times that.  Over 900 random solves with cond(R_i)
# up to 1e8, up to three slabs long, the largest measured was 2.05 times it.
SOLVE_TOL = 16


def assert_solve_close(got, want, mats):
    """``got`` is within the stated tolerance of ``want``, the LAPACK solution
    against the matrices ``mats`` (..., m, m), matrix by matrix."""
    m = mats.shape[-1]
    err = np.abs(got - want).max(axis=(-2, -1))
    bound = SOLVE_TOL * m * np.linalg.cond(mats) * np.finfo(float).eps
    assert np.all(err <= bound * np.abs(want).max(axis=(-2, -1)))


def _efficiency_factor(working, sigma):
    """tr((R^-1 Sigma)^2) / tr(R^-1 Sigma)^2, which is 1/m at R = Sigma."""
    a = np.linalg.solve(working, sigma)
    return np.trace(a @ a) / np.trace(a) ** 2


def asymptotic_re(working, sigma):
    """The limit of MSE_R / MSE_quasi_true in the paper's AR(2) design, whose
    innovations have covariance ``sigma``, for the fixed working correlation
    ``working``: m tr((R^-1 Sigma)^2) / tr(R^-1 Sigma)^2, for every component.

    With Gamma(h) = gamma(h) Sigma, a fixed weight W = R^-1 gives H/n -> G tr(W Sigma)
    and M/n -> G tr(W Sigma W Sigma), so the sandwich is G^-1 times
    tr((W Sigma)^2)/tr(W Sigma)^2 (see :func:`asymptotic_sandwich`), which is
    1/m at W = Sigma^-1.
    """
    return len(sigma) * _efficiency_factor(working, sigma)


def asymptotic_sandwich(working, sigma, beta0):
    """The limit of n Psi in the paper's AR(2) design y_i = b1 y_{i-1} +
    b2 y_{i-2} + eps_i, eps_i ~ N(0, ``sigma``), for the fixed working
    correlation ``working``: G^-1 tr((W Sigma)^2)/tr(W Sigma)^2 with
    W = R^-1 and G = [[gamma(0), gamma(1)], [gamma(1), gamma(0)]], from the
    scalar AR(2) autocovariances (Brockwell & Davis 1991, section 3.3)
    gamma(0) = (1 - b2)/((1 + b2)((1 - b2)^2 - b1^2)) and
    gamma(1) = b1 gamma(0)/(1 - b2).
    """
    b1, b2 = beta0
    g0 = (1.0 - b2) / ((1.0 + b2) * ((1.0 - b2) ** 2 - b1**2))
    g1 = b1 * g0 / (1.0 - b2)
    return np.linalg.inv(np.array([[g0, g1], [g1, g0]])) * _efficiency_factor(working, sigma)


def estimator_summary(report, label):
    """The EstimatorSummary labelled ``label`` in a MonteCarloReport."""
    return {e.label: e for e in report.estimators}[label]


@pytest.fixture
def rng():
    return substream(20240311, 0)
