"""The GEMM kernel ``estfun.weighted_design`` against the einsum formulas it replaced.

Every contraction over steps is now one GEMM over the flattened (n*m, p)
rows, so sums run in another order, and with the identity link R_i^{-1} X_i
comes from one batched solve, not from an inverse; results must match the
einsum oracles in ``einsum_oracle``, fed R_i^{-1}, to 1e-12 relative to the
largest entry; g of a stack at its generating beta, a cancelling sum, to
1e-12 relative to the sum of its terms' magnitudes.  The cases cover a per-step sequence of matrices, the
stride-0 broadcast inverse of a fixed pattern, working independence, m = 1
and p = 1, and stacks of 2 to 4 series for the identity link with a
per-step sequence, a fixed pattern and the two-step provider.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einsum_oracle as oracle
from ergodicity import score_terms
from mtgee import corr
from mtgee.diagnostics import _checkpoints, leverage, optimality_ratios
from mtgee.estfun import (
    EstimatingContext,
    _gram,
    eval_g,
    eval_jacobian,
    fit,
    solve_linear,
    weighted_design,
)
from mtgee.inference import sandwich_from_arrays
from mtgee.model import ClusterSeries, get_link, moment_arrays
from mtgee.simgen import substream

RTOL = 1e-12


def close(actual, expected, rtol=RTOL):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected))), np.finfo(np.float64).tiny)
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


def random_corr(rng, m):
    """A random SPD correlation matrix with a bounded condition number."""
    a = rng.normal(size=(m, m))
    c = a @ a.T + m * np.eye(m)
    d = np.sqrt(np.diag(c))
    return c / np.outer(d, d)


class RandomSequenceCorr(corr.CorrProvider):
    """Test provider: a fixed random correlation matrix per step."""

    kind = "random_sequence"

    def __init__(self, matrices):
        super().__init__(matrices.shape[1])
        self.matrices = matrices

    def realize(self, data, link):
        return self.matrices


def make_case(seed, n, m, p, link_kind, corr_kind, pieces=1):
    """A context with data drawn from ``link_kind`` and the requested provider.

    ``n`` is raised so that each of ``pieces`` equal stretches of steps has
    at least 4p rows, enough for a well-posed normal matrix.
    """
    rng = substream(seed, 7)
    n = max(n, pieces * -(-4 * p // m))
    Xs = rng.normal(scale=0.4, size=(n, m, p))
    beta = rng.normal(scale=0.5, size=p)
    link = get_link(link_kind)
    mu = link.eval(Xs @ beta)
    if link_kind == "identity":
        ys = mu + rng.normal(size=(n, m))
    elif link_kind == "logistic":
        ys = (rng.uniform(size=(n, m)) < mu).astype(np.float64)
    else:
        ys = rng.poisson(mu).astype(np.float64)
    if corr_kind == "sequence":
        provider = RandomSequenceCorr(np.stack([random_corr(rng, m) for _ in range(n)]))
    elif corr_kind == "fixed":
        provider = corr.pseudo_fixed(random_corr(rng, m))
    else:
        provider = None
    ctx = EstimatingContext(data=ClusterSeries(ys=ys, Xs=Xs), link=link, corr=provider)
    return ctx, beta, random_corr(rng, m)


CORR_KINDS = st.sampled_from(["sequence", "fixed", "independence"])
LINKS = st.sampled_from(["identity", "logistic", "exponential"])


def cases(fn):
    """Random (seed, n, m, p, link, corr) draws plus fixed m = 1 and p = 1 cases."""
    fn = example(3, 9, 1, 3, "logistic", "sequence")(fn)
    fn = example(4, 9, 4, 1, "exponential", "fixed")(fn)
    fn = example(5, 9, 1, 1, "identity", "fixed")(fn)
    return settings(max_examples=40, deadline=None)(given(
        st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(1, 5),
        st.integers(1, 4), LINKS, CORR_KINDS,
    )(fn))


def test_fixed_pattern_inverse_is_a_stride_0_broadcast():
    ctx, _, _ = make_case(1, 10, 3, 2, "identity", "fixed")
    assert ctx.corr_inverses.strides[0] == 0


@cases
def test_eval_g_matches_einsum(seed, n, m, p, link, corr_kind):
    ctx, beta, _ = make_case(seed, n, m, p, link, corr_kind)
    d = ctx.data
    close(eval_g(ctx, beta), oracle.oracle_g(d.Xs, d.ys, beta, ctx.link, ctx.corr_inverses))


@cases
def test_eval_jacobian_matches_einsum(seed, n, m, p, link, corr_kind):
    ctx, beta, _ = make_case(seed, n, m, p, link, corr_kind)
    d = ctx.data
    close(eval_jacobian(ctx, beta),
          oracle.oracle_jacobian(d.Xs, d.ys, beta, ctx.link, ctx.corr_inverses))


@cases
def test_solve_linear_matches_einsum(seed, n, m, p, link, corr_kind):
    ctx, _, _ = make_case(seed, n, m, p, "identity", corr_kind)
    d = ctx.data
    close(solve_linear(ctx), oracle.oracle_solve_linear(d.Xs, d.ys, ctx.corr_inverses))


@cases
def test_sandwich_matches_einsum(seed, n, m, p, link, corr_kind):
    ctx, beta, _ = make_case(seed, n, m, p, link, corr_kind)
    d = ctx.data
    _, a, eps = moment_arrays(d.Xs, d.ys, beta, ctx.link)
    est = sandwich_from_arrays(*weighted_design(ctx, a), eps)
    h_mat, m_mat, psi = oracle.oracle_sandwich(d.Xs, a, eps, ctx.corr_inverses)
    close(est.h_mat, h_mat)
    close(est.m_mat, m_mat)
    close(est.psi, psi)


@cases
def test_score_terms_match_einsum(seed, n, m, p, link, corr_kind):
    ctx, beta, _ = make_case(seed, n, m, p, link, corr_kind)
    d = ctx.data
    close(score_terms(ctx, beta),
          oracle.oracle_score_terms(d.Xs, d.ys, beta, ctx.link, ctx.corr_inverses))


@cases
def test_optimality_ratios_match_einsum(seed, n, m, p, link, corr_kind):
    # every one of the ten checkpoints needs a nonsingular reference information
    ctx, beta, true_corr = make_case(seed, n, m, p, link, corr_kind, pieces=10)
    d = ctx.data
    rep = optimality_ratios(ctx, beta, true_corr)
    ratio_h, ratio_m = oracle.oracle_optimality(
        d.Xs, d.ys, beta, ctx.link, ctx.corr_inverses, true_corr, _checkpoints(d.n)
    )
    close(rep.det_ratio_H, ratio_h)
    close(rep.det_ratio_M, ratio_m)


@cases
def test_leverage_matches_einsum(seed, n, m, p, link, corr_kind):
    ctx, beta, _ = make_case(seed, n, m, p, link, corr_kind)
    lev = leverage(ctx, beta)
    gamma, lam_max = oracle.oracle_leverage(ctx.data.Xs, ctx.data.ys, beta, ctx.link)
    close(lev.gamma_prime, gamma)
    close(lev.a_prime, lam_max * gamma)


def make_stack(seed, k, n, m, p, corr_kind):
    """An identity-link context on a stack of k series with the requested
    provider; ``n`` is raised as in :func:`make_case`, and to the two-step
    minimum of 3."""
    rng = substream(seed, 9)
    n = max(n, -(-4 * p // m), 3)
    Xs = rng.normal(scale=0.4, size=(k, n, m, p))
    beta = rng.normal(scale=0.5, size=p)
    ys = Xs @ beta + rng.normal(size=(k, n, m))
    if corr_kind == "sequence":
        provider = RandomSequenceCorr(
            np.array([[random_corr(rng, m) for _ in range(n)] for _ in range(k)]))
    elif corr_kind == "fixed":
        provider = corr.pseudo_fixed(random_corr(rng, m))
    else:
        provider = corr.two_step(m)
    ctx = EstimatingContext(data=ClusterSeries(ys=ys, Xs=Xs), link=get_link("identity"),
                            corr=provider)
    return ctx, np.tile(beta, (k, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(1, 40), st.integers(1, 5),
       st.integers(1, 4), st.sampled_from(["sequence", "fixed", "two_step"]))
@example(6, 3, 30, 1, 1, "two_step")
@example(7, 4, 9, 5, 4, "fixed")
@example(719, 3, 11, 2, 1, "two_step")
@example(4, 4, 4, 2, 1, "sequence")
def test_stacked_identity_fit_matches_einsum(seed, k, n, m, p, corr_kind):
    ctx, beta = make_stack(seed, k, n, m, p, corr_kind)
    d = ctx.data
    rinv = np.linalg.inv(ctx.corr.realize(ctx.data, ctx.link))
    res = fit(ctx, "linear")
    assert not res.failed.any()
    # g and D of every series at a beta off the root, from the stack's R^{-1} X
    _, a, eps = moment_arrays(d.Xs, d.ys, beta, ctx.link)
    xa, rinv_xa = weighted_design(ctx, a)
    g, d_mat = _gram(rinv_xa, eps[..., None])[..., 0], _gram(xa, rinv_xa)
    _, a_hat, eps_hat = moment_arrays(d.Xs, d.ys, res.beta_hat, ctx.link)
    for j in range(k):
        Xs, ys = d.Xs[j], d.ys[j]
        close(res.beta_hat[j], oracle.oracle_solve_linear(Xs, ys, rinv[j]))
        _, _, psi = oracle.oracle_sandwich(Xs, a_hat[j], eps_hat[j], rinv[j])
        close(res.psi[j], psi)
        close(res.se[j], np.sqrt(np.diagonal(psi)))
        # at the generating beta, g sums n*m terms (R^{-1}X)_r eps_r that cancel,
        # so its gap is bounded by the rounding that a sum of those terms can
        # carry, not relative to |g|; a gap of 1e-9 of that sum still fails
        want_g = oracle.oracle_g(Xs, ys, beta[j], ctx.link, rinv[j])
        terms = (np.abs(rinv[j] @ Xs) * np.abs(eps[j])[..., None]).sum(axis=(0, 1))
        assert np.all(np.abs(g[j] - want_g) <= RTOL * terms)
        assert not np.all(np.abs(g[j] + 1e-9 * terms - want_g) <= RTOL * terms)
        close(d_mat[j], oracle.oracle_jacobian(Xs, ys, beta[j], ctx.link, rinv[j]))
