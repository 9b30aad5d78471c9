import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import random_series
from mtgee import corr
from mtgee.errors import ContractError
from mtgee.estfun import EstimatingContext, solve_linear
from mtgee.inference import (
    SandwichEstimate,
    component_intervals,
    normal_quantile,
    predict_next,
    sandwich,
)
from mtgee.model import ClusterSeries, get_link
from mtgee.simgen import substream

IDENT = get_link("identity")


def test_scalar_sandwich():
    y1 = 1.7
    data = ClusterSeries(ys=np.array([[y1]]), Xs=np.array([[[1.0]]]))
    ctx = EstimatingContext(data=data, link=IDENT)
    est = sandwich(ctx, np.array([0.0]))
    assert abs(est.psi[0, 0] - y1**2) < 1e-14


def test_sandwich_equals_hc0_oracle():
    # i.i.d. scalar regression: the sandwich must equal the textbook
    # heteroskedasticity-robust covariance computed independently
    rng = substream(42, 1)
    n = 100
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    beta_true = np.array([1.0, -2.0])
    y = X @ beta_true + rng.standard_normal(n) * (1 + 0.5 * np.abs(X[:, 1]))

    data = ClusterSeries(ys=y[:, None], Xs=X[:, None, :])
    ctx = EstimatingContext(data=data, link=IDENT)
    beta_hat = solve_linear(ctx)

    beta_ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.max(np.abs(beta_hat - beta_ols)) < 1e-10
    resid = y - X @ beta_ols
    bread = np.linalg.inv(X.T @ X)
    hc0 = bread @ (X.T * resid**2) @ X @ bread

    est = sandwich(ctx, beta_hat)
    assert np.max(np.abs(est.psi - hc0)) < 1e-10


def test_sandwich_symmetry(rng):
    data = random_series(rng, n=30, m=3, p=2)
    ctx = EstimatingContext(data=data, link=IDENT, corr=corr.ar1(0.5, 3))
    est = sandwich(ctx, solve_linear(ctx))
    assert np.max(np.abs(est.psi - est.psi.T)) <= 1e-12
    assert np.all(np.linalg.eigvalsh(est.psi) >= -1e-12)


def test_sandwich_consistency_iid_fixture():
    # y = x*b + e with x, e standard normal: avar of sqrt(n)(bhat-b) is 1
    n = 10_000
    scaled = []
    for seed in range(11):
        rng = substream(1234, seed)
        x = rng.standard_normal(n)
        y = 0.7 * x + rng.standard_normal(n)
        data = ClusterSeries(ys=y[:, None], Xs=x[:, None, None])
        ctx = EstimatingContext(data=data, link=IDENT)
        est = sandwich(ctx, solve_linear(ctx))
        scaled.append(n * est.psi[0, 0])
    assert abs(np.median(scaled) - 1.0) <= 0.10


def test_quantile_against_scipy():
    grid = np.concatenate(
        [np.array([1e-9, 1e-6, 0.02425]), np.linspace(0.01, 0.99, 197), [1 - 1e-9]]
    )
    ours = np.array([normal_quantile(q) for q in grid])
    ref = stats.norm.ppf(grid)
    assert np.max(np.abs(ours - ref)) < 1e-8


def test_quantile_far_tail_against_scipy():
    grid = np.array([1e-12, 3e-9, 1 - 3e-9, 1 - 1e-12])
    ours = np.array([normal_quantile(q) for q in grid])
    assert np.max(np.abs(ours - stats.norm.ppf(grid))) < 1e-12


def test_interval_quantile_matches_scipy():
    # the 95% intervals are beta -/+ z se with z within 1e-15 of scipy's
    est = SandwichEstimate(h_mat=np.eye(1), m_mat=np.eye(1), psi=np.eye(1), se=np.ones(1))
    cis = component_intervals(est, np.zeros(1), 0.95)
    z = stats.norm.ppf(0.975)
    assert abs(cis[0, 1] - z) <= 1e-15
    assert abs(cis[0, 0] + z) <= 1e-15


@given(st.floats(min_value=1e-7, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_quantile_symmetry(q):
    # below ~1e-7 the rounding of 1-q itself moves the upper quantile by
    # more than 1e-8 (the tail derivative is 1/pdf), for any implementation
    assert abs(normal_quantile(q) + normal_quantile(1.0 - q)) < 1e-8


def test_quantile_monotone():
    grid = np.linspace(0.001, 0.999, 999)
    values = np.array([normal_quantile(q) for q in grid])
    assert np.all(np.diff(values) > 0)


def test_quantile_rejects_boundary():
    for q in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ContractError):
            normal_quantile(q)


def test_component_intervals_match_basis_contrasts():
    # interval k is beta_k -/+ z_{0.975} sqrt(e_k' Psi e_k), z from scipy
    psi = np.array([[4.0, 0.5], [0.5, 0.25]])
    est = SandwichEstimate(h_mat=np.eye(2), m_mat=psi, psi=psi, se=np.sqrt(np.diag(psi)))
    beta = np.array([1.0, -2.0])
    cis = component_intervals(est, beta, 0.95)
    z = stats.norm.ppf(0.975)
    for k in range(2):
        e_k = np.eye(2)[k]
        half = z * np.sqrt(e_k @ psi @ e_k)
        assert abs(cis[k, 0] - (beta[k] - half)) < 1e-12
        assert abs(cis[k, 1] - (beta[k] + half)) < 1e-12


def test_predict_identity_design():
    beta = np.array([0.3, -1.2])
    assert np.array_equal(predict_next(np.eye(2), beta, IDENT), beta)


def test_predict_logistic_zero_row():
    out = predict_next(np.zeros((1, 3)), np.array([1.0, 2.0, 3.0]), get_link("logistic"))
    assert out[0] == 0.5


def test_predict_shape_contract():
    with pytest.raises(ContractError):
        predict_next(np.zeros((2, 3)), np.zeros(2), IDENT)
