import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgee.errors import ContractError, ModelViolationError, SaturationError
from mtgee.model import ClusterSeries, get_link, moment_arrays
from mtgee.simgen import SimDesign, generate_ar2


def taylor_exp(x, terms=60):
    # independent series oracle for e^x
    total, term = 0.0, 1.0
    for k in range(1, terms + 1):
        total += term
        term *= x / k
    return total


def link_values(kind, theta):
    """(mu, mu', mu'') at the points of ``theta``, from the vectorised link."""
    link, t = get_link(kind), np.asarray(theta, dtype=np.float64)
    return link.eval(t), link.d1(t), link.d2(t)


def test_logistic_at_zero():
    mu, d1, d2 = link_values("logistic", [0.0, 0.0])
    assert np.array_equal(mu, [0.5, 0.5])
    assert np.array_equal(d1, [0.25, 0.25])
    assert np.array_equal(d2, [0.0, 0.0])


def test_identity_case():
    mu, d1, d2 = link_values("identity", [[2.5, -1.0]])
    assert np.array_equal(mu, [[2.5, -1.0]])
    assert np.array_equal(d1, [[1.0, 1.0]])
    assert np.array_equal(d2, [[0.0, 0.0]])


def test_exponential_matches_series_oracle():
    expected = np.array([taylor_exp(x) for x in (-1.0, 0.5, 1.0)])
    for v in link_values("exponential", [-1.0, 0.5, 1.0]):
        assert np.max(np.abs(v - expected)) < 1e-12


def test_exponential_saturation_guard():
    Xs = np.array([[[1.0], [710.0]]])
    with pytest.raises(SaturationError) as err:
        moment_arrays(Xs, np.zeros((1, 2)), [1.0], get_link("exponential"))
    assert err.value.theta == 710.0


@pytest.mark.parametrize("kind", ["identity", "logistic", "exponential"])
def test_d1_matches_central_differences(kind):
    link = get_link(kind)
    grid = np.linspace(-5.0, 5.0, 41)
    h = 1e-6
    d1 = link.d1(grid)
    fd = (link.eval(grid + h) - link.eval(grid - h)) / (2 * h)
    assert np.max(np.abs(fd - d1) / np.maximum(np.abs(d1), 1e-12)) < 1e-6


@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    st.lists(st.floats(-3, 3), min_size=6, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_identity_mean_is_exact_matrix_product(beta, xflat):
    X = np.asarray(xflat).reshape(1, 3, 2)
    mu, _, _ = moment_arrays(X, np.zeros((1, 3)), np.asarray(beta), get_link("identity"))
    assert np.array_equal(mu, X @ np.asarray(beta))


def test_conditional_moments_zero_residual_identity():
    mu, a, eps = moment_arrays(
        np.eye(2)[None], np.array([[3.0, -1.0]]), np.array([3.0, -1.0]), get_link("identity")
    )
    assert np.allclose(mu, [[3.0, -1.0]])
    assert np.array_equal(a, [[1.0, 1.0]])
    assert np.array_equal(eps, [[0.0, 0.0]])


def test_conditional_moments_logit_zero_row():
    mu, a, _ = moment_arrays(
        np.zeros((1, 1, 2)), np.array([[1.0]]), np.array([5.0, -2.0]), get_link("logistic")
    )
    assert mu[0, 0] == 0.5
    assert a[0, 0] == 0.25


def test_conditional_moments_hand_matrix_case():
    # mu = X beta = (3, 2); a = 1; eps = y - mu = (1, -1)
    X = np.array([[[2.0, 1.0], [1.0, 1.0]]])
    ys = np.array([[4.0, 1.0]])
    mu, _, eps = moment_arrays(X, ys, np.array([1.0, 1.0]), get_link("identity"))
    assert np.allclose(mu, [[3.0, 2.0]])
    assert np.allclose(eps, [[1.0, -1.0]])


def test_eps_std_mean_near_zero_on_true_model():
    # residuals at the true parameter average to ~0 coordinate-wise
    n = 10_000
    design = SimDesign(n=n, m=3, beta0=(0.5, 0.2), corr_kind="cs", alpha0=0.5, seed=11)
    data = generate_ar2(design)
    _, _, eps = moment_arrays(data.Xs, data.ys, np.array([0.5, 0.2]), get_link("identity"))
    assert np.all(np.abs(eps.mean(axis=0)) < 4.0 / math.sqrt(n))


def test_cluster_series_validation():
    with pytest.raises(ContractError):
        ClusterSeries(ys=np.zeros((4, 2)), Xs=np.zeros((4, 3, 2)))
    with pytest.raises(ContractError):
        ClusterSeries(ys=np.array([[np.inf, 0.0]]), Xs=np.zeros((1, 2, 1)))


def test_cluster_series_is_immutable(rng):
    data = ClusterSeries(ys=rng.normal(size=(5, 2)), Xs=rng.normal(size=(5, 2, 3)))
    with pytest.raises(ValueError):
        data.ys[0, 0] = 1.0


def test_model_violation_reports_location():
    # mu' underflows to 0 for an extreme logistic argument at step 1, unit 0
    Xs = np.array([[[0.0], [1.0]], [[800.0], [2.0]]])
    with pytest.raises(ModelViolationError) as err:
        moment_arrays(Xs, np.ones((2, 2)), np.array([1.0]), get_link("logistic"))
    assert err.value.theta == 800.0
    assert err.value.index == (1, 0)
