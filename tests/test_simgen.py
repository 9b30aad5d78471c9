import math

import numpy as np
import pytest

from mtgee.corr import build_fixed_corr
from mtgee.errors import ContractError, InstabilityError
from mtgee.simgen import (
    EstimatorSpec,
    SimDesign,
    generate_ar2,
    monte_carlo_study,
    default_estimators,
    true_correlation,
)


def test_generate_ar2_innovation_covariance():
    # with beta0 = 0 the responses are the innovations, N(0, R) per step
    design = SimDesign(n=100_000, m=3, beta0=(0.0, 0.0), corr_kind="cs", alpha0=0.6, seed=0)
    cov = np.cov(generate_ar2(design).ys, rowvar=False)
    assert np.max(np.abs(cov - true_correlation(design))) < 0.02


def test_mvn_near_degenerate_pair():
    # innovations with correlation 1 - 1e-6 are still drawn, and nearly collinear
    design = SimDesign(
        n=10_000, m=2, beta0=(0.0, 0.0), corr_kind="cs", alpha0=1.0 - 1e-6, seed=1
    )
    ys = generate_ar2(design).ys
    assert np.corrcoef(ys[:, 0], ys[:, 1])[0, 1] > 0.999


def test_generate_pure_noise_mean():
    n = 10_000
    design = SimDesign(n=n, m=3, beta0=(0.0, 0.0), corr_kind="independence", seed=4)
    data = generate_ar2(design)
    assert np.all(np.abs(data.ys.mean(axis=0)) < 4.0 / math.sqrt(n))


def test_generate_ar2_matches_yule_walker_autocorrelation():
    # lag-1 autocorrelation of a stationary AR(2): rho_1 = phi1 / (1 - phi2)
    phi1, phi2 = 0.5, 0.2
    rho1 = phi1 / (1 - phi2)
    design = SimDesign(n=500, m=5, beta0=(phi1, phi2), corr_kind="cs", alpha0=0.7, seed=9)
    data = generate_ar2(design)
    y = data.ys[:, 0]
    yc = y - y.mean()
    sample_rho1 = (yc[1:] @ yc[:-1]) / (yc @ yc)
    assert abs(sample_rho1 - rho1) < 0.1


def test_generate_explosive_design_aborts():
    beta0 = (1.2, 0.5)
    # characteristic-root oracle: some root of z^2 - b1 z - b2 lies outside the unit disk
    roots = np.roots([1.0, -beta0[0], -beta0[1]])
    assert np.max(np.abs(roots)) > 1.0
    with pytest.raises(InstabilityError) as err:
        generate_ar2(SimDesign(n=500, m=3, beta0=beta0, corr_kind="independence", seed=0))
    assert err.value.step is not None and err.value.step < 500


def test_generate_is_deterministic_per_seed():
    design = SimDesign(n=50, m=4, corr_kind="ar1", alpha0=0.5, seed=123)
    a, b = generate_ar2(design), generate_ar2(design)
    assert np.array_equal(a.ys, b.ys) and np.array_equal(a.Xs, b.Xs)
    c = generate_ar2(design, rep=1)
    assert not np.array_equal(a.ys, c.ys)


def test_design_step_regressors_are_lagged_responses():
    design = SimDesign(n=20, m=2, corr_kind="independence", seed=5)
    data = generate_ar2(design)
    # X_i = [y_{i-1} | y_{i-2}] with zero initial conditions
    assert np.array_equal(data.Xs[0], np.zeros((2, 2)))
    for i in range(2, 20):
        assert np.array_equal(data.Xs[i][:, 0], data.ys[i - 1])
        assert np.array_equal(data.Xs[i][:, 1], data.ys[i - 2])


def test_design_validation():
    with pytest.raises(ContractError):
        SimDesign(beta0=(0.5, 0.2, 0.1))
    with pytest.raises(ContractError):
        SimDesign(corr_kind="unknown")
    with pytest.raises(ContractError):
        SimDesign(corr_kind="cs", alpha0=1.5)


def test_true_correlation_patterns():
    assert np.array_equal(
        true_correlation(SimDesign(corr_kind="independence")), np.eye(5)
    )
    assert np.array_equal(
        true_correlation(SimDesign(corr_kind="ar1", alpha0=0.3)),
        build_fixed_corr("ar1", 0.3, 5),
    )


def test_study_parallel_matches_serial(monkeypatch):
    design = SimDesign(n=120, m=3, corr_kind="cs", alpha0=0.7, seed=21)
    serial = monte_carlo_study(design, s=8, level=0.9, parallel=False)
    monkeypatch.setenv("MTGEE_THREADS", "2")
    parallel = monte_carlo_study(design, s=8, level=0.9, parallel=True)
    for a, b in zip(serial.estimators, parallel.estimators):
        assert a.label == b.label
        assert np.array_equal(a.bias, b.bias)
        assert np.array_equal(a.mse, b.mse)
        assert np.array_equal(a.coverage, b.coverage)


def test_study_reproducible_across_runs():
    design = SimDesign(n=100, m=3, corr_kind="ar1", alpha0=0.7, seed=33)
    specs = [EstimatorSpec("independence", "fixed", "independence")]
    a = monte_carlo_study(design, specs, s=6, level=0.95)
    b = monte_carlo_study(design, specs, s=6, level=0.95)
    assert np.array_equal(a.estimators[0].bias, b.estimators[0].bias)


def test_study_metric_identities():
    design = SimDesign(n=150, m=3, corr_kind="cs", alpha0=0.7, seed=2)
    report = monte_carlo_study(design, s=40, level=0.95)
    beta0 = np.asarray(design.beta0)
    for summ in report.estimators:
        assert np.all(summ.mse + 1e-12 >= summ.bias**2)
        assert np.allclose(summ.rb, summ.bias / beta0)
        assert np.all((0 <= summ.coverage) & (summ.coverage <= 1))
    assert np.array_equal(report.summary("quasi_true").re, np.ones(2))


def test_study_requires_replications():
    design = SimDesign(n=50, m=2, corr_kind="cs", alpha0=0.5, seed=0)
    with pytest.raises(ContractError):
        monte_carlo_study(design, s=1)


def test_mse_shrinks_roughly_like_one_over_n():
    spec = [
        EstimatorSpec("independence", "fixed", "independence"),
        EstimatorSpec("two_step", "two_step"),
    ]
    mses = {}
    for n in (250, 1000):
        design = SimDesign(n=n, m=5, corr_kind="cs", alpha0=0.7, seed=6)
        report = monte_carlo_study(design, spec, s=100, level=0.95)
        mses[n] = np.concatenate([e.mse for e in report.estimators])
    ratios = mses[1000] / mses[250]
    assert 0.15 <= np.median(ratios) <= 0.4


def test_coverage_study_level_half():
    design = SimDesign(n=300, m=3, corr_kind="cs", alpha0=0.7, seed=14)
    spec = EstimatorSpec("cs", "fixed", "compound_symmetry", 0.7)
    coverage = monte_carlo_study(design, [spec], s=400, level=0.5).estimators[0].coverage
    assert np.all((0.45 <= coverage) & (coverage <= 0.55))


def test_rb_guard_uses_absolute_bias_at_zero_truth():
    design = SimDesign(n=100, m=3, beta0=(0.0, 0.0), corr_kind="independence", seed=8)
    spec = [EstimatorSpec("independence", "fixed", "independence")]
    report = monte_carlo_study(design, spec, s=10, level=0.95)
    summ = report.estimators[0]
    assert np.array_equal(summ.rb, summ.bias)


def test_coverage_study_rejects_empty():
    design = SimDesign(n=50, m=2, corr_kind="cs", alpha0=0.5, seed=0)
    spec = EstimatorSpec("cs", "fixed", "compound_symmetry", 0.5)
    with pytest.raises(ContractError):
        monte_carlo_study(design, [spec], s=0)


def test_default_estimator_grid_shape():
    labels = [s.label for s in default_estimators()]
    assert labels == ["independence", "cs", "ar1", "two_step", "quasi_true"]
