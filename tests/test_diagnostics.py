import numpy as np
import pytest

from conftest import random_series
from mtgee import corr
from mtgee.diagnostics import (
    eigen_conditions,
    ergodicity_check,
    leverage,
    optimality_ratios,
    perturbation_sensitivity,
)
from mtgee.errors import ContractError
from mtgee.estfun import EstimatingContext, fit, resolve_plugin
from mtgee.model import ClusterSeries, get_link
from mtgee.simgen import SimDesign, generate_ar2, substream

IDENT = get_link("identity")
BETA0 = np.array([0.5, 0.2])


def ar2_ctx(n=2000, seed=0, truth="cs", provider=None):
    data = generate_ar2(SimDesign(n=n, m=5, corr_kind=truth, alpha0=0.7, seed=seed))
    return EstimatingContext(data=data, link=IDENT, corr=provider)


# ---------------------------------------------------------------------------
# eigenvalue growth conditions
# ---------------------------------------------------------------------------

def test_eigen_conditions_supported_on_stationary_ar2():
    report = eigen_conditions(ar2_ctx(), BETA0)
    assert report.verdicts["D"] == "supported"
    assert np.all(np.diff(report.lambda_min) >= -1e-9)  # PSD increments
    assert np.all(report.lambda_min <= report.lambda_max + 1e-12)
    # growth is roughly linear: final eigenvalue scales with n
    assert report.lambda_min[-1] > 5 * report.lambda_min[0]


def test_eigen_conditions_violated_on_zero_design():
    data = ClusterSeries(ys=np.ones((50, 2)), Xs=np.zeros((50, 2, 2)))
    report = eigen_conditions(EstimatingContext(data=data, link=IDENT), np.zeros(2))
    assert np.all(report.lambda_min == 0.0)
    assert report.verdicts["D"] == "violated"
    assert all(v == "violated" for v in report.verdicts["S_delta"].values())


def test_eigen_ratio_converges_for_iid_scalar_design():
    # m = p = 1 with unit-variance covariates: lambda_min = lambda_max ~ n,
    # so the ratio at delta = 0.5 tends to a positive constant
    rng = substream(5150, 0)
    n = 4000
    x = rng.standard_normal((n, 1, 1))
    data = ClusterSeries(ys=rng.standard_normal((n, 1)), Xs=x)
    report = eigen_conditions(
        EstimatingContext(data=data, link=IDENT), np.zeros(1), delta_grid=[0.5]
    )
    series = report.s_delta_ratio[0.5]
    assert abs(series[-1] - 1.0) < 0.1
    assert report.verdicts["S_delta"][0.5] == "supported"


def test_eigen_conditions_rejects_bad_delta():
    with pytest.raises(ContractError):
        eigen_conditions(ar2_ctx(n=100), BETA0, delta_grid=[0.7])


# ---------------------------------------------------------------------------
# ergodicity
# ---------------------------------------------------------------------------

def test_ergodicity_identical_replications_have_zero_deviation(rng):
    data = random_series(rng, n=40, m=2, p=2)
    template = EstimatingContext(data=data, link=IDENT)
    report = ergodicity_check([data] * 60, np.zeros(2), template)
    assert np.max(report.deviations) < 1e-8


def test_ergodicity_requires_enough_replications(rng):
    data = random_series(rng, n=20, m=2, p=2)
    with pytest.raises(ContractError):
        ergodicity_check([data], np.zeros(2), EstimatingContext(data=data, link=IDENT))


def test_ergodicity_deviation_shrinks_with_n():
    reps = [
        generate_ar2(SimDesign(n=2000, m=5, corr_kind="cs", alpha0=0.7, seed=s))
        for s in range(100)
    ]
    template = EstimatingContext(data=reps[0], link=IDENT, corr=corr.compound_symmetry(0.7, 5))
    report = ergodicity_check(reps, BETA0, template)
    med = report.median()
    assert med[-1] < med[0]


# ---------------------------------------------------------------------------
# optimality ratios
# ---------------------------------------------------------------------------

def test_det_ratios_exactly_one_with_oracle_provider():
    truth = corr.build_fixed_corr("compound_symmetry", 0.7, 5)
    ctx = ar2_ctx(n=400, provider=corr.pseudo_fixed(truth))
    report = optimality_ratios(ctx, BETA0, truth)
    assert np.max(np.abs(report.det_ratio_H - 1.0)) < 1e-10
    assert np.max(np.abs(report.det_ratio_M - 1.0)) < 1e-10


def test_det_ratio_penalises_independence_under_cs_truth():
    truth = corr.build_fixed_corr("compound_symmetry", 0.7, 5)
    ctx = ar2_ctx(n=1000, provider=corr.independence(5))
    report = optimality_ratios(ctx, BETA0, truth)
    # visible efficiency loss: the variance determinant stays away from 1
    assert report.det_ratio_M[-1] > 1.2


def test_empirical_provider_ratios_approach_one():
    errs_200, errs_2000 = [], []
    for seed in range(20):
        data = generate_ar2(SimDesign(n=2000, m=5, corr_kind="cs", alpha0=0.7, seed=seed))
        truth = corr.build_fixed_corr("compound_symmetry", 0.7, 5)
        provider = corr.empirical_running(5, plugin_beta=BETA0)
        ctx = EstimatingContext(data=data, link=IDENT, corr=provider)
        report = optimality_ratios(ctx, BETA0, truth)
        pts = np.asarray(report.checkpoints)
        i200 = int(np.argmin(np.abs(pts - 200)))
        errs_200.append(abs(report.det_ratio_M[i200] - 1))
        errs_2000.append(abs(report.det_ratio_M[-1] - 1))
    assert np.median(errs_2000) < np.median(errs_200)


# ---------------------------------------------------------------------------
# leverage
# ---------------------------------------------------------------------------

def test_leverage_scalar_case():
    data = ClusterSeries(ys=np.zeros((1, 1)), Xs=np.ones((1, 1, 1)))
    stats = leverage(EstimatingContext(data=data, link=IDENT), np.zeros(1))
    assert stats.gamma_prime == 1.0
    assert stats.a_prime == 1.0


def test_leverage_orthonormal_design_closed_form():
    # rows cycle through the standard basis: H' = (n/p) I, gamma' = p/n
    n, p = 40, 4
    Xs = np.zeros((n, 1, p))
    for i in range(n):
        Xs[i, 0, i % p] = 1.0
    data = ClusterSeries(ys=np.zeros((n, 1)), Xs=Xs)
    stats = leverage(EstimatingContext(data=data, link=IDENT), np.zeros(p))
    assert abs(stats.gamma_prime - p / n) < 1e-12
    assert abs(stats.a_prime - 1.0) < 1e-12  # lambda_max = n/p exactly


def test_leverage_decreases_with_n():
    gammas = {250: [], 1000: []}
    for seed in range(10):
        data = generate_ar2(SimDesign(n=1000, m=5, corr_kind="cs", alpha0=0.7, seed=seed))
        for n in gammas:
            head = ClusterSeries(ys=data.ys[:n], Xs=data.Xs[:n])
            ctx = EstimatingContext(data=head, link=IDENT)
            gammas[n].append(leverage(ctx, BETA0).gamma_prime)
    assert np.median(gammas[1000]) < np.median(gammas[250])


# ---------------------------------------------------------------------------
# perturbation sensitivity
# ---------------------------------------------------------------------------

def test_perturbation_zero_budget_is_identity():
    ctx = ar2_ctx(n=200, provider=corr.compound_symmetry(0.7, 5))
    report = perturbation_sensitivity(ctx, "linear", [0.0, 0.5], seed=4)
    assert report.perturb_drift[0] == 0.0
    assert report.perturb_drift[1] > 0.0


@pytest.mark.parametrize("method, provider", [
    ("two_step", None),
    ("linear", corr.compound_symmetry(0.7, 5)),
    ("newton", corr.empirical_running(5)),
])
def test_perturbation_base_from_fit_matches_refit(method, provider):
    # diagnose hands its own fit over as the budget-0 base instead of refitting
    ctx = resolve_plugin(ar2_ctx(n=300, seed=2, provider=provider))
    result = fit(ctx, method=method, with_inference=False)
    seq = result.corr_seq if method == "two_step" else ctx.corr_matrices()
    truth = corr.build_fixed_corr("compound_symmetry", 0.7, 5)
    args = (ctx, method, [0.0, 0.01, 0.1])
    refit = perturbation_sensitivity(*args, seed=3, true_corr=truth)
    reused = perturbation_sensitivity(*args, seed=3, true_corr=truth,
                                      base=(result.beta_hat, seq))
    for name in ("perturb_drift", "det_ratio_H", "det_ratio_M"):
        assert np.array_equal(getattr(reused, name), getattr(refit, name))


def test_perturbation_requires_zero_in_grid():
    ctx = ar2_ctx(n=100)
    with pytest.raises(ContractError):
        perturbation_sensitivity(ctx, "linear", [0.1, 1.0], seed=0)


def test_perturbation_drift_monotone_in_budget():
    budgets = [0.0, 0.1, 1.0, 10.0]
    drifts = []
    for seed in range(20):
        ctx = ar2_ctx(n=500, seed=seed, provider=corr.compound_symmetry(0.7, 5))
        report = perturbation_sensitivity(ctx, "linear", budgets, seed=seed)
        drifts.append(report.perturb_drift)
    med = np.median(np.array(drifts), axis=0)
    assert np.all(np.diff(med) >= 0)


def test_perturbation_small_budget_keeps_ratios():
    truth = corr.build_fixed_corr("compound_symmetry", 0.7, 5)
    ratio_moves = []
    for seed in range(5):
        ctx = ar2_ctx(n=500, seed=seed, provider=corr.pseudo_fixed(truth))
        report = perturbation_sensitivity(
            ctx, "linear", [0.0, 0.01], seed=seed, true_corr=truth
        )
        ratio_moves.append(abs(report.det_ratio_H[1] - report.det_ratio_H[0]))
        ratio_moves.append(abs(report.det_ratio_M[1] - report.det_ratio_M[0]))
    assert np.median(ratio_moves) < 0.01
