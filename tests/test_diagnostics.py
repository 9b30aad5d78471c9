import numpy as np
import pytest

from conftest import glm_series, random_series
from ergodicity import ergodicity_check
from mtgee import corr, diagnostics
from mtgee.diagnostics import (
    eigen_conditions,
    leverage,
    optimality_ratios,
    perturbation_sensitivity,
)
from mtgee.errors import ContractError, CorrelationDegeneracyError, RankDeficiencyError
from mtgee.estfun import EstimatingContext, eval_jacobian, fit
from mtgee.model import ClusterSeries, get_link
from mtgee.simgen import SimDesign, generate_ar2, substream

IDENT = get_link("identity")
BETA0 = np.array([0.5, 0.2])
CS_TRUTH = corr.build_fixed_corr("compound_symmetry", 0.7, 5)


def ar2_ctx(n=2000, seed=0, truth="cs", provider=None):
    data = generate_ar2(SimDesign(n=n, m=5, truth=truth, alpha0=0.7, seed=seed))
    return EstimatingContext(data=data, link=IDENT, corr=provider)


def spy_refits(monkeypatch):
    """Record each refit of perturbation_sensitivity as (solver name, context,
    keyword arguments, result); the solvers still run."""
    refits = []
    for name in ("solve_linear", "solve_newton"):
        def spy(ctx, _name=name, _solver=getattr(diagnostics, name), **kw):
            out = _solver(ctx, **kw)
            refits.append((_name, ctx, kw, out))
            return out
        monkeypatch.setattr(diagnostics, name, spy)
    return refits


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


@pytest.mark.parametrize("scales", [[1.0, 1.0], [10.0, 10.0] + [0.1] * 18],
                         ids=["two_checkpoints", "growth_under_2x"])
def test_eigen_conditions_inconclusive_divergence(scales):
    # X_i = scale_i I, so H'_n is a multiple of I: lambda_min doubles over two
    # checkpoints, too few to call; over ten it grows from 200 to 200.18
    Xs = np.array(scales)[:, None, None] * np.eye(2)
    data = ClusterSeries(ys=np.ones((len(scales), 2)), Xs=Xs)
    report = eigen_conditions(EstimatingContext(data=data, link=IDENT), np.zeros(2))
    ends = [1.0, 2.0] if len(scales) == 2 else [200.0, 200.18]
    assert np.allclose(report.lambda_min[[0, -1]], ends)
    assert report.verdicts["D"] == "inconclusive"


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
        generate_ar2(SimDesign(n=2000, m=5, truth="cs", alpha0=0.7, seed=s))
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


BAD_TRUTHS = {
    "wrong_shape": (np.eye(2), ContractError, "shape"),
    "nan": (np.full((3, 3), np.nan), CorrelationDegeneracyError, "not finite"),
    "zero": (np.zeros((3, 3)), CorrelationDegeneracyError, "not positive definite"),
    "non_symmetric": (np.eye(3) + np.triu(np.full((3, 3), 0.2), 1), CorrelationDegeneracyError,
                      "not symmetric"),
}


@pytest.mark.parametrize("name", sorted(BAD_TRUTHS))
def test_optimality_monitors_reject_a_bad_true_corr(monkeypatch, rng, name):
    # checked on entry: perturbation_sensitivity refits nothing, whatever the
    # order of its budgets
    true_corr, error, text = BAD_TRUTHS[name]
    res = fit(EstimatingContext(data=random_series(rng, n=40, m=3, p=2), link=IDENT), "linear")
    with pytest.raises(error, match=text):
        optimality_ratios(res.ctx, res.beta_hat, true_corr)
    refits = spy_refits(monkeypatch)
    with pytest.raises(error, match=text):
        perturbation_sensitivity(res, (0.1, 0.0), seed=1, true_corr=true_corr)
    assert refits == []


def test_optimality_ratios_reject_a_reference_information_singular_at_a_checkpoint(rng):
    # the second regressor is 0 over the first checkpoint's steps, so the
    # reference information has a zero row there, though the full sample's does not
    data = random_series(rng, n=40, m=3, p=2)
    Xs = np.array(data.Xs)
    Xs[:4, :, 1] = 0.0
    ctx = EstimatingContext(data=ClusterSeries(ys=data.ys, Xs=Xs), link=IDENT)
    with pytest.raises(RankDeficiencyError, match="reference information singular at checkpoint 4"):
        optimality_ratios(ctx, np.zeros(2), np.eye(3))


def test_det_ratio_penalises_independence_under_cs_truth():
    truth = corr.build_fixed_corr("compound_symmetry", 0.7, 5)
    ctx = ar2_ctx(n=1000, provider=corr.independence(5))
    report = optimality_ratios(ctx, BETA0, truth)
    # visible efficiency loss: the variance determinant stays away from 1
    assert report.det_ratio_M[-1] > 1.2


def test_empirical_provider_ratios_approach_one():
    errs_200, errs_2000 = [], []
    for seed in range(20):
        data = generate_ar2(SimDesign(n=2000, m=5, truth="cs", alpha0=0.7, seed=seed))
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
        data = generate_ar2(SimDesign(n=1000, m=5, truth="cs", alpha0=0.7, seed=seed))
        for n in gammas:
            head = ClusterSeries(ys=data.ys[:n], Xs=data.Xs[:n])
            ctx = EstimatingContext(data=head, link=IDENT)
            gammas[n].append(leverage(ctx, BETA0).gamma_prime)
    assert np.median(gammas[1000]) < np.median(gammas[250])


# ---------------------------------------------------------------------------
# perturbation sensitivity
# ---------------------------------------------------------------------------

def linear_fit(ctx):
    return fit(ctx, "linear", with_inference=False)


def test_perturbation_zero_budget_is_identity():
    fitted = linear_fit(ar2_ctx(n=200, provider=corr.compound_symmetry(0.7, 5)))
    report = perturbation_sensitivity(fitted, [0.0, 0.5], seed=4, true_corr=CS_TRUTH)
    assert report.perturb_drift[0] == 0.0
    assert report.perturb_drift[1] > 0.0


@pytest.mark.parametrize("method, provider", [
    ("linear", corr.two_step(5)),
    ("newton", corr.compound_symmetry(0.7, 5)),
    ("newton", corr.empirical_running(5)),
])
def test_perturbation_refits_the_fitted_estimator(monkeypatch, method, provider):
    # every refit is the fit's estimator: its context on the perturbed data,
    # its solver, and its Newton settings, starting at the fit's root
    fitted = fit(ar2_ctx(n=300, seed=2, provider=provider), method=method, tol=1e-6,
                 max_iter=7, with_inference=False)
    refits = spy_refits(monkeypatch)
    report = perturbation_sensitivity(fitted, [0.0, 0.01, 0.1], seed=3, true_corr=CS_TRUTH)
    assert report.perturb_drift[0] == 0.0 and np.all(report.perturb_drift[1:] > 0.0)
    at_fit = optimality_ratios(fitted.ctx, fitted.beta_hat, CS_TRUTH)  # budget 0 is the fit
    assert (report.det_ratio_H[0], report.det_ratio_M[0]) == (at_fit.det_ratio_H[-1],
                                                              at_fit.det_ratio_M[-1])
    assert len(refits) == 2
    for solver, ctx, kw, _ in refits:
        if method == "linear":
            assert (solver, kw) == ("solve_linear", {})
        else:
            assert solver == "solve_newton"
            assert kw["beta_init"] is fitted.beta_hat
            assert (kw["tol"], kw["max_iter"]) == (1e-6, 7) and len(kw) == 3
        assert ctx.corr is fitted.ctx.corr and ctx.link is fitted.ctx.link
        assert np.array_equal(ctx.data.ys, fitted.ctx.data.ys)


@pytest.mark.parametrize("link_kind, provider", [
    ("logistic", corr.compound_symmetry(0.3, 4)),
    ("logistic", corr.empirical_running(4)),
    ("identity", corr.compound_symmetry(0.3, 4)),
])
def test_perturbation_newton_refit_from_the_root_matches_a_fresh_solve(
        monkeypatch, link_kind, provider):
    # a refit starts at the fit's root, where a fresh refit starts at the
    # working-independence estimate of the perturbed data; both stop at
    # ||g_n||_inf <= tol, so each lies within sqrt(p) tol ||D_n^{-1}||_2 of the
    # root to first order, and the two within twice that.  ``safety`` covers the
    # second-order term of g_n, which at these gaps is far below tol.
    safety, tol = 4.0, 1e-8
    data = glm_series(substream(2311, 0), link_kind, beta0=(0.3, -0.4, 0.2), n=300, m=4)
    fitted = fit(EstimatingContext(data=data, link=get_link(link_kind), corr=provider),
                 "newton", tol=tol, with_inference=False)
    refits = spy_refits(monkeypatch)
    report = perturbation_sensitivity(fitted, [0.0, 0.01, 0.1], seed=5, true_corr=np.eye(4))
    assert [solver for solver, *_ in refits] == ["solve_newton"] * 2
    for drift, (_, ctx_d, _, warm) in zip(report.perturb_drift[1:], refits):
        assert warm.converged
        fresh = fit(ctx_d, "newton", tol=tol, max_iter=fitted.max_iter, with_inference=False)
        d_inv = np.linalg.norm(np.linalg.inv(eval_jacobian(ctx_d, fresh.beta_hat)), 2)
        bound = safety * 2.0 * np.sqrt(data.p) * tol * d_inv
        assert np.linalg.norm(warm.beta_hat - fresh.beta_hat) <= bound
        # the reported drift is the fresh one's within the bound, so a refit
        # that returned its start unchanged (drift 0) would miss it
        fresh_drift = np.linalg.norm(fresh.beta_hat - fitted.beta_hat)
        assert abs(drift - fresh_drift) <= bound < fresh_drift


@pytest.mark.parametrize("m, p", [(6, 4), (8, 4), (3, 5)])
def test_perturbation_draws_scale_to_their_budget(m, p):
    # the norms come from each delta_i's p x p Gram; the check is the SVD's
    d, n = 0.3, 40
    draws = substream(17, m).standard_normal((n, m, p))
    draws[[0, 7, 31]] = 0.0
    draws[12] = np.outer(np.arange(1.0, m + 1), np.linspace(-1.0, 2.0, p))  # rank one
    scaled = diagnostics._scale_to_budget(draws.copy(), d)
    norms = np.array([np.linalg.norm(delta, 2) for delta in scaled])
    want = d * 2.0 ** -np.arange(1.0, n + 1)
    drawn = np.any(draws != 0.0, axis=(1, 2))
    assert np.all(np.abs(norms[drawn] - want[drawn]) <= 1e-14 * want[drawn])
    assert np.array_equal(scaled[~drawn], np.zeros((3, m, p)))


def test_perturbation_requires_zero_in_grid():
    fitted = linear_fit(ar2_ctx(n=100))
    with pytest.raises(ContractError):
        perturbation_sensitivity(fitted, [0.1, 1.0], seed=0, true_corr=CS_TRUTH)


@pytest.mark.parametrize("budget", [np.nan, np.inf])
def test_perturbation_rejects_a_non_finite_budget_before_any_refit(monkeypatch, budget):
    res = fit(ar2_ctx(n=100, provider=corr.compound_symmetry(0.7, 5)), "linear")
    refits = spy_refits(monkeypatch)
    with pytest.raises(ContractError) as err:
        perturbation_sensitivity(res, [0.0, budget], seed=0, true_corr=CS_TRUTH)
    assert str(err.value) == f"budgets must be finite, got [0.0, {budget}]"
    assert refits == []


def test_perturbation_drift_monotone_in_budget():
    budgets = [0.0, 0.1, 1.0, 10.0]
    drifts = []
    for seed in range(20):
        fitted = linear_fit(ar2_ctx(n=500, seed=seed, provider=corr.compound_symmetry(0.7, 5)))
        report = perturbation_sensitivity(fitted, budgets, seed=seed, true_corr=CS_TRUTH)
        drifts.append(report.perturb_drift)
    med = np.median(np.array(drifts), axis=0)
    assert np.all(np.diff(med) >= 0)


def test_perturbation_small_budget_keeps_ratios():
    ratio_moves = []
    for seed in range(5):
        fitted = linear_fit(ar2_ctx(n=500, seed=seed, provider=corr.pseudo_fixed(CS_TRUTH)))
        report = perturbation_sensitivity(fitted, [0.0, 0.01], seed=seed, true_corr=CS_TRUTH)
        ratio_moves.append(abs(report.det_ratio_H[1] - report.det_ratio_H[0]))
        ratio_moves.append(abs(report.det_ratio_M[1] - report.det_ratio_M[0]))
    assert np.median(ratio_moves) < 0.01


# ---------------------------------------------------------------------------
# the beta every monitor reads
# ---------------------------------------------------------------------------

MONITORS = {
    "eigen_conditions": eigen_conditions,
    "leverage": leverage,
    "optimality_ratios": lambda ctx, beta: optimality_ratios(ctx, beta, np.eye(5)),
}


@pytest.mark.parametrize("beta", [[0.5, 0.2, 0.1], [0.5, np.nan]], ids=["wrong_length", "nan"])
@pytest.mark.parametrize("monitor", sorted(MONITORS))
def test_monitors_reject_bad_beta(monitor, beta):
    ctx = ar2_ctx(n=100, provider=corr.compound_symmetry(0.7, 5))
    with pytest.raises(ContractError, match="beta"):
        MONITORS[monitor](ctx, np.array(beta))
