import numpy as np
import pytest

from conftest import glm_series, random_series
from loop_oracle import scalar_regularize
from mtgee import corr
from mtgee.diagnostics import ergodicity_check, leverage
from mtgee.errors import ContractError, RankDeficiencyError, SolverFailureError
from mtgee.estfun import (
    EstimatingContext,
    eval_g,
    eval_jacobian,
    fit,
    fit_two_step,
    solve_linear,
    solve_newton,
    working_independence_estimate,
)
from mtgee.inference import sandwich
from mtgee.model import ClusterSeries, get_link
from mtgee.simgen import SimDesign, generate_ar2, substream

IDENT = get_link("identity")


def ctx_of(ys, Xs, link=IDENT, provider=None):
    return EstimatingContext(data=ClusterSeries(ys=ys, Xs=Xs), link=link, corr=provider)


# ---------------------------------------------------------------------------
# eval_g
# ---------------------------------------------------------------------------

def test_eval_g_zero_at_exact_mean(rng):
    Xs = rng.normal(size=(6, 3, 2))
    beta = np.array([0.4, -1.1])
    ys = np.einsum("nmp,p->nm", Xs, beta)
    ctx = ctx_of(ys, Xs, provider=corr.ar1(0.3, 3))
    assert np.max(np.abs(eval_g(ctx, beta))) < 1e-12


def test_eval_g_scalar_case():
    ctx = ctx_of(np.array([[3.0]]), np.array([[[2.0]]]))
    assert np.array_equal(eval_g(ctx, np.array([0.0])), np.array([6.0]))


def test_eval_g_cs_half_hand_inverse():
    # g = R^{-1} (1,2)' with R = [[1,.5],[.5,1]]; by-hand 2x2 inverse gives (0, 2)
    ctx = ctx_of(
        np.array([[1.0, 2.0]]),
        np.eye(2)[None, :, :],
        provider=corr.compound_symmetry(0.5, 2),
    )
    g = eval_g(ctx, np.zeros(2))
    assert np.max(np.abs(g - np.array([0.0, 2.0]))) < 1e-12


def test_eval_g_independence_reduces_to_plain_sum(rng):
    Xs = rng.normal(size=(8, 3, 2))
    ys = rng.normal(size=(8, 3))
    beta = np.array([0.2, -0.3])
    plain = np.einsum("nmp,nm->p", Xs, ys - np.einsum("nmp,p->nm", Xs, beta))
    ctx = ctx_of(ys, Xs, provider=corr.independence(3))
    assert np.allclose(eval_g(ctx, beta), plain, atol=1e-12)


# ---------------------------------------------------------------------------
# eval_jacobian
# ---------------------------------------------------------------------------

def test_jacobian_identity_design():
    ctx = ctx_of(np.zeros((1, 2)), np.eye(2)[None, :, :])
    assert np.allclose(eval_jacobian(ctx, np.zeros(2)), np.eye(2))


def test_jacobian_cs_half_inverse_oracle():
    ctx = ctx_of(
        np.zeros((1, 2)), np.eye(2)[None, :, :], provider=corr.compound_symmetry(0.5, 2)
    )
    expected = (4.0 / 3.0) * np.array([[1.0, -0.5], [-0.5, 1.0]])
    assert np.max(np.abs(eval_jacobian(ctx, np.zeros(2)) - expected)) < 1e-12


@pytest.mark.parametrize("link_kind", ["identity", "logistic", "exponential"])
def test_jacobian_matches_finite_differences(link_kind):
    link = get_link(link_kind)
    for seed in range(20):
        rng = substream(321, seed)
        data = glm_series(rng, link_kind, beta0=(0.3, -0.2), n=25, m=3)
        provider = corr.ar1(0.4, 3) if seed % 2 else corr.compound_symmetry(0.3, 3)
        ctx = EstimatingContext(data=data, link=link, corr=provider)
        beta = np.array([0.25, -0.15]) + 0.05 * rng.standard_normal(2)
        analytic = eval_jacobian(ctx, beta, mode="analytic")
        fd = eval_jacobian(ctx, beta, mode="finite_diff")
        rel = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-4


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def test_newton_one_step_on_affine_problem(rng):
    data = random_series(rng, n=30, m=3, p=2)
    ctx = EstimatingContext(data=data, link=IDENT, corr=corr.compound_symmetry(0.4, 3))
    report = solve_newton(ctx, beta_init=np.array([5.0, -7.0]))
    assert report.converged
    assert report.iterations == 1
    assert np.max(np.abs(report.beta_hat - solve_linear(ctx))) < 1e-10


def test_newton_affine_exactness_any_init(rng):
    data = random_series(rng, n=40, m=2, p=2)
    ctx = EstimatingContext(data=data, link=IDENT, corr=corr.ar1(-0.5, 2))
    target = solve_linear(ctx)
    for _ in range(5):
        init = rng.normal(scale=10.0, size=2)
        report = solve_newton(ctx, beta_init=init)
        assert np.max(np.abs(report.beta_hat - target)) < 1e-10


def test_newton_logistic_simulated():
    rng = substream(17, 0)
    data = glm_series(rng, "logistic", beta0=(0.5, 0.2), n=200, m=3, x_scale=1.0)
    ctx = EstimatingContext(data=data, link=get_link("logistic"), corr=corr.compound_symmetry(0.3, 3))
    report = solve_newton(ctx)
    assert report.converged
    assert report.final_residual_norm <= 1e-8
    assert np.max(np.abs(eval_g(ctx, report.beta_hat))) <= 1e-8


def test_newton_zero_information_fails():
    ctx = ctx_of(np.ones((4, 2)), np.zeros((4, 2, 2)))
    with pytest.raises(SolverFailureError):
        solve_newton(ctx, beta_init=np.zeros(2))


def test_solve_linear_single_observation():
    ctx = ctx_of(np.array([[7.0]]), np.array([[[1.0]]]))
    assert np.allclose(solve_linear(ctx), [7.0])


def test_solve_linear_sample_mean():
    ctx = ctx_of(np.array([[2.0], [4.0]]), np.ones((2, 1, 1)))
    assert np.allclose(solve_linear(ctx), [3.0])


def test_solve_linear_matches_newton_on_simulation():
    data = generate_ar2(SimDesign(n=50, m=5, corr_kind="independence", seed=3))
    ctx = EstimatingContext(data=data, link=IDENT, corr=None)
    assert np.max(np.abs(solve_linear(ctx) - solve_newton(ctx).beta_hat)) < 1e-10


def test_solve_linear_rank_deficiency_reports_eigenvalue():
    ctx = ctx_of(np.ones((4, 2)), np.zeros((4, 2, 2)))
    with pytest.raises(RankDeficiencyError) as err:
        solve_linear(ctx)
    assert err.value.lambda_min is not None


def zero_column_ctx(seed):
    """Identity-link context whose second regressor is identically zero."""
    rng = substream(seed, 0)
    Xs = np.concatenate([rng.normal(size=(30, 3, 1)), np.zeros((30, 3, 1))], axis=2)
    return ctx_of(rng.normal(size=(30, 3)), Xs, provider=corr.compound_symmetry(0.3, 3))


@pytest.mark.parametrize("site, message", [
    (lambda ctx, b: solve_linear(ctx), "normal matrix is rank deficient"),
    (sandwich, "sandwich bread is rank deficient"),
    (leverage, "cumulative information is singular"),
    (lambda ctx, b: ergodicity_check([zero_column_ctx(s).data for s in range(50)], b, ctx),
     "average information singular at checkpoint"),
], ids=["solve_linear", "sandwich", "leverage", "ergodicity_check"])
def test_rank_check_at_every_site(site, message):
    with pytest.raises(RankDeficiencyError, match=message) as err:
        site(zero_column_ctx(0), np.array([0.3, 0.0]))
    assert err.value.lambda_min is not None


def test_solve_linear_rejects_logistic():
    data = ClusterSeries(ys=np.zeros((3, 1)), Xs=np.ones((3, 1, 1)))
    ctx = EstimatingContext(data=data, link=get_link("logistic"))
    with pytest.raises(ContractError):
        solve_linear(ctx)


# ---------------------------------------------------------------------------
# two-step procedure
# ---------------------------------------------------------------------------

def naive_two_step(data, warmup=2, floor=1e-6):
    """Reference implementation: recompute everything from scratch at each i."""
    n, m, p = data.n, data.m, data.p
    seq = np.empty((n, m, m))
    guard = max(warmup, m)
    for i in range(n):
        if i < guard:
            seq[i] = np.eye(m)
            continue
        sxx = sum(data.Xs[t].T @ data.Xs[t] for t in range(i))
        sxy = sum(data.Xs[t].T @ data.ys[t] for t in range(i))
        b = np.linalg.solve(sxx, sxy)
        resid = [data.ys[t] - data.Xs[t] @ b for t in range(i)]
        raw = sum(np.outer(r, r) for r in resid) / i
        seq[i] = scalar_regularize(raw, i, floor)
    k = sum(data.Xs[i].T @ np.linalg.solve(seq[i], data.Xs[i]) for i in range(n))
    c = sum(data.Xs[i].T @ np.linalg.solve(seq[i], data.ys[i]) for i in range(n))
    return np.linalg.solve(k, c), seq


def test_two_step_matches_naive_reference(rng):
    data = random_series(rng, n=30, m=3, p=2)
    result = fit_two_step(data)
    beta_ref, seq_ref = naive_two_step(data)
    assert np.max(np.abs(result.beta - beta_ref)) < 1e-10
    assert np.max(np.abs(result.corr_seq - seq_ref)) < 1e-10


def test_two_step_close_to_independence_under_identity_truth():
    errs = []
    for seed in range(11):
        data = generate_ar2(SimDesign(n=500, m=5, corr_kind="independence", seed=seed))
        beta_two = fit_two_step(data).beta
        beta_ind = solve_linear(EstimatingContext(data=data, link=IDENT))
        errs.append(np.linalg.norm(beta_two - beta_ind))
    assert np.median(errs) <= 0.05


def test_two_step_minimal_n3_uses_warmup_identities(rng):
    data = random_series(rng, n=3, m=2, p=2)
    result = fit_two_step(data)
    # warmup forces I at steps 1 and 2; step 3 uses the regularized average
    assert np.array_equal(result.corr_seq[0], np.eye(2))
    assert np.array_equal(result.corr_seq[1], np.eye(2))
    beta_ref, seq_ref = naive_two_step(data)
    assert np.max(np.abs(result.beta - beta_ref)) < 1e-12
    assert np.max(np.abs(result.corr_seq[2] - seq_ref[2])) < 1e-12


def test_two_step_requires_three_steps(rng):
    data = random_series(rng, n=2, m=2, p=1)
    with pytest.raises(ContractError):
        fit_two_step(data)


def test_two_step_wind_shaped_input():
    # lagged design with intercept and an exogenous block: n=364, m=3, p=4
    rng = substream(77, 0)
    T = 366
    temps = 40 + 5 * rng.standard_normal((T, 3))
    y = np.empty((T, 3))
    y[:2] = 5.0 + rng.standard_normal((2, 3))
    for i in range(2, T):
        y[i] = 2.0 + 0.45 * y[i - 1] + 0.1 * y[i - 2] - 0.01 * temps[i] + rng.standard_normal(3)
    Xs = np.stack(
        [
            np.column_stack([np.ones(3), y[i - 1], y[i - 2], temps[i]])
            for i in range(2, T)
        ]
    )
    data = ClusterSeries(ys=y[2:], Xs=Xs)
    assert (data.n, data.m, data.p) == (364, 3, 4)
    result = fit_two_step(data)
    assert result.beta.shape == (4,)
    assert np.all(np.isfinite(result.beta))


# ---------------------------------------------------------------------------
# fit dispatcher
# ---------------------------------------------------------------------------

def test_fit_linear_dispatch(rng):
    data = random_series(rng, n=12, m=2, p=2)
    ctx = EstimatingContext(data=data, link=IDENT, corr=corr.ar1(0.2, 2))
    res = fit(ctx, method="linear")
    assert np.array_equal(res.beta_hat, solve_linear(ctx))
    assert res.se is not None and res.cis.shape == (2, 2)


def test_fit_method_mismatch(rng):
    data = glm_series(rng, "logistic", beta0=(0.1, 0.1), n=12, m=2)
    ctx = EstimatingContext(data=data, link=get_link("logistic"))
    with pytest.raises(ContractError):
        fit(ctx, method="linear")


def test_fit_two_step_trace_length(rng):
    data = random_series(rng, n=10, m=2, p=2)
    res = fit(EstimatingContext(data=data, link=IDENT), method="two_step")
    assert len(res.corr_seq) == data.n


def test_fit_resolves_empirical_plugin(rng):
    data = random_series(rng, n=40, m=3, p=2)
    provider = corr.empirical_running(3)
    ctx = EstimatingContext(data=data, link=IDENT, corr=provider)
    res = fit(ctx, method="linear")
    assert np.all(np.isfinite(res.beta_hat))
    # unresolved provider still refuses direct evaluation
    with pytest.raises(ContractError):
        eval_g(ctx, res.beta_hat)


# ---------------------------------------------------------------------------
# statistical properties
# ---------------------------------------------------------------------------

def test_estimator_consistency_across_providers():
    # median error shrinks with n for every working correlation
    beta0 = np.array([0.5, 0.2])
    sizes = (250, 500, 1000)
    providers = {
        "independence": lambda m: None,
        "cs": lambda m: corr.compound_symmetry(0.7, m),
        "ar1": lambda m: corr.ar1(0.7, m),
        "empirical": lambda m: corr.empirical_running(m, plugin_beta=beta0),
    }
    errors = {name: {n: [] for n in sizes} for name in providers}
    for seed in range(15):
        design = SimDesign(n=max(sizes), m=5, corr_kind="cs", alpha0=0.7, seed=seed)
        data_full = generate_ar2(design)
        for n in sizes:
            data = ClusterSeries(ys=data_full.ys[:n], Xs=data_full.Xs[:n])
            for name, make in providers.items():
                ctx = EstimatingContext(data=data, link=IDENT, corr=make(5))
                errors[name][n].append(np.linalg.norm(solve_linear(ctx) - beta0))
    for name in providers:
        med = [np.median(errors[name][n]) for n in sizes]
        assert med[0] > med[2], f"{name}: {med}"


def test_working_independence_estimate_identity(rng):
    data = random_series(rng, n=25, m=3, p=2)
    expected = solve_linear(EstimatingContext(data=data, link=IDENT))
    assert np.array_equal(working_independence_estimate(data, IDENT), expected)
