import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_solve_close, finite_diff_jacobian, glm_series, random_series
from ergodicity import ergodicity_check
from loop_oracle import newton_reference, scalar_regularize
from mtgee import cli, corr, diagnostics, estfun, inference, model
from mtgee.diagnostics import (eigen_conditions, leverage, optimality_ratios,
                               perturbation_sensitivity)
from mtgee.errors import (ContractError, ModelViolationError, RankDeficiencyError,
                          SaturationError, SolverFailureError)
from mtgee.estfun import (
    EstimatingContext,
    eval_g,
    eval_jacobian,
    fit,
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
        analytic = eval_jacobian(ctx, beta)
        fd = finite_diff_jacobian(ctx, beta)
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


@pytest.mark.parametrize("settings", [dict(tol=np.nan), dict(tol=-1.0), dict(tol=np.inf),
                                      dict(tol=0.0), dict(max_iter=-3)])
def test_newton_rejects_bad_settings(rng, settings):
    data = random_series(rng, n=30, m=3, p=2)
    ctx = EstimatingContext(data=data, link=IDENT, corr=corr.compound_symmetry(0.4, 3))
    for solve in (solve_newton, lambda ctx, **kw: fit(ctx, "newton", **kw)):
        with pytest.raises(ContractError):
            solve(ctx, **settings)


def intercept_series(rng, link_kind, n=120, m=3):
    """An intercept and two covariates, responses from ``link_kind``'s model."""
    Xs = np.concatenate([np.ones((n, m, 1)), rng.normal(scale=0.5, size=(n, m, 2))], axis=2)
    mu = get_link(link_kind).eval(Xs @ np.array([0.3, 0.5, -0.4]))
    if link_kind == "logistic":
        ys = rng.uniform(size=(n, m)) < mu
    elif link_kind == "exponential":
        ys = rng.poisson(mu)
    else:
        ys = mu + rng.normal(size=(n, m))
    return ClusterSeries(ys=ys.astype(np.float64), Xs=Xs)


def provider_of(kind, m, plugin):
    return {"independence": None, "cs": corr.compound_symmetry(0.3, m),
            "empirical": corr.empirical_running(m, plugin_beta=plugin)}[kind]


# far starts whose full Newton steps overshoot; the exponential one's first
# trials saturate the link
FAR_START = {"logistic": np.array([3.0, -3.0, 3.0]), "exponential": np.array([-12.0, 0.0, 0.0])}


@pytest.mark.parametrize("link_kind", ["logistic", "exponential"])
@pytest.mark.parametrize("kind", ["independence", "cs", "empirical"])
@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("max_iter", [50, 1])
def test_newton_matches_reference_loop(link_kind, kind, far, max_iter):
    # the loop that evaluated the moments afresh in every g_n and D_n, with
    # g_n = (A^{1/2} X)' R^{-1} eps, takes the same steps; g_n's sums run in
    # another order, so beta agrees to 1e-13 relative or 1e-15 absolute
    link = get_link(link_kind)
    data = intercept_series(substream(20240311, 7), link_kind)
    plugin = working_independence_estimate(data, link)
    start = plugin + FAR_START[link_kind] if far else plugin
    provider = provider_of(kind, 3, plugin)
    ref, evaluations = newton_reference(EstimatingContext(data=data, link=link, corr=provider),
                                        start, max_iter=max_iter)
    report = solve_newton(EstimatingContext(data=data, link=link, corr=provider), start,
                          max_iter=max_iter)
    if far:
        assert evaluations > 1 + ref.iterations  # some steps were halved
        assert ref.converged == (max_iter > 1)
    assert (report.iterations, report.converged) == (ref.iterations, ref.converged)
    assert len(report.trace) == len(ref.trace)
    gap = np.abs(report.beta_hat - ref.beta_hat)
    assert np.all(gap <= np.maximum(1e-15, 1e-13 * np.abs(ref.beta_hat)))


def _outcome(evaluate, ctx, beta):
    """The bytes of ``evaluate(ctx, beta)``, or the type and text of the
    model error it raises."""
    try:
        return evaluate(ctx, beta).tobytes()
    except (SaturationError, ModelViolationError) as exc:
        return type(exc), str(exc)


BETA_ENTRY = st.one_of(st.floats(-2.0, 2.0), st.floats(-3000.0, 3000.0))


@settings(max_examples=60, deadline=None)
@given(link_kind=st.sampled_from(["identity", "logistic", "exponential"]),
       kind=st.sampled_from(["independence", "cs", "empirical"]),
       betas=st.lists(st.lists(BETA_ENTRY, min_size=3, max_size=3), min_size=1, max_size=3),
       calls=st.lists(st.tuples(st.sampled_from([eval_g, eval_jacobian]), st.integers(0, 2)),
                      min_size=1, max_size=10))
def test_interleaved_evaluations_match_a_fresh_context(link_kind, kind, betas, calls):
    # g_n and D_n on one context, in any order, at repeated or new betas,
    # some of which saturate the link or zero its derivative, equal the
    # values of a context that has evaluated nothing, bit for bit
    link = get_link(link_kind)
    data = intercept_series(substream(5, 0), link_kind, n=20)
    provider = provider_of(kind, 3, np.array([0.3, 0.5, -0.4]))
    shared = EstimatingContext(data=data, link=link, corr=provider)
    for evaluate, k in calls:
        beta = np.array(betas[k % len(betas)])
        fresh = EstimatingContext(data=data, link=link, corr=provider)
        assert _outcome(evaluate, shared, beta) == _outcome(evaluate, fresh, beta)


@pytest.mark.parametrize("link_kind", ["identity", "logistic", "exponential"])
def test_newton_evaluates_the_moments_once_per_g(monkeypatch, link_kind):
    # the first g_n and each trial step's g_n evaluate the moments; every
    # D_n, at an accepted iterate or at the root, reads those of the last g_n,
    # and the identity link's reads none
    link = get_link(link_kind)
    data = intercept_series(substream(20240311, 7), link_kind)
    start = working_independence_estimate(data, link) + FAR_START.get(link_kind, 3.0)
    ctx = EstimatingContext(data=data, link=link, corr=corr.compound_symmetry(0.3, 3))
    counts = {"moment_arrays": 0, "eval_g": 0, "eval_jacobian": 0}

    def counted(name):
        original = getattr(estfun, name)

        def call(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(estfun, name, call)

    for name in counts:
        counted(name)
    report = solve_newton(ctx, beta_init=start)
    assert report.converged and report.iterations >= 1
    assert counts["moment_arrays"] == counts["eval_g"]
    assert counts["eval_jacobian"] == report.iterations + 1


def counted_moments(monkeypatch):
    """The list that every call of ``model.moment_arrays``, through any
    module's binding, appends its beta to."""
    calls, original = [], model.moment_arrays

    def counted(Xs, ys, beta, link):
        calls.append(np.array(beta))
        return original(Xs, ys, beta, link)

    for module in (model, corr, estfun, inference, diagnostics, cli):
        if getattr(module, "moment_arrays", None) is original:
            monkeypatch.setattr(module, "moment_arrays", counted)
    return calls


def test_identity_fit_and_diagnostics_evaluate_the_moments_once(rng, monkeypatch):
    # the sandwich evaluates eps at beta_hat; the monitors read the same memo
    calls = counted_moments(monkeypatch)
    ctx = EstimatingContext(data=random_series(rng, n=60, m=3, p=2), link=IDENT,
                            corr=corr.two_step(3))
    res = fit(ctx, "linear")
    eigen_conditions(res.ctx, res.beta_hat)
    leverage(res.ctx, res.beta_hat)
    optimality_ratios(res.ctx, res.beta_hat, corr.build_fixed_corr("ar1", 0.3, 3))
    assert len(calls) == 1 and np.array_equal(calls[0], res.beta_hat)


def test_newton_fit_with_inference_evaluates_the_moments_once_per_g(rng, monkeypatch):
    # the sandwich at the root reads the moments of the g_n that accepted it
    calls, g_calls, original = counted_moments(monkeypatch), [], estfun.eval_g

    def counted_g(*args):
        g_calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(estfun, "eval_g", counted_g)
    data = glm_series(rng, "logistic", beta0=(0.3, -0.4), n=80, m=3)
    res = fit(EstimatingContext(data=data, link=get_link("logistic"),
                                corr=corr.compound_symmetry(0.3, 3)), "newton")
    assert res.solver.converged and np.all(np.isfinite(res.se))
    assert len(calls) == len(g_calls) > 1


def test_glm_fit_and_diagnostics_form_the_weighted_design_once_per_beta(rng, monkeypatch):
    # R^{-1} A^{1/2} X is part of the moments at beta: the memo forms it once
    # per evaluation of the moments, and the Jacobians, the sandwich and the
    # monitors at the memo's beta read it from there
    calls, formed, g_betas = counted_moments(monkeypatch), [], []
    data = glm_series(rng, "logistic", beta0=(0.3, -0.4), n=80, m=3)
    ctx = EstimatingContext(data=data, link=get_link("logistic"),
                            corr=corr.compound_symmetry(0.3, 3))

    class CountedInverses(np.ndarray):
        def __matmul__(self, other):
            if other.shape[-1] == data.p:  # R^{-1} times a design, not R^{-1} eps
                formed.append(len(calls))
            return np.asarray(self) @ other

    def counted_g(c, beta):
        if c is ctx:  # not the working-independence start's context
            g_betas.append(beta.tobytes())
        return original_g(c, beta)

    original_g = estfun.eval_g
    monkeypatch.setattr(estfun, "eval_g", counted_g)
    ctx.corr_inverses = ctx.corr_inverses.view(CountedInverses)
    res = fit(ctx, "newton")
    eigen_conditions(res.ctx, res.beta_hat)
    leverage(res.ctx, res.beta_hat)
    optimality_ratios(res.ctx, res.beta_hat, corr.build_fixed_corr("ar1", 0.3, 3))
    assert res.ctx is ctx and res.solver.iterations >= 1 and np.all(np.isfinite(res.se))
    assert len(formed) == len(set(g_betas)) == len(g_betas)
    assert formed == sorted(set(formed))  # never twice for one evaluation


def test_newton_zero_information_fails():
    ctx = ctx_of(np.ones((4, 2)), np.zeros((4, 2, 2)))
    with pytest.raises(SolverFailureError):
        solve_newton(ctx, beta_init=np.zeros(2))


def test_newton_with_a_singular_derivative_matrix_fails(rng):
    # a logistic fit whose second regressor is 0 everywhere: D_n has a zero row
    Xs = np.stack([rng.normal(size=(10, 2)), np.zeros((10, 2))], axis=-1)
    ys = (rng.uniform(size=(10, 2)) < 0.5).astype(np.float64)
    ctx = ctx_of(ys, Xs, link=get_link("logistic"))
    with pytest.raises(SolverFailureError, match="singular derivative matrix in Newton"):
        solve_newton(ctx, beta_init=np.zeros(2))


def test_newton_with_an_overflowing_step_fails():
    # D_n = sum x^2 of x = 1e-160 is subnormal but not 0, so LAPACK solves it,
    # and g_n of responses 1e200 over it overflows the step to inf
    ctx = ctx_of(np.full((5, 2), 1e200), np.full((5, 2, 1), 1e-160))
    with pytest.raises(SolverFailureError, match=r"non-finite Newton step \(ill-conditioned"):
        solve_newton(ctx, beta_init=np.zeros(1))


def test_working_independence_start_on_separated_data_fails():
    # y = 1{x > 0}: the logistic likelihood has no maximum, and the damped
    # Newton iterates run off until max_iter
    Xs = np.random.default_rng(0).normal(size=(10, 2, 1))
    data = ClusterSeries(ys=(Xs[..., 0] > 0).astype(np.float64), Xs=Xs)
    with pytest.raises(SolverFailureError,
                       match="working-independence initialisation did not converge") as err:
        working_independence_estimate(data, get_link("logistic"))
    assert len(err.value.trace) > 1


def test_solve_linear_single_observation():
    ctx = ctx_of(np.array([[7.0]]), np.array([[[1.0]]]))
    assert np.allclose(solve_linear(ctx), [7.0])


def test_solve_linear_sample_mean():
    ctx = ctx_of(np.array([[2.0], [4.0]]), np.ones((2, 1, 1)))
    assert np.allclose(solve_linear(ctx), [3.0])


def test_solve_linear_matches_newton_on_simulation():
    data = generate_ar2(SimDesign(n=50, m=5, truth="independence", seed=3))
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
    (leverage, "cumulative information is rank deficient"),
    (lambda ctx, b: ergodicity_check([zero_column_ctx(s).data for s in range(50)], b, ctx),
     r"average information at checkpoint \d+ is rank deficient"),
], ids=["solve_linear", "sandwich", "leverage", "ergodicity_check"])
def test_rank_check_at_every_site(site, message):
    with pytest.raises(RankDeficiencyError, match=message) as err:
        site(zero_column_ctx(0), np.array([0.3, 0.0]))
    assert err.value.lambda_min is not None
    # lambda_min prints as a plain float, as in "(lambda_min=0.0)"
    assert "np.float64" not in str(err.value)


def test_solve_linear_rejects_logistic():
    data = ClusterSeries(ys=np.zeros((3, 1)), Xs=np.ones((3, 1, 1)))
    ctx = EstimatingContext(data=data, link=get_link("logistic"))
    with pytest.raises(ContractError):
        solve_linear(ctx)


# ---------------------------------------------------------------------------
# two-step procedure
# ---------------------------------------------------------------------------

def naive_two_step(data, warmup=2):
    """Reference implementation: recompute everything from scratch at each i;
    a step whose residuals leave fewer than m degrees of freedom gets I."""
    n, m, p = data.n, data.m, data.p
    seq = np.empty((n, m, m))
    guard = max(warmup, m)
    for i in range(n):
        if i < guard or i * m < p + m:
            seq[i] = np.eye(m)
            continue
        sxx = sum(data.Xs[t].T @ data.Xs[t] for t in range(i))
        sxy = sum(data.Xs[t].T @ data.ys[t] for t in range(i))
        b = np.linalg.solve(sxx, sxy)
        resid = [data.ys[t] - data.Xs[t] @ b for t in range(i)]
        raw = sum(np.outer(r, r) for r in resid) / i
        seq[i] = scalar_regularize(raw, i)
    k = sum(data.Xs[i].T @ np.linalg.solve(seq[i], data.Xs[i]) for i in range(n))
    c = sum(data.Xs[i].T @ np.linalg.solve(seq[i], data.ys[i]) for i in range(n))
    return np.linalg.solve(k, c), seq


def two_step_fit(data):
    """The two-step estimate, the closed form with the two-step provider, and
    the R_i that provider realizes."""
    ctx = EstimatingContext(data=data, link=IDENT, corr=corr.two_step(data.m))
    return fit(ctx, "linear", with_inference=False).beta_hat, ctx.corr.realize(data, IDENT)


def test_two_step_matches_naive_reference(rng):
    data = random_series(rng, n=30, m=3, p=2)
    beta, seq = two_step_fit(data)
    beta_ref, seq_ref = naive_two_step(data)
    assert np.max(np.abs(beta - beta_ref)) < 1e-10
    assert np.max(np.abs(seq - seq_ref)) < 1e-10


def test_two_step_close_to_independence_under_identity_truth():
    errs = []
    for seed in range(11):
        data = generate_ar2(SimDesign(n=500, m=5, truth="independence", seed=seed))
        beta_two = two_step_fit(data)[0]
        beta_ind = solve_linear(EstimatingContext(data=data, link=IDENT))
        errs.append(np.linalg.norm(beta_two - beta_ind))
    assert np.median(errs) <= 0.05


def test_two_step_minimal_n3_uses_warmup_identities(rng):
    data = random_series(rng, n=3, m=2, p=2)
    beta, seq = two_step_fit(data)
    # warmup forces I at steps 1 and 2; step 3, whose 4 residuals leave
    # m = 2 degrees of freedom, uses the regularized average of trace m
    assert np.array_equal(seq[0], np.eye(2))
    assert np.array_equal(seq[1], np.eye(2))
    assert abs(np.trace(seq[2]) - 2.0) < 1e-15 and not np.array_equal(seq[2], np.eye(2))
    beta_ref, seq_ref = naive_two_step(data)
    assert np.max(np.abs(beta - beta_ref)) < 1e-12
    assert np.max(np.abs(seq[2] - seq_ref[2])) < 1e-12


def test_two_step_requires_three_steps(rng):
    data = random_series(rng, n=2, m=2, p=1)
    with pytest.raises(ContractError):
        two_step_fit(data)


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
    beta = two_step_fit(data)[0]
    assert beta.shape == (4,)
    assert np.all(np.isfinite(beta))


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


def test_fit_has_no_two_step_method(rng):
    # the two-step estimator is "linear" with the provider corr.two_step
    ctx = EstimatingContext(data=random_series(rng, n=10, m=2, p=2), link=IDENT)
    with pytest.raises(ContractError, match="unknown fit method 'two_step'"):
        fit(ctx, method="two_step")


def test_two_step_fit_has_one_matrix_per_step(rng):
    data = random_series(rng, n=10, m=2, p=2)
    res = fit(EstimatingContext(data=data, link=IDENT, corr=corr.two_step(2)), method="linear")
    assert len(res.ctx.corr.realize(res.ctx.data, res.ctx.link)) == data.n


def test_two_step_is_the_closed_form_with_the_two_step_provider(rng):
    data = random_series(rng, n=150, m=3, p=2)
    ctx = EstimatingContext(data=data, link=IDENT, corr=corr.two_step(3))
    beta = solve_linear(ctx)
    via_fit = fit(EstimatingContext(data=data, link=IDENT, corr=corr.two_step(3)), method="linear")
    assert type(via_fit.ctx.corr) is corr.TwoStepCorr
    assert np.array_equal(via_fit.beta_hat, beta)
    seq = ctx.corr.realize(ctx.data, ctx.link)
    assert np.array_equal(via_fit.ctx.corr.realize(via_fit.ctx.data, IDENT), seq)
    assert_solve_close(via_fit.ctx.corr_inverses, np.linalg.inv(seq), seq)


# estfun.fit_two_step is outside the package's surface, but the benchmark's
# two-step property check calls it: its estimate and R_i must stay those of
# the public routes, bit for bit, from one realization
@pytest.mark.parametrize("shape", ["paper", "wind"])
def test_fit_two_step_is_the_provider_route(realizations, shape):
    if shape == "paper":
        data = generate_ar2(SimDesign(n=500, m=5, truth="cs", alpha0=0.7, seed=3))
    else:  # the wind fits' (m, p) with their intercept column
        rng = substream(78, 0)
        Xs = rng.normal(scale=0.5, size=(150, 8, 4))
        Xs[..., 0] = 1.0
        data = ClusterSeries(ys=Xs @ np.array([1.0, 0.5, 0.1, -0.3]) + rng.normal(size=(150, 8)),
                             Xs=Xs)
    pinned = estfun.fit_two_step(data)
    assert realizations["two_step"] == 1
    fitted = fit(EstimatingContext(data=data, link=IDENT, corr=corr.two_step(data.m)), "linear")
    assert np.array_equal(pinned.beta, fitted.beta_hat)
    assert np.array_equal(pinned.corr_seq, corr.two_step(data.m).realize(data, IDENT))
    assert pinned.corr_seq.shape == (data.n, data.m, data.m) and np.all(np.isfinite(pinned.beta))


def test_two_step_provider_rejects_other_links(rng):
    data = glm_series(rng, "logistic", beta0=(0.1, 0.1), n=12, m=2)
    ctx = EstimatingContext(data=data, link=get_link("logistic"), corr=corr.two_step(2))
    with pytest.raises(ContractError, match="identity link"):
        ctx.corr.realize(ctx.data, ctx.link)


@pytest.mark.parametrize("link_kind, method", [("identity", "linear"), ("logistic", "newton")])
def test_default_corr_is_the_independence_provider(rng, link_kind, method):
    data = glm_series(rng, link_kind, beta0=(0.3, -0.4), n=80, m=3)
    link = get_link(link_kind)
    implicit = fit(EstimatingContext(data=data, link=link), method=method)
    explicit = fit(EstimatingContext(data=data, link=link, corr=corr.independence(3)),
                   method=method)
    assert type(implicit.ctx.corr) is corr.FixedCorr
    assert np.array_equal(implicit.ctx.corr.matrix, np.eye(3))
    assert np.array_equal(implicit.beta_hat, explicit.beta_hat)
    assert np.array_equal(implicit.psi, explicit.psi)


def test_fit_resolves_empirical_plugin(rng):
    data = random_series(rng, n=40, m=3, p=2)
    provider = corr.empirical_running(3)
    ctx = EstimatingContext(data=data, link=IDENT, corr=provider)
    res = fit(ctx, method="linear")
    assert np.all(np.isfinite(res.beta_hat))
    # unresolved provider still refuses direct evaluation
    with pytest.raises(ContractError):
        eval_g(ctx, res.beta_hat)


@pytest.mark.parametrize("link_kind", ["identity", "logistic"])
def test_empirical_newton_fit_solves_working_independence_once(rng, monkeypatch, link_kind):
    # the resolved plug-in is also the Newton start, bit for bit
    data = glm_series(rng, link_kind, beta0=(0.3, -0.4), n=80, m=3)
    estimates = []
    solve = estfun.working_independence_estimate

    def counted(*args):
        estimates.append(solve(*args))
        return estimates[-1]

    monkeypatch.setattr(estfun, "working_independence_estimate", counted)
    ctx = EstimatingContext(data=data, link=get_link(link_kind), corr=corr.empirical_running(3))
    res = fit(ctx, method="newton")
    assert len(estimates) == 1
    assert np.array_equal(res.ctx.corr.plugin_beta, estimates[0])
    assert np.array_equal(res.solver.trace[0][0], estimates[0])


@pytest.fixture
def realizations(monkeypatch):
    """Count each running provider's realizations, and fail any read of R^{-1}
    from an identity-link context: its fits, sandwich and diagnostics read
    R^{-1} X alone."""
    counts = {"two_step": 0, "empirical": 0}
    for kind, cls in (("two_step", corr.TwoStepCorr), ("empirical", corr.EmpiricalRunningCorr)):
        def counted(self, data, link, _kind=kind, _realize=cls.realize):
            counts[_kind] += 1
            return _realize(self, data, link)

        monkeypatch.setattr(cls, "realize", counted)
    solve, inverses = corr.CorrProvider.solve, EstimatingContext.corr_inverses.func

    def guarded_solve(self, seq, rhs=None):
        if rhs is None:
            raise AssertionError("a running provider formed R^-1")
        return solve(self, seq, rhs)

    def guarded_inverses(ctx):
        if ctx.link.kind == "identity":
            raise AssertionError("an identity-link consumer read corr_inverses")
        return inverses(ctx)

    monkeypatch.setattr(corr.CorrProvider, "solve", guarded_solve)
    monkeypatch.setattr(EstimatingContext, "corr_inverses", property(guarded_inverses))
    return counts


@pytest.mark.parametrize("kind", ["two_step", "empirical"])
def test_identity_link_fit_and_diagnostics_realize_once(rng, realizations, kind):
    data = random_series(rng, n=60, m=3, p=2)
    provider = corr.two_step(3) if kind == "two_step" else corr.empirical_running(3)
    res = fit(EstimatingContext(data=data, link=IDENT, corr=provider), method="linear")
    assert np.all(np.isfinite(res.se))
    assert realizations[kind] == 1
    true_corr = corr.build_fixed_corr("compound_symmetry", 0.3, 3)
    eigen_conditions(res.ctx, res.beta_hat)
    leverage(res.ctx, res.beta_hat)
    optimality_ratios(res.ctx, res.beta_hat, true_corr)
    perturbation_sensitivity(res, (0.0,), seed=1, true_corr=true_corr)
    assert realizations[kind] == 1
    # each refit at a positive budget realizes its own context once
    perturbation_sensitivity(res, (0.0, 0.01, 0.1), seed=1, true_corr=true_corr)
    assert realizations[kind] == 3


def test_identity_link_empirical_newton_fit_realizes_once(rng, realizations):
    data = random_series(rng, n=60, m=3, p=2)
    res = fit(EstimatingContext(data=data, link=IDENT, corr=corr.empirical_running(3)),
              method="newton")
    assert res.solver.converged and np.all(np.isfinite(res.se))
    assert realizations["empirical"] == 1


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
        design = SimDesign(n=max(sizes), m=5, truth="cs", alpha0=0.7, seed=seed)
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
