"""Stacked fits: a chunk of replications fitted as one stack against one fit per series.

The Monte Carlo harness fits each chunk in stacks with a leading
replication axis: one two-step kernel pass, one stacked GEMM per normal
matrix and sandwich sum, one batched rank test and one batched solve per
estimator and stack.  Every per-replication operation is the one a single
series runs, so the stacked results must equal the per-replication
``fit(EstimatingContext(...), "linear")`` bit for bit, and a replication
that fails numerically must be flagged without moving its neighbours.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgee import corr, diagnostics, simgen
from mtgee.errors import ContractError, InstabilityError, NumericalError, RankDeficiencyError
from mtgee.estfun import (
    EstimatingContext,
    eval_g,
    eval_jacobian,
    fit,
    solve_linear,
    solve_newton,
)
from mtgee.model import ClusterSeries, get_link
from mtgee.simgen import SimDesign, generate_ar2, substream

IDENTITY = get_link("identity")

# the paper design fits in stacks of 4 (n=500); n=200 in stacks of 10
DESIGNS = {
    "paper_cs": SimDesign(n=500, m=5, corr_kind="cs", alpha0=0.7, seed=3),
    "ar1_m3": SimDesign(n=200, m=3, corr_kind="ar1", alpha0=-0.4, beta0=(0.4, -0.3), seed=17),
}


def per_replication(design, names, level, reps, series=None):
    """The harness's four arrays from one fit per replication and estimator,
    each estimator's provider taken from ``corr.PROVIDERS`` at the design's
    alpha0, or the true correlation for the reference."""
    truth = simgen.true_correlation(design)
    shape = (len(reps), len(names), 2)
    betas, los, his = np.full(shape, np.nan), np.full(shape, np.nan), np.full(shape, np.nan)
    failed = np.zeros(shape[:2], dtype=bool)
    for r, rep in enumerate(reps):
        data = generate_ar2(design, rep) if series is None else series(rep)
        for j, name in enumerate(names):
            provider = (corr.pseudo_fixed(truth) if name == "quasi_true"
                        else corr.PROVIDERS[name](design.alpha0, design.m))
            try:
                result = fit(EstimatingContext(data, IDENTITY, provider), "linear", level=level)
            except NumericalError:
                failed[r, j] = True
                continue
            betas[r, j] = result.beta_hat
            los[r, j], his[r, j] = result.cis[:, 0], result.cis[:, 1]
    return betas, los, his, failed


def assert_same(got, want, rows=slice(None)):
    for a, b in zip(got, want):
        assert np.array_equal(a[rows], b[rows], equal_nan=True)


@pytest.mark.parametrize("design", sorted(DESIGNS))
@pytest.mark.parametrize("length", [1, 3, 20])
def test_stacked_harness_matches_per_replication_fits_bitwise(design, length):
    design = DESIGNS[design]
    names = simgen.ESTIMATORS
    reps = range(5, 5 + length)
    got = simgen._replications(design, names, 0.9, reps)
    assert_same(got, per_replication(design, names, 0.9, reps))
    assert not got[3].any()


@pytest.mark.parametrize("scale", [0.0, 1e200], ids=["zero_regressors", "overflowing"])
def test_failing_replication_is_flagged_alone(monkeypatch, scale):
    # replication 6 of the chunk has all-zero regressors (every normal matrix
    # is 0) or regressors of 1e200 (every normal matrix overflows to inf)
    design = DESIGNS["ar1_m3"]
    names = simgen.ESTIMATORS
    reps, bad = range(4, 14), 6

    def series(rep):
        data = generate_ar2(design, rep)
        return data if rep != bad else ClusterSeries(ys=data.ys, Xs=data.Xs * scale)

    def chunk(design, reps):
        data = [series(rep) for rep in reps]
        return ClusterSeries(ys=np.stack([d.ys for d in data]), Xs=np.stack([d.Xs for d in data]))

    with np.errstate(all="ignore"):
        want = per_replication(design, names, 0.95, reps, series)
        monkeypatch.setattr(simgen, "generate_ar2", chunk)
        got = simgen._replications(design, names, 0.95, reps)
    r = reps.index(bad)
    assert got[3][r].all() and not np.delete(got[3], r, axis=0).any()
    assert want[3][r].all()
    assert_same(got, want, np.arange(len(reps)) != r)


def test_stack_flags_what_a_single_series_raises():
    design = DESIGNS["ar1_m3"]
    stack = generate_ar2(design, range(3))
    Xs = np.array(stack.Xs)
    Xs[1, :, :, 1] = 0.0  # the second lag of replication 1 carries no information
    data = ClusterSeries(ys=stack.ys, Xs=Xs)
    result = fit(EstimatingContext(data, IDENTITY, corr.ar1(0.3, design.m)), "linear")
    assert result.failed.tolist() == [False, True, False]
    assert np.isnan(result.beta_hat[1]).all() and np.isfinite(result.beta_hat[[0, 2]]).all()
    assert np.isnan(result.cis[1]).all() and np.isfinite(result.cis[[0, 2]]).all()
    with pytest.raises(RankDeficiencyError, match="normal matrix is rank deficient"):
        solve_linear(EstimatingContext(ClusterSeries(ys=data.ys[1], Xs=data.Xs[1]), IDENTITY,
                                       corr.ar1(0.3, design.m)))


def test_chunk_is_simulated_before_its_estimators_are_built():
    # an exploding replication's InstabilityError precedes an estimator's
    # ContractError: alpha0 = 5 suits the independence truth, not the cs column
    design = SimDesign(n=500, m=3, beta0=(1.2, 0.5), corr_kind="independence", alpha0=5.0,
                       seed=0)
    with pytest.raises(InstabilityError):
        simgen._replications(design, ("cs",), 0.95, range(2))
    stable = SimDesign(n=50, m=3, corr_kind="independence", alpha0=5.0, seed=0)
    with pytest.raises(ContractError, match="compound symmetry needs alpha"):
        simgen._replications(stable, ("cs",), 0.95, range(2))


def test_stacks_share_the_chunk_and_fits_cache_only_the_inverses():
    chunk = generate_ar2(DESIGNS["ar1_m3"], range(4))
    data = ClusterSeries(ys=chunk.ys[1:3], Xs=chunk.Xs[1:3])
    assert np.shares_memory(data.ys, chunk.ys) and np.shares_memory(data.Xs, chunk.Xs)
    own = np.array(chunk.ys[1:3])
    assert not np.shares_memory(ClusterSeries(ys=own, Xs=data.Xs).ys, own)
    ctx = EstimatingContext(data, IDENTITY, corr.two_step(3))
    fit(ctx, "linear")
    # no attribute of the fitted context, its memo of the moments included,
    # holds an array of the shape of R, (k, n, m, m)
    held = [v for value in vars(ctx).values()
            for v in (value if isinstance(value, tuple) else (value,))]
    assert not any(isinstance(v, np.ndarray) and v.shape == data.ys.shape + (3,) for v in held)
    assert np.array_equal(ctx.corr_inverses,
                          np.linalg.inv(ctx.corr.realize(ctx.data, ctx.link)))


def test_non_finite_normal_matrix_is_a_numerical_error_not_a_rank_error():
    data = generate_ar2(DESIGNS["ar1_m3"], 0)
    ctx = EstimatingContext(ClusterSeries(ys=data.ys, Xs=data.Xs * 1e200), IDENTITY)
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
        solve_linear(ctx)
    assert type(err.value) is NumericalError
    assert str(err.value) == "normal matrix is not finite"


def random_stack(seed, k, n, m, p):
    rng = substream(seed, 3)
    Xs = rng.normal(scale=0.5, size=(k, n, m, p))
    ys = Xs @ np.linspace(0.5, -0.3, p) + rng.normal(size=(k, n, m))
    return ys, Xs


@given(
    k=st.integers(1, 4),
    n=st.integers(3, 150),
    m=st.integers(1, 4),
    p=st.integers(1, 3),
    block=st.sampled_from([1, 2, 5, 17, 64]),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_stacked_two_step_kernel_keeps_replications_and_the_past_apart(
        k, n, m, p, block, seed, data):
    r = data.draw(st.integers(0, k - 1), label="replication")
    step = data.draw(st.integers(0, n - 1), label="changed step")
    ys, Xs = random_stack(seed, k, n, m, p)
    provider = corr.two_step(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corr, "BLOCK_STEPS", block)
        seq = provider.realize(ClusterSeries(ys=ys, Xs=Xs), IDENTITY)
        # each replication's sequence is the one its series gives alone
        for q in range(k):
            alone = provider.realize(ClusterSeries(ys=ys[q], Xs=Xs[q]), IDENTITY)
            assert np.array_equal(seq[q], alone)
        # new data for replication r leaves every other replication's R_i as it was
        other_ys, other_Xs = random_stack(seed + 1, 1, n, m, p)
        ys2, Xs2 = ys.copy(), Xs.copy()
        ys2[r], Xs2[r] = other_ys[0], other_Xs[0]
        seq2 = provider.realize(ClusterSeries(ys=ys2, Xs=Xs2), IDENTITY)
        assert np.array_equal(np.delete(seq2, r, axis=0), np.delete(seq, r, axis=0))
        # a new y_step of replication r leaves its R_0..R_step as they were
        ys3 = ys.copy()
        ys3[r, step] += 1.0
        seq3 = provider.realize(ClusterSeries(ys=ys3, Xs=Xs), IDENTITY)
    assert np.array_equal(seq3[r, : step + 1], seq[r, : step + 1])
    assert np.array_equal(np.delete(seq3, r, axis=0), np.delete(seq, r, axis=0))


@pytest.mark.parametrize("call", [
    lambda ctx, beta: eval_g(ctx, beta),
    lambda ctx, beta: eval_jacobian(ctx, beta),
    lambda ctx, beta: solve_newton(ctx),
    lambda ctx, beta: diagnostics.eigen_conditions(ctx, beta),
    lambda ctx, beta: diagnostics.optimality_ratios(ctx, beta, np.eye(3)),
    lambda ctx, beta: diagnostics.leverage(ctx, beta),
    lambda ctx, beta: diagnostics.perturbation_sensitivity(ctx, "linear", [0.0, 0.1], seed=0),
    lambda ctx, beta: fit(ctx, "newton"),
    lambda ctx, beta: fit(EstimatingContext(ctx.data, IDENTITY, corr.empirical_running(3)),
                          "linear"),
], ids=["eval_g", "eval_jacobian", "solve_newton", "eigen_conditions", "optimality_ratios",
        "leverage", "perturbation_sensitivity", "fit_newton", "fit_empirical"])
def test_single_series_functions_reject_a_stack(call):
    ctx = EstimatingContext(generate_ar2(DESIGNS["ar1_m3"], range(2)), IDENTITY, corr.ar1(0.3, 3))
    with pytest.raises(ContractError, match="takes a single series, not a stack of series"):
        call(ctx, np.full((2, 2), 0.3))
