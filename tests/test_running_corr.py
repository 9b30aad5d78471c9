"""The block kernel ``corr.running_corr`` against the per-step loops it replaced.

Both users of the kernel, the two-step provider (reached directly and
through ``fit``) and the running empirical provider, must agree
with the loop oracles in ``loop_oracle`` to within a few ulps of float64
accumulation: beta to 1e-12 relative, every R_i to 1e-13.  Those bounds
hold for centred designs; with an uncentred covariate the loop's float64
sums are no closer to the exact averages than the kernel's, so that case is
checked against ``extended_two_step``, which forms them in extended precision.
"""

import os
import tracemalloc

import numpy as np
import pytest

from loop_oracle import (
    extended_two_step,
    loop_realize,
    loop_two_step,
    scalar_regularize,
)
from mtgee import corr
from mtgee.cli import run_command
from mtgee.estfun import EstimatingContext, fit, solve_linear
from mtgee.model import ClusterSeries, get_link, moment_arrays
from mtgee.simgen import substream

B = corr.BLOCK_STEPS


def series(seed, n, m, p, zero_until=0, intercept=False):
    """Random series; regressor column 1 is zero for steps < ``zero_until``,
    and column 0 is an intercept (all ones) if ``intercept``."""
    rng = substream(seed, 0)
    Xs = rng.normal(scale=0.5, size=(n, m, p))
    Xs[:zero_until, :, 1:2] = 0.0
    if intercept:
        Xs[..., 0] = 1.0
    ys = 1.0 + Xs @ np.linspace(0.5, -0.3, p) + rng.normal(size=(n, m))
    return ClusterSeries(ys=ys, Xs=Xs)


def binary_series(seed, n, m, p):
    rng = substream(seed, 1)
    Xs = rng.normal(scale=0.4, size=(n, m, p))
    ys = (rng.uniform(size=(n, m)) < 0.4).astype(np.float64)
    return ClusterSeries(ys=ys, Xs=Xs)


# (n, m, p, zero_until, intercept): three-plus blocks, the warm-up edge
# n = guard + 1, a series that is all warm-up (n = m = 3), m = 1, an early
# zero regressor column that makes b_i singular, and the shape of the wind
# fits (m = 8, p = 4, three-plus blocks) with their intercept column
CASES = {
    "three_blocks": (3 * B + 17, 4, 3, 0, False),
    "warmup_edge": (4, 3, 2, 0, False),
    "all_warmup": (3, 3, 2, 0, False),
    "m1": (2 * B + 5, 1, 2, 0, False),
    "singular_b": (2 * B + 9, 3, 2, B + 3, False),
    "wind": (3 * B + 11, 8, 4, 0, True),
}


def via_fit(data):
    ctx = EstimatingContext(data=data, link=get_link("identity"), corr=corr.two_step(data.m))
    return fit(ctx, "linear", with_inference=False).beta_hat, ctx.corr.realize(data, ctx.link)


def via_provider(data):
    link = get_link("identity")
    provider = corr.two_step(data.m)
    beta = solve_linear(EstimatingContext(data=data, link=link, corr=provider))
    return beta, provider.realize(data, link)


# each case through fit, as the CLI runs it (id: the case), and through the
# provider and solve_linear
TWO_STEP_RUNS = [pytest.param(case, via_fit, id=case) for case in sorted(CASES)] + [
    pytest.param(case, via_provider, id=f"{case}-provider") for case in sorted(CASES)
]


@pytest.mark.parametrize("case, two_step", TWO_STEP_RUNS)
def test_two_step_matches_loop_oracle(case, two_step):
    n, m, p, zero_until, intercept = CASES[case]
    data = series(11, n, m, p, zero_until, intercept)
    beta, seq = two_step(data)
    beta_ref, seq_ref = loop_two_step(data)
    assert np.max(np.abs(beta - beta_ref)) <= 1e-12 * np.max(np.abs(beta_ref))
    assert np.max(np.abs(seq - seq_ref)) <= 1e-13
    assert np.array_equal(seq, np.swapaxes(seq, 1, 2))
    guard = max(2, m)
    assert np.array_equal(seq[:guard], np.broadcast_to(np.eye(m), (guard, m, m)))
    if zero_until:
        # past the warm-up, every step whose b_i is singular falls back to I
        idx = np.arange(guard, zero_until)
        assert np.array_equal(seq[idx], np.broadcast_to(np.eye(m), (idx.size, m, m)))
        assert not np.array_equal(seq[zero_until + 1], np.eye(m))


# an intercept and a covariate centred at 50 at the wind fits' shape: over
# seeds 0-19 the kernel's R_i lay at most 7.6e-13 (covariate sd 0.5), 1.8e-14
# (sd 5) and 1.8e-14 (sd 50) from the extended-precision sequence, and the
# loop oracle's at most 6.6e-13, 2.2e-14 and 1.8e-14 (above 1e-13 on 19 of
# the 20 seeds at sd 0.5); the bound is about 2.5 times the worst of them
@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sd", [0.5, 5.0, 50.0])
def test_two_step_uncentred_matches_extended_precision(sd, seed):
    n, m, p = CASES["wind"][:3]
    data = series(seed, n, m, p, intercept=True)
    Xs = np.array(data.Xs)
    Xs[..., 3] = 50.0 + sd * substream(seed, 2).normal(size=(n, m))
    data = ClusterSeries(ys=data.ys + 0.02 * Xs[..., 3], Xs=Xs)
    seq = corr.two_step(m).realize(data, get_link("identity"))
    assert np.max(np.abs(seq - extended_two_step(data))) <= 2e-12


@pytest.mark.parametrize("link_kind", ["identity", "logistic"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_realize_matches_loop_oracle(case, link_kind):
    n, m, p, zero_until, intercept = CASES[case]
    if link_kind == "identity":
        data = series(12, n, m, p, zero_until, intercept)
    else:
        data = binary_series(12, n, m, p)
    link = get_link(link_kind)
    plugin = np.linspace(0.2, -0.1, p)
    seq = corr.empirical_running(m, plugin_beta=plugin).realize(data, link)
    _, _, eps = moment_arrays(data.Xs, data.ys, plugin, link)
    seq_ref = loop_realize(eps)
    assert np.max(np.abs(seq - seq_ref)) <= 1e-13
    assert np.array_equal(seq, np.swapaxes(seq, 1, 2))


@pytest.mark.parametrize("k", [B - 1, B, 2 * B])
def test_change_at_block_boundary_leaves_past_bitwise(k):
    data = series(13, 3 * B, 3, 2)
    ys_k = np.array(data.ys)
    ys_k[k] += 1.0
    changed = ClusterSeries(ys=ys_k, Xs=data.Xs)
    link, two_step = get_link("identity"), corr.two_step(3)
    seq, seq_k = two_step.realize(data, link), two_step.realize(changed, link)
    assert np.array_equal(seq_k[: k + 1], seq[: k + 1])
    assert not np.array_equal(seq_k[k + 1], seq[k + 1])
    provider = corr.empirical_running(3, plugin_beta=[0.3, -0.2])
    emp, emp_k = provider.realize(data, link), provider.realize(changed, link)
    assert np.array_equal(emp_k[: k + 1], emp[: k + 1])
    assert not np.array_equal(emp_k[k + 1], emp[k + 1])


# blocks shorter than the warm-up (m > BLOCK_STEPS) hold warm-up steps only
@pytest.mark.parametrize("block,m", [(5, 3), (1, 3), (2, 5), (4, 5)])
def test_sequence_does_not_depend_on_block_length(monkeypatch, block, m):
    data = series(14, 2 * B + 7, m, 2, zero_until=9)
    provider = corr.empirical_running(m, plugin_beta=[0.3, -0.2])
    link = get_link("identity")
    two_step = corr.two_step(m)
    seq, emp = two_step.realize(data, link), provider.realize(data, link)
    _, _, eps = moment_arrays(data.Xs, data.ys, np.array([0.3, -0.2]), link)
    assert np.max(np.abs(seq - loop_two_step(data)[1])) <= 1e-13
    assert np.max(np.abs(emp - loop_realize(eps))) <= 1e-13
    monkeypatch.setattr(corr, "BLOCK_STEPS", block)
    assert np.array_equal(two_step.realize(data, link), seq)
    assert np.array_equal(provider.realize(data, link), emp)


# the wind fits' shape, alone and in a stack of three, whose slab rows take
# the per-row adds where the cases above take the cumsum; either route gives
# the same bits
@pytest.mark.parametrize("block", [1, 7, B + 3])
@pytest.mark.parametrize("k", [1, 3])
def test_wind_shape_does_not_depend_on_block_length(monkeypatch, k, block):
    n, m, p = CASES["wind"][:3]
    runs = [series(14 + r, n, m, p, zero_until=9, intercept=True) for r in range(k)]
    data = runs[0] if k == 1 else ClusterSeries(ys=np.stack([run.ys for run in runs]),
                                                 Xs=np.stack([run.Xs for run in runs]))
    link = get_link("identity")
    providers = [corr.two_step(m), corr.empirical_running(m, plugin_beta=[0.3, -0.2, 0.1, 0.4])]
    want = [provider.realize(data, link) for provider in providers]
    assert k * m * (m + 1) // 2 * (p + 1) ** 2 >= corr.ROW_ADD_MIN
    monkeypatch.setattr(corr, "BLOCK_STEPS", block)
    for row_add_min in (corr.ROW_ADD_MIN, 0, np.inf):
        monkeypatch.setattr(corr, "ROW_ADD_MIN", row_add_min)
        for provider, seq in zip(providers, want):
            assert np.array_equal(provider.realize(data, link), seq)


# tracemalloc peak of one realize at the wind fits' shape.  The kernel that
# allocated a (k, steps + 1, pairs, q, q) prefix array per block peaked at
# 3.87 MB, 2.56 MB of it the (n, m, m) result; the bound is 1.2 times that.
# Gathering z = [y | X] and its pair columns for the whole series at once,
# not block by block, peaks at 19.3 MB.
TWO_STEP_PEAK_BOUND = 1.2 * 3.87e6


def test_two_step_realize_peak_memory():
    rng = substream(18, 0)
    Xs = rng.normal(scale=0.5, size=(4998, 8, 4))
    data = ClusterSeries(ys=Xs @ np.linspace(0.5, -0.3, 4) + rng.normal(size=(4998, 8)), Xs=Xs)
    provider, link = corr.two_step(8), get_link("identity")
    provider.realize(ClusterSeries(ys=data.ys[:B], Xs=Xs[:B]), link)  # first-call set-up
    tracemalloc.start()
    try:
        seq = provider.realize(data, link)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.nbytes < peak <= TWO_STEP_PEAK_BOUND


def test_regularized_empirical_batch_matches_scalar():
    rng = substream(15, 0)
    eps = rng.standard_normal((40, 4))
    counts = np.arange(4, 40)
    mats = np.stack([np.einsum("na,nb->ab", eps[:c], eps[:c]) / c for c in counts])
    out = corr.regularized_empirical(mats, counts)
    ref = np.stack([scalar_regularize(mat, c) for mat, c in zip(mats, counts)])
    assert np.max(np.abs(out - ref)) <= 1e-13
    assert np.array_equal(out, np.swapaxes(out, 1, 2))


FIXTURE = os.path.join(os.path.dirname(__file__), "..", "data", "wind_synthetic.csv")


def test_regularizer_takes_exactly_symmetric_averages_and_never_writes_them(monkeypatch, capsys):
    # regularized_empirical does not symmetrise: every caller (the two-step
    # stacks, the running empirical average under the identity and logistic
    # links, and diagnose's full-sample average) must hand it exact mirrors
    calls = []
    regularize = corr.regularized_empirical

    def spy(mats, counts):
        before = mats.copy()
        out = regularize(mats, counts)
        calls.append((before, mats, out))
        return out

    monkeypatch.setattr(corr, "regularized_empirical", spy)
    identity, logistic = get_link("identity"), get_link("logistic")
    runs = [series(19 + r, 2 * B + 9, 4, 3, zero_until=B + 3) for r in range(3)]
    stack = ClusterSeries(ys=np.stack([run.ys for run in runs]),
                          Xs=np.stack([run.Xs for run in runs]))
    empirical = corr.empirical_running(4, plugin_beta=[0.3, -0.2, 0.1])
    paths = [
        lambda: corr.two_step(4).realize(runs[0], identity),
        lambda: corr.two_step(4).realize(stack, identity),
        lambda: empirical.realize(runs[0], identity),
        lambda: empirical.realize(binary_series(19, 2 * B + 9, 4, 3), logistic),
        lambda: run_command(["diagnose", "--data", FIXTURE,
                             "--response", "wind_s1,wind_s2,wind_s3", "--d-grid", "0,0.01"]),
    ]
    for path in paths:
        seen = len(calls)
        path()
        assert len(calls) > seen
    assert capsys.readouterr().err == ""
    assert all(np.array_equal(before, np.swapaxes(before, 1, 2)) for before, _, _ in calls)
    # diagnose's reference correlation: a stack of one average of n outer products
    assert any(len(before) == 1 for before, _, _ in calls)
    changed = [(before, mats) for before, mats, out in calls if not np.array_equal(out, before)]
    assert changed
    assert all(np.array_equal(mats, before) for before, mats in changed)


def _with_spectrum(rng, eigenvalues):
    """An exactly symmetric matrix with the given eigenvalues (to rounding), in a
    random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    mat = (q * eigenvalues) @ q.T
    return 0.5 * (mat + mat.T)


def _wishart(rng, m, count):
    """An average of min(count, 200) outer products of m normals at a random scale."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    eps = rng.standard_normal((min(count, 200), m)) * scale
    return eps.T @ eps / len(eps)


def test_regularizer_sends_a_non_finite_average_to_nan():
    # an overflowed average becomes all NaN, for every reader downstream to
    # fail on, whatever its inverse would be; one whose Frobenius norm
    # overflows (entries above ~1e154) while its entries stay finite is
    # shrunk, as every finite average is
    rng = substream(16, 1)
    counts = np.array([400, 900, 5000])
    rel = 4 / (2.0 * counts[2])
    mats = np.stack([_wishart(rng, 4, c) for c in counts])
    mats[0, 1, 2] = mats[0, 2, 1] = np.inf
    mats[1, 0, 0] = np.nan
    mats[2] = 1e160 * _with_spectrum(rng, np.array([0.5 * rel, 0.4, 0.7, 1.0]))
    before = mats.copy()
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sqrt(np.sum(mats[2] * mats[2])))
        out = corr.regularized_empirical(mats, counts)
    assert np.array_equal(mats, before, equal_nan=True)
    assert np.isnan(out[:2]).all()
    assert np.max(np.abs(out[2] - scalar_regularize(before[2], counts[2]))) <= 1e-13
    assert not np.array_equal(out[2], before[2])


def test_zero_trace_average_becomes_the_identity():
    # residuals that are all zero (responses the plug-in fits exactly) leave
    # averages of trace 0, or below it by rounding; each is I, not 0/0
    mats = np.stack([np.zeros((3, 3)), -1e-300 * np.eye(3)])
    out = corr.regularized_empirical(mats, np.array([5, 50]))
    assert np.array_equal(out, np.broadcast_to(np.eye(3), (2, 3, 3)))
    data = ClusterSeries(ys=np.zeros((B + 9, 3)), Xs=np.zeros((B + 9, 3, 1)))
    seq = corr.empirical_running(3, plugin_beta=[0.0]).realize(data, get_link("identity"))
    assert np.array_equal(seq, np.broadcast_to(np.eye(3), seq.shape))
