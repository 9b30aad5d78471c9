import math
import os

import numpy as np
import pytest

from conftest import estimator_summary
from loop_oracle import loop_generate_ar2
from mtgee import simgen
from mtgee.cli import run_command
from mtgee.corr import build_fixed_corr
from mtgee.errors import ContractError, CorrelationDegeneracyError, InstabilityError, StudyError
from mtgee.simgen import SimDesign, generate_ar2, monte_carlo_study, true_correlation


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


@pytest.mark.parametrize("name, kind", [
    ("independence", "independence"), ("AR1", "ar1"), ("compound_symmetry", "compound_symmetry"),
    ("cs", "compound_symmetry"), ("CS", "compound_symmetry"),
])
def test_design_takes_the_truths_and_the_cs_alias_in_any_case(name, kind):
    assert SimDesign(corr_kind=name).corr_kind == kind
    assert kind in simgen.TRUTHS


@pytest.mark.parametrize("name", ["empirical", "two_step", "quasi_true", "R2", "exchangeable"])
def test_design_rejects_a_name_outside_the_truths(name):
    with pytest.raises(ContractError, match=f"unknown correlation kind '{name}'"):
        SimDesign(corr_kind=name)


@pytest.mark.parametrize("beta0", [(math.inf, 0.0), (0.5, -math.inf), (math.nan, 0.2)])
def test_design_rejects_non_finite_beta0(beta0):
    with pytest.raises(ContractError, match="beta0 must be finite"):
        SimDesign(beta0=beta0)


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
    monkeypatch.setattr(simgen, "_usable_cpus", lambda: 2)
    parallel = monte_carlo_study(design, s=8, level=0.9, parallel=True)
    for a, b in zip(serial.estimators, parallel.estimators):
        assert a.label == b.label
        assert np.array_equal(a.bias, b.bias)
        assert np.array_equal(a.mse, b.mse)
        assert np.array_equal(a.coverage, b.coverage)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def test_study_on_one_usable_cpu_starts_no_pool(monkeypatch):
    # the host has two CPUs, but the affinity mask lets the process run on one
    import concurrent.futures

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(simgen, "ESTIMATORS", ("independence", "quasi_true"))
    design = SimDesign(n=60, m=2, corr_kind="cs", alpha0=0.5, seed=4)
    serial = monte_carlo_study(design, s=4, parallel=False)
    parallel = monte_carlo_study(design, s=4, parallel=True)
    for a, b in zip(serial.estimators, parallel.estimators):
        assert np.array_equal(a.mse, b.mse) and np.array_equal(a.coverage, b.coverage)


def test_study_pool_holds_no_more_workers_than_chunks(monkeypatch):
    import concurrent.futures

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simgen, "ESTIMATORS", ("independence", "quasi_true"))
    design = SimDesign(n=60, m=2, corr_kind="cs", alpha0=0.5, seed=4)
    monte_carlo_study(design, s=3, parallel=True)
    assert started == [3]


def test_study_aborts_when_a_column_fails_too_often(monkeypatch, capsys):
    # a provider that cannot be built fails the column on every replication
    provider = simgen._provider

    def failing(design, name):
        if name == "ar1":
            raise CorrelationDegeneracyError("ar1 pattern is not positive definite")
        return provider(design, name)

    monkeypatch.setattr(simgen, "_provider", failing)
    design = SimDesign(n=60, m=2, corr_kind="cs", alpha0=0.5, seed=4)
    with pytest.raises(StudyError, match=r"^estimator 'ar1' failed on 5/5 replications$"):
        monte_carlo_study(design, s=5)
    assert run_command(["simulate", "--n", "60", "--m", "2", "--s", "5", "--seed", "4"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "numerical failure: estimator 'ar1' failed on 5/5 replications\n")


# beta0 = (1.025, 0) explodes late and at steps that differ between replications:
# at seed 1, replication 0 crosses the guard at step 492, replication 1 never
# and replication 2 at step 481; at seed 3, replications 0-2 never, 3 at step
# 486, 4 at step 488 and 5 at step 457
EXPLOSIVE = dict(n=500, m=2, beta0=(1.025, 0.0), corr_kind="independence")


def _first_instability(design, reps):
    """The oracle's error for the lowest exploding replication of ``reps``."""
    for rep in reps:
        try:
            loop_generate_ar2(design, rep)
        except InstabilityError as exc:
            return exc
    return None


@pytest.mark.parametrize("design,reps", [
    (SimDesign(n=500, m=5, corr_kind="cs", alpha0=0.7, seed=3), range(0, 3)),
    (SimDesign(n=60, m=3, corr_kind="ar1", alpha0=-0.5, beta0=(0.4, -0.3), seed=17), range(0, 1)),
    (SimDesign(n=60, m=3, corr_kind="ar1", alpha0=-0.5, beta0=(0.4, -0.3), seed=17), range(5, 45)),
    (SimDesign(n=1, m=1, corr_kind="independence", seed=2), range(2, 9)),
])
def test_chunk_matches_one_replication_oracle(design, reps):
    chunk = generate_ar2(design, reps)
    assert chunk.ys.shape == (len(reps), design.n, design.m)
    assert chunk.Xs.shape == (len(reps), design.n, design.m, 2)
    for j, rep in enumerate(reps):
        want = loop_generate_ar2(design, rep)
        one = generate_ar2(design, rep)
        assert np.array_equal(chunk.ys[j], want.ys) and np.array_equal(chunk.Xs[j], want.Xs)
        assert np.array_equal(one.ys, want.ys) and np.array_equal(one.Xs, want.Xs)


@pytest.mark.parametrize("seed,reps", [(1, range(0, 3)), (1, range(1, 4)), (2, range(2, 8)),
                                       (0, range(7, 8))])
def test_chunk_raises_for_the_lowest_exploding_replication(seed, reps):
    design = SimDesign(**EXPLOSIVE, seed=seed)
    want = _first_instability(design, reps)
    with pytest.raises(InstabilityError) as err:
        generate_ar2(design, reps)
    assert err.value.step == want.step and str(err.value) == str(want)


@pytest.mark.parametrize("seed,want", [(1, [492, None, 481]),
                                       (3, [None, None, None, 486, 488, 457])])
def test_explosive_fixture_has_a_later_replication_crossing_first(seed, want):
    design = SimDesign(**EXPLOSIVE, seed=seed)
    steps = [getattr(_first_instability(design, [rep]), "step", None)
             for rep in range(len(want))]
    assert steps == want


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("chunk", [1, 3, 5, 50])
def test_study_does_not_depend_on_chunk_length(monkeypatch, chunk, parallel):
    # chunks of one replication are the harness before chunking; s = 8 is split
    # into chunks of 1, 3 (8 = 3 + 3 + 2), 5 and one chunk longer than s, or, on
    # two workers, of at most 4
    design = SimDesign(n=120, m=3, corr_kind="cs", alpha0=0.7, seed=21)
    monkeypatch.setattr(simgen, "CHUNK_REPS", 1)
    want = monte_carlo_study(design, s=8, level=0.9)
    monkeypatch.setattr(simgen, "CHUNK_REPS", chunk)
    monkeypatch.setattr(simgen, "_usable_cpus", lambda: 2)
    got = monte_carlo_study(design, s=8, level=0.9, parallel=parallel)
    for a, b in zip(want.estimators, got.estimators):
        assert a.label == b.label and a.failures == b.failures
        for name in ("bias", "rb", "mse", "re", "coverage"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("chunk", [1, 2, 4])
def test_study_explosion_matches_one_replication_path(monkeypatch, chunk, parallel):
    # replications 0-2 are fitted first; the error is replication 3's, not 5's.
    # The full grid: the error is raised while a chunk is simulated
    design = SimDesign(**EXPLOSIVE, seed=3)
    want = _first_instability(design, range(6))
    monkeypatch.setattr(simgen, "CHUNK_REPS", chunk)
    monkeypatch.setattr(simgen, "_usable_cpus", lambda: 2)
    with pytest.raises(InstabilityError) as err:
        monte_carlo_study(design, s=6, parallel=parallel)
    assert err.value.step == want.step and str(err.value) == str(want)


def test_study_reproducible_across_runs(monkeypatch):
    design = SimDesign(n=100, m=3, corr_kind="ar1", alpha0=0.7, seed=33)
    monkeypatch.setattr(simgen, "ESTIMATORS", ("independence", "quasi_true"))
    a = monte_carlo_study(design, s=6, level=0.95)
    b = monte_carlo_study(design, s=6, level=0.95)
    assert np.array_equal(a.estimators[0].bias, b.estimators[0].bias)


def test_study_metric_identities():
    design = SimDesign(n=150, m=3, corr_kind="cs", alpha0=0.7, seed=2)
    report = monte_carlo_study(design, s=40, level=0.95)
    beta0 = np.asarray(design.beta0)
    for summ in report.estimators:
        assert np.all(summ.mse + 1e-12 >= summ.bias**2)
        assert np.allclose(summ.rb, summ.bias / beta0)
        assert np.all((0 <= summ.coverage) & (summ.coverage <= 1))
    assert np.array_equal(estimator_summary(report, "quasi_true").re, np.ones(2))


def test_study_requires_replications():
    design = SimDesign(n=50, m=2, corr_kind="cs", alpha0=0.5, seed=0)
    with pytest.raises(ContractError):
        monte_carlo_study(design, s=1)


def test_mse_shrinks_roughly_like_one_over_n(monkeypatch):
    labels = ("independence", "two_step")
    monkeypatch.setattr(simgen, "ESTIMATORS", labels + ("quasi_true",))
    mses = {}
    for n in (250, 1000):
        design = SimDesign(n=n, m=5, corr_kind="cs", alpha0=0.7, seed=6)
        report = monte_carlo_study(design, s=100, level=0.95)
        mses[n] = np.concatenate([estimator_summary(report, label).mse for label in labels])
    ratios = mses[1000] / mses[250]
    assert 0.15 <= np.median(ratios) <= 0.4


def test_coverage_study_level_half(monkeypatch):
    design = SimDesign(n=300, m=3, corr_kind="cs", alpha0=0.7, seed=14)
    monkeypatch.setattr(simgen, "ESTIMATORS", ("cs", "quasi_true"))
    coverage = monte_carlo_study(design, s=400, level=0.5).estimators[0].coverage
    assert np.all((0.45 <= coverage) & (coverage <= 0.55))


def test_rb_guard_uses_absolute_bias_at_zero_truth(monkeypatch):
    design = SimDesign(n=100, m=3, beta0=(0.0, 0.0), corr_kind="independence", seed=8)
    monkeypatch.setattr(simgen, "ESTIMATORS", ("independence", "quasi_true"))
    report = monte_carlo_study(design, s=10, level=0.95)
    summ = report.estimators[0]
    assert np.array_equal(summ.rb, summ.bias)


def test_coverage_study_rejects_empty():
    design = SimDesign(n=50, m=2, corr_kind="cs", alpha0=0.5, seed=0)
    with pytest.raises(ContractError):
        monte_carlo_study(design, s=0)


def test_default_estimator_grid_shape():
    labels = list(simgen.ESTIMATORS)
    assert labels == ["independence", "cs", "ar1", "two_step", "quasi_true"]
