import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_oracle import scalar_regularize
from mtgee import corr
from mtgee.errors import ContractError, CorrelationDegeneracyError
from mtgee.model import ClusterSeries, get_link
from mtgee.simgen import substream


def ar1_inverse_oracle(alpha, m):
    """Closed-form tridiagonal inverse of the AR(1) correlation matrix."""
    inv = np.zeros((m, m))
    if m == 1:
        return np.array([[1.0]])
    for j in range(m):
        inv[j, j] = 1.0 + alpha**2 if 0 < j < m - 1 else 1.0
        if j + 1 < m:
            inv[j, j + 1] = -alpha
            inv[j + 1, j] = -alpha
    return inv / (1.0 - alpha**2)


def test_independence_is_identity():
    assert np.array_equal(corr.build_fixed_corr("independence", 0.0, 3), np.eye(3))


def test_ar1_powers():
    expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    assert np.allclose(corr.build_fixed_corr("ar1", 0.5, 3), expected)


def test_cs_simulation_value():
    mat = corr.build_fixed_corr("compound_symmetry", 0.7, 5)
    assert np.all(np.diag(mat) == 1.0)
    off = mat[~np.eye(5, dtype=bool)]
    assert np.all(off == 0.7)
    assert np.linalg.eigvalsh(mat)[0] > 0


@pytest.mark.parametrize(
    "kind,alpha", [("compound_symmetry", -0.5), ("compound_symmetry", 1.0), ("ar1", 1.2)]
)
def test_fixed_corr_rejects_inadmissible_alpha(kind, alpha):
    with pytest.raises(ContractError):
        corr.build_fixed_corr(kind, alpha, 5)


@pytest.mark.parametrize("alpha", [0.3, -0.3, 0.7, -0.7])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_ar1_inverse_is_tridiagonal(alpha, m):
    mat = corr.build_fixed_corr("ar1", alpha, m)
    assert np.max(np.abs(np.linalg.inv(mat) - ar1_inverse_oracle(alpha, m))) < 1e-10


def test_empirical_mean_recovers_true_correlation():
    rng = substream(7, 0)
    target = np.array([[1.0, 0.7], [0.7, 1.0]])
    chol = np.linalg.cholesky(target)
    # zero regressors make the standardized residuals the draws themselves
    ys = rng.standard_normal((10_000, 2)) @ chol.T
    data = ClusterSeries(ys=ys, Xs=np.zeros((10_000, 2, 1)))
    seq = corr.empirical_running(2, plugin_beta=[0.0]).realize(data, get_link("identity"))
    assert np.max(np.abs(seq[-1] - target)) < 0.05


def test_empirical_running_convergence_monotone_in_n():
    # element-wise error vs the constant truth shrinks with n
    truth = corr.build_fixed_corr("compound_symmetry", 0.7, 3)
    chol = np.linalg.cholesky(truth)
    sizes = (100, 1_000, 10_000)
    errors = {n: [] for n in sizes}
    for seed in range(50):
        draws = substream(123, seed).standard_normal((max(sizes), 3)) @ chol.T
        for n in sizes:
            mean = np.einsum("na,nb->ab", draws[:n], draws[:n]) / n
            errors[n].append(np.max(np.abs(mean - truth)))
    med = [np.median(errors[n]) for n in sizes]
    assert med[0] > med[1] > med[2]


# The SPD projection of one matrix is regularized_empirical on a stack of
# one, as diagnose builds its reference correlation.  At COUNT averaged
# outer products of m units the shrinkage toward I is m/(2 COUNT).
COUNT = 1000


def regularize_one(mat):
    return corr.regularized_empirical(np.asarray(mat)[None], np.array([COUNT]))[0]


def shrinkage(m, count=COUNT):
    return min(0.5, m / (2.0 * count))


def test_spd_project_identity_unchanged():
    out = regularize_one(np.eye(3))
    assert np.array_equal(out, np.eye(3))


def test_spd_project_matches_eigen_oracle():
    # the rule maps S's spectrum w to (1 - lam) m w / tr(S) + lam and keeps
    # its eigenvectors
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = regularize_one(mat)
    w, v = np.linalg.eigh(mat)
    lam = shrinkage(2)
    expected = (v * ((1.0 - lam) * 2 * w / np.sum(w) + lam)) @ v.T
    assert np.max(np.abs(out - expected)) < 1e-12
    assert np.max(np.abs(out - scalar_regularize(mat, COUNT))) < 1e-15
    assert np.linalg.eigvalsh(out)[0] >= lam - 1e-15
    assert abs(np.trace(out) - 2.0) < 1e-15


def test_spd_project_keeps_valid_correlation():
    # a correlation matrix has trace m, so it is only shrunk: (1 - lam) C + lam I
    # is a correlation matrix again
    mat = corr.build_fixed_corr("compound_symmetry", 0.7, 5)
    out = regularize_one(mat)
    lam = shrinkage(5)
    assert np.max(np.abs(out - ((1.0 - lam) * mat + lam * np.eye(5)))) < 1e-15
    assert np.max(np.abs(np.diag(out) - 1.0)) < 1e-15
    assert np.linalg.eigvalsh(out)[0] >= lam - 1e-15


def test_spd_project_is_scale_free():
    # contract: S is divided by its dispersion tr(S)/m first, so a rescaled
    # average gives the same matrix
    mat = np.array([[1.0, 0.9], [0.9, 1.0]])
    once = regularize_one(mat)
    for scale in (1e-8, 0.1, 3.0, 1e8):
        assert np.max(np.abs(regularize_one(scale * mat) - once)) < 1e-15
    assert np.max(np.abs(once - scalar_regularize(mat, COUNT))) < 1e-15


def test_pseudo_fixed_rejects_non_spd():
    with pytest.raises(CorrelationDegeneracyError) as err:
        corr.pseudo_fixed(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert err.value.eigenvalue is not None
    assert "np.float64" not in str(err.value)


@pytest.mark.parametrize("matrix", [np.full((2, 2), np.nan), [[1.0, np.inf], [np.inf, 1.0]]])
def test_pseudo_fixed_rejects_non_finite(matrix):
    with pytest.raises(CorrelationDegeneracyError, match="working correlation is not finite"):
        corr.pseudo_fixed(matrix)


@pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones(3), np.array(1.0), np.eye(0),
                                    np.eye(3)[None]],
                         ids=["2x3", "1-D", "0-D", "0x0", "1x3x3"])
def test_pseudo_fixed_rejects_a_matrix_that_is_not_square(matrix):
    with pytest.raises(ContractError, match="working correlation must be a non-empty square"):
        corr.pseudo_fixed(matrix)


def test_emitted_matrices_are_unit_diagonal_spd():
    for provider in (
        corr.independence(4),
        corr.compound_symmetry(0.3, 4),
        corr.ar1(-0.6, 4),
    ):
        mat = provider.matrix
        assert np.max(np.abs(mat - mat.T)) == 0.0
        assert np.all(np.diag(mat) == 1.0)
        assert np.linalg.eigvalsh(mat)[0] > 0


def test_realize_predictability_under_future_shuffle():
    # the matrix used at step i never depends on data from steps >= i
    rng = substream(99, 0)
    ys = rng.normal(size=(12, 3))
    Xs = rng.normal(size=(12, 3, 2))
    data = ClusterSeries(ys=ys, Xs=Xs)
    plugin = np.array([0.3, -0.2])
    link = get_link("identity")
    provider = corr.empirical_running(3, plugin_beta=plugin)
    seq = provider.realize(data, link)
    for cut in (4, 7):
        perm = np.concatenate([np.arange(cut), cut + rng.permutation(12 - cut)])
        shuffled = ClusterSeries(ys=ys[perm], Xs=Xs[perm])
        seq_shuffled = corr.empirical_running(3, plugin_beta=plugin).realize(shuffled, link)
        assert np.array_equal(seq_shuffled[: cut + 1], seq[: cut + 1])


@pytest.mark.parametrize("name", sorted(corr.PROVIDERS))
def test_realize_rejects_data_of_another_cluster_size(name):
    data = ClusterSeries(ys=np.zeros((5, 2)), Xs=np.ones((5, 2, 1)))
    with pytest.raises(ContractError, match="^provider cluster size 3 != data cluster size 2$"):
        corr.PROVIDERS[name](0.3, 3).realize(data, get_link("identity"))


def test_realize_requires_plugin():
    data = ClusterSeries(ys=np.zeros((5, 2)), Xs=np.ones((5, 2, 1)))
    with pytest.raises(ContractError):
        corr.empirical_running(2).realize(data, get_link("identity"))


def test_plugin_must_be_finite():
    with pytest.raises(ContractError, match="finite"):
        corr.empirical_running(2, plugin_beta=[1.0, np.nan])


@pytest.mark.parametrize("plugin", [[1.0, 2.0, 3.0], [1.0], 1.0])
def test_realize_requires_plugin_of_length_p(plugin):
    data = ClusterSeries(ys=np.zeros((5, 2)), Xs=np.ones((5, 2, 2)))
    with pytest.raises(ContractError, match="plugin_beta has shape"):
        corr.empirical_running(2, plugin_beta=plugin).realize(data, get_link("identity"))


@given(
    st.sampled_from(["independence", "compound_symmetry", "ar1"]),
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=-0.99, max_value=0.99),
)
@settings(max_examples=80, deadline=None)
def test_fixed_patterns_always_spd_unit_diagonal(kind, m, alpha):
    if kind == "compound_symmetry" and not (-1.0 / (m - 1) < alpha < 1.0):
        return
    mat = corr.build_fixed_corr(kind, alpha, m)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 1.0)
    assert np.linalg.eigvalsh(mat)[0] > 0


@given(st.floats(min_value=-0.95, max_value=0.95), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_spd_project_output_has_trace_m_and_eigenvalues_at_least_lam(rho, m, count):
    # a rank-one-dominated input, as near-singular as an average can be
    v = np.full(m, 1.0)
    v[0] = rho
    mat = np.outer(v, v) + 1e-12 * np.eye(m)
    out = corr.regularized_empirical(mat[None], np.array([count]))[0]
    lam = shrinkage(m, count)
    assert abs(np.trace(out) - m) <= 4 * m * np.finfo(float).eps
    assert np.linalg.eigvalsh(out)[0] >= lam - 1e-14
    assert np.max(np.abs(out - out.T)) == 0.0
    assert np.max(np.abs(out - scalar_regularize(mat, count))) <= 1e-14


def test_regularized_empirical_caps_condition_number():
    rng = substream(5, 0)
    eps = rng.standard_normal((5, 5))
    raw = np.einsum("na,nb->ab", eps, eps) / 5  # square-case average: near-singular
    out = corr.regularized_empirical(raw[None], counts=np.array([5]))[0]
    w = np.linalg.eigvalsh(out)
    # shrinkage by lam = min(1/2, m/(2*count)) = 1/2 puts every eigenvalue at
    # lam or above and bounds the condition number at ((1 - lam) m + lam)/lam
    assert w[0] >= 0.5 - 1e-15
    assert w[-1] / w[0] <= (0.5 * 5 + 0.5) / 0.5 + 1e-9
    w_raw = np.linalg.eigvalsh(0.5 * (raw + raw.T))
    assert w[-1] / w[0] < w_raw[-1] / max(w_raw[0], 1e-300)
