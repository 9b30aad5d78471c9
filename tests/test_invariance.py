"""Invariances of the running providers that the maths promises.

- Relabelling the m units of a cluster relabels the fit: beta is unchanged
  and every R_i becomes P R_i P'.
- Measurability: R_i depends on steps before i only, so changing y_k
  leaves R_0..R_k bit-identical, whatever the block length of the kernel.
- Scale: with the identity link, y -> c y and X -> c X leave beta
  unchanged; y -> c y with only the lag columns of X scaled (a change of
  units, as from m/s to knots) scales the other coefficients by c.
- No look-ahead in ingestion: the design of step i holds the responses of
  rows before i only, so changing the responses of file row r leaves the
  design of every step i <= r and the responses of every step before r
  bit-identical, in either layout.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgee import corr
from mtgee.cli import DatasetSpec, parse_dataset
from mtgee.estfun import EstimatingContext, fit
from mtgee.model import ClusterSeries, get_link
from mtgee.simgen import substream

IDENT = get_link("identity")
PROVIDERS = {"two_step": corr.two_step, "empirical": corr.empirical_running}


def series(seed, n, m, p=2):
    rng = substream(seed, 0)
    Xs = rng.normal(scale=0.5, size=(n, m, p))
    ys = 1.0 + Xs @ np.linspace(0.5, -0.3, p) + rng.normal(size=(n, m))
    return ClusterSeries(ys=ys, Xs=Xs)


def fitted(data, provider):
    """beta and the R_i of a closed-form fit; an empirical provider gets its
    plug-in from the fit."""
    res = fit(EstimatingContext(data=data, link=IDENT, corr=provider), method="linear",
              with_inference=False)
    return res.beta_hat, res.ctx.corr.realize(data, IDENT)


@pytest.mark.parametrize("kind", sorted(PROVIDERS))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 150), m=st.integers(2, 5),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_permuting_units_permutes_the_fit(kind, seed, n, m, data):
    perm = np.array(data.draw(st.permutations(range(m))))
    base = series(seed, n, m)
    permuted = ClusterSeries(ys=base.ys[:, perm], Xs=base.Xs[:, perm])
    beta, seq = fitted(base, PROVIDERS[kind](m))
    beta_p, seq_p = fitted(permuted, PROVIDERS[kind](m))
    np.testing.assert_allclose(beta_p, beta, rtol=1e-12)
    np.testing.assert_allclose(seq_p, seq[:, perm][:, :, perm], rtol=1e-12, atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), m=st.integers(1, 4),
       block=st.integers(1, 16), data=st.data())
@settings(max_examples=80, deadline=None)
def test_change_at_any_step_leaves_past_bitwise(seed, n, m, block, data):
    k = data.draw(st.integers(0, n - 1))
    base = series(seed, n, m)
    ys_k = np.array(base.ys)
    ys_k[k] += 1.0
    changed = ClusterSeries(ys=ys_k, Xs=base.Xs)
    providers = (corr.two_step(m), corr.empirical_running(m, plugin_beta=[0.3, -0.2]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corr, "BLOCK_STEPS", block)
        for provider in providers:
            seq, seq_k = provider.realize(base, IDENT), provider.realize(changed, IDENT)
            assert np.array_equal(seq_k[: k + 1], seq[: k + 1])
            if m == 1:
                # a 1 x 1 average over its dispersion is 1, so R_i is 1 to a few ulps
                assert np.max(np.abs(seq_k - 1.0)) <= 2 * np.finfo(float).eps
            # a later step past the warm-up, whose b_i leaves a residual, sees the change
            elif k + 1 < n and k + 1 >= max(m, base.p + 1):
                assert not np.array_equal(seq_k[k + 1:], seq[k + 1:])


def lagged_series(seed, n, m):
    """y_i = 1 + 0.4 y_{i-1} - 0.3 z_i + e_i, with regressors [1 | y_{i-1} | z_i]."""
    rng = substream(seed, 3)
    z = rng.normal(size=(n, m))
    y = np.zeros((n + 1, m))
    for i in range(n):
        y[i + 1] = 1.0 + 0.4 * y[i] - 0.3 * z[i] + rng.normal(size=m)
    Xs = np.stack([np.ones((n, m)), y[:-1], z], axis=-1)
    return ClusterSeries(ys=y[1:], Xs=Xs)


@pytest.mark.parametrize("kind", sorted(PROVIDERS))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 150), m=st.integers(1, 5),
       scale=st.sampled_from([1e-3, 0.1, 3.0, 10.0, 1e4]), lags_only=st.booleans())
@settings(max_examples=40, deadline=None)
def test_rescaling_the_data_rescales_the_fit(kind, seed, n, m, scale, lags_only):
    base = lagged_series(seed, n, m)
    # X -> X D and y -> c y give beta -> c D^{-1} beta
    cols = np.array([1.0, scale, 1.0]) if lags_only else np.full(3, scale)
    scaled = ClusterSeries(ys=scale * base.ys, Xs=base.Xs * cols)
    beta, seq = fitted(base, PROVIDERS[kind](m))
    beta_c, seq_c = fitted(scaled, PROVIDERS[kind](m))
    want = scale * beta / cols
    assert np.max(np.abs(beta_c - want)) <= 1e-10 * np.max(np.abs(want))
    np.testing.assert_allclose(seq_c, seq, rtol=0, atol=1e-10)


def write_dataset(path, Y, Z, layout, order):
    """Responses ``Y`` and one exogenous variable ``Z``, both (T, m), as a CSV
    of the given layout; a long file lists its (time, unit) rows in ``order``."""
    T, m = Y.shape
    with open(path, "w", encoding="utf-8") as fh:
        if layout == "wide":
            fh.write(",".join([f"y{j}" for j in range(m)] + [f"z{j}" for j in range(m)]) + "\n")
            for t in range(T):
                fh.write(",".join(map(repr, Y[t].tolist() + Z[t].tolist())) + "\n")
        else:
            fh.write("time,unit,y,z\n")
            for cell in order:
                t, j = divmod(int(cell), m)
                fh.write(f"{t},u{j},{float(Y[t, j])!r},{float(Z[t, j])!r}\n")


def parse(path, layout, m, lags):
    if layout == "wide":
        spec = DatasetSpec(path=path, response_cols=[f"y{j}" for j in range(m)],
                           exog_cols=[[f"z{j}" for j in range(m)]], lags=lags)
    else:
        spec = DatasetSpec(path=path, layout="long", response_cols=["y"], exog_cols=["z"],
                           time_col="time", unit_col="unit", lags=lags)
    return parse_dataset(spec)


@given(seed=st.integers(0, 2**32 - 1), lags=st.integers(0, 3), steps=st.integers(1, 12),
       m=st.integers(1, 4), layout=st.sampled_from(["wide", "long"]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_parse_dataset_has_no_look_ahead(seed, lags, steps, m, layout, data):
    T = lags + steps
    r = data.draw(st.integers(0, T - 1))
    rng = substream(seed, 1)
    Y, Z = rng.normal(size=(T, m)), rng.normal(size=(T, m))
    Y_r = Y.copy()
    Y_r[r] += 1.0 + rng.uniform(size=m)  # every response cell of row r changes
    order = rng.permutation(T * m)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "base.csv"), os.path.join(tmp, "changed.csv")]
        for path, ys in zip(paths, (Y, Y_r)):
            write_dataset(path, ys, Z, layout, order)
        base, changed = (parse(path, layout, m, lags) for path in paths)
    # file row t is step t - lags
    upto, before = max(r - lags + 1, 0), max(r - lags, 0)
    assert np.array_equal(changed.Xs[:upto], base.Xs[:upto])
    assert np.array_equal(changed.ys[:before], base.ys[:before])
    if r >= lags:  # the change itself is read, as step r's response
        assert not np.array_equal(changed.ys[r - lags], base.ys[r - lags])
