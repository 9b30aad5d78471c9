"""Invariances of the running providers that the maths promises.

- Relabelling the m units of a cluster relabels the fit: beta is unchanged
  and every R_i becomes P R_i P'.
- Measurability: R_i depends on steps before i only, so changing y_k
  leaves R_0..R_k bit-identical, whatever the block length of the kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgee import corr
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
            # a later step past the warm-up, whose b_i leaves a residual, sees the change
            if k + 1 < n and k + 1 >= max(corr.WARMUP_STEPS, m, base.p + 1):
                assert not np.array_equal(seq_k[k + 1:], seq[k + 1:])
