"""The ergodicity monitor of the theory section, kept as a test helper.

No command reaches it: it needs many replications of one design, which
only the tests build.  ``ergodicity_check`` compares each replication's
realized information V_n, the running sum of score outer products at
beta0, with the across-replication mean M_n at each checkpoint.
"""

from dataclasses import dataclass, replace

import numpy as np

from mtgee.diagnostics import _checkpoints, _running_gram
from mtgee.errors import ContractError
from mtgee.estfun import EstimatingContext, _check_beta, _rank_test


@dataclass
class ErgodicityReport:
    checkpoints: list
    deviations: np.ndarray  # (n_checkpoints, n_replications)

    def median(self):
        return np.median(self.deviations, axis=1)


def score_terms(ctx: EstimatingContext, beta):
    """Per-step score contributions s_i = X' A^{1/2} R^{-1} eps, shape (n, p)."""
    _, eps, _, rinv_xa = ctx.moments(_check_beta(ctx, beta))
    return (eps[:, None, :] @ rinv_xa)[:, 0, :]


def ergodicity_check(mc_data, beta0, ctx_template: EstimatingContext) -> ErgodicityReport:
    """How far each replication's realized information V_n sits from the average.

    The report records ||M_n^{-1/2} V_n M_n^{-1/2} - I|| (spectral norm) per
    replication and checkpoint.  Under ergodic designs the deviations
    shrink with n.
    """
    reps = list(mc_data)
    if len(reps) < 50:
        raise ContractError(f"ergodicity check needs >= 50 replications, got {len(reps)}")
    n = reps[0].n
    p = reps[0].p
    pts = _checkpoints(n)
    v_mats = np.empty((len(reps), len(pts), p, p))
    for r, data in enumerate(reps):
        if data.n != n or data.p != p:
            raise ContractError("replications must share dimensions")
        ctx = replace(ctx_template, data=data)
        scores = score_terms(ctx, beta0)[:, None, :]
        v_mats[r] = _running_gram(scores, scores, pts)

    deviations = np.empty((len(pts), len(reps)))
    eye = np.eye(p)
    for k in range(len(pts)):
        m_hat = v_mats[:, k].mean(axis=0)
        _rank_test(m_hat, f"average information at checkpoint {pts[k]}")
        w, vecs = np.linalg.eigh(m_hat)
        m_isqrt = (vecs / np.sqrt(w)) @ vecs.T
        for r in range(len(reps)):
            dev = m_isqrt @ v_mats[r, k] @ m_isqrt - eye
            deviations[k, r] = np.linalg.norm(dev, 2)
    return ErgodicityReport(checkpoints=pts, deviations=deviations)
