"""Batched-einsum reference formulas for the weighted-design contractions.

These are the step-indexed ``np.einsum`` forms that the GEMM kernels
replaced in the estimating function, its Jacobian, the closed-form solve,
the sandwich and the diagnostics, kept as oracles.  The package reads the
weighted designs A^{1/2} X and R^{-1} A^{1/2} X from
``EstimatingContext.moments``; each oracle forms its own from R^{-1} and
the conditional moments, so it shares no code with the package beyond
``model.moment_arrays``.
"""

import numpy as np

from mtgee.model import moment_arrays


def oracle_g(Xs, ys, beta, link, rinv):
    _, a, eps = moment_arrays(Xs, ys, beta, link)
    w = np.einsum("nab,nb->na", rinv, eps)
    xa = Xs * np.sqrt(a)[:, :, None]
    return np.einsum("nmp,nm->p", xa, w)


def oracle_jacobian(Xs, ys, beta, link, rinv):
    mu, a, eps = moment_arrays(Xs, ys, beta, link)
    sqrt_a = np.sqrt(a)
    xa = Xs * sqrt_a[:, :, None]
    rinv_xa = np.einsum("nab,nbk->nak", rinv, xa)
    d_mat = np.einsum("nmp,nmk->pk", xa, rinv_xa)
    if link.kind == "identity":
        return d_mat
    r = ys - mu
    d = link.d2(Xs @ beta) / (2.0 * a)
    w = sqrt_a * np.einsum("nab,nb->na", rinv, eps)
    corr1 = np.einsum("nmp,nm,nmk->pk", Xs, d * w, Xs)
    m2 = (d * r)[:, :, None] * Xs
    bm2 = sqrt_a[:, :, None] * np.einsum("nab,nbk->nak", rinv, m2 / sqrt_a[:, :, None])
    corr2 = np.einsum("nmp,nmk->pk", Xs, bm2)
    return d_mat - corr1 + corr2


def oracle_solve_linear(Xs, ys, rinv):
    rinv_x = np.einsum("nab,nbk->nak", rinv, Xs)
    k_mat = np.einsum("nmp,nmk->pk", Xs, rinv_x)
    rhs = np.einsum("nak,na->k", rinv_x, ys)
    return np.linalg.solve(k_mat, rhs)


def oracle_score_terms(Xs, ys, beta, link, rinv):
    _, a, eps = moment_arrays(Xs, ys, beta, link)
    xa = Xs * np.sqrt(a)[:, :, None]
    rinv_xa = np.einsum("nab,nbk->nak", rinv, xa)
    return np.einsum("nmk,nm->nk", rinv_xa, eps)


def oracle_sandwich(Xs, a, eps, rinv):
    """(H, M, Psi) of the sandwich H^{-1} M H^{-1}."""
    xa = Xs * np.sqrt(a)[:, :, None]
    rinv_xa = np.einsum("nab,nbk->nak", rinv, xa)
    h_mat = np.einsum("nmp,nmk->pk", xa, rinv_xa)
    scores = np.einsum("nak,na->nk", rinv_xa, eps)
    m_mat = scores.T @ scores
    hinv = np.linalg.inv(h_mat)
    return h_mat, m_mat, hinv @ m_mat @ hinv


def oracle_optimality(Xs, ys, beta, link, rinv, true_corr, pts):
    """det(H*_n)/det(Mbar_n) and det(M*_n)/det(Mbar_n) at the checkpoints ``pts``."""
    _, a, _ = moment_arrays(Xs, ys, beta, link)
    xa = Xs * np.sqrt(a)[:, :, None]
    rinv_xa = np.einsum("nab,nbk->nak", rinv, xa)
    h_terms = np.einsum("nmp,nmk->npk", xa, rinv_xa)
    mbar_terms = np.einsum("nmp,mb,nbk->npk", xa, np.linalg.inv(true_corr), xa)
    mstar_terms = np.einsum("nap,ab,nbk->npk", rinv_xa, true_corr, rinv_xa)
    ratio_h, ratio_m = [], []
    for pt in pts:
        det_bar = np.linalg.det(mbar_terms[:pt].sum(axis=0))
        ratio_h.append(np.linalg.det(h_terms[:pt].sum(axis=0)) / det_bar)
        ratio_m.append(np.linalg.det(mstar_terms[:pt].sum(axis=0)) / det_bar)
    return np.array(ratio_h), np.array(ratio_m)


def oracle_leverage(Xs, ys, beta, link):
    """(gamma', lambda_max of H'_n) from the per-step information terms X' A X."""
    _, a, _ = moment_arrays(Xs, ys, beta, link)
    h_mat = np.einsum("nmp,nm,nmk->npk", Xs, a, Xs).sum(axis=0)
    quad = np.einsum("nmp,pq,nmq->nm", Xs, np.linalg.inv(h_mat), Xs)
    return float(np.max(quad)), float(np.linalg.eigvalsh(h_mat)[-1])
