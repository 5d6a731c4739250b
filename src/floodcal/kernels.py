"""Covariance and prediction kernels of the multiresolution GP.

This module is the only place the squared-exponential covariance is
written: :func:`sq_exp_corr` is the kernel and :func:`gp_cov` the stacked
two-fidelity covariance built from it, serving the MAP objective and its
gradient and emulator construction; :func:`cross_cov` forms the same
test-to-training block in place for :func:`predict_scores` and joint
prediction.  The predictive distribution is evaluated once per
Metropolis-Hastings proposal, i.e. hundreds of thousands of times per
calibration run, so :func:`predict_scores` reads operands that a
:class:`~floodcal.emulator.MultiResEmulator` computes once, when built.

All kernels work in unit-scaled parameter coordinates and use float64
arrays.  Point sets are stacked cheap rows first, expensive rows after.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dtrtrs

BACKEND = "numpy"


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared coordinate differences, shape ``(k, len(a), len(b))``."""
    d = a.T[:, :, None] - b.T[:, None, :]
    return np.square(d, out=d)


def sq_exp_corr(d2: np.ndarray, inv_range: np.ndarray) -> np.ndarray:
    """Squared-exponential correlation ``exp(-sum_d d2_d inv_range_d)``.

    ``d2`` is a :func:`sq_dists` tensor (or a block of one); the result has
    its trailing two-dimensional shape.
    """
    k = d2.shape[0]
    return np.exp(-np.dot(inv_range, d2.reshape(k, -1))).reshape(d2.shape[1:])


def gp_cov_from_corr(corr_c, corr_e, n_cheap_rows, n_cheap_cols, rho, var_c, var_e):
    """:func:`gp_cov` from its two correlation matrices.

    ``corr_c`` covers every row and column, ``corr_e`` the expensive block
    only.  The MAP gradient reuses the correlations, so it assembles the
    covariance through this step.
    """
    amp_rows = np.ones(corr_c.shape[0])
    amp_rows[n_cheap_rows:] = rho
    amp_cols = np.ones(corr_c.shape[1])
    amp_cols[n_cheap_cols:] = rho
    v = var_c * (amp_rows[:, None] * amp_cols) * corr_c
    v[n_cheap_rows:, n_cheap_cols:] += var_e * corr_e
    return v


def gp_cov(d2, n_cheap_rows, n_cheap_cols, rho, var_c, var_e, inv_range_c, inv_range_e):
    """GP covariance between two stacked point sets, without nuggets or trend.

    ``d2`` comes from :func:`sq_dists`; the first ``n_cheap_rows`` rows and
    ``n_cheap_cols`` columns are cheap runs.  Entries are ``var_c C_c``
    cheap-cheap, ``rho var_c C_c`` cheap-expensive and
    ``rho^2 var_c C_c + var_e C_e`` expensive-expensive, where
    ``C(x, y) = exp(-sum_d (x_d - y_d)^2 inv_range_d)``.  The expensive
    kernel is evaluated on the expensive block only.
    """
    corr_c = sq_exp_corr(d2, inv_range_c)
    corr_e = sq_exp_corr(d2[:, n_cheap_rows:, n_cheap_cols:], inv_range_e)
    return gp_cov_from_corr(corr_c, corr_e, n_cheap_rows, n_cheap_cols, rho, var_c, var_e)


def cross_cov(d2: np.ndarray, n_cheap: int, cross_terms):
    """Yield ``gp_cov(d2, 0, n_cheap, ...)`` for each component's
    ``(cross_coef, -inv_range_c, var_e, -inv_range_e)`` in ``cross_terms``:
    per block one ``dot``, then ``exp`` and scale in place.  Rounding is
    sign-symmetric, so this is bitwise :func:`gp_cov`'s block."""
    k, m, n = d2.shape
    d2_c = d2.reshape(k, -1)
    d2_e = d2[:, :, n_cheap:].reshape(k, -1)
    for coef, neg_inv_range_c, var_e, neg_inv_range_e in cross_terms:
        v = np.dot(neg_inv_range_c, d2_c).reshape(m, n)
        np.exp(v, out=v)
        v *= coef
        w = np.dot(neg_inv_range_e, d2_e)
        np.exp(w, out=w)
        w *= var_e
        v[:, n_cheap:] += w.reshape(m, n - n_cheap)
        yield v


def predict_scores(theta0: np.ndarray, emulator) -> tuple[np.ndarray, np.ndarray]:
    """Per-component predictive mean and variance of a fitted
    :class:`~floodcal.emulator.MultiResEmulator` at one unit-scaled setting.

    Returns ``(means, variances)`` of shape ``(J,)`` each.  The variance is
    floored at the expensive nugget, which it dominates exactly in exact
    arithmetic; the floor only absorbs round-off at training points.

    The triangular solve calls LAPACK ``trtrs`` on the transposed view of
    the C-ordered factor, which is Fortran-ordered, so the factor is neither
    copied nor scanned: this is the call ``scipy.linalg.solve_triangular``
    makes, with bitwise identical results.  The factors are finite by
    construction, so only ``theta0`` is checked.
    """
    values = theta0.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("array must not contain infs or NaNs")
    e = emulator
    trend = e.trend_prior
    k1 = len(values) + 1
    hh = np.array([1.0, *values] * 2)  # h0 twice: the trend row (rho h0, h0) is hh * a_scale
    h0 = hh[:k1]
    dot = np.dot  # the BLAS calls ``@`` makes on these operands, with less dispatch
    quad_c = float(dot(dot(h0, trend.cov_cheap), h0))
    quad_e = float(dot(dot(h0, trend.cov_exp), h0))
    trend_c = float(dot(h0, trend.mean[:k1]))
    trend_e = float(dot(h0, trend.mean[k1:]))
    # BLAS rounds by layout: a C-ordered copy of this (k, 1, n) array moves ulps
    d2 = sq_dists(theta0[None, :], e.theta)

    means, variances = [], []
    for (rho, rho2, a_scale, trend_w, alpha, chol_t, prior_var, nug_e), cross in zip(
            e.predict_terms, cross_cov(d2, e.n_cheap, e.cross_terms)):
        cross = cross[0]
        cross += dot(hh * a_scale, trend_w)
        means.append(rho * trend_c + trend_e + float(dot(cross, alpha)))
        white, info = dtrtrs(chol_t, cross, 0, 1)  # upper factor, transposed solve
        if info != 0:
            raise LinAlgError(f"triangular solve failed (trtrs info {info})")
        var = prior_var + rho2 * quad_c + quad_e - float(dot(white, white))
        variances.append(var if var > nug_e else nug_e)
    return np.array(means), np.array(variances)
