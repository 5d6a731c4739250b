"""Covariance and prediction kernels of the multiresolution GP.

This module is the only place the squared-exponential covariance is
written: :func:`sq_exp_corr` is the kernel.  The MAP objective and its
gradient build the training gram from it and :func:`cheap_cov` in buffers
they reuse (``out``); :func:`cross_cov` forms the same covariance between
test settings and training runs, or among test settings, for
:func:`predict_scores` and :func:`predict_joint`.  A prediction is made once
per Metropolis-Hastings proposal, hundreds of thousands of times per
calibration run, so both read the operands :func:`prediction_operands`
builds once per component, when a :class:`~floodcal.emulator.MultiResEmulator` is built.

All kernels work in unit-scaled parameter coordinates and use float64
arrays.  Point sets are stacked cheap rows first, expensive rows after.
"""

from __future__ import annotations

import math

import numpy as np

from . import deferred

(dtrtrs,) = deferred(globals(), "scipy.linalg.lapack", "dtrtrs")

BACKEND = "numpy"


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared coordinate differences, shape ``(k, len(a), len(b))``."""
    d = a.T[:, :, None] - b.T[:, None, :]
    return np.square(d, out=d)


def sq_exp_corr(d2: np.ndarray, inv_range: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Squared-exponential correlation ``exp(-sum_d d2_d inv_range_d)``.

    ``d2`` is a :func:`sq_dists` tensor (or a block of one); the result has
    its trailing two-dimensional shape and is written into ``out``, a
    C-contiguous float64 array of that shape, when one is given.  Rounding
    is sign-symmetric, so negating ``inv_range`` before the ``dot`` is
    bitwise negating after it.
    """
    k = d2.shape[0]
    flat = np.dot(-inv_range, d2.reshape(k, -1), out=None if out is None else out.reshape(-1))
    return np.exp(flat, out=flat).reshape(d2.shape[1:])


def cheap_cov(corr_c, n_cheap_rows, n_cheap_cols, rho, var_c, out=None):
    """The cheap process's share of a stacked covariance: ``var_c (a_i a_j) C_c``.

    ``a`` is 1 on cheap rows and columns and ``rho`` on expensive ones, so
    ``var_c (a_i a_j)`` is one constant per block and each block costs one
    product, written into ``out`` when one is given.
    """
    out = np.empty_like(corr_c) if out is None else out
    r, c = n_cheap_rows, n_cheap_cols
    for rows, cols, amp in ((slice(None, r), slice(None, c), 1.0),
                            (slice(None, r), slice(c, None), rho),
                            (slice(r, None), slice(None, c), rho),
                            (slice(r, None), slice(c, None), rho * rho)):
        np.multiply(corr_c[rows, cols], var_c * amp, out=out[rows, cols])
    return out


def cross_cov(d2: np.ndarray, n_cheap: int, cross_terms):
    """Yield, per ``(cross_coef, -inv_range_c, var_e, -inv_range_e)`` in
    ``cross_terms``, the covariance of expensive rows with the columns of
    ``d2`` (``n_cheap`` cheap first), no nugget or trend: ``cross_coef C_c``
    plus ``var_e C_e`` on expensive columns.  Per block one ``dot``, then
    ``exp`` and scale in place: bitwise :func:`sq_exp_corr` then :func:`cheap_cov`."""
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


def prediction_operands(params, n_cheap: int, trend_w, chol, alpha) -> tuple[tuple, tuple]:
    """One component's ``cross_terms`` and ``predict_terms`` entries, the only copy
    of what predictions read, from its parameters, trend cross block ``B H^T``,
    lower gram factor and solved centred scores.  The factor is kept C-ordered:
    its transpose is the Fortran-ordered upper factor ``trtrs`` reads uncopied."""
    rho, var_c, var_e, nug_e = map(float, (params.rho, params.var_cheap, params.var_exp,
                                           params.nugget_exp))  # Python floats for the MH loop
    amp = np.ones(len(alpha))
    amp[n_cheap:] = rho  # a test row's cheap coefficient is var_c rho, then var_c (rho rho)
    return ((var_c * (rho * amp), -(1.0 / params.range_cheap), var_e, -(1.0 / params.range_exp)),
            (rho, rho**2, np.repeat([rho, 1.0], len(params.range_cheap) + 1), trend_w, alpha,
             np.ascontiguousarray(chol).T, rho**2 * var_c + var_e + nug_e, nug_e))


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
            raise np.linalg.LinAlgError(f"triangular solve failed (trtrs info {info})")
        var = prior_var + rho2 * quad_c + quad_e - float(dot(white, white))
        variances.append(var if var > nug_e else nug_e)
    return np.array(means), np.array(variances)


def predict_joint(thetas: np.ndarray, emulator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Joint predictive (mean, covariance) per component at unit-scaled ``thetas``
    (m, k), from :func:`predict_scores`' operands.  Every test row is expensive,
    so the test-to-test prior is :func:`cross_cov` with no cheap columns and the
    scalar coefficient ``var_c (rho rho)``; ``trtrs`` solves m right-hand sides."""
    trend = emulator.trend_prior
    block_cov = trend.block_cov
    basis = np.hstack([np.ones((len(thetas), 1)), thetas])
    hh = np.hstack([basis, basis])  # a test row's trend row (rho h, h) is hh * a_scale
    d2_test = sq_dists(thetas, thetas)
    out = []
    for (_, _, a_scale, trend_w, alpha, chol_t, _, nug_e), (coef, *ranges), cross in zip(
            emulator.predict_terms, emulator.cross_terms,
            cross_cov(sq_dists(thetas, emulator.theta), emulator.n_cheap, emulator.cross_terms)):
        a0 = hh * a_scale
        cross += a0 @ trend_w
        mean = a0 @ trend.mean + cross @ alpha
        prior = next(cross_cov(d2_test, 0, [(coef[-1], *ranges)])) + a0 @ block_cov @ a0.T
        prior[np.diag_indices_from(prior)] += nug_e
        white = dtrtrs(chol_t, cross.T, 0, 1)[0]
        cov = prior - white.T @ white
        out.append((mean, 0.5 * (cov + cov.T)))
    return out
