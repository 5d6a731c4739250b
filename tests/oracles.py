"""The covariance of the multiresolution GP written out, for reference.

The scalar functions give it one pair of settings at a time; they are the
reference that the grams and joint predictions are tested against for
accuracy.  :func:`stacked_cov` and :func:`gram` give it whole, in the
order of float operations the package has always used, so the references
that prediction and construction are tested against bit for bit are built
from them and from an emulator's ``params_list``.  Settings are
unit-scaled; a nugget is per-run noise, so it enters a run's covariance
with itself only, not that of two runs that share a setting.
"""

import math

import numpy as np

from floodcal import kernels


def cov_cc(theta_i, theta_j, params, same_run=False) -> float:
    """Cheap-cheap covariance of two runs at (scaled) settings."""
    theta_i = np.atleast_1d(np.asarray(theta_i, dtype=float))
    theta_j = np.atleast_1d(np.asarray(theta_j, dtype=float))
    d2 = np.sum((theta_i - theta_j) ** 2 / params.range_cheap)
    val = params.var_cheap * math.exp(-d2)
    if same_run:
        val += params.nugget_cheap
    return val


def cov_ee(theta_i, theta_j, params, same_run=False) -> float:
    """Expensive-expensive covariance: rho^2 cheap kernel + own GP + nugget."""
    theta_i = np.atleast_1d(np.asarray(theta_i, dtype=float))
    theta_j = np.atleast_1d(np.asarray(theta_j, dtype=float))
    diff2 = (theta_i - theta_j) ** 2
    val = params.rho**2 * params.var_cheap * math.exp(-np.sum(diff2 / params.range_cheap))
    val += params.var_exp * math.exp(-np.sum(diff2 / params.range_exp))
    if same_run:
        val += params.nugget_exp
    return val


def cov_ce(theta_cheap_i, theta_exp_j, params) -> float:
    """Cheap-expensive cross covariance; carries rho once and no nugget."""
    ti = np.atleast_1d(np.asarray(theta_cheap_i, dtype=float))
    tj = np.atleast_1d(np.asarray(theta_exp_j, dtype=float))
    d2 = np.sum((ti - tj) ** 2 / params.range_cheap)
    return params.rho * params.var_cheap * math.exp(-d2)


def labelled(theta_cheap, theta_exp):
    """(setting, fidelity) pairs in the stacked layout, cheap rows first."""
    return [(x, "C") for x in theta_cheap] + [(x, "E") for x in theta_exp]


def marginal_cov(rows, cols, params, trend) -> np.ndarray:
    """GP, nugget and trend-prior covariance between labelled settings,
    and the trend rows H of ``rows``.  Each label is one run: passing the
    same list as ``rows`` and ``cols`` puts the nuggets on the diagonal."""

    def gp(a, b, same_run):
        (xa, fa), (xb, fb) = a, b
        if fa == fb == "C":
            return cov_cc(xa, xb, params, same_run)
        if fa == fb == "E":
            return cov_ee(xa, xb, params, same_run)
        return cov_ce(xa, xb, params) if fa == "C" else cov_ce(xb, xa, params)

    def trend_row(x, f):
        h = np.concatenate(([1.0], x))
        return np.concatenate([h, np.zeros_like(h)]) if f == "C" else np.concatenate([params.rho * h, h])

    h_rows = np.array([trend_row(*a) for a in rows])
    h_cols = np.array([trend_row(*b) for b in cols])
    v = np.array([[gp(a, b, rows is cols and i == j) for j, b in enumerate(cols)]
                  for i, a in enumerate(rows)])
    return v + h_rows @ trend.block_cov @ h_cols.T, h_rows


def stacked_cov(d2, n_cheap_rows, n_cheap_cols, params) -> np.ndarray:
    """GP covariance between two stacked point sets, without nuggets or trend.

    ``d2`` comes from ``kernels.sq_dists``; the first ``n_cheap_rows`` rows
    and ``n_cheap_cols`` columns are cheap runs.  Entries are ``var_c C_c``
    cheap-cheap, ``rho var_c C_c`` cheap-expensive and
    ``rho^2 var_c C_c + var_e C_e`` expensive-expensive, where
    ``C(x, y) = exp(-sum_d (x_d - y_d)^2 / range_d)``.  The expensive kernel
    is evaluated on the expensive block only.
    """
    corr_c = kernels.sq_exp_corr(d2, 1.0 / params.range_cheap)
    corr_e = kernels.sq_exp_corr(d2[:, n_cheap_rows:, n_cheap_cols:], 1.0 / params.range_exp)
    v = kernels.cheap_cov(corr_c, n_cheap_rows, n_cheap_cols, params.rho, params.var_cheap)
    v[n_cheap_rows:, n_cheap_cols:] += params.var_exp * corr_e
    return v


def gram(d2, n_cheap, h, trend, params) -> np.ndarray:
    """The training gram M = V + nuggets + H B H^T, symmetrized, before any
    jitter: :func:`stacked_cov` of the training runs with themselves, and
    ``h`` their trend rows."""
    m = stacked_cov(d2, n_cheap, n_cheap, params)
    m[np.diag_indices_from(m)] += np.where(np.arange(len(m)) < n_cheap, params.nugget_cheap,
                                           params.nugget_exp)
    m += h @ trend.block_cov @ h.T
    return 0.5 * (m + m.T)
