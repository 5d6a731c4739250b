"""Scalar covariance of the multiresolution GP, one pair of settings at a time.

These are the reference that ``floodcal.kernels.gp_cov`` and the grams and
joint predictions built on it are tested against.  Settings are unit-scaled;
a nugget is added wherever two runs of the same fidelity share a setting.
"""

import math

import numpy as np


def cov_cc(theta_i, theta_j, params) -> float:
    """Cheap-cheap covariance at two (scaled) settings."""
    theta_i = np.atleast_1d(np.asarray(theta_i, dtype=float))
    theta_j = np.atleast_1d(np.asarray(theta_j, dtype=float))
    d2 = np.sum((theta_i - theta_j) ** 2 / params.range_cheap)
    val = params.var_cheap * math.exp(-d2)
    if np.array_equal(theta_i, theta_j):
        val += params.nugget_cheap
    return val


def cov_ee(theta_i, theta_j, params) -> float:
    """Expensive-expensive covariance: rho^2 cheap kernel + own GP + nugget."""
    theta_i = np.atleast_1d(np.asarray(theta_i, dtype=float))
    theta_j = np.atleast_1d(np.asarray(theta_j, dtype=float))
    diff2 = (theta_i - theta_j) ** 2
    val = params.rho**2 * params.var_cheap * math.exp(-np.sum(diff2 / params.range_cheap))
    val += params.var_exp * math.exp(-np.sum(diff2 / params.range_exp))
    if np.array_equal(theta_i, theta_j):
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
    and the trend rows H of ``rows``."""

    def gp(a, b):
        (xa, fa), (xb, fb) = a, b
        if fa == fb == "C":
            return cov_cc(xa, xb, params)
        if fa == fb == "E":
            return cov_ee(xa, xb, params)
        return cov_ce(xa, xb, params) if fa == "C" else cov_ce(xb, xa, params)

    def trend_row(x, f):
        h = np.concatenate(([1.0], x))
        return np.concatenate([h, np.zeros_like(h)]) if f == "C" else np.concatenate([params.rho * h, h])

    h_rows = np.array([trend_row(*a) for a in rows])
    h_cols = np.array([trend_row(*b) for b in cols])
    v = np.array([[gp(a, b) for b in cols] for a in rows])
    return v + h_rows @ trend.block_cov @ h_cols.T, h_rows
