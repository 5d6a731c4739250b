"""Comparison metrics and emulator-validation diagnostics.

Covers pointwise depth error (RMSE and the MR-minus-HR difference),
flood-extent overlap (fit, correctness), percent bias, and uncorrelated
standardized prediction errors against their T reference distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import deferred
from .errors import (
    EmptyInput,
    GeometryMismatch,
    LengthMismatch,
    NonPositiveDf,
    NoObservedFlood,
    NotPositiveDefinite,
)
from .grid import Grid

dpotrf, dtrtrs = deferred(globals(), "scipy.linalg.lapack", "dpotrf", "dtrtrs")
(stdtrit,) = deferred(globals(), "scipy.special", "stdtrit")


@dataclass(frozen=True)
class MetricReport:
    """Projection-versus-observation metrics over shared valid cells."""

    rmse: float
    percent_bias: float
    fit: float
    correctness: float
    flooded_obs: int
    flooded_pred: int
    flooded_both: int

    def to_dict(self) -> dict:
        return {
            "rmse_m": self.rmse,
            "percent_bias": self.percent_bias,
            "fit": self.fit,
            "correctness": self.correctness,
            "flooded_cells_observed": self.flooded_obs,
            "flooded_cells_predicted": self.flooded_pred,
            "flooded_cells_both": self.flooded_both,
        }


@dataclass(frozen=True)
class UspeReport:
    """Whitened prediction errors with their T-quantile pairing.

    ``qq`` pairs (empirical quantile, theoretical T quantile) in sorted
    order; ``df`` is test-set size minus the mean-parameter count.
    """

    values: np.ndarray
    df: int
    qq: np.ndarray


def rmse(pred: np.ndarray, obs: np.ndarray) -> float:
    """Root mean squared error over paired values."""
    pred = np.asarray(pred, dtype=float).ravel()
    obs = np.asarray(obs, dtype=float).ravel()
    if pred.size == 0:
        raise EmptyInput("rmse of empty vectors")
    if pred.shape != obs.shape:
        raise LengthMismatch(f"{pred.shape} vs {obs.shape}")
    return float(np.sqrt(np.mean((pred - obs) ** 2)))


def d_mr_hr(rmse_mr: float, rmse_hr: float) -> float:
    """Signed RMSE difference; negative favors the multiresolution emulator."""
    return rmse_mr - rmse_hr


def extent_metrics(pred: Grid, obs: Grid, flood_threshold: float = 0.0) -> MetricReport:
    """Flood-extent and depth metrics between a projection and an observation.

    A cell is flooded iff its depth strictly exceeds ``flood_threshold``;
    all counts and sums run over cells valid in both grids.

    fit = both / (obs + pred - both), correctness = both / obs,
    percent bias = 100 * sum(pred - obs) / sum(obs).
    """
    if not pred.same_geometry(obs):
        raise GeometryMismatch("projection and observation grids differ in geometry")
    valid = ~(pred.nodata_mask | obs.nodata_mask)
    p = pred.values[valid]
    z = obs.values[valid]
    wet_p = p > flood_threshold
    wet_z = z > flood_threshold
    flooded_obs = int(wet_z.sum())
    flooded_pred = int(wet_p.sum())
    flooded_both = int((wet_p & wet_z).sum())
    total_obs = float(z.sum())
    if flooded_obs == 0 or total_obs <= 0:
        raise NoObservedFlood("observation has no flooded cells")
    return MetricReport(
        rmse=rmse(p, z),
        percent_bias=float(100.0 * (p.sum() - total_obs) / total_obs),
        fit=flooded_both / (flooded_obs + flooded_pred - flooded_both),
        correctness=flooded_both / flooded_obs,
        flooded_obs=flooded_obs,
        flooded_pred=flooded_pred,
        flooded_both=flooded_both,
    )


def uspe(
    test_values: np.ndarray,
    pred_mean: np.ndarray,
    pred_cov: np.ndarray,
    n_mean_params: int,
) -> UspeReport:
    """Uncorrelated standardized prediction errors for a test set.

    Whitens residuals with the lower Cholesky factor of the predictive
    covariance in natural point order (the factor convention matters and is
    fixed here).  Theoretical quantiles come from the T distribution with
    ``len(test_values) - n_mean_params`` degrees of freedom.  LAPACK
    ``potrf`` factors and ``trtrs`` whitens: the calls scipy's ``cholesky``
    and ``solve_triangular`` make.  A non-finite input raises ValueError.
    """
    y = np.asarray_chkfinite(test_values, dtype=float).ravel()
    m = np.asarray_chkfinite(pred_mean, dtype=float).ravel()
    cov = np.asarray_chkfinite(pred_cov, dtype=float)
    if y.shape != m.shape or cov.shape != y.shape * 2:
        raise LengthMismatch(f"{y.shape}, {m.shape} and {cov.shape}")
    df = y.shape[0] - n_mean_params
    if df <= 0:
        raise NonPositiveDf(f"test size {y.shape[0]} <= mean parameters {n_mean_params}")
    chol, info = dpotrf(cov, lower=1, clean=1)
    if info:
        raise NotPositiveDefinite("predictive covariance not positive definite")
    values = dtrtrs(chol, y - m, lower=1)[0]
    order = np.sort(values)
    probs = (np.arange(1, y.shape[0] + 1) - 0.5) / y.shape[0]
    # the T quantile function itself (what scipy.stats.t.ppf evaluates): scipy.stats
    # would add about half a second to the stage's start-up
    theoretical = stdtrit(df, probs)
    return UspeReport(values=values, df=df, qq=np.column_stack([order, theoretical]))


def summarize_d(values: np.ndarray) -> tuple[float, float, float, float]:
    """(Q1, median, mean, Q3) with linear-interpolation quantiles."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise EmptyInput("no values to summarize")
    q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return float(q1), float(med), float(values.mean()), float(q3)


def format_d_table(rows: dict) -> str:
    """Render {label: (Q1, median, mean, Q3)} in the standard table layout."""
    lines = [f"{'':<12} {'Q1':>8} {'Median':>8} {'Mean':>8} {'Q3':>8}"]
    for label, (q1, med, mean, q3) in rows.items():
        lines.append(f"{label:<12} {q1:>8.3f} {med:>8.3f} {mean:>8.3f} {q3:>8.3f}")
    return "\n".join(lines) + "\n"
