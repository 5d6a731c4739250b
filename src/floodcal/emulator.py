"""Multiresolution Gaussian-process emulator for reduced scores.

One GP is fitted per principal component.  The expensive process is modeled
as rho times the latent cheap process plus an independent GP, linear trend
coefficients for both fidelities carry a normal prior and are integrated
out analytically, and the remaining hyperparameters are estimated by MAP
with multi-start L-BFGS-B on the exact gradient of the marginal log
posterior (Rasmussen & Williams 2006, 5.4.1), stopped at a relative
objective change of ``FTOL``.  The single-resolution comparison baseline is
the same model with no cheap rows and rho = 0.

All covariance evaluation happens in unit-scaled parameter coordinates;
``fit_multires`` / ``fit_singleres`` handle the scaling, the lower-level
operations expect scaled inputs.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

from .design import EXPENSIVE, Design, ParameterSpace
from .errors import AllStartsFailed, ExtrapolationWarning, MalformedArtifact, NotPositiveDefinite
from .manifest import load_array, read_csv, read_manifest, write_manifest
from . import kernels

JITTER_START = 1e-10  # relative to trace(M)/dim, escalates x10
JITTER_MAX = 1e-6
LOG_BOUNDS = (-16.0, 10.0)
RHO_BOUNDS = (-10.0, 10.0)
FTOL = 1e-12  # L-BFGS-B stops once a step lowers -log posterior by less than this, relatively


def __getattr__(name):
    # scipy.optimize costs about 0.2 s of import; only stages that fit load it
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class EmulatorParams:
    """Hyperparameters of one per-component multiresolution GP.

    ``range_cheap`` / ``range_exp`` are the squared-exponential range
    parameters (one per input dimension, scaled units squared); ``var_*``
    the process variances and ``nugget_*`` the nugget variances, all in
    score units squared.
    """

    rho: float
    var_cheap: float
    var_exp: float
    nugget_cheap: float
    nugget_exp: float
    range_cheap: np.ndarray
    range_exp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "range_cheap", np.atleast_1d(np.asarray(self.range_cheap, dtype=float)))
        object.__setattr__(self, "range_exp", np.atleast_1d(np.asarray(self.range_exp, dtype=float)))
        for name in ("var_cheap", "var_exp", "nugget_cheap", "nugget_exp"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if np.any(self.range_cheap <= 0) or np.any(self.range_exp <= 0):
            raise ValueError("range parameters must be positive")


@dataclass(frozen=True)
class HrParams:
    """Hyperparameters of one single-resolution (expensive-only) GP."""

    var: float
    nugget: float
    range_: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "range_", np.atleast_1d(np.asarray(self.range_, dtype=float)))
        if not (self.var > 0 and self.nugget > 0) or np.any(self.range_ <= 0):
            raise ValueError("HR parameters must be positive")


@dataclass(frozen=True)
class TrendPrior:
    """Normal prior on the stacked (cheap, expensive) trend coefficients."""

    mean: np.ndarray
    cov_cheap: np.ndarray
    cov_exp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov_cheap", np.asarray(self.cov_cheap, dtype=float))
        object.__setattr__(self, "cov_exp", np.asarray(self.cov_exp, dtype=float))
        k1 = self.cov_cheap.shape[0]
        if self.cov_cheap.shape != (k1, k1) or self.cov_exp.shape != (k1, k1):
            raise ValueError("trend covariance blocks must be square and equal-sized")
        if self.mean.shape != (2 * k1,):
            raise ValueError("trend mean must have length 2*(k+1)")

    @property
    def block_cov(self) -> np.ndarray:
        k1 = self.cov_cheap.shape[0]
        cov = np.zeros((2 * k1, 2 * k1))
        cov[:k1, :k1] = self.cov_cheap
        cov[k1:, k1:] = self.cov_exp
        return cov


def default_trend_prior(k: int) -> TrendPrior:
    """Standard-normal prior on all trend coefficients."""
    return TrendPrior(np.zeros(2 * (k + 1)), np.eye(k + 1), np.eye(k + 1))


@dataclass(frozen=True)
class HyperPriors:
    """Priors on the GP hyperparameters.

    Variances and nuggets are inverse-gamma (shape, rate), ranges are gamma
    (shape, rate), rho is normal (mean, variance).
    """

    var_cheap: tuple = (2.0, 2.0)
    var_exp: tuple = (2.0, 2.0)
    nugget_cheap: tuple = (2.0, 2.0)
    nugget_exp: tuple = (2.0, 2.0)
    range_cheap: tuple = (2.0, 2.0)
    range_exp: tuple = (2.0, 2.0)
    rho_mean: float = 1.0
    rho_var: float = 1.0 / 3.0

    def __post_init__(self):
        for name in ("var_cheap", "var_exp", "nugget_cheap", "nugget_exp", "range_cheap", "range_exp"):
            shape, rate = getattr(self, name)
            if not (shape > 0 and rate > 0):
                raise ValueError(f"{name} shape and rate must be positive")
        if not self.rho_var > 0:
            raise ValueError("rho_var must be positive")


@dataclass(frozen=True)
class PredictiveDistribution:
    """Per-component predictive means and variances at one setting."""

    mean: np.ndarray
    variance: np.ndarray
    extrapolated: bool = False


# --- gram assembly ----------------------------------------------------------


def _mean_basis(theta: np.ndarray) -> np.ndarray:
    """Linear trend basis (1, theta) per row."""
    theta = np.atleast_2d(theta)
    return np.hstack([np.ones((theta.shape[0], 1)), theta])


def cholesky(m: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK ``potrf``: M's lower factor, upper triangle zeroed, and ``info``.

    ``info`` > 0 means M is not positive definite.  This is the call
    ``scipy.linalg.cholesky(m, lower=True)`` makes, without its finiteness
    scan and shape checks; the factor is Fortran-ordered.
    """
    return dpotrf(m, lower=1, clean=1)


def _chol_with_jitter(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor, escalating diagonal jitter on failure.

    Returns (chol, possibly-jittered matrix); raises NotPositiveDefinite
    once the jitter cap is reached.
    """
    chol, info = cholesky(m)
    if not info:
        return chol, m
    base = np.trace(m) / m.shape[0]
    jitter = JITTER_START
    while jitter <= JITTER_MAX * (1 + 1e-12):
        mj = m + jitter * base * np.eye(m.shape[0])
        chol, info = cholesky(mj)
        if not info:
            return chol, mj
        jitter *= 10.0
    raise NotPositiveDefinite(
        f"gram matrix not positive definite after jitter escalation to {JITTER_MAX}"
    )


def _positives(params: EmulatorParams) -> np.ndarray:
    """The positive parameters in :func:`_params_to_x` order, unlogged."""
    return np.concatenate([[params.var_cheap, params.var_exp, params.nugget_cheap,
                            params.nugget_exp], params.range_cheap, params.range_exp])


class _FitWorkspace:
    """Design-fixed pieces of one emulator's training gram.

    The squared-distance tensors, the trend basis, the trend prior's blocks
    and the diagonal's layout depend on the design only; each gram then
    costs two dense exponentials.  A nugget is independent per-run noise: it
    sits on the diagonal only, so two runs of one fidelity at the same
    setting are two noisy looks at one value.
    """

    def __init__(self, theta_cheap, theta_exp, trend_prior: TrendPrior):
        theta_cheap = np.atleast_2d(np.asarray(theta_cheap, dtype=float))
        theta_exp = np.atleast_2d(np.asarray(theta_exp, dtype=float))
        self.trend = trend_prior
        self.p_c = p_c = theta_cheap.shape[0]
        stacked = np.vstack([theta_cheap, theta_exp])
        n = stacked.shape[0]
        self.k = theta_exp.shape[1]
        self.d2 = kernels.sq_dists(stacked, stacked)
        # a C-ordered copy of the expensive block, or d2 itself when there are no
        # cheap rows: BLAS rounds the two layouts differently, and fitted
        # parameters are pinned to these (tests/golden)
        self.d2_exp = np.ascontiguousarray(self.d2[:, p_c:, p_c:]) if p_c else self.d2
        self.diag = np.diag_indices(n)
        self.cheap_row = np.arange(n) < p_c
        self.b = trend_prior.block_cov
        self.b_sym = self.b + self.b.T

        k1 = self.k + 1
        he = _mean_basis(theta_exp)
        h0 = np.zeros((n, 2 * k1))
        h0[:p_c, :k1] = _mean_basis(theta_cheap)
        h0[p_c:, k1:] = he
        h1 = np.zeros_like(h0)
        h1[p_c:, :k1] = he
        self.h0 = h0
        self.h1 = h1

    def _assemble(self, pos: np.ndarray, rho: float):
        """H, the cheap and expensive correlation matrices, and M = V + H B H^T.

        ``pos`` holds the positive parameters in :func:`_params_to_x` order.
        The one place M is formed, symmetrized and before any jitter: the
        MAP objective, its gradient and emulator construction share it.
        """
        k, p_c = self.k, self.p_c
        var_c, var_e, nug_c, nug_e = pos[:4].tolist()
        corr_c = kernels.sq_exp_corr(self.d2, 1.0 / pos[4 : 4 + k])
        corr_e = kernels.sq_exp_corr(self.d2_exp, 1.0 / pos[4 + k :])
        m = kernels.gp_cov_from_corr(corr_c, corr_e, p_c, p_c, rho, var_c, var_e)
        m[self.diag] += np.where(self.cheap_row, nug_c, nug_e)
        h = self.h0 + rho * self.h1  # [[h(theta_c), 0], [rho h(theta_e), h(theta_e)]]
        m += h @ self.b @ h.T
        return h, corr_c, corr_e, 0.5 * (m + m.T)

    def factored(self, params: EmulatorParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """H, M = V + H B H^T with any jitter it needed, and M's Cholesky factor."""
        h, _, _, m = self._assemble(_positives(params), params.rho)
        chol, m = _chol_with_jitter(m)
        return h, m, chol

    def neg_log_posterior_and_grad(self, x: np.ndarray, scores: np.ndarray,
                                   hp: HyperPriors) -> tuple[float, np.ndarray]:
        """-log posterior and its exact gradient at ``x``, in :func:`_params_to_x`
        coordinates.

        With r = t - H m, alpha = M^-1 r and W = alpha alpha^T - M^-1, the
        log-likelihood derivative along any coordinate is
        1/2 sum(W o dM) - alpha^T dr (Rasmussen & Williams 2006, 5.4.1); only
        rho moves r, by -h1 m.  Any jitter :func:`_chol_with_jitter` had to
        add counts as a constant.  Raises NotPositiveDefinite when no jitter
        makes M factorable.
        """
        k, p_c = self.k, self.p_c
        pos = np.exp(x[: 4 + 2 * k])  # the slice and the call _x_to_params makes
        rho = float(x[-1])
        var_c, var_e, nug_c, nug_e = pos[:4].tolist()
        range_c, range_e = pos[4 : 4 + k], pos[4 + k :]
        h, corr_c, corr_e, m = self._assemble(pos, rho)
        chol = _chol_with_jitter(m)[0]
        del m
        resid = scores - h @ self.trend.mean
        # the factor's diagonal is positive, so neither solve can fail
        white = dtrtrs(chol, resid, lower=1)[0]
        log_post = (-0.5 * (len(resid) * math.log(2 * math.pi) + white @ white)
                    - np.sum(np.log(np.diag(chol))) + _log_hyperprior(pos, rho, hp))
        alpha = dpotrs(chol, resid, lower=1)[0]

        # W in place of the factor: dpotri leaves M^-1 in its lower triangle
        w, info = dpotri(chol, lower=1, overwrite_c=1)
        if info:
            raise NotPositiveDefinite("gram factor is singular")
        w += w.T  # the upper triangle was zero
        w[self.diag] *= 0.5
        np.subtract(np.outer(alpha, alpha), w, out=w)

        # cheap kernel var_c (a a^T) o C_c, with a = 1 on cheap rows and rho on
        # expensive ones: d(a a^T)/drho = e a^T + a e^T, e the expensive indicator;
        # dC/dlog range_d = C o d2_d / range_d, so one dot gives all k traces
        amp = np.ones(len(resid))
        amp[p_c:] = rho
        wc = np.multiply(corr_c, w, out=corr_c)
        u = wc @ amp
        g_var_c = 0.5 * var_c * (amp @ u)
        g_rho = var_c * np.sum(u[p_c:])
        wc *= amp[:, None]
        wc *= amp
        g_range_c = 0.5 * var_c / range_c * np.dot(self.d2.reshape(k, -1), wc.ravel())
        # expensive kernel var_e C_e on the expensive block
        we = np.multiply(corr_e, w[p_c:, p_c:], out=corr_e)
        g_var_e = 0.5 * var_e * np.sum(we)
        g_range_e = 0.5 * var_e / range_e * np.dot(self.d2_exp.reshape(k, -1), we.ravel())
        # nuggets sit on the diagonal: dM/dlog nugget is nugget times I on its block
        g_nug_c = 0.5 * nug_c * np.trace(w[:p_c, :p_c])
        g_nug_e = 0.5 * nug_e * np.trace(w[p_c:, p_c:])
        # d(H B H^T)/drho = h1 B H^T + H B h1^T, and the trend-mean term
        g_rho += 0.5 * np.sum((h.T @ (w @ self.h1)) * self.b_sym)
        g_rho += alpha @ (self.h1 @ self.trend.mean)

        grad = np.concatenate([[g_var_c, g_var_e, g_nug_c, g_nug_e], g_range_c, g_range_e, [g_rho]])
        return -log_post, -(grad + _log_hyperprior_grad(pos, rho, hp))


def joint_gram(
    theta_cheap: np.ndarray,
    theta_exp: np.ndarray,
    params: EmulatorParams,
    trend_prior: TrendPrior,
) -> tuple[np.ndarray, np.ndarray]:
    """Trend matrix H and marginal covariance M = V + H B H^T.

    M comes back with whatever diagonal jitter was needed for a Cholesky
    factorization to succeed.
    """
    h, m, _ = _FitWorkspace(theta_cheap, theta_exp, trend_prior).factored(params)
    return h, m


# --- posterior density -------------------------------------------------------


def _invgamma_logpdf(x: float, shape: float, rate: float) -> float:
    return shape * math.log(rate) - math.lgamma(shape) - (shape + 1) * math.log(x) - rate / x


def _gamma_logpdf(x: float, shape: float, rate: float) -> float:
    return shape * math.log(rate) - math.lgamma(shape) + (shape - 1) * math.log(x) - rate * x


def _normal_logpdf(x: float, mean: float, var: float) -> float:
    return -0.5 * (math.log(2 * math.pi * var) + (x - mean) ** 2 / var)


def _log_hyperprior(pos: np.ndarray, rho: float, hp: HyperPriors) -> float:
    """Log hyperprior density; ``pos`` as in :meth:`_FitWorkspace._assemble`."""
    k = (len(pos) - 4) // 2
    var_c, var_e, nug_c, nug_e = pos[:4].tolist()
    out = _invgamma_logpdf(var_c, *hp.var_cheap)
    out += _invgamma_logpdf(var_e, *hp.var_exp)
    out += _invgamma_logpdf(nug_c, *hp.nugget_cheap)
    out += _invgamma_logpdf(nug_e, *hp.nugget_exp)
    out += sum(_gamma_logpdf(v, *hp.range_cheap) for v in pos[4 : 4 + k].tolist())
    out += sum(_gamma_logpdf(v, *hp.range_exp) for v in pos[4 + k :].tolist())
    out += _normal_logpdf(rho, hp.rho_mean, hp.rho_var)
    return out


def _log_hyperprior_grad(pos: np.ndarray, rho: float, hp: HyperPriors) -> np.ndarray:
    """Gradient of :func:`_log_hyperprior` in :func:`_params_to_x` coordinates."""

    def invgamma(x, shape_rate):
        shape, rate = shape_rate
        return rate / x - (shape + 1)

    def gamma(x, shape_rate):
        shape, rate = shape_rate
        return (shape - 1) - rate * x

    k = (len(pos) - 4) // 2
    var_c, var_e, nug_c, nug_e = pos[:4].tolist()
    return np.concatenate([
        [invgamma(var_c, hp.var_cheap), invgamma(var_e, hp.var_exp),
         invgamma(nug_c, hp.nugget_cheap), invgamma(nug_e, hp.nugget_exp)],
        gamma(pos[4 : 4 + k], hp.range_cheap),
        gamma(pos[4 + k :], hp.range_exp),
        [(hp.rho_mean - rho) / hp.rho_var],
    ])


def log_posterior(
    params: EmulatorParams,
    hyperpriors: HyperPriors,
    scores: np.ndarray,
    theta_cheap: np.ndarray,
    theta_exp: np.ndarray,
    trend_prior: TrendPrior,
) -> float:
    """Marginal log posterior of one component's hyperparameters: minus the
    MAP objective at ``params``.

    Non-positive-definite grams count as rejected points (-inf).
    """
    ws = _FitWorkspace(theta_cheap, theta_exp, trend_prior)
    try:
        val, _ = ws.neg_log_posterior_and_grad(_params_to_x(params),
                                               np.asarray(scores, dtype=float), hyperpriors)
    except NotPositiveDefinite:
        return -np.inf
    return -val


# --- MAP fitting -------------------------------------------------------------


def _params_to_x(params: EmulatorParams) -> np.ndarray:
    return np.concatenate(
        [
            np.log(
                [params.var_cheap, params.var_exp, params.nugget_cheap, params.nugget_exp]
            ),
            np.log(params.range_cheap),
            np.log(params.range_exp),
            [params.rho],
        ]
    )


def _x_to_params(x: np.ndarray, k: int) -> EmulatorParams:
    logs = np.exp(x[: 4 + 2 * k])
    return EmulatorParams(
        rho=float(x[-1]),
        var_cheap=float(logs[0]),
        var_exp=float(logs[1]),
        nugget_cheap=float(logs[2]),
        nugget_exp=float(logs[3]),
        range_cheap=logs[4 : 4 + k],
        range_exp=logs[4 + k : 4 + 2 * k],
    )


def _draw_start(hp: HyperPriors, k: int, rng: np.random.Generator) -> EmulatorParams:
    def ig(shape_rate):
        shape, rate = shape_rate
        return 1.0 / rng.gamma(shape, 1.0 / rate)

    def gam(shape_rate, size=None):
        shape, rate = shape_rate
        return rng.gamma(shape, 1.0 / rate, size=size)

    return EmulatorParams(
        rho=float(rng.normal(hp.rho_mean, math.sqrt(hp.rho_var))),
        var_cheap=ig(hp.var_cheap),
        var_exp=ig(hp.var_exp),
        nugget_cheap=ig(hp.nugget_cheap),
        nugget_exp=ig(hp.nugget_exp),
        range_cheap=gam(hp.range_cheap, k),
        range_exp=gam(hp.range_exp, k),
    )


def fit(
    scores: np.ndarray,
    theta_cheap: np.ndarray,
    theta_exp: np.ndarray,
    hyperpriors: HyperPriors | None = None,
    trend_prior: TrendPrior | None = None,
    n_starts: int = 8,
    seed: int = 0,
    extra_starts: tuple = (),
) -> EmulatorParams:
    """MAP estimate of one component's hyperparameters.

    L-BFGS-B runs from ``n_starts`` hyperprior draws (plus any
    ``extra_starts``) over log-transformed positive parameters and raw rho;
    the best end point wins and is never worse than any probed start.  Each
    step evaluates -log posterior and its closed-form gradient together
    (``jac=True``) straight from the x vector, with one LAPACK Cholesky
    factorization (``potrf``), two solves and one ``potri`` inverse per
    evaluation.  A start is evaluated once: L-BFGS-B's first call, at the
    start itself, reuses the value and gradient ``fit`` computed to rank
    it.  A run stops when a step lowers the objective by less than ``FTOL``
    relatively, when the largest projected gradient falls below 1e-5, or
    after 200 iterations.  A gram that stays non-positive-definite after
    jitter returns the value 1e12 with a zero gradient, so the line search
    backs off from it.  A start whose own value is 1e12 gets no run, so with
    ``n_starts=0`` and one extra start that fails there, ``fit`` raises
    AllStartsFailed.  ``minimize`` is looked up on this module at each
    call, so a wrapper set there sees every run.

    An empty cheap block gives the single-resolution baseline: rho stays
    at 0, the cheap parameters at 1, and only the expensive variance,
    nugget and ranges are optimised.
    """
    theta_cheap = np.atleast_2d(np.asarray(theta_cheap, dtype=float))
    theta_exp = np.atleast_2d(np.asarray(theta_exp, dtype=float))
    if theta_exp.shape[0] < 2 or theta_cheap.shape[0] == 1:
        raise ValueError("need at least 2 expensive and either 0 or at least 2 cheap design points")
    k = theta_exp.shape[1]
    if hyperpriors is None:
        hyperpriors = HyperPriors()
    if trend_prior is None:
        trend_prior = default_trend_prior(k)
    scores = np.asarray(scores, dtype=float)
    ws = _FitWorkspace(theta_cheap, theta_exp, trend_prior)

    n_x = 5 + 2 * k
    all_bounds = [LOG_BOUNDS] * (n_x - 1) + [RHO_BOUNDS]
    # without cheap rows only log var_exp, log nugget_exp and log range_exp are free
    free = np.arange(n_x) if ws.p_c else np.r_[1, 3, 4 + k : 4 + 2 * k]
    bounds = [all_bounds[i] for i in free]

    def full_x(x):
        full = np.zeros(n_x)  # log 1 and rho = 0 for the parameters held fixed
        full[free] = x
        return full

    def evaluate(x):
        # a gram that stays non-PD is a wall L-BFGS-B backtracks from
        try:
            val, grad = ws.neg_log_posterior_and_grad(full_x(x), scores, hyperpriors)
        except NotPositiveDefinite:
            return 1e12, np.zeros(len(free))
        if not (np.isfinite(val) and np.all(np.isfinite(grad))):
            return 1e12, np.zeros(len(free))
        return val, grad[free]

    start_eval = {}  # the current start's bytes -> its evaluation

    def objective(x):
        cached = start_eval.get(x.tobytes())
        return evaluate(x) if cached is None else cached

    rng = np.random.default_rng(seed)
    starts = [_draw_start(hyperpriors, k, rng) for _ in range(n_starts)]
    starts.extend(extra_starts)

    best_x = None
    best_val = np.inf
    for start in starts:
        x0 = np.clip(
            _params_to_x(start)[free],
            [b[0] for b in bounds],
            [b[1] for b in bounds],
        )
        start_eval.clear()
        start_eval[x0.tobytes()] = evaluation = evaluate(x0)
        f0 = evaluation[0]
        if f0 < best_val:
            best_val, best_x = f0, x0
        if f0 >= 1e12:
            continue
        res = sys.modules[__name__].minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 200, "ftol": FTOL},
        )
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val, best_x = res.fun, res.x
    if best_x is None or best_val >= 1e12:
        raise AllStartsFailed("no optimizer start produced a finite posterior")
    return _x_to_params(full_x(best_x), k)


# --- fitted emulators --------------------------------------------------------


class MultiResEmulator:
    """Fitted per-component multiresolution GPs over a parameter space.

    With no cheap rows and rho = 0 it is the single-resolution baseline;
    :func:`singleres_emulator` builds that case.

    Construction also sets the arrays :mod:`.kernels` predicts from, over
    the J components: the ``n`` stacked training settings ``theta``
    (``n_cheap`` cheap rows first); ``rho, var_c, var_e, nug_e, inv_range_c,
    inv_range_e``; the trend-prior cross blocks ``trend_w`` (``B H^T``); the
    lower gram factors ``chol`` and the gram-solved centred scores
    ``alpha``; ``cross_coef``, a test row's rho-scaled ``var_c``; and, per
    component, the operands a prediction reads: :func:`.kernels.cross_cov`'s
    ``cross_terms`` and :func:`.kernels.predict_scores`' ``predict_terms``.
    """

    def __init__(self, space, theta_cheap, theta_exp, scores_cheap, scores_exp,
                 params_list, trend_prior, hyperpriors, seed, n_starts):
        self.space = space
        self.theta_cheap = np.atleast_2d(theta_cheap)
        self.theta_exp = np.atleast_2d(theta_exp)
        self.scores_cheap = np.atleast_2d(scores_cheap)
        self.scores_exp = np.atleast_2d(scores_exp)
        self.params_list = list(params_list)
        self.trend_prior = trend_prior
        self.hyperpriors = hyperpriors
        self.seed = seed
        self.n_starts = n_starts
        ws = _FitWorkspace(self.theta_cheap, self.theta_exp, trend_prior)
        trend_w, chols, alphas = [], [], []
        for j, params in enumerate(self.params_list):
            h, _, chol_m = ws.factored(params)
            t = np.concatenate([self.scores_cheap[:, j], self.scores_exp[:, j]])
            trend_w.append(trend_prior.block_cov @ h.T)
            chols.append(chol_m)
            alphas.append(cho_solve((chol_m, True), t - h @ trend_prior.mean))
        p = self.params_list
        self.theta = np.vstack([self.theta_cheap, self.theta_exp])
        self.n_cheap = self.theta_cheap.shape[0]
        self.rho = np.array([q.rho for q in p])
        self.var_c = np.array([q.var_cheap for q in p])
        self.var_e = np.array([q.var_exp for q in p])
        self.nug_e = np.array([q.nugget_exp for q in p])
        self.inv_range_c = np.array([1.0 / q.range_cheap for q in p])
        self.inv_range_e = np.array([1.0 / q.range_exp for q in p])
        self.trend_w = np.array(trend_w)
        self.chol = np.array(chols)
        self.alpha = np.array(alphas)
        amp = np.ones((len(self.rho), self.theta.shape[0]))
        amp[:, self.n_cheap:] = self.rho[:, None]
        self.cross_coef = self.var_c[:, None] * (self.rho[:, None] * amp)
        self.cross_terms = list(zip(self.cross_coef, -self.inv_range_c, self.var_e,
                                    -self.inv_range_e))
        k1 = self.theta.shape[1] + 1
        self.predict_terms = [
            (float(r), float(r**2), np.repeat([r, 1.0], k1), w, a, c.T,
             float(r**2 * vc + ve + ne), float(ne))
            for r, vc, ve, ne, w, a, c in zip(self.rho, self.var_c, self.var_e, self.nug_e,
                                               self.trend_w, self.alpha, self.chol)]

    @property
    def uses_cheap(self) -> bool:
        """False in the single-resolution case: no cheap rows and rho = 0."""
        return self.theta_cheap.shape[0] > 0 or any(p.rho != 0 for p in self.params_list)

    @property
    def n_components(self) -> int:
        return len(self.params_list)

    @property
    def n_trend_params(self) -> int:
        """Trend coefficients the scores inform; in the single-resolution
        case the cheap ones drop out."""
        k1 = self.theta_exp.shape[1] + 1
        return 2 * k1 if self.uses_cheap else k1


def _hr_as_mr(hr: HrParams) -> EmulatorParams:
    # inert cheap parameters: rho = 0 removes them from every formula
    return EmulatorParams(
        rho=0.0,
        var_cheap=1.0,
        var_exp=hr.var,
        nugget_cheap=1.0,
        nugget_exp=hr.nugget,
        range_cheap=np.ones_like(hr.range_),
        range_exp=hr.range_,
    )


def _singleres_trend(trend_mean, trend_cov) -> TrendPrior:
    k1 = len(trend_mean)
    return TrendPrior(np.concatenate([np.zeros(k1), trend_mean]), np.zeros((k1, k1)), trend_cov)


def singleres_emulator(space, theta_exp, scores_exp, params_list, trend_mean, trend_cov,
                       hyperpriors, seed, n_starts) -> MultiResEmulator:
    """The expensive-only baseline: an emulator with no cheap rows and rho = 0.

    ``params_list`` holds one :class:`HrParams` per score column;
    ``trend_mean`` and ``trend_cov`` are the prior of the expensive trend.
    """
    theta_exp = np.atleast_2d(theta_exp)
    scores_exp = np.atleast_2d(scores_exp)
    return MultiResEmulator(
        space, np.zeros((0, theta_exp.shape[1])), theta_exp,
        np.zeros((0, scores_exp.shape[1])), scores_exp,
        [_hr_as_mr(p) for p in params_list], _singleres_trend(trend_mean, trend_cov),
        hyperpriors, seed, n_starts,
    )


def child_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds spawned from ``seed``."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n)]


def thread_map(func, items, threads: int) -> list:
    """``[func(item) for item in items]``, on a pool of ``threads`` workers when above 1.

    One thread runs every call in the caller, with no pool: a pool even of
    one worker raised stress peak RSS from 106 to 112 MB on a 2-vCPU VM.
    Results keep the order of ``items``; the first failing item's exception
    propagates unchanged.
    """
    if threads <= 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(func, items))


def fit_multires(
    design: Design,
    scores: np.ndarray,
    hyperpriors: HyperPriors | None = None,
    trend_prior: TrendPrior | None = None,
    n_starts: int = 8,
    seed: int = 0,
    threads: int = 1,
    warm: list | None = None,
) -> MultiResEmulator:
    """Fit one multiresolution GP per score column.

    ``scores`` rows follow the ensemble convention (expensive block first).
    Per-component seeds derive from ``seed``, so the thread count does not
    change results.

    ``warm``, one :class:`EmulatorParams` per score column, warm-starts the
    fit: component j makes one L-BFGS-B run from ``warm[j]`` and draws no
    random start.  Only when ``warm[j]`` has no finite posterior does it
    fall back to the ``n_starts`` random starts of the cold fit, from the
    same seed.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    space = design.space
    p_e = design.n_expensive
    theta_exp = space.scale(design.expensive_points)
    theta_cheap = space.scale(design.cheap_points)
    scores_exp = scores[:p_e]
    scores_cheap = scores[p_e:]
    if hyperpriors is None:
        hyperpriors = HyperPriors()
    if trend_prior is None:
        trend_prior = default_trend_prior(space.k)
    seeds = child_seeds(seed, scores.shape[1])

    def fit_one(j):
        t = np.concatenate([scores_cheap[:, j], scores_exp[:, j]])
        if warm is not None:
            try:
                return fit(t, theta_cheap, theta_exp, hyperpriors, trend_prior,
                           n_starts=0, seed=seeds[j], extra_starts=(warm[j],))
            except AllStartsFailed:
                pass
        return fit(t, theta_cheap, theta_exp, hyperpriors, trend_prior,
                   n_starts=n_starts, seed=seeds[j])

    params_list = thread_map(fit_one, range(scores.shape[1]), threads)
    return MultiResEmulator(
        space, theta_cheap, theta_exp, scores_cheap, scores_exp,
        params_list, trend_prior, hyperpriors, seed, n_starts,
    )


def fit_singleres(
    design: Design,
    scores_exp: np.ndarray,
    hyperpriors: HyperPriors | None = None,
    trend_mean: np.ndarray | None = None,
    trend_cov: np.ndarray | None = None,
    n_starts: int = 8,
    seed: int = 0,
    threads: int = 1,
    warm: list | None = None,
) -> MultiResEmulator:
    """Fit the expensive-only baseline: :func:`fit_multires` on the expensive
    block, with ``trend_mean`` and ``trend_cov`` the expensive trend's prior.
    ``warm`` parameters are read in that form: only their expensive variance,
    nugget and ranges count."""
    space = design.space
    if trend_mean is None:
        trend_mean = np.zeros(space.k + 1)
    if trend_cov is None:
        trend_cov = np.eye(space.k + 1)
    expensive = Design(design.expensive_points, [EXPENSIVE] * design.n_expensive, space)
    return fit_multires(expensive, scores_exp, hyperpriors, _singleres_trend(trend_mean, trend_cov),
                        n_starts, seed, threads, warm)


# --- prediction ---------------------------------------------------------------


def predict(emulator, theta0: np.ndarray) -> PredictiveDistribution:
    """Predictive distribution of the expensive scores at ``theta0``.

    ``theta0`` is in native units.  Settings outside the training space are
    allowed but flagged (and warned about): the GP extrapolates there.
    """
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    extrapolated = not emulator.space.contains(theta0)
    if extrapolated:
        warnings.warn(
            f"predicting outside the parameter space at {theta0.tolist()}",
            ExtrapolationWarning,
            stacklevel=2,
        )
    mean, var = kernels.predict_scores(emulator.space.scale(theta0), emulator)
    return PredictiveDistribution(mean=mean, variance=var, extrapolated=extrapolated)


def predict_hr(emulator: MultiResEmulator, theta0: np.ndarray) -> PredictiveDistribution:
    """Single-resolution counterpart of :func:`predict`."""
    return predict(emulator, theta0)


def predict_many(emulator, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and variances, shape (m, n_components) each, at m settings."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    means = np.empty((thetas.shape[0], emulator.n_components))
    variances = np.empty_like(means)
    scaled = emulator.space.scale(thetas)
    for i in range(thetas.shape[0]):
        means[i], variances[i] = kernels.predict_scores(scaled[i], emulator)
    return means, variances


def predict_joint(emulator, thetas: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Joint predictive (mean vector, covariance matrix) per component.

    Used by validation diagnostics that whiten a whole test set at once;
    cross-covariances between test settings are included.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    scaled = emulator.space.scale(thetas)
    e = emulator
    d2_train = kernels.sq_dists(scaled, e.theta)
    d2_test = kernels.sq_dists(scaled, scaled)
    basis = _mean_basis(scaled)
    block_cov = e.trend_prior.block_cov
    out = []
    for j, cross in enumerate(kernels.cross_cov(d2_train, e.n_cheap, e.cross_terms)):
        a0 = np.hstack([e.rho[j] * basis, basis])
        cross = cross + a0 @ e.trend_w[j]
        mean = a0 @ e.trend_prior.mean + cross @ e.alpha[j]
        prior = kernels.gp_cov(d2_test, 0, 0, e.rho[j], e.var_c[j], e.var_e[j],
                               e.inv_range_c[j], e.inv_range_e[j]) + a0 @ block_cov @ a0.T
        prior[np.diag_indices_from(prior)] += e.nug_e[j]
        white = solve_triangular(e.chol[j], cross.T, lower=True)
        cov = prior - white.T @ white
        out.append((mean, 0.5 * (cov + cov.T)))
    return out


# --- archive --------------------------------------------------------------


_ARCHIVE_ARRAYS = ("theta_cheap", "theta_exp", "scores_cheap", "scores_exp",
                   "trend_mean", "trend_cov_cheap", "trend_cov_exp")


def save_emulator(emulator, directory) -> None:
    """Persist the fitted emulator; reloading reproduces predictions exactly.

    Every emulator writes the same files.  The single-resolution baseline is
    the case with zero-row cheap arrays, rho = 0 and cheap parameters at 1.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_manifest(directory / "emulator.json", {
        "type": "multires",
        "space": emulator.space.dims,
        "seed": emulator.seed,
        "n_starts": emulator.n_starts,
        "hyperpriors": asdict(emulator.hyperpriors),
        "input_scaling": "unit-hypercube",
    })
    for name in _ARCHIVE_ARRAYS:  # trend_mean is emulator.trend_prior.mean, and so on
        owner = emulator.trend_prior if name.startswith("trend_") else emulator
        np.save(directory / f"{name}.npy", getattr(owner, name.removeprefix("trend_")))

    k = emulator.theta_exp.shape[1]
    with open(directory / "params.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["component", "rho", "var_cheap", "var_exp", "nugget_cheap", "nugget_exp"]
        header += [f"range_cheap_{d}" for d in range(k)]
        header += [f"range_exp_{d}" for d in range(k)]
        writer.writerow(header)
        for j, prm in enumerate(emulator.params_list):
            row = [prm.rho, prm.var_cheap, prm.var_exp, prm.nugget_cheap, prm.nugget_exp]
            row += list(prm.range_cheap) + list(prm.range_exp)
            writer.writerow([j] + [f"{v:.17g}" for v in row])


def load_emulator(directory) -> MultiResEmulator:
    """Read an emulator written by :func:`save_emulator`.

    :func:`read_emulator_archive` parses and validates the files, then
    construction factors every component's training gram.
    """
    return MultiResEmulator(**read_emulator_archive(directory))


def read_emulator_archive(directory) -> dict:
    """Parse and validate an emulator archive without building the emulator.

    Returns :class:`MultiResEmulator`'s constructor arguments by name, so
    ``params_list`` costs no gram factorization.

    Raises
    ------
    MalformedArtifact
        If a file is unreadable or lacks a manifest key, the type is not
        ``multires``, the hyperpriors lack a key or have an unknown one, an
        array or parameter is not finite, a settings array and its scores
        disagree in row count, the parameter rows disagree with the score
        columns or the space's dimension count, a trend array is not sized
        for ``k + 1`` coefficients, or a parameter is not positive.
    """
    directory = Path(directory)
    try:
        manifest = read_manifest(directory / "emulator.json")
        kind, seed, n_starts = manifest["type"], manifest["seed"], manifest["n_starts"]
        if kind != "multires":
            raise MalformedArtifact(f"{directory}: emulator type {kind!r}, expected 'multires'")
        space = ParameterSpace(tuple((n, lo, hi) for n, lo, hi in manifest["space"]))
        hp_raw, hp_names = manifest["hyperpriors"], sorted(f.name for f in fields(HyperPriors))
        if sorted(hp_raw) != hp_names:
            raise MalformedArtifact(f"{directory}: hyperprior keys {sorted(hp_raw)}, "
                                    f"expected {hp_names}")
        hyperpriors = HyperPriors(**{name: tuple(v) if isinstance(v, list) else v
                                     for name, v in hp_raw.items()})
        arrays = {name: load_array(directory / f"{name}.npy") for name in _ARCHIVE_ARRAYS}
        rows = read_csv(directory / "params.csv", slice(1, None))[2]
    except (EOFError, KeyError, TypeError, ValueError) as err:
        raise MalformedArtifact(f"{directory}: unreadable emulator archive: {err!r}") from err

    k = space.k
    for fidelity in ("exp", "cheap"):
        theta, scores = arrays[f"theta_{fidelity}"], arrays[f"scores_{fidelity}"]
        if theta.ndim != 2 or scores.ndim != 2 or theta.shape != (len(scores), k):
            raise MalformedArtifact(
                f"{directory}: theta_{fidelity} has shape {theta.shape}, "
                f"scores_{fidelity} {scores.shape}, the space has {k} dimensions"
            )
        if scores.shape[1] != len(rows):
            raise MalformedArtifact(
                f"{directory}: scores_{fidelity} has {scores.shape[1]} columns, "
                f"params.csv {len(rows)} rows"
            )
    if any(len(r) != 5 + 2 * k for r in rows):
        raise MalformedArtifact(
            f"{directory}: params.csv rows need {5 + 2 * k} values for {k} dimensions"
        )
    k1 = k + 1
    for name, shape in (("trend_mean", (2 * k1,)), ("trend_cov_cheap", (k1, k1)),
                        ("trend_cov_exp", (k1, k1))):
        if arrays[name].shape != shape:
            raise MalformedArtifact(
                f"{directory}: {name} has shape {arrays[name].shape}, expected {shape}"
            )

    try:
        params_list = [
            EmulatorParams(
                rho=r[0], var_cheap=r[1], var_exp=r[2], nugget_cheap=r[3],
                nugget_exp=r[4], range_cheap=np.array(r[5 : 5 + k]),
                range_exp=np.array(r[5 + k :]),
            )
            for r in rows
        ]
    except ValueError as err:
        raise MalformedArtifact(f"{directory}: params.csv: {err}") from err
    trend_prior = TrendPrior(arrays["trend_mean"], arrays["trend_cov_cheap"],
                             arrays["trend_cov_exp"])
    return dict(space=space, theta_cheap=arrays["theta_cheap"], theta_exp=arrays["theta_exp"],
                scores_cheap=arrays["scores_cheap"], scores_exp=arrays["scores_exp"],
                params_list=params_list, trend_prior=trend_prior, hyperpriors=hyperpriors,
                seed=seed, n_starts=n_starts)
