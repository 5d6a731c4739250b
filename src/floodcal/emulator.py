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

import math
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import deferred
from .design import EXPENSIVE, Design, ParameterSpace
from .errors import AllStartsFailed, ExtrapolationWarning, MalformedArtifact, NotPositiveDefinite
from .manifest import read_archive, read_csv, read_manifest, write_archive
from . import kernels

dpotrf, dpotri, dpotrs, dtrtrs = deferred(
    globals(), "scipy.linalg.lapack", "dpotrf", "dpotri", "dpotrs", "dtrtrs")
(minimize,) = deferred(globals(), "scipy.optimize", "minimize")  # about 0.2 s more of import

JITTER_START = 1e-10  # relative to trace(M)/dim, escalates x10
JITTER_MAX = 1e-6
LOG_BOUNDS = (-16.0, 10.0)
RHO_BOUNDS = (-10.0, 10.0)
FTOL = 1e-12  # L-BFGS-B stops once a step lowers -log posterior by less than this, relatively


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


def cholesky(m: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, int]:
    """LAPACK ``potrf``: M's lower factor, upper triangle zeroed, and ``info``.

    ``info`` > 0 means M is not positive definite.  This is the call
    ``scipy.linalg.cholesky(m, lower=True)`` makes, without its finiteness
    scan and shape checks; the factor is Fortran-ordered.  With
    ``overwrite`` a Fortran-ordered ``m`` is factored in place, and after a
    failure holds a partial factor.
    """
    return dpotrf(m, lower=1, clean=1, overwrite_a=overwrite)


def _chol_with_jitter(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor, escalating diagonal jitter on failure.

    Returns (chol, possibly-jittered matrix); raises NotPositiveDefinite
    once the jitter cap is reached.
    """
    chol, info = cholesky(m)
    return (chol, m) if not info else _jitter_ladder(m)


def _jitter_ladder(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_chol_with_jitter` once the plain factorization of ``m`` failed."""
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


def _symmetrize(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(V + V^T) / 2, into ``out`` when one is given."""
    m = np.add(v, v.T, out=out)
    m *= 0.5
    return m


class _FitWorkspace:
    """Design-fixed pieces of one emulator's training gram, and the buffers
    the MAP objective builds each gram in.

    The squared-distance tensors, the trend basis, the trend prior's blocks
    and the diagonal's layout depend on the design only; each gram then
    costs two dense exponentials.  A nugget is independent per-run noise: it
    sits on the diagonal only, so two runs of one fidelity at the same
    setting are two noisy looks at one value.

    The objective's first call allocates three n x n buffers and one
    n_e x n_e buffer, and every gram-sized step of every call writes into
    them (see :meth:`_assemble`): the symmetrized M is factored in place by
    ``potrf`` and inverted in place by ``potri``, and W = alpha alpha^T - M^-1
    replaces M before symmetrizing.  Each step does the float operations of
    the allocating formulas in the same order, so values and gradients are
    bitwise those of fresh arrays.  A workspace is not reentrant: one fit,
    one thread.  :meth:`factored` forms a gram once per emulator component,
    where buffers would only add to peak memory, so it allocates, and what
    it returns owns its memory.
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
        self.b = trend_prior.block_cov
        self.b_sym = self.b + self.b.T

        k1 = self.k + 1
        basis = np.hstack([np.ones((n, 1)), stacked])  # the linear trend basis (1, theta)
        h0 = np.zeros((n, 2 * k1))
        h0[:p_c, :k1] = basis[:p_c]
        h0[p_c:, k1:] = basis[p_c:]
        h1 = np.zeros_like(h0)
        h1[p_c:, :k1] = basis[p_c:]
        self.h0 = h0
        self.h1 = h1
        self._buffers = None

    def _assemble(self, pos: np.ndarray, rho: float, buffers=(None,) * 4):
        """H, and M = V + H B H^T symmetrized and before any jitter.

        ``pos`` holds the positive parameters in :func:`_params_to_x` order.
        The one place M is formed: the MAP objective, its gradient and
        emulator construction share it.  ``buffers`` (a, b, c, e) receive the
        cheap correlation C_c, M before symmetrizing, M itself and the
        expensive correlation C_e; where one is None that step allocates.
        """
        a, b, c, e = buffers
        k, p_c = self.k, self.p_c
        var_c, var_e, nug_c, nug_e = pos[:4].tolist()
        corr_c = kernels.sq_exp_corr(self.d2, 1.0 / pos[4 : 4 + k], out=a)
        corr_e = kernels.sq_exp_corr(self.d2_exp, 1.0 / pos[4 + k :], out=e)
        v = kernels.cheap_cov(corr_c, p_c, p_c, rho, var_c, out=b)
        v[p_c:, p_c:] += np.multiply(corr_e, var_e, out=None if c is None else c[p_c:, p_c:])
        diag = v.reshape(-1)[:: len(v) + 1]
        diag[:p_c] += nug_c
        diag[p_c:] += nug_e
        h = self.h0 + rho * self.h1  # [[h(theta_c), 0], [rho h(theta_e), h(theta_e)]]
        v += np.matmul(h @ self.b, h.T, out=c)
        return h, _symmetrize(v, out=c)

    def factored(self, params: EmulatorParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """H, M = V + H B H^T with any jitter it needed, and M's Cholesky factor."""
        h, m = self._assemble(_positives(params), params.rho)
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
        n = len(scores)
        if self._buffers is None:
            self._buffers = (*(np.empty((n, n)) for _ in range(3)),
                             np.empty((n - p_c, n - p_c)))
        a, b, c, e = self._buffers
        pos = np.exp(x[: 4 + 2 * k])  # the slice and the call _x_to_params makes
        rho = float(x[-1])
        var_c, var_e, nug_c, nug_e = pos[:4].tolist()
        range_c, range_e = pos[4 : 4 + k], pos[4 + k :]
        h, m = self._assemble(pos, rho, self._buffers)
        # M is exactly symmetric, so its transpose is M in Fortran order: potrf
        # factors it in place with the bits of a copy
        chol, info = cholesky(m.T, overwrite=True)
        if info:
            chol = _jitter_ladder(_symmetrize(b, out=c))[0]  # potrf left c half-factored
        resid = scores - h @ self.trend.mean
        # the factor's diagonal is positive, so neither solve can fail
        white = dtrtrs(chol, resid, lower=1)[0]
        log_post = (-0.5 * (len(resid) * math.log(2 * math.pi) + white @ white)
                    - np.sum(np.log(np.diag(chol))) + _log_hyperprior(pos, rho, hp))
        alpha = dpotrs(chol, resid, lower=1)[0]

        # W into b: dpotri leaves M^-1 in the factor's lower triangle
        inv, info = dpotri(chol, lower=1, overwrite_c=1)
        if info:
            raise NotPositiveDefinite("gram factor is singular")
        w = np.add(inv, inv.T, out=b)  # the upper triangle was zero
        w.reshape(-1)[:: n + 1] *= 0.5
        np.subtract(np.outer(alpha, alpha, out=c), w, out=w)

        # cheap kernel var_c (a a^T) o C_c, with a = 1 on cheap rows and rho on
        # expensive ones: d(a a^T)/drho = e a^T + a e^T, e the expensive indicator;
        # dC/dlog range_d = C o d2_d / range_d, so one dot gives all k traces
        amp = np.ones(len(resid))
        amp[p_c:] = rho
        wc = np.multiply(a, w, out=a)
        u = wc @ amp
        g_var_c = 0.5 * var_c * (amp @ u)
        g_rho = var_c * np.sum(u[p_c:])
        wc[p_c:] *= rho  # wc *= a a^T: the cheap block's factor 1.0 is exact
        wc[:, p_c:] *= rho
        g_range_c = 0.5 * var_c / range_c * np.dot(self.d2.reshape(k, -1), wc.ravel())
        # expensive kernel var_e C_e on the expensive block
        we = np.multiply(e, w[p_c:, p_c:], out=e)
        g_var_e = 0.5 * var_e * np.sum(we)
        g_range_e = 0.5 * var_e / range_e * np.dot(self.d2_exp.reshape(k, -1), we.ravel())
        # nuggets sit on the diagonal: dM/dlog nugget is nugget times I on its block
        g_nug_c = 0.5 * nug_c * np.trace(w[:p_c, :p_c])
        g_nug_e = 0.5 * nug_e * np.trace(w[p_c:, p_c:])
        # d(H B H^T)/drho = h1 B H^T + H B h1^T, and the trend-mean term; W is
        # exactly symmetric, and w.T is the Fortran layout BLAS is pinned to
        g_rho += 0.5 * np.sum((h.T @ (w.T @ self.h1)) * self.b_sym)
        g_rho += alpha @ (self.h1 @ self.trend.mean)

        grad = np.concatenate([[g_var_c, g_var_e, g_nug_c, g_nug_e], g_range_c, g_range_e, [g_rho]])
        return -log_post, -(grad + _log_hyperprior_grad(pos, rho, hp))


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
        res = minimize(
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

    With no cheap rows and rho = 0 it is the single-resolution baseline,
    which :func:`fit_singleres` fits.

    Construction factors each component's training gram once and keeps
    what a prediction reads: the ``n`` stacked training settings ``theta``
    (``n_cheap`` cheap rows first) and, per component, the operands of
    :func:`.kernels.prediction_operands`, ``cross_terms`` and
    ``predict_terms``.
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
        self.theta = np.vstack([self.theta_cheap, self.theta_exp])
        self.n_cheap = self.theta_cheap.shape[0]
        ws = _FitWorkspace(self.theta_cheap, self.theta_exp, trend_prior)
        self.cross_terms, self.predict_terms = [], []
        for j, params in enumerate(self.params_list):
            h, _, chol = ws.factored(params)
            t = np.concatenate([self.scores_cheap[:, j], self.scores_exp[:, j]])
            alpha = dpotrs(chol, t - h @ trend_prior.mean, lower=1)[0]
            cross, terms = kernels.prediction_operands(
                params, self.n_cheap, trend_prior.block_cov @ h.T, chol, alpha)
            self.cross_terms.append(cross)
            self.predict_terms.append(terms)

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


def child_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds spawned from ``seed``."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n)]


def fit_multires(
    design: Design,
    scores: np.ndarray,
    hyperpriors: HyperPriors | None = None,
    trend_prior: TrendPrior | None = None,
    n_starts: int = 8,
    seed: int = 0,
    warm: list | None = None,
) -> MultiResEmulator:
    """Fit one multiresolution GP per score column.

    ``scores`` rows follow the ensemble convention (expensive block first).
    Each component's starts draw from its own seed, derived from ``seed``.

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

    params_list = [fit_one(j) for j in range(scores.shape[1])]
    return MultiResEmulator(
        space, theta_cheap, theta_exp, scores_cheap, scores_exp,
        params_list, trend_prior, hyperpriors, seed, n_starts,
    )


def fit_singleres(
    design: Design,
    scores_exp: np.ndarray,
    hyperpriors: HyperPriors | None = None,
    n_starts: int = 8,
    seed: int = 0,
    warm: list | None = None,
) -> MultiResEmulator:
    """Fit the expensive-only baseline: :func:`fit_multires` on the expensive
    block, whose trend carries a standard-normal prior and the cheap trend
    none.  ``warm`` parameters are read in that form: only their expensive
    variance, nugget and ranges count."""
    k1 = design.space.k + 1
    expensive = Design(design.expensive_points, [EXPENSIVE] * design.n_expensive, design.space)
    trend = TrendPrior(np.zeros(2 * k1), np.zeros((k1, k1)), np.eye(k1))
    return fit_multires(expensive, scores_exp, hyperpriors, trend, n_starts, seed, warm)


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
    """Joint predictive (mean vector, covariance matrix) per component at m
    settings in native units, cross-covariances between them included: see
    :func:`.kernels.predict_joint`.  Used by validation diagnostics that
    whiten a whole test set at once."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    return kernels.predict_joint(emulator.space.scale(thetas), emulator)


# --- archive --------------------------------------------------------------

# The emulator archive's files and array shapes (manifest.py); settings are unit-scaled.
EMULATOR_ARCHIVE = {
    "emulator.json": None, "params.csv": None,
    "theta_cheap.npy": ("n_cheap", "k"), "theta_exp.npy": ("n_exp", "k"),
    "scores_cheap.npy": ("n_cheap", "J"), "scores_exp.npy": ("n_exp", "J"),
    "trend_mean.npy": ("2(k+1)",),
    "trend_cov_cheap.npy": ("k+1", "k+1"), "trend_cov_exp.npy": ("k+1", "k+1"),
}


def save_emulator(emulator, directory) -> None:
    """Persist the fitted emulator; reloading reproduces predictions exactly.

    Every emulator writes the same files.  The single-resolution baseline is
    the case with zero-row cheap arrays, rho = 0 and cheap parameters at 1.
    """
    k, prior = emulator.space.k, emulator.trend_prior
    header = ["component", "rho", "var_cheap", "var_exp", "nugget_cheap", "nugget_exp",
              *(f"range_{fidelity}_{d}" for fidelity in ("cheap", "exp") for d in range(k))]
    rows = [[j] + [f"{v:.17g}" for v in (prm.rho, prm.var_cheap, prm.var_exp, prm.nugget_cheap,
                                         prm.nugget_exp, *prm.range_cheap, *prm.range_exp)]
            for j, prm in enumerate(emulator.params_list)]
    write_archive(directory, EMULATOR_ARCHIVE, {
        "emulator.json": {"type": "multires", "space": emulator.space.dims, "seed": emulator.seed,
                          "n_starts": emulator.n_starts, "input_scaling": "unit-hypercube",
                          "hyperpriors": asdict(emulator.hyperpriors)},
        "params.csv": [header, *rows],
        **{f"{name}.npy": getattr(emulator, name)
           for name in ("theta_cheap", "theta_exp", "scores_cheap", "scores_exp")},
        "trend_mean.npy": prior.mean, "trend_cov_cheap.npy": prior.cov_cheap,
        "trend_cov_exp.npy": prior.cov_exp,
    })


def load_emulator(directory) -> MultiResEmulator:
    """Read an emulator written by :func:`save_emulator`.

    :func:`read_emulator_archive` parses and validates the files, then
    construction factors every component's training gram.
    """
    return MultiResEmulator(**read_emulator_archive(directory))


def read_emulator_archive(directory) -> dict:
    """Parse and validate an emulator archive without building the emulator.

    Returns :class:`MultiResEmulator`'s constructor arguments by name, so
    ``params_list`` costs no gram factorization.  Raises MalformedArtifact if
    a file is unreadable or lacks a manifest key, the type is not
    ``multires``, the hyperprior keys are not :class:`HyperPriors`' fields, a
    params.csv row does not hold ``5 + 2k`` values or a positive parameter,
    a value is not finite, or an array disagrees with ``EMULATOR_ARCHIVE``
    for the space's k and params.csv's J rows.
    """
    directory = Path(directory)
    try:
        manifest = read_manifest(directory / "emulator.json")
        if manifest["type"] != "multires":
            raise MalformedArtifact(f"{directory}: emulator type {manifest['type']!r}, "
                                    "expected 'multires'")
        space = ParameterSpace(tuple((n, lo, hi) for n, lo, hi in manifest["space"]))
        hp_raw, hp_names = manifest["hyperpriors"], sorted(f.name for f in fields(HyperPriors))
        if not isinstance(hp_raw, dict) or sorted(hp_raw) != hp_names:
            raise MalformedArtifact(f"{directory}: hyperpriors {hp_raw!r}, expected a mapping "
                                    f"with keys {hp_names}")
        hyperpriors = HyperPriors(**{name: tuple(v) if isinstance(v, list) else v
                                     for name, v in hp_raw.items()})
        k, rows = space.k, read_csv(directory / "params.csv", slice(1, None))[2]
        if any(len(r) != 5 + 2 * k for r in rows):
            raise MalformedArtifact(f"{directory}: params.csv rows need {5 + 2 * k} values "
                                    f"for {k} dimensions")
        params_list = [EmulatorParams(*r[:5], r[5 : 5 + k], r[5 + k :]) for r in rows]
        seed, n_starts = manifest["seed"], manifest["n_starts"]
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedArtifact(f"{directory}: unreadable emulator archive: {err!r}") from err
    arrays = read_archive(directory, EMULATOR_ARCHIVE,
                          {"k": k, "k+1": k + 1, "2(k+1)": 2 * (k + 1), "J": len(rows)})
    trend_prior = TrendPrior(*(arrays.pop(f"trend_{name}") for name in ("mean", "cov_cheap",
                                                                        "cov_exp")))
    return dict(space=space, params_list=params_list, trend_prior=trend_prior,
                hyperpriors=hyperpriors, seed=seed, n_starts=n_starts, **arrays)
