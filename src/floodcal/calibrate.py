"""Dimension-reduced Bayesian calibration of the emulated model.

The observation is projected onto the reduced basis and compared against
the per-component emulator predictions under independent Gaussian
observation noise; the posterior over (theta, sigma2_eps) is sampled with a
variable-at-a-time random-walk Metropolis-Hastings sweep.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .emulator import thread_map
from .errors import ChainTooShort, DimensionMismatch, MalformedArtifact, ModelRunFailed
from .grid import Grid, LocationSet
from .manifest import read_csv
from .reduce import ReducedBasis, project

DEFAULT_BURN_IN_FRACTION = 0.2
DEFAULT_PROPOSAL_FRACTION = 0.05
DEFAULT_LOG_VAR_PROPOSAL_SD = 0.3
ESS_TARGET = 3500  # reported against chain diagnostics, never enforced


@dataclass(frozen=True)
class Observation:
    """Observed depths (m) at known locations."""

    values: np.ndarray
    locations: LocationSet

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] != len(self.locations):
            raise ValueError("observation length must match locations")
        if not np.all((values >= 0) & (values < np.inf)):  # NaN fails both
            raise ValueError("depths must be finite and non-negative")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ReducedObservation:
    """Observation coordinates in the reduced basis, one per component."""

    values: np.ndarray


@dataclass(frozen=True)
class CalibrationPriors:
    """Priors for the calibration stage.

    Theta is uniform on the parameter space.  sigma2_eps is inverse-gamma
    with shape 2 and rate noise_guess^2, so the prior mean equals the
    squared noise-scale guess.
    """

    noise_guess: float = 0.03
    noise_shape: float = 2.0

    @property
    def noise_rate(self) -> float:
        return self.noise_guess**2


@dataclass
class McmcConfig:
    iterations: int = 50_000
    seed: int = 0
    burn_in: int | None = None  # default: 20% of iterations
    proposal_sds: np.ndarray | None = None  # default: 5% of each range
    adapt: bool = True
    target_acceptance: float = 0.35

    def resolved_burn_in(self) -> int:
        if self.burn_in is None:
            return int(DEFAULT_BURN_IN_FRACTION * self.iterations)
        return self.burn_in


@dataclass
class PosteriorChain:
    """Retained (post burn-in) MCMC samples with bookkeeping.

    ``samples`` columns are the native-unit theta coordinates followed by
    sigma2_eps.  ``proposal_sds`` are
    the random-walk scales the chain ended with, after burn-in adaptation:
    native units for theta, log scale for the variances.  They are kept in
    memory only, never written with the chain.
    """

    samples: np.ndarray
    log_posterior: np.ndarray
    accepted_mask: np.ndarray
    acceptance_rates: np.ndarray
    names: list
    seed: int
    burn_in: int
    iterations: int
    ess: dict = field(default_factory=dict)
    proposal_sds: np.ndarray | None = None

    @property
    def n_kept(self) -> int:
        return self.samples.shape[0]

    @property
    def theta_names(self) -> list:
        """The leading ``names``: every column but the last, sigma2_eps."""
        return self.names[:-1]


# --- reduced observation and likelihood -------------------------------------


def reduce_observation(obs: Observation, basis: ReducedBasis) -> ReducedObservation:
    """Project the centered observation onto the basis."""
    z = obs.values
    if z.shape[0] != basis.n_locations:
        raise DimensionMismatch(
            f"observation has {z.shape[0]} locations, basis expects {basis.n_locations}"
        )
    return ReducedObservation(project(basis, z)[0])


def _check_component_counts(z_r: ReducedObservation, emulator, basis: ReducedBasis) -> None:
    """Raise DimensionMismatch unless the emulator, the reduced observation
    and the basis agree on the number of components."""
    n_comp = emulator.n_components
    if not (len(z_r.values) == n_comp == len(basis.eigenvalues)):
        raise DimensionMismatch(
            f"emulator has {n_comp} components, reduced observation "
            f"{len(z_r.values)} and basis {len(basis.eigenvalues)}"
        )


def log_likelihood_reduced(
    theta: np.ndarray,
    sigma2_eps: float,
    z_r: ReducedObservation,
    emulator,
    basis: ReducedBasis,
) -> float:
    """Gaussian log density of the reduced observation at ``theta``.

    The covariance is diagonal: per-component predictive variance plus
    sigma2_eps over the basis eigenvalue.  Callers must keep ``theta``
    inside the parameter space.  Raises DimensionMismatch when the
    emulator, ``z_r`` and ``basis`` disagree on the component count.
    """
    _check_component_counts(z_r, emulator, basis)
    mean, var = kernels.predict_scores(emulator.space.scale(np.atleast_1d(theta)), emulator)
    return _diag_log_likelihood((z_r.values - mean) ** 2, var,
                                sigma2_eps * (1.0 / basis.eigenvalues))


def _diag_log_likelihood(sq_resid, var, noise_var) -> float:
    """Gaussian log density of a residual with squares ``sq_resid``,
    coordinates independent, variances ``var + noise_var``."""
    total_var = var + noise_var
    return float(-0.5 * (np.log(2 * math.pi * total_var) + sq_resid / total_var).sum())


# --- generic variable-at-a-time sampler --------------------------------------


def random_walk_metropolis(
    log_target,
    initial: np.ndarray,
    bounds: np.ndarray,
    proposal_sds: np.ndarray,
    iterations: int,
    seed: int,
    burn_in: int = 0,
    adapt: bool = True,
    target_acceptance: float = 0.35,
):
    """Coordinate-wise Gaussian random-walk Metropolis-Hastings.

    Proposals falling outside ``bounds`` are rejected without evaluating
    the target.  During burn-in, proposal scales optionally follow a
    Robbins-Monro recursion toward the target acceptance rate and freeze
    before any retained sample, preserving detailed balance for the kept
    part of the chain.

    Returns (samples, log_posterior, accepted_mask, acceptance_rates,
    final_proposal_sds); samples are the post burn-in states.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if burn_in < 0:
        raise ValueError("burn-in must not be negative")
    if np.any(np.asarray(proposal_sds) <= 0):
        raise ValueError("proposal standard deviations must be positive")
    rng = np.random.default_rng(seed)
    x = np.array(initial, dtype=float)
    n = x.shape[0]
    lower, upper = np.asarray(bounds, dtype=float).T.tolist()
    lp = log_target(x)
    if not np.isfinite(lp):
        raise ValueError("log target not finite at the initial state")
    log_sds = np.log(np.asarray(proposal_sds, dtype=float)).tolist()

    n_keep = iterations - burn_in
    samples = np.empty((max(n_keep, 0), n))
    log_post = np.empty(max(n_keep, 0))
    masks = np.zeros(max(n_keep, 0), dtype=np.int64)
    accept_counts = np.zeros(n, dtype=np.int64)

    for it in range(iterations):
        adapting = adapt and it < burn_in
        gamma = (it + 1) ** -0.6 if adapting else 0.0
        mask = 0
        for i in range(n):
            step = math.exp(log_sds[i]) * rng.standard_normal()
            proposal = x[i] + step
            accepted = False
            if lower[i] <= proposal <= upper[i]:
                old = x[i]
                x[i] = proposal
                lp_new = log_target(x)
                if math.log(rng.random()) < lp_new - lp:
                    lp = lp_new
                    accepted = True
                else:
                    x[i] = old
            if adapting:
                log_sds[i] += gamma * ((1.0 if accepted else 0.0) - target_acceptance)
            if accepted:
                mask |= 1 << i
                if it >= burn_in:
                    accept_counts[i] += 1
        if it >= burn_in:
            kept = it - burn_in
            samples[kept] = x
            log_post[kept] = lp
            masks[kept] = mask

    rates = accept_counts / max(n_keep, 1)
    return samples, log_post, masks, rates, np.exp(np.array(log_sds))


def effective_sample_size(values: np.ndarray) -> float:
    """ESS via Geyer's initial positive sequence on FFT autocorrelations."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 4:
        return float(n)
    centered = values - values.mean()
    var0 = centered @ centered / n
    if var0 == 0:
        return float(n)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real / n
    rho = acov / acov[0]
    tau = -1.0
    for m in range(n // 2):
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
    tau = max(tau, 1e-12)
    return float(n / tau)


# --- calibration sampler ------------------------------------------------------


def run_mh(
    z_r: ReducedObservation,
    emulator,
    basis: ReducedBasis,
    priors: CalibrationPriors,
    config: McmcConfig,
) -> PosteriorChain:
    """Sample (theta, sigma2_eps) given the reduced observation.

    Theta priors are uniform on the parameter space (out-of-bounds
    proposals are rejected), the noise variance is sampled on the log scale
    with its inverse-gamma prior, and the chain is deterministic for a
    given seed and configuration.

    The likelihood is :func:`log_likelihood_reduced`'s.  Noise moves reuse
    the emulator prediction at the current theta; the chain is the one an
    uncached target gives.
    """
    _check_component_counts(z_r, emulator, basis)
    space = emulator.space
    k = space.k
    names = list(space.names) + ["sigma2_eps"]
    n = len(names)

    burn_in = config.resolved_burn_in()
    if burn_in >= config.iterations:
        raise ValueError("burn-in must be smaller than the iteration count")

    if config.proposal_sds is None:
        sds = np.empty(n)
        sds[:k] = DEFAULT_PROPOSAL_FRACTION * (space.upper - space.lower)
        sds[k:] = DEFAULT_LOG_VAR_PROPOSAL_SD
    else:
        sds = np.asarray(config.proposal_sds, dtype=float)
        if sds.shape != (n,):
            raise ValueError(f"need {n} proposal sds")

    bounds = np.empty((n, 2))
    bounds[:k, 0] = space.lower
    bounds[:k, 1] = space.upper
    bounds[k:, 0] = -np.inf
    bounds[k:, 1] = np.inf

    lower, span = space.lower, space.upper - space.lower
    z, inv_eig = z_r.values, 1.0 / basis.eigenvalues
    shape, rate = priors.noise_shape, priors.noise_rate
    log_norm = shape * math.log(rate) - math.lgamma(shape)  # of the inverse-gamma prior

    # (squared residual, variance), keyed on theta's bytes.  The current theta
    # is the sweep-start state or the last accepted theta proposal, so k + 1
    # entries always hold it when a noise move asks.  The arrays are shared
    # between calls: read-only.  kernels.predict_scores is read off the
    # module per call: a wrapper set there sees each.
    @functools.lru_cache(maxsize=k + 1)
    def predict_at(theta_bytes):
        mean, var = kernels.predict_scores((np.frombuffer(theta_bytes) - lower) / span, emulator)
        sq_resid = (z - mean) ** 2
        sq_resid.flags.writeable = var.flags.writeable = False
        return sq_resid, var

    def log_post(state):
        log_sig2 = state[k]
        sig2 = math.exp(log_sig2)
        ll = _diag_log_likelihood(*predict_at(state[:k].tobytes()), sig2 * inv_eig)
        return float(ll + (log_norm - (shape + 1) * math.log(sig2) - rate / sig2) + log_sig2)

    initial = np.empty(n)
    initial[:k] = 0.5 * (space.lower + space.upper)
    initial[k] = math.log(priors.noise_guess**2)

    samples, log_trace, masks, rates, final_sds = random_walk_metropolis(
        log_post,
        initial,
        bounds,
        sds,
        config.iterations,
        config.seed,
        burn_in=burn_in,
        adapt=config.adapt,
        target_acceptance=config.target_acceptance,
    )
    samples = samples.copy()
    samples[:, k:] = np.exp(samples[:, k:])
    ess = {
        name: effective_sample_size(samples[:, i]) for i, name in enumerate(names)
    }
    return PosteriorChain(
        samples=samples,
        log_posterior=log_trace,
        accepted_mask=masks,
        acceptance_rates=rates,
        names=names,
        seed=config.seed,
        burn_in=burn_in,
        iterations=config.iterations,
        ess=ess,
        proposal_sds=final_sds,
    )


def thin(chain: PosteriorChain, m: int, seed: int) -> np.ndarray:
    """``m`` equally spaced retained theta draws, offset randomized by seed.

    With m dividing the retained length the spacing is exactly
    ``n_kept // m``.  Returns the theta columns only.
    """
    n_kept = chain.n_kept
    if m < 1 or m > n_kept:
        raise ChainTooShort(f"cannot thin {n_kept} retained samples to {m}")
    stride = n_kept // m
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, stride)) if stride > 1 else 0
    idx = offset + stride * np.arange(m)
    return chain.samples[idx, : len(chain.theta_names)]


def calibrated_projection(theta_samples: np.ndarray, model, threads: int = 1) -> Grid:
    """Cellwise mean of model runs at the given parameter samples.

    ``model`` maps a native-unit theta vector to a Grid; a failing run
    raises ModelRunFailed carrying the offending theta.  With ``threads``
    above 1 the runs share a pool of that many workers.  The runs are
    summed in sample order into one grid and divided by their count, which
    is bitwise the mean over a stacked copy; a cell is nodata (value 0)
    where any run's is.
    """
    theta_samples = np.atleast_2d(np.asarray(theta_samples, dtype=float))
    if theta_samples.shape[0] == 0:
        raise ValueError("need at least one parameter sample")

    def run(theta):
        try:
            return model(theta)
        except Exception as err:
            raise ModelRunFailed(tuple(theta), err) from err

    grids = thread_map(run, theta_samples, threads)
    first = grids[0]
    for g in grids[1:]:
        if not first.same_geometry(g):
            raise ValueError("model runs returned differing grid geometries")
    values = np.zeros(first.values.shape)
    mask = np.zeros(first.values.shape, dtype=bool)
    for g in grids:
        values += g.values
        mask |= g.nodata_mask
    values /= len(grids)
    values[mask] = 0.0
    return Grid(
        origin_x=first.origin_x,
        origin_y=first.origin_y,
        cell_size=first.cell_size,
        values=values,
        nodata_mask=mask,
    )


# --- archive -------------------------------------------------------------


def save_chain(chain: PosteriorChain, path) -> None:
    """CSV with header iter,theta_<name>...,sigma2_eps,log_post,accepted_mask."""
    # the rows a csv.writer gives for these fields: no number needs quoting
    row = "%d," + "%.17g," * (chain.samples.shape[1] + 1) + "%d\r\n"
    rows = zip(chain.samples.tolist(), chain.log_posterior.tolist(), chain.accepted_mask.tolist())
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["iter"] + [f"theta_{n}" for n in chain.theta_names]
                                + chain.names[-1:] + ["log_post", "accepted_mask"])
        fh.writelines(row % (chain.burn_in + i, *sample, lp, mask)
                      for i, (sample, lp, mask) in enumerate(rows))


def load_chain_samples(path) -> tuple[np.ndarray, list]:
    """Samples matrix and column names from a chain CSV.

    Raises MalformedArtifact if :func:`read_csv` rejects the file, a
    value after ``iter`` is not a finite number, or it holds no samples.
    """
    header, rows, values = read_csv(path, slice(1, None))
    if not rows:
        raise MalformedArtifact(f"{path}: no samples")
    return np.array(values)[:, :-2], [h.removeprefix("theta_") for h in header[1:-2]]
