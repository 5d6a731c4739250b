"""Dimension-reduced Bayesian calibration of the emulated model.

The observation is projected onto the reduced basis and compared against
the per-component emulator predictions under independent Gaussian
observation noise; the posterior over (theta, sigma2_eps) is sampled with a
variable-at-a-time random-walk Metropolis-Hastings sweep.  An optional
discrepancy block appends user-supplied kernel-basis coordinates and a
magnitude parameter kappa_d.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

from .emulator import predict_scaled, thread_map, _invgamma_logpdf
from .errors import (
    ChainTooShort,
    DimensionMismatch,
    MalformedArtifact,
    ModelRunFailed,
    NotPositiveDefinite,
    SingularBasis,
)
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
    """Observation coordinates in the reduced basis (+ discrepancy block)."""

    values: np.ndarray
    n_emulator: int
    n_disc: int = 0


@dataclass(frozen=True)
class DiscrepancyBlock:
    """User-supplied kernel basis for a systematic discrepancy term.

    Construction of the basis itself is out of scope; any full-column-rank
    n x J_d matrix works.  ``kappa`` is the inverse-gamma prior on the
    discrepancy magnitude.
    """

    kernel_basis: np.ndarray
    kappa_shape: float = 2.0
    kappa_rate: float = 2.0

    def __post_init__(self):
        kb = np.asarray(self.kernel_basis, dtype=float)
        if kb.ndim != 2 or kb.shape[1] >= kb.shape[0]:
            raise ValueError("kernel basis must be n x J_d with J_d < n")
        if np.linalg.matrix_rank(kb) < kb.shape[1]:
            raise SingularBasis("discrepancy kernel basis is rank deficient")
        object.__setattr__(self, "kernel_basis", kb)

    @property
    def n_disc(self) -> int:
        return self.kernel_basis.shape[1]


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
    sigma2_eps (and kappa_d on the discrepancy path).  ``proposal_sds`` are
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


# --- reduced observation and likelihood -------------------------------------


def reduce_observation(
    obs: Observation, basis: ReducedBasis, disc: DiscrepancyBlock | None = None
) -> ReducedObservation:
    """Project the centered observation onto the (possibly extended) basis."""
    z = obs.values
    if z.shape[0] != basis.n_locations:
        raise DimensionMismatch(
            f"observation has {z.shape[0]} locations, basis expects {basis.n_locations}"
        )
    if disc is None:
        return ReducedObservation(project(basis, z)[0], basis.n_components, 0)
    if disc.kernel_basis.shape[0] != basis.n_locations:
        raise DimensionMismatch("discrepancy basis rows must match locations")
    combined, factor = _combined_gram_factor(basis, disc)
    coords = cho_solve(factor, combined.T @ (z - basis.column_mean))
    return ReducedObservation(coords, basis.n_components, disc.n_disc)


def _combined_gram_factor(basis: ReducedBasis, disc: DiscrepancyBlock):
    """The combined basis ``[components | kernel_basis]`` and the Cholesky
    factor of its gram."""
    combined = np.hstack([basis.components, disc.kernel_basis])
    try:
        return combined, cho_factor(combined.T @ combined)
    except np.linalg.LinAlgError as err:
        raise SingularBasis("combined basis is numerically singular") from err


def _combined_gram_inverse(basis: ReducedBasis, disc: DiscrepancyBlock) -> np.ndarray:
    combined, factor = _combined_gram_factor(basis, disc)
    return cho_solve(factor, np.eye(combined.shape[1]))


def _check_component_counts(z_r: ReducedObservation, emulator, basis: ReducedBasis) -> None:
    """Raise DimensionMismatch unless the emulator, the reduced observation
    and the basis agree on the number of components."""
    n_comp = emulator.n_components
    if not (z_r.n_emulator == n_comp == len(basis.eigenvalues)):
        raise DimensionMismatch(
            f"emulator has {n_comp} components, reduced observation "
            f"{z_r.n_emulator} and basis {len(basis.eigenvalues)}"
        )


def log_likelihood_reduced(
    theta: np.ndarray,
    sigma2_eps: float,
    z_r: ReducedObservation,
    emulator,
    basis: ReducedBasis,
    disc: DiscrepancyBlock | None = None,
    kappa_d: float | None = None,
    *,
    prediction: tuple[np.ndarray, np.ndarray] | None = None,
    gram_inv: np.ndarray | None = None,
) -> float:
    """Gaussian log density of the reduced observation at ``theta``.

    Without a discrepancy block the covariance is diagonal: per-component
    predictive variance plus sigma2_eps over the basis eigenvalue.  With
    one, the noise term couples the coordinates through the combined-basis
    gram inverse.  Callers must keep ``theta`` inside the parameter space.

    ``prediction`` is the emulator's ``(mean, var)`` at ``theta`` and
    ``gram_inv`` the combined-basis gram inverse, when the caller already
    has them; neither is modified.  Raises DimensionMismatch when the
    emulator, ``z_r`` and ``basis`` disagree on the component count.
    """
    _check_component_counts(z_r, emulator, basis)
    if prediction is None:
        theta0 = emulator.space.scale(np.asarray(theta, dtype=float))
        prediction = predict_scaled(emulator, theta0)
    mean, var = prediction
    if disc is None:
        total_var = var + sigma2_eps * (1.0 / basis.eigenvalues)
        resid = z_r.values - mean
        return float(
            -0.5 * np.sum(np.log(2 * math.pi * total_var) + resid**2 / total_var)
        )
    if kappa_d is None:
        raise ValueError("kappa_d required on the discrepancy path")
    if gram_inv is None:
        gram_inv = _combined_gram_inverse(basis, disc)
    dim = z_r.n_emulator + z_r.n_disc
    cov = sigma2_eps * gram_inv
    cov[np.diag_indices(z_r.n_emulator)] += var
    idx = np.arange(z_r.n_emulator, dim)
    cov[idx, idx] += kappa_d
    full_mean = np.concatenate([mean, np.zeros(z_r.n_disc)])
    try:
        chol = cholesky(cov, lower=True)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite("reduced likelihood covariance not PD") from err
    white = solve_triangular(chol, z_r.values - full_mean, lower=True)
    return float(
        -0.5 * (dim * math.log(2 * math.pi) + white @ white)
        - np.sum(np.log(np.diag(chol)))
    )


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
    if np.any(np.asarray(proposal_sds) <= 0):
        raise ValueError("proposal standard deviations must be positive")
    rng = np.random.default_rng(seed)
    x = np.array(initial, dtype=float)
    n = x.shape[0]
    bounds = np.asarray(bounds, dtype=float)
    lp = log_target(x)
    if not np.isfinite(lp):
        raise ValueError("log target not finite at the initial state")
    log_sds = np.log(np.asarray(proposal_sds, dtype=float))

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
            if bounds[i, 0] <= proposal <= bounds[i, 1]:
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
    return samples, log_post, masks, rates, np.exp(log_sds)


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
    disc: DiscrepancyBlock | None = None,
) -> PosteriorChain:
    """Sample (theta, sigma2_eps[, kappa_d]) given the reduced observation.

    Theta priors are uniform on the parameter space (out-of-bounds
    proposals are rejected), the noise variance is sampled on the log scale
    with its inverse-gamma prior, and the chain is deterministic for a
    given seed and configuration.

    Noise moves (sigma2_eps, kappa_d) reuse the emulator prediction at the
    current theta, and the discrepancy path factors the combined-basis
    gram once per run; the chain is the one an uncached target gives.
    """
    _check_component_counts(z_r, emulator, basis)
    space = emulator.space
    k = space.k
    names = list(space.names) + ["sigma2_eps"]
    if disc is not None:
        names.append("kappa_d")
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

    gram_inv = None if disc is None else _combined_gram_inverse(basis, disc)

    # Keyed on theta's bytes.  The current theta is the sweep-start state or
    # the last accepted theta proposal, so k + 1 entries always hold it when
    # a noise move asks.  The arrays are shared between calls: read-only.
    @functools.lru_cache(maxsize=k + 1)
    def predict_at(theta_bytes):
        prediction = predict_scaled(emulator, space.scale(np.frombuffer(theta_bytes)))
        for arr in prediction:
            arr.flags.writeable = False
        return prediction

    def log_post(state):
        theta = state[:k]
        log_sig2 = state[k]
        sig2 = math.exp(log_sig2)
        kappa = math.exp(state[k + 1]) if disc is not None else None
        try:
            ll = log_likelihood_reduced(
                theta, sig2, z_r, emulator, basis, disc, kappa,
                prediction=predict_at(theta.tobytes()), gram_inv=gram_inv,
            )
        except NotPositiveDefinite:
            return -np.inf
        lp = ll + _invgamma_logpdf(sig2, priors.noise_shape, priors.noise_rate) + log_sig2
        if disc is not None:
            lp += _invgamma_logpdf(kappa, disc.kappa_shape, disc.kappa_rate) + state[k + 1]
        return float(lp)

    initial = np.empty(n)
    initial[:k] = 0.5 * (space.lower + space.upper)
    initial[k] = math.log(priors.noise_guess**2)
    if disc is not None:
        initial[k + 1] = math.log(disc.kappa_rate / max(disc.kappa_shape - 1.0, 0.5))

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
    n_theta = len(chain.names) - (2 if "kappa_d" in chain.names else 1)
    return chain.samples[idx, :n_theta]


def calibrated_projection(theta_samples: np.ndarray, model, threads: int = 1) -> Grid:
    """Cellwise mean of model runs at the given parameter samples.

    ``model`` maps a native-unit theta vector to a Grid; a failing run
    raises ModelRunFailed carrying the offending theta.  With ``threads``
    above 1 the runs share a pool of that many workers.
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
    stack = np.stack([g.values for g in grids])
    mask = np.any(np.stack([g.nodata_mask for g in grids]), axis=0)
    values = stack.mean(axis=0)
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
    """CSV with header iter,theta_<name>...,sigma2_eps[,kappa_d],log_post,accepted_mask."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        theta_names = chain.names[: len(chain.names) - (2 if "kappa_d" in chain.names else 1)]
        extra = chain.names[len(theta_names):]
        writer.writerow(["iter"] + [f"theta_{n}" for n in theta_names] + extra
                        + ["log_post", "accepted_mask"])
        for i in range(chain.n_kept):
            row = [chain.burn_in + i]
            row += [f"{v:.17g}" for v in chain.samples[i]]
            row += [f"{chain.log_posterior[i]:.17g}", int(chain.accepted_mask[i])]
            writer.writerow(row)


def load_chain_samples(path) -> tuple[np.ndarray, list]:
    """Samples matrix and column names from a chain CSV.

    Raises MalformedArtifact if :func:`read_csv` rejects the file or it holds
    no samples.
    """
    header, rows, samples = read_csv(path, slice(1, -2))
    if not rows:
        raise MalformedArtifact(f"{path}: no samples")
    return np.array(samples), [h.removeprefix("theta_") for h in header[1:-2]]
