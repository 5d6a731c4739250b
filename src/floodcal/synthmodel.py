"""Deterministic two-fidelity synthetic flood model.

Stands in for an expensive hydraulic solver: the expensive run is a
Gaussian ridge of depth along the domain diagonal evaluated on a fine
grid, the cheap run is a damped copy with a smooth spatial bias on a
coarse grid.  Both are closed-form, so end-to-end emulation-calibration
runs can be validated at desk scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .design import ParameterSpace
from .calibrate import Observation
from .grid import Grid, LocationSet, cell_centers, grid_locations

SURFACE_OFFSET = 0.05  # m subtracted before truncation, creates dry fringes


def _default_space() -> ParameterSpace:
    return ParameterSpace((("a", 0.02, 0.1), ("b", 0.95, 1.05)))


@dataclass(frozen=True)
class SynthConfig:
    """Geometry, parameter ranges and noise of the synthetic model.

    The parameter ranges copy the flood-model ranges for channel roughness
    and river width error, so edge bands and priors transfer verbatim.
    The coarse grid must cover the fine grid's extent.
    """

    fine_shape: tuple = (32, 32)
    fine_cell: float = 1.0
    coarse_shape: tuple = (8, 8)
    coarse_cell: float = 4.0
    space: ParameterSpace = field(default_factory=_default_space)
    noise_sd: float = 0.03
    rho_true: float = 0.9
    cheap_bias: float = 0.1

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        fine = self.fine_grid_template()
        coarse = self.coarse_grid_template()
        fx0, fy0, fx1, fy1 = fine.extent()
        cx0, cy0, cx1, cy1 = coarse.extent()
        if cx0 > fx0 + 1e-9 or cy0 > fy0 + 1e-9 or cx1 < fx1 - 1e-9 or cy1 < fy1 - 1e-9:
            raise ValueError("coarse domain must cover the fine domain")

    def fine_grid_template(self) -> Grid:
        rows, cols = self.fine_shape
        return Grid(
            origin_x=0.5 * self.fine_cell,
            origin_y=0.5 * self.fine_cell,
            cell_size=self.fine_cell,
            values=np.zeros((rows, cols)),
        )

    def coarse_grid_template(self) -> Grid:
        rows, cols = self.coarse_shape
        return Grid(
            origin_x=0.5 * self.coarse_cell,
            origin_y=0.5 * self.coarse_cell,
            cell_size=self.coarse_cell,
            values=np.zeros((rows, cols)),
        )

    @property
    def domain_length(self) -> float:
        return self.fine_shape[1] * self.fine_cell

    def amplitude(self, theta) -> float:
        """Peak surface height (m): 0..10 across the first parameter range."""
        lo, hi = self.space.lower[0], self.space.upper[0]
        return 10.0 * (theta[0] - lo) / (hi - lo)

    def ridge_width(self, theta) -> float:
        """Ridge width (m): 0.1..0.4 domain lengths across the second range."""
        lo, hi = self.space.lower[1], self.space.upper[1]
        return (0.1 + 0.3 * (theta[1] - lo) / (hi - lo)) * self.domain_length


def _check_bounds(theta, config: SynthConfig) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not config.space.contains(theta):
        raise ValueError(f"theta {theta.tolist()} outside the parameter space")
    return theta


def _surface(xs: np.ndarray, ys: np.ndarray, theta, config: SynthConfig) -> np.ndarray:
    """Truncated ridge depth at coordinates (m): max(0, A exp(-d^2/2w^2) - 0.05)."""
    amp = config.amplitude(theta)
    width = config.ridge_width(theta)
    dist = np.abs(ys - xs) / math.sqrt(2.0)
    depth = amp * np.exp(-(dist**2) / (2.0 * width**2)) - SURFACE_OFFSET
    return np.maximum(depth, 0.0)


def _grid_coords(template: Grid) -> tuple[np.ndarray, np.ndarray]:
    cols, rows = np.meshgrid(np.arange(template.n_cols), np.arange(template.n_rows))
    xs = template.origin_x + cols * template.cell_size
    ys = template.origin_y + rows * template.cell_size
    return xs, ys


def run_expensive(theta, config: SynthConfig) -> Grid:
    """High-resolution run: the ridge surface on the fine grid."""
    theta = _check_bounds(theta, config)
    template = config.fine_grid_template()
    xs, ys = _grid_coords(template)
    return Grid(template.origin_x, template.origin_y, template.cell_size,
                _surface(xs, ys, theta, config))


def run_cheap(theta, config: SynthConfig) -> Grid:
    """Low-resolution run: damped ridge plus a smooth bias where wet.

    value = max(0, rho_true * f + cheap_bias * sin(4 pi x / L) * [f > 0])
    with f the expensive closed form; the outer truncation keeps depths
    physical when the bias undercuts a shallow ridge.
    """
    theta = _check_bounds(theta, config)
    template = config.coarse_grid_template()
    xs, ys = _grid_coords(template)
    f = _surface(xs, ys, theta, config)
    bias = config.cheap_bias * np.sin(4.0 * math.pi * xs / config.domain_length)
    values = np.maximum(config.rho_true * f + bias * (f > 0), 0.0)
    return Grid(template.origin_x, template.origin_y, template.cell_size, values)


def simulate_observation(
    theta_star,
    config: SynthConfig,
    seed: int,
    locations: LocationSet | None = None,
) -> Observation:
    """Expensive run at ``theta_star`` with truncated Gaussian noise.

    Noise (sd ``config.noise_sd``) is added only where the model depth is
    positive, then depths are truncated below at zero; dry cells stay
    exactly zero.  Deterministic per seed.
    """
    truth_grid = run_expensive(theta_star, config)
    if locations is None:
        locations = grid_locations(truth_grid)
    from .grid import flatten

    return Observation(_add_noise(flatten(truth_grid, locations), config, seed), locations)


def observation_grid(theta_star, config: SynthConfig, seed: int) -> Grid:
    """:func:`simulate_observation` of every fine cell, as a grid built with
    no location set: its row-major values are that observation's."""
    truth = run_expensive(theta_star, config)
    return Grid(truth.origin_x, truth.origin_y, truth.cell_size,
                _add_noise(truth.values, config, seed))


def _add_noise(truth: np.ndarray, config: SynthConfig, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, config.noise_sd, size=truth.shape) if config.noise_sd > 0 else 0.0
    return np.where(truth > 0, np.maximum(truth + noise, 0.0), 0.0)


@functools.lru_cache(maxsize=1)
def shared_locations(config: SynthConfig) -> LocationSet:
    """Fine cell centers inside the coarse cell-center hull.

    Cheap runs are matched to expensive runs by interpolation, which is
    only defined inside the coarse hull; fine centers in the boundary
    half-cell band are excluded rather than extrapolated.  The last result
    is kept (configs are frozen and compare by value) and shared by every
    caller, so its coordinates are read-only.
    """
    fine = config.fine_grid_template()
    coarse = config.coarse_grid_template()
    all_locs = cell_centers(fine)
    xmin = coarse.origin_x
    ymin = coarse.origin_y
    xmax = coarse.origin_x + (coarse.n_cols - 1) * coarse.cell_size
    ymax = coarse.origin_y + (coarse.n_rows - 1) * coarse.cell_size
    keep = (
        (all_locs[:, 0] >= xmin)
        & (all_locs[:, 0] <= xmax)
        & (all_locs[:, 1] >= ymin)
        & (all_locs[:, 1] <= ymax)
    )
    locations = LocationSet(all_locs[keep])
    locations.coords.flags.writeable = False
    return locations


def expensive_model_adapter(config: SynthConfig):
    """Callable theta -> fine Grid, for calibrated projections."""

    def model(theta):
        return run_expensive(theta, config)

    return model
