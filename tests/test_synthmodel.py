import math

import numpy as np
import pytest

from floodcal.grid import bilinear_interpolate, cell_centers, flatten, grid_locations
from floodcal.synthmodel import (
    SURFACE_OFFSET,
    SynthConfig,
    observation_grid,
    run_cheap,
    run_expensive,
    shared_locations,
    simulate_observation,
)


@pytest.fixture(scope="module")
def config():
    return SynthConfig()


class TestRunExpensive:
    def test_lower_bound_amplitude_gives_dry_grid(self, config):
        theta = np.array([0.02, 1.0])
        grid = run_expensive(theta, config)
        assert np.all(grid.values == 0.0)

    def test_on_diagonal_depth_closed_form(self, config):
        # a cell center on the diagonal has distance 0: depth = A - 0.05
        theta = np.array([0.06, 1.0])
        grid = run_expensive(theta, config)
        amp = config.amplitude(theta)
        diag = np.diag(grid.values)  # centers (i+0.5, i+0.5) lie on y = x
        assert np.allclose(diag, amp - SURFACE_OFFSET)

    def test_monotone_in_amplitude_parameter(self, config):
        theta_lo = np.array([0.04, 1.0])
        theta_hi = np.array([0.07, 1.0])
        lo = run_expensive(theta_lo, config).values
        hi = run_expensive(theta_hi, config).values
        assert np.all(hi >= lo)

    def test_bounds_enforced(self, config):
        with pytest.raises(ValueError):
            run_expensive(np.array([0.12, 1.0]), config)
        with pytest.raises(ValueError):
            run_expensive(np.array([0.05, 0.94]), config)

    def test_deterministic(self, config):
        theta = np.array([0.05, 0.99])
        a = run_expensive(theta, config)
        b = run_expensive(theta, config)
        assert np.array_equal(a.values, b.values)


class TestRunCheap:
    @staticmethod
    def surface_formula(config, theta, locs):
        # oracle: direct evaluation of the expensive closed form
        amp = config.amplitude(theta)
        width = config.ridge_width(theta)
        dist = np.abs(locs[:, 1] - locs[:, 0]) / math.sqrt(2)
        return np.maximum(amp * np.exp(-(dist**2) / (2 * width**2)) - SURFACE_OFFSET, 0.0)

    def test_no_bias_full_correlation_matches_surface(self):
        config = SynthConfig(cheap_bias=0.0, rho_true=1.0)
        theta = np.array([0.06, 1.0])
        coarse = run_cheap(theta, config)
        locs = grid_locations(coarse).coords
        expected = self.surface_formula(config, theta, locs)
        assert np.allclose(coarse.values.ravel(), expected)

    def test_zero_correlation_gives_pure_bias(self):
        config = SynthConfig(rho_true=0.0)
        theta = np.array([0.06, 1.0])
        coarse = run_cheap(theta, config)
        locs = grid_locations(coarse).coords
        wet = self.surface_formula(config, theta, locs) > 0
        bias = config.cheap_bias * np.sin(4 * math.pi * locs[:, 0] / config.domain_length)
        expected = np.maximum(bias * wet, 0.0)
        assert np.allclose(coarse.values.ravel(), expected)

    def test_hand_evaluated_cell(self, config):
        theta = np.array([0.055, 0.98])
        coarse = run_cheap(theta, config)
        x, y = cell_centers(coarse)[1 * coarse.n_cols + 3]
        amp = config.amplitude(theta)
        width = config.ridge_width(theta)
        dist = abs(y - x) / math.sqrt(2)
        f = max(amp * math.exp(-(dist**2) / (2 * width**2)) - SURFACE_OFFSET, 0.0)
        expected = max(
            config.rho_true * f
            + config.cheap_bias * math.sin(4 * math.pi * x / config.domain_length) * (f > 0),
            0.0,
        )
        assert coarse.values[1, 3] == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self, config):
        for theta in ([0.021, 1.049], [0.09, 0.951], [0.025, 1.0]):
            assert run_cheap(np.array(theta), config).values.min() >= 0.0


class TestSimulateObservation:
    def test_zero_noise_equals_surface(self):
        config = SynthConfig(noise_sd=0.0)
        theta = np.array([0.05, 1.0])
        obs = simulate_observation(theta, config, seed=0)
        truth = run_expensive(theta, config).values.ravel()
        assert np.array_equal(obs.values, truth)

    def test_dry_cells_stay_exactly_zero(self, config):
        theta = np.array([0.03, 1.0])
        obs = simulate_observation(theta, config, seed=1)
        truth = run_expensive(theta, config).values.ravel()
        assert np.all(obs.values[truth == 0] == 0.0)

    def test_noise_sd_recovered(self, config):
        theta = np.array([0.09, 1.04])  # deep flood: little truncation
        obs = simulate_observation(theta, config, seed=2)
        truth = run_expensive(theta, config).values.ravel()
        keep = (truth > 0.2) & (obs.values > 0)
        sd = np.std(obs.values[keep] - truth[keep])
        assert abs(sd - 0.03) < 0.005

    def test_deterministic_per_seed(self, config):
        theta = np.array([0.05, 1.0])
        a = simulate_observation(theta, config, seed=3)
        b = simulate_observation(theta, config, seed=3)
        c = simulate_observation(theta, config, seed=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_nonnegative(self, config):
        obs = simulate_observation(np.array([0.025, 1.0]), config, seed=5)
        assert obs.values.min() >= 0.0

    def test_grid_holds_the_observation_of_every_cell(self, config):
        # run-synth writes this grid; its row-major values are the observation
        theta = np.array([0.05, 1.0])
        grid = observation_grid(theta, config, seed=6)
        assert grid.same_geometry(config.fine_grid_template())
        assert np.array_equal(grid.values.ravel(), simulate_observation(theta, config, 6).values)


class TestSharedStructure:
    def test_shared_locations_inside_coarse_hull(self, config):
        locs = shared_locations(config)
        coarse = config.coarse_grid_template()
        vals = bilinear_interpolate(coarse, locs)  # must not raise
        assert len(vals) == len(locs)
        assert len(locs) == 28 * 28  # 32x32 fine centers minus the boundary band

    @pytest.mark.parametrize("shapes", [((32, 32), 1.0, (8, 8), 4.0),
                                        ((30, 20), 0.3, (7, 5), 1.3)])
    def test_shared_locations_are_the_fine_centers_in_the_hull(self, shapes):
        # oracle: every fine grid location, filtered point by point; the
        # coordinates are hashed into the ensemble cache key, so bitwise
        fine_shape, fine_cell, coarse_shape, coarse_cell = shapes
        config = SynthConfig(fine_shape=fine_shape, fine_cell=fine_cell,
                             coarse_shape=coarse_shape, coarse_cell=coarse_cell)
        coarse = config.coarse_grid_template()
        lo = (coarse.origin_x, coarse.origin_y)
        hi = cell_centers(coarse)[-1]
        expected = [p for p in grid_locations(config.fine_grid_template()).coords
                    if lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]]
        got = shared_locations(config).coords
        assert got.tobytes() == np.array(expected).tobytes()

    def test_shared_locations_are_kept_read_only_for_an_equal_config(self, config):
        locs = shared_locations(config)
        assert shared_locations(SynthConfig(**vars(config))) is locs
        with pytest.raises(ValueError, match="read-only"):
            locs.coords[0, 0] = 1.0

    def test_cross_fidelity_correlation(self, config):
        # premise of the multiresolution emulator: cheap runs informative
        rng = np.random.default_rng(6)
        locs = shared_locations(config)
        cors = []
        for _ in range(20):
            theta = config.space.unscale(rng.random(2))
            fine = flatten(run_expensive(theta, config), locs)
            coarse = bilinear_interpolate(run_cheap(theta, config), locs)
            if fine.std() == 0 or coarse.std() == 0:
                continue
            cors.append(np.corrcoef(fine, coarse)[0, 1])
        assert np.mean(cors) > 0.8

    def test_coarse_must_cover_fine(self):
        with pytest.raises(ValueError):
            SynthConfig(coarse_shape=(4, 4), coarse_cell=4.0)
