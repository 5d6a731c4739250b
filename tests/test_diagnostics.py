import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import t as t_dist

from floodcal.diagnostics import (
    d_mr_hr,
    extent_metrics,
    format_d_table,
    rmse,
    summarize_d,
    uspe,
)
from floodcal.errors import (
    EmptyInput,
    GeometryMismatch,
    LengthMismatch,
    NonPositiveDf,
    NoObservedFlood,
    NotPositiveDefinite,
)
from floodcal.grid import Grid


def depth_grid(values):
    return Grid(0.0, 0.0, 1.0, np.asarray(values, dtype=float))


class TestRmse:
    def test_zero_for_identical(self):
        x = np.linspace(0, 1, 10)
        assert rmse(x, x) == 0.0
        assert d_mr_hr(rmse(x, x), rmse(x, x)) == 0.0

    def test_constant_offset(self):
        obs = np.linspace(0, 1, 8)
        assert rmse(obs + 0.3, obs) == pytest.approx(0.3)
        assert rmse(obs - 0.3, obs) == pytest.approx(0.3)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        pred, obs = rng.random(10), rng.random(10)
        direct = np.sqrt(np.sum((pred - obs) ** 2) / 10)
        assert rmse(pred, obs) == pytest.approx(direct, rel=1e-15)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            rmse(np.array([]), np.array([]))
        with pytest.raises(LengthMismatch):
            rmse(np.zeros(3), np.zeros(4))


class TestExtentMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 2, (6, 6))
        vals[vals < 0.7] = 0.0
        g = depth_grid(vals)
        report = extent_metrics(g, g)
        assert report.rmse == 0.0
        assert report.percent_bias == 0.0
        assert report.fit == 1.0
        assert report.correctness == 1.0

    def test_superset_flooding(self):
        obs = depth_grid([[1.0, 0.0], [0.0, 0.0]])
        pred = depth_grid([[1.0, 0.5], [0.0, 0.0]])
        report = extent_metrics(pred, obs)
        assert report.correctness == 1.0
        assert report.fit == pytest.approx(report.flooded_obs / report.flooded_pred)

    def test_brute_force_set_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            pred_vals = np.where(rng.random((8, 8)) < 0.5, rng.uniform(0.1, 2, (8, 8)), 0.0)
            obs_vals = np.where(rng.random((8, 8)) < 0.5, rng.uniform(0.1, 2, (8, 8)), 0.0)
            if not obs_vals.any():
                continue
            report = extent_metrics(depth_grid(pred_vals), depth_grid(obs_vals))
            both = wet_r = wet_m = 0
            for i in range(8):
                for j in range(8):
                    r = obs_vals[i, j] > 0
                    m = pred_vals[i, j] > 0
                    wet_r += r
                    wet_m += m
                    both += r and m
            assert report.flooded_obs == wet_r
            assert report.flooded_pred == wet_m
            assert report.flooded_both == both
            assert report.fit == pytest.approx(both / (wet_r + wet_m - both))
            assert report.correctness == pytest.approx(both / wet_r)

    def test_threshold_applies(self):
        obs = depth_grid([[1.0, 0.2], [0.0, 0.0]])
        pred = depth_grid([[1.0, 0.2], [0.0, 0.0]])
        report = extent_metrics(pred, obs, flood_threshold=0.5)
        assert report.flooded_obs == 1

    def test_no_observed_flood(self):
        with pytest.raises(NoObservedFlood):
            extent_metrics(depth_grid([[1.0]]), depth_grid([[0.0]]))

    def test_geometry_mismatch(self):
        a = depth_grid(np.ones((2, 2)))
        b = Grid(0.0, 0.0, 2.0, np.ones((2, 2)))
        with pytest.raises(GeometryMismatch):
            extent_metrics(a, b)

    def test_nodata_excluded(self):
        mask = np.array([[False, True], [False, False]])
        obs = Grid(0, 0, 1.0, np.array([[1.0, 0.0], [0.0, 1.0]]), mask)
        pred = Grid(0, 0, 1.0, np.array([[1.0, 5.0], [0.0, 1.0]]), mask)
        report = extent_metrics(pred, obs)
        assert report.fit == 1.0 and report.rmse == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 50.0), st.integers(0, 2**31 - 1))
    def test_percent_bias_scale_equivariant(self, scale, seed):
        rng = np.random.default_rng(seed)
        obs_vals = np.where(rng.random((5, 5)) < 0.6, rng.uniform(0.1, 2, (5, 5)), 0.0)
        pred_vals = np.where(rng.random((5, 5)) < 0.6, rng.uniform(0.1, 2, (5, 5)), 0.0)
        if not obs_vals.any():
            return
        base = extent_metrics(depth_grid(pred_vals), depth_grid(obs_vals))
        scaled = extent_metrics(depth_grid(pred_vals * scale), depth_grid(obs_vals * scale))
        assert scaled.percent_bias == pytest.approx(base.percent_bias, rel=1e-9)


class TestUspe:
    def test_zero_errors(self):
        m = np.array([1.0, 2.0, 3.0])
        report = uspe(m, m, np.eye(3), n_mean_params=1)
        assert np.all(report.values == 0)
        assert report.df == 2

    def test_diagonal_standardization(self):
        report = uspe(np.array([2.0, -2.0]), np.zeros(2), np.diag([4.0, 4.0]), 1)
        assert report.values.tolist() == [1.0, -1.0]

    def test_magnitudes_order_invariant_for_diagonal_cov(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(6)
        m = rng.standard_normal(6)
        s = np.diag(rng.uniform(0.5, 2.0, 6))
        base = np.sort(np.abs(uspe(y, m, s, 2).values))
        perm = rng.permutation(6)
        shuffled = np.sort(np.abs(uspe(y[perm], m[perm], s[perm][:, perm], 2).values))
        assert np.allclose(base, shuffled)

    def test_qq_theoretical_quantiles(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(10)
        report = uspe(y, np.zeros(10), np.eye(10), 3)
        probs = (np.arange(1, 11) - 0.5) / 10
        assert np.allclose(report.qq[:, 1], t_dist.ppf(probs, 7))
        assert np.all(np.diff(report.qq[:, 0]) >= 0)

    @pytest.mark.parametrize("n, n_mean_params", [(2, 1), (7, 3), (10, 3), (51, 6), (199, 140)])
    def test_qq_quantiles_bitwise_equal_to_t_ppf(self, n, n_mean_params):
        rng = np.random.default_rng(n)
        report = uspe(rng.standard_normal(n), np.zeros(n), np.eye(n), n_mean_params)
        probs = (np.arange(1, n + 1) - 0.5) / n
        expected = t_dist.ppf(probs, n - n_mean_params)
        # bytes, not values: a -0.0 at p = 0.5 (odd n) would compare equal to 0.0
        assert report.qq[:, 1].tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_non_positive_df(self):
        with pytest.raises(NonPositiveDf):
            uspe(np.zeros(3), np.zeros(3), np.eye(3), 3)

    def test_indefinite_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            uspe(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("argument", [0, 1, 2])
    def test_non_finite_input(self, bad, argument):
        args = [np.zeros(3), np.zeros(3), np.eye(3)]
        args[argument].flat[1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            uspe(*args, 1)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (4, 4), (9,)])
    def test_covariance_shape_must_match(self, shape):
        with pytest.raises(LengthMismatch):
            uspe(np.zeros(3), np.zeros(3), np.ones(shape), 1)

    def test_whitening_against_cholesky_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        s = a @ a.T + 5 * np.eye(5)
        y = rng.standard_normal(5)
        m = rng.standard_normal(5)
        report = uspe(y, m, s, 1)
        chol = np.linalg.cholesky(s)
        oracle = np.linalg.solve(chol, y - m)
        assert np.allclose(report.values, oracle)


class TestSummaries:
    def test_all_zero(self):
        assert summarize_d(np.zeros(7)) == (0.0, 0.0, 0.0, 0.0)

    def test_known_values(self):
        vals = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        q1, med, mean, q3 = summarize_d(vals)
        assert (q1, med, mean, q3) == (2.0, 3.0, 3.0, 4.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            summarize_d([])

    def test_table_format(self):
        text = format_d_table({"50e200c": (-0.180, -0.030, -0.033, 0.047)})
        lines = text.splitlines()
        assert lines[0].split() == ["Q1", "Median", "Mean", "Q3"]
        assert lines[1].split()[0] == "50e200c"
        assert lines[1].split()[1:] == ["-0.180", "-0.030", "-0.033", "0.047"]
