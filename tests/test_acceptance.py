"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single ``criterion NN [...]: PASS/FAIL`` line (visible
with ``pytest -s`` or in captured output).  Stochastic criteria run at
fixed seeds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chisquare, t as t_dist

from floodcal.calibrate import (
    CalibrationPriors,
    McmcConfig,
    effective_sample_size,
    random_walk_metropolis,
    reduce_observation,
    run_mh,
)
from floodcal.design import ParameterSpace, augment_cheap, edge_mask, maximin_lhs
from floodcal.diagnostics import extent_metrics, rmse, uspe
from floodcal.emulator import (
    EmulatorParams,
    HrParams,
    TrendPrior,
    fit_multires,
    fit_singleres,
    joint_gram,
    predict,
    predict_hr,
    predict_many,
)
from floodcal.grid import Grid
from floodcal.reduce import RunEnsemble, build_ensemble, fit_basis, project, reconstruct
from floodcal.synthmodel import (
    SynthConfig,
    run_cheap,
    run_expensive,
    shared_locations,
    simulate_observation,
)

from conftest import build_hr, build_mr
from test_emulator import mvn_conditioning_oracle


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} [{name}]: FAIL")
        raise
    print(f"criterion {num:2d} [{name}]: PASS")


@pytest.fixture(scope="module")
def flood_space():
    return ParameterSpace((("n_ch", 0.02, 0.1), ("rwe", 0.95, 1.05)))


@pytest.fixture(scope="module", autouse=True)
def warm_kernels(unit_space):
    """Make one prediction first, so timed criteria do not pay first-call costs."""
    rng = np.random.default_rng(0)
    theta_e = rng.random((2, 2))
    theta_c = np.vstack([theta_e, rng.random((2, 2))])
    params = EmulatorParams(rho=0.5, var_cheap=1.0, var_exp=0.5, nugget_cheap=0.01,
                            nugget_exp=0.01, range_cheap=[0.5, 0.5], range_exp=[0.5, 0.5])
    emu = build_mr(unit_space, theta_c, theta_e, rng.standard_normal(4),
                   rng.standard_normal(2), params)
    predict(emu, np.array([0.5, 0.5]))


def random_hyperparams(rng, k=2):
    return EmulatorParams(
        rho=rng.normal(0.9, 0.3),
        var_cheap=rng.uniform(0.5, 2.0),
        var_exp=rng.uniform(0.2, 1.0),
        nugget_cheap=rng.uniform(0.005, 0.05),
        nugget_exp=rng.uniform(0.005, 0.05),
        range_cheap=rng.uniform(0.3, 1.2, k),
        range_exp=rng.uniform(0.3, 1.2, k),
    )


def test_criterion_01_mvn_conditioning_oracle(unit_space):
    with criterion(1, "MVN conditioning oracle"):
        rng = np.random.default_rng(101)
        elapsed = 0.0
        for _ in range(20):
            theta_e = rng.random((2, 2))
            theta_c = np.vstack([theta_e, rng.random((2, 2))])
            params = random_hyperparams(rng)
            trend = TrendPrior(rng.standard_normal(6) * 0.3,
                               rng.uniform(0.5, 1.5) * np.eye(3),
                               rng.uniform(0.5, 1.5) * np.eye(3))
            t = rng.standard_normal(6)
            theta0 = rng.random(2)
            emu = build_mr(unit_space, theta_c, theta_e, t[:4], t[4:], params, trend)
            start = time.perf_counter()
            out = predict(emu, theta0)
            elapsed += time.perf_counter() - start
            mean, var = mvn_conditioning_oracle(theta_c, theta_e, theta0, t, params, trend)
            assert abs(out.mean[0] - mean) <= 1e-8 * max(1e-30, abs(mean))
            assert abs(out.variance[0] - var) <= 1e-8 * abs(var)
        assert elapsed < 1.0, f"prediction time {elapsed:.3f}s exceeds 1s"


def test_criterion_02_reduction_to_single_resolution(unit_space):
    with criterion(2, "MR(rho=0, B_C=0) equals HR"):
        rng = np.random.default_rng(102)
        theta_e = rng.random((6, 2))
        theta_c = np.vstack([theta_e, rng.random((8, 2))])
        hr = HrParams(var=0.7, nugget=0.02, range_=[0.5, 0.8])
        mr = EmulatorParams(rho=0.0, var_cheap=1.3, var_exp=hr.var,
                            nugget_cheap=0.04, nugget_exp=hr.nugget,
                            range_cheap=[0.6, 0.6], range_exp=hr.range_)
        trend_mean_e = rng.standard_normal(3) * 0.2
        trend = TrendPrior(np.concatenate([np.zeros(3), trend_mean_e]),
                           np.zeros((3, 3)), np.eye(3))
        t_c = rng.standard_normal(14)
        t_e = rng.standard_normal(6)
        emu_mr = build_mr(unit_space, theta_c, theta_e, t_c, t_e, mr, trend)
        emu_hr = build_hr(unit_space, theta_e, t_e, hr, trend_mean_e, np.eye(3))
        for theta0 in rng.random((50, 2)):
            a = predict(emu_mr, theta0)
            b = predict_hr(emu_hr, theta0)
            assert abs(a.mean[0] - b.mean[0]) < 1e-10
            assert abs(a.variance[0] - b.variance[0]) < 1e-10


def test_criterion_03_interpolation_at_training_points(unit_space):
    with criterion(3, "training-point interpolation"):
        rng = np.random.default_rng(103)
        theta_e = rng.random((10, 2))
        theta_c = np.vstack([theta_e, rng.random((10, 2))])
        params = EmulatorParams(rho=0.85, var_cheap=1.0, var_exp=0.5,
                                nugget_cheap=0.01, nugget_exp=1e-8,
                                range_cheap=[0.5, 0.6], range_exp=[0.4, 0.5])
        t = rng.standard_normal(30)
        emu = build_mr(unit_space, theta_c, theta_e, t[:20], t[20:], params)
        for i in range(10):
            out = predict(emu, theta_e[i])
            assert abs(out.mean[0] - t[20 + i]) < 1e-4


def test_criterion_04_monte_carlo_gram_check(unit_space):
    with criterion(4, "generative Monte Carlo gram"):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        theta_e = rng.random((2, 1))
        theta_c = np.vstack([theta_e, rng.random((2, 1))])
        p_c, p_e = 4, 2
        params = EmulatorParams(rho=0.8, var_cheap=1.2, var_exp=0.5,
                                nugget_cheap=0.05, nugget_exp=0.08,
                                range_cheap=[0.6], range_exp=[0.4])
        trend = TrendPrior(rng.standard_normal(4) * 0.5, 0.8 * np.eye(2), 1.1 * np.eye(2))
        h, m = joint_gram(theta_c, theta_e, params, trend)

        n_draws = 200_000

        def corr(x, y, r):
            return np.exp(-((x[:, None, :] - y[None, :, :]) ** 2 @ (1.0 / np.asarray(r))))

        cov_gc = params.var_cheap * corr(theta_c, theta_c, params.range_cheap)
        chol_gc = np.linalg.cholesky(cov_gc + 1e-12 * np.eye(p_c))
        cov_ge = params.var_exp * corr(theta_e, theta_e, params.range_exp)
        chol_ge = np.linalg.cholesky(cov_ge + 1e-12 * np.eye(p_e))
        idx_e = [int(np.flatnonzero(np.all(theta_c == te, axis=1))[0]) for te in theta_e]
        chol_bc = np.linalg.cholesky(trend.cov_cheap)
        chol_be = np.linalg.cholesky(trend.cov_exp)
        beta_c = trend.mean[:2] + rng.standard_normal((n_draws, 2)) @ chol_bc.T
        beta_e = trend.mean[2:] + rng.standard_normal((n_draws, 2)) @ chol_be.T
        g_c = rng.standard_normal((n_draws, p_c)) @ chol_gc.T
        g_e = rng.standard_normal((n_draws, p_e)) @ chol_ge.T
        eps_c = rng.normal(0, math.sqrt(params.nugget_cheap), (n_draws, p_c))
        eps_e = rng.normal(0, math.sqrt(params.nugget_exp), (n_draws, p_e))
        h_c = np.hstack([np.ones((p_c, 1)), theta_c])
        h_e = np.hstack([np.ones((p_e, 1)), theta_e])
        t_c = beta_c @ h_c.T + g_c + eps_c
        t_e = (params.rho * beta_c + beta_e) @ h_e.T + params.rho * g_c[:, idx_e] + g_e + eps_e
        draws = np.hstack([t_c, t_e])

        empirical = np.cov(draws, rowvar=False)
        mc_se = np.sqrt((np.outer(np.diag(m), np.diag(m)) + m**2) / n_draws)
        z = np.abs(empirical - m) / mc_se
        assert z.max() <= 3.0, f"max deviation {z.max():.2f} MC standard errors"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"{elapsed:.1f}s exceeds 30s"


def test_criterion_05_pca_bound(flood_space):
    with criterion(5, "PCA retention bound"):
        config = SynthConfig(space=flood_space)
        locations = shared_locations(config)
        for seed in (201, 202, 203):
            exp = maximin_lhs(flood_space, 10, seed, n_candidates=50)
            design = augment_cheap(exp, flood_space, extra=20, seed=seed + 1000)
            exp_grids = [run_expensive(p, config) for p in design.expensive_points]
            cheap_grids = [run_cheap(p, config) for p in design.cheap_points]
            ensemble = build_ensemble(exp_grids, cheap_grids, design, locations)
            basis = fit_basis(ensemble, 0.95)
            depths = ensemble.depths
            rebuilt = reconstruct(basis, project(basis, depths))
            centered = depths - basis.column_mean
            frac = np.linalg.norm(depths - rebuilt) ** 2 / np.linalg.norm(centered) ** 2
            assert frac <= 1 - 0.95 + 1e-6
            gram = basis.components.T @ basis.components
            off = np.abs(gram - np.diag(np.diag(gram))).max()
            assert off < 1e-10 * np.abs(np.diag(gram)).max()


def test_criterion_06_metric_identities():
    with criterion(6, "extent metric identities"):
        rng = np.random.default_rng(104)
        vals = np.where(rng.random((8, 8)) < 0.5, rng.uniform(0.1, 2, (8, 8)), 0.0)
        g = Grid(0, 0, 1.0, vals)
        report = extent_metrics(g, g)
        assert (report.rmse, report.percent_bias) == (0.0, 0.0)
        assert (report.fit, report.correctness) == (1.0, 1.0)

        checked = 0
        while checked < 100:
            pred_vals = np.where(rng.random((8, 8)) < 0.5, rng.uniform(0.1, 2, (8, 8)), 0.0)
            obs_vals = np.where(rng.random((8, 8)) < 0.5, rng.uniform(0.1, 2, (8, 8)), 0.0)
            if not obs_vals.any():
                continue
            report = extent_metrics(Grid(0, 0, 1.0, pred_vals), Grid(0, 0, 1.0, obs_vals))
            wet_r = int((obs_vals > 0).sum())
            wet_m = int((pred_vals > 0).sum())
            both = int(((obs_vals > 0) & (pred_vals > 0)).sum())
            assert report.fit == pytest.approx(both / (wet_r + wet_m - both))
            assert report.correctness == pytest.approx(both / wet_r)
            checked += 1


def test_criterion_07_uspe_calibration():
    with criterion(7, "USPE tail calibration"):
        rng = np.random.default_rng(105)
        n = 200
        grid = np.linspace(0, 10, n)
        cov = np.exp(-((grid[:, None] - grid[None, :]) ** 2) / 2.0) + 0.1 * np.eye(n)
        mean = np.sin(grid)
        y = rng.multivariate_normal(mean, cov)  # SVD-based draw, not Cholesky
        report = uspe(y, mean, cov, n_mean_params=2)
        crit = t_dist.ppf(0.975, report.df)
        rate = float(np.mean(np.abs(report.values) > crit))
        assert abs(rate - 0.05) <= 0.03, f"exceedance rate {rate:.3f}"


def test_criterion_08_mh_against_analytic_targets():
    with criterion(8, "MH correctness on analytic targets"):
        mean = np.array([1.0, -2.0])
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        prec = np.linalg.inv(cov)

        def gauss_target(x):
            d = x - mean
            return -0.5 * float(d @ prec @ d)

        bounds = np.array([[-60.0, 60.0]] * 2)
        samples, *_ = random_walk_metropolis(
            gauss_target, mean.copy(), bounds, np.array([1.0, 1.4]),
            iterations=50_000, seed=106, burn_in=5_000,
        )
        ess = np.array([effective_sample_size(samples[:, i]) for i in range(2)])
        for i in range(2):
            se = math.sqrt(cov[i, i] / ess[i])
            assert abs(samples[:, i].mean() - mean[i]) <= 3 * se
        sample_cov = np.cov(samples, rowvar=False)
        ess_min = ess.min()
        for i in range(2):
            for j in range(2):
                se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / ess_min)
                assert abs(sample_cov[i, j] - cov[i, j]) <= 3 * se

        # uniform box: the empirical marginals pass a chi-square GOF test
        box = np.array([[0.0, 1.0], [0.0, 1.0]])
        flat, *_ = random_walk_metropolis(
            lambda x: 0.0, np.full(2, 0.5), box, np.full(2, 0.8),
            iterations=50_000, seed=107, burn_in=5_000,
        )
        thinned = flat[::20]
        for i in range(2):
            counts, _ = np.histogram(thinned[:, i], bins=10, range=(0, 1))
            result = chisquare(counts)
            assert result.pvalue >= 0.01, f"coordinate {i}: p={result.pvalue:.4f}"


def test_criterion_09_end_to_end_recovery(flood_space):
    with criterion(9, "synthetic recovery at theta*"):
        start = time.perf_counter()
        config = SynthConfig(space=flood_space)
        theta_star = np.array([0.0305, 1.0])

        exp = maximin_lhs(flood_space, 20, seed=301, n_candidates=500)
        design = augment_cheap(exp, flood_space, extra=60, seed=302)
        assert design.n_expensive == 20 and design.n_cheap == 80

        locations = shared_locations(config)
        exp_grids = [run_expensive(p, config) for p in design.expensive_points]
        cheap_grids = [run_cheap(p, config) for p in design.cheap_points]
        ensemble = build_ensemble(exp_grids, cheap_grids, design, locations)
        basis = fit_basis(ensemble, 0.95)
        emulator = fit_multires(design, project(basis, ensemble.depths), n_starts=8, seed=303)

        obs = simulate_observation(theta_star, config, seed=304, locations=locations)
        z_r = reduce_observation(obs, basis)
        chain = run_mh(
            z_r, emulator, basis, CalibrationPriors(noise_guess=0.03),
            McmcConfig(iterations=50_000, seed=305),
        )
        for i, name in enumerate(flood_space.names):
            lo, hi = np.quantile(chain.samples[:, i], [0.025, 0.975])
            assert lo <= theta_star[i] <= hi, (
                f"{name}: true {theta_star[i]} outside [{lo:.4f}, {hi:.4f}]"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"{elapsed:.0f}s exceeds 10 minutes"


def test_criterion_10_edge_case_direction(flood_space):
    with criterion(10, "edge hold-out favors MR"):
        config = SynthConfig(space=flood_space, rho_true=0.9)
        locations = shared_locations(config)
        bands = [(0.10, 0.0), (0.0, 0.05)]
        pooled = []
        for seed in (401, 402, 403, 404, 405):
            exp = maximin_lhs(flood_space, 30, seed, n_candidates=200)
            design = augment_cheap(exp, flood_space, extra=90, seed=seed + 50)
            held = edge_mask(design, bands)
            if not held[: design.n_expensive].any():
                continue
            exp_grids = [run_expensive(p, config) for p in design.expensive_points]
            cheap_grids = [run_cheap(p, config) for p in design.cheap_points]
            ensemble = build_ensemble(exp_grids, cheap_grids, design, locations)

            from floodcal.design import Design

            train_design = Design(design.points[~held], design.fidelity[~held], flood_space)
            train_ens = RunEnsemble(ensemble.depths[~held], train_design, locations)
            test_depths = ensemble.depths[held]
            test_thetas = design.points[held]

            basis = fit_basis(train_ens, 0.95)
            scores = project(basis, train_ens.depths)
            emu_mr = fit_multires(train_design, scores, n_starts=4, seed=seed + 60)
            emu_hr = fit_singleres(train_design, scores[:train_design.n_expensive], n_starts=4,
                                   seed=seed + 70)
            mean_mr, _ = predict_many(emu_mr, test_thetas)
            mean_hr, _ = predict_many(emu_hr, test_thetas)
            pred_mr = reconstruct(basis, mean_mr)
            pred_hr = reconstruct(basis, mean_hr)
            for i in range(len(test_thetas)):
                pooled.append(
                    rmse(pred_mr[i], test_depths[i]) - rmse(pred_hr[i], test_depths[i])
                )
        assert len(pooled) > 0
        med = float(np.median(pooled))
        assert med <= 0.0, f"median D(MR-HR) {med:.4f} > 0 over {len(pooled)} edge points"


def test_criterion_11_pipeline_determinism(tmp_path):
    with criterion(11, "byte-identical pipeline reruns"):
        from floodcal.cli import main

        config_text = """\
[space]
names = n_ch, rwe
lower = 0.02, 0.95
upper = 0.1, 1.05

[design]
n_expensive = 10
extra_cheap = 30
n_candidates = 50
edge_low_fractions = 0.10, 0.0
edge_high_fractions = 0.0, 0.05

[synth]
theta_star = 0.0305, 1.0

[emulator]
n_starts = 3

[mcmc]
iterations = 1200

[project]
n_thinned = 6

[crossval]
folds = 5
"""
        stages = ["design", "run-synth", "emulate", "calibrate", "project",
                  "diagnose", "crossval"]
        roots = []
        for run in ("first", "second"):
            root = tmp_path / run
            root.mkdir()
            cfg = root / "experiment.ini"
            cfg.write_text(config_text)
            for stage in stages:
                assert main([stage, "--config", str(cfg)]) == 0, stage
            roots.append(root)

        first_files = sorted(
            p.relative_to(roots[0]) for p in roots[0].rglob("*") if p.is_file()
        )
        second_files = sorted(
            p.relative_to(roots[1]) for p in roots[1].rglob("*") if p.is_file()
        )
        assert first_files == second_files
        for rel in first_files:
            if rel.name == "experiment.ini":
                continue
            a = (roots[0] / rel).read_bytes()
            b = (roots[1] / rel).read_bytes()
            assert a == b, f"artifact differs between reruns: {rel}"
