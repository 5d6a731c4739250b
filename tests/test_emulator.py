import json
import math
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodcal.design import ParameterSpace
from floodcal.emulator import (
    LOG_BOUNDS,
    RHO_BOUNDS,
    EmulatorParams,
    HrParams,
    HyperPriors,
    TrendPrior,
    _FitWorkspace,
    _chol_with_jitter,
    _params_to_x,
    _x_to_params,
    default_trend_prior,
    fit,
    joint_gram,
    load_emulator,
    log_posterior,
    predict,
    predict_hr,
    predict_joint,
    predict_many,
    save_emulator,
    singleres_emulator,
    thread_map,
)
from floodcal.errors import ExtrapolationWarning, MalformedArtifact

from conftest import build_hr, build_mr, draw_scores, make_nested_design
from oracles import cov_cc, cov_ce, cov_ee


def basic_params(k=2, **overrides):
    defaults = dict(
        rho=0.9, var_cheap=1.0, var_exp=0.5, nugget_cheap=0.01, nugget_exp=0.02,
        range_cheap=np.full(k, 0.5), range_exp=np.full(k, 0.4),
    )
    defaults.update(overrides)
    return EmulatorParams(**defaults)


def mvn_conditioning_oracle_joint(theta_c, theta_e, test_thetas, t, params, trend):
    """Brute-force conditional of the jointly assembled marginalized MVN.

    Assembled from scratch: latent GP covariances, per-run nuggets, and the
    trend-coefficient prior folded in through the full trend matrix.  Each
    test setting is a new expensive realization (own noise, shared latents).
    Returns the conditional (mean vector, covariance matrix) of the tests.
    """
    k1 = theta_e.shape[1] + 1
    test_thetas = np.atleast_2d(test_thetas)
    m = test_thetas.shape[0]

    def sqexp(a, b, r):
        return math.exp(-float(np.sum((a - b) ** 2 / np.asarray(r))))

    pts = [(x, "C") for x in theta_c] + [(x, "E") for x in theta_e]
    pts += [(x, "new") for x in test_thetas]
    n_all = len(pts)
    cov = np.zeros((n_all, n_all))
    for i, (xi, fi) in enumerate(pts):
        for j, (xj, fj) in enumerate(pts):
            same = i == j  # nuggets are per-run noise
            base_c = params.var_cheap * sqexp(xi, xj, params.range_cheap)
            base_e = params.var_exp * sqexp(xi, xj, params.range_exp)
            if fi == "C" and fj == "C":
                cov[i, j] = base_c + params.nugget_cheap * same
            elif fi == "C" or fj == "C":
                cov[i, j] = params.rho * base_c
            else:
                cov[i, j] = params.rho**2 * base_c + base_e
                if same:
                    cov[i, j] += params.nugget_exp

    def trend_row(x, f):
        h = np.concatenate(([1.0], x))
        if f == "C":
            return np.concatenate([h, np.zeros(k1)])
        return np.concatenate([params.rho * h, h])

    h_all = np.array([trend_row(x, f) for x, f in pts])
    full = cov + h_all @ trend.block_cov @ h_all.T
    mu = h_all @ trend.mean
    n_train = n_all - m
    s11 = full[:n_train, :n_train]
    s01 = full[n_train:, :n_train]
    sol = np.linalg.solve(s11, s01.T)
    mean = mu[n_train:] + sol.T @ (t - mu[:n_train])
    cond = full[n_train:, n_train:] - s01 @ sol
    return mean, cond


def mvn_conditioning_oracle(theta_c, theta_e, theta0, t, params, trend):
    mean, cond = mvn_conditioning_oracle_joint(theta_c, theta_e, theta0, t, params, trend)
    return mean[0], cond[0, 0]


class TestCovarianceFunctions:
    def test_cc_diagonal(self):
        p = basic_params()
        theta = np.array([0.3, 0.4])
        assert cov_cc(theta, theta, p, same_run=True) == pytest.approx(p.var_cheap + p.nugget_cheap)
        assert cov_cc(theta, theta, p) == pytest.approx(p.var_cheap)  # a second run there

    def test_cc_monotone_decay(self):
        p = basic_params(k=1, range_cheap=[0.5], range_exp=[0.5])
        vals = [cov_cc([0.0], [d], p) for d in (0.1, 0.5, 1.0, 3.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_cc_hand_value(self):
        # var 2, nugget 0.1, squared range 4, separation 1 -> 2 exp(-1/4)
        p = basic_params(k=1, var_cheap=2.0, nugget_cheap=0.1,
                         range_cheap=[4.0], range_exp=[1.0])
        val = cov_cc([0.0], [1.0], p)
        assert val == pytest.approx(2.0 * math.exp(-0.25), rel=1e-12)

    def test_ce_zero_when_rho_zero(self):
        p = basic_params(rho=0.0)
        assert cov_ce([0.1, 0.2], [0.3, 0.4], p) == 0.0

    def test_ee_diagonal(self):
        p = basic_params()
        theta = np.array([0.5, 0.5])
        expected = p.rho**2 * p.var_cheap + p.var_exp + p.nugget_exp
        assert cov_ee(theta, theta, p, same_run=True) == pytest.approx(expected)
        assert cov_ee(theta, theta, p) == pytest.approx(expected - p.nugget_exp)

    def test_ee_twice_ce_identity(self):
        # rho=1, equal variances and ranges, no expensive nugget:
        # C_E = 2 * C_CE algebraically
        p = basic_params(
            k=1, rho=1.0, var_cheap=1.3, var_exp=1.3, nugget_exp=1e-300,
            range_cheap=[0.7], range_exp=[0.7],
        )
        a, b = np.array([0.1]), np.array([0.6])
        assert cov_ee(a, b, p) == pytest.approx(2.0 * cov_ce(a, b, p), rel=1e-12)


class TestJointGram:
    def test_single_cheap_point(self):
        p = basic_params(k=1, range_cheap=[0.5], range_exp=[0.5])
        trend = default_trend_prior(1)
        theta_c = np.array([[0.4]])
        h, m = joint_gram(theta_c, np.zeros((0, 1)), p, trend)
        hrow = np.array([1.0, 0.4])
        expected = p.var_cheap + p.nugget_cheap + hrow @ hrow
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_and_choleskyable(self):
        rng = np.random.default_rng(0)
        theta_e = rng.random((3, 2))
        theta_c = np.vstack([theta_e, rng.random((4, 2))])
        p = basic_params()
        h, m = joint_gram(theta_c, theta_e, p, default_trend_prior(2))
        assert np.max(np.abs(m - m.T)) < 1e-12
        np.linalg.cholesky(m)
        assert h.shape == (7 + 3, 6)


class TestLogPosterior:
    def test_quadratic_form_vanishes_at_trend_mean(self):
        rng = np.random.default_rng(1)
        theta_e = rng.random((3, 2))
        theta_c = np.vstack([theta_e, rng.random((3, 2))])
        p = basic_params()
        trend = TrendPrior(rng.standard_normal(6) * 0.4, np.eye(3), np.eye(3))
        h, m = joint_gram(theta_c, theta_e, p, trend)
        t = h @ trend.mean
        hp = HyperPriors()
        val = log_posterior(p, hp, t, theta_c, theta_e, trend)
        _, logdet = np.linalg.slogdet(2 * math.pi * m)
        from floodcal.emulator import _log_hyperprior

        assert val - _log_hyperprior(p, hp) == pytest.approx(-0.5 * logdet, rel=1e-10)

    def test_perturbation_along_eigenvector_lowers_likelihood(self):
        rng = np.random.default_rng(2)
        theta_e = rng.random((2, 2))
        theta_c = np.vstack([theta_e, rng.random((3, 2))])
        p = basic_params()
        trend = default_trend_prior(2)
        h, m = joint_gram(theta_c, theta_e, p, trend)
        w, v = np.linalg.eigh(m)
        t0 = h @ trend.mean
        hp = HyperPriors()
        base = log_posterior(p, hp, t0, theta_c, theta_e, trend)
        for j in (0, len(w) - 1):
            shifted = log_posterior(p, hp, t0 + v[:, j], theta_c, theta_e, trend)
            assert shifted < base

    def test_one_point_scalar_closed_form(self):
        # 1 cheap + 1 expensive at distant settings, diagonal-dominant case,
        # against the scalar normal pdf with hand-assembled variances
        p = basic_params(k=1, range_cheap=[0.5], range_exp=[0.5])
        trend = TrendPrior(np.zeros(4), np.zeros((2, 2)), np.zeros((2, 2)))
        theta_c = np.array([[0.0]])
        theta_e = np.array([[1000.0]])
        t = np.array([0.7, -0.4])
        var_c = p.var_cheap + p.nugget_cheap
        var_e = p.rho**2 * p.var_cheap + p.var_exp + p.nugget_exp
        cross = p.rho * p.var_cheap * math.exp(-1000.0**2 / 0.5)
        assert cross < 1e-200  # effectively independent
        expected_ll = (
            -0.5 * (math.log(2 * math.pi * var_c) + t[0] ** 2 / var_c)
            - 0.5 * (math.log(2 * math.pi * var_e) + t[1] ** 2 / var_e)
        )
        from floodcal.emulator import _log_hyperprior

        val = log_posterior(p, HyperPriors(), t, theta_c, theta_e, trend)
        assert val - _log_hyperprior(p, HyperPriors()) == pytest.approx(expected_ll, rel=1e-10)


class TestFit:
    def test_never_worse_than_probed_truth(self, unit_space):
        design = make_nested_design(unit_space, 6, 10, seed=31)
        truth = basic_params()
        trend = default_trend_prior(2)
        scores = draw_scores(design, [truth], trend, seed=32)
        theta_e = unit_space.scale(design.expensive_points)
        theta_c = unit_space.scale(design.cheap_points)
        t = np.concatenate([scores[6:, 0], scores[:6, 0]])
        fitted = fit(t, theta_c, theta_e, n_starts=2, seed=33, extra_starts=(truth,))
        hp = HyperPriors()
        val_fit = log_posterior(fitted, hp, t, theta_c, theta_e, trend)
        val_truth = log_posterior(truth, hp, t, theta_c, theta_e, trend)
        assert val_fit >= val_truth - 1e-6

    def test_single_resolution_never_worse_than_probed_truth(self, unit_space):
        rng = np.random.default_rng(34)
        theta_e = rng.random((8, 2))
        no_cheap = np.zeros((0, 2))
        truth = basic_params(rho=0.0, nugget_cheap=1.0, range_cheap=np.ones(2))
        trend = default_trend_prior(2)
        _, m = joint_gram(no_cheap, theta_e, truth, trend)
        t = np.linalg.cholesky(m) @ rng.standard_normal(8)
        fitted = fit(t, no_cheap, theta_e, n_starts=1, seed=35, extra_starts=(truth,))
        assert fitted.rho == 0.0
        hp = HyperPriors()
        val_fit = log_posterior(fitted, hp, t, no_cheap, theta_e, trend)
        val_truth = log_posterior(truth, hp, t, no_cheap, theta_e, trend)
        assert val_fit >= val_truth - 1e-6

    def test_uncorrelated_scores_shrink_rho(self, unit_space):
        design = make_nested_design(unit_space, 8, 16, seed=41)
        trend = default_trend_prior(2)
        truth = basic_params(rho=0.9)
        correlated = draw_scores(design, [truth], trend, seed=42)
        rng = np.random.default_rng(42)
        uncorrelated = correlated.copy()
        uncorrelated[:8] = rng.standard_normal((8, 1))  # replace expensive block
        theta_e = unit_space.scale(design.expensive_points)
        theta_c = unit_space.scale(design.cheap_points)

        def fit_rho(scores):
            t = np.concatenate([scores[8:, 0], scores[:8, 0]])
            return fit(t, theta_c, theta_e, n_starts=4, seed=43).rho

        assert abs(fit_rho(uncorrelated)) < abs(fit_rho(correlated))

    def test_constant_scores_tolerated(self, unit_space):
        design = make_nested_design(unit_space, 4, 6, seed=51)
        theta_e = unit_space.scale(design.expensive_points)
        theta_c = unit_space.scale(design.cheap_points)
        t = np.full(len(design.points), 1.3)
        fitted = fit(t, theta_c, theta_e, n_starts=2, seed=52)
        assert fitted.nugget_cheap > 0 and fitted.nugget_exp > 0

    def test_repeated_expensive_setting(self):
        # two expensive runs at one setting: two noisy looks at one value
        rng = np.random.default_rng(53)
        theta_e = rng.random((6, 2))
        theta_e[1] = theta_e[0]
        theta_c = np.vstack([theta_e, rng.random((8, 2))])

        def model(theta):  # deterministic, so the repeated runs agree
            return np.sin(3 * theta.sum(axis=1)) + theta[:, 0]

        t = np.concatenate([model(theta_c), 0.8 * model(theta_e) + 0.1 * theta_e[:, 1]])
        fitted = fit(t, theta_c, theta_e, n_starts=3, seed=54)
        assert np.all(np.isfinite(_params_to_x(fitted)))
        val = log_posterior(fitted, HyperPriors(), t, theta_c, theta_e, default_trend_prior(2))
        assert np.isfinite(val)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_repeated_setting_fits_inside_bounds(self, seed):
        # 6e14c with one expensive setting (and so its cheap twin) repeated and
        # scores that differ there: the nugget on the diagonal keeps M positive
        # definite, so no jitter hides a singular gram and the fit stays inside
        rng = np.random.default_rng(seed)
        theta_e = rng.random((6, 2))
        theta_e[1] = theta_e[0]
        theta_c = np.vstack([theta_e, rng.random((8, 2))])
        t = rng.standard_normal(20)
        fitted = fit(t, theta_c, theta_e, n_starts=3, seed=seed)
        trend = default_trend_prior(2)
        assert np.isfinite(log_posterior(fitted, HyperPriors(), t, theta_c, theta_e, trend))
        x = _params_to_x(fitted)
        lo = np.array([LOG_BOUNDS[0]] * 8 + [RHO_BOUNDS[0]])
        hi = np.array([LOG_BOUNDS[1]] * 8 + [RHO_BOUNDS[1]])
        assert np.all((x > lo + 1e-6) & (x < hi - 1e-6)), x
        m = _FitWorkspace(theta_c, theta_e, trend)._assemble(fitted)[3]
        assert _chol_with_jitter(m)[1] is m  # factored without jitter

    def test_preconditions(self, unit_space):
        with pytest.raises(ValueError):
            fit(np.zeros(2), np.zeros((1, 2)), np.zeros((1, 2)))


def _fd_gradient(f, x, step=1e-5):
    """Central finite differences of a scalar function."""
    grad = np.empty_like(x)
    for i in range(len(x)):
        up, down = x.copy(), x.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (f(up) - f(down)) / (2 * step)
    return grad


def _objective(theta_c, theta_e, scores, trend, free, fixed):
    """fit's coordinates: x over ``free``, ``fixed`` elsewhere."""
    ws = _FitWorkspace(theta_c, theta_e, trend)
    k = theta_e.shape[1]

    def value_and_grad(x):
        full = fixed.copy()
        full[free] = x
        val, grad = ws.neg_log_posterior_and_grad(_x_to_params(full, k), scores, HyperPriors())
        return val, grad[free]

    return value_and_grad


def _random_x(rng, k):
    """log var/nugget/range and rho around typical fitted values."""
    return np.concatenate([rng.normal(-1.0, 1.0, 4), rng.normal(-0.8, 0.5, 2 * k),
                           [rng.normal(0.8, 0.4)]])


class TestGradient:
    """The analytic MAP gradient against central finite differences."""

    TOL = 1e-6  # relative, in the max norm; observed errors are ~1e-10

    def assert_matches_fd(self, objective, x):
        _, grad = objective(x)
        fd = _fd_gradient(lambda y: objective(y)[0], x)
        assert np.max(np.abs(grad - fd)) <= self.TOL * np.max(np.abs(fd))

    def test_multires(self):
        rng = np.random.default_rng(100)
        theta_e = rng.random((6, 2))
        theta_c = np.vstack([theta_e, rng.random((8, 2))])
        t = rng.standard_normal(20)
        for _ in range(4):
            x = _random_x(rng, 2)
            assert abs(x[-1]) > 0.05
            free = np.arange(len(x))
            self.assert_matches_fd(
                _objective(theta_c, theta_e, t, default_trend_prior(2), free, x), x)

    def test_single_resolution_subset(self):
        rng = np.random.default_rng(101)
        theta_e = rng.random((9, 2))
        t = rng.standard_normal(9)
        free = np.r_[1, 3, 6, 7]
        for _ in range(4):
            fixed = _random_x(rng, 2)
            fixed[[0, 2, 4, 5, 8]] = 0.0  # as fit holds them without cheap rows
            objective = _objective(np.zeros((0, 2)), theta_e, t, default_trend_prior(2),
                                   free, fixed)
            self.assert_matches_fd(objective, fixed[free])

    def test_trend_prior_terms(self):
        # non-zero trend mean and non-identity blocks exercise both rho-trend terms
        rng = np.random.default_rng(102)
        theta_e = rng.random((5, 3))
        theta_c = np.vstack([theta_e, rng.random((7, 3))])
        a, b = rng.standard_normal((2, 4, 4))
        trend = TrendPrior(rng.standard_normal(8), a @ a.T / 4 + 0.2 * np.eye(4),
                           b @ b.T / 4 + 0.2 * np.eye(4))
        t = rng.standard_normal(17)
        for _ in range(4):
            x = _random_x(rng, 3)
            free = np.arange(len(x))
            self.assert_matches_fd(_objective(theta_c, theta_e, t, trend, free, x), x)

    def test_fit_ends_stationary(self, gp_setup):
        """Every coordinate off a bound has a projected gradient below 1e-4.

        L-BFGS-B's own projected-gradient stop is 1e-5; fitted optima here
        measure up to 5e-6, so 1e-4 leaves margin for platform round-off.
        """
        design, scores = gp_setup["design"], gp_setup["scores"]
        space = design.space
        theta_c = space.scale(design.cheap_points)
        theta_e = space.scale(design.expensive_points)
        p_e = design.n_expensive
        mr, hr = gp_setup["emu_mr"], gp_setup["emu_hr"]
        cases = [(theta_c, np.concatenate([scores[p_e:, j], scores[:p_e, j]]), p, mr.trend_prior)
                 for j, p in enumerate(mr.params_list)]
        cases += [(np.zeros((0, 2)), scores[:p_e, j], p, hr.trend_prior)
                  for j, p in enumerate(hr.params_list)]
        lo = np.array([LOG_BOUNDS[0]] * 8 + [RHO_BOUNDS[0]])
        hi = np.array([LOG_BOUNDS[1]] * 8 + [RHO_BOUNDS[1]])
        for theta_cheap, t, params, trend in cases:
            x = _params_to_x(params)
            free = np.arange(9) if len(theta_cheap) else np.r_[1, 3, 6, 7]
            _, grad = _objective(theta_cheap, theta_e, t, trend, free, x)(x[free])
            inner = (x[free] > lo[free] + 1e-9) & (x[free] < hi[free] - 1e-9)
            assert inner.any()
            assert np.max(np.abs(grad[inner])) < 1e-4


class TestPredict:
    def test_mvn_conditioning_oracle(self, unit_space):
        rng = np.random.default_rng(60)
        theta_e = rng.random((2, 2))
        theta_c = np.vstack([theta_e, rng.random((1, 2))])
        params = basic_params()
        trend = TrendPrior(rng.standard_normal(6) * 0.3, 0.8 * np.eye(3), 1.2 * np.eye(3))
        t = rng.standard_normal(5)
        emu = build_mr(unit_space, theta_c, theta_e, t[:3], t[3:], params, trend)
        theta0 = rng.random(2)
        out = predict(emu, theta0)
        mean, var = mvn_conditioning_oracle(theta_c, theta_e, theta0, t, params, trend)
        assert out.mean[0] == pytest.approx(mean, rel=1e-9)
        assert out.variance[0] == pytest.approx(var, rel=1e-9)

    def test_interpolates_training_scores_with_tiny_nugget(self, unit_space):
        rng = np.random.default_rng(61)
        theta_e = rng.random((5, 2))
        theta_c = np.vstack([theta_e, rng.random((5, 2))])
        params = basic_params(nugget_exp=1e-8)
        t = rng.standard_normal(15)
        emu = build_mr(unit_space, theta_c, theta_e, t[:10], t[10:], params)
        for i in range(5):
            out = predict(emu, theta_e[i])
            assert abs(out.mean[0] - t[10 + i]) < 1e-4

    def test_interpolation_error_shrinks_with_nugget(self, unit_space):
        rng = np.random.default_rng(65)
        theta_e = rng.random((5, 2))
        theta_c = np.vstack([theta_e, rng.random((5, 2))])
        t = rng.standard_normal(15)

        def worst_error(nugget):
            emu = build_mr(unit_space, theta_c, theta_e, t[:10], t[10:],
                           basic_params(nugget_exp=nugget))
            return max(
                abs(predict(emu, theta_e[i]).mean[0] - t[10 + i]) for i in range(5)
            )

        errs = [worst_error(n) for n in (1e-2, 1e-5, 1e-8)]
        assert errs[0] > errs[1] > errs[2]

    def test_reduces_to_hr_when_rho_zero(self, unit_space):
        rng = np.random.default_rng(62)
        theta_e = rng.random((5, 2))
        theta_c = np.vstack([theta_e, rng.random((6, 2))])
        hr = HrParams(var=0.6, nugget=0.03, range_=[0.4, 0.7])
        mr = EmulatorParams(rho=0.0, var_cheap=1.0, var_exp=hr.var,
                            nugget_cheap=0.01, nugget_exp=hr.nugget,
                            range_cheap=[0.5, 0.5], range_exp=hr.range_)
        trend_mean_e = rng.standard_normal(3) * 0.2
        trend_mr = TrendPrior(np.concatenate([np.zeros(3), trend_mean_e]),
                              np.zeros((3, 3)), np.eye(3))
        t_c = rng.standard_normal(11)
        t_e = rng.standard_normal(5)
        emu_mr = build_mr(unit_space, theta_c, theta_e, t_c, t_e, mr, trend_mr)
        emu_hr = build_hr(unit_space, theta_e, t_e, hr, trend_mean_e, np.eye(3))
        for theta0 in rng.random((10, 2)):
            a = predict(emu_mr, theta0)
            b = predict_hr(emu_hr, theta0)
            assert abs(a.mean[0] - b.mean[0]) < 1e-10
            assert abs(a.variance[0] - b.variance[0]) < 1e-10

    def test_variance_floor_and_positivity(self, gp_setup):
        emu = gp_setup["emu_mr"]
        rng = np.random.default_rng(63)
        _, variances = predict_many(emu, rng.random((30, 2)))
        nuggets = np.array([p.nugget_exp for p in emu.params_list])
        assert np.all(variances >= nuggets - 1e-300)
        assert np.all(variances > 0)

    def test_extrapolation_flagged(self, gp_setup):
        emu = gp_setup["emu_mr"]
        with pytest.warns(ExtrapolationWarning):
            out = predict(emu, np.array([1.5, 0.5]))
        assert out.extrapolated
        out_in = predict(emu, np.array([0.5, 0.5]))
        assert not out_in.extrapolated

    def test_cached_factor_reproduces_gram(self, gp_setup):
        for emu in (gp_setup["emu_mr"], gp_setup["emu_hr"]):
            for chol, params in zip(emu._packed.chol, emu.params_list):
                _, m = joint_gram(emu.theta_cheap, emu.theta_exp, params, emu.trend_prior)
                err = np.linalg.norm(chol @ chol.T - m)
                assert err <= 5 * np.finfo(float).eps * np.linalg.norm(m) * m.shape[0]

    def test_predict_joint_matches_pointwise(self, gp_setup):
        rng = np.random.default_rng(64)
        thetas = rng.random((4, 2))
        for emu in (gp_setup["emu_mr"], gp_setup["emu_hr"]):
            means, variances = predict_many(emu, thetas)
            joint = predict_joint(emu, thetas)
            for j in range(emu.n_components):
                mean_j, cov_j = joint[j]
                assert np.max(np.abs(mean_j - means[:, j])) < 1e-10
                assert np.max(np.abs(np.diag(cov_j) - variances[:, j])) < 1e-10

    def test_predict_joint_cross_covariances_against_oracle(self, unit_space):
        rng = np.random.default_rng(66)
        theta_e = rng.random((3, 2))
        theta_c = np.vstack([theta_e, rng.random((3, 2))])
        params = basic_params()
        trend = TrendPrior(rng.standard_normal(6) * 0.3, 0.9 * np.eye(3), 1.1 * np.eye(3))
        t = rng.standard_normal(9)
        emu = build_mr(unit_space, theta_c, theta_e, t[:6], t[6:], params, trend)
        tests = rng.random((3, 2))
        mean, cov = predict_joint(emu, tests)[0]
        mean_o, cov_o = mvn_conditioning_oracle_joint(theta_c, theta_e, tests, t, params, trend)
        assert np.max(np.abs(mean - mean_o)) < 1e-9
        assert np.max(np.abs(cov - cov_o)) < 1e-9


class TestSingleRes:
    def test_interpolation_with_tiny_nugget(self, unit_space):
        rng = np.random.default_rng(70)
        theta_e = rng.random((6, 2))
        t = rng.standard_normal(6)
        hr = HrParams(var=0.8, nugget=1e-8, range_=[0.5, 0.5])
        emu = build_hr(unit_space, theta_e, t, hr)
        for i in range(6):
            out = predict_hr(emu, theta_e[i])
            assert abs(out.mean[0] - t[i]) < 1e-4

    def test_sine_rmse_improves_with_training_size(self):
        space = ParameterSpace((("x", 0.0, 1.0),))
        dense = np.linspace(0.05, 0.95, 60)[:, None]
        truth = np.sin(2 * math.pi * dense[:, 0])

        def rmse_for(n_train):
            theta = np.linspace(0.0, 1.0, n_train)[:, None]
            t = np.sin(2 * math.pi * theta[:, 0])
            params = fit(t, np.zeros((0, 1)), theta, n_starts=4, seed=71)
            emu = build_mr(space, np.zeros((0, 1)), theta, np.zeros(0), t, params)
            means, _ = predict_many(emu, dense)
            return float(np.sqrt(np.mean((means[:, 0] - truth) ** 2)))

        assert rmse_for(20) < rmse_for(5)


class TestFitSingleres:
    def test_is_the_multires_fit_with_rho_zero(self, gp_setup):
        emu = gp_setup["emu_hr"]
        assert emu.theta_cheap.shape == (0, emu.space.k)
        for p in emu.params_list:
            assert p.rho == 0.0
            assert p.var_cheap == 1.0 and p.nugget_cheap == 1.0
            assert np.all(p.range_cheap == 1.0)
        k = emu.space.k
        rebuilt = singleres_emulator(
            emu.space, emu.theta_exp, emu.scores_exp,
            [HrParams(p.var_exp, p.nugget_exp, p.range_exp) for p in emu.params_list],
            np.zeros(k + 1), np.eye(k + 1), emu.hyperpriors, emu.seed, emu.n_starts,
        )
        thetas = np.random.default_rng(95).random((6, k))
        for a, b in zip(predict_many(emu, thetas), predict_many(rebuilt, thetas)):
            assert a.tobytes() == b.tobytes()


class TestThreadMap:
    def test_one_thread_runs_in_the_caller(self):
        caller = threading.get_ident()
        out = thread_map(lambda x: (x, threading.get_ident()), range(5), 1)
        assert out == [(x, caller) for x in range(5)]

    def test_pool_keeps_order(self):
        def late_first(x):
            time.sleep(0.002 * (6 - x))  # early items finish last
            return x * x, threading.get_ident()

        out = thread_map(late_first, range(6), 3)
        assert [v for v, _ in out] == [x * x for x in range(6)]
        assert threading.get_ident() not in {ident for _, ident in out}

    def test_pool_reraises_the_worker_exception(self):
        err = ValueError("boom")

        def fail_at_three(x):
            if x == 3:
                raise err
            return x

        with pytest.raises(ValueError) as info:
            thread_map(fail_at_three, range(8), 3)
        assert info.value is err


class TestFitMultires:
    def test_threads_do_not_change_results(self, unit_space):
        from floodcal.emulator import fit_multires

        design = make_nested_design(unit_space, 5, 7, seed=90)
        trend = default_trend_prior(2)
        scores = draw_scores(design, [basic_params(), basic_params(rho=0.6)], trend, seed=91)
        serial = fit_multires(design, scores, n_starts=2, seed=92, threads=1)
        pooled = fit_multires(design, scores, n_starts=2, seed=92, threads=3)
        for a, b in zip(serial.params_list, pooled.params_list):
            assert a.rho == b.rho
            assert np.array_equal(a.range_cheap, b.range_cheap)


class TestArchive:
    def test_roundtrip_bitwise_predictions(self, gp_setup, unit_space, tmp_path):
        rng = np.random.default_rng(80)
        thetas = rng.random((8, 2))
        theta_e = rng.random((5, 2))
        # no cheap rows but rho != 0: still the multiresolution model
        latent_cheap = build_mr(unit_space, np.zeros((0, 2)), theta_e, np.zeros(0),
                                rng.standard_normal(5), basic_params(rho=0.7))
        for name, emu in (("mr", gp_setup["emu_mr"]), ("hr", gp_setup["emu_hr"]),
                          ("latent_cheap", latent_cheap)):
            save_emulator(emu, tmp_path / name)
            back = load_emulator(tmp_path / name)
            m0, v0 = predict_many(emu, thetas)
            m1, v1 = predict_many(back, thetas)
            assert np.array_equal(m0, m1)
            assert np.array_equal(v0, v1)

    def test_singleres_archive_format(self, gp_setup, tmp_path):
        save_emulator(gp_setup["emu_hr"], tmp_path)
        assert json.loads((tmp_path / "emulator.json").read_text())["type"] == "singleres"
        header = (tmp_path / "params.csv").read_text().splitlines()[0]
        assert header == "component,var,nugget,range_0,range_1"
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "emulator.json", "params.csv", "scores_exp.npy", "theta_exp.npy",
            "trend_cov_exp.npy", "trend_mean.npy",
        ]
        assert np.load(tmp_path / "trend_mean.npy").shape == (3,)

    def test_archive_deterministic(self, gp_setup, tmp_path):
        save_emulator(gp_setup["emu_mr"], tmp_path / "a")
        save_emulator(gp_setup["emu_mr"], tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def random_params(rng, k, rho):
    return EmulatorParams(
        rho=rho, var_cheap=rng.uniform(0.2, 2.0), var_exp=rng.uniform(0.2, 2.0),
        nugget_cheap=rng.uniform(0.01, 0.5), nugget_exp=rng.uniform(0.01, 0.5),
        range_cheap=rng.uniform(0.1, 2.0, k), range_exp=rng.uniform(0.1, 2.0, k),
    )


_positive = st.floats(0.05, 20.0)
_shape_rate = st.tuples(_positive, _positive)
_hyperpriors = st.builds(HyperPriors, _shape_rate, _shape_rate, _shape_rate, _shape_rate,
                         _shape_rate, _shape_rate, st.floats(-3.0, 3.0), _positive)


class TestArchiveProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["mr", "latent_cheap", "hr"]), st.integers(1, 3),
           st.integers(2, 6), st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**32 - 1),
           _hyperpriors)
    def test_roundtrip_bitwise_predictions(self, tmp_path_factory, kind, k, p_e, p_c, n_comp,
                                           seed, hyperpriors):
        rng = np.random.default_rng(seed)
        space = ParameterSpace(tuple((f"x{d}", -1.0 - d, 2.0 + d) for d in range(k)))
        theta_e = rng.random((p_e, k))
        if kind == "hr":
            emu = build_hr(space, theta_e, rng.standard_normal((p_e, n_comp)),
                           [HrParams(p.var_exp, p.nugget_exp, p.range_exp)
                            for p in (random_params(rng, k, 0.0) for _ in range(n_comp))],
                           rng.standard_normal(k + 1), np.diag(rng.uniform(0.5, 2.0, k + 1)))
        else:
            p_c = p_c if kind == "mr" else 0
            emu = build_mr(space, rng.random((p_c, k)), theta_e,
                           rng.standard_normal((p_c, n_comp)), rng.standard_normal((p_e, n_comp)),
                           [random_params(rng, k, rng.uniform(0.1, 1.5)) for _ in range(n_comp)])
        emu.hyperpriors = hyperpriors
        directory = tmp_path_factory.mktemp("emulator")
        save_emulator(emu, directory)
        back = load_emulator(directory)
        assert back.hyperpriors == hyperpriors
        thetas = space.unscale(rng.random((5, k)))
        for before, after in zip(predict_many(emu, thetas), predict_many(back, thetas)):
            assert before.tobytes() == after.tobytes()


def _edit_manifest(edit):
    def corrupt(directory):
        manifest = json.loads((directory / "emulator.json").read_text())
        edit(manifest)
        (directory / "emulator.json").write_text(json.dumps(manifest))
    return corrupt


def _edit_array(name, edit):
    def corrupt(directory):
        np.save(directory / f"{name}.npy", edit(np.load(directory / f"{name}.npy")))
    return corrupt


def _edit_params(edit):
    def corrupt(directory):
        lines = (directory / "params.csv").read_text().splitlines()
        (directory / "params.csv").write_text("\n".join(edit(lines)) + "\n")
    return corrupt


def _set_param(column, value):
    def edit(lines):
        cells = lines[1].split(",")
        cells[column] = value
        return [lines[0], ",".join(cells)] + lines[2:]
    return _edit_params(edit)


def _garbage(name):
    def corrupt(directory):
        (directory / name).write_bytes(b"garbage")
    return corrupt


MR_CORRUPTIONS = {
    "npy-garbage": _garbage("theta_exp.npy"),
    "manifest-garbage": _garbage("emulator.json"),
    "manifest-key": _edit_manifest(lambda m: m.pop("seed")),
    "unknown-type": _edit_manifest(lambda m: m.update(type="quadres")),
    "hyperprior-unknown": _edit_manifest(lambda m: m["hyperpriors"].update(rho_sd=1.0)),
    "hyperprior-shape": _edit_manifest(lambda m: m["hyperpriors"].update(var_exp=[1.0])),
    "space-dims": _edit_manifest(lambda m: m.update(space=m["space"][:1])),
    "exp-rows": _edit_array("scores_exp", lambda a: a[:-1]),
    "cheap-rows": _edit_array("theta_cheap", lambda a: a[:-1]),
    "params-rows": _edit_params(lambda lines: lines[:-1]),
    "range-count": _edit_params(lambda lines: [",".join(l.split(",")[:-1]) for l in lines]),
    "params-text": _set_param(2, "abc"),
    "trend-mean": _edit_array("trend_mean", lambda a: a[:-1]),
    "trend-cov-cheap": _edit_array("trend_cov_cheap", lambda a: a[:-1, :-1]),
    "trend-cov-exp": _edit_array("trend_cov_exp", lambda a: np.pad(a, ((0, 1), (0, 1)))),
    "var-negative": _set_param(3, "-1"),
    "range-zero": _set_param(-1, "0"),
}

HR_CORRUPTIONS = {
    "exp-rows": _edit_array("theta_exp", lambda a: a[:-1]),
    "score-columns": _edit_array("scores_exp", lambda a: a[:, :-1]),
    "range-count": _edit_params(lambda lines: [l + ",1" for l in lines]),
    "trend-mean": _edit_array("trend_mean", lambda a: np.append(a, 0.0)),
    "nugget-zero": _set_param(2, "0"),
}


class TestArchiveValidation:
    @pytest.mark.parametrize("corrupt", MR_CORRUPTIONS.values(), ids=MR_CORRUPTIONS.keys())
    def test_malformed_multires_archive(self, gp_setup, tmp_path, corrupt):
        save_emulator(gp_setup["emu_mr"], tmp_path / "emu")
        corrupt(tmp_path / "emu")
        with pytest.raises(MalformedArtifact, match=re.escape(str(tmp_path / "emu"))):
            load_emulator(tmp_path / "emu")

    @pytest.mark.parametrize("corrupt", HR_CORRUPTIONS.values(), ids=HR_CORRUPTIONS.keys())
    def test_malformed_singleres_archive(self, gp_setup, tmp_path, corrupt):
        assert gp_setup["emu_hr"].n_components > 1
        save_emulator(gp_setup["emu_hr"], tmp_path / "emu")
        corrupt(tmp_path / "emu")
        with pytest.raises(MalformedArtifact, match=re.escape(str(tmp_path / "emu"))):
            load_emulator(tmp_path / "emu")
