import csv
import io
import math
import weakref

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from floodcal.calibrate import (
    CalibrationPriors,
    McmcConfig,
    Observation,
    PosteriorChain,
    calibrated_projection,
    effective_sample_size,
    load_chain_samples,
    log_likelihood_reduced,
    random_walk_metropolis,
    reduce_observation,
    run_mh,
    save_chain,
    thin,
)
from floodcal.emulator import predict
from floodcal.errors import ChainTooShort, DimensionMismatch, ModelRunFailed
from floodcal.grid import Grid, LocationSet
from floodcal.reduce import ReducedBasis

from conftest import build_hr, build_mr, make_nested_design


def synthetic_basis(n=40, n_comp=3, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n_comp)))
    eigenvalues = np.sort(rng.uniform(0.5, 5.0, n_comp))[::-1]
    components = q * np.sqrt(eigenvalues)
    return ReducedBasis(
        column_mean=rng.uniform(5.0, 6.0, n),
        components=components,
        eigenvalues=eigenvalues,
        variance_fraction=0.97,
        total_variance=float(eigenvalues.sum() / 0.97),
        target_fraction=0.95,
    )


def locations_for(n):
    return LocationSet(np.column_stack([np.arange(n), np.zeros(n)]))


class TestReduceObservation:
    def test_mean_maps_to_zero(self):
        basis = synthetic_basis()
        obs = Observation(basis.column_mean, locations_for(40))
        out = reduce_observation(obs, basis)
        assert np.max(np.abs(out.values)) < 1e-10

    def test_left_inverse_identity(self):
        basis = synthetic_basis()
        coef = np.array([0.4, -0.2, 1.1])
        z = basis.column_mean + basis.components @ coef
        assert np.all(z >= 0)
        out = reduce_observation(Observation(z, locations_for(40)), basis)
        assert np.max(np.abs(out.values - coef)) < 1e-10

    def test_matches_least_squares_oracle(self):
        basis = synthetic_basis(seed=3)
        rng = np.random.default_rng(4)
        z = rng.uniform(0, 2, 40)
        out = reduce_observation(Observation(z, locations_for(40)), basis)
        oracle, *_ = np.linalg.lstsq(basis.components, z - basis.column_mean, rcond=None)
        assert np.max(np.abs(out.values - oracle)) < 1e-10

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf, -np.inf])
    def test_invalid_depth_rejected(self, bad):
        z = np.ones(10)
        z[3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            Observation(z, locations_for(10))

    def test_dimension_mismatch(self):
        basis = synthetic_basis()
        with pytest.raises(DimensionMismatch):
            reduce_observation(Observation(np.zeros(10), locations_for(10)), basis)


@pytest.fixture(scope="module")
def likelihood_setup(gp_setup, unit_space):
    emu = gp_setup["emu_mr"]
    basis = synthetic_basis(n=40, n_comp=emu.n_components, seed=7)
    rng = np.random.default_rng(8)
    z_r = reduce_observation(
        Observation(rng.uniform(0, 2, 40), locations_for(40)), basis
    )
    return emu, basis, z_r


class TestReducedLikelihood:
    def test_scalar_closed_form(self, unit_space):
        rng = np.random.default_rng(9)
        theta_e = rng.random((3, 2))
        theta_c = np.vstack([theta_e, rng.random((3, 2))])
        t = rng.standard_normal(9)
        from test_emulator import basic_params

        emu = build_mr(unit_space, theta_c, theta_e, t[:6], t[6:], basic_params())
        basis = synthetic_basis(n=30, n_comp=1, seed=10)
        z_r_val = np.array([0.37])
        from floodcal.calibrate import ReducedObservation

        z_r = ReducedObservation(z_r_val)
        theta = np.array([0.4, 0.6])
        sigma2 = 0.05
        out = predict(emu, theta)
        total_var = out.variance[0] + sigma2 / basis.eigenvalues[0]
        expected = norm.logpdf(z_r_val[0], out.mean[0], math.sqrt(total_var))
        val = log_likelihood_reduced(theta, sigma2, z_r, emu, basis)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_full_space_gap_does_not_depend_on_theta(self, unit_space):
        # oracle: the p-location Gaussian N(mu + K m(theta), K V(theta) K^T + sigma2 I).
        # The reduced form drops the off-basis residual, whose density is free of theta
        from test_emulator import basic_params

        rng = np.random.default_rng(40)
        theta_e = rng.random((5, 2))
        theta_c = np.vstack([theta_e, rng.random((6, 2))])
        emu = build_mr(unit_space, theta_c, theta_e, rng.standard_normal((11, 2)),
                       rng.standard_normal((5, 2)), [basic_params(), basic_params(rho=0.6)])
        basis = synthetic_basis(n=30, n_comp=2, seed=41)
        z = basis.column_mean + rng.normal(0.0, 0.5, 30)
        z_r = reduce_observation(Observation(z, locations_for(30)), basis)
        k, sigma2 = basis.components, 0.05
        gaps = []
        for theta in rng.random((6, 2)):
            out = predict(emu, theta)
            full = multivariate_normal(basis.column_mean + k @ out.mean,
                                       (k * out.variance) @ k.T + sigma2 * np.eye(30)).logpdf(z)
            gaps.append(full - log_likelihood_reduced(theta, sigma2, z_r, emu, basis))
        assert np.ptp(gaps) <= 1e-9 * np.max(np.abs(gaps))

    def test_noise_dominance_flattens(self, likelihood_setup):
        emu, basis, z_r = likelihood_setup
        thetas = [np.array([0.2, 0.3]), np.array([0.8, 0.7])]
        diffs = []
        for sigma2 in (1e-4, 1e1, 1e4):
            lls = [log_likelihood_reduced(t, sigma2, z_r, emu, basis) for t in thetas]
            diffs.append(abs(lls[0] - lls[1]))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < diffs[0] * 1e-2

    def test_maximized_at_predicted_mean(self, likelihood_setup):
        emu, basis, _ = likelihood_setup
        from floodcal.calibrate import ReducedObservation

        theta = np.array([0.5, 0.5])
        out = predict(emu, theta)
        center = ReducedObservation(out.mean.copy())
        base = log_likelihood_reduced(theta, 0.01, center, emu, basis)
        for shift in (0.5, -1.0):
            moved = ReducedObservation(out.mean + shift)
            assert log_likelihood_reduced(theta, 0.01, moved, emu, basis) < base

    def test_invariant_to_component_permutation(self, unit_space, gp_setup):
        from floodcal.calibrate import ReducedObservation
        from floodcal.emulator import MultiResEmulator, HyperPriors

        emu = gp_setup["emu_mr"]
        perm = [1, 0]
        emu_perm = MultiResEmulator(
            emu.space, emu.theta_cheap, emu.theta_exp,
            emu.scores_cheap[:, perm], emu.scores_exp[:, perm],
            [emu.params_list[i] for i in perm], emu.trend_prior,
            HyperPriors(), 0, 0,
        )
        basis = synthetic_basis(n=40, n_comp=2, seed=11)
        basis_perm = ReducedBasis(
            basis.column_mean, basis.components[:, perm],
            basis.eigenvalues[perm], basis.variance_fraction,
            basis.total_variance, basis.target_fraction,
        )
        z = np.array([0.3, -0.8])
        theta = np.array([0.45, 0.55])
        a = log_likelihood_reduced(theta, 0.02, ReducedObservation(z), emu, basis)
        b = log_likelihood_reduced(
            theta, 0.02, ReducedObservation(z[perm]), emu_perm, basis_perm
        )
        assert a == pytest.approx(b, rel=1e-10)


class TestSampler:
    def test_single_iteration_single_sweep(self):
        calls = []

        def target(x):
            calls.append(x.copy())
            return -0.5 * float(x @ x)

        bounds = np.array([[-10.0, 10.0]] * 3)
        samples, log_post, masks, rates, _ = random_walk_metropolis(
            target, np.zeros(3), bounds, np.full(3, 0.5), iterations=1, seed=0
        )
        assert samples.shape == (1, 3)
        assert len(calls) == 1 + 3  # initial state + one decision per coordinate

    def test_out_of_bounds_never_accepted(self):
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        samples, *_ = random_walk_metropolis(
            lambda x: 0.0, np.full(2, 0.5), bounds, np.full(2, 5.0),
            iterations=2000, seed=1,
        )
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_gaussian_target_moments(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        prec = np.linalg.inv(cov)

        def target(x):
            d = x - mean
            return -0.5 * float(d @ prec @ d)

        bounds = np.array([[-50.0, 50.0]] * 2)
        samples, *_ = random_walk_metropolis(
            target, mean.copy(), bounds, np.array([1.0, 1.4]),
            iterations=20_000, seed=2, burn_in=2_000,
        )
        for i in range(2):
            ess = effective_sample_size(samples[:, i])
            se = math.sqrt(cov[i, i] / ess)
            assert abs(samples[:, i].mean() - mean[i]) < 3 * se

    def test_bitwise_reproducible(self):
        def target(x):
            return -0.5 * float(x @ x)

        bounds = np.array([[-5.0, 5.0]] * 2)
        runs = [
            random_walk_metropolis(
                target, np.zeros(2), bounds, np.full(2, 0.7),
                iterations=500, seed=3, burn_in=100,
            )[0]
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_adaptation_freezes_before_retained(self):
        # proposal scale adapted during burn-in must stay fixed afterwards:
        # rerunning with adapt off from the adapted sds reproduces the tail
        def target(x):
            return -0.5 * float(x @ x) * 50.0

        bounds = np.array([[-5.0, 5.0]])
        s_adapt, *_ = random_walk_metropolis(
            target, np.zeros(1), bounds, np.full(1, 3.0),
            iterations=3000, seed=4, burn_in=1000, adapt=True,
        )
        assert s_adapt.shape == (2000, 1)


class TestEffectiveSampleSize:
    def test_iid_near_n(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4000)
        ess = effective_sample_size(x)
        assert 2000 < ess

    def test_correlated_much_smaller(self):
        rng = np.random.default_rng(6)
        n, phi = 4000, 0.95
        x = np.empty(n)
        x[0] = 0.0
        for i in range(1, n):
            x[i] = phi * x[i - 1] + rng.standard_normal()
        # AR(1) integrated autocorrelation time: (1+phi)/(1-phi) = 39
        ess = effective_sample_size(x)
        assert ess < n / 10

    def test_constant_chain(self):
        assert effective_sample_size(np.ones(100)) == 100.0


@pytest.fixture(scope="module")
def small_chain(gp_setup):
    emu = gp_setup["emu_mr"]
    basis = synthetic_basis(n=40, n_comp=emu.n_components, seed=12)
    truth = np.array([0.5, 0.5])
    out = predict(emu, truth)
    from floodcal.calibrate import ReducedObservation

    z_r = ReducedObservation(out.mean.copy())
    config = McmcConfig(iterations=3000, seed=13, burn_in=500)
    return run_mh(z_r, emu, basis, CalibrationPriors(0.1), config)


class TestRunMh:
    def test_single_iteration_single_sweep(self, gp_setup):
        emu = gp_setup["emu_mr"]
        basis = synthetic_basis(n=40, n_comp=emu.n_components, seed=26)
        out = predict(emu, np.array([0.5, 0.5]))
        from floodcal.calibrate import ReducedObservation

        z_r = ReducedObservation(out.mean.copy())
        chain = run_mh(
            z_r, emu, basis, CalibrationPriors(0.1),
            McmcConfig(iterations=1, seed=27, burn_in=0),
        )
        # one sweep over k + 1 coordinates, recorded once
        assert chain.samples.shape == (1, 3)
        assert chain.accepted_mask.shape == (1,)
        assert chain.acceptance_rates.shape == (3,)

    def test_chain_contract(self, small_chain, gp_setup):
        chain = small_chain
        space = gp_setup["emu_mr"].space
        assert chain.samples.shape == (2500, 3)
        theta = chain.samples[:, :2]
        assert np.all(theta >= space.lower) and np.all(theta <= space.upper)
        assert np.all(chain.samples[:, 2] > 0)  # sigma2 positive
        assert np.all((chain.acceptance_rates >= 0) & (chain.acceptance_rates <= 1))
        assert set(chain.ess) == {"a", "b", "sigma2_eps"}

    def test_deterministic(self, gp_setup, small_chain):
        emu = gp_setup["emu_mr"]
        basis = synthetic_basis(n=40, n_comp=emu.n_components, seed=12)
        out = predict(emu, np.array([0.5, 0.5]))
        from floodcal.calibrate import ReducedObservation

        z_r = ReducedObservation(out.mean.copy())
        config = McmcConfig(iterations=3000, seed=13, burn_in=500)
        again = run_mh(z_r, emu, basis, CalibrationPriors(0.1), config)
        assert np.array_equal(again.samples, small_chain.samples)
        assert np.array_equal(again.log_posterior, small_chain.log_posterior)

    def test_save_load_roundtrip(self, small_chain, tmp_path):
        path = tmp_path / "chain.csv"
        save_chain(small_chain, path)
        samples, names = load_chain_samples(path)
        assert names == small_chain.names
        assert np.array_equal(samples, small_chain.samples)
        header = path.read_text().splitlines()[0]
        assert header == "iter,theta_a,theta_b,sigma2_eps,log_post,accepted_mask"

    def test_component_count_mismatch_raises(self, unit_space):
        # a one-component emulator broadcasts silently against three coordinates
        rng = np.random.default_rng(30)
        theta_e = rng.random((4, 2))
        theta_c = np.vstack([theta_e, rng.random((3, 2))])
        from test_emulator import basic_params
        from floodcal.calibrate import ReducedObservation

        emu = build_mr(unit_space, theta_c, theta_e, rng.standard_normal(7),
                       rng.standard_normal(4), basic_params())
        config = McmcConfig(iterations=200, seed=31, burn_in=50)
        z3 = ReducedObservation(rng.standard_normal(3))
        with pytest.raises(DimensionMismatch):
            run_mh(z3, emu, synthetic_basis(n_comp=3), CalibrationPriors(0.1), config)
        z1 = ReducedObservation(rng.standard_normal(1))
        with pytest.raises(DimensionMismatch):
            run_mh(z1, emu, synthetic_basis(n_comp=3), CalibrationPriors(0.1), config)

    def test_negative_burn_in_raises(self, gp_setup):
        # a negative burn-in would return rows of the sample buffer never filled
        emu = gp_setup["emu_mr"]
        z_r, basis = _mh_problem(emu)
        with pytest.raises(ValueError, match="burn-in must not be negative"):
            run_mh(z_r, emu, basis, CalibrationPriors(0.1),
                   McmcConfig(iterations=400, seed=39, burn_in=-1))

    def test_public_likelihood_rejects_component_count_mismatch(self, unit_space):
        # before the shared check, J = 1 against 3 coordinates returned a number
        rng = np.random.default_rng(30)
        theta_e = rng.random((4, 2))
        theta_c = np.vstack([theta_e, rng.random((3, 2))])
        from test_emulator import basic_params
        from floodcal.calibrate import ReducedObservation

        emu = build_mr(unit_space, theta_c, theta_e, rng.standard_normal(7),
                       rng.standard_normal(4), basic_params())
        theta = np.array([0.4, 0.6])
        z3 = ReducedObservation(rng.standard_normal(3))
        with pytest.raises(DimensionMismatch):
            log_likelihood_reduced(theta, 0.1, z3, emu, synthetic_basis(n_comp=3))
        z1 = ReducedObservation(rng.standard_normal(1))
        with pytest.raises(DimensionMismatch):
            log_likelihood_reduced(theta, 0.1, z1, emu, synthetic_basis(n_comp=3))
        assert math.isfinite(log_likelihood_reduced(theta, 0.1, z1, emu,
                                                    synthetic_basis(n_comp=1)))


def _mh_problem(emu):
    """Reduced observation and basis for run_mh."""
    from floodcal.calibrate import ReducedObservation

    basis = synthetic_basis(n=40, n_comp=emu.n_components, seed=32)
    mean = predict(emu, emu.space.unscale(np.linspace(0.4, 0.6, emu.space.k))).mean
    return ReducedObservation(mean.copy()), basis


@pytest.fixture(scope="module")
def emu_k3():
    """A two-component MR emulator on three parameters with non-unit ranges."""
    from floodcal.design import ParameterSpace
    from floodcal.emulator import EmulatorParams

    space = ParameterSpace((("a", 0.0, 1.0), ("b", 0.02, 0.1), ("c", 2.0, 5.0)))
    rng = np.random.default_rng(36)
    theta_e = rng.random((6, 3))
    theta_c = np.vstack([theta_e, rng.random((8, 3))])
    params = [EmulatorParams(rho=0.8 - 0.3 * j, var_cheap=1.2, var_exp=0.5, nugget_cheap=0.03,
                             nugget_exp=0.05, range_cheap=[0.5, 0.6, 0.7],
                             range_exp=[0.4, 0.5, 0.6]) for j in range(2)]
    return build_mr(space, theta_c, theta_e, rng.standard_normal((14, 2)),
                    rng.standard_normal((6, 2)), params)


class TestRunMhHotPath:
    """run_mh reuses the current theta's prediction."""

    def test_chain_matches_uncached_target(self, gp_setup, emu_k3):
        from floodcal.calibrate import NOISE_SHAPE
        from floodcal.emulator import _invgamma_logpdf

        # MR and HR (no cheap rows, rho = 0) on two parameters, MR on three,
        # and a 10-run HR emulator like the bitwise kernel test's
        rng = np.random.default_rng(39)
        hr10 = build_hr(gp_setup["emu_hr"].space, rng.random((10, 2)),
                        rng.standard_normal((10, 2)),
                        [(0.7 + 0.02 * j, 0.35 + 0.05 * j, rng.uniform(0.4, 0.8, 2))
                         for j in range(2)])
        for emu in (gp_setup["emu_mr"], gp_setup["emu_hr"], emu_k3, hr10):
            space, k = emu.space, emu.space.k
            z_r, basis = _mh_problem(emu)
            priors = CalibrationPriors(0.1)
            config = McmcConfig(iterations=600, seed=34, burn_in=150, proposal_sds=np.concatenate(
                [0.05 * (space.upper - space.lower), [0.3]]))
            chain = run_mh(z_r, emu, basis, priors, config)

            def uncached(state):
                # a fresh prediction on every call
                sig2 = math.exp(state[k])
                return float(log_likelihood_reduced(state[:k], sig2, z_r, emu, basis)
                             + _invgamma_logpdf(sig2, NOISE_SHAPE, priors.noise_rate)
                             + state[k])

            initial = np.concatenate([0.5 * (space.lower + space.upper), [math.log(0.1**2)]])
            bounds = np.vstack([np.column_stack([space.lower, space.upper]), [[-np.inf, np.inf]]])
            samples, log_post, masks, _, final_sds = random_walk_metropolis(
                uncached, initial, bounds, config.proposal_sds,
                config.iterations, config.seed, burn_in=config.burn_in,
            )
            samples[:, k:] = np.exp(samples[:, k:])
            assert np.array_equal(chain.samples, samples)
            assert np.array_equal(chain.log_posterior, log_post)
            assert np.array_equal(chain.accepted_mask, masks)
            assert np.array_equal(chain.proposal_sds, final_sds)
            assert not np.array_equal(chain.proposal_sds, config.proposal_sds)  # adapted

    def test_save_chain_matches_csv_writer(self, gp_setup, tmp_path):
        emu = gp_setup["emu_mr"]
        z_r, basis = _mh_problem(emu)
        chain = run_mh(z_r, emu, basis, CalibrationPriors(0.1),
                       McmcConfig(iterations=300, seed=37, burn_in=100))
        save_chain(chain, tmp_path / "chain.csv")

        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        k = emu.space.k
        writer.writerow(["iter"] + [f"theta_{n}" for n in chain.names[:k]] + chain.names[k:]
                        + ["log_post", "accepted_mask"])
        for i in range(chain.n_kept):
            writer.writerow([chain.burn_in + i] + [f"{v:.17g}" for v in chain.samples[i]]
                            + [f"{chain.log_posterior[i]:.17g}", int(chain.accepted_mask[i])])
        assert (tmp_path / "chain.csv").read_bytes() == reference.getvalue().encode()

    def test_noise_moves_skip_the_emulator(self, gp_setup, monkeypatch):
        import floodcal.calibrate as calibrate
        import floodcal.kernels as kernels

        counts = {"predict": 0, "target": 0}
        real_predict = kernels.predict_scores
        real_sampler = calibrate.random_walk_metropolis

        def counting_predict(theta0, emulator):
            counts["predict"] += 1
            return real_predict(theta0, emulator)

        def counting_sampler(log_target, *args, **kwargs):
            def target(x):
                counts["target"] += 1
                return log_target(x)

            return real_sampler(target, *args, **kwargs)

        z_r, basis = _mh_problem(gp_setup["emu_mr"])
        monkeypatch.setattr(kernels, "predict_scores", counting_predict)
        monkeypatch.setattr(calibrate, "random_walk_metropolis", counting_sampler)
        iterations = 300
        run_mh(z_r, gp_setup["emu_mr"], basis, CalibrationPriors(0.1),
               McmcConfig(iterations=iterations, seed=35, burn_in=100))

        # every sweep makes one target call for the noise coordinate (no bounds);
        # the rest are the initial state and the in-bounds theta proposals
        theta_calls = counts["target"] - iterations
        assert theta_calls > iterations // 4  # the chain does move in theta
        assert counts["predict"] == theta_calls


def test_every_prediction_entry_point_calls_the_module_kernel(gp_setup, monkeypatch):
    # the benchmark's kernels.predict span wraps kernels.predict_scores on the module
    import floodcal.kernels as kernels
    from floodcal.emulator import predict_many

    emu_mr, emu_hr = gp_setup["emu_mr"], gp_setup["emu_hr"]
    z_r, basis = _mh_problem(emu_mr)
    calls = []
    real_predict = kernels.predict_scores

    def counting_predict(theta0, emulator):
        calls.append(emulator)
        return real_predict(theta0, emulator)

    monkeypatch.setattr(kernels, "predict_scores", counting_predict)
    theta = np.array([0.3, 0.6])
    predict(emu_mr, theta)
    assert calls == [emu_mr]
    predict(emu_hr, theta)
    assert calls[1:] == [emu_hr]
    predict_many(emu_mr, np.random.default_rng(38).random((5, 2)))
    assert calls[2:] == [emu_mr] * 5
    log_likelihood_reduced(theta, 0.01, z_r, emu_mr, basis)
    assert calls[7:] == [emu_mr]


class TestThin:
    def test_identity_when_m_equals_length(self):
        out = thin(np.arange(100.0)[:, None], 100, seed=0)
        assert np.array_equal(out[:, 0], np.arange(100.0))

    def test_spacing_100_from_300k(self):
        out = thin(np.arange(300_000.0)[:, None], 100, seed=1)
        gaps = np.diff(out[:, 0])
        assert np.all(np.abs(gaps - 3000) <= 1)

    def test_thinning_reduces_lag1_autocorrelation(self):
        rng = np.random.default_rng(14)
        n = 20_000
        x = np.empty(n)
        x[0] = 0.0
        for i in range(1, n):
            x[i] = 0.98 * x[i - 1] + rng.standard_normal()

        def acf1(v):
            v = v - v.mean()
            return float(v[:-1] @ v[1:] / (v @ v))

        thinned = thin(x[:, None], 200, seed=2)[:, 0]
        assert acf1(thinned) <= acf1(x)

    def test_chain_too_short(self):
        with pytest.raises(ChainTooShort):
            thin(np.zeros((10, 1)), 11, seed=0)

    def test_theta_names_leave_out_the_variances(self):
        chain = PosteriorChain(samples=np.zeros((4, 2)), log_posterior=np.zeros(4),
                               accepted_mask=np.zeros(4, dtype=np.int64),
                               acceptance_rates=np.zeros(2), names=["x", "sigma2_eps"], seed=0,
                               burn_in=0, iterations=4)
        assert chain.theta_names == ["x"]


class TestCalibratedProjection:
    def grid_for(self, c):
        return Grid(0.0, 0.0, 1.0, np.full((2, 2), float(c)))

    def test_single_sample(self):
        out = calibrated_projection(np.array([[0.3]]), lambda t: self.grid_for(t[0]))
        assert np.all(out.values == pytest.approx(0.3))

    def test_identical_samples(self):
        thetas = np.array([[0.4], [0.4], [0.4]])
        out = calibrated_projection(thetas, lambda t: self.grid_for(t[0]))
        assert np.all(out.values == pytest.approx(0.4))

    def test_two_run_average(self):
        # oracle: hand average of the two constant grids
        thetas = np.array([[0.2], [0.8]])
        out = calibrated_projection(thetas, lambda t: self.grid_for(t[0]))
        assert np.all(out.values == pytest.approx(0.5))

    def test_model_failure_reports_theta(self):
        def bad_model(theta):
            raise RuntimeError("solver diverged")

        with pytest.raises(ModelRunFailed) as info:
            calibrated_projection(np.array([[0.1, 0.9]]), bad_model)
        assert info.value.theta == (0.1, 0.9)

    @pytest.mark.parametrize("n", [1, 2, 3, 100])
    def test_mean_is_bitwise_the_stacked_mean(self, n):
        # oracle: numpy's mean over the stacked runs; each run masks other cells
        rng = np.random.default_rng(n)
        grids = []
        for _ in range(n):
            values = rng.uniform(0.0, 3.0, (7, 5)) * (rng.random((7, 5)) < 0.8)
            mask = rng.random((7, 5)) < 0.05
            values[mask] = np.nan  # a run's nodata cells may hold anything
            grids.append(Grid(0.0, 0.0, 1.0, values, mask))
        out = calibrated_projection(np.arange(float(n))[:, None], lambda t: grids[int(t[0])])
        mask = np.any([g.nodata_mask for g in grids], axis=0)
        expected = np.stack([g.values for g in grids]).mean(axis=0)
        expected[mask] = 0.0
        assert np.array_equal(out.nodata_mask, mask)
        assert out.values.tobytes() == expected.tobytes()

    def test_all_negative_zero_runs_average_to_zero(self):
        # numpy's stacked mean of -0.0 runs is +0.0
        grid = Grid(0.0, 0.0, 1.0, np.full((2, 3), -0.0))
        out = calibrated_projection(np.zeros((2, 1)), lambda t: grid)
        assert out.values.tobytes() == np.stack([grid.values] * 2).mean(axis=0).tobytes()

    def test_differing_geometries_raise(self):
        grids = [self.grid_for(0.1), Grid(0.0, 0.0, 1.0, np.full((2, 3), 0.1)),
                 Grid(0.5, 0.0, 1.0, np.full((2, 2), 0.1))]
        for other in grids[1:]:
            runs = [grids[0], other]
            with pytest.raises(ValueError, match="geometries"):
                calibrated_projection(np.array([[0.0], [1.0]]), lambda t: runs[int(t[0])])

    def test_runs_are_summed_as_they_are_made(self):
        # only the first run and the one being made are alive; a stacked mean holds all 20.
        # Grids are unhashable, so weak references in a list stand in for a WeakSet
        refs, counts = [], []

        def model(theta):
            grid = self.grid_for(theta[0])
            refs.append(weakref.ref(grid))
            counts.append(sum(ref() is not None for ref in refs))
            return grid

        out = calibrated_projection(np.linspace(0.0, 1.0, 20)[:, None], model)
        assert len(counts) == 20 and max(counts) <= 2
        assert np.all(out.values == pytest.approx(0.5))


class TestEndToEndRecoverySmall:
    def test_synthetic_recovery_smoke(self, unit_space):
        # miniature analogue of the full recovery study: GP world, one PC
        rng = np.random.default_rng(15)
        design = make_nested_design(unit_space, 10, 20, seed=16)
        from test_emulator import basic_params
        from floodcal.emulator import fit_multires
        from conftest import draw_scores
        from floodcal.emulator import default_trend_prior

        params = basic_params(range_cheap=[0.3, 0.3], range_exp=[0.25, 0.25])
        trend = default_trend_prior(2)
        scores = draw_scores(design, [params], trend, seed=17)
        emu = fit_multires(design, scores, n_starts=4, seed=18)
        basis = synthetic_basis(n=25, n_comp=1, seed=19)
        truth = np.array([0.42, 0.58])
        out = predict(emu, truth)
        noise_sd = 0.05
        z_val = out.mean + rng.normal(0, noise_sd, 1)
        from floodcal.calibrate import ReducedObservation

        z_r = ReducedObservation(z_val)
        chain = run_mh(
            z_r, emu, basis, CalibrationPriors(noise_guess=noise_sd),
            McmcConfig(iterations=4000, seed=20, burn_in=1000),
        )
        assert chain.samples.shape[0] == 3000
        assert np.isfinite(chain.log_posterior).all()
