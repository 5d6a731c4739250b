import numpy as np
import pytest
from scipy.linalg import solve_triangular

from floodcal import kernels
from floodcal.design import ParameterSpace
from floodcal.emulator import EmulatorParams, HrParams, TrendPrior, joint_gram, predict_joint

from conftest import build_hr, build_mr, small_hr
from oracles import labelled, marginal_cov


def _emulator(layout, space, rng, n_comp=1):
    """MR or HR emulator, or ``small_hr``'s 10-run HR one; the MR design is
    nested, so cheap and expensive runs share settings and both nuggets meet
    cross-fidelity pairs.  Components differ in rho (MR) or variance (HR)."""
    if layout == "hr10":
        return small_hr(space, n_comp, seed=int(rng.integers(2**32)))
    k = space.k
    theta_e = rng.random((4, k))
    t_e = rng.standard_normal((4, n_comp))
    if layout == "hr":
        hr = [HrParams(var=0.6 + 0.2 * j, nugget=0.04, range_=np.linspace(0.4, 0.7, k))
              for j in range(n_comp)]
        return build_hr(space, theta_e, t_e, hr, rng.standard_normal(k + 1) * 0.3,
                        1.2 * np.eye(k + 1))
    theta_c = np.vstack([theta_e, rng.random((3, k))])
    params = [
        EmulatorParams(rho=0.8 - 0.3 * j, var_cheap=1.2, var_exp=0.5, nugget_cheap=0.03,
                       nugget_exp=0.05, range_cheap=np.linspace(0.5, 0.7, k),
                       range_exp=np.linspace(0.4, 0.6, k))
        for j in range(n_comp)
    ]
    trend = TrendPrior(rng.standard_normal(2 * (k + 1)) * 0.3, 0.8 * np.eye(k + 1),
                       1.2 * np.eye(k + 1))
    return build_mr(space, theta_c, theta_e, rng.standard_normal((7, n_comp)), t_e, params,
                    trend)


@pytest.mark.parametrize("layout", ["mr", "hr"])
def test_gram_and_joint_prediction_match_scalar_oracles(unit_space, layout):
    rng = np.random.default_rng(17)
    emu = _emulator(layout, unit_space, rng)
    params, trend = emu.params_list[0], emu.trend_prior
    train = labelled(emu.theta_cheap, emu.theta_exp)

    h, m = joint_gram(emu.theta_cheap, emu.theta_exp, params, trend)
    m_o, h_o = marginal_cov(train, train, params, trend)
    assert np.array_equal(h, h_o)
    assert np.max(np.abs(m - m_o)) <= 1e-13 * np.max(np.abs(m_o))

    # distinct test settings: new runs, so each carries its own nugget only
    tests = labelled([], rng.random((3, 2)))
    k_tx, h_t = marginal_cov(tests, train, params, trend)
    k_tt, _ = marginal_cov(tests, tests, params, trend)
    t = np.concatenate([emu.scores_cheap[:, 0], emu.scores_exp[:, 0]])
    mean_o = h_t @ trend.mean + k_tx @ np.linalg.solve(m_o, t - h_o @ trend.mean)
    cov_o = k_tt - k_tx @ np.linalg.solve(m_o, k_tx.T)
    mean, cov = predict_joint(emu, np.array([x for x, _ in tests]))[0]
    assert np.max(np.abs(mean - mean_o)) < 1e-10
    assert np.max(np.abs(cov - cov_o)) < 1e-10


def test_gram_with_repeated_settings_matches_oracle():
    # one repeated expensive setting (and its cheap twin) and one repeated
    # cheap-only setting: the nuggets stay on the diagonal and M needs no jitter
    rng = np.random.default_rng(18)
    theta_e = rng.random((4, 2))
    theta_e[3] = theta_e[2]
    theta_c = np.vstack([theta_e, rng.random((3, 2))])
    theta_c[-1] = theta_c[-2]
    params = EmulatorParams(rho=0.8, var_cheap=1.2, var_exp=0.5, nugget_cheap=0.03,
                            nugget_exp=0.05, range_cheap=[0.5, 0.7], range_exp=[0.4, 0.6])
    trend = TrendPrior(rng.standard_normal(6) * 0.3, 0.8 * np.eye(3), 1.2 * np.eye(3))
    train = labelled(theta_c, theta_e)
    _, m = joint_gram(theta_c, theta_e, params, trend)
    m_o, _ = marginal_cov(train, train, params, trend)
    assert np.max(np.abs(m - m_o)) <= 1e-13 * np.max(np.abs(m_o))


def _reference_predict(theta0, e):
    """predict_scores written out per call: the cross block from gp_cov on
    distances laid out as sq_dists has always laid them out, the constants
    from the emulator's parameters and the solve from scipy's checked
    solve_triangular on the C-ordered factor."""
    k1 = theta0.shape[0] + 1
    h0 = np.concatenate(([1.0], theta0))
    trend = e.trend_prior
    d2 = (theta0[None, :].T[:, :, None] - e.theta.T[:, None, :]) ** 2
    means, variances = [], []
    for j in range(len(e.rho)):
        rho = e.rho[j]
        cross = kernels.gp_cov(d2, 0, e.n_cheap, rho, e.var_c[j], e.var_e[j],
                               e.inv_range_c[j], e.inv_range_e[j])[0]
        cross = cross + np.concatenate((rho * h0, h0)) @ e.trend_w[j]
        means.append(rho * (h0 @ trend.mean[:k1]) + h0 @ trend.mean[k1:]
                     + cross @ e.alpha[j])
        white = solve_triangular(e.chol[j], cross, lower=True)
        var = (rho**2 * e.var_c[j] + e.var_e[j] + e.nug_e[j]
               + rho**2 * (h0 @ trend.cov_cheap @ h0) + h0 @ trend.cov_exp @ h0
               - white @ white)
        variances.append(var if var > e.nug_e[j] else e.nug_e[j])
    return np.array(means), np.array(variances)


@pytest.mark.parametrize("layout", ["mr", "hr", "hr10"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_predict_matches_solve_triangular_reference(layout, k):
    # bitwise: BLAS rounds by operand layout, so a kernel that reorders or
    # re-lays its operands shows up here as an ulp somewhere
    rng = np.random.default_rng(40 + k)
    space = ParameterSpace(tuple((f"x{i}", 0.0, 1.0) for i in range(k)))
    for n_comp in (1, 2, 3):
        emu = _emulator(layout, space, rng, n_comp=n_comp)
        # training settings (variance at the nugget floor) and fresh settings
        points = np.vstack([emu.theta[0], emu.theta[-1], rng.random((200, k))])
        for x in points:
            mean, var = kernels.predict_scores(x, emu)
            ref_mean, ref_var = _reference_predict(x, emu)
            assert np.array_equal(mean, ref_mean)
            assert np.array_equal(var, ref_var)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_theta(unit_space, bad):
    emu = _emulator("mr", unit_space, np.random.default_rng(44))
    with pytest.raises(ValueError, match="infs or NaNs"):
        kernels.predict_scores(np.array([0.5, bad]), emu)
