import numpy as np
import pytest

from floodcal.emulator import EmulatorParams, HrParams, TrendPrior, joint_gram, predict_joint

from conftest import build_hr, build_mr
from oracles import labelled, marginal_cov


def _emulator(layout, space, rng):
    """MR or HR emulator; the MR design is nested, so cheap and expensive
    runs share settings and both nuggets meet cross-fidelity pairs."""
    theta_e = rng.random((4, 2))
    t_e = rng.standard_normal(4)
    if layout == "hr":
        hr = HrParams(var=0.6, nugget=0.04, range_=[0.4, 0.7])
        return build_hr(space, theta_e, t_e, hr, rng.standard_normal(3) * 0.3, 1.2 * np.eye(3))
    theta_c = np.vstack([theta_e, rng.random((3, 2))])
    params = EmulatorParams(rho=0.8, var_cheap=1.2, var_exp=0.5, nugget_cheap=0.03,
                            nugget_exp=0.05, range_cheap=[0.5, 0.7], range_exp=[0.4, 0.6])
    trend = TrendPrior(rng.standard_normal(6) * 0.3, 0.8 * np.eye(3), 1.2 * np.eye(3))
    return build_mr(space, theta_c, theta_e, rng.standard_normal(7), t_e, params, trend)


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
