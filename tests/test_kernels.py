import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from floodcal import kernels
from floodcal.design import ParameterSpace
from floodcal.diagnostics import uspe
from floodcal.emulator import EmulatorParams, TrendPrior, _FitWorkspace, predict_joint

from conftest import build_hr, build_mr
from oracles import gram, labelled, marginal_cov, stacked_cov


LAYOUTS = pytest.mark.parametrize("layout", ["mr", "hr", "hr10"])
DIMS = pytest.mark.parametrize("k", [1, 2, 3])


def _space(k):
    return ParameterSpace(tuple((f"x{i}", 0.0, 1.0) for i in range(k)))


def _emulator(layout, space, rng, n_comp=1):
    """MR or HR emulator, or a 10-run HR one with hyperparameters like the
    fine_grid benchmark's: at that size a C-ordered distance matrix once moved
    predictions by an ulp where sq_dists' layout did not.  The MR design is
    nested, so cheap and expensive runs share settings and both nuggets meet
    cross-fidelity pairs.  Components differ in rho (MR) or variance (HR)."""
    k = space.k
    if layout == "hr10":
        return build_hr(space, rng.random((10, k)), rng.standard_normal((10, n_comp)),
                        [(0.7 + 0.02 * j, 0.35 + 0.05 * j, rng.uniform(0.4, 0.8, k))
                         for j in range(n_comp)])
    theta_e = rng.random((4, k))
    t_e = rng.standard_normal((4, n_comp))
    if layout == "hr":
        hr = [(0.6 + 0.2 * j, 0.04, np.linspace(0.4, 0.7, k)) for j in range(n_comp)]
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

    h, m = _FitWorkspace(emu.theta_cheap, emu.theta_exp, trend).factored(params)[:2]
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
    _, m = _FitWorkspace(theta_c, theta_e, trend).factored(params)[:2]
    m_o, _ = marginal_cov(train, train, params, trend)
    assert np.max(np.abs(m - m_o)) <= 1e-13 * np.max(np.abs(m_o))


def _reference_operands(e):
    """Per component, from its ``params_list`` entry: the trend-prior cross
    block B H^T, the lower factor of the written-out gram from scipy's checked
    cholesky, C-ordered as the emulator keeps it, and the centred scores
    solved with cho_solve."""
    trend = e.trend_prior
    ws = _FitWorkspace(e.theta_cheap, e.theta_exp, trend)
    out = []
    for j, params in enumerate(e.params_list):
        h = ws.h0 + params.rho * ws.h1
        chol = cholesky(gram(ws.d2, ws.p_c, h, trend, params), lower=True)
        t = np.concatenate([e.scores_cheap[:, j], e.scores_exp[:, j]])
        alpha = cho_solve((chol, True), t - h @ trend.mean)
        out.append((trend.block_cov @ h.T, np.ascontiguousarray(chol), alpha))
    return out


def _reference_predict(theta0, e, operands):
    """predict_scores written out per call: the cross block from stacked_cov
    on distances laid out as sq_dists has always laid them out, the
    constants from the emulator's parameters and the solve from scipy's
    checked solve_triangular on the C-ordered factor."""
    k1 = theta0.shape[0] + 1
    h0 = np.concatenate(([1.0], theta0))
    trend = e.trend_prior
    d2 = (theta0[None, :].T[:, :, None] - e.theta.T[:, None, :]) ** 2
    means, variances = [], []
    for p, (trend_w, chol, alpha) in zip(e.params_list, operands):
        rho = p.rho
        cross = stacked_cov(d2, 0, e.n_cheap, p)[0]
        cross = cross + np.concatenate((rho * h0, h0)) @ trend_w
        means.append(rho * (h0 @ trend.mean[:k1]) + h0 @ trend.mean[k1:] + cross @ alpha)
        white = solve_triangular(chol, cross, lower=True)
        var = (rho**2 * p.var_cheap + p.var_exp + p.nugget_exp
               + rho**2 * (h0 @ trend.cov_cheap @ h0) + h0 @ trend.cov_exp @ h0
               - white @ white)
        variances.append(var if var > p.nugget_exp else p.nugget_exp)
    return np.array(means), np.array(variances)


@LAYOUTS
@DIMS
def test_predict_matches_solve_triangular_reference(layout, k):
    # bitwise: BLAS rounds by operand layout, so a kernel that reorders or
    # re-lays its operands shows up here as an ulp somewhere
    rng = np.random.default_rng(40 + k)
    for n_comp in (1, 2, 3):
        emu = _emulator(layout, _space(k), rng, n_comp=n_comp)
        # training settings (variance at the nugget floor) and fresh settings
        points = np.vstack([emu.theta[0], emu.theta[-1], rng.random((200, k))])
        operands = _reference_operands(emu)
        for x in points:
            mean, var = kernels.predict_scores(x, emu)
            ref_mean, ref_var = _reference_predict(x, emu, operands)
            assert np.array_equal(mean, ref_mean)
            assert np.array_equal(var, ref_var)


@LAYOUTS
@DIMS
def test_construction_matches_cholesky_and_cho_solve_reference(layout, k):
    # the operands predictions read, bit for bit those of the written-out gram
    rng = np.random.default_rng(50 + k)
    emu = _emulator(layout, _space(k), rng, n_comp=3)
    for (*_, trend_w, alpha, chol_t, _, _), ref in zip(emu.predict_terms,
                                                      _reference_operands(emu)):
        assert [a.tobytes() for a in (trend_w, chol_t.T, alpha)] == [a.tobytes() for a in ref]


def _reference_joint(e, thetas):
    """predict_joint written out, with both covariance blocks from
    stacked_cov and scipy's checked solve_triangular on the C-ordered factor."""
    scaled = e.space.scale(thetas)
    d2_train = kernels.sq_dists(scaled, e.theta)
    d2_test = kernels.sq_dists(scaled, scaled)
    basis = np.hstack([np.ones((len(scaled), 1)), scaled])
    out = []
    for p, (trend_w, chol, alpha) in zip(e.params_list, _reference_operands(e)):
        a0 = np.hstack([p.rho * basis, basis])
        cross = stacked_cov(d2_train, 0, e.n_cheap, p) + a0 @ trend_w
        mean = a0 @ e.trend_prior.mean + cross @ alpha
        prior = stacked_cov(d2_test, 0, 0, p) + a0 @ e.trend_prior.block_cov @ a0.T
        prior[np.diag_indices_from(prior)] += p.nugget_exp
        white = solve_triangular(chol, cross.T, lower=True)
        cov = prior - white.T @ white
        out.append((mean, 0.5 * (cov + cov.T)))
    return out


@LAYOUTS
@DIMS
def test_predict_joint_and_uspe_match_scipy_references(layout, k):
    # predict_joint against its solve_triangular form, and uspe against scipy's
    # cholesky and solve_triangular on that covariance, bit for bit
    rng = np.random.default_rng(60 + k)
    for n_comp in (1, 2, 3):
        emu = _emulator(layout, _space(k), rng, n_comp=n_comp)
        # a training setting, its repeat (an exact zero distance) and fresh settings
        thetas = np.vstack([emu.theta[-1], emu.theta[-1], rng.random((10, k))])
        for (mean, cov), (ref_mean, ref_cov) in zip(predict_joint(emu, thetas),
                                                    _reference_joint(emu, thetas)):
            assert mean.tobytes() == ref_mean.tobytes()
            assert cov.tobytes() == ref_cov.tobytes()
            y = mean + rng.standard_normal(len(mean))
            white = solve_triangular(cholesky(cov, lower=True), y - mean, lower=True)
            assert uspe(y, mean, cov, 1).values.tobytes() == white.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_theta(unit_space, bad):
    emu = _emulator("mr", unit_space, np.random.default_rng(44))
    with pytest.raises(ValueError, match="infs or NaNs"):
        kernels.predict_scores(np.array([0.5, bad]), emu)
