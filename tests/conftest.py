import os

# One BLAS thread in this process, as in the golden runs' child processes:
# stages rerun here are compared byte for byte with theirs, and 1 versus 2
# OpenBLAS threads changes MAP hyperparameters in the last bits.  OpenBLAS
# reads these when numpy first loads it, so they are set before that.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from floodcal.design import Design, ParameterSpace
from floodcal.emulator import (
    EmulatorParams,
    HrParams,
    HyperPriors,
    MultiResEmulator,
    default_trend_prior,
    fit_multires,
    fit_singleres,
    singleres_emulator,
)
from golden.digests import run_pipelines, tree_digests


@pytest.fixture(scope="session")
def golden_runs(tmp_path_factory):
    """The seven CLI stages for every approach, run once per session by
    ``golden.digests.run_pipelines``: the run roots keyed by approach, and
    their ``tree_digests`` taken right after the run.  Copy a root before
    writing to it."""
    roots = run_pipelines(tmp_path_factory.mktemp("golden"))
    return roots, {approach: tree_digests(root) for approach, root in roots.items()}


@pytest.fixture(scope="session")
def unit_space():
    return ParameterSpace((("a", 0.0, 1.0), ("b", 0.0, 1.0)))


@pytest.fixture(scope="session")
def flood_space():
    return ParameterSpace((("n_ch", 0.02, 0.1), ("rwe", 0.95, 1.05)))


def make_nested_design(space, p_exp, p_extra, seed):
    """Random nested design without the maximin search (fast test helper)."""
    rng = np.random.default_rng(seed)
    exp_pts = space.unscale(rng.random((p_exp, space.k)))
    extra = space.unscale(rng.random((p_extra, space.k)))
    cheap = np.vstack([exp_pts, extra])
    points = np.vstack([exp_pts, cheap])
    fidelity = np.array(
        ["expensive"] * p_exp + ["cheap"] * len(cheap), dtype=object
    )
    return Design(points, fidelity, space)


def draw_scores(design, params_list, trend_prior, seed):
    """Sample score columns from the marginalized generative model."""
    from floodcal.emulator import joint_gram

    rng = np.random.default_rng(seed)
    space = design.space
    theta_c = space.scale(design.cheap_points)
    theta_e = space.scale(design.expensive_points)
    p_c, p_e = len(theta_c), len(theta_e)
    cols = []
    for params in params_list:
        h, m = joint_gram(theta_c, theta_e, params, trend_prior)
        chol = np.linalg.cholesky(m)
        t = h @ trend_prior.mean + chol @ rng.standard_normal(p_c + p_e)
        cols.append(t)
    stacked = np.column_stack(cols)  # rows ordered [cheap; expensive]
    scores = np.vstack([stacked[p_c:], stacked[:p_c]])  # ensemble order [E; C]
    return scores


@pytest.fixture(scope="session")
def gp_setup(unit_space):
    """A nested design with GP-sampled scores and fitted MR/HR emulators."""
    design = make_nested_design(unit_space, p_exp=8, p_extra=16, seed=11)
    true_params = [
        EmulatorParams(rho=0.9, var_cheap=1.0, var_exp=0.3, nugget_cheap=0.01,
                       nugget_exp=0.01, range_cheap=[0.5, 0.6], range_exp=[0.4, 0.5]),
        EmulatorParams(rho=0.7, var_cheap=0.8, var_exp=0.4, nugget_cheap=0.02,
                       nugget_exp=0.02, range_cheap=[0.7, 0.4], range_exp=[0.5, 0.6]),
    ]
    trend = default_trend_prior(unit_space.k)
    scores = draw_scores(design, true_params, trend, seed=12)
    emu_mr = fit_multires(design, scores, n_starts=4, seed=13)
    emu_hr = fit_singleres(design, scores[: design.n_expensive], n_starts=4, seed=14)
    return {
        "design": design,
        "scores": scores,
        "true_params": true_params,
        "trend": trend,
        "emu_mr": emu_mr,
        "emu_hr": emu_hr,
    }


def _as_columns(scores):
    scores = np.asarray(scores, dtype=float)
    return scores.reshape(-1, 1) if scores.ndim == 1 else scores


def build_mr(space, theta_cheap, theta_exp, scores_cheap, scores_exp, params,
             trend=None):
    """MultiResEmulator from explicit pieces, bypassing the MAP fit."""
    k = theta_exp.shape[1]
    if trend is None:
        trend = default_trend_prior(k)
    params_list = params if isinstance(params, list) else [params]
    return MultiResEmulator(
        space, theta_cheap, theta_exp,
        _as_columns(scores_cheap), _as_columns(scores_exp),
        params_list, trend, HyperPriors(), seed=0, n_starts=0,
    )


def build_hr(space, theta_exp, scores_exp, params, trend_mean=None, trend_cov=None):
    k = theta_exp.shape[1]
    if trend_mean is None:
        trend_mean = np.zeros(k + 1)
    if trend_cov is None:
        trend_cov = np.eye(k + 1)
    params_list = params if isinstance(params, list) else [params]
    return singleres_emulator(
        space, theta_exp, _as_columns(scores_exp), params_list,
        trend_mean, trend_cov, HyperPriors(), seed=0, n_starts=0,
    )


def small_hr(space, n_comp, seed):
    """A 10-run expensive-only emulator with hyperparameters like the
    fine_grid benchmark's: at this size a C-ordered distance matrix once
    moved predictions by an ulp where sq_dists' layout did not."""
    rng = np.random.default_rng(seed)
    k = space.k
    params = [HrParams(var=0.7 + 0.02 * j, nugget=0.35 + 0.05 * j,
                       range_=rng.uniform(0.4, 0.8, k)) for j in range(n_comp)]
    return build_hr(space, rng.random((10, k)), rng.standard_normal((10, n_comp)), params)
