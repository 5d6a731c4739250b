"""Multiresolution Gaussian-process emulation and Bayesian calibration
of spatial flood models."""

import importlib
import os

# One BLAS thread unless the user chose otherwise: a multi-threaded BLAS sums
# in a thread-count-dependent order, so artifacts would depend on the machine.
# This only takes effect if numpy is not imported yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"


def deferred(namespace: dict, module: str, *names: str) -> tuple:
    """Stand-ins for ``from module import *names`` that import ``module`` on first call
    (``scipy.linalg`` costs a fresh process about 0.3 s; design, run-synth and project
    never call it).  The first call puts the real function in ``namespace``, the caller's
    ``globals()``, unless the name was rebound meanwhile (a tracing wrapper)."""
    def stand_in(name):
        def call(*args, **kwargs):
            real = getattr(importlib.import_module(module), name)
            if namespace.get(name) is call:
                namespace[name] = real
            return real(*args, **kwargs)
        return call
    return tuple(map(stand_in, names))

from .design import Design, ParameterSpace, augment_cheap, maximin_lhs
from .grid import Grid, LocationSet, bilinear_interpolate, flatten, grid_locations
from .reduce import ReducedBasis, RunEnsemble, build_ensemble, fit_basis, project, reconstruct
from .emulator import (
    EmulatorParams,
    HyperPriors,
    MultiResEmulator,
    PredictiveDistribution,
    TrendPrior,
    fit_multires,
    fit_singleres,
    predict,
)
from .calibrate import (
    CalibrationPriors,
    McmcConfig,
    Observation,
    PosteriorChain,
    calibrated_projection,
    reduce_observation,
    run_mh,
    thin,
)
from .diagnostics import MetricReport, UspeReport, d_mr_hr, extent_metrics, rmse, summarize_d, uspe
from .synthmodel import SynthConfig, run_cheap, run_expensive, simulate_observation

__all__ = [
    "Design",
    "ParameterSpace",
    "augment_cheap",
    "maximin_lhs",
    "Grid",
    "LocationSet",
    "bilinear_interpolate",
    "flatten",
    "grid_locations",
    "ReducedBasis",
    "RunEnsemble",
    "build_ensemble",
    "fit_basis",
    "project",
    "reconstruct",
    "EmulatorParams",
    "HyperPriors",
    "MultiResEmulator",
    "PredictiveDistribution",
    "TrendPrior",
    "fit_multires",
    "fit_singleres",
    "predict",
    "CalibrationPriors",
    "McmcConfig",
    "Observation",
    "PosteriorChain",
    "calibrated_projection",
    "reduce_observation",
    "run_mh",
    "thin",
    "MetricReport",
    "UspeReport",
    "d_mr_hr",
    "extent_metrics",
    "rmse",
    "summarize_d",
    "uspe",
    "SynthConfig",
    "run_cheap",
    "run_expensive",
    "simulate_observation",
]
