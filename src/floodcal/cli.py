"""Batch pipeline commands.

Stages communicate only through files in the configured runs/output
directories, so each can be rerun in isolation and external models can be
substituted for the synthetic one by writing the same artifacts.  Every
stage's outputs get a manifest with the config digest and the seeds it
consumed; rerunning a stage with unchanged inputs reproduces its outputs
byte for byte.  The run matrix is also cached under the output directory,
keyed by the content it is built from: ``run-synth`` stores the matrix of
the runs it wrote, and ``_load_ensemble`` builds and stores it on a miss.

Exit codes: 0 success, 2 config error, 3 missing or malformed upstream
artifact, 4 numerical failure, including a component-count mismatch and a
hold-out that leaves fewer than 2 expensive runs.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    ESS_TARGET,
    CalibrationPriors,
    McmcConfig,
    Observation,
    PosteriorChain,
    calibrated_projection,
    load_chain_samples,
    reduce_observation,
    run_mh,
    save_chain,
    thin,
)
from .design import (
    CHEAP,
    EXPENSIVE,
    Design,
    ParameterSpace,
    augment_cheap,
    edge_mask,
    maximin_lhs,
    read_design_csv,
    write_design_csv,
)
from .diagnostics import d_mr_hr, extent_metrics, format_d_table, rmse, summarize_d, uspe
from .emulator import (
    child_seeds,
    fit_multires,
    fit_singleres,
    load_emulator,
    predict_joint,
    predict_many,
    read_emulator_archive,
    save_emulator,
    thread_map,
)
from .errors import (
    AllExpensiveRemoved,
    ConfigError,
    DimensionMismatch,
    FloodcalError,
    MalformedArtifact,
    MissingArtifact,
    ModelRunFailed,
    NonPositiveDf,
)
from .grid import flatten, read_ascii_grid, write_ascii_grid
from .manifest import config_digest, read_manifest, write_manifest
from .reduce import (
    RunEnsemble,
    build_ensemble,
    fit_basis,
    load_basis,
    project,
    reconstruct,
    reduce_runs,
    save_basis,
)
from .synthmodel import (
    SynthConfig,
    expensive_model_adapter,
    observation_grid,
    run_cheap,
    run_expensive,
    shared_locations,
    simulate_observation,  # noqa: F401 - unused here, but perfbench's tracer wraps it here
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERICAL = 4


@dataclass
class ExperimentConfig:
    """Parsed experiment configuration with resolved paths."""

    path: Path
    digest: str
    space: ParameterSpace
    n_expensive: int
    extra_cheap: int
    n_candidates: int
    edge_bands: np.ndarray
    synth: SynthConfig
    theta_star: np.ndarray
    target_fraction: float
    n_starts: int
    apply_edge_bands: bool
    iterations: int
    burn_in_fraction: float
    adapt: bool
    approach: str
    noise_guess: float
    n_thinned: int
    flood_threshold: float
    holdout_fraction: float
    folds: int
    seeds: dict
    runs_dir: Path
    out_dir: Path


def _floats(raw: str) -> list[float]:
    return [float(v) for v in raw.replace(",", " ").split()]


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}") from err

    try:
        names = [n.strip() for n in parser.get("space", "names").split(",")]
        lower = _floats(parser.get("space", "lower"))
        upper = _floats(parser.get("space", "upper"))
        if not len(names) == len(lower) == len(upper):
            raise ConfigError("space names/lower/upper lengths differ")
        space = ParameterSpace(tuple(zip(names, lower, upper)))
        k = space.k

        zeros = ", ".join(["0"] * k)
        low_fr = _floats(parser.get("design", "edge_low_fractions", fallback=zeros))
        high_fr = _floats(parser.get("design", "edge_high_fractions", fallback=zeros))
        if len(low_fr) != k or len(high_fr) != k:
            raise ConfigError("edge band fractions must match dimension count")
        if not all(0 <= f < 0.5 for f in low_fr + high_fr):
            raise ConfigError("edge band fractions must lie in [0, 0.5)")

        theta_star = _floats(parser.get("synth", "theta_star", fallback=""))
        if len(theta_star) != k:
            raise ConfigError("synth.theta_star must give one value per dimension")
        default = SynthConfig(space=space)
        synth = SynthConfig(
            fine_shape=(
                parser.getint("synth", "fine_rows", fallback=default.fine_shape[0]),
                parser.getint("synth", "fine_cols", fallback=default.fine_shape[1]),
            ),
            fine_cell=parser.getfloat("synth", "fine_cell", fallback=default.fine_cell),
            coarse_shape=(
                parser.getint("synth", "coarse_rows", fallback=default.coarse_shape[0]),
                parser.getint("synth", "coarse_cols", fallback=default.coarse_shape[1]),
            ),
            coarse_cell=parser.getfloat("synth", "coarse_cell", fallback=default.coarse_cell),
            space=space,
            noise_sd=parser.getfloat("synth", "noise_sd", fallback=default.noise_sd),
            rho_true=parser.getfloat("synth", "rho_true", fallback=default.rho_true),
            cheap_bias=parser.getfloat("synth", "cheap_bias", fallback=default.cheap_bias),
        )
        if theta_star and not space.contains(np.array(theta_star)):
            raise ConfigError(f"theta_star {theta_star} outside the parameter space")

        seeds = {
            name: parser.getint("seeds", name, fallback=default)
            for name, default in (
                ("design", 1),
                ("observation", 2),
                ("emulator", 3),
                ("mcmc", 4),
                ("thin", 5),
                ("crossval", 6),
                ("diagnose", 7),
            )
        }

        base = path.parent
        cfg = ExperimentConfig(
            path=path,
            digest=config_digest(path),
            space=space,
            n_expensive=parser.getint("design", "n_expensive", fallback=20),
            extra_cheap=parser.getint("design", "extra_cheap", fallback=80),
            n_candidates=parser.getint("design", "n_candidates", fallback=1000),
            edge_bands=np.column_stack([low_fr, high_fr]),
            synth=synth,
            theta_star=np.array(theta_star),
            target_fraction=parser.getfloat("pca", "target_fraction", fallback=0.95),
            n_starts=parser.getint("emulator", "n_starts", fallback=8),
            apply_edge_bands=parser.getboolean("emulator", "apply_edge_bands", fallback=False),
            iterations=parser.getint("mcmc", "iterations", fallback=50_000),
            burn_in_fraction=parser.getfloat("mcmc", "burn_in_fraction", fallback=0.2),
            adapt=parser.getboolean("mcmc", "adapt", fallback=True),
            approach=parser.get("mcmc", "approach", fallback="mr"),
            noise_guess=parser.getfloat("mcmc", "noise_guess", fallback=0.03),
            n_thinned=parser.getint("project", "n_thinned", fallback=100),
            flood_threshold=parser.getfloat("diagnose", "flood_threshold", fallback=0.0),
            holdout_fraction=parser.getfloat("diagnose", "holdout_fraction", fallback=0.5),
            folds=parser.getint("crossval", "folds", fallback=10),
            seeds=seeds,
            runs_dir=base / parser.get("paths", "runs_dir", fallback="runs"),
            out_dir=base / parser.get("paths", "out_dir", fallback="out"),
        )
    except ConfigError:
        raise
    except (configparser.Error, ValueError) as err:
        raise ConfigError(f"invalid configuration: {err}") from err
    if cfg.approach not in ("mr", "hr"):
        raise ConfigError(f"unknown approach {cfg.approach!r}, expected mr or hr")
    if cfg.n_expensive < 2:
        raise ConfigError("design.n_expensive must be at least 2")
    if cfg.extra_cheap < 0:
        raise ConfigError("design.extra_cheap must not be negative")
    if cfg.n_candidates < 1:
        raise ConfigError("design.n_candidates must be at least 1")
    if cfg.iterations < 1:
        raise ConfigError("mcmc.iterations must be at least 1")
    if not 0 <= cfg.burn_in_fraction < 1:
        raise ConfigError("mcmc.burn_in_fraction must lie in [0, 1)")
    if not 0 < cfg.noise_guess < np.inf:
        raise ConfigError("mcmc.noise_guess must be positive and finite")
    if cfg.folds < 1:
        raise ConfigError("crossval.folds must be at least 1")
    if not 0 < cfg.target_fraction <= 1:
        raise ConfigError("pca.target_fraction must lie in (0, 1]")
    if cfg.n_starts < 1:
        raise ConfigError("emulator.n_starts must be at least 1")
    if not 0 < cfg.holdout_fraction < 1:
        raise ConfigError("diagnose.holdout_fraction must lie in (0, 1)")
    if cfg.n_thinned < 1:
        raise ConfigError("project.n_thinned must be at least 1")
    return cfg


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise MissingArtifact(f"{what} not found: {path}")
    return Path(path)


def _finish(cfg: ExperimentConfig, stage: str, path: Path, summary: str, **fields) -> None:
    """Write the stage manifest to ``path`` and print the stage's summary line."""
    write_manifest(path, {"stage": stage, "config_digest": cfg.digest, **fields})
    print(summary)


# --- stages -----------------------------------------------------------------


def cmd_design(cfg: ExperimentConfig, seed: int | None = None) -> None:
    seed = cfg.seeds["design"] if seed is None else seed
    exp_seed, cheap_seed = child_seeds(seed, 2)
    expensive = maximin_lhs(cfg.space, cfg.n_expensive, exp_seed, cfg.n_candidates)
    full = augment_cheap(expensive, cfg.space, cfg.extra_cheap, cheap_seed)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_design_csv(full, cfg.out_dir / "design.csv")
    _finish(cfg, "design", cfg.out_dir / "design.manifest.json",
            f"design: {full.n_expensive} expensive + {full.n_cheap} cheap points",
            seed=seed, n_expensive=full.n_expensive, n_cheap=full.n_cheap,
            n_candidates=cfg.n_candidates)


def _load_design(cfg: ExperimentConfig) -> Design:
    """The nested design: expensive rows first, each with a cheap twin."""
    path = _require(cfg.out_dir / "design.csv", "design")
    design = read_design_csv(path, cfg.space)
    try:
        if np.any(design.fidelity[: design.n_expensive] != EXPENSIVE):
            raise ValueError("a cheap row comes before the last expensive row")
        design.validate_nesting()
    except ValueError as err:
        raise MalformedArtifact(f"{path}: {err}") from err
    return design


def cmd_run_synth(cfg: ExperimentConfig, seed: int | None = None, threads: int = 1) -> None:
    seed = cfg.seeds["observation"] if seed is None else seed
    design = _load_design(cfg)
    cfg.runs_dir.mkdir(parents=True, exist_ok=True)

    def run_row(i):
        theta = design.points[i]
        try:
            if design.fidelity[i] == EXPENSIVE:
                return run_expensive(theta, cfg.synth)
            return run_cheap(theta, cfg.synth)
        except Exception as err:
            raise ModelRunFailed(tuple(theta), f"design row {i}: {err}") from err

    grids = thread_map(run_row, range(len(design.points)), threads)
    files = []
    for i, grid in enumerate(grids):
        name = f"run_{i:04d}_{design.fidelity[i]}.asc"
        write_ascii_grid(grid, cfg.runs_dir / name)
        files.append(name)

    write_ascii_grid(observation_grid(cfg.theta_star, cfg.synth, seed),
                     cfg.runs_dir / "observation.asc")

    _finish(cfg, "run-synth", cfg.runs_dir / "runs.manifest.json",
            f"run-synth: {len(files)} runs + observation written to {cfg.runs_dir}",
            observation_seed=seed, theta_star=list(cfg.theta_star),
            noise_sd=cfg.synth.noise_sd,
            runs=[
                {"row": i, "file": files[i], "fidelity": design.fidelity[i],
                 "theta": list(design.points[i])}
                for i in range(len(files))
            ])
    # %.17g grids read back as these floats, so the matrix is the one emulate would build
    locations = shared_locations(cfg.synth)
    ensemble = build_ensemble([g for g, f in zip(grids, design.fidelity) if f == EXPENSIVE],
                              [g for g, f in zip(grids, design.fidelity) if f == CHEAP],
                              design, locations)
    key = _ensemble_key(cfg, [cfg.runs_dir / name for name in files], locations)
    _store_ensemble(cfg.out_dir, key, ensemble.depths)


def _load_ensemble(cfg: ExperimentConfig) -> RunEnsemble:
    """The design's runs, as listed in the runs manifest, on the shared locations.

    The run matrix is kept in ``out/ensemble.npy`` under ``_ensemble_key``,
    stored by ``run-synth`` or by the first load after it.  When the key and
    the matrix's own checksum match, the matrix is loaded instead of parsing
    and interpolating the grids again; anything else rebuilds and rewrites it.
    """
    design = _load_design(cfg)
    manifest_path = _require(cfg.runs_dir / "runs.manifest.json", "runs manifest")
    try:
        run_paths = {entry["row"]: _require(cfg.runs_dir / entry["file"], "model run")
                     for entry in read_manifest(manifest_path)["runs"]}
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedArtifact(f"{manifest_path}: unreadable runs manifest: {err!r}") from err
    unlisted = sorted(set(range(len(design.points))) - set(run_paths))
    if unlisted:
        raise MalformedArtifact(f"{manifest_path} lists no run for design rows {unlisted}")
    locations = shared_locations(cfg.synth)
    key = _ensemble_key(cfg, run_paths.values(), locations)
    depths = _cached_depths(cfg.out_dir, key, (len(design.points), len(locations)))
    if depths is not None:
        return RunEnsemble(depths, design, locations)

    grids = {row: read_ascii_grid(path) for row, path in run_paths.items()}
    rows = range(len(design.points))
    exp_grids = [grids[i] for i in rows if design.fidelity[i] == EXPENSIVE]
    cheap_grids = [grids[i] for i in rows if design.fidelity[i] == CHEAP]
    ensemble = build_ensemble(exp_grids, cheap_grids, design, locations)
    _store_ensemble(cfg.out_dir, key, ensemble.depths)
    return ensemble


def _ensemble_key(cfg: ExperimentConfig, run_paths, locations) -> str:
    """The run matrix's cache key: a sha256 over the package version, the bytes
    of ``design.csv``, ``runs.manifest.json`` and ``run_paths`` (in manifest
    order), and the location coordinates."""
    digest = hashlib.sha256(__version__.encode())
    for path in (cfg.out_dir / "design.csv", cfg.runs_dir / "runs.manifest.json", *run_paths):
        digest.update(hashlib.sha256(path.read_bytes()).digest())  # one file in memory at a time
    digest.update(hashlib.sha256(np.ascontiguousarray(locations.coords)).digest())
    return digest.hexdigest()


def _store_ensemble(out_dir: Path, key: str, depths: np.ndarray) -> None:
    """Save the run matrix under ``key``, each file through a temporary name."""
    # matrix first: a manifest left over from an earlier build then fails the checksum
    tmp = out_dir / "ensemble.npy.tmp"
    with open(tmp, "wb") as fh:
        np.save(fh, depths)
    os.replace(tmp, out_dir / "ensemble.npy")
    tmp = out_dir / "ensemble.manifest.json.tmp"
    write_manifest(tmp, {"key": key, "sha256": hashlib.sha256(depths).hexdigest()})
    os.replace(tmp, out_dir / "ensemble.manifest.json")


def _cached_depths(out_dir: Path, key: str, shape: tuple) -> np.ndarray | None:
    """The cached run matrix if it was built under ``key`` and is intact, else None."""
    try:
        meta = read_manifest(out_dir / "ensemble.manifest.json")
        if meta["key"] != key:
            return None
        depths = np.load(out_dir / "ensemble.npy", allow_pickle=False)
        intact = (isinstance(depths, np.ndarray) and depths.shape == shape
                  and depths.dtype == np.float64 and depths.flags.c_contiguous
                  and hashlib.sha256(depths).hexdigest() == meta["sha256"])
    except (OSError, EOFError, ValueError, KeyError, TypeError):
        return None
    return depths if intact else None


def cmd_emulate(cfg: ExperimentConfig, seed: int | None = None, threads: int = 1) -> None:
    seed = cfg.seeds["emulator"] if seed is None else seed
    ensemble = _load_ensemble(cfg)
    design = ensemble.design
    held = np.flatnonzero(edge_mask(design, cfg.edge_bands)) if cfg.apply_edge_bands else []
    basis, emulators, _, _, _ = _fit_holdout(cfg, design, ensemble, held, seed, threads)

    save_basis(basis, cfg.out_dir / "basis")
    for label, emu in emulators.items():
        save_emulator(emu, cfg.out_dir / f"emulator_{label}")
    n_locations = len(ensemble.locations)
    _finish(cfg, "emulate", cfg.out_dir / "emulate.manifest.json",
            f"emulate: {basis.n_components} components capture "
            f"{100 * basis.variance_fraction:.2f}% variance at {n_locations} locations",
            seed=seed, n_locations=n_locations, n_components=basis.n_components,
            variance_fraction=basis.variance_fraction,
            edge_bands_applied=cfg.apply_edge_bands,
            n_expensive=design.n_expensive - len(held), n_cheap=design.n_cheap)


def _load_observation(cfg: ExperimentConfig) -> Observation:
    obs_grid = read_ascii_grid(_require(cfg.runs_dir / "observation.asc", "observation"))
    locations = shared_locations(cfg.synth)
    return Observation(flatten(obs_grid, locations), locations)


def cmd_calibrate(cfg: ExperimentConfig, seed: int | None = None) -> None:
    seed = cfg.seeds["mcmc"] if seed is None else seed
    basis = load_basis(_require(cfg.out_dir / "basis", "basis archive"))
    emulator = load_emulator(
        _require(cfg.out_dir / f"emulator_{cfg.approach}", f"{cfg.approach} emulator")
    )
    obs = _load_observation(cfg)
    z_r = reduce_observation(obs, basis)

    mcmc = McmcConfig(
        iterations=cfg.iterations,
        seed=seed,
        burn_in=int(cfg.burn_in_fraction * cfg.iterations),
        adapt=cfg.adapt,
    )
    chain = run_mh(z_r, emulator, basis, CalibrationPriors(cfg.noise_guess), mcmc)
    name = f"chain_{cfg.approach}"
    save_chain(chain, cfg.out_dir / f"{name}.csv")

    ess_min = min(chain.ess.values())
    flag = "" if ess_min >= ESS_TARGET else f" (target {ESS_TARGET} not met)"
    _finish(cfg, "calibrate", cfg.out_dir / f"{name}.manifest.json",
            f"calibrate[{cfg.approach}]: {chain.n_kept} retained samples, "
            f"min ESS {ess_min:.0f}{flag}",
            seed=seed, approach=cfg.approach, iterations=cfg.iterations,
            burn_in=chain.burn_in, adapt=cfg.adapt, noise_guess=cfg.noise_guess,
            acceptance_rates=dict(zip(chain.names, chain.acceptance_rates)),
            ess=chain.ess, ess_target=ESS_TARGET,
            ess_target_met=bool(ess_min >= ESS_TARGET))


def cmd_project(cfg: ExperimentConfig, seed: int | None = None, threads: int = 1) -> None:
    seed = cfg.seeds["thin"] if seed is None else seed
    chain_path = _require(cfg.out_dir / f"chain_{cfg.approach}.csv", "posterior chain")
    samples, names = load_chain_samples(chain_path)
    chain = PosteriorChain(
        samples=samples,
        log_posterior=np.zeros(len(samples)),
        accepted_mask=np.zeros(len(samples), dtype=np.int64),
        acceptance_rates=np.zeros(samples.shape[1]),
        names=names,
        seed=seed,
        burn_in=0,
        iterations=len(samples),
    )
    if chain.theta_names != list(cfg.space.names):
        raise MalformedArtifact(f"{chain_path}: columns {names} do not match the parameters "
                                f"{list(cfg.space.names)}")
    thetas = thin(chain, min(cfg.n_thinned, chain.n_kept), seed)
    projection = calibrated_projection(thetas, expensive_model_adapter(cfg.synth), threads)
    write_ascii_grid(projection, cfg.out_dir / f"projection_{cfg.approach}.asc")
    _finish(cfg, "project", cfg.out_dir / f"projection_{cfg.approach}.manifest.json",
            f"project[{cfg.approach}]: mean of {len(thetas)} thinned projections written",
            seed=seed, approach=cfg.approach, n_thinned=len(thetas),
            thetas=[list(t) for t in thetas])


def cmd_diagnose(cfg: ExperimentConfig, seed: int | None = None) -> None:
    seed = cfg.seeds["diagnose"] if seed is None else seed

    projection = read_ascii_grid(
        _require(cfg.out_dir / f"projection_{cfg.approach}.asc", "calibrated projection")
    )
    obs_grid = read_ascii_grid(_require(cfg.runs_dir / "observation.asc", "observation"))
    archive = _warm_archive(cfg)
    report = extent_metrics(projection, obs_grid, cfg.flood_threshold)

    metrics = {"approach": cfg.approach, "flood_threshold": cfg.flood_threshold}
    metrics.update(report.to_dict())
    write_manifest(cfg.out_dir / "metrics.json", metrics)
    with open(cfg.out_dir / "metrics.txt", "w") as fh:
        fh.write(f"projection vs observation ({cfg.approach})\n")
        fh.write(f"{'RMSE (m)':<16}{report.rmse:.4f}\n")
        fh.write(f"{'Percent bias':<16}{report.percent_bias:.2f}\n")
        fh.write(f"{'Fit':<16}{report.fit:.3f}\n")
        fh.write(f"{'Correctness':<16}{report.correctness:.3f}\n")

    # emulator validation: hold out expensive runs, whiten errors per leading PC
    ensemble = _load_ensemble(cfg)
    design = ensemble.design

    rng = np.random.default_rng(seed)
    p_e = design.n_expensive
    # T reference needs test size > mean-parameter count (2*(k+1) for MR)
    n_min = 2 * (cfg.space.k + 1) + 1
    n_hold = max(n_min, round(cfg.holdout_fraction * p_e))
    if p_e - n_hold < 2:
        raise NonPositiveDf(
            f"{p_e} expensive runs are too few for USPE validation "
            f"(need {n_min} test + 2 training points)"
        )
    held_idx = np.sort(rng.choice(p_e, size=n_hold, replace=False))
    uspe_written = _uspe_validation(cfg, design, ensemble, held_idx, seed, archive)

    _finish(cfg, "diagnose", cfg.out_dir / "diagnose.manifest.json",
            f"diagnose[{cfg.approach}]: rmse {report.rmse:.4f} m, bias "
            f"{report.percent_bias:.2f}%, fit {report.fit:.3f}, "
            f"correctness {report.correctness:.3f}",
            seed=seed, flood_threshold=cfg.flood_threshold,
            held_out_rows=[int(i) for i in held_idx], uspe_files=uspe_written)


def _train_test_split(design: Design, ensemble: RunEnsemble, held_exp_idx: np.ndarray):
    """The ensemble without the given expensive rows, and those rows' depths and settings."""
    n_left = design.n_expensive - len(held_exp_idx)
    if n_left < 2:
        raise AllExpensiveRemoved(
            f"holding out {len(held_exp_idx)} of {design.n_expensive} expensive runs leaves "
            f"{n_left}; the emulators need at least 2"
        )
    if len(held_exp_idx) == 0:  # no copy of the depth matrix when nothing is held out
        return ensemble, ensemble.depths[:0], design.points[:0]
    held_rows = np.zeros(len(design.points), dtype=bool)
    held_rows[held_exp_idx] = True  # expensive rows come first
    train = RunEnsemble(
        ensemble.depths[~held_rows],
        Design(design.points[~held_rows], design.fidelity[~held_rows], design.space),
        ensemble.locations,
    )
    return train, ensemble.depths[held_rows], design.points[held_rows]


def _warm_archive(cfg: ExperimentConfig) -> tuple[np.ndarray, dict]:
    """The basis components and the MR/HR MAP parameters ``emulate`` archived.

    Only the parameters are read: no emulator is built, so no gram is
    factored.  Raises DimensionMismatch when an emulator archive and the
    basis archive disagree on the component count, or the emulator's space
    on the dimension count.
    """
    basis = load_basis(_require(cfg.out_dir / "basis", "basis archive"))
    params = {}
    for label in ("mr", "hr"):
        path = _require(cfg.out_dir / f"emulator_{label}", f"{label} emulator")
        parsed = read_emulator_archive(path)
        params[label], k = parsed["params_list"], parsed["space"].k
        if len(params[label]) != basis.n_components or k != cfg.space.k:
            raise DimensionMismatch(
                f"{path} has {len(params[label])} components over {k} dimensions, the "
                f"basis archive {basis.n_components} components and the config {cfg.space.k} "
                f"dimensions"
            )
    return basis.components, params


def _warm_starts(basis, archive) -> dict:
    """Per label, the archived parameters each component of ``basis`` starts from.

    Component j takes the parameters of the archived component whose basis
    column is most aligned with column j, by the largest |cosine|.  That
    covers swapped components and a J other than the archive's; a sign flip
    is harmless, as under the zero trend-mean prior negated scores have the
    same log posterior.
    """
    components, params = archive
    if components.shape[0] != basis.n_locations:
        raise DimensionMismatch(f"the basis archive has {components.shape[0]} locations, "
                                f"the run matrix {basis.n_locations}")
    unit = [c / np.linalg.norm(c, axis=0) for c in (basis.components, components)]
    match = np.argmax(np.abs(unit[0].T @ unit[1]), axis=1)
    return {label: [p[i] for i in match] for label, p in params.items()}


def _fit_holdout(cfg, design, ensemble, held_idx, seed, threads=1, archive=None):
    """Basis and MR/HR emulators fitted without the held-out expensive rows.

    Fits are cold, from ``cfg.n_starts`` random starts per component, unless
    ``archive`` (see :func:`_warm_archive`) gives warm starts.  Returns the
    basis, the emulators keyed ``mr``/``hr``, and the held-out settings,
    depths and scores.
    """
    train, test_depths, test_thetas = _train_test_split(design, ensemble, held_idx)
    basis = fit_basis(train, cfg.target_fraction)
    scores = reduce_runs(basis, train)
    test_scores = project(basis, test_depths)
    mr_seed, hr_seed = child_seeds(seed, 2)
    warm = _warm_starts(basis, archive) if archive is not None else {"mr": None, "hr": None}
    emulators = {
        "mr": fit_multires(train.design, scores.scores, n_starts=cfg.n_starts,
                           seed=mr_seed, threads=threads, warm=warm["mr"]),
        "hr": fit_singleres(train.design, scores.expensive, n_starts=cfg.n_starts,
                            seed=hr_seed, threads=threads, warm=warm["hr"]),
    }
    return basis, emulators, test_thetas, test_depths, test_scores


def _leading_components(basis, fraction: float = 0.75) -> int:
    cum = np.cumsum(basis.eigenvalues) / basis.total_variance
    return int(min(np.searchsorted(cum, fraction) + 1, basis.n_components))


def _uspe_validation(cfg, design, ensemble, held_idx, seed, archive) -> list:
    basis, emulators, test_thetas, _, test_scores = _fit_holdout(
        cfg, design, ensemble, held_idx, seed, archive=archive
    )
    n_lead = _leading_components(basis)
    written = []
    for label, emu in emulators.items():
        joint = predict_joint(emu, test_thetas)
        path = cfg.out_dir / f"uspe_{label}.csv"
        with open(path, "w") as fh:
            fh.write("component,empirical,theoretical\n")
            for j in range(n_lead):
                mean, cov = joint[j]
                report = uspe(test_scores[:, j], mean, cov, emu.n_trend_params)
                for emp, theo in report.qq:
                    fh.write(f"{j},{emp:.17g},{theo:.17g}\n")
        written.append(path.name)
    return written


def cmd_crossval(cfg: ExperimentConfig, seed: int | None = None, threads: int = 1) -> None:
    seed = cfg.seeds["crossval"] if seed is None else seed
    archive = _warm_archive(cfg)
    ensemble = _load_ensemble(cfg)
    design = ensemble.design
    label = f"{design.n_expensive}e{design.n_cheap}c"

    rng = np.random.default_rng(seed)
    p_e = design.n_expensive
    perm = rng.permutation(p_e)
    folds = np.array_split(perm, cfg.folds)
    fold_seeds = child_seeds(seed, len(folds) + 1)

    cv_d = []
    for fold, fold_seed in zip(folds, fold_seeds[:-1]):
        if len(fold) == 0:
            continue
        cv_d.extend(_holdout_d_values(cfg, design, ensemble, np.sort(fold), fold_seed,
                                      threads, archive))

    held_edge = np.flatnonzero(edge_mask(design, cfg.edge_bands)[:p_e])
    edge_d = None
    if held_edge.size:
        edge_d = _holdout_d_values(cfg, design, ensemble, held_edge, fold_seeds[-1], threads,
                                   archive)

    result = {
        "label": label,
        "cross_validation": {
            "quartiles": list(summarize_d(cv_d)),
            "n_points": len(cv_d),
        },
    }
    tables = {label: summarize_d(cv_d)}
    if edge_d is not None:
        result["edge_case"] = {
            "quartiles": list(summarize_d(edge_d)),
            "n_points": len(edge_d),
        }
    with open(cfg.out_dir / "crossval.txt", "w") as fh:
        fh.write("Cross validation: difference in RMSE between MR and HR (m)\n")
        fh.write(format_d_table(tables))
        if edge_d is not None:
            fh.write("\nEdge cases: difference in RMSE between MR and HR (m)\n")
            fh.write(format_d_table({label: summarize_d(edge_d)}))
    q = summarize_d(cv_d)
    _finish(cfg, "crossval", cfg.out_dir / "crossval.json",
            f"crossval[{label}]: D(MR-HR) Q1 {q[0]:.3f} median {q[1]:.3f} "
            f"mean {q[2]:.3f} Q3 {q[3]:.3f}",
            seed=seed, **result)


def _holdout_d_values(cfg, design, ensemble, held_idx, seed, threads, archive) -> list:
    """Per-held-out-point RMSE difference between the MR and HR emulators."""
    basis, emulators, test_thetas, test_depths, _ = _fit_holdout(
        cfg, design, ensemble, held_idx, seed, threads, archive
    )
    pred_mr, pred_hr = (reconstruct(basis, predict_many(emu, test_thetas)[0])
                        for emu in emulators.values())
    return [d_mr_hr(rmse(mr, depths), rmse(hr, depths))
            for mr, hr, depths in zip(pred_mr, pred_hr, test_depths)]


# --- entry point ---------------------------------------------------------

_THREADS = {"--threads": dict(type=int, default=1,
                              help="worker threads for model runs and per-component fits")}

# stage name -> (function, help text, extra flags); every stage also takes
# --config, --seed and --out, and is called as function(cfg, seed, **extra)
STAGES = {
    "design": (cmd_design, "generate the nested maximin LHS design", {}),
    "run-synth": (cmd_run_synth, "run the synthetic two-fidelity model over the design",
                  _THREADS),
    "emulate": (cmd_emulate, "reduce dimensions and fit the MR and HR emulators", _THREADS),
    "calibrate": (cmd_calibrate, "sample the posterior over (theta, sigma2_eps)", {}),
    "project": (cmd_project, "average model runs at thinned posterior samples", _THREADS),
    "diagnose": (cmd_diagnose, "projection metrics and emulator validation", {}),
    "crossval": (cmd_crossval, "cross-validation and edge-case D(MR-HR) tables", _THREADS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodcal",
        description="Multiresolution GP emulation-calibration pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in STAGES.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file (INI)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override this stage's seed from [seeds]")
        cmd.add_argument("--out", default=None, help="override the output directory")
        for flag, spec in flags.items():
            cmd.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    stage = STAGES[args.pop("command")][0]
    config, seed, out = args.pop("config"), args.pop("seed"), args.pop("out")
    try:
        cfg = load_config(config)
        if out is not None:
            cfg.out_dir = Path(out)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        stage(cfg, seed, **args)  # args now holds only the stage's extra flags
    except ConfigError as err:
        print(f"floodcal: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (MissingArtifact, FileNotFoundError) as err:
        print(f"floodcal: missing artifact: {err}", file=sys.stderr)
        return EXIT_MISSING
    except MalformedArtifact as err:
        print(f"floodcal: malformed artifact: {err}", file=sys.stderr)
        return EXIT_MISSING
    except FloodcalError as err:
        print(f"floodcal: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
