"""Batch pipeline commands.

Stages communicate only through files in the configured runs/output
directories, so each can be rerun in isolation and external models can be
substituted for the synthetic one by writing the same artifacts.  ``STAGES``
is the one table of them: each stage's function and help text, and the
artifacts it reads and writes as path templates.  Every artifact path comes
from those templates through ``_path``, and ``main`` checks a stage's reads
before calling it; a missing one is named with the stage that writes it.
Every stage's outputs get a manifest with the config digest and the seeds it
consumed; rerunning a stage with unchanged inputs reproduces its outputs
byte for byte.  The run matrix is also cached under the output directory,
keyed by the content it is built from: ``run-synth`` stores the matrix of
the runs it wrote, and ``_load_split`` builds and stores it on a miss.

Exit codes: 0 success, 2 config error, 3 missing or malformed upstream
artifact, a file where a directory belongs or the reverse included, 4
numerical failure, including a component-count mismatch and a hold-out that
leaves fewer than 2 expensive runs.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    DEFAULT_BURN_IN_FRACTION,
    ESS_TARGET,
    CalibrationPriors,
    McmcConfig,
    Observation,
    calibrated_projection,
    load_chain_samples,
    reduce_observation,
    run_mh,
    save_chain,
    thin,
)
from .design import (
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
    EMULATOR_ARCHIVE,
    child_seeds,
    fit_multires,
    fit_singleres,
    load_emulator,
    predict_joint,
    predict_many,
    read_emulator_archive,
    save_emulator,
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
from .manifest import file_digest, npy_header, npy_parts, read_manifest, write_file, write_manifest
from .reduce import (
    BASIS_ARCHIVE,
    RunEnsemble,
    build_ensemble,
    fit_basis,  # noqa: F401 - unused here, but perfbench's tracer wraps it here
    fit_basis_in_place,
    load_basis,
    project,
    reconstruct,
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

EXIT_OK, EXIT_CONFIG, EXIT_MISSING, EXIT_NUMERICAL = 0, 2, 3, 4


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


def _at_least(n: int) -> tuple:
    return (lambda v: v >= n), f"must be at least {n}"


_BOOL = configparser.ConfigParser.BOOLEAN_STATES
_FINITE = (lambda v: bool(np.all(np.isfinite(v))), "must be finite")
_POSITIVE = (lambda v: 0 < v < np.inf, "must be positive and finite")
_FRACTIONS = (lambda fr: all(0 <= f < 0.5 for f in fr), "edge band fractions must lie in [0, 0.5)")

# (section, key) -> (parse, default, check), check being None or (predicate on the parsed
# value, message on failure).  A default of ... marks a required key; defaults are not
# checked.  README.md's config reference lists these keys, and a test keeps them equal.
CONFIG_KEYS = {
    ("space", "names"): (lambda raw: [n.strip() for n in raw.split(",")], ..., (
        lambda v: all(v) and len(set(v)) == len(v), "must be distinct and non-empty")),
    ("space", "lower"): (_floats, ..., _FINITE),
    ("space", "upper"): (_floats, ..., _FINITE),
    ("design", "n_expensive"): (int, 20, _at_least(2)),
    ("design", "extra_cheap"): (int, 80, _at_least(0)),
    ("design", "n_candidates"): (int, 1000, _at_least(1)),
    ("design", "edge_low_fractions"): (_floats, None, _FRACTIONS),  # None: k zeros
    ("design", "edge_high_fractions"): (_floats, None, _FRACTIONS),
    ("synth", "theta_star"): (_floats, ..., None),
    ("synth", "fine_rows"): (int, SynthConfig.fine_shape[0], _at_least(1)),
    ("synth", "fine_cols"): (int, SynthConfig.fine_shape[1], _at_least(1)),
    ("synth", "fine_cell"): (float, SynthConfig.fine_cell, _POSITIVE),
    ("synth", "coarse_rows"): (int, SynthConfig.coarse_shape[0], _at_least(1)),
    ("synth", "coarse_cols"): (int, SynthConfig.coarse_shape[1], _at_least(1)),
    ("synth", "coarse_cell"): (float, SynthConfig.coarse_cell, _POSITIVE),
    ("synth", "noise_sd"): (float, SynthConfig.noise_sd,
                            (lambda v: 0 <= v < np.inf, "must be non-negative and finite")),
    ("synth", "rho_true"): (float, SynthConfig.rho_true, _FINITE),
    ("synth", "cheap_bias"): (float, SynthConfig.cheap_bias, _FINITE),
    ("pca", "target_fraction"): (float, 0.95, (lambda v: 0 < v <= 1, "must lie in (0, 1]")),
    ("emulator", "n_starts"): (int, 8, _at_least(1)),
    ("emulator", "apply_edge_bands"): (lambda raw: _BOOL[raw.lower()], False, None),
    ("mcmc", "iterations"): (int, 50_000, _at_least(1)),
    ("mcmc", "burn_in_fraction"): (float, DEFAULT_BURN_IN_FRACTION,
                                   (lambda v: 0 <= v < 1, "must lie in [0, 1)")),
    ("mcmc", "adapt"): (lambda raw: _BOOL[raw.lower()], True, None),
    ("mcmc", "approach"): (str, "mr", (lambda v: v in ("mr", "hr"), "must be mr or hr")),
    ("mcmc", "noise_guess"): (float, 0.03, _POSITIVE),
    ("project", "n_thinned"): (int, 100, _at_least(1)),
    ("diagnose", "flood_threshold"): (float, 0.0, _FINITE),
    ("diagnose", "holdout_fraction"): (float, 0.5, (lambda v: 0 < v < 1, "must lie in (0, 1)")),
    ("crossval", "folds"): (int, 10, _at_least(1)),
    **{("seeds", name): (int, seed, _at_least(0)) for seed, name in enumerate(
        ("design", "observation", "emulator", "mcmc", "thin", "crossval", "diagnose"), 1)},
    ("paths", "runs_dir"): (str, "runs", None),
    ("paths", "out_dir"): (str, "out", None),
}


def load_config(path) -> ExperimentConfig:
    """The experiment config at ``path``, each key parsed and checked as CONFIG_KEYS says."""
    path = Path(path)
    # [DEFAULT] is an unknown section; values are literal, % included
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}") from err

    values = {section: {} for section, _ in CONFIG_KEYS}
    known = [f"[{s}]" for s in values] + [f"{s}.{k}" for s, k in CONFIG_KEYS]
    unknown = [name for s in parser.sections()
               for name in (f"[{s}]", *(f"{s}.{k}" for k in parser[s])) if name not in known]
    if unknown:  # name the first, with the closest known section or key
        import difflib  # only on this error path, so a valid config does not pay for it
        close = difflib.get_close_matches(unknown[0], known, n=1)
        hint = f"; did you mean {close[0]}?" if close else ""
        raise ConfigError(f"unknown {unknown[0]}{hint}")
    for (section, key), (parse, default, check) in CONFIG_KEYS.items():
        try:
            raw = parser.get(section, key, fallback=None)
            value = default if raw is None else parse(raw)
        except (configparser.Error, ValueError, KeyError) as err:
            raise ConfigError(f"cannot parse {section}.{key}: {err!r}") from err
        if value is ...:
            raise ConfigError(f"{section}.{key} is required")
        if raw is not None and check is not None and not check[0](value):
            raise ConfigError(f"{section}.{key} = {raw}: {check[1]}")
        values[section][key] = value

    names, lower, upper = values.pop("space").values()
    if not len(names) == len(lower) == len(upper):
        raise ConfigError("space names/lower/upper lengths differ")
    synth, paths, seeds = values.pop("synth"), values.pop("paths"), values.pop("seeds")
    try:
        space = ParameterSpace(tuple(zip(names, lower, upper)))
        bands = [[0.0] * space.k if fr is None else fr for fr in
                 (values["design"].pop(f"edge_{side}_fractions") for side in ("low", "high"))]
        theta_star = synth.pop("theta_star")
        geometry = SynthConfig(
            fine_shape=(synth.pop("fine_rows"), synth.pop("fine_cols")),
            coarse_shape=(synth.pop("coarse_rows"), synth.pop("coarse_cols")),
            space=space, **synth)  # the other [synth] keys are SynthConfig fields
    except ValueError as err:  # ParameterSpace's bound order, SynthConfig's coverage
        raise ConfigError(f"invalid configuration: {err}") from err
    if any(len(fr) != space.k for fr in bands):
        raise ConfigError("edge band fractions must match dimension count")
    if len(theta_star) != space.k or not space.contains(np.array(theta_star)):
        raise ConfigError(f"synth.theta_star = {theta_star}: must give one value per dimension, "
                          "inside the parameter space")
    fine, coarse = geometry.fine_cell, geometry.coarse_cell
    for i, axis in enumerate(("rows", "cols")):  # shared_locations' arithmetic, one axis
        centres = 0.5 * fine + np.arange(geometry.fine_shape[i]) * fine
        hull_top = 0.5 * coarse + (geometry.coarse_shape[i] - 1) * coarse
        if not np.any((centres >= 0.5 * coarse) & (centres <= hull_top)):
            raise ConfigError(f"synth.fine_{axis}: no fine cell centre is inside the coarse hull")

    return ExperimentConfig(
        path=path, digest=file_digest(path).hex(), space=space, synth=geometry, seeds=seeds,
        edge_bands=np.column_stack(bands), theta_star=np.array(theta_star),
        runs_dir=path.parent / paths["runs_dir"], out_dir=path.parent / paths["out_dir"],
        **{key: value for fields in values.values() for key, value in fields.items()},
    )  # every key of the other sections is the ExperimentConfig field of the same name


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # e.g. a path under a regular file
        raise ConfigError(f"cannot create output directory {path}: {err}") from err


def _path(cfg: ExperimentConfig, template: str, approach: str | None = None) -> Path:
    """The path an artifact template of ``STAGES`` names, for ``approach`` or else cfg's."""
    return Path(template.format(runs=cfg.runs_dir, out=cfg.out_dir,
                                approach=approach or cfg.approach))


def _check(cfg: ExperimentConfig, template: str, path: Path | None = None) -> Path:
    """``path``, by default the one ``template`` names, if it is a directory where the
    template ends in / and a file elsewhere; else raise, naming the stage that writes it
    (for a file inside an archive, the stage that writes the archive)."""
    want_dir, target = template.endswith("/"), _path(cfg, template)
    path = target if path is None else path
    if path.is_dir() if want_dir else path.is_file():
        return path
    writer = next(name for name, (*_, writes) in STAGES.items()
                  if any(_path(cfg, t) in (target, *target.parents) for t in writes))
    if not path.exists():
        raise MissingArtifact(f"{path} not found; the {writer} stage writes it")
    raise MalformedArtifact(f"{path} is not a {'directory' if want_dir else 'file'}; "
                            f"the {writer} stage writes it")


def _finish(cfg: ExperimentConfig, stage: str, template: str, summary: str, **fields) -> bytes:
    """Write the stage manifest ``template`` names and print the stage's summary line;
    returns the manifest's sha256 digest."""
    digest = write_manifest(_path(cfg, template),
                            {"stage": stage, "config_digest": cfg.digest, **fields})
    print(summary)
    return digest


# --- stages -----------------------------------------------------------------


def cmd_design(cfg: ExperimentConfig, seed: int | None = None) -> None:
    seed = cfg.seeds["design"] if seed is None else seed
    exp_seed, cheap_seed = child_seeds(seed, 2)
    expensive = maximin_lhs(cfg.space, cfg.n_expensive, exp_seed, cfg.n_candidates)
    full = augment_cheap(expensive, cfg.space, cfg.extra_cheap, cheap_seed)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_design_csv(full, _path(cfg, DESIGN))
    _finish(cfg, "design", DESIGN_MANIFEST,
            f"design: {full.n_expensive} expensive + {full.n_cheap} cheap points",
            seed=seed, n_expensive=full.n_expensive, n_cheap=full.n_cheap,
            n_candidates=cfg.n_candidates)


def _load_design(cfg: ExperimentConfig) -> Design:
    """The nested design: expensive rows first, each with a cheap twin."""
    path = _path(cfg, DESIGN)
    design = read_design_csv(path, cfg.space)
    try:
        if np.any(design.fidelity[: design.n_expensive] != EXPENSIVE):
            raise ValueError("a cheap row comes before the last expensive row")
        design.validate_nesting()
    except ValueError as err:
        raise MalformedArtifact(f"{path}: {err}") from err
    return design


def cmd_run_synth(cfg: ExperimentConfig, seed: int | None = None, _threads: int = 1) -> None:
    seed = cfg.seeds["observation"] if seed is None else seed
    design = _load_design(cfg)
    _make_dir(cfg.runs_dir)

    def run_row(i):
        theta = design.points[i]
        try:
            if design.fidelity[i] == EXPENSIVE:
                return run_expensive(theta, cfg.synth)
            return run_cheap(theta, cfg.synth)
        except Exception as err:
            raise ModelRunFailed(tuple(theta), f"design row {i}: {err}") from err

    grids = [run_row(i) for i in range(len(design.points))]
    paths = [_path(cfg, RUN_GRIDS.replace("*", f"{i:04d}_{tag}"))
             for i, tag in enumerate(design.fidelity)]
    grid_digests = [write_ascii_grid(grid, path) for grid, path in zip(grids, paths)]
    write_ascii_grid(observation_grid(cfg.theta_star, cfg.synth, seed), _path(cfg, OBSERVATION))

    manifest_digest = _finish(
        cfg, "run-synth", RUNS_MANIFEST,
        f"run-synth: {len(paths)} runs + observation written to {cfg.runs_dir}",
        observation_seed=seed, theta_star=list(cfg.theta_star), noise_sd=cfg.synth.noise_sd,
        runs=[{"row": i, "file": path.name, "fidelity": design.fidelity[i],
               "theta": list(design.points[i])} for i, path in enumerate(paths)])
    # %.17g grids read back as these floats, so the matrix is the one emulate would build,
    # under the key emulate computes from the files' bytes
    locations = shared_locations(cfg.synth)
    ensemble = build_ensemble(grids[:design.n_expensive], grids[design.n_expensive:], design,
                              locations)
    key = _ensemble_key([file_digest(_path(cfg, DESIGN)), manifest_digest, *grid_digests],
                        locations)
    _store_ensemble(cfg, key, ensemble.depths)


def _load_split(cfg: ExperimentConfig, design: Design, held_idx):
    """The runs the runs manifest lists, on the shared locations: the ensemble
    without the expensive rows ``held_idx``, its depths an array no one else
    holds, and those rows' depths and settings.

    The run matrix is cached in the ``ENSEMBLE`` pair under ``_ensemble_key``
    by ``run-synth`` or the first load after it.  When the key and the matrix's
    own checksum match, its rows are read straight into the two depth arrays;
    anything else rebuilds it from the grids, one at a time, and rewrites it.
    """
    n_left = design.n_expensive - len(held_idx)
    if n_left < 2:
        raise AllExpensiveRemoved(f"holding out {len(held_idx)} of {design.n_expensive} "
                                  f"expensive runs leaves {n_left}; the emulators need at least 2")
    held = np.zeros(len(design.points), dtype=bool)
    held[held_idx] = True  # expensive rows come first
    manifest_path = _path(cfg, RUNS_MANIFEST)
    try:
        run_paths = {entry["row"]: _check(cfg, RUN_GRIDS, cfg.runs_dir / entry["file"])
                     for entry in read_manifest(manifest_path)["runs"]}
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedArtifact(f"{manifest_path}: unreadable runs manifest: {err!r}") from err
    unlisted = sorted(set(range(len(design.points))) - set(run_paths))
    if unlisted:
        raise MalformedArtifact(f"{manifest_path} lists no run for design rows {unlisted}")
    locations = shared_locations(cfg.synth)
    digests = map(file_digest, (_path(cfg, DESIGN), manifest_path, *run_paths.values()))
    key = _ensemble_key(digests, locations)
    split = _cached_split(cfg, key, held, len(locations))
    if split is None:
        paths, p_e = [run_paths[i] for i in range(len(design.points))], design.n_expensive
        depths = build_ensemble(map(read_ascii_grid, paths[:p_e]),
                                map(read_ascii_grid, paths[p_e:]), design, locations).depths
        _store_ensemble(cfg, key, depths)
        split = (depths[~held], depths[held]) if held.any() else (depths, depths[:0])
    train_design = Design(design.points[~held], design.fidelity[~held], design.space)
    return RunEnsemble(split[0], train_design, locations), split[1], design.points[held]


def _ensemble_key(file_digests, locations) -> str:
    """The run matrix's cache key: a sha256 over the package version, the
    sha256 digests of ``DESIGN``, ``RUNS_MANIFEST`` and the run grids (in
    manifest order), and the location coordinates."""
    digest = hashlib.sha256(__version__.encode())
    for file_digest in file_digests:
        digest.update(file_digest)
    digest.update(hashlib.sha256(np.ascontiguousarray(locations.coords)).digest())
    return digest.hexdigest()


def _store_ensemble(cfg: ExperimentConfig, key: str, depths: np.ndarray) -> None:
    """Save the run matrix under ``key``, with the sha256 of its data alone."""
    matrix, meta = (_path(cfg, template) for template in ENSEMBLE)
    # matrix first: a manifest left over from an earlier build then fails the checksum
    write_file(matrix, *npy_parts(depths))
    write_manifest(meta, {"key": key, "sha256": hashlib.sha256(depths).hexdigest()})


def _cached_split(cfg: ExperimentConfig, key: str, held: np.ndarray, n_locations: int):
    """The cached run matrix's rows outside and inside the row mask ``held``, read into
    an array each, if it was built under ``key`` and is intact: C-ordered float64,
    ``len(held)`` x ``n_locations``, with the recorded sha256 of the bytes read.  Else None."""
    matrix, meta = (_path(cfg, template) for template in ENSEMBLE)
    try:
        meta = read_manifest(meta)
        if meta["key"] != key:
            return None
        with open(matrix, "rb") as fh:  # the header is checked before anything is allocated
            if npy_header(fh, matrix) != ((len(held), n_locations), False, np.float64):
                return None
            blocks = [np.empty((np.count_nonzero(held == side), n_locations)) for side in (0, 1)]
            digest, filled = hashlib.sha256(), [0, 0]
            for side, run in itertools.groupby(held.tolist()):  # a range of rows on one side
                rows = blocks[side][filled[side]:filled[side] + len(list(run))]
                fh.readinto(rows)  # a short read leaves bytes the digest then fails on
                digest.update(rows)
                filled[side] += len(rows)
        return blocks if digest.hexdigest() == meta["sha256"] else None
    except (OSError, ValueError, KeyError, TypeError, MalformedArtifact):
        return None


def cmd_emulate(cfg: ExperimentConfig, seed: int | None = None, _threads: int = 1) -> None:
    seed = cfg.seeds["emulator"] if seed is None else seed
    design = _load_design(cfg)
    held = np.flatnonzero(edge_mask(design, cfg.edge_bands)) if cfg.apply_edge_bands else []
    train, test_depths, _ = _load_split(cfg, design, held)
    basis, emulators, _ = _fit_holdout(cfg, train, test_depths, seed)

    save_basis(basis, _path(cfg, BASIS))
    for label, emu in emulators.items():
        save_emulator(emu, _path(cfg, EMULATOR, label))
    n_locations = len(train.locations)
    _finish(cfg, "emulate", EMULATE_MANIFEST,
            f"emulate: {basis.n_components} components capture "
            f"{100 * basis.variance_fraction:.2f}% variance at {n_locations} locations",
            seed=seed, n_locations=n_locations, n_components=basis.n_components,
            variance_fraction=basis.variance_fraction,
            edge_bands_applied=cfg.apply_edge_bands,
            n_expensive=design.n_expensive - len(held), n_cheap=design.n_cheap)


def cmd_calibrate(cfg: ExperimentConfig, seed: int | None = None) -> None:
    seed = cfg.seeds["mcmc"] if seed is None else seed
    basis = load_basis(_path(cfg, BASIS))
    emulator = load_emulator(_path(cfg, EMULATOR))
    locations = shared_locations(cfg.synth)
    obs_grid = read_ascii_grid(_path(cfg, OBSERVATION))
    z_r = reduce_observation(Observation(flatten(obs_grid, locations), locations), basis)

    mcmc = McmcConfig(iterations=cfg.iterations, seed=seed, adapt=cfg.adapt,
                      burn_in=int(cfg.burn_in_fraction * cfg.iterations))
    chain = run_mh(z_r, emulator, basis, CalibrationPriors(cfg.noise_guess), mcmc)
    save_chain(chain, _path(cfg, CHAIN))

    ess_min = min(chain.ess.values())
    flag = "" if ess_min >= ESS_TARGET else f" (target {ESS_TARGET} not met)"
    _finish(cfg, "calibrate", CHAIN_MANIFEST,
            f"calibrate[{cfg.approach}]: {chain.n_kept} retained samples, "
            f"min ESS {ess_min:.0f}{flag}",
            seed=seed, approach=cfg.approach, iterations=cfg.iterations,
            burn_in=chain.burn_in, adapt=cfg.adapt, noise_guess=cfg.noise_guess,
            acceptance_rates=dict(zip(chain.names, chain.acceptance_rates)),
            ess=chain.ess, ess_target=ESS_TARGET,
            ess_target_met=bool(ess_min >= ESS_TARGET))


def cmd_project(cfg: ExperimentConfig, seed: int | None = None, _threads: int = 1) -> None:
    seed = cfg.seeds["thin"] if seed is None else seed
    chain_path, meta_path = _path(cfg, CHAIN), _path(cfg, CHAIN_MANIFEST)
    samples, names = load_chain_samples(chain_path)
    try:
        meta = read_manifest(meta_path)
        n_kept = meta["iterations"] - meta["burn_in"]
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedArtifact(f"{meta_path}: unreadable chain manifest: {err!r}") from err
    if len(samples) != n_kept:  # a chain paired with another calibrate's manifest
        raise MalformedArtifact(f"{chain_path}: {len(samples)} samples, but {meta_path.name} "
                                f"records iterations - burn_in = {n_kept}")
    if names[:-1] != list(cfg.space.names):  # every column but the last, sigma2_eps
        raise MalformedArtifact(f"{chain_path}: columns {names} do not match the parameters "
                                f"{list(cfg.space.names)}")
    thetas = thin(samples[:, :-1], min(cfg.n_thinned, len(samples)), seed)
    projection = calibrated_projection(thetas, expensive_model_adapter(cfg.synth))
    write_ascii_grid(projection, _path(cfg, PROJECTION))
    _finish(cfg, "project", PROJECTION_MANIFEST,
            f"project[{cfg.approach}]: mean of {len(thetas)} thinned projections written",
            seed=seed, approach=cfg.approach, n_thinned=len(thetas),
            thetas=[list(t) for t in thetas])


def cmd_diagnose(cfg: ExperimentConfig, seed: int | None = None) -> None:
    seed = cfg.seeds["diagnose"] if seed is None else seed
    projection = read_ascii_grid(_path(cfg, PROJECTION))
    obs_grid = read_ascii_grid(_path(cfg, OBSERVATION))
    archive = _warm_archive(cfg)
    design = _load_design(cfg)
    report = extent_metrics(projection, obs_grid, cfg.flood_threshold)

    # emulator validation: hold out expensive runs, whiten errors per leading PC
    rng = np.random.default_rng(seed)
    p_e = design.n_expensive
    # T reference needs test size > mean-parameter count (2*(k+1) for MR)
    n_min = 2 * (cfg.space.k + 1) + 1
    n_hold = max(n_min, round(cfg.holdout_fraction * p_e))
    if p_e - n_hold < 2:
        raise NonPositiveDf(f"{p_e} expensive runs are too few for USPE validation "
                            f"(need {n_min} test + 2 training points)")
    held_idx = np.sort(rng.choice(p_e, size=n_hold, replace=False))
    split = _load_split(cfg, design, held_idx)  # every input is read before an output is written

    metrics = {"approach": cfg.approach, "flood_threshold": cfg.flood_threshold}
    metrics.update(report.to_dict())
    write_manifest(_path(cfg, METRICS_JSON), metrics)
    write_file(_path(cfg, METRICS_TEXT), f"projection vs observation ({cfg.approach})\n"
               f"{'RMSE (m)':<16}{report.rmse:.4f}\n"
               f"{'Percent bias':<16}{report.percent_bias:.2f}\n"
               f"{'Fit':<16}{report.fit:.3f}\n"
               f"{'Correctness':<16}{report.correctness:.3f}\n")
    uspe_written = _uspe_validation(cfg, split, seed, archive)

    _finish(cfg, "diagnose", DIAGNOSE_MANIFEST,
            f"diagnose[{cfg.approach}]: rmse {report.rmse:.4f} m, bias "
            f"{report.percent_bias:.2f}%, fit {report.fit:.3f}, "
            f"correctness {report.correctness:.3f}",
            seed=seed, flood_threshold=cfg.flood_threshold,
            held_out_rows=[int(i) for i in held_idx], uspe_files=uspe_written)


def _warm_archive(cfg: ExperimentConfig) -> tuple[np.ndarray, dict]:
    """The basis components and the MR/HR MAP parameters ``emulate`` archived.

    Only the parameters are read: no emulator is built, so no gram is
    factored.  Raises DimensionMismatch when an emulator archive and the
    basis archive disagree on the component count, or the emulator's space
    on the dimension count.
    """
    basis = load_basis(_path(cfg, BASIS))
    params = {}
    for label in ("mr", "hr"):
        path = _path(cfg, EMULATOR, label)
        parsed = read_emulator_archive(path)
        params[label], k = parsed["params_list"], parsed["space"].k
        if len(params[label]) != basis.n_components or k != cfg.space.k:
            raise DimensionMismatch(
                f"{path} has {len(params[label])} components over {k} dimensions, the basis "
                f"archive {basis.n_components} components and the config {cfg.space.k} dimensions")
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


def _fit_holdout(cfg, train, test_depths, seed, archive=None):
    """Basis and MR/HR emulators fitted to ``train``, its depths centered in place.

    Fits are cold, from ``cfg.n_starts`` random starts per component, unless
    ``archive`` (see :func:`_warm_archive`) gives warm starts.  Returns the
    basis, the emulators keyed ``mr``/``hr``, and the scores of ``test_depths``.
    """
    basis, scores = fit_basis_in_place(train.depths, cfg.target_fraction)
    mr_seed, hr_seed = child_seeds(seed, 2)
    warm = _warm_starts(basis, archive) if archive is not None else {"mr": None, "hr": None}
    emulators = {
        "mr": fit_multires(train.design, scores, n_starts=cfg.n_starts,
                           seed=mr_seed, warm=warm["mr"]),
        "hr": fit_singleres(train.design, scores[:train.design.n_expensive],
                            n_starts=cfg.n_starts, seed=hr_seed, warm=warm["hr"]),
    }
    return basis, emulators, project(basis, test_depths)


def _leading_components(basis, fraction: float = 0.75) -> int:
    cum = np.cumsum(basis.eigenvalues) / basis.total_variance
    return int(min(np.searchsorted(cum, fraction) + 1, basis.n_components))


def _uspe_validation(cfg, split, seed, archive) -> list:
    train, test_depths, test_thetas = split
    basis, emulators, test_scores = _fit_holdout(cfg, train, test_depths, seed, archive)
    n_lead = _leading_components(basis)
    written = []
    for label, emu in emulators.items():
        joint, path = predict_joint(emu, test_thetas), _path(cfg, USPE, label)
        qq = (uspe(test_scores[:, j], *joint[j], emu.n_trend_params).qq for j in range(n_lead))
        write_file(path, "component,empirical,theoretical\n", *(
            f"{j},{emp:.17g},{theo:.17g}\n" for j, rows in enumerate(qq) for emp, theo in rows))
        written.append(path.name)
    return written


def cmd_crossval(cfg: ExperimentConfig, seed: int | None = None, _threads: int = 1) -> None:
    seed = cfg.seeds["crossval"] if seed is None else seed
    archive = _warm_archive(cfg)
    design = _load_design(cfg)
    label = f"{design.n_expensive}e{design.n_cheap}c"

    rng = np.random.default_rng(seed)
    p_e = design.n_expensive
    folds = np.array_split(rng.permutation(p_e), cfg.folds)
    fold_seeds = child_seeds(seed, len(folds) + 1)

    cv_d = []
    for fold, fold_seed in zip(folds, fold_seeds[:-1]):
        if len(fold) == 0:
            continue
        cv_d.extend(_holdout_d_values(cfg, design, np.sort(fold), fold_seed, archive))

    held_edge = np.flatnonzero(edge_mask(design, cfg.edge_bands)[:p_e])
    edge_d = (_holdout_d_values(cfg, design, held_edge, fold_seeds[-1], archive)
              if held_edge.size else None)

    q = summarize_d(cv_d)
    result = {"label": label, "cross_validation": {"quartiles": list(q), "n_points": len(cv_d)}}
    text = ["Cross validation: difference in RMSE between MR and HR (m)\n",
            format_d_table({label: q})]
    if edge_d is not None:
        edge_q = summarize_d(edge_d)
        result["edge_case"] = {"quartiles": list(edge_q), "n_points": len(edge_d)}
        text += ["\nEdge cases: difference in RMSE between MR and HR (m)\n",
                 format_d_table({label: edge_q})]
    write_file(_path(cfg, CROSSVAL_TEXT), *text)
    _finish(cfg, "crossval", CROSSVAL_JSON,
            f"crossval[{label}]: D(MR-HR) Q1 {q[0]:.3f} median {q[1]:.3f} "
            f"mean {q[2]:.3f} Q3 {q[3]:.3f}",
            seed=seed, **result)


def _holdout_d_values(cfg, design, held_idx, seed, archive) -> list:
    """Per-held-out-point RMSE difference between the MR and HR emulators, fitted
    without the expensive rows ``held_idx``, which :func:`_load_split` reads apart."""
    train, test_depths, test_thetas = _load_split(cfg, design, held_idx)
    basis, emulators, _ = _fit_holdout(cfg, train, test_depths, seed, archive)
    pred_mr, pred_hr = (reconstruct(basis, predict_many(emu, test_thetas)[0])
                        for emu in emulators.values())
    return [d_mr_hr(rmse(mr, depths), rmse(hr, depths))
            for mr, hr, depths in zip(pred_mr, pred_hr, test_depths)]


# --- stage table and entry point ---------------------------------------------

# The artifacts, as path templates: {runs} and {out} are the config's runs and output
# directories, {approach} its calibration approach or the label given to _path, and a
# trailing / marks a directory.  The run grids are those runs.manifest.json lists, hence a
# pattern.  ENSEMBLE, the run-matrix cache, is in no stage's reads: a stage that loads the
# run matrix reads the pair when its key matches and rewrites it when not.
DESIGN, DESIGN_MANIFEST = "{out}/design.csv", "{out}/design.manifest.json"
RUN_GRIDS, OBSERVATION = "{runs}/run_*.asc", "{runs}/observation.asc"
RUNS_MANIFEST = "{runs}/runs.manifest.json"
ENSEMBLE = ("{out}/ensemble.npy", "{out}/ensemble.manifest.json")
BASIS, EMULATOR = "{out}/basis/", "{out}/emulator_{approach}/"
EMULATE_MANIFEST = "{out}/emulate.manifest.json"
CHAIN, CHAIN_MANIFEST = "{out}/chain_{approach}.csv", "{out}/chain_{approach}.manifest.json"
PROJECTION = "{out}/projection_{approach}.asc"
PROJECTION_MANIFEST = "{out}/projection_{approach}.manifest.json"
METRICS_JSON, METRICS_TEXT = "{out}/metrics.json", "{out}/metrics.txt"
USPE, DIAGNOSE_MANIFEST = "{out}/uspe_{approach}.csv", "{out}/diagnose.manifest.json"
CROSSVAL_TEXT, CROSSVAL_JSON = "{out}/crossval.txt", "{out}/crossval.json"
# emulate and the hold-out fits of diagnose and crossval fit both approaches
EMULATORS = tuple(EMULATOR.replace("{approach}", a) for a in ("mr", "hr"))
USPES = tuple(USPE.replace("{approach}", a) for a in ("mr", "hr"))
RUN_MATRIX = (DESIGN, RUNS_MANIFEST, RUN_GRIDS)  # what _load_split reads
# each archive directory -> its table, which names the files in it (manifest.py)
ARCHIVES = {BASIS: BASIS_ARCHIVE, **dict.fromkeys((EMULATOR, *EMULATORS), EMULATOR_ARCHIVE)}

# stage name -> (function, help text, reads, writes), reads and writes being the templates
# above.  Every stage takes --config, --seed and --out and is called as function(cfg, seed);
# the _threads of four is unused, for perfbench's _call_stage.  main checks a stage's
# reads before calling it, each file in an archive too, but the run grids, which
# _load_split checks.
# ``run`` is not a stage: it calls these in this order in one process.
STAGES = {
    "design": (cmd_design, "generate the nested maximin LHS design",
               (), (DESIGN, DESIGN_MANIFEST)),
    "run-synth": (cmd_run_synth, "run the synthetic two-fidelity model over the design",
                  (DESIGN,), (RUN_GRIDS, OBSERVATION, RUNS_MANIFEST, *ENSEMBLE)),
    "emulate": (cmd_emulate, "reduce dimensions and fit the MR and HR emulators",
                RUN_MATRIX, (BASIS, *EMULATORS, EMULATE_MANIFEST)),
    "calibrate": (cmd_calibrate, "sample the posterior over (theta, sigma2_eps)",
                  (BASIS, EMULATOR, OBSERVATION), (CHAIN, CHAIN_MANIFEST)),
    "project": (cmd_project, "average model runs at thinned posterior samples",
                (CHAIN, CHAIN_MANIFEST), (PROJECTION, PROJECTION_MANIFEST)),
    "diagnose": (cmd_diagnose, "projection metrics and emulator validation",
                 (PROJECTION, OBSERVATION, BASIS, *EMULATORS, *RUN_MATRIX),
                 (METRICS_JSON, METRICS_TEXT, *USPES, DIAGNOSE_MANIFEST)),
    "crossval": (cmd_crossval, "cross-validation and edge-case D(MR-HR) tables",
                 (BASIS, *EMULATORS, *RUN_MATRIX), (CROSSVAL_TEXT, CROSSVAL_JSON)),
}
RUN_HELP = "run several stages in one process, in the order above, stopping at the first failure"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodcal", description="Multiresolution GP emulation-calibration pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, *_) in [*STAGES.items(), ("run", (None, RUN_HELP))]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file (INI)")
        if name == "run":
            cmd.add_argument("--stages", default=",".join(STAGES),
                             help="comma-separated stages to run (default: all)")
        else:
            cmd.add_argument("--seed", type=int, default=None,
                             help="override this stage's seed from [seeds]")
        cmd.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    names = args.stages.split(",") if args.command == "run" else [args.command]
    seed = getattr(args, "seed", None)  # run has none: each stage keeps its [seeds] value
    try:
        unknown = [name for name in names if name not in STAGES]
        if unknown:
            raise ConfigError(f"--stages: unknown stage {unknown[0]!r}; "
                              f"the stages are {', '.join(STAGES)}")
        if seed is not None and seed < 0:
            raise ConfigError(f"--seed {seed}: must be at least 0")
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        _make_dir(cfg.out_dir)
        for name, (function, _, reads, _) in STAGES.items():
            if name in names:
                for template in reads:
                    if "*" not in template:
                        _check(cfg, template)
                        for name in ARCHIVES.get(template, ()):
                            _check(cfg, template + name)
                function(cfg, seed)
    except ConfigError as err:
        print(f"floodcal: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (MissingArtifact, FileNotFoundError) as err:
        print(f"floodcal: missing artifact: {err}", file=sys.stderr)
        return EXIT_MISSING
    except (MalformedArtifact, IsADirectoryError, NotADirectoryError) as err:
        # an OSError of the wrong kind is an artifact that is a directory, or one under a file
        print(f"floodcal: malformed artifact: {err}", file=sys.stderr)
        return EXIT_MISSING
    except FloodcalError as err:
        print(f"floodcal: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
