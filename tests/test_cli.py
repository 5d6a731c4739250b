import builtins
import fnmatch
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import floodcal
import floodcal.cli as cli
from floodcal.cli import main
from floodcal.design import Design, read_design_csv, write_design_csv
from floodcal.emulator import EMULATOR_ARCHIVE, EmulatorParams
from floodcal.errors import DimensionMismatch, MalformedArtifact
from floodcal.grid import Grid, read_ascii_grid, write_ascii_grid
from floodcal.reduce import (
    BASIS_ARCHIVE,
    ReducedBasis,
    build_ensemble,
    fit_basis,
    fit_basis_in_place,
    load_basis,
    project,
    save_basis,
)
from floodcal.synthmodel import SynthConfig, shared_locations
from golden.digests import APPROACHES, GOLDEN, tree_digests, write_config

CONFIG_TEMPLATE = """\
[space]
names = n_ch, rwe
lower = 0.02, 0.95
upper = 0.1, 1.05

[design]
n_expensive = 10
extra_cheap = 30
n_candidates = 100
edge_low_fractions = 0.10, 0.0
edge_high_fractions = 0.0, 0.05

[synth]
theta_star = 0.0305, 1.0

[emulator]
n_starts = 3

[mcmc]
iterations = 1500
burn_in_fraction = 0.2

[project]
n_thinned = 8

[crossval]
folds = 5

[paths]
runs_dir = runs
out_dir = out
"""


@pytest.fixture(scope="module")
def pipeline(golden_runs, tmp_path_factory):
    """A module-scoped copy of the session's mr run, every stage done; tests
    that write into it leave the run ``test_golden`` hashed untouched."""
    root = tmp_path_factory.mktemp("pipeline")
    shutil.copytree(golden_runs[0]["mr"], root, dirs_exist_ok=True)
    return root


class TestPipeline:
    def test_all_artifacts_present(self, pipeline):
        out = pipeline / "out"
        for name in (
            "design.csv", "design.manifest.json", "emulate.manifest.json",
            "chain_mr.csv", "projection_mr.asc", "metrics.json", "metrics.txt",
            "uspe_mr.csv", "uspe_hr.csv", "crossval.json", "crossval.txt",
            "ensemble.npy", "ensemble.manifest.json",
        ):
            assert (out / name).exists(), name
        assert not list(out.rglob("*.tmp"))
        assert (pipeline / "runs" / "observation.asc").exists()
        assert (out / "basis" / "basis.json").exists()
        assert (out / "emulator_mr" / "params.csv").exists()
        assert (out / "emulator_hr" / "params.csv").exists()

    def test_design_counts(self, pipeline):
        manifest = json.loads((pipeline / "out" / "design.manifest.json").read_text())
        assert manifest["n_expensive"] == 10
        assert manifest["n_cheap"] == 40

    def test_crossval_table_format(self, pipeline):
        text = (pipeline / "out" / "crossval.txt").read_text()
        lines = text.splitlines()
        assert "Q1" in lines[1] and "Median" in lines[1] and "Mean" in lines[1] and "Q3" in lines[1]
        assert lines[2].startswith("10e40c")
        data = json.loads((pipeline / "out" / "crossval.json").read_text())
        assert len(data["cross_validation"]["quartiles"]) == 4
        assert data["cross_validation"]["n_points"] == 10

    def test_metrics_fields(self, pipeline):
        metrics = json.loads((pipeline / "out" / "metrics.json").read_text())
        for key in ("rmse_m", "percent_bias", "fit", "correctness"):
            assert key in metrics

    def test_manifest_keys(self, pipeline):
        common = {"stage", "config_digest", "seed"}
        expected = {
            "out/design.manifest.json": common | {"n_expensive", "n_cheap", "n_candidates"},
            "runs/runs.manifest.json": {"stage", "config_digest", "observation_seed",
                                        "theta_star", "noise_sd", "runs"},
            "out/emulate.manifest.json": common | {
                "n_locations", "n_components", "variance_fraction", "edge_bands_applied",
                "n_expensive", "n_cheap"},
            "out/chain_mr.manifest.json": common | {
                "approach", "iterations", "burn_in", "adapt", "noise_guess",
                "acceptance_rates", "ess", "ess_target", "ess_target_met"},
            "out/projection_mr.manifest.json": common | {"approach", "n_thinned", "thetas"},
            "out/diagnose.manifest.json": common | {"flood_threshold", "held_out_rows",
                                                     "uspe_files"},
            "out/crossval.json": common | {"label", "cross_validation", "edge_case"},
            "out/ensemble.manifest.json": {"key", "sha256"},
        }
        for name, keys in expected.items():
            assert set(json.loads((pipeline / name).read_text())) == keys, name

    def test_uspe_csv_shape(self, pipeline):
        lines = (pipeline / "out" / "uspe_mr.csv").read_text().splitlines()
        assert lines[0] == "component,empirical,theoretical"
        assert len(lines) > 1

    def test_chain_respects_bounds(self, pipeline):
        from floodcal.calibrate import load_chain_samples

        samples, names = load_chain_samples(pipeline / "out" / "chain_mr.csv")
        assert names == ["n_ch", "rwe", "sigma2_eps"]
        assert samples[:, 0].min() >= 0.02 and samples[:, 0].max() <= 0.1
        assert samples[:, 1].min() >= 0.95 and samples[:, 1].max() <= 1.05
        assert samples[:, 2].min() > 0

    def test_diagnose_perfect_projection(self, pipeline, tmp_path):
        # pred = obs must give rmse 0, bias 0, fit 1, correctness 1
        out2 = tmp_path / "out2"
        shutil.copytree(pipeline / "out", out2)
        shutil.copy(pipeline / "runs" / "observation.asc",
                    out2 / "projection_mr.asc")
        config = pipeline / "experiment.ini"
        assert main(["diagnose", "--config", str(config), "--out", str(out2)]) == 0
        metrics = json.loads((out2 / "metrics.json").read_text())
        assert metrics["rmse_m"] == 0.0
        assert metrics["percent_bias"] == 0.0
        assert metrics["fit"] == 1.0
        assert metrics["correctness"] == 1.0


class TestLoadConfig:
    @pytest.mark.parametrize("synth, expected", [
        ("", {}),
        ("noise_sd = 0.05\ncoarse_cell = 8.0\n", {"noise_sd": 0.05, "coarse_cell": 8.0}),
    ], ids=["defaults", "overrides"])
    def test_synth_keys_left_out_take_synthconfig_defaults(self, tmp_path, synth, expected):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace("[synth]\n", f"[synth]\n{synth}"))
        cfg = cli.load_config(config)
        assert cfg.synth == SynthConfig(space=cfg.space, **expected)

    @pytest.mark.parametrize("value", ["o%ut", "%(runs_dir)s"])
    def test_values_are_literal(self, tmp_path, value):
        # "o%ut" once exited 2 and "%(runs_dir)s" expanded to "runs"
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace("out_dir = out", f"out_dir = {value}"))
        assert cli.load_config(config).out_dir == tmp_path / value

    def test_readme_config_reference_matches_the_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| ([^|]+) \|", readme, flags=re.M)
        assert [(section, key) for section, key, _ in rows] == list(cli.CONFIG_KEYS)
        words = {"required": ..., "k zeros": None}
        for section, key, default in rows:
            parse, expected, _ = cli.CONFIG_KEYS[section, key]
            assert (words[default] if default in words else parse(default)) == expected, key


class TestRerunDeterminism:
    def test_design_stage_byte_identical(self, pipeline):
        config = pipeline / "experiment.ini"
        before = (pipeline / "out" / "design.csv").read_bytes()
        assert main(["design", "--config", str(config)]) == 0
        after = (pipeline / "out" / "design.csv").read_bytes()
        assert before == after


def _edit_design_cell(text: str, row: int, edit) -> str:
    """``design.csv`` text with the first setting of data row ``row`` replaced by ``edit(value)``."""
    lines = text.splitlines(keepends=True)
    value, rest = lines[1 + row].split(",", 1)
    lines[1 + row] = f"{edit(value)},{rest}"
    return "".join(lines)


def _move_last_row_first(text: str) -> str:
    """``design.csv`` text with its last row, a cheap-only one, above the expensive block."""
    lines = text.splitlines(keepends=True)
    return "".join([lines[0], lines[-1], *lines[1:-1]])


def _swap_eigenvalues(components, eigenvalues):
    eigenvalues[[0, 1]] = eigenvalues[[1, 0]]


def _scale_largest_entry(components, eigenvalues):
    # that entry squared is at least lambda_1 / p, so (K^T K)_11 moves by
    # 2e-6 * lambda_1 / p, above the 1e-10 * lambda_1 tolerance for p < 2e4
    i = np.argmax(np.abs(components[:, 0]))
    components[i, 0] *= 1 + 1e-6


class TestExitCodes:
    @pytest.mark.parametrize("old, new, message", [
        ("iterations = 1500", "iteration = 500",
         "unknown mcmc.iteration; did you mean mcmc.iterations?"),
        ("[emulator]", "[emulater]", "unknown [emulater]; did you mean [emulator]?"),
        ("[paths]", "[seeds]\nemulate = 99\n\n[paths]",
         "unknown seeds.emulate; did you mean seeds.emulator?"),
        ("[space]", "[DEFAULT]\nn_starts = 1\n\n[space]", "unknown [DEFAULT]"),
    ], ids=["mcmc-iteration", "emulater-section", "seeds-emulate", "default-section"])
    def test_unknown_section_or_key(self, tmp_path, capsys, old, new, message):
        # each once loaded with exit 0: a misspelled name was ignored, and [DEFAULT]'s
        # keys were copied into every section
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace(old, new))
        assert main(["design", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "design.csv").exists()

    @pytest.mark.parametrize("old, new, key", [
        ("[paths]", "[seeds]\ndesign = -1\n\n[paths]", "seeds.design"),
        ("[synth]\n", "[synth]\nnoise_sd = nan\n", "synth.noise_sd"),
        ("[synth]\n", "[synth]\nrho_true = nan\n", "synth.rho_true"),
        ("[synth]\n", "[synth]\ncheap_bias = inf\n", "synth.cheap_bias"),
        ("[synth]\n", "[synth]\nfine_rows = 0\n", "synth.fine_rows"),
        ("[synth]\n", "[synth]\nfine_rows = 1\n", "synth.fine_rows"),
        ("[paths]", "[diagnose]\nflood_threshold = nan\n\n[paths]",
         "diagnose.flood_threshold"),
        ("names = n_ch, rwe", "names = n_ch, n_ch", "space.names"),
        ("names = n_ch, rwe", "names = , rwe", "space.names"),
    ], ids=["seed-negative", "noise-sd-nan", "rho-true-nan", "cheap-bias-inf", "fine-rows-zero",
            "no-shared-location", "flood-threshold-nan", "names-duplicate", "names-empty"])
    def test_invalid_config_value(self, tmp_path, capsys, old, new, key):
        # these exited 1 with a traceback, 4 at a later stage, or 0 with a noise-free
        # observation or a chain with two columns of one name
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace(old, new))
        assert main(["design", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "design.csv").exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE)
        assert main(["design", "--config", str(config), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "design.csv").exists()

    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[design]\nn_expensive = 5\n")  # missing [space]
        assert main(["design", "--config", str(bad)]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["design", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("case", ["config-not-utf8", "config-is-a-directory",
                                      "out-under-a-file", "runs-dir-under-a-file"])
    def test_unreadable_config_or_output_directory(self, tmp_path, capsys, case):
        # these exited 1 with a UnicodeDecodeError or NotADirectoryError traceback, or 2
        # with "space.names is required"
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE)
        (tmp_path / "file").write_text("")
        (tmp_path / "bad.ini").write_bytes(b"\xff\xfe[space]\n")
        (tmp_path / "runs.ini").write_text(CONFIG_TEMPLATE.replace("= runs", "= file/runs"))
        argv, path = {
            "config-not-utf8": (["design", "--config", str(tmp_path / "bad.ini")],
                                tmp_path / "bad.ini"),
            "config-is-a-directory": (["design", "--config", str(tmp_path)], tmp_path),
            "out-under-a-file": (["design", "--config", str(config), "--out",
                                  str(tmp_path / "file" / "x")], tmp_path / "file" / "x"),
            "runs-dir-under-a-file": (["run", "--config", str(tmp_path / "runs.ini")],
                                      tmp_path / "file" / "runs"),
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err and "required" not in err
        assert not (tmp_path / "out" / "ensemble.npy").exists()

    def test_missing_artifact(self, tmp_path):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE)
        # emulate without design/runs
        assert main(["emulate", "--config", str(config)]) == 3

    def test_invalid_theta_star(self, tmp_path):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace("0.0305, 1.0", "0.5, 1.0"))
        assert main(["design", "--config", str(config)]) == 2

    @pytest.mark.parametrize("old, new, key", [
        ("burn_in_fraction = 0.2", "burn_in_fraction = 1.0", "mcmc.burn_in_fraction"),
        ("burn_in_fraction = 0.2", "burn_in_fraction = -0.1", "mcmc.burn_in_fraction"),
        ("iterations = 1500", "iterations = 0", "mcmc.iterations"),
        ("iterations = 1500", "iterations = -5", "mcmc.iterations"),
        ("[mcmc]\n", "[mcmc]\nnoise_guess = 0\n", "mcmc.noise_guess"),
        ("folds = 5", "folds = 0", "crossval.folds"),
    ], ids=["burn-in-one", "burn-in-negative", "iterations-zero", "iterations-negative",
            "noise-guess-zero", "folds-zero"])
    def test_invalid_sampler_setting(self, tmp_path, capsys, old, new, key):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace(old, new))
        assert main(["design", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("[mcmc]\n", "[pca]\ntarget_fraction = 1.5\n\n[mcmc]\n", "pca.target_fraction"),
        ("[mcmc]\n", "[pca]\ntarget_fraction = 0\n\n[mcmc]\n", "pca.target_fraction"),
        ("n_starts = 3", "n_starts = 0", "emulator.n_starts"),
        ("[mcmc]\n", "[diagnose]\nholdout_fraction = -1\n\n[mcmc]\n",
         "diagnose.holdout_fraction"),
        ("[mcmc]\n", "[diagnose]\nholdout_fraction = 1.5\n\n[mcmc]\n",
         "diagnose.holdout_fraction"),
        ("n_thinned = 8", "n_thinned = 0", "project.n_thinned"),
    ], ids=["target-fraction-above-one", "target-fraction-zero", "n-starts-zero",
            "holdout-negative", "holdout-above-one", "n-thinned-zero"])
    def test_invalid_fitting_setting(self, tmp_path, capsys, old, new, key):
        # each once got past load_config, to a traceback, a numerical failure or no error
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace(old, new))
        assert main(["design", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("n_expensive = 10", "n_expensive = 1", "design.n_expensive"),
        ("extra_cheap = 30", "extra_cheap = -1", "design.extra_cheap"),
        ("n_candidates = 100", "n_candidates = 0", "design.n_candidates"),
    ], ids=["n-expensive-one", "extra-cheap-negative", "n-candidates-zero"])
    def test_invalid_design_setting(self, tmp_path, capsys, old, new, key):
        # these exited 1 with a traceback from design, or 0 with a design that
        # silently had no extra cheap runs
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace(old, new))
        assert main(["design", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "design.csv").exists()

    @pytest.mark.parametrize("artifact", ["emulator_hr", "basis"])
    def test_hold_out_fits_need_the_emulate_archive(self, pipeline, tmp_path, capsys, artifact):
        # diagnose and crossval start every hold-out fit from emulate's MAP
        root = tmp_path / "no_archive"
        shutil.copytree(pipeline, root)
        path = root / "out" / artifact
        shutil.rmtree(path)
        written = [root / "out" / name for name in ("metrics.json", "crossval.json")]
        for output in written:
            output.unlink()
        config = str(root / "experiment.ini")
        for stage in ("diagnose", "crossval"):
            assert main([stage, "--config", config]) == 3
            assert str(path) in capsys.readouterr().err
        assert not any(output.exists() for output in written)  # refused before writing
        assert main(["emulate", "--config", config]) == 0
        assert path.is_dir()

    def test_negative_burn_in_writes_no_chain(self, pipeline, tmp_path):
        # a negative burn-in once kept unfilled rows of the sample buffer
        root = tmp_path / "burn_in"
        shutil.copytree(pipeline, root)
        (root / "out" / "chain_mr.csv").unlink()
        config = root / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace("burn_in_fraction = 0.2",
                                                  "burn_in_fraction = -0.1"))
        assert main(["calibrate", "--config", str(config)]) == 2
        assert not (root / "out" / "chain_mr.csv").exists()

    def test_stale_emulator_archive(self, pipeline, tmp_path, capsys):
        # refit the basis with fewer components but keep the old emulator
        root = tmp_path / "stale"
        shutil.copytree(pipeline, root)
        config = root / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE + "\n[pca]\ntarget_fraction = 0.8\n")
        old_emulator = root / "old_emulator_mr"
        shutil.copytree(root / "out" / "emulator_mr", old_emulator)
        assert main(["emulate", "--config", str(config)]) == 0
        shutil.rmtree(root / "out" / "emulator_mr")
        shutil.copytree(old_emulator, root / "out" / "emulator_mr")
        assert main(["calibrate", "--config", str(config)]) == 4
        assert "emulator has 2 components" in capsys.readouterr().err
        for stage in ("diagnose", "crossval"):  # the archive their warm starts come from
            assert main([stage, "--config", str(config)]) == 4
            assert "emulator_mr has 2 components" in capsys.readouterr().err

    def test_huge_shape_in_an_archive_header(self, pipeline, tmp_path, capsys):
        # np.load once raised MemoryError before any check ran: a traceback, not exit 3
        root = tmp_path / "huge"
        shutil.copytree(pipeline, root)
        components = root / "out" / "basis" / "components.npy"
        _claim_huge_shape(components)
        assert main(["calibrate", "--config", str(root / "experiment.ini")]) == 3
        assert (f"malformed artifact: {components}: not a numeric array filling the file"
                in capsys.readouterr().err)

    def test_malformed_basis_archive(self, pipeline, tmp_path, capsys):
        root = tmp_path / "malformed"
        shutil.copytree(pipeline, root)
        eigenvalues = root / "out" / "basis" / "eigenvalues.npy"
        np.save(eigenvalues, -np.load(eigenvalues))
        assert main(["calibrate", "--config", str(root / "experiment.ini")]) == 3
        assert "eigenvalues must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("archive, name", [
        *(("basis", name) for name in BASIS_ARCHIVE),
        *(("emulator", name) for name in EMULATOR_ARCHIVE)])
    def test_file_missing_from_an_archive_names_its_stage(self, pipeline, tmp_path, capsys,
                                                          archive, name):
        # once "missing artifact: [Errno 2] No such file or directory", naming no stage
        root = tmp_path / "missing"
        shutil.copytree(pipeline, root)
        readers = ([("basis", "calibrate")] if archive == "basis" else
                   [("emulator_mr", "calibrate"), ("emulator_hr", "diagnose")])
        for directory, stage in readers:
            path = root / "out" / directory / name
            kept = path.read_bytes()
            path.unlink()
            assert main([stage, "--config", str(root / "experiment.ini")]) == 3
            assert f"{path} not found; the emulate stage writes it" in capsys.readouterr().err
            path.write_bytes(kept)

    @pytest.mark.parametrize("corrupt", [_swap_eigenvalues, _scale_largest_entry],
                             ids=["eigenvalues-swapped", "component-scaled"])
    def test_basis_that_is_not_an_eigenbasis(self, pipeline, tmp_path, capsys, corrupt):
        # no shape or sign is wrong: the eigenvalue order or K^T K = diag(eigenvalues) fails
        basis = tmp_path / "basis"
        shutil.copytree(pipeline / "out" / "basis", basis)
        components, eigenvalues = (np.load(basis / f"{n}.npy") for n in ("components",
                                                                          "eigenvalues"))
        assert len(eigenvalues) > 1
        corrupt(components, eigenvalues)
        np.save(basis / "components.npy", components)
        np.save(basis / "eigenvalues.npy", eigenvalues)
        with pytest.raises(MalformedArtifact, match="eigenvalues"):
            load_basis(basis)
        root = tmp_path / "run"
        shutil.copytree(pipeline, root)
        shutil.rmtree(root / "out" / "basis")
        shutil.copytree(basis, root / "out" / "basis")
        assert main(["calibrate", "--config", str(root / "experiment.ini")]) == 3
        assert str(root / "out" / "basis") in capsys.readouterr().err

    def test_basis_at_every_component_loads(self, pipeline, tmp_path):
        # target_fraction = 1 keeps eigenvalues down to roundoff in lambda_1; the
        # orthogonality tolerance is relative to lambda_1, so they pass
        ensemble = cli._load_ensemble(cli.load_config(pipeline / "experiment.ini"))
        basis = fit_basis(ensemble, target_fraction=1.0)
        assert basis.n_components > 20
        save_basis(basis, tmp_path / "basis")
        back = load_basis(tmp_path / "basis")
        assert back.components.tobytes() == basis.components.tobytes()
        assert back.eigenvalues.tobytes() == basis.eigenvalues.tobytes()

    def test_malformed_run_grid(self, pipeline, tmp_path, capsys):
        root = tmp_path / "malformed"
        shutil.copytree(pipeline, root)
        run = root / "runs" / "run_0000_expensive.asc"
        run.write_text(run.read_text()[: len(run.read_text()) // 2])
        assert main(["emulate", "--config", str(root / "experiment.ini")]) == 3
        assert "run_0000_expensive.asc" in capsys.readouterr().err

    @pytest.mark.parametrize("name, key, value", [
        ("run_0010_cheap.asc", "xllcenter", "nan"),
        ("run_0000_expensive.asc", "yllcenter", "inf"),
    ], ids=["nan-origin-cheap", "inf-origin-expensive"])
    def test_non_finite_run_grid_header(self, pipeline, tmp_path, capsys, name, key, value):
        # once an IndexError traceback (cheap) or a numerical failure (expensive)
        root = tmp_path / "header"
        shutil.copytree(pipeline, root)
        run = root / "runs" / name
        lines = run.read_text().splitlines(keepends=True)
        run.write_text("".join(f"{key} {value}\n" if line.startswith(key + " ") else line
                               for line in lines))
        assert main(["emulate", "--config", str(root / "experiment.ini")]) == 3
        assert name in capsys.readouterr().err

    def test_malformed_emulator_archive(self, pipeline, tmp_path, capsys):
        root = tmp_path / "malformed"
        shutil.copytree(pipeline, root)
        scores = root / "out" / "emulator_mr" / "scores_exp.npy"
        np.save(scores, np.load(scores)[:-1])
        assert main(["calibrate", "--config", str(root / "experiment.ini")]) == 3
        assert "emulator_mr" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("theta_n_ch", "theta_manning", 1),
        lambda text: text.replace("\n", "\nabc,1.0,expensive\n", 1),
        lambda text: text.replace(",expensive\n", ",1.0,expensive\n", 1),
        lambda text: text.replace(",expensive\n", ",deluxe\n", 1),
        lambda text: text.replace("\n", "\n0.5,1.0,expensive\n", 1),
        lambda text: _edit_design_cell(text, 0, lambda v: "nan"),
        # row 10 is the cheap twin of expensive row 0
        lambda text: _edit_design_cell(text, 10, lambda v: repr(float(v) * (1 + 1e-12))),
        _move_last_row_first,
    ], ids=["header", "non-numeric", "column-count", "fidelity", "out-of-space", "nan",
            "cheap-twin", "cheap-row-first"])
    def test_malformed_design(self, pipeline, tmp_path, capsys, edit):
        root = tmp_path / "malformed"
        shutil.copytree(pipeline, root)
        design = root / "out" / "design.csv"
        design.write_text(edit(design.read_text()))
        assert main(["emulate", "--config", str(root / "experiment.ini")]) == 3
        assert "design.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "runs"}),
        lambda text: json.dumps({**json.loads(text), "runs": [
            {k: v for k, v in e.items() if k != "file"} for e in json.loads(text)["runs"]]}),
        lambda text: json.dumps({**json.loads(text), "runs": json.loads(text)["runs"][:-1]}),
    ], ids=["not-json", "no-runs", "no-file", "unlisted-row"])
    def test_malformed_runs_manifest(self, pipeline, tmp_path, capsys, edit):
        root = tmp_path / "malformed"
        shutil.copytree(pipeline, root)
        manifest = root / "runs" / "runs.manifest.json"
        manifest.write_text(edit(manifest.read_text()))
        assert main(["emulate", "--config", str(root / "experiment.ini")]) == 3
        assert "runs.manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda lines: [],
        lambda lines: lines[:1],
        lambda lines: lines[:3] + [lines[3].replace(",", ",abc", 1)] + lines[4:],
        lambda lines: lines[:3] + [lines[3] + ",0"] + lines[4:],
        lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
        lambda lines: [",".join(line.split(",")[:2] + line.split(",")[3:]) for line in lines],
        lambda lines: [lines[0].replace("theta_rwe", "theta_manning")] + lines[1:],
        lambda lines: lines[:1] + [",".join([line.split(",")[0], "nan", *line.split(",")[2:]])
                                   for line in lines[1:]],
        lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",nan"] + lines[4:],
    ], ids=["empty", "header-only", "non-numeric", "extra-column", "missing-column",
            "missing-theta", "renamed-theta", "nan-theta", "nan-accepted-mask"])
    def test_malformed_chain(self, pipeline, tmp_path, capsys, edit):
        root = tmp_path / "malformed"
        shutil.copytree(pipeline, root)
        chain = root / "out" / "chain_mr.csv"
        chain.write_text("".join(line + "\n" for line in edit(chain.read_text().splitlines())))
        assert main(["project", "--config", str(root / "experiment.ini")]) == 3
        assert "chain_mr.csv" in capsys.readouterr().err

    def test_chain_with_a_discrepancy_column_rejected(self, pipeline, tmp_path, capsys):
        # the layout of the discrepancy path older versions wrote: a kappa_d
        # column after sigma2_eps, which must not be thinned as a theta column
        root = tmp_path / "kappa"
        shutil.copytree(pipeline, root)
        (root / "out" / "projection_mr.asc").unlink()
        chain = root / "out" / "chain_mr.csv"
        lines = chain.read_text().splitlines()
        lines = [lines[0].replace(",sigma2_eps,", ",sigma2_eps,kappa_d,")] + [
            ",".join([*line.split(",")[:4], "0.5", *line.split(",")[4:]]) for line in lines[1:]]
        chain.write_text("\n".join(lines) + "\n")
        assert main(["project", "--config", str(root / "experiment.ini")]) == 3
        err = capsys.readouterr().err
        assert "chain_mr.csv" in err
        assert "columns ['n_ch', 'rwe', 'sigma2_eps', 'kappa_d']" in err
        assert not (root / "out" / "projection_mr.asc").exists()

    def test_singleres_archive_rejected(self, pipeline, tmp_path, capsys):
        # the type of the separate single-resolution layout older versions wrote
        root = tmp_path / "singleres"
        shutil.copytree(pipeline, root)
        path = root / "out" / "emulator_hr" / "emulator.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "type": "singleres"}))
        config = root / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace("[mcmc]\n", "[mcmc]\napproach = hr\n"))
        assert main(["calibrate", "--config", str(config)]) == 3
        assert "emulator type 'singleres', expected 'multires'" in capsys.readouterr().err

    def test_emulator_archive_missing_a_hyperprior(self, pipeline, tmp_path, capsys):
        root = tmp_path / "malformed"
        shutil.copytree(pipeline, root)
        path = root / "out" / "emulator_mr" / "emulator.json"
        manifest = json.loads(path.read_text())
        del manifest["hyperpriors"]["rho_var"]
        path.write_text(json.dumps(manifest))
        assert main(["calibrate", "--config", str(root / "experiment.ini")]) == 3
        assert "rho_var" in capsys.readouterr().err

    def test_failed_projection_run(self, pipeline, tmp_path, capsys):
        root = tmp_path / "failing"
        shutil.copytree(pipeline, root)
        chain = root / "out" / "chain_mr.csv"
        lines = chain.read_text().splitlines()
        # n_ch = 0.5 lies outside the space, where the synthetic model refuses to run
        lines[1:] = [",".join([row.split(",")[0], "0.5", *row.split(",")[2:]]) for row in lines[1:]]
        chain.write_text("\n".join(lines) + "\n")
        assert main(["project", "--config", str(root / "experiment.ini")]) == 4
        assert "model run failed" in capsys.readouterr().err

    def test_invalid_edge_band_fraction(self, tmp_path, capsys):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace("edge_low_fractions = 0.10, 0.0",
                                                  "edge_low_fractions = 0.6, 0.0"))
        for stage in ("design", "crossval"):
            assert main([stage, "--config", str(config)]) == 2
            assert "edge band fractions must lie in [0, 0.5)" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["emulate", "crossval"])
    def test_edge_holdout_emptying_expensive_set(self, pipeline, tmp_path, capsys, stage):
        root = tmp_path / "edges"
        shutil.copytree(pipeline, root)
        config = root / "experiment.ini"
        config.write_text(
            CONFIG_TEMPLATE
            .replace("edge_low_fractions = 0.10, 0.0", "edge_low_fractions = 0.49, 0.49")
            .replace("edge_high_fractions = 0.0, 0.05", "edge_high_fractions = 0.49, 0.49")
            .replace("n_starts = 3", "n_starts = 3\napply_edge_bands = true")
        )
        assert main([stage, "--config", str(config)]) == 4
        assert "the emulators need at least 2" in capsys.readouterr().err

    def test_threads_only_where_used(self, pipeline, capsys):
        # no stage takes --threads: every model run and fit happens in the caller
        config = str(pipeline / "experiment.ini")
        cases = [(stage, "--threads") for stage in cli.STAGES] + [("diagnose", "--flood-threshold")]
        for stage, flag in cases:
            with pytest.raises(SystemExit) as exit_info:
                main([stage, "--config", config, flag, "1"])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_torn_chain(self, pipeline, tmp_path, capsys):
        # a calibrate that dies mid-write leaves the chain's first rows only
        root = tmp_path / "torn"
        shutil.copytree(pipeline, root)
        chain = root / "out" / "chain_mr.csv"
        lines = chain.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 1200
        chain.write_text("".join(lines[:1 + 600]))
        assert main(["project", "--config", str(root / "experiment.ini")]) == 3
        err = capsys.readouterr().err
        assert "malformed artifact" in err and "chain_mr.csv: 600 samples" in err
        assert "iterations - burn_in = 1200" in err

    def test_chain_without_its_manifest(self, pipeline, tmp_path, capsys):
        root = tmp_path / "no-manifest"
        shutil.copytree(pipeline, root)
        manifest = root / "out" / "chain_mr.manifest.json"
        manifest.unlink()
        assert main(["project", "--config", str(root / "experiment.ini")]) == 3
        err = capsys.readouterr().err
        assert f"missing artifact: {manifest} not found; the calibrate stage writes it" in err

    def test_diagnose_checks_its_inputs_before_writing(self, pipeline, tmp_path, capsys):
        # diagnose once rewrote metrics.json and only then found design.csv missing
        root = tmp_path / "no-design"
        shutil.copytree(pipeline, root)
        design = root / "out" / "design.csv"
        design.unlink()
        config = root / "experiment.ini"
        config.write_text(config.read_text() + "\n[diagnose]\nflood_threshold = 0.2\n")
        metrics = root / "out" / "metrics.json"
        before = metrics.read_bytes()
        assert main(["diagnose", "--config", str(config)]) == 3
        assert metrics.read_bytes() == before
        assert f"{design} not found; the design stage writes it" in capsys.readouterr().err
        with pytest.raises(FileNotFoundError):  # called directly, as perfbench calls it
            cli.cmd_diagnose(cli.load_config(config))
        assert metrics.read_bytes() == before

    @pytest.mark.parametrize("stage, artifact, kind", [
        ("calibrate", "out/basis", "file"),
        ("calibrate", "out/basis/basis.json", "directory"),
        ("calibrate", "out/emulator_mr/params.csv", "directory"),
        ("calibrate", "runs/observation.asc", "directory"),
        ("project", "out/chain_mr.manifest.json", "directory"),
        ("emulate", "out/design.csv", "directory"),
        ("emulate", "runs/run_0000_expensive.asc", "directory"),
    ], ids=["basis", "basis-manifest", "emulator-params", "observation", "chain-manifest",
            "design", "run-grid"])
    def test_artifact_of_the_wrong_kind(self, pipeline, tmp_path, capsys, stage, artifact, kind):
        # each once escaped as an IsADirectoryError or NotADirectoryError traceback
        root = tmp_path / "kind"
        shutil.copytree(pipeline, root)
        path = root / artifact
        if path.is_dir():
            shutil.rmtree(path)
            path.write_text("")
        else:
            path.unlink()
            path.mkdir()
        assert path.is_dir() == (kind == "directory")
        assert main([stage, "--config", str(root / "experiment.ini")]) == 3
        err = capsys.readouterr().err
        assert "malformed artifact" in err and str(path) in err


def _fresh_depths(cfg) -> np.ndarray:
    """The run matrix built from freshly read grids, without the CLI's cache."""
    design = read_design_csv(cfg.out_dir / "design.csv", cfg.space)
    manifest = json.loads((cfg.runs_dir / "runs.manifest.json").read_text())
    grids = {e["row"]: read_ascii_grid(cfg.runs_dir / e["file"]) for e in manifest["runs"]}
    by_fidelity = {tag: [grids[i] for i, f in enumerate(design.fidelity) if f == tag]
                   for tag in ("expensive", "cheap")}
    return build_ensemble(by_fidelity["expensive"], by_fidelity["cheap"], design,
                          shared_locations(cfg.synth)).depths


def _counting(monkeypatch, name: str) -> list:
    """Replace ``floodcal.cli.<name>`` by a wrapper that records its first argument."""
    calls, original = [], getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def _change_run_grid(root: Path) -> None:
    path = root / "runs" / "run_0000_expensive.asc"
    grid = read_ascii_grid(path)
    values = grid.values.copy()
    values[16, 16] += 0.5  # an interior cell, so a shared location
    write_ascii_grid(Grid(grid.origin_x, grid.origin_y, grid.cell_size, values), path)


def _change_design(root: Path) -> None:
    path = root / "out" / "design.csv"
    design = read_design_csv(path, cli.load_config(root / "experiment.ini").space)
    points = design.points.copy()
    points[-1, 0] = 0.06  # the last row is a cheap-only setting, so nesting holds
    write_design_csv(Design(points, design.fidelity, design.space), path)


def _truncate_matrix(root: Path) -> None:
    path = root / "out" / "ensemble.npy"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _edit_manifest(root: Path) -> None:
    path = root / "out" / "ensemble.manifest.json"
    meta = json.loads(path.read_text())
    meta["sha256"] = "0" * 64
    path.write_text(json.dumps(meta))


def _claim_huge_shape(path: Path) -> None:
    """Give the .npy at ``path`` a header claiming 10^18 float64s, before its own data;
    loading it would ask for 8 EB, which fails at once."""
    with open(path, "rb") as fh:
        np.lib.format.read_magic(fh)
        np.lib.format.read_array_header_1_0(fh)
        data = fh.read()
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (10**9, 10**9)})
        fh.write(data)


def _resave_matrix(convert):
    def change(root: Path) -> None:
        path = root / "out" / "ensemble.npy"
        np.save(path, convert(np.load(path)))
    return change


def _flip_a_data_byte(root: Path) -> None:
    path = root / "out" / "ensemble.npy"
    raw = bytearray(path.read_bytes())
    raw[-1000] ^= 0x01  # a byte of the last row's data
    path.write_bytes(bytes(raw))


class TestEnsembleCache:
    @pytest.mark.parametrize("held_idx", [[], [0], [3], [1, 2, 5], [0, 4, 9], list(range(8))])
    def test_streamed_split_equals_fancy_indexing(self, pipeline, monkeypatch, held_idx):
        cfg = cli.load_config(pipeline / "experiment.ini")
        design, depths = cli._load_design(cfg), np.load(pipeline / "out" / "ensemble.npy")
        builds = _counting(monkeypatch, "build_ensemble")
        train, test_depths, test_thetas = cli._load_split(cfg, design, held_idx)
        assert builds == []
        held = np.isin(np.arange(len(depths)), held_idx)
        assert train.depths.tobytes() == depths[~held].tobytes()
        assert test_depths.tobytes() == depths[held].tobytes()
        assert np.array_equal(test_thetas, design.points[held])
        assert np.array_equal(train.design.points, design.points[~held])
        assert train.design.n_expensive == design.n_expensive - len(held_idx)

    @pytest.mark.parametrize("held_idx", [[], [1, 2, 5]])
    def test_in_place_basis_and_scores_equal_fit_basis_and_project(self, pipeline, held_idx):
        cfg = cli.load_config(pipeline / "experiment.ini")
        train, _, _ = cli._load_split(cfg, cli._load_design(cfg), held_idx)
        expected = fit_basis(train, cfg.target_fraction)
        expected_scores = project(expected, train.depths)
        basis, scores = fit_basis_in_place(train.depths, cfg.target_fraction)
        for name in ("column_mean", "components", "eigenvalues"):
            assert getattr(basis, name).tobytes() == getattr(expected, name).tobytes(), name
        for name in ("variance_fraction", "total_variance", "target_fraction"):
            assert getattr(basis, name) == getattr(expected, name), name
        assert scores.tobytes() == expected_scores.tobytes()

    def test_a_rebuild_holds_one_run_grid_at_a_time(self, pipeline, tmp_path, monkeypatch):
        root = tmp_path / "rebuild"
        shutil.copytree(pipeline, root)
        (root / "out" / "ensemble.npy").unlink()
        alive, held_before_read, original = weakref.WeakSet(), [], cli.read_ascii_grid

        def tracked(path):
            held_before_read.append(len(alive))
            grid = original(path)
            alive.add(grid)
            return grid

        monkeypatch.setattr(cli, "read_ascii_grid", tracked)
        depths = cli._load_ensemble(cli.load_config(root / "experiment.ini")).depths
        assert len(held_before_read) == len(depths) == 50
        # the previous grid may live until the next is read; no earlier one does
        assert max(held_before_read) <= 1

    def test_emulate_rebuilds_past_a_huge_shape_header(self, pipeline, tmp_path, monkeypatch):
        # np.load once raised MemoryError here, a traceback where a rebuild is promised
        root = tmp_path / "huge"
        shutil.copytree(pipeline, root)
        _claim_huge_shape(root / "out" / "ensemble.npy")
        builds = _counting(monkeypatch, "build_ensemble")
        assert main(["emulate", "--config", str(root / "experiment.ini")]) == 0
        assert len(builds) == 1
        for name in ("ensemble.npy", "ensemble.manifest.json",
                     *(f"basis/{name}" for name in BASIS_ARCHIVE)):
            assert (root / "out" / name).read_bytes() == (pipeline / "out" / name).read_bytes()

    def test_warm_load_equals_cold_and_fresh_builds(self, pipeline, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        shutil.copytree(pipeline, root)
        cfg = cli.load_config(root / "experiment.ini")
        builds = _counting(monkeypatch, "build_ensemble")
        warm = cli._load_ensemble(cfg).depths
        assert builds == []
        (cfg.out_dir / "ensemble.npy").unlink()
        cold = cli._load_ensemble(cfg).depths
        assert len(builds) == 1
        assert warm.tobytes() == cold.tobytes() == _fresh_depths(cfg).tobytes()

    def test_run_synth_hands_its_matrix_to_emulate(self, pipeline, tmp_path, monkeypatch):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE)
        for stage in ("design", "run-synth"):
            assert main([stage, "--config", str(config)]) == 0
        cfg = cli.load_config(config)
        assert np.load(cfg.out_dir / "ensemble.npy").tobytes() == _fresh_depths(cfg).tobytes()
        reads = _counting(monkeypatch, "read_ascii_grid")
        builds = _counting(monkeypatch, "build_ensemble")
        assert main(["emulate", "--config", str(config)]) == 0
        assert [Path(p).name for p in reads if Path(p).name.startswith("run_")] == []
        assert builds == []
        written = sorted(p.relative_to(tmp_path) for directory in ("runs", "out")
                         for p in (tmp_path / directory).rglob("*") if p.is_file())
        assert "out/emulator_hr/params.csv" in map(str, written)
        for name in written:
            assert (tmp_path / name).read_bytes() == (pipeline / name).read_bytes(), name

    def test_warm_diagnose_and_crossval_parse_no_run_grid(self, pipeline, tmp_path, monkeypatch):
        root = tmp_path / "warm"
        shutil.copytree(pipeline, root)
        reads = _counting(monkeypatch, "read_ascii_grid")
        builds = _counting(monkeypatch, "build_ensemble")
        for stage in ("diagnose", "crossval"):
            assert main([stage, "--config", str(root / "experiment.ini")]) == 0
        assert [Path(p).name for p in reads if Path(p).name.startswith("run_")] == []
        assert builds == []
        for name in ("diagnose.manifest.json", "uspe_mr.csv", "uspe_hr.csv", "crossval.json"):
            assert (root / "out" / name).read_bytes() == (pipeline / "out" / name).read_bytes()

    @pytest.mark.parametrize("change", [
        _change_run_grid,
        _change_design,
        _truncate_matrix,
        _edit_manifest,
        lambda root: (root / "out" / "ensemble.npy").unlink(),
        lambda root: (root / "out" / "ensemble.manifest.json").unlink(),
        lambda root: _claim_huge_shape(root / "out" / "ensemble.npy"),
        _resave_matrix(np.asfortranarray),
        _resave_matrix(lambda depths: depths.astype(np.float32)),
        _flip_a_data_byte,
    ], ids=["run-grid", "design", "truncated-matrix", "edited-manifest",
            "deleted-matrix", "deleted-manifest", "huge-shape", "fortran-order", "float32",
            "flipped-byte"])
    def test_stale_or_damaged_cache_is_rebuilt(self, pipeline, tmp_path, monkeypatch, change):
        root = tmp_path / "stale"
        shutil.copytree(pipeline, root)
        cfg = cli.load_config(root / "experiment.ini")
        before = np.load(root / "out" / "ensemble.npy")
        change(root)
        builds = _counting(monkeypatch, "build_ensemble")
        depths = cli._load_ensemble(cfg).depths
        assert len(builds) == 1
        assert depths.tobytes() == _fresh_depths(cfg).tobytes()
        if change is _change_run_grid:
            assert np.count_nonzero(depths != before) == 1
        # the rewritten cache serves the next load, and no temporary file is left
        assert cli._load_ensemble(cfg).depths.tobytes() == depths.tobytes()
        assert len(builds) == 1
        assert sorted(p.name for p in (root / "out").rglob("*.tmp")) == []


def _basis(components) -> ReducedBasis:
    j = components.shape[1]
    return ReducedBasis(np.zeros(len(components)), components, np.ones(j), 1.0, float(j), 1.0)


class TestRunMatrixMemory:
    # At 128x128 fine cells (a 6.2 MB run matrix), emulate's traced peak was 2.09 and
    # diagnose's 3.04 times the matrix when each held a second and third copy of it;
    # reading the matrix straight into the training and held-out rows and centering
    # those in place brought them to 1.10 and 1.31.
    BOUND = 1.6  # times the run matrix's bytes

    def test_emulate_and_diagnose_hold_one_run_matrix(self, tmp_path):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace("[synth]\n", (
            "[synth]\nfine_rows = 128\nfine_cols = 128\nfine_cell = 0.25\n"
            "coarse_rows = 32\ncoarse_cols = 32\ncoarse_cell = 1.0\n")).replace(
            "n_starts = 3", "n_starts = 1").replace("iterations = 1500", "iterations = 200")
            .replace("n_thinned = 8", "n_thinned = 2"))
        cfg = cli.load_config(config)
        n_runs = 2 * cfg.n_expensive + cfg.extra_cheap
        bound = self.BOUND * n_runs * len(shared_locations(cfg.synth)) * 8
        stages = "design,run-synth,emulate,calibrate,project,diagnose"
        assert main(["run", "--config", str(config), "--stages", stages]) == 0
        for stage in ("emulate", "diagnose"):  # steady state: imports paid, the cache warm
            tracemalloc.start()
            try:
                assert main([stage, "--config", str(config)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, f"{stage}: {peak / bound * self.BOUND:.2f} x the run matrix"


class TestWarmStarts:
    @staticmethod
    def _archive(n_locations=60, n_components=3):
        rng = np.random.default_rng(5)
        components = rng.standard_normal((n_locations, n_components))
        params = {label: [EmulatorParams(rho=rho, var_cheap=1.0, var_exp=i + 1.0,
                                         nugget_cheap=0.1, nugget_exp=0.1,
                                         range_cheap=[1.0, 1.0], range_exp=[1.0, 1.0])
                          for i in range(n_components)]
                  for label, rho in (("mr", 0.9), ("hr", 0.0))}
        return components, params

    def test_components_take_the_parameters_of_their_best_aligned_archived_column(self):
        archived, params = self._archive()
        noise = 0.05 * np.random.default_rng(6).standard_normal(archived.shape)
        # negated and swapped, rescaled, and moved a little as a hold-out moves them
        holdout = np.column_stack([-archived[:, 2], 3.0 * archived[:, 0], -0.5 * archived[:, 1]])
        warm = cli._warm_starts(_basis(holdout + noise), (archived, params))
        for label in ("mr", "hr"):
            assert warm[label] == [params[label][i] for i in (2, 0, 1)]

    def test_component_count_may_differ_from_the_archive(self):
        archived, params = self._archive()
        fewer = cli._warm_starts(_basis(archived[:, [1]]), (archived, params))
        assert fewer["mr"] == [params["mr"][1]]
        more = np.column_stack([archived, -archived[:, 0] + 0.1 * archived[:, 2]])
        assert cli._warm_starts(_basis(more), (archived, params))["hr"] == [
            params["hr"][i] for i in (0, 1, 2, 0)]

    def test_archive_on_other_locations_is_refused(self):
        archived, params = self._archive()
        with pytest.raises(DimensionMismatch, match="60 locations"):
            cli._warm_starts(_basis(archived[:-1]), (archived, params))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_python(*args, **env_changes):
    """Standard output of a fresh interpreter on this floodcal run with ``args``
    (it must exit 0); a value of None in ``env_changes`` removes that variable."""
    src = str(Path(floodcal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    result = subprocess.run([sys.executable, *args], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def _modules_after_cli_import(package):
    probe = (f"import sys, floodcal.cli; print(sorted(m for m in sys.modules "
             f"if m == {package!r} or m.startswith({package + '.'!r})))")
    return _fresh_python("-c", probe)


class TestStartup:
    def test_cli_import_loads_no_scipy_stats(self):
        # every stage is a fresh process; scipy.stats alone cost about half a
        # second and 20 MB of start-up per stage
        assert _modules_after_cli_import("scipy.stats") == "[]"

    def test_cli_import_loads_no_scipy_optimize(self):
        # only the stages that fit an emulator import it, on first use
        assert _modules_after_cli_import("scipy.optimize") == "[]"

    def test_cli_import_loads_no_scipy_special(self):
        # only diagnose's USPE quantiles use it (about 60 ms of import)
        assert _modules_after_cli_import("scipy.special") == "[]"

    def test_cli_import_loads_no_scipy(self, tmp_path):
        # scipy.linalg alone was about 0.27 s of every stage's start-up
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE)
        probe = ("import sys, floodcal.cli; floodcal.cli.load_config(sys.argv[1]); "
                 "print([m for m in sys.modules if m.startswith('scipy')])")
        assert _fresh_python("-c", probe, str(config)) == "[]"

    def test_stages_without_linear_algebra_load_no_scipy(self, pipeline, tmp_path):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE)
        root = tmp_path / "chained"
        shutil.copytree(pipeline, root)
        probe = ("import sys; from floodcal.cli import main; a, b = sys.argv[1:]; "
                 "print([main([s, '--config', a]) for s in ('design', 'run-synth')], "
                 "main(['project', '--config', b]), 'scipy' in sys.modules)")
        out = _fresh_python("-c", probe, str(config), str(root / "experiment.ini"))
        assert out.splitlines()[-1] == "[0, 0] 0 False"
        assert (root / "out" / "projection_mr.asc").read_bytes() == (
            pipeline / "out" / "projection_mr.asc").read_bytes()

    def test_module_runs_as_a_script(self):
        # python -m floodcal is the floodcal command without an installed script
        assert _fresh_python("-m", "floodcal", "--help").startswith("usage: floodcal")

    def test_import_pins_blas_threads_unless_set(self):
        probe = ("import os, floodcal; "
                 f"print(' '.join(os.environ[v] for v in {BLAS_THREAD_VARS!r}))")
        unset = dict.fromkeys(BLAS_THREAD_VARS)
        assert _fresh_python("-c", probe, **unset) == "1 1 1"
        assert _fresh_python("-c", probe, **{**unset, "OPENBLAS_NUM_THREADS": "2"}) == "2 1 1"


class TestRun:
    """``floodcal run``: several stages in one process."""

    @pytest.mark.parametrize("approach", APPROACHES)
    def test_all_stages_match_the_golden_digests(self, tmp_path, approach):
        config = write_config(tmp_path, approach)
        assert main(["run", "--config", str(config)]) == 0
        assert tree_digests(tmp_path) == json.loads(GOLDEN.read_text())[approach]

    def test_stages_subset_writes_only_their_files(self, tmp_path, capsys):
        config = write_config(tmp_path, "mr")
        assert main(["run", "--config", str(config), "--stages", "design,run-synth"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["design", "run-synth"]
        written = tree_digests(tmp_path)
        golden = json.loads(GOLDEN.read_text())["mr"]
        assert written.items() <= golden.items()
        assert set(written) == {name for name in golden if name.startswith("runs/")} | {
            f"out/{name}" for name in ("design.csv", "design.manifest.json", "ensemble.npy",
                                       "ensemble.manifest.json")}

    def test_stops_at_the_first_failing_stage(self, pipeline, tmp_path, capsys):
        root = tmp_path / "torn"
        shutil.copytree(pipeline, root)
        chain = root / "out" / "chain_mr.csv"
        chain.write_text("".join(chain.read_text().splitlines(keepends=True)[:1 + 600]))
        later = [root / "out" / name for name in ("metrics.json", "crossval.json")]
        for path in later:
            path.unlink()
        argv = ["run", "--config", str(root / "experiment.ini"), "--stages",
                "project,diagnose,crossval"]
        assert main(argv) == 3
        assert "malformed artifact" in capsys.readouterr().err
        assert not any(path.exists() for path in later)

    def test_unknown_stage(self, tmp_path, capsys):
        config = write_config(tmp_path, "mr")
        assert main(["run", "--config", str(config), "--stages", "design,emulator"]) == 2
        assert "unknown stage 'emulator'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "design.csv").exists()

    def test_takes_no_seed(self, tmp_path, capsys):
        # each stage keeps its own [seeds] value
        config = write_config(tmp_path, "mr")
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(config), "--seed", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def _covers(declared: Path, path: Path) -> bool:
    """Whether a declared artifact path covers ``path``: it is that path, a directory
    the path lies under, or a pattern the path's name matches."""
    return (declared in path.parents
            or declared.parent == path.parent and fnmatch.fnmatchcase(path.name, declared.name))


def _stage_io(monkeypatch, stage: str, config: Path) -> tuple[set, set]:
    """Run ``stage`` through ``main`` with ``open`` and ``os.replace`` recorded.

    Returns the files under the run root, the config aside, that the stage
    opened for reading, and those it created or replaced: a file renamed into
    place counts under its final name, not its temporary one.  A file read
    after the stage wrote it counts as read.
    """
    root, real_open, real_replace = config.parent, io.open, os.replace
    read, written = set(), set()

    def recording_open(file, mode="r", *args, **kwargs):
        path = Path(file) if isinstance(file, (str, os.PathLike)) else None
        if path is not None and root in path.parents and path != config:
            if set(mode) & set("wax+"):
                written.add(path)
            else:
                read.add(path)
        return real_open(file, mode, *args, **kwargs)

    def recording_replace(src, dst, *args, **kwargs):
        written.discard(Path(src))
        written.add(Path(dst))
        return real_replace(src, dst, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", recording_open)  # pathlib opens through io.open
        patch.setattr(io, "open", recording_open)
        patch.setattr(os, "replace", recording_replace)
        assert main([stage, "--config", str(config)]) == 0
    return read, written


class TestStageTable:
    """``cli.STAGES``: the artifacts each stage declares it reads and writes."""

    @pytest.mark.parametrize("approach", APPROACHES)
    def test_each_stage_opens_what_it_declares(self, tmp_path, monkeypatch, approach):
        config = write_config(tmp_path, approach)
        cfg = cli.load_config(config)
        cache = [cli._path(cfg, template) for template in cli.ENSEMBLE]  # read on a hit
        for stage, (_, _, reads, writes) in cli.STAGES.items():
            read, written = _stage_io(monkeypatch, stage, config)
            ins, outs = ([cli._path(cfg, t) for t in group] for group in (reads, writes))
            assert [p for p in read if not any(_covers(d, p) for d in ins + cache)] == [], stage
            assert [d for d in ins if not any(_covers(d, p) for p in read)] == [], stage
            assert [p for p in written if not any(_covers(d, p) for d in outs)] == [], stage
            assert [d for d in outs if not any(_covers(d, p) for p in written)] == [], stage
        assert tree_digests(tmp_path) == json.loads(GOLDEN.read_text())[approach]

    @pytest.mark.parametrize("approach", APPROACHES)
    def test_every_read_is_written_by_an_earlier_stage(self, tmp_path, approach):
        cfg = cli.load_config(write_config(tmp_path, approach))
        written = []
        for stage, (_, _, reads, writes) in cli.STAGES.items():
            for template in reads:
                assert any(_covers(w, cli._path(cfg, template)) for w in written), (stage, template)
            written += [cli._path(cfg, template) for template in writes]

    def test_readme_stage_table_matches_the_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([\w-]+)` \| (.*) \| (.*) \|$", readme, flags=re.M)
        assert [(stage, *(tuple(re.findall(r"`([^`]+)`", cell)) for cell in cells))
                for stage, *cells in rows] == [
            (stage, reads, writes) for stage, (_, _, reads, writes) in cli.STAGES.items()]


class TestArchiveTables:
    """``reduce.BASIS_ARCHIVE`` and ``emulator.EMULATOR_ARCHIVE``: the files in each archive."""

    def test_readme_archive_lists_match_the_tables(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        for heading, table in (("Emulator archives", EMULATOR_ARCHIVE),
                               ("Principal-component basis", BASIS_ARCHIVE)):
            section = readme.split(f"\n## {heading}\n")[1].split("\n## ")[0]
            rows = re.findall(r"^\| `([\w.]+)` \| (.*) \|$", section, flags=re.M)
            assert rows == [(name, " × ".join(shape) if shape else "—")
                            for name, shape in table.items()], heading


class TestBenchmarkContract:
    """What ``perfbench/`` calls and wraps in this package still exists."""

    def test_warmup_pass_runs_traced_on_the_cli(self, tmp_path, monkeypatch):
        # perfbench calls cmd_* with a third argument for four stages and its
        # tracer wraps the names in tracer.TARGETS, cholesky among them
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from pipeline import run_pass
        from tracer import Tracer, layer_metrics
        from workloads import WARMUP

        config = tmp_path / "experiment.ini"
        config.write_text(WARMUP.config_text(0))
        tracer = Tracer()
        tracer.install()
        try:
            result = run_pass(cli, cli.load_config(config), WARMUP.stages,
                              WARMUP.edge_direction, tracer)
        finally:
            tracer.uninstall()
        assert result.failures == []
        assert result.attempted == len(WARMUP.stages)
        layers = layer_metrics(tracer.spans, WARMUP.stages)
        assert layers["emulator.objective_evals"] > 0
        assert layers["emulator.cholesky_calls"] >= layers["emulator.objective_evals"]
