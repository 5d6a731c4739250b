import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import floodcal
from floodcal.cli import main

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
def pipeline(tmp_path_factory):
    """Run every stage once into a module-scoped workspace."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "experiment.ini"
    config.write_text(CONFIG_TEMPLATE)
    for stage in ("design", "run-synth", "emulate", "calibrate", "project",
                  "diagnose", "crossval"):
        assert main([stage, "--config", str(config)]) == 0, stage
    return root


class TestPipeline:
    def test_all_artifacts_present(self, pipeline):
        out = pipeline / "out"
        for name in (
            "design.csv", "design.manifest.json", "emulate.manifest.json",
            "chain_mr.csv", "projection_mr.asc", "metrics.json", "metrics.txt",
            "uspe_mr.csv", "uspe_hr.csv", "crossval.json", "crossval.txt",
        ):
            assert (out / name).exists(), name
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


class TestRerunDeterminism:
    def test_design_stage_byte_identical(self, pipeline):
        config = pipeline / "experiment.ini"
        before = (pipeline / "out" / "design.csv").read_bytes()
        assert main(["design", "--config", str(config)]) == 0
        after = (pipeline / "out" / "design.csv").read_bytes()
        assert before == after


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[design]\nn_expensive = 5\n")  # missing [space]
        assert main(["design", "--config", str(bad)]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["design", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_missing_artifact(self, tmp_path):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE)
        # emulate without design/runs
        assert main(["emulate", "--config", str(config)]) == 3

    def test_invalid_theta_star(self, tmp_path):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE.replace("0.0305, 1.0", "0.5, 1.0"))
        assert main(["design", "--config", str(config)]) == 2

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

    def test_malformed_basis_archive(self, pipeline, tmp_path, capsys):
        root = tmp_path / "malformed"
        shutil.copytree(pipeline, root)
        eigenvalues = root / "out" / "basis" / "eigenvalues.npy"
        np.save(eigenvalues, -np.load(eigenvalues))
        assert main(["calibrate", "--config", str(root / "experiment.ini")]) == 3
        assert "eigenvalues must be finite and > 0" in capsys.readouterr().err

    def test_malformed_run_grid(self, pipeline, tmp_path, capsys):
        root = tmp_path / "malformed"
        shutil.copytree(pipeline, root)
        run = root / "runs" / "run_0000_expensive.asc"
        run.write_text(run.read_text()[: len(run.read_text()) // 2])
        assert main(["emulate", "--config", str(root / "experiment.ini")]) == 3
        assert "run_0000_expensive.asc" in capsys.readouterr().err

    def test_threads_do_not_change_results(self, tmp_path):
        config = tmp_path / "experiment.ini"
        config.write_text(CONFIG_TEMPLATE)
        assert main(["design", "--config", str(config)]) == 0
        assert main(["run-synth", "--config", str(config), "--threads", "4"]) == 0
        serial = tmp_path / "serial"
        serial.mkdir()
        cfg2 = serial / "experiment.ini"
        cfg2.write_text(CONFIG_TEMPLATE)
        assert main(["design", "--config", str(cfg2)]) == 0
        assert main(["run-synth", "--config", str(cfg2)]) == 0
        a = (tmp_path / "runs" / "run_0000_expensive.asc").read_bytes()
        b = (serial / "runs" / "run_0000_expensive.asc").read_bytes()
        assert a == b


class TestStartup:
    def test_cli_import_loads_no_scipy_stats(self):
        # every stage is a fresh process; scipy.stats alone cost about half a
        # second and 20 MB of start-up per stage
        src = str(Path(floodcal.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import sys, floodcal.cli; print(sorted(m for m in sys.modules "
                 "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
