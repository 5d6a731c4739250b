"""One pipeline pass: run the stages in order, time them, gate their outputs.

Stages are called through ``floodcal.cli``'s public stage functions with
``threads=1``.  A stage fails when it raises or when the output check below
rejects what it wrote; every failure counts towards ``failed_stage_share``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RUNS = Path(__file__).resolve().parent.parent / ".perfbench_runs"
EXTENT_FIT_MIN = 0.9  # diagnose: flood-extent fit of the calibrated projection
POSTERIOR_LEVEL = 0.99  # calibrate: theta* must lie inside this central interval


class GateFailure(Exception):
    """A stage ran but its output failed a correctness check."""


def _call_stage(cli, stage: str, cfg) -> None:
    func = getattr(cli, "cmd_" + stage.replace("-", "_"))
    if stage in ("run-synth", "emulate", "project", "crossval"):
        func(cfg, None, 1)
    else:
        func(cfg, None)


def check_calibrate(cfg) -> None:
    """theta* inside every 99% posterior interval; every ESS finite and > 0."""
    name = f"chain_{cfg.approach}"
    manifest = json.loads((cfg.out_dir / f"{name}.manifest.json").read_text())
    for param, ess in manifest["ess"].items():
        if not (math.isfinite(ess) and ess > 0):
            raise GateFailure(f"ESS of {param} is {ess}")
    with open(cfg.out_dir / f"{name}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, values = rows[0], np.array(rows[1:], dtype=float)
    tail = (1.0 - POSTERIOR_LEVEL) / 2.0
    for k, theta in enumerate(cfg.theta_star):
        col = values[:, header.index(f"theta_{cfg.space.names[k]}")]
        lo, hi = np.quantile(col, [tail, 1.0 - tail])
        if not lo <= theta <= hi:
            raise GateFailure(
                f"theta*[{cfg.space.names[k]}] = {theta} outside 99% interval [{lo:.5g}, {hi:.5g}]"
            )


def check_diagnose(cfg) -> None:
    metrics = json.loads((cfg.out_dir / "metrics.json").read_text())
    if not metrics["fit"] >= EXTENT_FIT_MIN:
        raise GateFailure(f"extent fit {metrics['fit']:.3f} < {EXTENT_FIT_MIN}")


def check_crossval(cfg, edge_direction: bool) -> None:
    """Finite quartiles; with ``edge_direction``, the direction of acceptance
    criterion 10: the multiresolution emulator does no worse on edge cases."""
    result = json.loads((cfg.out_dir / "crossval.json").read_text())
    quartiles = result["cross_validation"]["quartiles"]
    if not all(math.isfinite(q) for q in quartiles):
        raise GateFailure(f"non-finite crossval quartiles {quartiles}")
    if edge_direction:
        median = result["edge_case"]["quartiles"][1]
        if not median <= 0.0:
            raise GateFailure(f"edge-case median D(MR-HR) {median:.4f} > 0")


@dataclass
class PassResult:
    stage_s: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    min_ess: float = float("nan")

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


def run_pass(cli, cfg, stages, edge_direction: bool, tracer=None, checks=None) -> PassResult:
    """Run ``stages`` on ``cfg`` once; stage stdout is discarded."""
    if checks is None:
        checks = {
            "calibrate": check_calibrate,
            "diagnose": check_diagnose,
            "crossval": lambda c: check_crossval(c, edge_direction),
        }
    result = PassResult()
    for stage in stages:
        result.attempted += 1
        span = tracer.span(f"cli.{stage}") if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                _call_stage(cli, stage, cfg)
        except Exception as err:  # noqa: BLE001 - every stage error is a counted failure
            result.failures.append(f"{stage}: {type(err).__name__}: {err}")
            continue
        finally:
            result.stage_s[stage] = time.perf_counter() - start
        check = checks.get(stage)
        if check is not None:
            try:
                check(cfg)
            except (GateFailure, OSError, KeyError, ValueError) as err:
                result.failures.append(f"{stage}: {err}")
    if "calibrate" in stages and not any(f.startswith("calibrate") for f in result.failures):
        ess = json.loads((Path(cfg.out_dir) / f"chain_{cfg.approach}.manifest.json").read_text())["ess"]
        result.min_ess = min(ess.values())
    return result


def run_workload(cli, workload, seed: int, tracer=None, checks=None) -> PassResult:
    """One pass of ``workload`` on the inputs of ``seed``, in a fresh run root
    under ``RUNS`` that is deleted afterwards."""
    RUNS.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(dir=RUNS))
    try:
        ini = root / "experiment.ini"
        ini.write_text(workload.config_text(seed))
        if tracer is not None:
            tracer.reset()
        return run_pass(cli, cli.load_config(ini), workload.stages, workload.edge_direction,
                        tracer, checks)
    finally:
        shutil.rmtree(root, ignore_errors=True)
