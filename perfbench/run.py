#!/usr/bin/env python3
"""floodcal benchmark: whole-pipeline workloads, end to end or traced.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; floodcal is imported from ``src/``.  Each
run generates the workload's experiment INI from ``--seed``, warms up on a
tiny pipeline, then repeats pipeline passes on that INI through
``floodcal.cli``'s stage functions (``threads=1``, one BLAS thread unless
the caller set one) until ``--seconds`` is used up.  Every pass is gated for
correctness.

``--trace 0`` times set-up (importing floodcal and parsing the config) in
fresh processes between the first passes and reports the end-to-end metrics, medians over at least
``MIN_PASSES`` passes.  ``--trace 1`` alternates untraced passes, run by
``worker.py`` in a child process that installs no wrapper, with traced
passes in this process, at least ``MIN_PAIRS`` of each, and reports the
per-layer metrics (see ``tracer.py``) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; attempted and failed
count pipeline stages.  Metric names and units are those of
``BENCHMARK.json``.  Run roots live under ``.perfbench_runs/`` in the
checkout and are deleted after each pass.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
MIN_PASSES = 5
MIN_PAIRS = 2

# One BLAS thread unless the caller chose otherwise.  On a 2-vCPU machine the
# default two OpenBLAS threads made n=500 fits 2.5-3x slower and doubled the
# pass-to-pass scatter of identical work.  Set before numpy is first imported;
# worker.py inherits it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(HERE))

from pipeline import RUNS, PassResult, run_workload  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WARMUP, WORKLOADS  # noqa: E402

# Timed in a fresh interpreter: what a CLI stage pays before it does work.
_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import floodcal.cli
floodcal.cli.load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    probe_dir = Path(tempfile.mkdtemp(dir=RUNS))
    try:
        ini = probe_dir / "experiment.ini"
        ini.write_text(workload.config_text(seed))
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(ini)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        return float(out.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def repeat(one_pass, seconds: float, at_least: int) -> list:
    """Call ``one_pass`` until ``seconds`` have passed and it ran ``at_least`` times."""
    results, start = [], time.perf_counter()
    while len(results) < at_least or time.perf_counter() - start < seconds:
        results.append(one_pass())
    return results


class UntracedWorker:
    """``worker.py`` in a child process: untraced passes, one per request."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            if self._readline() != "ready":
                raise RuntimeError("worker did not start")
        except BaseException:
            self.close()
            raise

    def _readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return line.strip()

    def run_pass(self) -> PassResult:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return PassResult(**json.loads(self._readline()))

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def end_to_end(passes, setup_s: float) -> dict:
    med = statistics.median
    return {
        "setup_s": setup_s,
        "pipeline_s": med(p.pipeline_s for p in passes),
        "emulate_s": med(p.stage_s["emulate"] for p in passes),
        "calibrate_s": med(p.stage_s["calibrate"] for p in passes),
        "diagnose_s": med(p.stage_s["diagnose"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(pairs, counts) -> tuple[dict, list]:
    """Per-layer values from (untraced, traced, layers) pairs, and the
    ``counts`` that failed to repeat.  Every pass runs the same inputs, so
    counts are taken from the first traced pass and must repeat; times are
    medians."""
    layers = [layer for _, _, layer in pairs]
    problems = [f"traced pass {i}: {name} {m[name]} != {layers[0][name]}"
                for i, m in enumerate(layers[1:], 1) for name in counts
                if m[name] != layers[0][name]]
    values = {name: layers[0][name] if name in counts
              else statistics.median(m[name] for m in layers) for name in layers[0]}
    values["calibrate.min_ess_per_s"] = statistics.median(
        u.min_ess / u.stage_s["calibrate"] for u, _, _ in pairs)
    values["trace.overhead_s"] = statistics.median(
        t.pipeline_s - u.pipeline_s for u, t, _ in pairs)
    return values, problems


def measure_traced(cli, workload, seed: int, seconds: float) -> list:
    """(untraced, traced, layers) pairs, alternating which side runs first."""
    worker = UntracedWorker(workload.name, seed)
    tracer = Tracer()
    order = itertools.count()

    def pair():
        untraced_first = next(order) % 2 == 0
        untraced = worker.run_pass() if untraced_first else None
        result = run_workload(cli, workload, seed, tracer)
        layers = layer_metrics(tracer.spans, workload.stages)
        if untraced is None:
            untraced = worker.run_pass()
        return untraced, result, layers

    try:
        tracer.install()
        return repeat(pair, seconds, MIN_PAIRS)
    finally:
        tracer.uninstall()
        worker.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "floodcal" / "__init__.py").is_file():
        print(f"perfbench: no floodcal sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    sys.path.insert(0, str(SRC))
    import floodcal.cli as cli
    from envinfo import environment

    run_workload(cli, WARMUP, 0, checks={})
    notes = []
    if args.trace == 0:
        setups = []

        def one_pass():
            # set-up probes sit between the first passes, so they sample the
            # machine over the run rather than at one moment
            if len(setups) < SETUP_PROBES:
                setups.append(probe_setup(workload, args.seed))
            return run_workload(cli, workload, args.seed)

        passes = repeat(one_pass, args.seconds, MIN_PASSES)
        setup_s = statistics.median(setups)
        values, problems = end_to_end(passes, setup_s), []
        declared = bench["end_to_end"]
        shown = {"": passes}
    else:
        pairs = measure_traced(cli, workload, args.seed, args.seconds)
        declared = bench["per_layer"]
        values, problems = traced(pairs, [m["name"] for m in declared if m["unit"] == "count"])
        passes = [p for u, t, _ in pairs for p in (u, t)]
        shown = {"untraced ": [u for u, _, _ in pairs], "traced ": [t for _, t, _ in pairs]}
        q1, _, q3 = statistics.quantiles([u.pipeline_s for u, _, _ in pairs], n=4,
                                         method="inclusive")
        if abs(values["trace.overhead_s"]) <= q3 - q1:
            notes.append(f"trace.overhead_s is unresolved: it is within the untraced passes' "
                         f"quartile spread of {q3 - q1:.3f} s")

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    failures = [f for p in passes for f in p.failures] + problems

    print(f"workload {workload.name}, seed {args.seed}, {len(passes)} passes, "
          f"stages {' '.join(workload.stages)}")
    print("env " + json.dumps(environment(ROOT), sort_keys=True))
    for label, group in shown.items():
        for i, p in enumerate(group):
            print(f"{label}pass {i}: " + " ".join(f"{k} {v:.3f}" for k, v in p.stage_s.items())
                  + f" min_ess {p.min_ess:.1f}")
        print(f"{label}stage medians: " + " ".join(
            f"{stage}_s {statistics.median(p.stage_s[stage] for p in group):.4f}"
            for stage in workload.stages))
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"failed_stage_share = {failed / attempted:.4g} ({failed}/{attempted} stages)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units.get(name, '(not in BENCHMARK.json)')}")
    for note in notes:
        print(note)

    metrics = {}
    for m in declared:
        value = values[m["name"]]
        # a failed stage left nothing to measure; keep the JSON strict
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None, "unit": m["unit"]}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
