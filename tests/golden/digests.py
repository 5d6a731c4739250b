"""Golden sha256 digests of every pipeline artifact, for approaches mr and hr.

Each approach runs the seven CLI stages on ``tests/test_cli.py``'s
``CONFIG_TEMPLATE`` (``approach = hr`` added for hr) in one child process
whose BLAS is pinned to one thread: 1 versus 2 OpenBLAS threads moved MAP
hyperparameters by up to 8.6e-13 relative, enough to change the chains, so
digests taken at the default thread count would depend on the core count.
``digests.json`` holds the sha256 of every file under ``runs/`` and ``out/``
per approach, and the numpy, scipy and BLAS that produced them.

    PYTHONPATH=src python tests/golden/digests.py           # name the files that differ
    PYTHONPATH=src python tests/golden/digests.py --bless   # rewrite digests.json

``tests/test_golden.py`` runs the same comparison and also gives the largest
relative difference of each changed numeric file.

A digest may change only with a CHANGES.md entry that lists the files that
changed, why, and the largest numeric difference; never re-bless to hide a
defect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "digests.json"
APPROACHES = ("mr", "hr")
STAGES = ("design", "run-synth", "emulate", "calibrate", "project", "diagnose", "crossval")
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
NUMERIC = (".csv", ".asc", ".npy")


def environment_stamp() -> dict:
    """numpy and scipy versions, and the BLAS numpy was built against."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def write_config(root, approach: str) -> Path:
    """Write the golden runs' config for ``approach`` to ``root/experiment.ini``."""
    from test_cli import CONFIG_TEMPLATE

    config = Path(root) / "experiment.ini"
    text = CONFIG_TEMPLATE
    if approach != "mr":
        text = text.replace("[mcmc]\n", f"[mcmc]\napproach = {approach}\n")
    config.write_text(text)
    return config


def _run_stages(root: str, approach: str) -> None:
    """Child-process body: write the config and run every stage under ``root``."""
    from floodcal.cli import main

    config = write_config(root, approach)
    for stage in STAGES:
        if main([stage, "--config", str(config)]) != 0:
            sys.exit(f"stage {stage} failed for approach {approach}")


def run_pipelines(workdir: Path) -> dict:
    """Run every approach under ``workdir/<approach>``, one pinned child each, concurrently.

    Returns the run roots keyed by approach.
    """
    import floodcal

    paths = [str(Path(floodcal.__file__).resolve().parents[1]), str(HERE.parent)]
    env = {**os.environ, **PINNED,
           "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
    code = "import sys, digests; digests._run_stages(*sys.argv[1:])"
    roots, children = {}, {}
    for approach in APPROACHES:
        roots[approach] = workdir / approach
        roots[approach].mkdir(parents=True)
        children[approach] = subprocess.Popen(
            [sys.executable, "-c", code, str(roots[approach]), approach], cwd=HERE, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for approach, child in children.items():
        err = child.communicate()[1]
        if child.returncode:
            raise RuntimeError(f"pipeline for approach {approach} failed:\n{err}")
    return roots


def tree_digests(root: Path) -> dict:
    """sha256 of every file under ``root/runs`` and ``root/out``, keyed by relative path."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for sub in ("runs", "out") for path in sorted((root / sub).rglob("*"))
            if path.is_file()}


def _numbers(path: Path) -> np.ndarray:
    if path.suffix == ".npy":
        return np.load(path).ravel()
    values = []
    for token in re.split(r"[\s,]+", path.read_text()):
        try:
            values.append(float(token))
        except ValueError:
            pass
    return np.array(values)


def largest_relative_difference(old: Path, new: Path) -> str:
    """The largest |new - old| / max(|old|, |new|) over the numbers two files hold."""
    a, b = _numbers(old), _numbers(new)
    if a.shape != b.shape:
        return f"{a.size} numbers before, {b.size} now"
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(b - a) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where(a == b, 0.0, rel)
    return f"largest relative difference {rel.max(initial=0.0):.3g}"


def differences(golden: dict, actual: dict, reference: dict | None = None,
                fresh: dict | None = None) -> list[str]:
    """One line per approach and file whose digest differs, is new or is gone.

    ``reference`` and ``fresh`` map approaches to run roots; when both are
    given, a differing numeric file also gets its largest relative difference
    between the two.
    """
    lines = []
    for approach in APPROACHES:
        old, new = golden.get(approach, {}), actual.get(approach, {})
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) == new.get(name):
                continue
            what = "added" if name not in old else "removed" if name not in new else "changed"
            if what == "changed" and reference and fresh and name.endswith(NUMERIC):
                what += ", " + largest_relative_difference(reference[approach] / name,
                                                           fresh[approach] / name)
            lines.append(f"{approach}: {name} {what}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bless", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="floodcal-golden-") as workdir:
        roots = run_pipelines(Path(workdir))
        actual = {"environment": environment_stamp(),
                  **{approach: tree_digests(root) for approach, root in roots.items()}}
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if golden.get("environment") != actual["environment"]:
        print(f"environment: golden {golden.get('environment')}, this run {actual['environment']}")
    for line in differences(golden, actual):
        print(line)
    if args.bless:
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
