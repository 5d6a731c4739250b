#!/usr/bin/env python3
"""Untraced pipeline passes on request, for the traced run's overhead figure.

    python3 perfbench/worker.py <workload> <seed>

Imports floodcal from ``src/`` and warms up without installing any wrapper,
prints ``ready``, then runs one pass of the workload for each line read on
standard input and answers each with one JSON line (``PassResult``'s fields).
It exits at the end of its input.  ``run.py --trace 1`` starts it and
alternates its passes with traced ones.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import floodcal.cli as cli  # noqa: E402
from pipeline import run_workload  # noqa: E402
from workloads import WARMUP, WORKLOADS  # noqa: E402


def main() -> int:
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    run_workload(cli, WARMUP, 0, checks={})
    print("ready", flush=True)
    for _ in sys.stdin:
        result = run_workload(cli, workload, seed)
        print(json.dumps(dataclasses.asdict(result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
