#!/usr/bin/env python3
"""Run every workload on several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads paper,stress] [--out FILE]

For each workload and end-to-end metric this prints the median over the
seeds and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--out`` the per-run results, medians and spreads are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["env"] = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} correct={result['correct']} {values}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 and statistics.median(values) else None,
                "unit": runs[0]["metrics"][name]["unit"],
            }
        report[workload] = {"runs": runs, "summary": summary,
                            "all_correct": all(r["correct"] for r in runs)}
        for name, s in summary.items():
            spread_text = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {workload:10s} {name:36s} median {s['median']:.6g} {s['unit']}  spread {spread_text}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
