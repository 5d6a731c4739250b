"""Workload definitions: one experiment INI per (workload, seed).

A workload fixes the experiment's shape; the seed only fills the INI's
``[seeds]`` section, so floodcal sees nothing but the generated config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALL_STAGES = ("design", "run-synth", "emulate", "calibrate", "project", "diagnose", "crossval")
# The seed draws the observation noise, the MH chain and the thinning.  The
# fitting inputs (design, emulator starts, hold-out choices) stay at floodcal's
# defaults, so every run fits the same problems: a one-start fit at n=500 took
# 240 to 400 L-BFGS-B evaluations depending on the design, a scatter that
# would hide a regression of that size.
SEED_NAMES = ("observation", "mcmc", "thin")

_SPACE = """\
[space]
names = n_ch, rwe
lower = 0.02, 0.95
upper = 0.1, 1.05

[design]
n_expensive = {n_expensive}
extra_cheap = {extra_cheap}
edge_low_fractions = {edge_low}
edge_high_fractions = {edge_high}

[synth]
theta_star = 0.0305, 1.0
{synth}
[pca]
target_fraction = {target_fraction}

[emulator]
n_starts = {n_starts}

[mcmc]
iterations = {iterations}
approach = {approach}

[diagnose]
holdout_fraction = {holdout_fraction}

[crossval]
folds = {folds}

[paths]
runs_dir = runs
out_dir = out
"""


@dataclass(frozen=True)
class Workload:
    name: str
    n_expensive: int
    extra_cheap: int
    iterations: int
    n_starts: int = 8
    target_fraction: float = 0.95
    folds: int = 10
    holdout_fraction: float = 0.5
    approach: str = "mr"
    synth: str = ""
    edges: tuple = ("0.10, 0.0", "0.0, 0.05")
    edge_direction: bool = False
    stages: tuple = ALL_STAGES

    def seeds(self, seed: int) -> dict:
        """Stage seeds derived from the workload seed."""
        states = np.random.SeedSequence(seed).generate_state(len(SEED_NAMES))
        return {name: int(s) for name, s in zip(SEED_NAMES, states)}

    def config_text(self, seed: int) -> str:
        text = _SPACE.format(
            n_expensive=self.n_expensive,
            extra_cheap=self.extra_cheap,
            edge_low=self.edges[0],
            edge_high=self.edges[1],
            synth=self.synth,
            target_fraction=self.target_fraction,
            n_starts=self.n_starts,
            iterations=self.iterations,
            approach=self.approach,
            folds=self.folds,
            holdout_fraction=self.holdout_fraction,
        )
        lines = ["", "[seeds]"] + [f"{k} = {v}" for k, v in self.seeds(seed).items()]
        return text + "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # The README experiment, trimmed so six passes fit in a run: MAP fits
        # and MH predicts on n=100 grams are bound by per-call overhead.  The
        # only workload that cross-validates (two folds plus the edge hold-out).
        Workload(
            name="paper",
            n_expensive=20,
            extra_cheap=60,
            iterations=3_000,
            n_starts=2,
            folds=2,
            edge_direction=True,
        ),
        # n=500 grams make every objective LAPACK-bound.  One component and one
        # start keep five passes inside a run; crossval is left out because
        # each fold refits at n=450.  diagnose holds out 90% of the expensive
        # runs, so its refit is at n=410.
        Workload(
            name="stress",
            n_expensive=100,
            extra_cheap=300,
            iterations=1_500,
            n_starts=1,
            target_fraction=0.85,
            holdout_fraction=0.9,
            edges=("0, 0", "0, 0"),
            stages=ALL_STAGES[:-1],
        ),
        # 63,504 shared locations on the fine grid: grid I/O, interpolation,
        # the SVD basis and shared_locations dominate; the GPs stay small.
        Workload(
            name="fine_grid",
            n_expensive=10,
            extra_cheap=20,
            iterations=1_500,
            n_starts=1,
            approach="hr",
            synth="fine_rows = 256\nfine_cols = 256\nfine_cell = 0.125\n"
                  "coarse_rows = 64\ncoarse_cols = 64\ncoarse_cell = 0.5\n",
            stages=ALL_STAGES[:-1],
        ),
    )
}

# Pays lazy imports and first-call costs before anything is timed.
WARMUP = Workload(
    name="warmup",
    n_expensive=10,
    extra_cheap=20,
    iterations=400,
    n_starts=1,
    folds=2,
)
