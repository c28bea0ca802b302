"""The benchmark's three pinned workloads, built through the public API only.

Run as a script (`python3 perfbench/workloads.py <workload> <seed>`) it
imports qgame and builds one workload's config, then exits: `run.py` times
such child processes to measure the set-up a user pays on every CLI call.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from qgame import ExperimentConfig, NoiseModel  # noqa: E402

# the default 11 x 101 grid, written out so a change of defaults cannot move it
CHI_GRID_PI = tuple(i / 40 for i in range(11))
P_GRID = tuple(i / 100 for i in range(101))
SHOTS = 30_000
CALIBRATION_SHOTS = 3_000

WORKLOADS = ("analytic", "shots_ideal", "shots_noisy")  # why each: see README.md


def make_config(workload: str, seed: int) -> ExperimentConfig:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    pinned = dict(
        chi_grid_pi=CHI_GRID_PI,
        p_grid=P_GRID,
        shots=SHOTS,
        calibration_shots=CALIBRATION_SHOTS,
        seed=seed,
    )
    if workload == "analytic":
        return ExperimentConfig(mode="analytic", **pinned)
    if workload == "shots_ideal":
        return ExperimentConfig(mode="shots", noise=NoiseModel(), **pinned)
    return ExperimentConfig(mode="shots", noise=NoiseModel.default_profile(seed), **pinned)


if __name__ == "__main__":
    make_config(sys.argv[1], int(sys.argv[2]))
