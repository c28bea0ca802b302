"""Bayesian quantum game toolkit: exact two-player games in the entangling
protocol, parallelized 5-qubit circuit emulation with noise and finite
shots, and Nash-equilibrium sweep analyses.

Every other public name is imported from its own module, e.g.
`qgame.sweep.emit_report` or `qgame.noise.outcome_law`.
"""

from qgame.config import ExperimentConfig, NoiseModel
from qgame.sweep import run_sweep

__all__ = ["ExperimentConfig", "NoiseModel", "run_sweep", "__version__"]

__version__ = "0.1.0"
