"""Bayesian quantum game toolkit: exact two-player games in the entangling
protocol, parallelized 5-qubit circuit emulation with noise and finite
shots, and Nash-equilibrium sweep analyses."""

from qgame.bayesian import BayesianTensor, compose
from qgame.equilibrium import (
    EquilibriumReport,
    NoEquilibriumError,
    TransitionReport,
    detect_transitions,
    max_payoff_profile,
    nash_equilibria,
    rmsd_at_equilibrium,
)
from qgame.game import (
    DEFAULT_PAYOFF_B1,
    DEFAULT_PAYOFF_B2,
    GameSpec,
    PayoffTable,
    PayoffTensor,
    Strategy,
    final_state,
    payoff_tensor,
    profile_from_names,
    profile_names,
)
from qgame.noise import (
    ChiEstimate,
    ConfusionMatrix,
    NoiseModel,
    PopulationVector,
    SpamCorrectionError,
    bayesian_split,
    measure_chi,
    sample_outcomes,
    spam_correct,
)
from qgame.parallel import EmptyBranchError, Variant, build_circuit, exact_distribution, parse_branches
from qgame.statevector import Gate, GateKind, StateVector, apply_gate, probabilities
from qgame.sweep import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    emit_report,
    load_result,
    run_sweep,
    verify_parallelization,
)

__all__ = [
    "BayesianTensor",
    "ChiEstimate",
    "ConfigError",
    "ConfusionMatrix",
    "DEFAULT_PAYOFF_B1",
    "DEFAULT_PAYOFF_B2",
    "EmptyBranchError",
    "EquilibriumReport",
    "ExperimentConfig",
    "Gate",
    "GateKind",
    "GameSpec",
    "NoEquilibriumError",
    "NoiseModel",
    "PayoffTable",
    "PayoffTensor",
    "PopulationVector",
    "SpamCorrectionError",
    "StateVector",
    "Strategy",
    "SweepResult",
    "TransitionReport",
    "Variant",
    "apply_gate",
    "bayesian_split",
    "build_circuit",
    "compose",
    "detect_transitions",
    "emit_report",
    "exact_distribution",
    "final_state",
    "load_result",
    "max_payoff_profile",
    "measure_chi",
    "nash_equilibria",
    "parse_branches",
    "payoff_tensor",
    "probabilities",
    "profile_from_names",
    "profile_names",
    "rmsd_at_equilibrium",
    "run_sweep",
    "sample_outcomes",
    "spam_correct",
    "verify_parallelization",
]

__version__ = "0.1.0"
