"""Deterministic minimax output prediction over a finite bank of linear models.

A bank of Kalman filters (one per candidate model) accumulates prediction
costs; the minimax estimator solves a min-max of quadratics over the bank at
each step, while a Bayesian posterior baseline runs alongside.  Riccati
utilities provide the gains and the gamma-feasibility certificates, and a
seeded portable simulator plus a CLI make runs reproducible to the byte.
"""
from .bayes import bayes_estimate, bayes_init, bayes_step
from .config import ExperimentConfig, load_config, with_seed
from .exceptions import (
    EstimationError,
    FactorizationFailure,
    GammaInfeasible,
    InvalidInput,
    NoConvergence,
)
from .filter_bank import FilterBankState, init, step
from .minimax import MinimaxEstimate, QuadraticPieces, build_pieces, solve
from .model_bank import ModelSet, validate
from .riccati import (
    AreSolution,
    GainSchedule,
    run_recursion,
    solve_are,
    stationary_gains,
)
from .simulator import (
    InputSpec,
    NoiseSpec,
    SimulationTrace,
    generate_truth,
    run_estimators,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AreSolution",
    "EstimationError",
    "ExperimentConfig",
    "FactorizationFailure",
    "FilterBankState",
    "GainSchedule",
    "GammaInfeasible",
    "InputSpec",
    "InvalidInput",
    "MinimaxEstimate",
    "ModelSet",
    "NoConvergence",
    "NoiseSpec",
    "QuadraticPieces",
    "SimulationTrace",
    "bayes_estimate",
    "bayes_init",
    "bayes_step",
    "build_pieces",
    "generate_truth",
    "init",
    "load_config",
    "run_estimators",
    "run_recursion",
    "simulate",
    "solve",
    "solve_are",
    "stationary_gains",
    "step",
    "validate",
    "with_seed",
]
