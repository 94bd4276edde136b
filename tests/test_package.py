import pytest

import mmxest as mx

PUBLIC_NAMES = [
    "AreSolution", "BayesPosterior", "ConfigError", "DimensionMismatch", "EmptyModelSet",
    "EmptyPieceList", "EstimationError", "ExperimentConfig", "FactorizationFailure",
    "FilterBankState", "GainSchedule", "GammaInfeasible", "HorizonExceeded",
    "IndexOutOfRange", "InputSpec", "MinimaxEstimate", "ModelSet", "NoConvergence",
    "NoiseSpec", "NonpositiveGamma", "NotPositiveDefinite", "QuadraticPieces",
    "SimulationTrace", "bayes_estimate", "bayes_init", "bayes_step", "build_pieces",
    "generate_truth", "init", "load_config", "riccati_step", "run_estimators",
    "run_recursion", "simulate", "solve", "solve_are", "stationary_gains", "step",
    "validate", "with_seed",
]


def test_public_names_are_pinned_and_resolve():
    # A name added to or dropped from the package must be added here too.
    assert sorted(mx.__all__) == mx.__all__ == PUBLIC_NAMES
    assert all(hasattr(mx, name) for name in mx.__all__)


def _records(models):
    state = mx.init(mx.run_recursion(models, 3))
    state = mx.step(state, [0.5])
    pieces = mx.build_pieces(state)
    return [state, pieces, mx.solve(pieces), mx.bayes_step(mx.bayes_init(models), state)]


@pytest.mark.parametrize("index, cls", enumerate(
    [mx.FilterBankState, mx.QuadraticPieces, mx.MinimaxEstimate, mx.BayesPosterior]))
def test_per_step_records_reject_assignment(paper_models, index, cls):
    record = _records(paper_models)[index]
    assert type(record) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
