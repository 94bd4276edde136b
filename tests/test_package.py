import ast
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmxest as mx
from mmxest import cli, exceptions
from conftest import child_env, raises_invalid

PUBLIC_NAMES = [
    "AreSolution", "EstimationError", "ExperimentConfig",
    "FactorizationFailure", "FilterBankState", "GainSchedule", "GammaInfeasible", "InputSpec",
    "InvalidInput", "MinimaxEstimate", "ModelSet", "NoConvergence", "NoiseSpec",
    "QuadraticPieces", "SimulationTrace", "bayes_estimate", "bayes_init", "bayes_step",
    "build_pieces", "generate_truth", "init", "load_config", "run_estimators",
    "run_recursion", "simulate", "solve", "solve_are", "stationary_gains", "step",
    "validate", "with_seed",
]
ERROR_CLASSES = {name: cls for name, cls in vars(exceptions).items()
                 if inspect.isclass(cls) and issubclass(cls, mx.EstimationError)}


def test_public_names_are_pinned_and_resolve():
    # A name added to or dropped from the package must be added here too.
    assert sorted(mx.__all__) == mx.__all__ == PUBLIC_NAMES
    assert all(hasattr(mx, name) for name in mx.__all__)


def _records(models):
    state = mx.init(mx.run_recursion(models, 3))
    state = mx.step(state, [0.5])
    pieces = mx.build_pieces(state)
    return [state, pieces, mx.solve(pieces)]


@pytest.mark.parametrize("index, cls", enumerate(
    [mx.FilterBankState, mx.QuadraticPieces, mx.MinimaxEstimate]))
def test_per_step_records_reject_assignment(paper_models, index, cls):
    record = _records(paper_models)[index]
    assert type(record) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_records_of_arrays_compare_by_identity(paper_models):
    # A frozen record that holds arrays equals only itself, so == on two of
    # different data is False, not numpy's ValueError, and a bank or a
    # schedule hashes.
    m = paper_models
    pairs = [
        [mx.solve_are(m.F[i], m.H[i], m.Q, m.R, m.P0) for i in range(2)],
        [mx.simulate(m, 1, 5, mx.NoiseSpec(seed=s)) for s in (0, 1)],
        [mx.InputSpec("sequence", values=np.arange(5.0) + s) for s in (0, 1)],
        [mx.run_recursion(m, 5), mx.stationary_gains(m)],
    ]
    for a, b in pairs:
        assert (a == b) is False and (a != b) is True
        assert a == a and b == b
    gains = pairs[3][0]
    assert {m: 0, gains: 1}[gains] == 1


def test_every_raise_constructs_a_package_error():
    # The CLI turns a package error into one "error: ..." line and its exit
    # code; anything else would end in a traceback.
    assert sorted(ERROR_CLASSES) == ["EstimationError", "FactorizationFailure",
                                     "GammaInfeasible", "InvalidInput", "NoConvergence"]
    bad = []
    for path in sorted(Path(mx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare re-raise
                continue
            func = node.exc.func if isinstance(node.exc, ast.Call) else None
            if not (isinstance(func, ast.Name) and func.id in ERROR_CLASSES):
                bad.append(f"{path.name}:{node.lineno}")
    assert bad == []


def test_every_error_class_has_an_exit_code():
    assert set(cli.EXIT_CODES) == set(ERROR_CLASSES.values())
    assert {cls.__name__: cli.EXIT_CODES[cls][0] for cls in cli.EXIT_CODES} == {
        "InvalidInput": 2, "GammaInfeasible": 3, "NoConvergence": 1,
        "FactorizationFailure": 1, "EstimationError": 1}


def test_yaml_is_imported_by_load_config_only(paper_config_path):
    # Only config files need a YAML parser: the package and the CLI module
    # import without PyYAML, and the first load_config brings it in.
    code = ("import sys\n"
            "import mmxest\n"
            "print('yaml' in sys.modules)\n"
            "import mmxest.cli\n"
            "print('yaml' in sys.modules)\n"
            f"mmxest.load_config({paper_config_path!r})\n"
            "print('yaml' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


def _scalar_spec(**entries):
    return {"F": [[[0.9]]], "H": [[[1.0]]], "Q": 1.0, "R": 1.0, "P0": 1.0, "gamma": 3.0,
            **entries}


@pytest.mark.parametrize("call, field, match", [
    (lambda m, s: mx.run_estimators(m, ["a"], u=[[0.0]]), "y", "^y must be numbers$"),
    (lambda m, s: mx.run_estimators(m, [[1.0], [1.0, 2.0]]), "y", "^y must be numbers$"),
    (lambda m, s: mx.run_estimators(m, [[0.0]], u=["a"]), "u", "^u must be numbers$"),
    (lambda m, s: mx.step(s, ["a"], [0.0]), "y", "^y must be numbers$"),
    (lambda m, s: mx.step(s, [0.0], [[0.0], [1.0, 2.0]]), "u", "^u must be numbers$"),
    (lambda m, s: mx.validate(_scalar_spec(Q="a")), "Q", "^Q must be numbers$"),
    (lambda m, s: mx.validate(_scalar_spec(F=[[[1.0], [1.0, 2.0]]])), "F",
     "^F must be numbers$"),
    (lambda m, s: mx.validate(_scalar_spec(F=3.0)), "F",
     "^F must be a sequence of per-model matrices, got 3.0$"),
    (lambda m, s: mx.solve_are("a", 1.0, 1.0, 1.0, 1.0), "F", "^F must be numbers$"),
], ids=["run-string-y", "run-ragged-y", "run-string-u", "step-string-y", "step-ragged-u",
        "validate-string-Q", "validate-ragged-F", "validate-scalar-F", "solve_are-string-F"])
def test_entry_points_report_values_that_are_not_numbers(paper_models, call, field, match):
    # numpy's own conversion errors would reach a library caller unmapped
    state = mx.init(mx.run_recursion(paper_models, 3))
    with raises_invalid(field, match):
        call(paper_models, state)
