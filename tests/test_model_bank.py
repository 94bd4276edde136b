import re

import numpy as np
import pytest

import mmxest as mx
from conftest import raises_invalid


def paper_spec():
    Fb = np.array([[1.1, -0.5, 0.1], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return {
        "F": [-Fb, Fb],
        "H": [np.array([[1.0, 0.0, 0.0]])] * 2,
        "B": [np.array([[-1.0], [2.0], [3.0]])] * 2,
        "Q": np.eye(3),
        "R": np.eye(1),
        "P0": np.eye(3),
        "gamma": 3.0,
    }


def test_validate_infers_dimensions():
    models = mx.validate(paper_spec())
    assert (models.K, models.n, models.m, models.p) == (2, 3, 1, 1)
    assert models.gamma == 3.0
    np.testing.assert_array_equal(models.xhat0, np.zeros(3))


def test_empty_model_list_rejected():
    spec = paper_spec()
    spec["F"] = []
    spec["H"] = []
    spec["B"] = []
    with raises_invalid("F", "^model set must contain at least one model$"):
        mx.validate(spec)


def test_mismatched_shapes_rejected():
    spec = paper_spec()
    spec["H"] = [np.array([[1.0, 0.0]])] * 2  # wrong state dimension
    with raises_invalid("H", r"^H\[0\] has shape \(1, 2\), expected \(1, 3\)$"):
        mx.validate(spec)

    spec = paper_spec()
    spec["F"][0] = np.eye(2)  # one model with a different n
    with raises_invalid("F", r"^F\[1\] has shape \(3, 3\), expected \(2, 2\)$"):
        mx.validate(spec)


def test_nonsquare_f_rejected():
    spec = paper_spec()
    spec["F"] = [np.ones((3, 2)), np.ones((3, 2))]
    with raises_invalid("F", r"^F\[0\] has shape \(3, 2\), expected \(3, 3\)$"):
        mx.validate(spec)


def test_weights_must_be_spd():
    spec = paper_spec()
    spec["Q"] = np.diag([1.0, -1.0, 1.0])
    with raises_invalid("Q", "^Q is not positive definite$"):
        mx.validate(spec)

    spec = paper_spec()
    spec["R"] = np.array([[0.0]])
    with raises_invalid("R", "^R is not positive definite$"):
        mx.validate(spec)

    spec = paper_spec()
    asym = np.eye(3)
    asym[0, 1] = 0.5  # asymmetric P0 is not a valid weight
    spec["P0"] = asym
    with raises_invalid("P0", r"^P0 is not symmetric \(max asymmetry 5\.000e-01\)$"):
        mx.validate(spec)


# The ids keep the names these checks' errors had before InvalidInput merged them.
@pytest.mark.parametrize("key", [pytest.param(key, id=f"{key}-{old}") for key, old in (
    ("F", "DimensionMismatch"), ("H", "DimensionMismatch"), ("B", "DimensionMismatch"),
    ("xhat0", "DimensionMismatch"), ("Q", "NotPositiveDefinite"),
    ("R", "NotPositiveDefinite"), ("P0", "NotPositiveDefinite"))])
def test_non_finite_or_missing_arrays_rejected(key):
    # A NaN passes the Cholesky test, so it used to reach the solvers.
    spec = paper_spec()
    spec["xhat0"] = np.zeros(3)
    value = np.array(spec[key], dtype=float)
    value[(0,) * value.ndim] = np.nan
    spec[key] = value
    with raises_invalid(key, rf"^{key} has a non-finite entry$"):
        mx.validate(spec)
    if key in ("Q", "R", "P0"):
        del spec[key]
        with raises_invalid(key, f"^{key} is missing$"):
            mx.validate(spec)


def _with(**entries):
    spec = paper_spec()
    spec.update(entries)
    return spec


@pytest.mark.parametrize("candidate, field, match", [
    (3, None, "^cannot interpret int as a model set$"),
    (_with(H=[np.array([[1.0, 0.0, 0.0]])]), "H", "^got 2 F matrices but 1 H matrices$"),
    (_with(B=[np.ones((3, 1))]), "B", "^got 2 models but 1 B matrices$"),
    (_with(Q=np.eye(2)), "Q", r"^Q has shape \(2, 2\), expected \(3, 3\)$"),
    (_with(R=np.eye(2)), "R", r"^R has shape \(2, 2\), expected \(1, 1\)$"),
    (_with(P0=np.eye(2)), "P0", r"^P0 has shape \(2, 2\), expected \(3, 3\)$"),
    (_with(Q=np.ones((3, 2))), "Q", r"^Q must be square, got shape \(3, 2\)$"),
    (_with(xhat0=[1.0, 2.0]), "xhat0", r"^xhat0 has shape \(2,\), expected \(3,\)$"),
], ids=["not-a-mapping", "H-count", "B-count", "Q-size", "R-size", "P0-size", "Q-not-square",
        "xhat0-length"])
def test_validate_names_the_record_key_at_fault(candidate, field, match):
    with raises_invalid(field, match):
        mx.validate(candidate)


def test_model_set_equals_only_a_model_set_of_the_same_dimensions():
    models = mx.validate(paper_spec())
    assert models != paper_spec() and models.__eq__(3) is NotImplemented
    one = np.eye(1)
    scalar = mx.validate({"F": [one, one], "H": [one, one], "Q": one, "R": one, "P0": one,
                          "gamma": 3.0})
    assert models != scalar and scalar != models


def test_gamma_must_be_positive():
    for bad in (0.0, -1.0, float("inf"), "x", None):
        spec = paper_spec()
        spec["gamma"] = bad
        if bad is None:
            del spec["gamma"]
        with raises_invalid("gamma", re.escape(
                f"gamma must be a finite real number > 0, got {bad!r}")):
            mx.validate(spec)
    # the certificates divide by gamma^2: its square must be finite and nonzero
    for bad, text in ((1e300, "1e+300"), (1e-200, "1e-200")):
        spec = paper_spec()
        spec["gamma"] = bad
        with raises_invalid("gamma", re.escape(
                f"gamma^2 must be a finite number > 0, got {text}^2")):
            mx.validate(spec)


def test_input_matrix_optional():
    spec = paper_spec()
    del spec["B"]
    models = mx.validate(spec)
    assert models.p == 0
    assert models.B == ()


def test_model_set_is_immutable():
    models = mx.validate(paper_spec())
    with pytest.raises(ValueError):
        models.F[0][0, 0] = 99.0
    with pytest.raises(ValueError):
        models.Q[0, 0] = 99.0


def test_caller_arrays_changed_after_validate_leave_the_bank_alone():
    # Every field is a copy: contiguous float64 arrays (xhat0 here) were kept
    # as views of the caller's, so the caller could change the bank.
    spec = paper_spec()
    spec["F"] = [spec["F"][0].copy(), spec["F"][1].copy()]
    spec["H"] = [h.copy() for h in spec["H"]]
    spec["B"] = [b.copy() for b in spec["B"]]
    spec["xhat0"] = np.array([1.0, 2.0, 3.0])
    models = mx.validate(spec)
    before = {name: getattr(models, name).copy()
              for name in ("F", "H", "B", "Q", "R", "P0", "xhat0")}
    for name, value in spec.items():
        for a in (value if isinstance(value, list) else [value]):
            if isinstance(a, np.ndarray):
                a += 42.0
    for name, want in before.items():
        np.testing.assert_array_equal(getattr(models, name), want, err_msg=name)
        assert not getattr(models, name).flags.writeable, name


def test_validate_takes_a_mapping_and_banks_compare_by_identity():
    # A bank is not a mapping, so validate rejects it as it does any other
    # record; two validations of one spec are distinct banks, and a bank
    # equals only itself and hashes by identity.
    a = mx.validate(paper_spec())
    b = mx.validate(paper_spec())
    with raises_invalid(None, "^cannot interpret ModelSet as a model set$"):
        mx.validate(a)
    assert a is not b and a != b
    assert a == a
    assert {a: 1}[a] == 1 and b not in {a: 1}


def test_explicit_prior_mean_kept():
    spec = paper_spec()
    spec["xhat0"] = np.array([1.0, 2.0, 3.0])
    models = mx.validate(spec)
    np.testing.assert_array_equal(models.xhat0, [1.0, 2.0, 3.0])
