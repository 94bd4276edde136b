import numpy as np
import pytest

import mmxest as mx


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
    with pytest.raises(mx.EmptyModelSet):
        mx.validate(spec)


def test_mismatched_shapes_rejected():
    spec = paper_spec()
    spec["H"] = [np.array([[1.0, 0.0]])] * 2  # wrong state dimension
    with pytest.raises(mx.DimensionMismatch):
        mx.validate(spec)

    spec = paper_spec()
    spec["F"][0] = np.eye(2)  # one model with a different n
    with pytest.raises(mx.DimensionMismatch):
        mx.validate(spec)


def test_nonsquare_f_rejected():
    spec = paper_spec()
    spec["F"] = [np.ones((3, 2)), np.ones((3, 2))]
    with pytest.raises(mx.DimensionMismatch):
        mx.validate(spec)


def test_weights_must_be_spd():
    spec = paper_spec()
    spec["Q"] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(mx.NotPositiveDefinite, match="Q"):
        mx.validate(spec)

    spec = paper_spec()
    spec["R"] = np.array([[0.0]])
    with pytest.raises(mx.NotPositiveDefinite, match="R"):
        mx.validate(spec)

    spec = paper_spec()
    asym = np.eye(3)
    asym[0, 1] = 0.5  # asymmetric P0 is not a valid weight
    spec["P0"] = asym
    with pytest.raises(mx.NotPositiveDefinite, match="P0"):
        mx.validate(spec)


@pytest.mark.parametrize("key, cls", [
    ("F", mx.DimensionMismatch), ("H", mx.DimensionMismatch), ("B", mx.DimensionMismatch),
    ("xhat0", mx.DimensionMismatch), ("Q", mx.NotPositiveDefinite),
    ("R", mx.NotPositiveDefinite), ("P0", mx.NotPositiveDefinite)])
def test_non_finite_or_missing_arrays_rejected(key, cls):
    # A NaN passes the Cholesky test, so it used to reach the solvers.
    spec = paper_spec()
    spec["xhat0"] = np.zeros(3)
    value = np.array(spec[key], dtype=float)
    value[(0,) * value.ndim] = np.nan
    spec[key] = value
    with pytest.raises(cls, match=rf"{key} has a non-finite entry") as err:
        mx.validate(spec)
    assert err.value.field == key
    if cls is mx.NotPositiveDefinite:
        del spec[key]
        with pytest.raises(cls, match=f"{key} is missing"):
            mx.validate(spec)


def test_gamma_must_be_positive():
    for bad in (0.0, -1.0, float("inf"), "x", None):
        spec = paper_spec()
        spec["gamma"] = bad
        if bad is None:
            del spec["gamma"]
        with pytest.raises(mx.NonpositiveGamma, match="gamma") as err:
            mx.validate(spec)
        assert err.value.field == "gamma"


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


def test_validate_is_idempotent_and_equal():
    a = mx.validate(paper_spec())
    b = mx.validate(paper_spec())
    assert a == b
    assert mx.validate(a) == a

    spec = paper_spec()
    spec["gamma"] = 4.0
    assert mx.validate(spec) != a


def test_explicit_prior_mean_kept():
    spec = paper_spec()
    spec["xhat0"] = np.array([1.0, 2.0, 3.0])
    models = mx.validate(spec)
    np.testing.assert_array_equal(models.xhat0, [1.0, 2.0, 3.0])
