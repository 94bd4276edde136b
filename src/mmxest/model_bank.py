"""Finite family of candidate linear models and the shared game weights.

A model set collects K candidate pairs (F_i, H_i) for the dynamics

    x_{t+1} = F_i x_t + B_i u_t + w_t
    y_t     = H_i x_t + v_t

together with the positive-definite weights Q, R, P0 of the disturbance
penalty, the attenuation level gamma, and the nominal initial state.
The weights are shared across models; per-model weights are a possible
extension but are deliberately not supported here.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .exceptions import InvalidInput
from .linalg import as_floats, check_spd


@dataclass(frozen=True, eq=False)
class ModelSet:
    """Validated family of candidate models. Immutable after validation;
    two banks compare equal only if they are one object.

    Attributes
    ----------
    K, n, m, p : int
        Number of models, state dimension, output dimension, and known-input
        dimension (p = 0 when the system has no input).
    F : (K, n, n) ndarray
        State transition matrix per model, stacked.
    H : (K, m, n) ndarray
        Output map per model, stacked.
    B : (K, n, p) ndarray
        Known-input map per model, stacked; empty tuple when p = 0.
    Q, R, P0 : ndarray
        Symmetric positive-definite disturbance, measurement, and
        initial-state weights, shared by all models.
    gamma : float
        Disturbance attenuation level, > 0.
    xhat0 : (n,) ndarray
        Nominal initial state.
    """

    K: int
    n: int
    m: int
    p: int
    F: np.ndarray
    H: np.ndarray
    B: np.ndarray | tuple
    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray
    gamma: float
    xhat0: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous float64 copy: a view of the caller's array
    would let the caller change the bank."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


def finite_real(value) -> bool:
    """True for a real number with a finite float value; a bool, a numeric
    string or an integer beyond the float range is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _as_matrix_list(value, name):
    if not isinstance(value, Iterable):
        raise InvalidInput(f"{name} must be a sequence of per-model matrices, got {value!r}", name)
    return [np.atleast_2d(as_floats(v, name)) for v in value]


def _stack(name, mats, shape):
    """Stack per-model matrices after checking each one's shape and entries."""
    for i, M in enumerate(mats):
        if M.shape != shape:
            raise InvalidInput(f"{name}[{i}] has shape {M.shape}, expected {shape}", name)
    stacked = np.stack(mats)
    if not np.isfinite(stacked).all():
        raise InvalidInput(f"{name} has a non-finite entry", name)
    return _freeze(stacked)


def validate(candidate) -> ModelSet:
    """Validate a model-set-shaped record and return an immutable ModelSet.

    Parameters
    ----------
    candidate : mapping
        A mapping with keys ``F``, ``H``, ``Q``, ``R``, ``P0``, ``gamma``
        and optionally ``B`` and ``xhat0``.  ``F`` and ``H`` are sequences
        of per-model matrices; scalars are promoted to 1x1 matrices.

    Raises
    ------
    InvalidInput
        If ``candidate`` is not a mapping (a ModelSet included), the family
        has no models, F, H or B is not a sequence, a shape is
        inconsistent, an entry is not a number, an entry of F, H, B or xhat0
        is not finite, Q, R or P0 is missing or fails the symmetric
        factorization test, or gamma is missing, not a finite real number >
        0, or has no finite nonzero square.  Its ``field`` names the record
        key at fault.
    """
    if not isinstance(candidate, Mapping):
        raise InvalidInput(f"cannot interpret {type(candidate).__name__} as a model set")
    record = dict(candidate)

    F = _as_matrix_list(record.get("F", ()), "F")
    H = _as_matrix_list(record.get("H", ()), "H")
    K = len(F)
    if K == 0:
        raise InvalidInput("model set must contain at least one model", "F")
    if len(H) != K:
        raise InvalidInput(f"got {K} F matrices but {len(H)} H matrices", "H")
    n = F[0].shape[0]
    m = H[0].shape[0]
    F = _stack("F", F, (n, n))
    H = _stack("H", H, (m, n))

    B_raw = record.get("B", None)
    if B_raw is None or (hasattr(B_raw, "__len__") and len(B_raw) == 0):
        p = 0
        B = ()
    else:
        B = _as_matrix_list(B_raw, "B")
        if len(B) != K:
            raise InvalidInput(f"got {K} models but {len(B)} B matrices", "B")
        p = B[0].shape[1]
        B = _stack("B", B, (n, p))

    weights = {}
    for name, dim in (("Q", n), ("R", m), ("P0", n)):
        if record.get(name) is None:
            raise InvalidInput(f"{name} is missing", name)
        W = check_spd(np.atleast_2d(as_floats(record[name], name)), name)
        if W.shape != (dim, dim):
            raise InvalidInput(f"{name} has shape {W.shape}, expected ({dim}, {dim})", name)
        weights[name] = _freeze(W)

    gamma = record.get("gamma")
    if not (finite_real(gamma) and gamma > 0):
        raise InvalidInput(f"gamma must be a finite real number > 0, got {gamma!r}", "gamma")
    gamma = float(gamma)
    if not 0.0 < gamma * gamma < math.inf:  # the certificates divide by gamma^2
        raise InvalidInput(f"gamma^2 must be a finite number > 0, got {gamma!r}^2", "gamma")

    xhat0 = as_floats(record.get("xhat0", np.zeros(n)), "xhat0").reshape(-1)
    if xhat0.shape != (n,):
        raise InvalidInput(f"xhat0 has shape {xhat0.shape}, expected ({n},)", "xhat0")
    if not np.isfinite(xhat0).all():
        raise InvalidInput("xhat0 has a non-finite entry", "xhat0")

    return ModelSet(K=K, n=n, m=m, p=p, F=F, H=H, B=B, gamma=gamma,
                    xhat0=_freeze(xhat0), **weights)
