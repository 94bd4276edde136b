"""Small linear-algebra helpers shared across the filter modules.

Covariance-like matrices are kept explicitly symmetric, and a Cholesky
factorization is the test of positive definiteness.  No solve happens here:
each innovation covariance inverse S^{-1} is formed once per (model, t) by
the gain schedule and reused by every step that whitens an innovation.
"""
from __future__ import annotations

import numpy as np

from .exceptions import InvalidInput

SYMMETRY_TOL = 1e-10


def as_floats(value, field, name=None) -> np.ndarray:
    """``value`` as a float64 array, or InvalidInput "<name or field> must be numbers"."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInput(f"{name or field} must be numbers", field) from None


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2, batched over leading axes."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def check_spd(M: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``M`` is a finite, symmetric positive-definite matrix.

    Asymmetry up to SYMMETRY_TOL (max-abs) is tolerated and removed; the
    definiteness test is Cholesky factorization success, which a NaN entry
    would pass, so finiteness is checked first.  Returns the symmetrized
    matrix.  Raises :class:`InvalidInput` naming the offending matrix
    otherwise.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {M.shape}", name)
    if not np.isfinite(M).all():
        raise InvalidInput(f"{name} has a non-finite entry", name)
    asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if asym > SYMMETRY_TOL:
        raise InvalidInput(f"{name} is not symmetric (max asymmetry {asym:.3e})", name)
    M = symmetrize(M)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise InvalidInput(f"{name} is not positive definite", name) from None
    return M
