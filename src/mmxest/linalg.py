"""Small linear-algebra helpers shared across the filter modules.

Covariance-like matrices are kept explicitly symmetric and are factorized
with Cholesky; explicit inverses are avoided everywhere a solve suffices.
"""
from __future__ import annotations

import numpy as np

from .exceptions import FactorizationFailure, NotPositiveDefinite

SYMMETRY_TOL = 1e-10


def transpose(M: np.ndarray) -> np.ndarray:
    """Swap the last two axes (matrix transpose, batched)."""
    return np.swapaxes(M, -1, -2)


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2, batched over leading axes."""
    return 0.5 * (M + transpose(M))


def max_asymmetry(M: np.ndarray) -> float:
    return float(np.max(np.abs(M - M.T))) if M.size else 0.0


def check_spd(M: np.ndarray, name: str, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate that ``M`` is symmetric positive definite.

    Asymmetry up to ``tol`` (max-abs) is tolerated and removed; the
    definiteness test is Cholesky factorization success.  Returns the
    symmetrized matrix.  Raises :class:`NotPositiveDefinite` naming the
    offending matrix otherwise.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotPositiveDefinite(f"{name} must be square, got shape {M.shape}")
    asym = max_asymmetry(M)
    if asym > tol:
        raise NotPositiveDefinite(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    M = symmetrize(M)
    if not is_pd(M):
        raise NotPositiveDefinite(f"{name} is not positive definite")
    return M


def is_pd(M: np.ndarray) -> bool:
    """True iff the Cholesky factorization of M succeeds."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def spd_solve(M: np.ndarray, b: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Solve M x = b for symmetric positive-definite M via Cholesky."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"{context} is not positive definite: {exc}") from None
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def max_eig_sym(M: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(M))[-1])
