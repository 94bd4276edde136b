"""Minimax prediction: minimize over yhat the max of K convex quadratics.

At time t the prediction game reduces to

    J* = min_yhat max_i  |yhat - H_i xb_i|^2_{W_i} - gamma^2 c_i,
    W_i = (I - gamma^{-2} H_i P_i H_i^T)^{-1},

a min-max of strictly convex quadratics.  The solver works on the concave
dual over the probability simplex,

    phi(lam) = min_yhat sum_i lam_i f_i(yhat),

whose inner minimizer yhat(lam) = (sum lam_i W_i)^{-1} sum lam_i W_i c_i is
closed-form, and whose envelope gradient is d phi / d lam_i = f_i(yhat(lam)).
Projected gradient ascent with adaptive backtracking drives the duality gap
g(yhat) - phi(lam) to tolerance, which certifies optimality: weak duality
gives phi(lam) <= J* <= g(yhat) at every iterate.

The minimizer yhat* is unique (every W_i is positive definite); the
certifying weights lam need not be when more than m+1 pieces are active.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    EmptyPieceList,
    GammaInfeasible,
    NoConvergence,
    PreconditionViolated,
)
from .filter_bank import FilterBankState, predictions
from .linalg import max_eig_sym, spd_solve, symmetrize, transpose
from .model_bank import ModelSet

SOLVE_TOL = 1e-8
SOLVE_MAX_ITER = 100000
ACTIVE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class QuadraticPiece:
    """One model's quadratic f(yhat) = |yhat - center|^2_W + offset."""

    W: np.ndarray       # (m, m) symmetric positive definite
    center: np.ndarray  # (m,)
    offset: float


@dataclass(frozen=True)
class QuadraticPieces:
    """K stacked pieces, W (K, m, m), centers (K, m), offsets (K,); items are QuadraticPiece."""

    W: np.ndarray
    centers: np.ndarray
    offsets: np.ndarray

    def __len__(self):
        return len(self.offsets)

    def __getitem__(self, i) -> QuadraticPiece:
        return QuadraticPiece(W=self.W[i], center=self.centers[i], offset=float(self.offsets[i]))


@dataclass(frozen=True)
class MinimaxEstimate:
    """Solution of the min-max program with its optimality certificate.

    ``weights`` lie on the probability simplex and certify ``value`` up to
    ``gap`` via weak duality.  ``active`` holds the (0-based) indices of
    models with weight above the activity threshold.
    """

    yhat: np.ndarray
    value: float
    weights: np.ndarray
    active: tuple
    gap: float
    iterations: int


def _weights(HPHt, gsq):
    """(I - gamma^{-2} H P H^T)^{-1}, symmetrized; batched over leading axes."""
    return symmetrize(np.linalg.inv(np.eye(HPHt.shape[-1]) - HPHt / gsq))


def weight_matrix(P, H, gamma) -> np.ndarray:
    """Inverse of (I - gamma^{-2} H P H^T), symmetrized.

    Raises :class:`GammaInfeasible` (reporting lambda_max(H P H^T) and
    gamma^2) unless lambda_max(H P H^T) < gamma^2 strictly.
    """
    HPHt = symmetrize(H @ P @ H.T)
    gsq = float(gamma) * float(gamma)
    lam = max_eig_sym(HPHt)
    if not lam < gsq:
        raise GammaInfeasible(
            f"lambda_max(H P H^T) = {lam:.6g} >= gamma^2 = {gsq:.6g}",
            lambda_max=lam, gamma_sq=gsq)
    return _weights(HPHt, gsq)


def build_pieces(models: ModelSet, state: FilterBankState) -> QuadraticPieces:
    """Assemble the K quadratic pieces of the game at the state's time."""
    gains = state.gains
    gains.require_feasible(state.t)
    P = gains.P[:, gains.column(state.t, terminal=True)]
    gsq = models.gamma ** 2
    W = _weights(symmetrize(models.H @ P @ transpose(models.H)), gsq)
    return QuadraticPieces(W=W, centers=predictions(state), offsets=-gsq * state.c)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum x = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - css) / idx > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _inner_argmin(lam, W, centers):
    """yhat(lam) = (sum lam_i W_i)^{-1} sum lam_i W_i center_i."""
    A = np.einsum("k,kij->ij", lam, W)
    b = np.einsum("k,kij,kj->i", lam, W, centers)
    return np.linalg.solve(A, b)


def _piece_values(y, W, centers, offsets):
    d = y[None, :] - centers
    return np.einsum("ki,kij,kj->k", d, W, d) + offsets


def solve(pieces, tol: float = SOLVE_TOL, max_iter: int = SOLVE_MAX_ITER,
          lambda0=None) -> MinimaxEstimate:
    """Solve min_yhat max_i f_i(yhat) with a certified duality gap <= tol.

    Dual projected gradient ascent over the simplex: the step starts at
    1 / (2 max_i lambda_max(W_i)) and adapts by doubling after an accepted
    ascent step and halving while the dual value fails to increase.  The
    primal answer is yhat(lam) at the best dual point seen.

    ``lambda0`` overrides the uniform initialization (used for uniqueness
    checks); it is projected onto the simplex.

    Raises
    ------
    EmptyPieceList
        If no pieces are given.
    NoConvergence
        If the gap is still above ``tol`` after ``max_iter`` iterations;
        the best estimate found is attached as ``last``.
    """
    K = len(pieces)
    if K == 0:
        raise EmptyPieceList("minimax program needs at least one piece")
    if isinstance(pieces, QuadraticPieces):
        W, centers, offsets = pieces.W, pieces.centers, pieces.offsets
    else:
        m = pieces[0].center.size
        W = np.stack([np.asarray(p.W, dtype=float).reshape(m, m) for p in pieces])
        centers = np.stack([np.asarray(p.center, dtype=float).reshape(m) for p in pieces])
        offsets = np.array([float(p.offset) for p in pieces])

    if lambda0 is None:
        lam = np.full(K, 1.0 / K)
    else:
        lam = project_simplex(np.asarray(lambda0, dtype=float).reshape(K))

    def evaluate(l):
        y = _inner_argmin(l, W, centers)
        f = _piece_values(y, W, centers, offsets)
        phi = float(l @ f)
        return y, f, phi, float(np.max(f)) - phi

    step0 = 1.0 / (2.0 * float(np.linalg.eigvalsh(symmetrize(W))[:, -1].max()))
    step = step0
    y, f, phi, gap = evaluate(lam)
    best = {"phi": phi, "y": y, "g": gap + phi, "lam": lam, "gap": gap}
    iterations = 0

    # Phase 1 ascends the dual value; near the optimum phi flattens below
    # float resolution while the gap (a difference of piece values) is still
    # measurable, so phase 2 continues the same projected gradient steps but
    # accepts on strict gap decrease.  Each phase is monotone, so both
    # terminate; the certificate is the smallest-gap iterate seen.
    for ascend in (True, False):
        if not ascend:
            step = step0
        while iterations < max_iter and best["gap"] > tol:
            iterations += 1
            moved = False
            s = step
            while s > 1e-20 * step0:
                cand = project_simplex(lam + s * f)
                yc, fc, phic, gapc = evaluate(cand)
                if (phic > phi) if ascend else (gapc < gap):
                    lam, y, f, phi, gap = cand, yc, fc, phic, gapc
                    step = 2.0 * s
                    moved = True
                    break
                s *= 0.5
            if gap < best["gap"]:
                best = {"phi": phi, "y": y, "g": gap + phi, "lam": lam, "gap": gap}
            if not moved:
                break

    gap = best["gap"]
    estimate = MinimaxEstimate(
        yhat=best["y"],
        value=best["g"],
        weights=best["lam"],
        active=tuple(int(i) for i in np.nonzero(best["lam"] > ACTIVE_THRESHOLD)[0]),
        gap=gap,
        iterations=iterations,
    )
    if gap > tol:
        raise NoConvergence(
            f"duality gap {gap:.3e} > tol {tol:.3e} after {iterations} iterations",
            last=estimate)
    return estimate


def quadratic_max_closed_form(x, y, A, X, Y, gamma) -> float:
    """Closed form of max_v |x - A v|^2_{X^{-1}} - gamma^2 |y - v|^2_{Y^{-1}}.

    Valid when A^T X^{-1} A - gamma^2 Y^{-1} is negative definite; the
    maximum equals |x - A y|^2 weighted by (X - gamma^{-2} A Y A^T)^{-1}.
    Serves as the oracle linking the worst-case state and the minimax
    weight completion.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    gsq = float(gamma) * float(gamma)
    Xinv_A = spd_solve(X, A, context="X")
    Yinv = spd_solve(Y, np.eye(Y.shape[0]), context="Y")
    curvature = symmetrize(A.T @ Xinv_A - gsq * Yinv)
    if max_eig_sym(curvature) >= 0:
        raise PreconditionViolated(
            "A^T X^{-1} A - gamma^2 Y^{-1} must be negative definite")
    M = symmetrize(X - (A @ Y @ A.T) / gsq)
    d = x - A @ y
    return float(d @ spd_solve(M, d, context="X - gamma^{-2} A Y A^T"))
