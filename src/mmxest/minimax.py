"""Minimax prediction: minimize over yhat the max of K convex quadratics.

At time t the prediction game reduces to

    J* = min_yhat max_i  f_i(yhat),
    f_i(yhat) = |yhat - H_i xb_i|^2_{W_i} - gamma^2 c_i,
    W_i = (I - gamma^{-2} H_i P_i H_i^T)^{-1},

a min-max of strictly convex quadratics.  Its concave dual over the
probability simplex is

    phi(lam) = min_yhat sum_i lam_i f_i(yhat),

whose inner minimizer yhat(lam) = (sum lam_i W_i)^{-1} sum lam_i W_i c_i is
closed-form.  Weak duality gives phi(lam) <= J* <= max_i f_i(yhat) for every
lam on the simplex and every yhat; :func:`solve` returns an answer only
with such a pair whose gap is within tolerance.

The solve has two exact stages.  First a dominance check: if some piece's
minimum value o_i, taken at its center, is at least every other piece's
value there, that center is optimal and lam = e_i certifies it with gap 0.
Only the piece with the largest offset can pass, so one row of piece
values is tested.  This is the common case once the bank has singled out a
model.  Otherwise the epigraph form

    min s   subject to   f_i(yhat) + r_i = s,   r >= 0,

is solved by a primal-dual interior point with Mehrotra's
predictor-corrector (Boyd & Vandenberghe, *Convex Optimization*, 11.7);
its multipliers, normalized, are the certificate weights.  A gap that is
not finite (a NaN piece) never certifies.

Each iteration factors its (m+1) x (m+1) Newton matrix once, M = L L^T
(a matrix that is not numerically positive definite ends the solve), and
inverts the triangular factor.  Both directions of the step are then
products, x = L^{-T} (L^{-1} b), refined once by x += L^{-T} L^{-1} (b - M x):
near convergence M is ill-conditioned, and with the refinement the solve
breaks down on random piece sets as rarely as with two triangular solves
per direction.  M^{-1} itself is never formed.  A step length is 1 / max(1, max_i -dv_i / v_i), the largest
a <= 1 that keeps v + a dv >= 0 for v > 0.

The minimizer yhat* is unique (every W_i is positive definite); the
certifying weights lam need not be when more than m+1 pieces are active.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyPieceList, NoConvergence
from .filter_bank import FilterBankState

SOLVE_TOL = 1e-8
SOLVE_MAX_ITER = 100
ACTIVE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class QuadraticPieces:
    """K stacked pieces f_i(yhat) = |yhat - centers[i]|^2_{W[i]} + offsets[i]:
    W (K, m, m) symmetric positive definite, centers (K, m), offsets (K,)."""

    W: np.ndarray
    centers: np.ndarray
    offsets: np.ndarray


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


def build_pieces(state: FilterBankState) -> QuadraticPieces:
    """Assemble the K quadratic pieces of the game at the state's time, with
    the weights W and gamma of the state's gain schedule.

    Raises :class:`GammaInfeasible` at the first model not gamma-feasible
    at that time.
    """
    gains = state.gains
    gains.require_feasible(state.t)
    return QuadraticPieces(W=gains.W[:, state.col], centers=state.yhat,
                           offsets=-gains.gamma_sq * state.c)


def _inner_argmin(lam, W, centers):
    """yhat(lam) = (sum lam_i W_i)^{-1} sum lam_i W_i center_i."""
    A = np.einsum("k,kij->ij", lam, W)
    b = np.einsum("k,kij,kj->i", lam, W, centers)
    return np.linalg.solve(A, b)


def _piece_values(y, W, centers, offsets):
    d = y[None, :] - centers
    return np.einsum("ki,kij,kj->k", d, W, d) + offsets


def _dominant(W, centers, offsets):
    """Indices i with f_j(center_i) <= offset_i for every j.

    Since f_j >= offset_j, only pieces with the largest offset qualify, and
    only the first of them, i, needs testing: another top piece j qualifies
    iff f_j(center_i) = offset_i, i.e. iff center_j = center_i, and then its
    row is row i.  So the answer is every top piece if row i passes, else
    none.  For each such i, J* = offset_i: center_i reaches it and f_i alone
    cannot go lower.  Uniform weights on all of them certify it with gap 0,
    since each piece's minimum is that same offset.  A NaN anywhere in row i
    fails the test.
    """
    i = int(offsets.argmax())
    top = offsets[i]
    if (_piece_values(centers[i], W, centers, offsets) <= top).all():
        return (offsets == top).nonzero()[0]
    return np.empty(0, dtype=np.intp)


def _certify(lam, y, W, centers, offsets):
    """Weak-duality bounds for weights lam on the simplex: (yhat, upper, lower).

    ``lower`` is phi(lam); ``upper`` is max_i f_i(yhat), yhat being the
    better of yhat(lam) and the candidate ``y``.
    """
    y_lam = _inner_argmin(lam, W, centers)
    f = _piece_values(y_lam, W, centers, offsets)
    upper, upper_y = float(f.max()), float(_piece_values(y, W, centers, offsets).max())
    yhat, upper = (y, upper_y) if upper_y < upper else (y_lam, upper)
    return yhat, upper, float(lam @ f)


def _max_step(v, dv):
    """Largest a <= 1 keeping v + a dv >= 0, for v > 0: 1 / max(1, max_i -dv_i / v_i),
    with no mask (a growing or fixed component gives a ratio <= 0)."""
    return 1.0 / max(1.0, float((-dv / v).max()))


def _interior_step(y, s, r, lam, W, centers, offsets):
    """One Mehrotra predictor-corrector step for min s s.t. f_i(y) + r_i = s.

    Linearizes the KKT conditions

        sum lam_i grad f_i(y) = 0,   sum lam_i = 1,
        f_i(y) - s + r_i = 0,        lam_i r_i = sigma mu,

    and eliminates dr and dlam, leaving one symmetric positive definite
    (m+1) x (m+1) system M in (dy, ds).  Its Cholesky factor is inverted
    once and serves both the predictor (sigma = 0) and the corrector.
    Primal (y, s, r) and dual lam take separate step lengths; with one
    common length the iteration cycled on some random piece sets.  Returns
    the new (y, s, r, lam); raises LinAlgError when M is not numerically
    positive definite.
    """
    K, m = centers.shape
    d = y - centers
    Wd = np.einsum("kij,kj->ki", W, d)
    g = 2.0 * Wd
    res_p = np.einsum("ki,ki->k", d, Wd) + offsets - s + r
    res_y = lam @ g
    res_s = 1.0 - lam.sum()
    ratio = lam / r
    M = np.empty((m + 1, m + 1))
    M[:m, :m] = 2.0 * np.einsum("k,kij->ij", lam, W) + (g.T * ratio) @ g
    M[:m, m] = M[m, :m] = -(ratio @ g)
    M[m, m] = ratio.sum()
    Linv = np.linalg.inv(np.linalg.cholesky(M))
    rhs = np.empty(m + 1)

    def direction(res_c):
        b = ratio * res_p - res_c / r
        rhs[:m] = -res_y - b @ g
        rhs[m] = b.sum() - res_s
        step = Linv.T @ (Linv @ rhs)
        step += Linv.T @ (Linv @ (rhs - M @ step))  # one refinement step
        dlam = ratio * (g @ step[:m] - step[m]) + b
        return step, (-res_c - r * dlam) / lam, dlam

    mu = float(lam @ r) / K
    _, dr, dlam = direction(lam * r)
    a = min(_max_step(r, dr), _max_step(lam, dlam))
    shrink = float((r + a * dr) @ (lam + a * dlam)) / K / mu
    step, dr, dlam = direction(lam * r + dr * dlam - shrink ** 3 * mu)
    # Stop short of the boundary r, lam > 0 by the predicted reduction of
    # mu, at most 1%, so steps lengthen as the iterates converge.
    eta = 1.0 - min(0.01, shrink)
    a, a_dual = eta * _max_step(r, dr), eta * _max_step(lam, dlam)
    return y + a * step[:m], s + a * step[m], r + a * dr, lam + a_dual * dlam


def solve(pieces: QuadraticPieces) -> MinimaxEstimate:
    """Solve min_yhat max_i f_i(yhat) with a certified duality gap <= SOLVE_TOL.

    A piece whose center no other piece exceeds is returned at once, with
    lam = e_i, gap 0 and ``iterations`` 0; several such (tied) pieces
    share uniform weights.  Otherwise a primal-dual interior point runs on
    the epigraph form with the offsets shifted by their maximum, and stops
    once its normalized multipliers lam certify phi(lam) <= J* <=
    max_i f_i(yhat) within SOLVE_TOL, yhat being the better of the iterate
    and yhat(lam).  The multipliers start uniform.  ``iterations`` counts
    interior-point iterations.

    Raises
    ------
    EmptyPieceList
        If no pieces are given.
    NoConvergence
        If the gap is still above SOLVE_TOL after SOLVE_MAX_ITER iterations,
        is not finite (a NaN piece), or a step breaks down numerically
        first; the last estimate is attached as ``last``.
    """
    W, centers, offsets = pieces.W, pieces.centers, pieces.offsets
    K = len(offsets)
    if K == 0:
        raise EmptyPieceList("minimax program needs at least one piece")

    top = _dominant(W, centers, offsets)
    if top.size:
        lam = np.zeros(K)
        lam[top] = 1.0 / top.size
        return MinimaxEstimate(yhat=centers[top[0]].copy(), value=float(offsets[top[0]]),
                               weights=lam, active=tuple(top.tolist()), gap=0.0, iterations=0)

    o = offsets - offsets.max()
    lam = np.full(K, 1.0 / K)
    y = _inner_argmin(lam, W, centers)
    f = _piece_values(y, W, centers, o)
    s = 2.0 * float(f.max()) - float(lam @ f)
    r = s - f
    iterations = 0
    while True:
        yhat, upper, lower = _certify(lam / lam.sum(), y, W, centers, o)
        gap = upper - lower
        if gap <= SOLVE_TOL or not math.isfinite(gap) or iterations == SOLVE_MAX_ITER:
            break
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                y, s, r, lam = _interior_step(y, s, r, lam, W, centers, o)
        except (np.linalg.LinAlgError, FloatingPointError):
            break
        iterations += 1

    lam = lam / lam.sum()
    estimate = MinimaxEstimate(
        yhat=yhat, value=float(_piece_values(yhat, W, centers, offsets).max()), weights=lam,
        active=tuple(np.flatnonzero(lam > ACTIVE_THRESHOLD).tolist()), gap=gap,
        iterations=iterations)
    if not gap <= SOLVE_TOL:
        raise NoConvergence(
            f"duality gap {gap:.3e} > tol {SOLVE_TOL:.3e} after {iterations} "
            f"interior-point iterations", last=estimate)
    return estimate
