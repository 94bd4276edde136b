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

The solve tries its stages in order; the first that certifies answers.
First a dominance check: if some piece's minimum value o_i, taken at its
center, is at least every other piece's value there, that center is
optimal and lam = e_i certifies it with gap 0.  Only the piece with the
largest offset can pass, so one row of piece values is tested.  This is
the common case once the bank has singled out a model.  Otherwise exact
copies of a piece are merged into one, and the copies share its weight
equally, so their weights do not depend on the order of the pieces.  Then,
for scalar outputs (m = 1), the answer is a crossing of two parabolas,
found from every pair's roots and weighted by its zero-slope condition;
the gap decides.  Then the exact active-set stage
(:func:`mmxest.kkt.newton_stage`): from the top piece's vertex (which
answers when the dominance test lost it to rounding), pieces enter and
leave a set of at most m + 1 whose optimality conditions Newton's method
solves, until no piece lies above the set's level; its gaps are at
rounding level.  Failing that, a monotone Newton ascent on phi
(:func:`mmxest.kkt.dual_ascent`) starts from the stage's best weights and
runs, face by face of the simplex, until its gap certifies or no piece
lies above phi.  A gap that is not finite (a NaN piece) never certifies.

The minimizer yhat* is unique (every W_i is positive definite); the
certifying weights lam need not be when more than m+1 pieces are active.
The last two stages run on the pieces sorted into one canonical order, so
that their weights do not depend on the order they were given in.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInput, NoConvergence
from .filter_bank import FilterBankState
from .kkt import certify, dual_ascent, newton_stage, piece_values

SOLVE_TOL = 1e-8
ACTIVE_THRESHOLD = 1e-6


class QuadraticPieces(NamedTuple):
    """K stacked pieces f_i(yhat) = |yhat - centers[i]|^2_{W[i]} + offsets[i]:
    W (K, m, m) symmetric positive definite, centers (K, m), offsets (K,).
    An immutable record."""

    W: np.ndarray
    centers: np.ndarray
    offsets: np.ndarray


class MinimaxEstimate(NamedTuple):
    """Solution of the min-max program with its optimality certificate; an
    immutable record.

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
    if not gains.bank_feasible[state.col]:
        gains.require_feasible(state.t)
    return QuadraticPieces(W=gains.W[:, state.col], centers=state.yhat,
                           offsets=-gains.gamma_sq * state.c)


def _dominant(W, centers, offsets):
    """The first top piece i if f_j(center_i) <= offset_i for every j, else None.

    Since f_j >= offset_j, only pieces with the largest offset qualify, and
    only the first of them, i, needs testing: another top piece j qualifies
    iff f_j(center_i) = offset_i, i.e. iff center_j = center_i, and then its
    row is row i.  So every top piece qualifies if row i passes, else none.
    For each such i, J* = offset_i: center_i reaches it and f_i alone cannot
    go lower; uniform weights on all of them certify it with gap 0.  Row i
    passes in one pass iff the maximum of its piece values, NaN if any is,
    is at most offset_i.
    """
    i = int(offsets.argmax())
    d = centers[i] - centers
    if np.maximum.reduce(np.einsum("ki,kij,kj->k", d, W, d) + offsets) <= offsets[i]:
        return i
    return None


def _crossing(W, centers, offsets):
    """The lowest crossing of two scalar pieces (m = 1), if it certifies.

    Without a dominant vertex, the envelope is lowest where two parabolas on
    it cross with slopes g_i <= 0 <= g_j.  Each pair's roots of f_i - f_j =
    A y^2 + B y + C come from the stable quadratic formula; swapping i and j
    negates A, B and C exactly, so the roots do not depend on the order of
    the pieces.  The lowest such crossing gets lam_i g_i + lam_j g_j = 0, and
    pairs tied at it share equally.  Returns (yhat, lam, gap, 0) if the gap
    is within SOLVE_TOL, else None.
    """
    a, c, o = W[:, 0, 0], centers[:, 0], offsets
    b, h = a * c, a * c * c + o
    # Arrays over [root, i, j]; a diagonal pair has A = B = C = 0.
    A, B, C = a[:, None] - a, -2.0 * (b[:, None] - b), h[:, None] - h
    with np.errstate(all="ignore"):  # no real root, A = 0 or q = 0: not finite
        q = -0.5 * (B + np.copysign(np.sqrt(B * B - 4.0 * A * C), B))
        y = np.stack((q / A, C / q))
        gi, gj = 2.0 * a[:, None] * (y - c[:, None]), 2.0 * a * (y - c)
        fi, fj = a[:, None] * (y - c[:, None]) ** 2 + o[:, None], a * (y - c) ** 2 + o
        env = (a * (y[..., None] - c) ** 2 + o).max(axis=-1)
        on = (np.maximum(fi, fj) == env) & (np.sign(gi) != np.sign(gj))  # a kink
        best = env[on].min(initial=np.inf)
        if best < np.inf:
            tie = on & (env == best)  # (i, j) gives lam_i, (j, i) at the same root lam_j
            lam = np.where(tie, gj / (gj - gi), 0.0).sum(axis=(0, 2))
            lam /= lam.sum()
            yhat, upper, lower = certify(lam, y[tie].min(keepdims=True), W, centers, offsets)
            if upper - lower <= SOLVE_TOL:
                return yhat, lam, upper - lower, 0
    return None


def _copies(W, centers, offsets):
    """Index of each piece's first exact copy (itself if none), or None when
    all pieces differ; a piece with a NaN copies nothing."""
    same = offsets[:, None] == offsets
    np.fill_diagonal(same, False)
    if not same.any():
        return None
    K = len(offsets)
    same &= (W.reshape(K, 1, -1) == W.reshape(1, K, -1)).all(axis=-1)
    same &= (centers[:, None] == centers).all(axis=-1)
    np.fill_diagonal(same, True)
    first = same.argmax(axis=1)
    return None if (first == np.arange(K)).all() else first


def _sorted_stages(W, centers, offsets):
    """(yhat, lam, gap, steps) of the active-set stage from the top piece's
    vertex if it certifies, else of the dual ascent from the stage's best
    weights.  Where the stage has none, or their gap is NaN (a piece that
    overflows), the ascent starts from uniform weights, at which such a
    piece shows as an infinite gap."""
    top = np.zeros(len(offsets))
    top[offsets.argmax()] = 1.0
    found = newton_stage(W, centers, offsets, top)
    if found is not None and found[2] <= SOLVE_TOL:
        return found + (0,)
    start = found[1] if found is not None and not math.isnan(found[2]) else np.ones(len(offsets))
    return dual_ascent(W, centers, offsets, start, SOLVE_TOL)


def solve(pieces: QuadraticPieces) -> MinimaxEstimate:
    """Solve min_yhat max_i f_i(yhat) with a certified duality gap <= SOLVE_TOL.

    The first stage that certifies answers: :func:`_dominant` (one pass, lam
    = e_i, gap 0; tied top pieces share uniform weights), for m = 1 :func:`_crossing`
    (the zero-slope weights of the lowest crossing of two pieces), then, on
    the pieces sorted into one canonical order, the active-set stage from
    the top piece's vertex and, if it does not certify, the dual ascent
    from its best weights (:func:`_sorted_stages`).  All but the first
    shift the offsets by their maximum, run on one copy of each distinct
    piece (:func:`_copies`), whose weight the copies then share equally,
    and return the better of their candidate and yhat(lam).  So the weights
    follow the pieces under any reordering.  ``iterations`` counts the
    ascent's steps: 0 when an exact stage answers.

    Raises
    ------
    InvalidInput
        If no pieces are given.
    NoConvergence
        If the ascent ends with a gap above SOLVE_TOL or not finite (a NaN
        piece); its last estimate is attached as ``last``.
    """
    W, centers, offsets = pieces
    K = len(offsets)
    if K == 0:
        raise InvalidInput("minimax program needs at least one piece", "pieces")

    i = _dominant(W, centers, offsets)
    if i is not None:
        lam = np.zeros(K)
        if np.count_nonzero(offsets == offsets[i]) == 1:  # lam = e_i
            lam[i] = 1.0
            active = (i,)
        else:  # tied top pieces, counted once the row has passed, share it
            active = np.flatnonzero(offsets == offsets[i])
            lam[active] = 1.0 / active.size
            active = tuple(active.tolist())
        return MinimaxEstimate(centers[i].copy(), float(offsets[i]), lam, active, 0.0, 0)

    o = offsets - offsets.max()
    first = _copies(W, centers, o)
    keep = slice(None) if first is None else np.flatnonzero(first == np.arange(K))
    W1, c1, o1 = W[keep], centers[keep], o[keep]
    found = _crossing(W1, c1, o1) if centers.shape[1] == 1 else None
    if found is None:
        # In one order of the pieces, whatever the caller's, so that the
        # weights follow the pieces even where they are not unique.
        order = np.lexsort(np.column_stack((W1.reshape(len(o1), -1), c1, o1)).T)
        yhat, lam, gap, iterations = _sorted_stages(W1[order], c1[order], o1[order])
        lam = lam[np.argsort(order)]
    else:
        yhat, lam, gap, iterations = found
    if first is not None:  # each copy gets an equal share of its piece's weight
        merged = np.zeros(K)
        merged[keep] = lam
        lam = merged[first] / np.bincount(first, minlength=K)[first]
    value = float(piece_values(yhat, W, centers, offsets).max())
    active = np.flatnonzero(lam > ACTIVE_THRESHOLD)
    estimate = MinimaxEstimate(yhat, value, lam, tuple(active.tolist()), gap, iterations)
    if not gap <= SOLVE_TOL:
        raise NoConvergence(f"duality gap {gap:.3e} > tol {SOLVE_TOL:.3e} after {iterations} "
                            f"ascent steps", last=estimate)
    return estimate
