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
the common case once the bank has singled out a model.  For finite scalar
pieces (m = 1) the check runs on Python floats, read from the arrays
once, in the same arithmetic as the array row.  Otherwise exact
copies of a piece are merged into one, and the copies share its weight
equally, so their weights do not depend on the order of the pieces.  Then,
for scalar outputs (m = 1), the active-pair walk: from the top piece's
vertex, the highest piece above the level enters a set of at most two,
whose new point (the entering piece's vertex or its crossing with a piece
of the set) is solved in closed form, until no piece lies above; the
answer is a crossing of two parabolas weighted by its zero-slope
condition, and the gap decides.  Each round is O(K).  Then the exact
active-set stage
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
from .kkt import dual_ascent, newton_stage, piece_values

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
    record = gains.columns[state.col]
    if not record.feasible:
        gains.require_feasible(state.t)
    return QuadraticPieces(W=record.W, centers=state.yhat, offsets=-gains.gamma_sq * state.c)


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
    q = np.einsum("ki,kij,kj->k", d, W, d)
    q += offsets
    if np.maximum.reduce(q) <= offsets[i]:
        return i
    return None


def _vertex(centers, i, o):
    """The answer at dominant piece i's center, J* = o[i] (o a list): lam =
    e_i, or equal weights on the top pieces tied with it."""
    top, lam = o[i], np.zeros(len(o))
    if o.count(top) == 1:
        lam[i], active = 1.0, (i,)
    else:  # tied top pieces, counted once the row has passed, share it
        active = tuple([k for k, v in enumerate(o) if v == top])
        lam[list(active)] = 1 / len(active)
    return MinimaxEstimate(centers[i].copy(), top, lam, active, 0.0, 0)


def _scalar(W, centers, offsets):
    """The scalar pieces (m = 1) as three lists of Python floats, a = W[:, 0,
    0], c = centers[:, 0] and o = offsets, if their sum is finite (no piece
    inf or NaN or near overflow), else None."""
    if centers.shape[1] != 1:
        return None
    a, c, o = W.ravel().tolist(), centers.ravel().tolist(), offsets.tolist()
    total = sum(a) + sum(c) + sum(o)
    return (a, c, o) if total - total == 0.0 else None


def _roots(i, j, a, c, o):
    """Where scalar pieces i and j cross: the real roots of f_i - f_j = A y^2
    + B y + C, from the stable quadratic formula.  Swapping i and j negates
    A, B and C exactly, so the roots do not depend on the order of the pair."""
    A = a[i] - a[j]
    B = -2.0 * (a[i] * c[i] - a[j] * c[j])
    C = (a[i] * c[i] * c[i] + o[i]) - (a[j] * c[j] * c[j] + o[j])
    disc = B * B - 4.0 * A * C
    if not disc >= 0.0:
        return ()
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    return ((q / A,) if A else ()) + ((C / q,) if q else ())


def _envelope(y, a, c, o):
    """[f_k(y)] of every scalar piece."""
    return [a_k * ((d := y - c_k) * d) + o_k for a_k, c_k, o_k in zip(a, c, o)]


def _level(y, ks, a, c, o):
    """max f_k(y) over the scalar pieces ks, in :func:`_envelope`'s arithmetic."""
    return max([a[k] * ((d := y - c[k]) * d) + o[k] for k in ks])


def _values(y, a, c, o):
    """[f_k(y)] of every scalar piece in :func:`mmxest.kkt.piece_values`'
    arithmetic, (d a) d + o, one piece at a time."""
    return [(d := y - c_k) * a_k * d + o_k for a_k, c_k, o_k in zip(a, c, o)]


def _pair_walk(a, c, o):
    """The active-pair walk on :func:`_scalar`'s lists of the distinct
    pieces, offsets shifted by their maximum: (yhat, lam, gap) as Python
    floats and a list if it certifies within SOLVE_TOL, else None.

    The walk keeps a set of one or two pieces and the point y where the max
    of the set is lowest, its level.  It starts at the top piece's vertex.
    While some piece lies above the level at y, the highest one, j, enters:
    the set's new point is j's vertex or a crossing of j with a piece of the
    set, whichever gives the three pieces the lowest max, and the pieces
    that define it are the new set.  That max exceeds the old level, so no
    set comes back, and each round evaluates each piece a bounded number of
    times; where rounding keeps the level from rising the walk stops, and
    the gap decides.  When no piece lies above the level, y minimizes the
    envelope.

    The answer is the lowest crossing, among the pieces within rounding of
    the level at y (the set, its copies and ties), of two pieces on the
    envelope with slopes of opposite sign, weighted by lam_i g_i + lam_j
    g_j = 0; pairs tied at it share equally and yhat starts from the least
    tied root.  Without such a crossing a walk that ended at a vertex
    answers with lam = e_j.  The pieces at the level are taken in one
    canonical order, by (a, c, o), so the weights are accumulated and
    normalized, and y(lam) = sum (lam a) c / sum lam a summed, in the same
    order whatever the order of the pieces: yhat is the same to the bit.
    The weak-duality bounds are those of :func:`mmxest.kkt.certify`, piece
    by piece in its arithmetic.
    """
    top = o.index(max(o))
    pair, y, level = (top,), c[top], o[top]
    env = _envelope(y, a, c, o)
    s = max(env)
    while s > level:
        j = env.index(s)
        three = pair + (j,)
        new = (_level(c[j], three, a, c, o), c[j], (j,))
        for i in pair:
            for r in _roots(i, j, a, c, o):
                if (e := _level(r, three, a, c, o)) < new[0]:
                    new = (e, r, (i, j))
        rises = new[0] > level  # unless rounding stalls the walk
        level, y, pair = new
        env = _envelope(y, a, c, o)
        s = max(env)
        if not rises:
            break

    # The pieces at the level: within rounding of the set's lower piece, so
    # that walks ending beside one of two near-copies see both.
    floor = min([env[i] for i in pair])
    floor -= 64 * math.ulp(1.0) * (abs(floor) + max(map(abs, o)))
    at_level = sorted([k for k, v in enumerate(env) if v >= floor],
                      key=lambda k: (a[k], c[k], o[k]))
    best, ties = math.inf, []
    for n, i in enumerate(at_level):
        for k in at_level[n + 1:]:
            for r in _roots(i, k, a, c, o):
                e = _level(r, (i, k), a, c, o)
                if e > best or max(_envelope(r, a, c, o)) != e:
                    continue
                gi, gk = 2.0 * a[i] * (r - c[i]), 2.0 * a[k] * (r - c[k])
                if (gi > 0.0) - (gi < 0.0) == (gk > 0.0) - (gk < 0.0):
                    continue
                if e < best:
                    best, ties = e, []
                ties.append((r, i, gk / (gk - gi), k, gi / (gi - gk)))
    lam = [0.0] * len(a)
    if ties:
        for _, i, lam_i, k, lam_k in ties:
            lam[i] += lam_i
            lam[k] += lam_k
        y = min([t[0] for t in ties])
    elif len(pair) == 1:
        lam[pair[0]] = 1.0
    else:
        return None
    support = [k for k in at_level if lam[k]]
    total = sum([lam[k] for k in support])
    for k in support:
        lam[k] /= total

    den = sum([lam[k] * a[k] for k in support])
    if not den > 0.0:
        return None
    y_lam = sum([lam[k] * a[k] * c[k] for k in support]) / den
    f_lam = _values(y_lam, a, c, o)
    upper, upper_y = max(f_lam), max(_values(y, a, c, o))
    yhat, upper = (y, upper_y) if upper_y < upper else (y_lam, upper)
    gap = upper - sum([lam[k] * f_lam[k] for k in support])
    if not gap <= SOLVE_TOL:
        return None
    return yhat, lam, gap


def _copies(W, centers, offsets):
    """Index of each piece's first exact copy (itself if none), or None when
    all pieces differ; a piece with a NaN copies nothing.  Pieces whose
    offsets all differ are told apart by their offsets alone."""
    K = len(offsets)
    if len(set(offsets.tolist())) == K:  # tolist makes each NaN its own object
        return None
    same = offsets[:, None] == offsets
    same &= (W.reshape(K, 1, -1) == W.reshape(1, K, -1)).all(axis=-1)
    same &= (centers[:, None] == centers).all(axis=-1)
    np.fill_diagonal(same, True)  # a NaN piece is its own first copy
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
    = e_i, gap 0; tied top pieces share uniform weights), for m = 1
    :func:`_pair_walk` (a walk over sets of at most two pieces, O(K) per
    round, ending at the zero-slope weights of the lowest crossing), then, on
    the pieces sorted into one canonical order, the active-set stage from
    the top piece's vertex and, if it does not certify, the dual ascent
    from its best weights (:func:`_sorted_stages`).  All but the first
    shift the offsets by their maximum, run on one copy of each distinct
    piece (:func:`_copies`), whose weight the copies then share equally,
    and return the better of their candidate and yhat(lam).  So the weights
    follow the pieces under any reordering.  ``iterations`` counts the
    ascent's steps: 0 when an exact stage answers.  Finite scalar pieces
    (:func:`_scalar`) take the dominance check on Python floats, with the
    einsum row's decision to the bit; past it every set takes one path,
    :func:`_staged`.

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
    lists = _scalar(W, centers, offsets)
    if lists is None:
        i = _dominant(W, centers, offsets)
        o = None if i is None else offsets.tolist()
    else:
        a, c, o = lists
        i = o.index(max(o))  # the first top piece, as argmax; its row in einsum's order
        if not max(_values(c[i], a, c, o)) <= o[i]:
            i = None
    return _staged(W, centers, offsets) if i is None else _vertex(centers, i, o)


def _staged(W, centers, offsets):
    """:func:`solve` past the dominance check."""
    K = len(offsets)
    o = offsets - offsets.max()
    first = _copies(W, centers, o)
    keep = slice(None) if first is None else np.flatnonzero(first == np.arange(K))
    W1, c1, o1 = W[keep], centers[keep], o[keep]
    walk = _scalar(W1, c1, o1)
    found = None if walk is None else _pair_walk(*walk)
    if found is None:
        # In one order of the pieces, whatever the caller's, so that the
        # weights follow the pieces even where they are not unique.
        order = np.lexsort(np.column_stack((W1.reshape(len(o1), -1), c1, o1)).T)
        yhat, lam, gap, iterations = _sorted_stages(W1[order], c1[order], o1[order])
        lam = lam[np.argsort(order)]
    else:
        y, lam, gap = found
        if first is None:  # every piece walked: value and active set from Python lists
            value = max(_values(y, walk[0], walk[1], offsets.tolist()))
            active = tuple([k for k, v in enumerate(lam) if v > ACTIVE_THRESHOLD])
            return MinimaxEstimate(np.array([y]), value, np.array(lam), active, gap, 0)
        yhat, lam, iterations = np.array([y]), np.array(lam), 0
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
