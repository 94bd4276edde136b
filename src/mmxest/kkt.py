"""Weak-duality kernels of the min-max game, its exact active-set stage and
the dual ascent behind it.

:func:`inner_argmin` gives the dual's inner minimizer y(lam),
:func:`piece_values` the pieces f_i(y) = |y - c_i|^2_{W_i} + o_i and
:func:`certify` the bounds phi(lam) <= J* <= max_i f_i(y) (see
:mod:`mmxest.minimax`); every stage of :func:`mmxest.minimax.solve`
certifies with them.

:func:`newton_stage` solves the epigraph form min s s.t. f_i(y) <= s by
an active set.  With the pieces of a set A at the level s, the optimality
conditions

    f_i(y) = s  (i in A),   sum_A lam_i grad f_i(y) = 0,   sum_A lam_i = 1

are |A| + m + 1 equations in (y, s, lam_A), square and, for |A| <= m + 1
pieces with independent gradients, nonsingular; Newton's method converges on
them quadratically, so a certificate comes out at rounding level.  The stage
keeps |A| <= m + 1, and the weights it returns are the unique ones of that
set.

:func:`dual_ascent` climbs the concave dual phi face by face of the simplex
with the same conditions, on any number of pieces and from any weights.
"""
from __future__ import annotations

import math

import numpy as np


def inner_argmin(lam, W, centers):
    """y(lam) = (sum lam_i W_i)^{-1} sum lam_i W_i center_i."""
    A = np.einsum("k,kij->ij", lam, W)
    b = np.einsum("k,kij,kj->i", lam, W, centers)
    return np.linalg.solve(A, b)


def piece_values(y, W, centers, offsets):
    d = y[None, :] - centers
    return np.einsum("ki,kij,kj->k", d, W, d) + offsets


def certify(lam, y, W, centers, offsets):
    """Weak-duality bounds for weights lam on the simplex: (yhat, upper, lower).

    ``lower`` is phi(lam); ``upper`` is max_i f_i(yhat), yhat being the
    better of yhat(lam) and the candidate ``y``.
    """
    y_lam = inner_argmin(lam, W, centers)
    f = piece_values(y_lam, W, centers, offsets)
    upper, upper_y = float(f.max()), float(piece_values(y, W, centers, offsets).max())
    yhat, upper = (y, upper_y) if upper_y < upper else (y_lam, upper)
    return yhat, upper, float(lam @ f)


def _dual(lam, W, centers, offsets):
    """(y(lam), phi(lam)) for weights lam on the pieces given, scaled to sum 1."""
    y = inner_argmin(lam, W, centers)
    return y, float(lam @ piece_values(y, W, centers, offsets) / lam.sum())


def _kkt(y, s, lam, W, centers, offsets):
    """Residual and matrix of the optimality conditions of the pieces given,
    in the unknowns (y, s, lam): rows sum lam_i grad f_i, 1 - sum lam_i and
    f_i - s.  The matrix is symmetric."""
    a, m = centers.shape
    d = y - centers
    g = (W @ (d + d)[:, :, None])[:, :, 0]
    res = np.empty(m + 1 + a)
    res[:m] = lam @ g
    res[m] = 1.0 - lam.sum()
    res[m + 1:] = 0.5 * (d * g).sum(axis=1) + offsets - s
    J = np.zeros((m + 1 + a, m + 1 + a))
    J[:m, :m] = ((lam + lam) @ W.reshape(a, m * m)).reshape(m, m)
    J[m + 1:, :m] = g
    J[:m, m + 1:] = g.T
    J[m, m + 1:] = J[m + 1:, m] = -1.0
    return res, J


def _newton(lam, W, centers, offsets):
    """Newton steps on the optimality conditions of the pieces given, from
    y(lam) and s = phi(lam), while the residual's largest entry decreases.
    Far from the solution the linearized y can overshoot where the weights
    do not, so a first step that does not lower the residual is retried from
    y(lam) of its new weights.  Returns (y, s, lam, J) at the smallest
    residual, J the matrix there, or None when the first residual is not
    finite."""
    m = centers.shape[1]
    y, s = (centers[0], offsets[0]) if len(lam) == 1 else _dual(lam, W, centers, offsets)
    kept, smallest, steps = None, math.inf, 0
    while True:
        res, J = _kkt(y, s, lam, W, centers, offsets)
        size = float(np.abs(res).max())
        if not size < smallest:
            if steps != 1:
                return kept
            y, s = _dual(lam, W, centers, offsets)
            steps += 1
            continue
        kept, smallest = (y, s, lam, J), size
        if size == 0.0:
            return kept
        try:
            step = np.linalg.solve(J, res)
        except np.linalg.LinAlgError:
            return kept
        y, s, lam = y - step[:m], s - step[m], lam - step[m + 1:]
        steps += 1


def _enter(j, active, y, s, lam, J, W, centers, offsets):
    """Active set and starting weights once piece j, above the level s at y,
    enters the set whose optimality conditions have matrix J there.

    Along the linearized conditions j's weight t grows from 0 and the
    weights of the set move by -t r, until f_j reaches the level (j joins)
    or a weight reaches 0.  That piece leaves if the set already has m + 1
    pieces (their gradients span the space, so y stays and only the weights
    trade) or if phi at the new weights exceeds s; otherwise the linear model
    has gone too far, and j joins with that piece kept at weight 0.  After a
    piece leaves, the conditions are linearized again at y(lam).  Returns
    (set, weights), or (None, None) when no step length is finite.
    """
    m = len(y)
    t_j = 0.0
    while True:
        d = y - centers[j]
        Wd = W[j] @ d
        b = np.zeros(len(J))
        b[:m], b[m] = 2.0 * Wd, -1.0
        step = np.linalg.solve(J, b)
        r, curv = step[m + 1:], float(b @ step)
        t_add = (float(d @ Wd) + offsets[j] - s) / curv if curv > 0.0 else math.inf
        ratio = np.where(r > 0.0, lam / r, math.inf)
        k = int(ratio.argmin())
        t = min(t_add, ratio[k])
        if not t < math.inf:
            return None, None
        lam, t_j = lam - t * r, t_j + t
        joined = active + [j], np.append(lam, t_j)
        if t == t_add:
            return joined
        y, phi = _dual(joined[1], W[joined[0]], centers[joined[0]], offsets[joined[0]])
        if len(active) <= m and not phi > s:
            return joined
        active, lam, s = active[:k] + active[k + 1:], np.delete(lam, k), phi
        if not active:
            return [j], np.array([t_j])
        J = _kkt(y, s, lam, W[active], centers[active], offsets[active])[1]


def newton_stage(W, centers, offsets):
    """The active-set stage from the top piece's vertex: (yhat, weights, gap)
    for the best weights it reached, or None if it reached none.

    It starts from the first piece of largest offset alone, at weight 1.
    Each round solves the optimality conditions of the active set by Newton
    from y(lam) and s = phi(lam) (:func:`_newton`); while a weight comes out
    negative, that piece leaves and the round repeats on the rest.  The
    round's s must exceed the last round's and its weights be nonnegative,
    or the stage ends.  If no piece lies above s at the round's y the stage
    ends; otherwise the highest piece enters (:func:`_enter`) and the next
    round starts.  The stage has no tolerance or iteration count of its
    own: the rounds end when no piece lies above s or s stops increasing,
    and the caller decides whether the gap :func:`certify` gives is small
    enough.
    """
    active, lam = [int(offsets.argmax())], np.ones(1)
    best, level = None, -math.inf
    with np.errstate(all="ignore"):  # a failed round shows in s and the gap
        try:
            while True:
                kept = _newton(lam, W[active], centers[active], offsets[active])
                while kept is not None and kept[2].min() < 0.0 and len(active) > 1:
                    k = int(kept[2].argmin())
                    active = active[:k] + active[k + 1:]
                    kept = _newton(np.delete(kept[2], k), W[active], centers[active],
                                   offsets[active])
                if kept is None:
                    break
                y, s, lam, J = kept
                if not (s > level and lam.min() >= 0.0):
                    break
                best, level = (active, y, lam), s
                f = piece_values(y, W, centers, offsets)
                f[active] = -math.inf
                j = int(f.argmax())
                if not f[j] > s:
                    break
                active, lam = _enter(j, active, y, s, lam, J, W, centers, offsets)
                if active is None:
                    break
        except np.linalg.LinAlgError:  # a singular system ends the stage
            pass
        if best is None:
            return None
        active, y, lam = best
        weights = np.zeros(len(offsets))
        weights[active] = lam / lam.sum()
        yhat, upper, lower = certify(weights, y, W, centers, offsets)
    return yhat, weights, upper - lower


def dual_ascent(W, centers, offsets, lam, tol):
    """Monotone Newton ascent on phi from weights lam: (yhat, weights, gap,
    steps) where it ends.

    On the face of pieces A with positive weight, each step follows the
    lam-part of Newton's step (:func:`_kkt` at (y(lam), phi(lam), lam)) or,
    where [g^T; 1^T] has dependent columns, its null vector, oriented so
    that phi does not fall.  A ratio test stops the step where a weight
    reaches 0, and that piece leaves A; a Newton step is at most 1 and is
    halved until phi rises.  Once the rise it predicts is within phi's
    rounding, the full step is taken while a piece leaves or the spread
    max f_A - min f_A falls; otherwise the face is at its optimum.  There
    the ascent ends if the gap is within ``tol``, no piece lies above phi
    or phi has not risen since the last face optimum; else the highest
    piece enters with weight 0.  A gap that is not finite ends it too.
    """
    eps = np.finfo(float).eps
    m = centers.shape[1]

    def at(lam):
        lam = lam / lam.sum()
        y = inner_argmin(lam, W, centers)
        f = piece_values(y, W, centers, offsets)
        return lam, y, f, float(lam @ f)

    lam, y, f, phi = at(lam)
    face, level, steps = lam > 0.0, -math.inf, 0
    while math.isfinite(gap := float(f.max()) - phi):
        A = np.flatnonzero(face)
        res, J = _kkt(y, phi, lam[A], W[A], centers[A], offsets[A])
        _, sv, vt = np.linalg.svd(J[:m + 1, m + 1:])
        null = np.count_nonzero(sv > sv.max() * len(J) * eps) < len(A)
        d = vt[-1] if null else -np.linalg.solve(J, res)[m + 1:]
        rise = float(d @ (f[A] - phi))
        if null and rise < 0.0:
            d, rise = -d, -rise
        shrink = np.flatnonzero(d < 0.0)
        ratios = lam[A[shrink]] / -d[shrink]
        reach = ratios.min(initial=math.inf)

        def step(alpha):
            trial = lam.copy()
            trial[A] = np.maximum(lam[A] + alpha * d, 0.0)
            if alpha == reach:
                trial[A[shrink[ratios.argmin()]]] = 0.0
            return at(trial)

        alpha = full = reach if null else min(1.0, reach)
        trial = first = step(full)
        rounding = eps * float(lam @ (np.abs(f) + np.abs(offsets)))
        while not trial[3] > phi and alpha * rise > rounding:
            alpha *= 0.5
            trial = step(alpha)
        if not (trial[3] > phi and alpha * rise > rounding):
            trial = first
            if full < reach and not np.ptp(first[2][A]) < np.ptp(f[A]):  # a face optimum
                j = int(np.where(face, -math.inf, f).argmax())
                if gap <= tol or face[j] or not f[j] > phi > level:
                    break
                level, face[j] = phi, True
                continue
        lam, y, f, phi = trial
        face = lam > 0.0
        steps += 1
    yhat, upper, lower = certify(lam, y, W, centers, offsets)
    return yhat, lam, upper - lower, steps
