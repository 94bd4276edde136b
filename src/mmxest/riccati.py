"""Riccati recursions, Kalman gains, and gamma-feasibility certificates.

The covariance recursion propagated per model is

    P' = Q + F P F^T - F P H^T (R + H P H^T)^{-1} H P F^T,

started from P0.  Its fixed point is the (estimation-form) algebraic
Riccati equation.  One loop iterates the recursion for both gain modes: the
stationary solution of a model is its time-varying recursion's settled
column, bit for bit, not an approximation of it.

A covariance P is gamma-feasible for output map H when

    lambda_max(H P H^T) < gamma^2   (strictly),

which guarantees the inner maximization of the prediction game is concave
and the minimax weight matrix (I - gamma^{-2} H P H^T)^{-1} exists.
Boundary cases are infeasible: the weight matrix is singular there.

None of this depends on the data: it is computed once per process for
each bank and horizon as a read-only :class:`GainSchedule`, with arrays
stacked over the K models.  Each model's time-varying recursion settles to
its fixed point within rounding after a transient (Anderson & Moore,
*Optimal Filtering*, 1979, ch. 4), and models settle at different steps.
Each model stays in the stack past its own settle step T_i, its P copied
forward, so its column T_i stands for every later t (see
:func:`run_recursion`).  The schedule keeps the recursion's t-major arrays
as they are, dense [column, model] stacks up to T = max_i T_i, and holds
nothing else per column, so memory grows with the slowest transient, not
with the horizon.
"""
from __future__ import annotations

import collections
import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import FactorizationFailure, GammaInfeasible, InvalidInput, NoConvergence
from .linalg import as_floats, symmetrize
from .model_bank import ModelSet

ARE_MAX_ITER = 10000
# Model i's recursion is settled once its max|P_{t+1} - P_t| has stayed
# within SETTLE_ULPS * eps * max|P_t| for SETTLE_STEPS consecutive steps.
SETTLE_ULPS = 16
SETTLE_STEPS = 3
LOG_2PI = float(np.log(2.0 * np.pi))
_ARE_ARGS = ("F", "H", "Q", "R", "P_init")


def _inverse(S):
    """S^{-1}, batched; NaN where S is exactly singular, for :func:`_schedule` to report."""
    try:
        return np.linalg.inv(S)
    except np.linalg.LinAlgError:
        return np.stack([_inverse(M) for M in S]) if S.ndim > 2 else np.full_like(S, np.nan)


def _gain_terms(P, F, H, R):
    """S^{-1} for S = R + H P H^T, F P H^T and the gain F P H^T S^{-1}.

    Batched over leading axes; S is checked later, by :func:`_schedule`.
    """
    PHt = P @ H.swapaxes(-1, -2)
    S = symmetrize(R + H @ PHt)
    Sinv = _inverse(S)
    FPHt = F @ PHt
    return Sinv, FPHt, FPHt @ Sinv


def _next_cov(P, F, Q, FPHt, gain):
    return symmetrize(Q + F @ P @ F.swapaxes(-1, -2) - gain @ FPHt.swapaxes(-1, -2))


def _certificates(P, H, gsq):
    """Margins gamma^2 - lambda_max(H P H^T) and minimax weights W = (I -
    gamma^{-2} H P H^T)^{-1} for a t-major stack of covariances, H[i] being
    the output map of P[t, i].

    W is NaN wherever the margin is not positive, so that an infeasible
    bank still yields a schedule; :meth:`GainSchedule.require_feasible`
    guards every reader.
    """
    # no (count, m, n) temporary H P; eigvalsh reads one triangle only
    HPHt = np.einsum("kij,tkjl,kml->tkim", H, P, H)
    margin = gsq - np.linalg.eigvalsh(HPHt)[..., -1]
    W = symmetrize(_inverse(np.eye(HPHt.shape[-1]) - HPHt / gsq))
    W[margin <= 0] = np.nan
    return margin, W


def _schedule(gamma, H, horizon, P, Sinv):
    """The schedule of the t-major stacks P[t, i] and Sinv[t, i], kept as they
    are, with each stacked P's certificates computed once.  log det S comes
    from the eigenvalues of S^{-1}; raises at the earliest t, and the lowest
    model there, whose S is not positive definite (a stationary stack names
    the model only)."""
    w = np.linalg.eigvalsh(Sinv)
    bad = np.argwhere(~(w[..., 0] > 0))
    if len(bad):
        t, i = bad[0]
        raise FactorizationFailure(
            f"model {i}{'' if horizon is None else f', t={t}'}: innovation covariance "
            "R + H P H^T is not positive definite")
    log_norm = H.shape[1] * LOG_2PI - np.log(w).sum(axis=-1)
    gsq = gamma ** 2
    margin, W = _certificates(P, H, gsq)
    bank_feasible = (margin > 0).all(axis=1)
    for a in (P, Sinv, log_norm, margin, bank_feasible, W):
        a.setflags(write=False)  # shared by every call with equal inputs
    return GainSchedule(horizon=horizon, gamma_sq=gsq, models=None, P=P, Sinv=Sinv,
                        log_norm=log_norm, margin=margin, bank_feasible=bank_feasible, W=W,
                        Ht=H.swapaxes(-1, -2))


def _check_args(args):
    """InvalidInput naming the first of F, H, Q, R, P_init (``args``) whose shape does
    not fit n = len(F) and m = len(H), or that has an entry not finite."""
    n, m = len(args[0]), len(args[1])
    for name, a, shape in zip(_ARE_ARGS, args, ((n, n), (m, n), (n, n), (m, m), (n, n))):
        if a.shape != shape:
            raise InvalidInput(f"{name} has shape {a.shape}, expected {shape}", name)
        if not np.isfinite(a).all():
            raise InvalidInput(f"{name} has a non-finite entry", name)


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """Per-model covariances, gains and certificates, stacked over the bank.

    Arrays are indexed [column, model]; :meth:`column` maps a time t to its
    column c, and a reader takes the column as ``X[c]``, a contiguous view.
    ``P`` is the prior covariance, ``Sinv`` the inverse innovation
    covariance S^{-1}, ``log_norm`` m log 2 pi + log det S, the log
    normalizer of the innovation's Gaussian density, ``margin`` gamma^2 -
    lambda_max(H P H^T) (model i is gamma-feasible at t iff it is positive),
    ``bank_feasible`` one flag per column, true iff every model's margin
    there is positive, and ``W`` the minimax weight (I - gamma^{-2} H P
    H^T)^{-1}, NaN where the margin is not positive.  ``Ht`` is the stacked
    H_i^T, which each estimator step reads instead of transposing H again.
    Every array is read-only, and equal banks share them all.

    With ``horizon`` N, the schedule holds the columns t = 0..T and serves
    column T for every later t: T = max_i T_i (see :func:`run_recursion`),
    or T = N (and ``Sinv``, ``log_norm`` stop at N - 1) when some model does
    not settle within N steps; otherwise every array has T + 1 columns.
    A stationary schedule (``horizon`` None) has one column, used at every
    t.  Gains are not stored; :meth:`gain` rebuilds them from P and the
    ``models`` the schedule was computed for.
    """

    horizon: int | None
    gamma_sq: float
    models: ModelSet
    P: np.ndarray
    Sinv: np.ndarray
    log_norm: np.ndarray
    margin: np.ndarray
    bank_feasible: np.ndarray
    W: np.ndarray
    Ht: np.ndarray

    @property
    def stationary(self):
        return self.horizon is None

    @property
    def feasible(self) -> np.ndarray:
        return self.margin > 0

    def column(self, t: int, terminal: bool = False) -> int:
        """Column holding time t >= 0: gain data for t < N, covariances also at
        t = N; times past the last stored column read that column."""
        if not isinstance(t, numbers.Integral) or isinstance(t, bool):
            raise InvalidInput(f"t must be an integer, got {t!r}", "t")
        if self.stationary:
            if t >= 0:
                return 0
            limit = "a stationary schedule starts at t=0"
        elif 0 <= t <= (self.horizon if terminal else self.horizon - 1):
            return min(t, self.P.shape[0] - 1)
        else:
            limit = f"horizon is {self.horizon}"
        raise InvalidInput(f"no {'covariance' if terminal else 'gain'} at t={t}; {limit}", "t")

    def _model(self, i) -> int:
        """Model index i, checked as :meth:`column` checks t."""
        K = self.P.shape[1]
        if not isinstance(i, numbers.Integral) or isinstance(i, bool) or not 0 <= i < K:
            raise InvalidInput(f"model index must be an integer in 0..{K - 1}, got {i!r}", "i")
        return i

    def cov(self, t, i) -> np.ndarray:
        return self.P[self.column(t, terminal=True), self._model(i)]

    def gain(self, t, i) -> np.ndarray:
        """Kalman gain F P H^T S^{-1} of model i at time t."""
        m, i = self.models, self._model(i)
        return _gain_terms(self.P[self.column(t), i], m.F[i], m.H[i], m.R)[2]

    def lambda_max(self, t) -> np.ndarray:
        """lambda_max(H_i P_{t,i} H_i^T) for every model, read off the margins."""
        return self.gamma_sq - self.margin[self.column(t, terminal=True)]

    def require_feasible(self, t=None) -> None:
        """Raise :class:`GammaInfeasible` at the earliest (t, model) whose
        margin is not positive; only time ``t`` is checked when given."""
        if t is None:
            if self.bank_feasible.all():
                return
            margin = self.margin
        else:
            col = self.column(t, terminal=True)
            if self.bank_feasible[col]:
                return
            margin = self.margin[col, None]
        col, i = (int(v) for v in np.argwhere(~(margin > 0))[0])
        if t is None and not self.stationary:
            t = col
        lam = self.gamma_sq - float(margin[col, i])
        raise GammaInfeasible(
            f"model {i}" + ("" if t is None else f" at t={t}")
            + f": lambda_max(H P H^T) = {lam!r} >= gamma^2 = {self.gamma_sq!r}",
            lambda_max=lam, gamma_sq=self.gamma_sq, model=i, t=t)


@dataclass(frozen=True, eq=False)
class AreSolution:
    """Fixed point of the Riccati recursion with convergence metadata."""

    P: np.ndarray
    iterations: int
    residual: float


def run_recursion(models: ModelSet, N: int) -> GainSchedule:
    """Propagate the Riccati recursions of all K models from P0 over t = 0..N.

    Each time step is one batched update over all K models.  Model i
    settles at the step T_i at which its max|P_{t+1} - P_t| has stayed
    within SETTLE_ULPS * eps * max|P_t| for the last SETTLE_STEPS steps;
    from then on it stays in the stack, its P copied forward, so its column
    T_i stands for every t > T_i.  Where model i's recursion contracts at
    rate rho_i, that clamp moves its P by about SETTLE_ULPS * eps / (1 -
    rho_i) relative to an unclamped recursion (1.2e-12 relative on a scalar
    model with F = 0.999, Q = 1e-6, R = 1).  The loop ends when every model
    has settled or at N, so the schedule has T + 1 columns, T = max_i T_i; a
    model that does not settle within N steps keeps all N + 1.  It also ends
    at the first t whose covariances are not all finite; that t's S check
    then raises.  The schedule keeps the loop's t-major stacks as its
    [column, model] arrays, with no copy and nothing per column.

    After the loop, every S is checked (the earliest failing t, and the
    lowest model there, is raised), and margins and weights are recorded
    without raising; see :meth:`GainSchedule.require_feasible`.

    Equal inputs share one schedule's arrays, computed once per process
    (the last 16 are kept); each call's ``models`` is the caller's.
    """
    if not isinstance(N, numbers.Integral) or isinstance(N, bool):
        raise InvalidInput(f"horizon must be an integer, got {N!r}", "N")
    if N < 0:
        raise InvalidInput(f"horizon must be >= 0, got {N}", "N")
    keys = ((a.shape, np.asarray(a, float).tobytes())
            for a in (models.F, models.H, models.Q, models.R, models.P0))
    shared = _run_recursion(*keys, models.gamma, int(N), SETTLE_ULPS, SETTLE_STEPS)
    return replace(shared, models=models)


def _iterate(F, H, Q, R, P0, N, settle_ulps, settle_steps, maxlen=None):
    """The recursion of :func:`run_recursion` on the models (F[i], H[i]) from
    P0: deques P, Sinv of the last ``maxlen`` (all if None) (K, ...) blocks,
    one per step t (P_t, S_t^{-1}), and the last step T, whose block is the
    first not all finite, or t = N's, without S_N^{-1}."""
    K, n = F.shape[:2]
    tol = settle_ulps * np.finfo(float).eps
    settled = None              # the settled models, once any has settled
    calm = 0                    # steps each model has stayed calm
    P, Sinv = collections.deque(maxlen=maxlen), collections.deque(maxlen=maxlen)
    Pt = np.broadcast_to(P0, (K, n, n))
    for t in range(N):
        P.append(Pt)
        Sinv_t, FPHt, gain = _gain_terms(Pt, F, H, R)
        Sinv.append(Sinv_t)
        size = np.abs(Pt)
        top = size.max()
        if not math.isfinite(top):
            break
        Pt_next = _next_cov(Pt, F, Q, FPHt, gain)
        if settled is not None:
            Pt_next[settled] = Pt[settled]  # a settled model's step is 0
        step = np.abs(Pt_next - Pt)
        # model i is calm within tol * max|P_t[i]| <= tol * top, so the (0, 0)
        # entries rule out most unsettled steps first, while none has settled
        if step[:, 0, 0].min() > tol * top:
            calm = 0
        else:
            ok = step.reshape(K, -1).max(axis=1) <= tol * size.reshape(K, -1).max(axis=1)
            calm = (calm + 1) * ok
            done = calm >= settle_steps
            if done.all():
                break
            if done.any():
                settled = done
                Pt_next[settled] = Pt[settled]  # P_{T_i} stands for every later t
        Pt = Pt_next
    else:
        t = N
        P.append(Pt)
    return P, Sinv, t


@functools.lru_cache(maxsize=16)
# a diverging bank overflows; _schedule reports the first (model, t) it breaks
@np.errstate(over="ignore", invalid="ignore")
def _run_recursion(F, H, Q, R, P0, gamma, N, settle_ulps, settle_steps):
    """:func:`run_recursion` on (shape, bytes) keys; a failure is not cached."""
    F, H, Q, R, P0 = (np.frombuffer(b).reshape(shape) for shape, b in (F, H, Q, R, P0))
    P, Sinv, _ = _iterate(F, H, Q, R, P0, N, settle_ulps, settle_steps)
    m = H.shape[1]
    return _schedule(gamma, H, N, np.stack(P),
                     np.stack(Sinv) if Sinv else np.empty((0, len(F), m, m)))


def solve_are(F, H, Q, R, P_init) -> AreSolution:
    """Solve the stationary Riccati equation by fixed-point iteration.

    Returns the covariance at which the recursion of :func:`run_recursion`,
    run on the one model from ``P_init``, settles: its column at the settle
    step T, bit for bit; ``iterations`` is T, and ``residual`` max|P' - P|
    for P' the recursion's next step from P.  Equal inputs return one
    shared solution, solved once per process; its P is read-only.

    Raises
    ------
    InvalidInput
        Naming the first argument not numbers, not finite or of a shape that does not fit.
    NoConvergence
        If the recursion does not settle within ARE_MAX_ITER steps (the last
        iterate is attached for diagnostics), or at its first iterate that is
        not finite (the one before it is attached).
    """
    args = (np.atleast_2d(as_floats(a, name)) for name, a in zip(_ARE_ARGS, (F, H, Q, R, P_init)))
    return _solve_are(*((a.shape, a.tobytes()) for a in args), ARE_MAX_ITER,
                      SETTLE_ULPS, SETTLE_STEPS)


@functools.lru_cache(maxsize=64)
# overflow is a handled outcome here, not a warning-worthy event
@np.errstate(over="ignore", invalid="ignore")
def _solve_are(F, H, Q, R, P, max_iter, settle_ulps, settle_steps):
    """:func:`solve_are` on (shape, bytes) keys; a NoConvergence is not cached."""
    F, H, Q, R, P = (np.frombuffer(b).reshape(shape) for shape, b in (F, H, Q, R, P))
    _check_args((F, H, Q, R, P))
    P, _, T = _iterate(F[None], H[None], Q, R, P, max_iter, settle_ulps, settle_steps, 2)
    if not np.isfinite(P[-1]).all():
        raise NoConvergence(f"Riccati iteration diverged after {T} steps", last=P[-2][0])
    if T == max_iter:
        raise NoConvergence(f"no fixed point within {max_iter} iterations", last=P[-1][0])
    P = P[-1][0]
    P.setflags(write=False)  # shared by every caller
    residual = float(np.max(np.abs(_next_cov(P, F, Q, *_gain_terms(P, F, H, R)[1:]) - P)))
    return AreSolution(P=P, iterations=T, residual=residual)


def stationary_gains(models: ModelSet) -> GainSchedule:
    """Solve the per-model AREs from P0 and package them as a length-1 schedule.

    Equal solutions and banks share one schedule's arrays, packaged once per
    process (the last 16 are kept); each call's ``models`` is the caller's.
    """
    P = []
    for i in range(models.K):
        try:
            P.append(solve_are(models.F[i], models.H[i], models.Q, models.R, models.P0).P)
        except NoConvergence as exc:
            raise NoConvergence(f"model {i}: {exc}", last=exc.last) from None
    keys = ((a.shape, np.asarray(a, float).tobytes())
            for a in (np.stack(P), models.F, models.H, models.R))
    return replace(_stationary_schedule(*keys, models.gamma), models=models)


@functools.lru_cache(maxsize=16)
def _stationary_schedule(P, F, H, R, gamma):
    """:func:`stationary_gains`' schedule on (shape, bytes) keys; a failure is not cached."""
    P, F, H, R = (np.frombuffer(b).reshape(shape) for shape, b in (P, F, H, R))
    return _schedule(gamma, H, None, P[None], _gain_terms(P, F, H, R)[0][None])
