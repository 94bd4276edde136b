"""Riccati recursions, Kalman gains, and gamma-feasibility certificates.

The covariance recursion propagated per model is

    P' = Q + F P F^T - F P H^T (R + H P H^T)^{-1} H P F^T,

started from P0.  Its fixed point is the (estimation-form) algebraic
Riccati equation, solved here by plain fixed-point iteration of the same
recursion so that the stationary filter provably agrees with the
time-varying one in the limit.

A covariance P is gamma-feasible for output map H when

    lambda_max(H P H^T) < gamma^2   (strictly),

which guarantees the inner maximization of the prediction game is concave
and the minimax weight matrix (I - gamma^{-2} H P H^T)^{-1} exists.
Boundary cases are infeasible: the weight matrix is singular there.

None of this depends on the data: it is computed once per run as a
:class:`GainSchedule`, with arrays stacked over the K models.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    FactorizationFailure,
    GammaInfeasible,
    HorizonExceeded,
    NoConvergence,
)
from .linalg import max_eig_sym, symmetrize, transpose
from .model_bank import ModelSet

ARE_TOL = 1e-10
ARE_MAX_ITER = 10000


def _inverse(S):
    """S^{-1}, batched; NaN where S is exactly singular, for :func:`_logdet_S` to report."""
    try:
        return np.linalg.inv(S)
    except np.linalg.LinAlgError:
        return np.stack([_inverse(M) for M in S]) if S.ndim > 2 else np.full_like(S, np.nan)


def _gain_terms(P, F, H, R):
    """S^{-1} for S = R + H P H^T, F P H^T and the gain F P H^T S^{-1}.

    Batched over leading axes; S is checked later, by :func:`_logdet_S`.
    """
    PHt = P @ transpose(H)
    S = symmetrize(R + H @ PHt)
    Sinv = _inverse(S)
    FPHt = F @ PHt
    return Sinv, FPHt, FPHt @ Sinv


def _next_cov(P, F, Q, FPHt, gain):
    return symmetrize(Q + F @ P @ transpose(F) - gain @ transpose(FPHt))


def _margins(P, H, gsq):
    """gamma^2 - lambda_max(H P H^T) over a [model, column] grid of P."""
    # no (K, N + 1, m, n) temporary H P; eigvalsh reads one triangle only
    HPHt = np.einsum("kij,ktjl,kml->ktim", H, P, H)
    return gsq - np.linalg.eigvalsh(HPHt)[..., -1]


def _logdet_S(Sinv, timed):
    """log det S from the eigenvalues of S^{-1} over a [model, column] grid;
    raises at the earliest column, then model, whose S is not positive definite."""
    w = np.linalg.eigvalsh(Sinv)
    ok = w[..., 0] > 0
    if not ok.all():
        t, i = (int(v) for v in np.argwhere(~ok.T)[0])
        where = f"model {i}, t={t}" if timed else f"model {i}"
        raise FactorizationFailure(
            f"{where}: innovation covariance R + H P H^T is not positive definite")
    return -np.log(w).sum(axis=-1)


def riccati_step(P, F, H, Q, R) -> np.ndarray:
    """One step of the covariance recursion; output is symmetrized."""
    _, FPHt, gain = _gain_terms(P, F, H, R)
    return _next_cov(P, F, Q, FPHt, gain)


def kalman_gain(P, F, H, R) -> np.ndarray:
    """Gain K = F P H^T (R + H P H^T)^{-1}."""
    return _gain_terms(P, F, H, R)[2]


def innovation_covariance(P, H, R) -> np.ndarray:
    """S = R + H P H^T, symmetrized."""
    return symmetrize(R + H @ P @ H.T)


def check_gamma_feasibility(P, H, gamma) -> bool:
    """True iff lambda_max(H P H^T) < gamma^2, strictly."""
    return max_eig_sym(H @ P @ H.T) < gamma * gamma


@dataclass(frozen=True)
class GainSchedule:
    """Per-model covariances, gains and certificates, stacked over the bank.

    Arrays are indexed [model, column].  With ``horizon`` N, ``P`` and
    ``margin`` have N + 1 columns (t = 0..N), ``Sinv`` (S^{-1}) and
    ``logdet_S`` N columns.  A stationary schedule (``horizon`` None) has one
    column of each, used at every t, and the per-model AreSolution in
    ``solutions``.  ``margin`` is gamma^2 - lambda_max(H P H^T): model i is
    gamma-feasible at t iff it is positive.  Gains and S are not stored;
    :meth:`gain` and :meth:`innovation_cov` rebuild them from P and the
    ``models`` the schedule was computed for.
    """

    horizon: int | None
    gamma_sq: float
    models: ModelSet
    P: np.ndarray
    Sinv: np.ndarray
    logdet_S: np.ndarray
    margin: np.ndarray
    solutions: tuple = ()

    @property
    def n_models(self):
        return self.P.shape[0]

    @property
    def n_states(self):
        return self.P.shape[-1]

    @property
    def n_outputs(self):
        return self.Sinv.shape[-1]

    @property
    def stationary(self):
        return self.horizon is None

    @property
    def feasible(self) -> np.ndarray:
        return self.margin > 0

    def column(self, t: int, terminal: bool = False) -> int:
        """Column holding time t: gain data for t < N, covariances also at t = N."""
        if self.stationary:
            return 0
        if not 0 <= t <= (self.horizon if terminal else self.horizon - 1):
            raise HorizonExceeded(f"no {'covariance' if terminal else 'gain'} at t={t}; "
                                  f"horizon is {self.horizon}")
        return t

    def cov(self, t, i) -> np.ndarray:
        return self.P[i, self.column(t, terminal=True)]

    def gain(self, t, i) -> np.ndarray:
        """Kalman gain F P H^T S^{-1} of model i at time t."""
        m = self.models
        return _gain_terms(self.P[i, self.column(t)], m.F[i], m.H[i], m.R)[2]

    def innovation_cov(self, t, i) -> np.ndarray:
        return innovation_covariance(self.P[i, self.column(t)], self.models.H[i], self.models.R)

    def lambda_max(self, t) -> np.ndarray:
        """lambda_max(H_i P_{t,i} H_i^T) for every model, read off the margins."""
        return self.gamma_sq - self.margin[:, self.column(t, terminal=True)]

    def require_feasible(self, t=None) -> None:
        """Raise :class:`GammaInfeasible` at the earliest (t, model) whose
        margin is not positive; only time ``t`` is checked when given."""
        margin = self.margin if t is None else self.margin[:, self.column(t, terminal=True), None]
        if margin.min() > 0:
            return
        col, i = (int(v) for v in np.argwhere(~(margin.T > 0))[0])
        if t is None and not self.stationary:
            t = col
        lam = self.gamma_sq - float(margin[i, col])
        raise GammaInfeasible(
            f"model {i}" + ("" if t is None else f" at t={t}")
            + f": lambda_max(H P H^T) = {lam!r} >= gamma^2 = {self.gamma_sq!r}",
            lambda_max=lam, gamma_sq=self.gamma_sq, model=i, t=t)


@dataclass(frozen=True)
class AreSolution:
    """Fixed point of the Riccati recursion with convergence metadata."""

    P: np.ndarray
    iterations: int
    residual: float


def run_recursion(models: ModelSet, N: int) -> GainSchedule:
    """Propagate the Riccati recursions of all K models from P0 over t = 0..N.

    Each time step is one batched update over the bank.  After the loop,
    every S is checked at once (the earliest failure is raised) and margins
    are recorded at every t, the terminal one included, without raising;
    see :meth:`GainSchedule.require_feasible`.
    """
    if N < 0:
        raise ValueError(f"horizon must be >= 0, got {N}")
    K, n, m = models.K, models.n, models.m
    P = np.empty((K, N + 1, n, n))
    Sinv = np.empty((K, N, m, m))
    Pt = np.broadcast_to(models.P0, (K, n, n))
    for t in range(N):
        P[:, t] = Pt
        Sinv[:, t], FPHt, gain = _gain_terms(Pt, models.F, models.H, models.R)
        Pt = _next_cov(Pt, models.F, models.Q, FPHt, gain)
    P[:, N] = Pt
    logdet_S = _logdet_S(Sinv, timed=True)
    gsq = models.gamma ** 2
    return GainSchedule(horizon=N, gamma_sq=gsq, models=models, P=P, Sinv=Sinv,
                        logdet_S=logdet_S, margin=_margins(P, models.H, gsq))


def solve_are(F, H, Q, R, P_init, tol: float = ARE_TOL, max_iter: int = ARE_MAX_ITER) -> AreSolution:
    """Solve the stationary Riccati equation by fixed-point iteration.

    Iterates :func:`riccati_step` from ``P_init`` until the max-abs change
    is below ``tol``; the reported residual is the max-abs defect of the
    fixed-point equation at the returned iterate and is required to be
    within ``tol`` as well.

    Raises
    ------
    NoConvergence
        If ``max_iter`` steps do not reach tolerance (the last iterate is
        attached for diagnostics), or the iteration diverges to non-finite
        values.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    P = np.atleast_2d(np.asarray(P_init, dtype=float))
    F = np.atleast_2d(np.asarray(F, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    # overflow is a handled outcome here, not a warning-worthy event
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            Pn = riccati_step(P, F, H, Q, R)
            if not np.all(np.isfinite(Pn)):
                raise NoConvergence(f"Riccati iteration diverged after {it} steps", last=P)
            delta = float(np.max(np.abs(Pn - P)))
            P = Pn
            if delta < tol:
                residual = float(np.max(np.abs(riccati_step(P, F, H, Q, R) - P)))
                if residual <= tol:
                    return AreSolution(P=P, iterations=it, residual=residual)
    raise NoConvergence(f"no fixed point within {max_iter} iterations", last=P)


def stationary_gains(models: ModelSet, tol: float = ARE_TOL, max_iter: int = ARE_MAX_ITER) -> GainSchedule:
    """Solve the per-model AREs from P0 and package them as a length-1 schedule."""
    solutions = []
    for i in range(models.K):
        try:
            sol = solve_are(models.F[i], models.H[i], models.Q, models.R,
                            models.P0, tol=tol, max_iter=max_iter)
        except NoConvergence as exc:
            raise NoConvergence(f"model {i}: {exc}", last=exc.last) from None
        solutions.append(sol)
    P = np.stack([sol.P for sol in solutions])[:, None]
    Sinv = _gain_terms(P, models.F[:, None], models.H[:, None], models.R)[0]
    gsq = models.gamma ** 2
    return GainSchedule(horizon=None, gamma_sq=gsq, models=models, P=P, Sinv=Sinv,
                        logdet_S=_logdet_S(Sinv, timed=False),
                        margin=_margins(P, models.H, gsq), solutions=tuple(solutions))
