"""Bank of per-model Kalman filters with accumulated prediction costs.

Each candidate model i runs the observer in measurement/time-update form

    xb_{t+1,i} = F_i (xb_{t,i} + P_{t,i} H_i^T S_{t,i}^{-1} e_i) + B_i u_t,
    c_{t+1,i}  = c_{t,i} + e_i^T S_{t,i}^{-1} e_i,   e_i = y_t - H_i xb_{t,i},

which is xb' = F xb + B u + K e with the Kalman gain K = F P H^T S^{-1}.
Covariances and inverse innovation covariances S^{-1} come from a
precomputed :class:`~mmxest.riccati.GainSchedule` (time-varying or
stationary), so a step advances all K filters with batched products and no
solve.  A state resolves its schedule column once, when it is made, and
computes its predictions H_i xb_i once, for every caller.  A step forms the
innovation once and records on the new state what it absorbed: the costs
e_i^T S_i^{-1} e_i and log det S_i, which is all the Bayesian update needs.
The accumulated cost c_{t,i} is the minimum disturbance energy needed to
reconcile model i with the data seen so far; it is the learning signal of
the prediction game.

The bank also exposes two verification devices: the forward dynamic
programming value function

    V_{t,i}(x) = |x - xb_{t,i}|^2_{P_{t,i}^{-1}} + c_{t,i},

and the worst-case state x* maximizing |yhat - H_i x|^2 - gamma^2 V_{t,i}(x).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatch, HorizonExceeded, IndexOutOfRange
from .linalg import spd_solve, transpose
from .riccati import GainSchedule


@dataclass(frozen=True)
class FilterBankState:
    """Snapshot of the filter bank at time t.

    ``xbreve`` stacks the K per-model estimates row-wise ((K, n) array) and
    ``c`` holds the K accumulated costs.  ``innovation_cost`` and
    ``innovation_logdet`` hold, per model, e^T S^{-1} e and log det S of the
    innovation the step into this state absorbed (zeros at t = 0, where
    nothing has been absorbed).  ``gains`` is the gain schedule in use; the
    model bank is ``gains.models``.  Instances are immutable; :func:`step`
    returns a fresh state.

    ``col``, the schedule column of time t, is resolved once, when the
    state is made (:class:`HorizonExceeded` past the horizon).
    """

    t: int
    xbreve: np.ndarray
    c: np.ndarray
    gains: GainSchedule
    innovation_cost: np.ndarray
    innovation_logdet: np.ndarray
    col: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "col", self.gains.column(self.t, terminal=True))

    @cached_property
    def yhat(self) -> np.ndarray:
        """Each model's output prediction H_i xb_i, (K, m), computed once; every
        caller gets this one array and must not write to it."""
        return (self.gains.models.H @ self.xbreve[:, :, None])[:, :, 0]


def init(gains: GainSchedule) -> FilterBankState:
    """Start the bank of ``gains.models`` at t = 0 with every estimate at
    xhat0 and zero cost."""
    models = gains.models
    xbreve = np.tile(models.xhat0, (models.K, 1))
    return FilterBankState(t=0, xbreve=xbreve, c=np.zeros(models.K), gains=gains,
                           innovation_cost=np.zeros(models.K),
                           innovation_logdet=np.zeros(models.K))


def innovations(state: FilterBankState, y: np.ndarray):
    """Whitened innovations S_i^{-1} e_i, e_i = y - H_i xb_i, as (K, m, 1), and
    their costs e_i^T S_i^{-1} e_i (K,)."""
    e = (y - state.yhat)[:, :, None]
    Sinv_e = state.gains.Sinv[:, state.col] @ e
    return Sinv_e, (transpose(e) @ Sinv_e)[:, 0, 0]


def step(state: FilterBankState, y, u=None) -> FilterBankState:
    """Advance every filter one step with measurement y (and known input u).

    The innovation is formed once; its costs and log det S travel on the
    returned state for :func:`~mmxest.bayes.bayes_step`.  The known input
    enters the state recursion only; it never contributes to the
    accumulated cost, since it is measured and carries no
    model-discriminating information.
    """
    gains = state.gains
    models = gains.models
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (models.m,):
        raise DimensionMismatch(f"y has shape {y.shape}, expected ({models.m},)")
    if u is not None:
        u = np.asarray(u, dtype=float).reshape(-1)
        if models.p == 0:
            raise DimensionMismatch("model set has no input channel but u was given")
        if u.shape != (models.p,):
            raise DimensionMismatch(f"u has shape {u.shape}, expected ({models.p},)")
    if state.t == gains.horizon:
        raise HorizonExceeded(f"no gain at t={state.t}; horizon is {gains.horizon}")
    col = state.col
    Sinv_e, cost = innovations(state, y)
    xbreve = (models.F @ (state.xbreve[:, :, None]
                          + gains.P[:, col] @ (transpose(models.H) @ Sinv_e)))[:, :, 0]
    if u is not None:
        xbreve = xbreve + models.B @ u
    return FilterBankState(t=state.t + 1, xbreve=xbreve, c=state.c + cost, gains=gains,
                           innovation_cost=cost, innovation_logdet=gains.logdet_S[:, col])


def value_function(state: FilterBankState, x, i: int) -> float:
    """Evaluate V_{t,i}(x) = |x - xb_{t,i}|^2_{P^{-1}} + c_{t,i}."""
    models = state.gains.models
    if not 0 <= i < models.K:
        raise IndexOutOfRange(f"model index {i} outside 0..{models.K - 1}")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (models.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({models.n},)")
    d = x - state.xbreve[i]
    P = state.gains.cov(state.t, i)
    return float(d @ spd_solve(P, d, context=f"P[{i}] at t={state.t}")) + float(state.c[i])


def worst_case_state(yhat, i: int, state: FilterBankState) -> np.ndarray:
    """State x* maximizing |yhat - H_i x|^2 - gamma^2 V_{t,i}(x), gamma being
    the schedule's.

    Requires gamma-feasibility of the bank at the current time, which makes
    H_i^T H_i - gamma^2 P^{-1} negative definite; the maximizer is

        x* = (H_i^T H_i - gamma^2 P^{-1})^{-1} (H_i^T yhat - gamma^2 P^{-1} xb).

    Otherwise raises :class:`GammaInfeasible` at the first infeasible model,
    with ``model`` and ``t`` set.
    """
    gains = state.gains
    models = gains.models
    if not 0 <= i < models.K:
        raise IndexOutOfRange(f"model index {i} outside 0..{models.K - 1}")
    yhat = np.asarray(yhat, dtype=float).reshape(-1)
    if yhat.shape != (models.m,):
        raise DimensionMismatch(f"yhat has shape {yhat.shape}, expected ({models.m},)")
    gains.require_feasible(state.t)
    H = models.H[i]
    P = gains.cov(state.t, i)
    gsq = gains.gamma_sq
    Pinv = spd_solve(P, np.eye(models.n), context=f"P[{i}] at t={state.t}")
    M = H.T @ H - gsq * Pinv
    rhs = H.T @ yhat - gsq * (Pinv @ state.xbreve[i])
    return np.linalg.solve(M, rhs)
