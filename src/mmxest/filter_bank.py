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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatch, HorizonExceeded
from .linalg import transpose
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
