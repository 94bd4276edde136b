"""Bank of per-model Kalman filters with accumulated prediction costs.

Each candidate model i runs the observer in measurement/time-update form

    xb_{t+1,i} = F_i (xb_{t,i} + P_{t,i} H_i^T S_{t,i}^{-1} e_i) + B_i u_t,
    c_{t+1,i}  = c_{t,i} + e_i^T S_{t,i}^{-1} e_i,   e_i = y_t - H_i xb_{t,i},

which is xb' = F xb + B u + K e with the Kalman gain K = F P H^T S^{-1}.
Covariances and inverse innovation covariances S^{-1} come from a
precomputed :class:`~mmxest.riccati.GainSchedule` (time-varying or
stationary), so a step advances all K filters with batched products and no
solve.  A state computes its predictions H_i xb_i once, for every caller.
The accumulated cost c_{t,i} is the minimum disturbance energy needed to
reconcile model i with the data seen so far; it is the learning signal of
the prediction game.

The bank also exposes two verification devices: the forward dynamic
programming value function

    V_{t,i}(x) = |x - xb_{t,i}|^2_{P_{t,i}^{-1}} + c_{t,i},

and the worst-case state x* maximizing |yhat - H_i x|^2 - gamma^2 V_{t,i}(x).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionMismatch,
    IndexOutOfRange,
    ModelMismatch,
    SingularSystem,
)
from .linalg import spd_solve, transpose
from .model_bank import ModelSet
from .riccati import GainSchedule


@dataclass(frozen=True)
class FilterBankState:
    """Snapshot of the filter bank at time t.

    ``xbreve`` stacks the K per-model estimates row-wise ((K, n) array) and
    ``c`` holds the K accumulated costs.  ``gains`` is the gain schedule in
    use.  Instances are immutable; :func:`step` returns a fresh state.
    """

    t: int
    xbreve: np.ndarray
    c: np.ndarray
    gains: GainSchedule
    models: ModelSet

    @cached_property
    def yhat(self) -> np.ndarray:
        """Each model's output prediction H_i xb_i, (K, m), computed once; every
        caller gets this one array and must not write to it."""
        return (self.models.H @ self.xbreve[:, :, None])[:, :, 0]


def init(models: ModelSet, gains: GainSchedule) -> FilterBankState:
    """Start the bank at t = 0 with every estimate at xhat0 and zero cost.

    ``gains`` must have been computed from the same model set; mismatched
    dimensions raise :class:`ModelMismatch`.
    """
    if (gains.n_models, gains.n_states, gains.n_outputs) != (models.K, models.n, models.m):
        raise ModelMismatch(
            f"gain data is for (K, n, m) = "
            f"({gains.n_models}, {gains.n_states}, {gains.n_outputs}), "
            f"model set has ({models.K}, {models.n}, {models.m})")
    xbreve = np.tile(models.xhat0, (models.K, 1))
    return FilterBankState(t=0, xbreve=xbreve, c=np.zeros(models.K), gains=gains, models=models)


def predictions(state: FilterBankState) -> np.ndarray:
    """Each model's output prediction H_i xb_i, as a (K, m) array."""
    return state.yhat


def innovations(state: FilterBankState, y: np.ndarray):
    """Whitened innovations S_i^{-1} e_i, e_i = y - H_i xb_i, as (K, m, 1), and
    their costs e_i^T S_i^{-1} e_i (K,)."""
    e = (y - state.yhat)[:, :, None]
    Sinv_e = state.gains.Sinv[:, state.gains.column(state.t)] @ e
    return Sinv_e, (transpose(e) @ Sinv_e)[:, 0, 0]


def step(state: FilterBankState, y, u=None) -> FilterBankState:
    """Advance every filter one step with measurement y (and known input u).

    The known input enters the state recursion only; it never contributes
    to the accumulated cost, since it is measured and carries no
    model-discriminating information.
    """
    models = state.models
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (models.m,):
        raise DimensionMismatch(f"y has shape {y.shape}, expected ({models.m},)")
    if u is not None:
        u = np.asarray(u, dtype=float).reshape(-1)
        if models.p == 0:
            raise DimensionMismatch("model set has no input channel but u was given")
        if u.shape != (models.p,):
            raise DimensionMismatch(f"u has shape {u.shape}, expected ({models.p},)")
    Sinv_e, cost = innovations(state, y)
    P = state.gains.P[:, state.gains.column(state.t)]
    xbreve = (models.F @ (state.xbreve[:, :, None] + P @ (transpose(models.H) @ Sinv_e)))[:, :, 0]
    if u is not None:
        xbreve = xbreve + models.B @ u
    return FilterBankState(t=state.t + 1, xbreve=xbreve, c=state.c + cost,
                           gains=state.gains, models=models)


def value_function(state: FilterBankState, x, i: int) -> float:
    """Evaluate V_{t,i}(x) = |x - xb_{t,i}|^2_{P^{-1}} + c_{t,i}."""
    models = state.models
    if not 0 <= i < models.K:
        raise IndexOutOfRange(f"model index {i} outside 0..{models.K - 1}")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (models.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({models.n},)")
    d = x - state.xbreve[i]
    P = state.gains.cov(state.t, i)
    return float(d @ spd_solve(P, d, context=f"P[{i}] at t={state.t}")) + float(state.c[i])


def worst_case_state(yhat, i: int, state: FilterBankState, gamma: float) -> np.ndarray:
    """State x* maximizing |yhat - H_i x|^2 - gamma^2 V_{t,i}(x).

    Requires gamma-feasibility of model i at the current time, which makes
    H_i^T H_i - gamma^2 P^{-1} negative definite; the maximizer is

        x* = (H_i^T H_i - gamma^2 P^{-1})^{-1} (H_i^T yhat - gamma^2 P^{-1} xb).
    """
    models = state.models
    if not 0 <= i < models.K:
        raise IndexOutOfRange(f"model index {i} outside 0..{models.K - 1}")
    yhat = np.asarray(yhat, dtype=float).reshape(-1)
    if yhat.shape != (models.m,):
        raise DimensionMismatch(f"yhat has shape {yhat.shape}, expected ({models.m},)")
    H = models.H[i]
    P = state.gains.cov(state.t, i)
    gsq = gamma * gamma
    lam = float(state.gains.lambda_max(state.t)[i])
    if not lam < gsq:
        raise SingularSystem(
            f"model {i} at t={state.t}: lambda_max(H P H^T) = {lam:.6g} >= gamma^2 = {gsq:.6g}")
    Pinv = spd_solve(P, np.eye(models.n), context=f"P[{i}] at t={state.t}")
    M = H.T @ H - gsq * Pinv
    rhs = H.T @ yhat - gsq * (Pinv @ state.xbreve[i])
    return np.linalg.solve(M, rhs)
