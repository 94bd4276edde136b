"""Bank of per-model Kalman filters with accumulated prediction costs.

Each candidate model i runs the observer in measurement/time-update form

    xb_{t+1,i} = F_i (xb_{t,i} + P_{t,i} H_i^T S_{t,i}^{-1} e_i) + B_i u_t,
    c_{t+1,i}  = c_{t,i} + e_i^T S_{t,i}^{-1} e_i,   e_i = y_t - H_i xb_{t,i},

which is xb' = F xb + B u + K e with the Kalman gain K = F P H^T S^{-1}.
Covariances and inverse innovation covariances S^{-1} come from a
precomputed :class:`~mmxest.riccati.GainSchedule` (time-varying or
stationary), so a step advances all K filters with batched products and no
solve; it reads its column c of the schedule's t-major arrays as ``X[c]``
views and the stacked H^T the schedule built once.  A state's schedule
column is resolved by :func:`init` at t = 0 and advanced by each step,
min(col + 1, last), and its predictions H_i xb_i are computed once, for
every caller.  A step forms the innovation once and records on the new
state what it absorbed: the costs e_i^T S_i^{-1} e_i and the log
normalizer m log 2 pi + log det S_i, which is all the Bayesian update needs.
For a scalar output (m = 1) the three products of inner dimension 1,
S^{-1} e, e^T (S^{-1} e) and H^T (S^{-1} e), are broadcast multiplies with
matmul's bits (see :func:`innovations`); banks with m >= 2 use matmul.
The accumulated cost c_{t,i} is the minimum disturbance energy needed to
reconcile model i with the data seen so far; it is the learning signal of
the prediction game.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInput
from .linalg import as_floats
from .riccati import LOG_2PI, GainSchedule

_FLOAT = np.dtype(float)


class FilterBankState(NamedTuple):
    """Snapshot of the filter bank at time t, an immutable record.

    ``xbreve`` stacks the K per-model estimates row-wise ((K, n) array) and
    ``c`` holds the K accumulated costs.  ``innovation_cost`` and
    ``innovation_lognorm`` hold, per model, e^T S^{-1} e and m log 2 pi +
    log det S of the innovation the step into this state absorbed (at t =
    0, where nothing has been absorbed, cost and log det S are zero).
    ``gains`` is the gain schedule in use; the model bank is
    ``gains.models``.  :func:`step` returns a fresh state.

    ``col``, the schedule column of time t, and ``yhat``, each model's
    output prediction H_i xb_i as a (K, m) array, are computed once, when
    :func:`init` or :func:`step` makes the state; every caller gets the one
    ``yhat`` array and must not write to it.
    """

    t: int
    xbreve: np.ndarray
    c: np.ndarray
    gains: GainSchedule
    innovation_cost: np.ndarray
    innovation_lognorm: np.ndarray
    col: int
    yhat: np.ndarray


def _state(t, xbreve, c, gains, cost, lognorm, col) -> FilterBankState:
    """The state at time t in schedule column ``col``, with its predictions."""
    return FilterBankState(t, xbreve, c, gains, cost, lognorm, col,
                           (gains.models.H @ xbreve[:, :, None])[:, :, 0])


def init(gains: GainSchedule) -> FilterBankState:
    """Start the bank of ``gains.models`` at t = 0 with every estimate at
    xhat0 and zero cost."""
    K = gains.models.K
    return _state(0, np.tile(gains.models.xhat0, (K, 1)), np.zeros(K), gains, np.zeros(K),
                  np.full(K, gains.models.m * LOG_2PI), gains.column(0, terminal=True))


def _row(v, width, name):
    if v.__class__ is np.ndarray and v.dtype is _FLOAT and v.shape == (width,):
        return v
    return as_floats(v, name).reshape(-1)


def innovations(state: FilterBankState, y: np.ndarray):
    """Whitened innovations S_i^{-1} e_i, e_i = y - H_i xb_i, as (K, m, 1), and
    their costs e_i^T S_i^{-1} e_i (K,); S^{-1} is ``gains.Sinv[col]`` at
    the state's column (none at t = N: InvalidInput naming ``t``).  ``y`` is
    a float64 array of shape (m,), as :func:`step` passes it.

    For m = 1 both products are broadcast multiplies.  Each entry is one
    product, which matmul forms as 0 + a b: the bits are the same but for
    the sign of a zero, so where e_i = -0 (y = -0.0 against a prediction
    of +0) the first array holds -0 where matmul gave +0; the cost is +0
    both ways.
    """
    gains = state.gains
    if state.t == gains.horizon:
        raise InvalidInput(f"no gain at t={state.t}; horizon is {gains.horizon}", "t")
    Sinv = gains.Sinv[state.col]
    if gains.models.m == 1:
        e = (y.item() - state.yhat)[:, :, None]
        Sinv_e = Sinv * e
        return Sinv_e, (e * Sinv_e)[:, 0, 0]
    e = (y - state.yhat)[:, :, None]
    Sinv_e = Sinv @ e
    return Sinv_e, (e.swapaxes(-1, -2) @ Sinv_e)[:, 0, 0]


def step(state: FilterBankState, y, u=None) -> FilterBankState:
    """Advance every filter one step with measurement y (and known input u).

    The state's column c gives P, S^{-1} and the log normalizer as the
    views ``gains.P[c]``, ``gains.Sinv[c]`` and ``gains.log_norm[c]``, and
    ``gains.Ht`` the stacked H^T; the update keeps the filter's order of
    products, F (xb + P (H^T (S^{-1} e))).  For m = 1, H^T (S^{-1} e) is a
    broadcast multiply and may hold -0 where matmul gave +0 (see
    :func:`innovations`); it enters only the matmul P (.), whose sums start
    from +0, so the new estimates are matmul's bit for bit.  The innovation
    is formed once; its costs and log normalizer travel on the returned
    state for :func:`~mmxest.bayes.bayes_step`.  The known input enters the state
    recursion only; it never contributes to the accumulated cost, since it
    is measured and carries no model-discriminating information.  A 1-D
    float64 ``y`` or ``u`` of the right length is used as it is; any other
    form is reshaped to a row.
    """
    gains = state.gains
    models = gains.models
    y = _row(y, models.m, "y")
    if y.shape != (models.m,):
        raise InvalidInput(f"y has shape {y.shape}, expected ({models.m},)", "y")
    if u is not None:
        u = _row(u, models.p, "u")
        if models.p == 0:
            raise InvalidInput("model set has no input channel but u was given", "u")
        if u.shape != (models.p,):
            raise InvalidInput(f"u has shape {u.shape}, expected ({models.p},)", "u")
    col = state.col
    Sinv_e, cost = innovations(state, y)
    Ht_Sinv_e = gains.Ht * Sinv_e if models.m == 1 else gains.Ht @ Sinv_e
    xbreve = (models.F @ (state.xbreve[:, :, None] + gains.P[col] @ Ht_Sinv_e))[:, :, 0]
    if u is not None:
        xbreve += models.B @ u
    return _state(state.t + 1, xbreve, state.c + cost, gains, cost, gains.log_norm[col],
                  min(col + 1, len(gains.P) - 1))
