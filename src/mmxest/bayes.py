"""Bayesian multiple-model baseline: posterior weights over the bank.

Runs alongside the same Kalman filter bank and keeps a posterior probability
per model, updated from each innovation's Gaussian likelihood.  The
innovation is the filter bank's own, formed once per step and read off the
state the step returns.  The posterior is a (K,) float64 array of
probabilities; :func:`~mmxest.simulator.run_estimators` starts it uniform
and checks the mode once, before its loop.  The output prediction is either
the posterior-weighted average of the per-model predictions (default) or
the single most probable model's prediction (MAP).
"""
from __future__ import annotations

import numpy as np

from .filter_bank import FilterBankState

# Likelihoods are floored before renormalizing so one astronomically
# unlikely innovation cannot zero out a model forever.
LIKELIHOOD_FLOOR = 1e-300
BAYES_MODES = ("average", "map")


def bayes_step(posterior: np.ndarray, state: FilterBankState) -> np.ndarray:
    """Multiply in each model's innovation likelihood and renormalize.

    ``state`` is the filter bank state AFTER absorbing the measurement: the
    step that made it formed the innovation e_i = y - H_i xb_i once and
    recorded its cost e_i^T S_i^{-1} e_i and the log normalizer m log 2 pi +
    log det S_i (read off its schedule column, computed once per (model,
    t)), whose sum is -2 log of the one-step predictive density of y
    under model i.  So the update adds two arrays and computes no constant.
    Likelihoods are computed in log space to survive large innovations.  An
    initial state has absorbed nothing (cost 0, log det S 0); its equal
    likelihoods leave the posterior as it is.  The new posterior is one
    fresh array, updated in place and reduced by ufunc reductions.
    """
    w = state.innovation_lognorm + state.innovation_cost
    w *= -0.5
    # Shift before exponentiating; the shift cancels in the normalization.
    w -= np.maximum.reduce(w)
    np.exp(w, out=w)
    w *= posterior
    np.maximum(w, LIKELIHOOD_FLOOR, out=w)
    w /= np.add.reduce(w)
    return w


def bayes_estimate(posterior: np.ndarray, state: FilterBankState,
                   mode: str = "average") -> np.ndarray:
    """Output prediction from the posterior ``mu`` over models.

    ``average`` returns sum_i mu_i H_i xb_i; ``map`` returns the prediction
    of the most probable model (ties broken by lowest index).
    """
    if mode == "map":
        return state.yhat[int(posterior.argmax())]
    return np.dot(posterior, state.yhat)
