"""Bayesian multiple-model baseline: posterior weights over the bank.

Runs alongside the same Kalman filter bank and keeps a posterior probability
per model, updated from each innovation's Gaussian likelihood.  The
innovation is the filter bank's own, formed once per step and read off the
state the step returns.  The posterior is a (K,) array of probabilities.
The output prediction is either the posterior-weighted average of the
per-model predictions (default) or the single most probable model's
prediction (MAP).
"""
from __future__ import annotations

import numpy as np

from .exceptions import InvalidInput
from .filter_bank import FilterBankState
from .model_bank import ModelSet

# Likelihoods are floored before renormalizing so one astronomically
# unlikely innovation cannot zero out a model forever.
LIKELIHOOD_FLOOR = 1e-300
BAYES_MODES = ("average", "map")


def bayes_init(models: ModelSet) -> np.ndarray:
    """Uniform prior over the bank, a (K,) array."""
    if models.K == 0:
        raise InvalidInput("posterior needs at least one model", "models")
    return np.full(models.K, 1.0 / models.K)


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
    fresh array, updated in place and reduced by ufunc reductions.  A
    posterior that is not K numbers raises InvalidInput (field "posterior").
    """
    w = state.innovation_lognorm + state.innovation_cost
    w *= -0.5
    # Shift before exponentiating; the shift cancels in the normalization.
    w -= np.maximum.reduce(w)
    np.exp(w, out=w)
    try:
        w *= posterior
        fits = len(posterior) == len(w)
    except (TypeError, ValueError):  # not numbers, or a length numpy cannot broadcast
        fits = False
    if not fits:
        _reject_posterior(posterior, len(w))
    np.maximum(w, LIKELIHOOD_FLOOR, out=w)
    w /= np.add.reduce(w)
    return w


def bayes_estimate(posterior: np.ndarray, state: FilterBankState,
                   mode: str = "average") -> np.ndarray:
    """Output prediction from the posterior ``mu`` over models.

    ``average`` returns sum_i mu_i H_i xb_i; ``map`` returns the prediction
    of the most probable model (ties broken by lowest index).  A posterior
    that is not K numbers raises InvalidInput (field "posterior").
    """
    preds = state.yhat
    try:
        fits = len(posterior) == len(preds)
        if fits and mode == "average":
            return np.dot(posterior, preds)
        if fits and mode == "map":
            return preds[int(np.argmax(np.asarray(posterior, dtype=float)))]
    except (TypeError, ValueError):  # not numbers, or no length
        fits = False
    if not fits:
        _reject_posterior(posterior, len(preds))
    raise InvalidInput(f"unknown mode {mode!r}; expected 'average' or 'map'", "mode")


def _reject_posterior(posterior, K):
    """Raise the InvalidInput for a posterior that is not K numbers."""
    raise InvalidInput(f"posterior must be {K} numbers, one per model, got {posterior!r}",
                       "posterior")
