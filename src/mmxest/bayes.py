"""Bayesian multiple-model baseline: posterior weights over the bank.

Runs alongside the same Kalman filter bank and keeps a posterior probability
per model, updated from each innovation's Gaussian likelihood.  The output
prediction is either the posterior-weighted average of the per-model
predictions (default) or the single most probable model's prediction (MAP).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyModelSet
from .filter_bank import FilterBankState, innovations, predictions
from .model_bank import ModelSet

# Likelihoods are floored before renormalizing so one astronomically
# unlikely innovation cannot zero out a model forever.
LIKELIHOOD_FLOOR = 1e-300
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class BayesPosterior:
    """Posterior model probabilities; nonnegative, summing to one."""

    mu: np.ndarray


def bayes_init(models: ModelSet, prior=None) -> BayesPosterior:
    """Uniform prior over the bank unless an explicit prior is given."""
    if models.K == 0:
        raise EmptyModelSet("posterior needs at least one model")
    if prior is None:
        mu = np.full(models.K, 1.0 / models.K)
    else:
        mu = np.asarray(prior, dtype=float).reshape(models.K)
        if np.any(mu < 0) or not np.isclose(mu.sum(), 1.0):
            raise ValueError("prior must be a probability vector")
    return BayesPosterior(mu=mu)


def bayes_step(posterior: BayesPosterior, state: FilterBankState,
               y) -> BayesPosterior:
    """Multiply in each model's innovation likelihood and renormalize.

    ``state`` must be the filter bank state BEFORE absorbing ``y``, so the
    innovation y - H_i xb_i and its covariance S_i are the one-step
    predictive distribution of y under model i.  Likelihoods are computed
    in log space to survive large innovations; log det S_i is the
    schedule's, computed once per (model, t).
    """
    models = state.models
    y = np.asarray(y, dtype=float).reshape(models.m)
    _, cost = innovations(state, y)
    logdet = state.gains.logdet_S[:, state.gains.column(state.t)]
    loglik = -0.5 * (models.m * LOG_2PI + logdet + cost)
    # Shift before exponentiating; the shift cancels in the normalization.
    w = posterior.mu * np.exp(loglik - loglik.max())
    w = np.maximum(w, LIKELIHOOD_FLOOR)
    return BayesPosterior(mu=w / w.sum())


def bayes_estimate(posterior: BayesPosterior, state: FilterBankState,
                   mode: str = "average") -> np.ndarray:
    """Output prediction from the posterior over models.

    ``average`` returns sum_i mu_i H_i xb_i; ``map`` returns the prediction
    of the most probable model (ties broken by lowest index).
    """
    preds = predictions(state)
    if mode == "average":
        return posterior.mu @ preds
    if mode == "map":
        return preds[int(np.argmax(posterior.mu))]
    raise ValueError(f"unknown mode {mode!r}; expected 'average' or 'map'")
