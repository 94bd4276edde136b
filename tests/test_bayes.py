import re

import numpy as np
import pytest

import mmxest as mx
from mmxest import bayes, filter_bank
from mmxest.simulator import NoiseSpec
from conftest import make_random_models, raises_invalid

I1 = np.eye(1)


def opposite_sign_bank():
    # Two scalar models that differ only in output sign, centered away
    # from zero so the measurement can discriminate between them.
    return mx.validate({
        "F": [I1, I1],
        "H": [I1, -I1],
        "Q": I1, "R": I1, "P0": I1,
        "gamma": 5.0,
        "xhat0": np.array([0.5]),
    })


def uniform(models):
    """The prior run_estimators starts from."""
    return np.full(models.K, 1.0 / models.K)


def test_bayes_step_two_model_oracle():
    # Predictions +-0.5, S = 2 for both; y = 0.5 gives innovations 0 and 1,
    # so mu_0' = 1 / (1 + exp(-1/4)).
    models = opposite_sign_bank()
    state = filter_bank.init(mx.run_recursion(models, 2))
    post = uniform(models)
    post = bayes.bayes_step(post, filter_bank.step(state, np.array([0.5])))
    expected = 1.0 / (1.0 + np.exp(-0.25))
    assert post[0] == pytest.approx(expected, abs=1e-12)
    assert post.sum() == pytest.approx(1.0, abs=1e-12)


def test_bayes_step_keeps_probability_vector(paper_models):
    rng = np.random.default_rng(6)
    state = filter_bank.init(mx.run_recursion(paper_models, 25))
    post = uniform(paper_models)
    for t in range(25):
        y = rng.normal(size=1) * 3.0
        state = filter_bank.step(state, y, rng.normal(size=1))
        post = bayes.bayes_step(post, state)
        assert post.min() >= 0
        assert post.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(post).all()


def test_bayes_step_survives_huge_innovation():
    models = opposite_sign_bank()
    state = filter_bank.init(mx.run_recursion(models, 2))
    post = uniform(models)
    post = bayes.bayes_step(post, filter_bank.step(state, np.array([1e6])))
    assert np.isfinite(post).all()
    assert post.sum() == pytest.approx(1.0, abs=1e-12)
    assert post.min() > 0  # floored, never exactly zero
    # The floor applies to prior times likelihood: model 1's is 0.5 * 0,
    # floored to 1e-300, against model 0's 0.5.
    assert post[1] == pytest.approx(2.0 * bayes.LIKELIHOOD_FLOOR, rel=1e-12, abs=0.0)


def test_bayes_estimate_average_and_map():
    models = opposite_sign_bank()
    state = filter_bank.init(mx.run_recursion(models, 2))
    post = np.array([0.75, 0.25])
    avg = bayes.bayes_estimate(post, state, mode="average")
    assert avg[0] == pytest.approx(0.75 * 0.5 + 0.25 * (-0.5), abs=1e-12)
    top = bayes.bayes_estimate(post, state, mode="map")
    assert top[0] == pytest.approx(0.5, abs=1e-12)


def test_bayes_estimate_map_tie_breaks_low_index():
    models = opposite_sign_bank()
    state = filter_bank.init(mx.run_recursion(models, 2))
    post = np.array([0.5, 0.5])
    top = bayes.bayes_estimate(post, state, mode="map")
    assert top[0] == pytest.approx(0.5, abs=1e-12)


def test_posterior_concentrates_on_truth():
    rng = np.random.default_rng(10)
    models = make_random_models(rng, K=2, n=2, m=1)
    # Model 0 drives the data; the posterior should favor it.
    N = 40
    x = models.xhat0.copy()
    state = filter_bank.init(mx.run_recursion(models, N))
    post = uniform(models)
    for _ in range(N):
        y = models.H[0] @ x + 0.1 * rng.normal(size=1)
        state = filter_bank.step(state, y)
        post = bayes.bayes_step(post, state)
        x = models.F[0] @ x + 0.1 * rng.normal(size=2)
    assert post[0] > 0.9


def test_bayes_step_on_initial_state_keeps_posterior(paper_models):
    # Nothing absorbed yet: every model's likelihood is the same.
    state = filter_bank.init(mx.run_recursion(paper_models, 3))
    prior = np.array([0.3, 0.7])
    np.testing.assert_allclose(bayes.bayes_step(prior, state), prior, rtol=1e-15)


@pytest.mark.parametrize("mode", ["MAP", "Average", "", "mean", None, 1],
                         ids=["upper-map", "capitalized", "empty", "mean", "none", "int"])
def test_run_estimators_checks_bayes_mode_before_any_work(paper_models, monkeypatch, mode):
    # bayes_estimate reads any mode but "map" as the average; the one check
    # of the mode is run_estimators', before the schedule and the loop.
    def no_work(*args, **kwargs):
        raise AssertionError("work done before bayes_mode was checked")

    monkeypatch.setattr(mx.riccati, "run_recursion", no_work)
    monkeypatch.setattr(filter_bank, "step", no_work)
    with raises_invalid("bayes_mode", rf"^bayes_mode {re.escape(repr(mode))} not in "
                                      r"\('average', 'map'\)$"):
        mx.run_estimators(paper_models, np.zeros((4, 1)), u=np.zeros((4, 1)), bayes_mode=mode)


@pytest.mark.parametrize("mode", bayes.BAYES_MODES)
@pytest.mark.parametrize("bank", ["paper", "bank1-K8"])
def test_run_estimators_keeps_a_probability_vector(paper_config, bench_banks, bank, mode):
    # The posterior run_estimators hands bayes_step and bayes_estimate is
    # always its own (K,) float64 array of probabilities: each row of mu is
    # at least the floor and sums to 1, and the Bayes output is that row's
    # average or mode of the per-model predictions.
    models = paper_config.models if bank == "paper" else bench_banks[bank]
    u, _, y, _ = mx.generate_truth(models, models.K - 1, 60, NoiseSpec(seed=2),
                                   NoiseSpec(seed=3))
    tr = mx.run_estimators(models, y, u=u, bayes_mode=mode)
    assert tr.mu.dtype == np.float64 and tr.mu.shape == (60, models.K)
    assert (tr.mu >= bayes.LIKELIHOOD_FLOOR).all()
    assert np.abs(tr.mu.sum(axis=1) - 1.0).max() <= models.K * np.finfo(float).eps
    for mu, yhat, got in zip(tr.mu, tr.yhat_models, tr.yhat_bayes):
        want = yhat[mu.argmax()] if mode == "map" else np.dot(mu, yhat)
        assert got.tobytes() == want.tobytes()
