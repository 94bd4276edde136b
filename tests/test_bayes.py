import numpy as np
import pytest

import mmxest as mx
from mmxest import bayes, filter_bank
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


def test_bayes_init_uniform(paper_models):
    post = bayes.bayes_init(paper_models)
    np.testing.assert_allclose(post, [0.5, 0.5])


def test_bayes_step_two_model_oracle():
    # Predictions +-0.5, S = 2 for both; y = 0.5 gives innovations 0 and 1,
    # so mu_0' = 1 / (1 + exp(-1/4)).
    models = opposite_sign_bank()
    state = filter_bank.init(mx.run_recursion(models, 2))
    post = bayes.bayes_init(models)
    post = bayes.bayes_step(post, filter_bank.step(state, np.array([0.5])))
    expected = 1.0 / (1.0 + np.exp(-0.25))
    assert post[0] == pytest.approx(expected, abs=1e-12)
    assert post.sum() == pytest.approx(1.0, abs=1e-12)


def test_bayes_step_keeps_probability_vector(paper_models):
    rng = np.random.default_rng(6)
    state = filter_bank.init(mx.run_recursion(paper_models, 25))
    post = bayes.bayes_init(paper_models)
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
    post = bayes.bayes_init(models)
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
    with raises_invalid("mode", "^unknown mode 'median'; expected 'average' or 'map'$"):
        bayes.bayes_estimate(post, state, mode="median")


@pytest.mark.parametrize("posterior", [np.array([1.0]), 0.5, np.array([0.2, 0.3, 0.5]),
                                       [0.5, "a"]],
                         ids=["one-entry", "scalar", "three-entries", "string"])
@pytest.mark.parametrize("call", [
    lambda post, state: bayes.bayes_step(post, state),
    lambda post, state: bayes.bayes_estimate(post, state, mode="average"),
    lambda post, state: bayes.bayes_estimate(post, state, mode="map"),
], ids=["step", "average", "map"])
def test_posterior_must_hold_one_number_per_model(paper_models, call, posterior):
    state = filter_bank.init(mx.run_recursion(paper_models, 3))
    with raises_invalid("posterior", "^posterior must be 2 numbers, one per model, got "):
        call(posterior, state)


@pytest.mark.parametrize("mode", bayes.BAYES_MODES)
@pytest.mark.parametrize("kind", [list, tuple])
def test_bayes_estimate_reads_a_sequence_as_the_array(mode, kind):
    # A posterior given as K numbers in a list or tuple gives the bits of
    # the same posterior as a float64 array, on a K = 8, m = 2 bank.
    rng = np.random.default_rng(11)
    models = make_random_models(rng, 8, 4, 2)
    state = filter_bank.init(mx.run_recursion(models, 3))
    for _ in range(2):
        state = filter_bank.step(state, rng.normal(size=2))
    post = rng.random(8)
    post /= post.sum()
    want = bayes.bayes_estimate(post, state, mode=mode)
    got = bayes.bayes_estimate(kind(post.tolist()), state, mode=mode)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    post = bayes.bayes_init(models)
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
