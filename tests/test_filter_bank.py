import numpy as np
import pytest

import mmxest as mx
from mmxest import filter_bank
from conftest import make_random_models
from oracles import stacked_ls_value

I1 = np.eye(1)


def singleton_state():
    models = mx.validate({
        "F": [I1], "H": [I1], "Q": I1, "R": I1, "P0": I1, "gamma": 3.0})
    gains = mx.run_recursion(models, 10)
    return models, filter_bank.init(models, gains)


def test_init_state(paper_models):
    gains = mx.run_recursion(paper_models, 5)
    state = filter_bank.init(paper_models, gains)
    assert state.t == 0
    np.testing.assert_array_equal(state.xbreve, np.zeros((2, 3)))
    np.testing.assert_array_equal(state.c, np.zeros(2))


def test_init_rejects_foreign_gains(paper_models, scalar_singleton):
    gains = mx.run_recursion(scalar_singleton, 5)
    with pytest.raises(mx.ModelMismatch):
        filter_bank.init(paper_models, gains)


def test_single_step_scalar_oracle():
    # S_0 = R + H P0 H^T = 2, K_0 = 0.5, so y_0 = 1 gives
    # xbreve_1 = 0.5 and c_1 = 1^2 / 2 = 0.5.
    models, state = singleton_state()
    state = filter_bank.step(state, np.array([1.0]))
    assert state.t == 1
    assert state.xbreve[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert state.c[0] == pytest.approx(0.5, abs=1e-12)


def test_value_function_scalar_oracle():
    models, state = singleton_state()
    state = filter_bank.step(state, np.array([1.0]))
    # V_1(x) = (x - 0.5)^2 / P_1 + c_1 with P_1 = 1.5.
    v = filter_bank.value_function(state, np.array([0.7]), 0)
    assert v == pytest.approx(0.04 / 1.5 + 0.5, abs=1e-12)


def test_value_function_checks_model_index():
    models, state = singleton_state()
    with pytest.raises(mx.IndexOutOfRange):
        filter_bank.value_function(state, np.array([0.0]), 1)


def test_step_rejects_bad_measurement_shape(paper_models):
    state = filter_bank.init(paper_models, mx.run_recursion(paper_models, 3))
    with pytest.raises(mx.DimensionMismatch):
        filter_bank.step(state, np.array([1.0, 2.0]))


def test_step_rejects_input_when_inputless():
    models, state = singleton_state()
    with pytest.raises(mx.DimensionMismatch):
        filter_bank.step(state, np.array([1.0]), u=np.array([1.0]))


def test_step_applies_known_input(paper_models):
    state = filter_bank.init(paper_models, mx.run_recursion(paper_models, 3))
    y = np.array([0.7])
    u = np.array([0.3])
    with_u = filter_bank.step(state, y, u)
    without_u = filter_bank.step(state, y)
    for i in range(2):
        shift = (paper_models.B[i] @ u)
        np.testing.assert_allclose(
            with_u.xbreve[i], without_u.xbreve[i] + shift, atol=1e-12)
    # The current step's cost uses the innovation before the input acts.
    np.testing.assert_allclose(with_u.c, without_u.c, atol=1e-15)


def test_step_formula_matches_manual(paper_models):
    rng = np.random.default_rng(5)
    N = 6
    gains = mx.run_recursion(paper_models, N)
    state = filter_bank.init(paper_models, gains)
    xb = np.zeros((2, 3))
    c = np.zeros(2)
    for t in range(N):
        y = rng.normal(size=1)
        u = rng.normal(size=1)
        state = filter_bank.step(state, y, u)
        for i in range(2):
            e = y - paper_models.H[i] @ xb[i]
            S = gains.innovation_cov(t, i)
            c[i] += float(e @ np.linalg.solve(S, e))
            xb[i] = (paper_models.F[i] @ xb[i] + paper_models.B[i] @ u
                     + gains.gain(t, i) @ e)
        np.testing.assert_allclose(state.xbreve, xb, atol=1e-10)
        np.testing.assert_allclose(state.c, c, atol=1e-10)


def test_predictions_follow_every_step():
    # Each state keeps its predictions once computed; a step must never hand
    # the next state the previous one's.
    rng = np.random.default_rng(7)
    models = make_random_models(rng, K=3, n=2, m=2)
    N = 6
    state = filter_bank.init(models, mx.run_recursion(models, N))
    seen = []
    for t in range(N + 1):
        preds = filter_bank.predictions(state)
        expect = [models.H[i] @ state.xbreve[i] for i in range(models.K)]
        np.testing.assert_allclose(preds, expect, rtol=1e-14, atol=1e-14)
        assert filter_bank.predictions(state) is preds
        assert all(not np.array_equal(preds, old) for old in seen)
        seen.append(preds.copy())
        if t < N:
            state = filter_bank.step(state, rng.normal(size=2))


def test_costs_never_decrease(paper_models):
    rng = np.random.default_rng(17)
    state = filter_bank.init(paper_models, mx.run_recursion(paper_models, 30))
    prev = state.c.copy()
    for t in range(30):
        state = filter_bank.step(state, rng.normal(size=1), rng.normal(size=1))
        assert (state.c >= prev - 1e-15).all()
        prev = state.c.copy()


def test_step_past_horizon_raises(paper_models):
    state = filter_bank.init(paper_models, mx.run_recursion(paper_models, 2))
    y = np.array([0.0])
    u = np.array([0.0])
    state = filter_bank.step(state, y, u)
    state = filter_bank.step(state, y, u)
    with pytest.raises(mx.HorizonExceeded):
        filter_bank.step(state, y, u)


def test_stationary_gains_step_unbounded(paper_models):
    state = filter_bank.init(paper_models, mx.stationary_gains(paper_models))
    y = np.array([0.3])
    u = np.array([0.0])
    for _ in range(50):
        state = filter_bank.step(state, y, u)
    assert state.t == 50


def test_permutation_equivariance():
    rng = np.random.default_rng(23)
    models = make_random_models(rng, K=3, n=2, m=1, gamma=50.0)
    perm = [2, 0, 1]
    permuted = mx.validate({
        "F": [models.F[j] for j in perm],
        "H": [models.H[j] for j in perm],
        "Q": models.Q, "R": models.R, "P0": models.P0,
        "gamma": models.gamma, "xhat0": models.xhat0,
    })
    N = 8
    sa = filter_bank.init(models, mx.run_recursion(models, N))
    sb = filter_bank.init(permuted, mx.run_recursion(permuted, N))
    for _ in range(N):
        y = rng.normal(size=1)
        sa = filter_bank.step(sa, y)
        sb = filter_bank.step(sb, y)
    np.testing.assert_allclose(sb.xbreve, sa.xbreve[perm], atol=1e-12)
    np.testing.assert_allclose(sb.c, sa.c[perm], atol=1e-12)


def test_value_function_matches_stacked_least_squares():
    # Independent oracle: the same minimum as one big equality-constrained
    # least-squares problem over (x_0, w_0, ..., w_{N-1}).
    rng = np.random.default_rng(31)
    for trial in range(8):
        K = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        models = make_random_models(rng, K, n, m=1, gamma=20.0,
                                    with_input=bool(rng.integers(0, 2)))
        N = int(rng.integers(1, 4))
        ys = [rng.normal(size=1) for _ in range(N)]
        us = [rng.normal(size=models.p) for _ in range(N)] if models.p else None
        state = filter_bank.init(models, mx.run_recursion(models, N))
        for t in range(N):
            state = filter_bank.step(state, ys[t], us[t] if us else None)
        for _ in range(4):
            x = rng.normal(size=n)
            for i in range(K):
                direct = filter_bank.value_function(state, x, i)
                oracle = stacked_ls_value(models, i, ys, us, x)
                assert direct == pytest.approx(oracle, abs=1e-8)


def test_worst_case_state_scalar_oracle():
    models, state = singleton_state()
    # (H^T H - gamma^2 P^{-1})^{-1} (H^T yhat - gamma^2 P^{-1} xbreve)
    # = (1 - 9)^{-1} (1 - 0) = -0.125 at t = 0.
    x = filter_bank.worst_case_state(np.array([1.0]), 0, state, models.gamma)
    assert x[0] == pytest.approx(-0.125, abs=1e-12)


def test_worst_case_state_requires_feasibility():
    models = mx.validate({
        "F": [I1], "H": [I1], "Q": I1, "R": I1, "P0": I1, "gamma": 1.0})
    state = filter_bank.init(models, mx.run_recursion(models, 1))
    with pytest.raises(mx.SingularSystem):
        filter_bank.worst_case_state(np.array([1.0]), 0, state, models.gamma)


def test_worst_case_state_is_the_maximizer():
    rng = np.random.default_rng(41)
    models = make_random_models(rng, K=2, n=2, m=1)
    state = filter_bank.init(models, mx.run_recursion(models, 5))
    for t in range(5):
        state = filter_bank.step(state, rng.normal(size=1))
    gsq = models.gamma ** 2

    def objective(yhat, x, i):
        r = yhat - models.H[i] @ x
        return float(r @ r) - gsq * filter_bank.value_function(state, x, i)

    for i in range(2):
        yhat = rng.normal(size=1)
        xstar = filter_bank.worst_case_state(yhat, i, state, models.gamma)
        top = objective(yhat, xstar, i)
        for _ in range(25):
            assert top >= objective(yhat, xstar + 0.1 * rng.normal(size=2), i) - 1e-10
