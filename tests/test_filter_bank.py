import numpy as np
import pytest

import mmxest as mx
from mmxest import filter_bank
from conftest import make_random_models, raises_invalid, unit_bank
from oracles import kalman_step, stacked_ls_value, value_function, worst_case_state

I1 = np.eye(1)


def singleton_state():
    models = mx.validate({
        "F": [I1], "H": [I1], "Q": I1, "R": I1, "P0": I1, "gamma": 3.0})
    gains = mx.run_recursion(models, 10)
    return models, filter_bank.init(gains)


def test_init_state(paper_models):
    gains = mx.run_recursion(paper_models, 5)
    state = filter_bank.init(gains)
    assert state.t == 0
    np.testing.assert_array_equal(state.xbreve, np.zeros((2, 3)))
    np.testing.assert_array_equal(state.c, np.zeros(2))


def test_init_takes_bank_from_gains(scalar_singleton):
    state = filter_bank.init(mx.run_recursion(scalar_singleton, 5))
    assert state.gains.models is scalar_singleton
    np.testing.assert_array_equal(state.xbreve, np.zeros((1, 1)))
    np.testing.assert_array_equal(state.c, np.zeros(1))


def test_single_step_scalar_oracle():
    # S_0 = R + H P0 H^T = 2, K_0 = 0.5, so y_0 = 1 gives
    # xbreve_1 = 0.5 and c_1 = 1^2 / 2 = 0.5.
    models, state = singleton_state()
    state = filter_bank.step(state, np.array([1.0]))
    assert state.t == 1
    assert state.xbreve[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert state.c[0] == pytest.approx(0.5, abs=1e-12)


def test_step_records_absorbed_innovation():
    # S_0 = 2 and y_0 = 1 give the absorbed cost 1/2 and log det S_0 = log 2;
    # the initial state has absorbed nothing, and its log normalizer is that
    # of log det S = 0.
    models, state = singleton_state()
    np.testing.assert_array_equal(state.innovation_cost, [0.0])
    np.testing.assert_array_equal(state.innovation_lognorm, [np.log(2.0 * np.pi)])
    state = filter_bank.step(state, np.array([1.0]))
    assert state.innovation_cost[0] == pytest.approx(0.5, abs=1e-15)
    assert state.innovation_lognorm[0] == pytest.approx(np.log(4.0 * np.pi), abs=1e-15)


def test_state_column_predictions_and_absorbed_costs(paper_models):
    rng = np.random.default_rng(4)
    gains = mx.run_recursion(paper_models, 40)
    state = filter_bank.init(gains)
    for t in range(40):
        assert state.col == gains.column(t, terminal=True)
        np.testing.assert_allclose(
            state.yhat, np.stack([paper_models.H[i] @ state.xbreve[i] for i in range(2)]),
            rtol=1e-14, atol=1e-14)
        y = rng.normal(size=1)
        nxt = filter_bank.step(state, y, rng.normal(size=1))
        e = y - state.yhat
        cost = [float(e[i] @ gains.Sinv[gains.column(t), i] @ e[i]) for i in range(2)]
        np.testing.assert_allclose(nxt.innovation_cost, cost, rtol=1e-13)
        np.testing.assert_array_equal(nxt.innovation_lognorm, gains.log_norm[gains.column(t)])
        np.testing.assert_array_equal(nxt.c, state.c + nxt.innovation_cost)
        state = nxt
    assert state.col == gains.column(40, terminal=True)


def test_value_function_scalar_oracle():
    models, state = singleton_state()
    state = filter_bank.step(state, np.array([1.0]))
    # V_1(x) = (x - 0.5)^2 / P_1 + c_1 with P_1 = 1.5.
    v = value_function(state, np.array([0.7]), 0)
    assert v == pytest.approx(0.04 / 1.5 + 0.5, abs=1e-12)


def test_value_function_checks_model_index():
    models, state = singleton_state()
    with raises_invalid("i", r"^model index 1 outside 0\.\.0$"):
        value_function(state, np.array([0.0]), 1)


def state_bytes(state):
    return (state.t, state.col) + tuple(a.tobytes() for a in (
        state.xbreve, state.c, state.innovation_cost, state.innovation_lognorm,
        state.yhat))


@pytest.mark.parametrize("bank", ["paper", "random"])
def test_step_reads_any_float64_row_with_the_same_bytes(bank, paper_models):
    # The paper bank has m = p = 1, the random one m = 2, p = 1.  A record's
    # rows reach the step as views: contiguous, or strided when the record
    # is Fortran-ordered or a column of a wider array.
    models = (paper_models if bank == "paper"
              else make_random_models(np.random.default_rng(5), 3, 4, 2, with_input=True))
    state = filter_bank.init(mx.run_recursion(models, 5))
    state = filter_bank.step(state, np.full(models.m, 0.5), np.full(models.p, 0.25))
    y, u = np.array([3.0, -2.0])[:models.m], np.array([-1.0])

    def forms(row):
        return [np.asfortranarray(np.stack([row, row]))[0],
                np.stack([row, row], axis=1)[:, 0]]

    want = state_bytes(filter_bank.step(state, y, u))
    for y_form in forms(y):
        assert state_bytes(filter_bank.step(state, y_form, u)) == want
    for u_form in forms(u):
        assert state_bytes(filter_bank.step(state, y, u_form)) == want


def test_step_applies_known_input(paper_models):
    state = filter_bank.init(mx.run_recursion(paper_models, 3))
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
    state = filter_bank.init(gains)
    m = paper_models
    xb = np.zeros((2, 3))
    c = np.zeros(2)
    P = [m.P0, m.P0]
    for t in range(N):
        y = rng.normal(size=1)
        u = rng.normal(size=1)
        state = filter_bank.step(state, y, u)
        for i in range(2):
            S, gain, P[i] = kalman_step(P[i], m.F[i], m.H[i], m.Q, m.R)
            e = y - m.H[i] @ xb[i]
            c[i] += float(e @ np.linalg.solve(S, e))
            xb[i] = m.F[i] @ xb[i] + m.B[i] @ u + gain @ e
        np.testing.assert_allclose(state.xbreve, xb, atol=1e-10)
        np.testing.assert_allclose(state.c, c, atol=1e-10)


def test_predictions_follow_every_step():
    # Each state keeps its predictions once computed; a step must never hand
    # the next state the previous one's.
    rng = np.random.default_rng(7)
    models = make_random_models(rng, K=3, n=2, m=2)
    N = 6
    state = filter_bank.init(mx.run_recursion(models, N))
    seen = []
    for t in range(N + 1):
        preds = state.yhat
        expect = [models.H[i] @ state.xbreve[i] for i in range(models.K)]
        np.testing.assert_allclose(preds, expect, rtol=1e-14, atol=1e-14)
        assert state.yhat is preds
        assert all(not np.array_equal(preds, old) for old in seen)
        seen.append(preds.copy())
        if t < N:
            state = filter_bank.step(state, rng.normal(size=2))


def test_costs_never_decrease(paper_models):
    rng = np.random.default_rng(17)
    state = filter_bank.init(mx.run_recursion(paper_models, 30))
    prev = state.c.copy()
    for t in range(30):
        state = filter_bank.step(state, rng.normal(size=1), rng.normal(size=1))
        assert (state.c >= prev - 1e-15).all()
        prev = state.c.copy()


def test_stationary_gains_step_unbounded(paper_models):
    state = filter_bank.init(mx.stationary_gains(paper_models))
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
    sa = filter_bank.init(mx.run_recursion(models, N))
    sb = filter_bank.init(mx.run_recursion(permuted, N))
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
        state = filter_bank.init(mx.run_recursion(models, N))
        for t in range(N):
            state = filter_bank.step(state, ys[t], us[t] if us else None)
        for _ in range(4):
            x = rng.normal(size=n)
            for i in range(K):
                direct = value_function(state, x, i)
                oracle = stacked_ls_value(models, i, ys, us, x)
                assert direct == pytest.approx(oracle, abs=1e-8)


def test_worst_case_state_scalar_oracle():
    models, state = singleton_state()
    # (H^T H - gamma^2 P^{-1})^{-1} (H^T yhat - gamma^2 P^{-1} xbreve)
    # = (1 - 9)^{-1} (1 - 0) = -0.125 at t = 0.
    x = worst_case_state(np.array([1.0]), 0, state)
    assert x[0] == pytest.approx(-0.125, abs=1e-12)


def test_worst_case_state_requires_feasibility():
    state = filter_bank.init(mx.run_recursion(unit_bank(gamma=1.0), 1))
    with pytest.raises(mx.GammaInfeasible) as err:
        worst_case_state(np.array([1.0]), 0, state)
    assert (err.value.model, err.value.t) == (0, 0)
    assert err.value.lambda_max == pytest.approx(1.0)
    assert err.value.gamma_sq == pytest.approx(1.0)


def test_worst_case_state_reads_gamma_from_schedule():
    # (1 - gamma^2)^{-1} (1 - 0) at t = 0: -1/99 for gamma = 10.  The gamma
    # used to be the caller's, so the gamma = 1 bank (infeasible at t = 0)
    # answered -1/99 too when called with 10; now it raises.
    y = np.array([1.0])
    state = filter_bank.init(mx.run_recursion(unit_bank(gamma=10.0), 1))
    assert worst_case_state(y, 0, state)[0] == pytest.approx(-1.0 / 99.0, abs=1e-12)
    state = filter_bank.init(mx.run_recursion(unit_bank(gamma=1.0), 1))
    with pytest.raises(mx.GammaInfeasible):
        worst_case_state(y, 0, state)
    with pytest.raises(TypeError):
        worst_case_state(y, 0, state, 10.0)


def test_worst_case_state_is_the_maximizer():
    rng = np.random.default_rng(41)
    models = make_random_models(rng, K=2, n=2, m=1)
    state = filter_bank.init(mx.run_recursion(models, 5))
    for t in range(5):
        state = filter_bank.step(state, rng.normal(size=1))
    gsq = models.gamma ** 2

    def objective(yhat, x, i):
        r = yhat - models.H[i] @ x
        return float(r @ r) - gsq * value_function(state, x, i)

    for i in range(2):
        yhat = rng.normal(size=1)
        xstar = worst_case_state(yhat, i, state)
        top = objective(yhat, xstar, i)
        for _ in range(25):
            assert top >= objective(yhat, xstar + 0.1 * rng.normal(size=2), i) - 1e-10
