import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg

import mmxest as mx
from conftest import make_random_models

I1 = np.eye(1)


def scalar_are_root(f, q, r):
    # Fixed point of p = q + f^2 p - f^2 p^2 / (r + p) solves
    # p^2 + (r - q - f^2 r) p - q r = 0; take the positive root.
    b = r - q - f * f * r
    return (-b + np.sqrt(b * b + 4.0 * q * r)) / 2.0


def test_step_scalar_unit_system():
    P1 = mx.riccati_step(I1, I1, I1, I1, I1)
    assert P1[0, 0] == pytest.approx(1.5, abs=1e-12)


def test_recursion_first_three_covariances():
    p = 1.0
    seen = [p]
    for _ in range(2):
        p = float(mx.riccati_step(np.array([[p]]), I1, I1, I1, I1)[0, 0])
        seen.append(p)
    np.testing.assert_allclose(seen, [1.0, 1.5, 1.6], atol=1e-12)


def test_kalman_gain_scalar():
    K = mx.kalman_gain(I1, I1, I1, I1)
    assert K[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_innovation_covariance_scalar():
    S = mx.innovation_covariance(I1, I1, I1)
    assert S[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_step_matches_information_form():
    # Independent route: P' = Q + F (P^{-1} + H^T R^{-1} H)^{-1} F^T.
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        P = A @ A.T + n * np.eye(n)
        F = rng.normal(size=(n, n))
        H = rng.normal(size=(m, n))
        B = rng.normal(size=(n, n))
        Q = B @ B.T + n * np.eye(n)
        C = rng.normal(size=(m, m))
        R = C @ C.T + m * np.eye(m)
        direct = mx.riccati_step(P, F, H, Q, R)
        info = Q + F @ np.linalg.inv(
            np.linalg.inv(P) + H.T @ np.linalg.inv(R) @ H) @ F.T
        np.testing.assert_allclose(direct, info, atol=1e-9)
        # Gain consistency: K S = F P H^T.
        K = mx.kalman_gain(P, F, H, R)
        S = mx.innovation_covariance(P, H, R)
        np.testing.assert_allclose(K @ S, F @ P @ H.T, atol=1e-9)
        # The update keeps symmetry and positive definiteness.
        np.testing.assert_allclose(direct, direct.T, atol=1e-12)
        assert np.linalg.eigvalsh(direct).min() > 0


def test_solve_are_golden_ratio():
    sol = mx.solve_are(I1, I1, I1, I1, I1)
    assert sol.P[0, 0] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-9)
    assert sol.residual <= 1e-10
    assert sol.iterations >= 1


def test_solve_are_scalar_quadratic_oracle():
    sol = mx.solve_are(0.5 * I1, I1, I1, I1, I1)
    assert sol.P[0, 0] == pytest.approx(scalar_are_root(0.5, 1.0, 1.0), abs=1e-9)


def test_solve_are_returns_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        F = 0.9 * A / max(1.0, np.max(np.abs(np.linalg.eigvals(A))))
        H = rng.normal(size=(m, n))
        Q = np.eye(n)
        R = np.eye(m)
        sol = mx.solve_are(F, H, Q, R, np.eye(n))
        again = mx.riccati_step(sol.P, F, H, Q, R)
        np.testing.assert_allclose(again, sol.P, atol=1e-9)
        # Cross-check against the dedicated DARE solver (estimation form).
        X = scipy.linalg.solve_discrete_are(F.T, H.T, Q, R)
        np.testing.assert_allclose(sol.P, X, atol=1e-7)


def test_solve_are_divergence_reported():
    with pytest.raises(mx.NoConvergence):
        mx.solve_are(2.0 * I1, np.zeros((1, 1)), I1, I1, I1)


def test_solve_are_no_convergence_carries_last_iterate():
    try:
        mx.solve_are(I1, I1, I1, I1, I1, max_iter=2)
    except mx.NoConvergence as exc:
        assert exc.last is not None
        assert np.asarray(exc.last).shape == (1, 1)
    else:
        pytest.fail("expected NoConvergence with max_iter=2")


def test_gamma_feasibility_is_strict():
    assert mx.check_gamma_feasibility(I1, I1, 1.0 + 1e-9)
    assert not mx.check_gamma_feasibility(I1, I1, 1.0)  # boundary excluded
    assert not mx.check_gamma_feasibility(4.0 * I1, I1, 2.0)


def test_run_recursion_shapes_and_bounds(paper_models):
    N = 7
    seq = mx.run_recursion(paper_models, N)
    assert seq.horizon == N
    assert not seq.stationary
    assert (seq.n_models, seq.n_states, seq.n_outputs) == (2, 3, 1)
    assert seq.cov(0, 0).shape == (3, 3)
    np.testing.assert_array_equal(seq.cov(0, 1), np.eye(3))
    assert seq.cov(N, 0).shape == (3, 3)
    assert seq.gain(N - 1, 1).shape == (3, 1)
    assert seq.innovation_cov(N - 1, 0).shape == (1, 1)
    with pytest.raises(mx.HorizonExceeded):
        seq.cov(N + 1, 0)
    with pytest.raises(mx.HorizonExceeded):
        seq.gain(N, 0)  # gains exist only up to N - 1
    with pytest.raises(mx.HorizonExceeded):
        seq.innovation_cov(N, 0)
    assert seq.feasible.all()


def test_sign_flipped_dynamics_share_covariances(paper_models):
    # F enters the update quadratically, so the two banks' covariances match.
    seq = mx.run_recursion(paper_models, 10)
    for t in range(11):
        np.testing.assert_allclose(seq.cov(t, 0), seq.cov(t, 1), atol=1e-12)
    for t in range(10):
        np.testing.assert_allclose(seq.gain(t, 0), -seq.gain(t, 1), atol=1e-12)


def test_stationary_gains_paper_system(paper_models):
    st = mx.stationary_gains(paper_models)
    assert st.stationary
    assert st.feasible.all()
    np.testing.assert_allclose(st.cov(0, 0), st.cov(123, 0))  # t ignored
    for i in range(2):
        sol = st.solutions[i]
        assert sol.residual <= 1e-10
        fixed = mx.riccati_step(sol.P, paper_models.F[i], paper_models.H[i],
                                paper_models.Q, paper_models.R)
        np.testing.assert_allclose(fixed, sol.P, atol=1e-9)
    # Recursion approaches the stationary solution.
    seq = mx.run_recursion(paper_models, 40)
    np.testing.assert_allclose(seq.cov(40, 0), st.cov(0, 0), atol=1e-6)


def test_random_bank_recursion_matches_manual(paper_models):
    rng = np.random.default_rng(8)
    models = make_random_models(rng, K=3, n=2, m=2)
    N = 6
    seq = mx.run_recursion(models, N)
    for i in range(models.K):
        P = models.P0.copy()
        for t in range(N):
            np.testing.assert_allclose(seq.cov(t, i), P, atol=1e-10)
            np.testing.assert_allclose(
                seq.gain(t, i),
                mx.kalman_gain(P, models.F[i], models.H[i], models.R),
                atol=1e-10)
            P = mx.riccati_step(P, models.F[i], models.H[i], models.Q, models.R)
        np.testing.assert_allclose(seq.cov(N, i), P, atol=1e-10)


def test_solve_are_runtime_budget():
    t0 = time.perf_counter()
    mx.solve_are(I1, I1, I1, I1, I1)
    assert time.perf_counter() - t0 < 1.0


def oracle_bank():
    return make_random_models(np.random.default_rng(0), 8, 4, 2, with_input=True)


def test_schedule_matches_per_model_loop():
    models = oracle_bank()
    N = 15
    seq = mx.run_recursion(models, N)
    gsq = models.gamma ** 2
    for i in range(models.K):
        F, H = models.F[i], models.H[i]
        P = models.P0.copy()
        for t in range(N + 1):
            np.testing.assert_allclose(seq.cov(t, i), P, rtol=1e-12, atol=1e-12)
            lam = np.linalg.eigvalsh(H @ P @ H.T)[-1]
            assert seq.margin[i, t] == pytest.approx(gsq - lam, rel=1e-12, abs=1e-12)
            if t == N:
                break
            S = mx.innovation_covariance(P, H, models.R)
            np.testing.assert_allclose(seq.innovation_cov(t, i), S, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(seq.Sinv[i, t] @ S, np.eye(models.m), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(seq.gain(t, i), mx.kalman_gain(P, F, H, models.R),
                                       rtol=1e-12, atol=1e-12)
            sign, logdet = np.linalg.slogdet(S)
            assert sign == 1.0
            assert seq.logdet_S[i, t] == pytest.approx(logdet, rel=1e-12, abs=1e-12)
            P = mx.riccati_step(P, F, H, models.Q, models.R)


def test_stationary_schedule_matches_solve_are():
    models = oracle_bank()
    st = mx.stationary_gains(models)
    assert st.stationary and st.horizon is None
    assert st.P.shape[:2] == (models.K, 1)
    for i in range(models.K):
        F, H = models.F[i], models.H[i]
        sol = mx.solve_are(F, H, models.Q, models.R, models.P0)
        assert st.solutions[i].iterations == sol.iterations
        np.testing.assert_allclose(st.cov(0, i), sol.P, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(st.cov(10 ** 6, i), sol.P, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(st.gain(7, i), mx.kalman_gain(sol.P, F, H, models.R),
                                   rtol=1e-12, atol=1e-12)
        S = mx.innovation_covariance(sol.P, H, models.R)
        np.testing.assert_allclose(st.innovation_cov(3, i), S, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(st.Sinv[i, 0] @ S, np.eye(models.m), rtol=1e-12, atol=1e-12)
        assert st.logdet_S[i, 0] == pytest.approx(np.linalg.slogdet(S)[1], rel=1e-12, abs=1e-12)
        lam = np.linalg.eigvalsh(H @ sol.P @ H.T)[-1]
        assert st.margin[i, 0] == pytest.approx(models.gamma ** 2 - lam, rel=1e-12, abs=1e-12)


def test_schedule_accessors_raise_out_of_range():
    seq = mx.run_recursion(oracle_bank(), 4)
    for t in (-1, 5):
        with pytest.raises(mx.HorizonExceeded):
            seq.cov(t, 0)
    for t in (-1, 4):
        with pytest.raises(mx.HorizonExceeded):
            seq.gain(t, 0)
        with pytest.raises(mx.HorizonExceeded):
            seq.innovation_cov(t, 0)


@pytest.mark.parametrize("r", [-0.5, -0.25], ids=["negative", "singular"])
def test_indefinite_innovation_covariance_names_model_and_t(r):
    # R is forced negative past validation.  With F = 0 every P_1 equals
    # Q = 0.25: model 0 (H = 2) keeps S > 0, while model 1 (H = 1) has
    # S_0 = r + 1 > 0 but S_1 = r + 0.25, negative for r = -0.5 and exactly
    # singular for r = -0.25.
    valid = mx.validate({"F": [0.0 * I1, 0.0 * I1], "H": [2.0 * I1, I1],
                         "Q": 0.25 * I1, "R": I1, "P0": I1, "gamma": 10.0})
    broken = dataclasses.replace(valid, R=r * I1)
    with pytest.raises(mx.FactorizationFailure, match=r"model 1, t=1"):
        mx.run_recursion(broken, 3)
    mx.run_recursion(broken, 1)  # t = 0 alone is fine


def test_require_feasible_names_earliest_violation():
    # P_t grows from P0 = 1 towards the golden ratio, so gamma^2 = 1.55 is
    # first crossed at t = 2 (P_2 = 1.6); model 1 (H = 2) fails at t = 0.
    models = mx.validate({"F": [I1, I1], "H": [I1, 2.0 * I1], "Q": I1, "R": I1,
                          "P0": I1, "gamma": np.sqrt(1.55)})
    seq = mx.run_recursion(models, 4)
    np.testing.assert_array_equal(seq.feasible[0], [True, True, False, False, False])
    assert not seq.feasible[1].any()
    with pytest.raises(mx.GammaInfeasible) as err:
        seq.require_feasible()
    assert (err.value.t, err.value.model) == (0, 1)
    assert err.value.lambda_max == pytest.approx(4.0)
    assert err.value.gamma_sq == pytest.approx(1.55)
    one = mx.validate({"F": [I1], "H": [I1], "Q": I1, "R": I1, "P0": I1,
                       "gamma": np.sqrt(1.55)})
    with pytest.raises(mx.GammaInfeasible) as err:
        mx.run_recursion(one, 4).require_feasible()
    assert (err.value.t, err.value.model) == (2, 0)
    assert err.value.lambda_max == pytest.approx(1.6)
    mx.run_recursion(one, 4).require_feasible(t=1)  # one time only
