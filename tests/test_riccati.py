import dataclasses
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import mmxest as mx
from mmxest import riccati
from conftest import make_random_models, raises_invalid, unit_bank
from oracles import kalman_step, settle_schedule, textbook_schedule

I1 = np.eye(1)


def scalar_are_root(f, q, r):
    # Fixed point of p = q + f^2 p - f^2 p^2 / (r + p) solves
    # p^2 + (r - q - f^2 r) p - q r = 0; take the positive root, in the
    # form without cancellation.
    b = r - q - f * f * r
    return 2.0 * q * r / (b + np.sqrt(b * b + 4.0 * q * r))


def test_step_scalar_unit_system():
    assert mx.run_recursion(unit_bank(), 1).cov(1, 0)[0, 0] == pytest.approx(1.5, abs=1e-12)
    assert kalman_step(I1, I1, I1, I1, I1)[2][0, 0] == pytest.approx(1.5, abs=1e-12)


def test_recursion_first_three_covariances():
    seq = mx.run_recursion(unit_bank(), 2)
    np.testing.assert_allclose(seq.P[:, 0, 0, 0], [1.0, 1.5, 1.6], atol=1e-12)
    p = I1
    seen = [p]
    for _ in range(2):
        p = kalman_step(p, I1, I1, I1, I1)[2]
        seen.append(p)
    np.testing.assert_allclose(np.ravel(seen), [1.0, 1.5, 1.6], atol=1e-12)


def test_kalman_gain_scalar():
    assert mx.run_recursion(unit_bank(), 1).gain(0, 0)[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert kalman_step(I1, I1, I1, I1, I1)[1][0, 0] == pytest.approx(0.5, abs=1e-12)


def test_innovation_covariance_scalar():
    assert mx.run_recursion(unit_bank(), 1).Sinv[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert kalman_step(I1, I1, I1, I1, I1)[0][0, 0] == pytest.approx(2.0, abs=1e-12)


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
        # The library's step, on a one-model bank started at P.
        seq = mx.run_recursion(mx.validate({"F": [F], "H": [H], "Q": Q, "R": R, "P0": P,
                                            "gamma": 1.0}), 1)
        direct = seq.cov(1, 0)
        info = Q + F @ np.linalg.inv(
            np.linalg.inv(P) + H.T @ np.linalg.inv(R) @ H) @ F.T
        np.testing.assert_allclose(direct, info, atol=1e-9)
        # Gain consistency: K S = F P H^T.
        np.testing.assert_allclose(seq.gain(0, 0) @ (R + H @ P @ H.T), F @ P @ H.T, atol=1e-9)
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
        again = kalman_step(sol.P, F, H, Q, R)[2]
        np.testing.assert_allclose(again, sol.P, atol=1e-9)
        # Cross-check against the dedicated DARE solver (estimation form).
        X = scipy.linalg.solve_discrete_are(F.T, H.T, Q, R)
        np.testing.assert_allclose(sol.P, X, atol=1e-7)


def test_solve_are_divergence_reported():
    with pytest.raises(mx.NoConvergence):
        mx.solve_are(2.0 * I1, np.zeros((1, 1)), I1, I1, I1)


def test_solve_are_no_convergence_carries_last_iterate(monkeypatch):
    monkeypatch.setattr(riccati, "ARE_MAX_ITER", 2)
    with pytest.raises(mx.NoConvergence, match="within 2 iterations") as err:
        mx.solve_are(I1, I1, I1, I1, I1)
    assert np.asarray(err.value.last).shape == (1, 1)


@pytest.mark.parametrize("bank", ["paper", "random_k3"])
def test_solve_are_is_the_hand_iterated_recursion(bank, paper_models):
    # The fixed point and the count are those of the one-step formula
    # iterated from P0 to the settle rule one model at a time, from a cold
    # cache.
    models = (paper_models if bank == "paper"
              else make_random_models(np.random.default_rng(5), 3, 4, 2))
    riccati._solve_are.cache_clear()
    settle, covs = settle_schedule(models, riccati.ARE_MAX_ITER)
    for i in range(models.K):
        sol = mx.solve_are(models.F[i], models.H[i], models.Q, models.R, models.P0)
        assert riccati._solve_are.cache_info().misses == i + 1
        np.testing.assert_array_equal(sol.P, covs[i][-1])
        assert sol.iterations == settle[i] < riccati.ARE_MAX_ITER


def test_equal_are_inputs_share_one_read_only_solution():
    riccati._solve_are.cache_clear()
    sol = mx.solve_are(0.5 * I1, I1, I1, I1, I1)
    # inputs are normalised to 2-D float64 before they are compared
    again = mx.solve_are(np.array([[0.5]]), 1.0, [[1]], I1, np.ones((1, 1), np.float32))
    assert again is sol
    info = riccati._solve_are.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert not sol.P.flags.writeable
    with pytest.raises(ValueError):
        sol.P[0, 0] = 0.0
    assert mx.solve_are(0.25 * I1, I1, I1, I1, I1) is not sol


def test_patched_are_max_iter_raises_on_cached_inputs(monkeypatch):
    sol = mx.solve_are(I1, I1, I1, I1, I1)
    monkeypatch.setattr(riccati, "ARE_MAX_ITER", 2)
    for _ in range(2):  # a NoConvergence is not cached
        with pytest.raises(mx.NoConvergence, match="within 2 iterations"):
            mx.solve_are(I1, I1, I1, I1, I1)
    monkeypatch.undo()
    assert mx.solve_are(I1, I1, I1, I1, I1) is sol


def test_solve_are_divergence_names_first_non_finite_step():
    # P_k = 4^k overflows to inf at step 512 (4^512 = 2^1024).
    with pytest.raises(mx.NoConvergence, match="diverged after 512 steps") as err:
        mx.solve_are(2.0 * I1, np.zeros((1, 1)), 0.0 * I1, I1, I1)
    assert np.isfinite(err.value.last).all()


def test_solve_are_rejects_a_non_finite_input():
    # Before any iteration: not a NoConvergence "diverged after 0 steps".
    with raises_invalid("P_init", "^P_init has a non-finite entry$"):
        mx.solve_are(I1, I1, I1, I1, np.inf * I1)
    with raises_invalid("Q", "^Q has a non-finite entry$"):
        mx.solve_are(I1, I1, np.nan * I1, I1, I1)


def test_solve_are_rejects_mismatched_shapes():
    # H must be m x n for the n x n F; numpy's matmul error no longer escapes.
    F = 0.5 * np.eye(2)
    with raises_invalid("H", r"^H has shape \(3, 3\), expected \(3, 2\)$"):
        mx.solve_are(F, np.eye(3), np.eye(2), np.eye(3), np.eye(2))
    with raises_invalid("P_init", r"^P_init has shape \(3, 3\), expected \(2, 2\)$"):
        mx.solve_are(F, np.ones((1, 2)), np.eye(2), I1, np.eye(3))
    with raises_invalid("F", r"^F has shape \(2, 3\), expected \(2, 2\)$"):
        mx.solve_are(np.ones((2, 3)), np.ones((1, 3)), np.eye(3), I1, np.eye(3))


def test_solve_are_memory_stays_flat_to_its_iteration_cap():
    # F = 0.999, Q = 1e-6 settles only at t = 10365, so the solve runs all
    # ARE_MAX_ITER steps; it keeps the last two blocks, not one per step.
    tracemalloc.start()
    try:
        with pytest.raises(mx.NoConvergence, match="within 10000 iterations"):
            mx.solve_are(0.999 * I1, I1, 1e-6 * I1, I1, I1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_solve_are_meets_the_scalar_closed_form():
    # Within the settle rule's documented SETTLE_ULPS eps / (1 - rho)
    # relative, with a factor 2 for rounding; rho = (F - K H)^2 at the root.
    f, q = 0.99, 1e-4
    p = scalar_are_root(f, q, 1.0)
    sol = mx.solve_are(f * I1, I1, q * I1, I1, I1)
    rho = (f / (1.0 + p)) ** 2
    tol = 2 * riccati.SETTLE_ULPS * np.finfo(float).eps / (1 - rho)
    assert abs(sol.P[0, 0] - p) <= tol * p


def test_stationary_gains_are_the_settled_recursion(paper_models, bench_banks):
    # The stationary schedule is the time-varying one's settled column, bit
    # for bit, and each model's ARE count is the column it was read from.
    rng = np.random.default_rng(22)
    banks = [paper_models, *bench_banks.values()]
    for _ in range(20):
        K, n, m = (int(rng.integers(1, hi)) for hi in (9, 5, 4))
        banks.append(make_random_models(rng, K, n, m))
    for models in banks:
        st = mx.stationary_gains(models)
        seq = mx.run_recursion(models, 5000)
        assert seq.P.shape[0] <= 5000  # every model settled
        for name in ("P", "Sinv", "W"):
            np.testing.assert_array_equal(getattr(st, name)[0], getattr(seq, name)[-1],
                                          err_msg=name)
        for i in range(models.K):
            T = mx.solve_are(models.F[i], models.H[i], models.Q, models.R, models.P0).iterations
            np.testing.assert_array_equal(seq.P[T, i], st.P[0, i])


def test_gamma_feasibility_is_strict():
    # lambda_max(H P0 H^T) = 1 at t = 0
    assert mx.run_recursion(unit_bank(gamma=1.0 + 1e-9), 1).feasible[0, 0]
    assert not mx.run_recursion(unit_bank(gamma=1.0), 1).feasible[0, 0]  # boundary excluded
    assert not mx.run_recursion(unit_bank(gamma=2.0, P0=4.0 * I1), 1).feasible[0, 0]


def test_run_recursion_shapes_and_bounds(paper_models):
    N = 7
    seq = mx.run_recursion(paper_models, N)
    assert seq.horizon == N
    assert not seq.stationary
    assert seq.P.shape == (N + 1, 2, 3, 3)
    assert seq.Sinv.shape == (N, 2, 1, 1)
    assert seq.W.shape == (N + 1, 2, 1, 1)
    assert seq.cov(0, 0).shape == (3, 3)
    np.testing.assert_array_equal(seq.cov(0, 1), np.eye(3))
    assert seq.cov(N, 0).shape == (3, 3)
    assert seq.gain(N - 1, 1).shape == (3, 1)
    with raises_invalid("t", "^no covariance at t=8; horizon is 7$"):
        seq.cov(N + 1, 0)
    with raises_invalid("t", "^no gain at t=7; horizon is 7$"):
        seq.gain(N, 0)  # gains exist only up to N - 1
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
        sol = mx.solve_are(paper_models.F[i], paper_models.H[i], paper_models.Q,
                           paper_models.R, paper_models.P0)
        np.testing.assert_array_equal(st.cov(0, i), sol.P)
        assert sol.residual <= 1e-10
        fixed = kalman_step(sol.P, paper_models.F[i], paper_models.H[i],
                            paper_models.Q, paper_models.R)[2]
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
            _, gain, P = kalman_step(P, models.F[i], models.H[i], models.Q, models.R)
            np.testing.assert_allclose(seq.gain(t, i), gain, atol=1e-10)
        np.testing.assert_allclose(seq.cov(N, i), P, atol=1e-10)


def test_solve_are_runtime_budget():
    riccati._solve_are.cache_clear()  # time a solve, not a cache hit
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
            assert seq.margin[t, i] == pytest.approx(gsq - lam, rel=1e-12, abs=1e-12)
            if t == N:
                break
            S, gain, P_next = kalman_step(P, F, H, models.Q, models.R)
            np.testing.assert_allclose(seq.Sinv[t, i] @ S, np.eye(models.m), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(seq.gain(t, i), gain, rtol=1e-12, atol=1e-12)
            sign, logdet = np.linalg.slogdet(S)
            assert sign == 1.0
            assert (seq.log_norm[t, i] - models.m * riccati.LOG_2PI
                    == pytest.approx(logdet, rel=1e-12, abs=1e-12))
            P = P_next


def test_stationary_schedule_matches_solve_are():
    models = oracle_bank()
    st = mx.stationary_gains(models)
    assert st.stationary and st.horizon is None
    assert st.P.shape[:2] == (1, models.K)
    for i in range(models.K):
        F, H = models.F[i], models.H[i]
        sol = mx.solve_are(F, H, models.Q, models.R, models.P0)
        np.testing.assert_array_equal(st.cov(0, i), sol.P)
        np.testing.assert_allclose(st.cov(10 ** 6, i), sol.P, rtol=1e-12, atol=1e-12)
        S, gain, _ = kalman_step(sol.P, F, H, models.Q, models.R)
        np.testing.assert_allclose(st.gain(7, i), gain, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(st.Sinv[0, i] @ S, np.eye(models.m), rtol=1e-12, atol=1e-12)
        assert (st.log_norm[0, i] - models.m * riccati.LOG_2PI
                == pytest.approx(np.linalg.slogdet(S)[1], rel=1e-12, abs=1e-12))
        lam = np.linalg.eigvalsh(H @ sol.P @ H.T)[-1]
        assert st.margin[0, i] == pytest.approx(models.gamma ** 2 - lam, rel=1e-12, abs=1e-12)


def test_schedule_accessors_raise_out_of_range():
    seq = mx.run_recursion(oracle_bank(), 4)
    for t in (-1, 5):
        with raises_invalid("t", f"^no covariance at t={t}; horizon is 4$"):
            seq.cov(t, 0)
    for t in (-1, 4):
        with raises_invalid("t", f"^no gain at t={t}; horizon is 4$"):
            seq.gain(t, 0)
    stat = mx.stationary_gains(oracle_bank())  # one column for every t >= 0, none for t < 0
    for what, read in (("covariance", lambda t: stat.cov(t, 0)), ("covariance", stat.lambda_max),
                       ("covariance", stat.require_feasible), ("gain", lambda t: stat.gain(t, 0))):
        read(10**6)
        with raises_invalid("t", f"^no {what} at t=-1; a stationary schedule starts at t=0$"):
            read(-1)


@pytest.mark.parametrize("t", [2.5, True, "3", np.float64(3.0)],
                         ids=["float", "bool", "str", "numpy-float"])
@pytest.mark.parametrize("read", ["cov", "gain", "lambda_max", "require_feasible"])
@pytest.mark.parametrize("stationary", [False, True], ids=["time-varying", "stationary"])
def test_schedule_accessors_reject_a_t_that_is_not_an_integer(stationary, read, t, paper_models):
    # Such a t would index the grids (True picks a whole grid, 2.5 fails in
    # numpy, "3" in a comparison) or read column 0 of a stationary schedule.
    seq = mx.stationary_gains(paper_models) if stationary else mx.run_recursion(paper_models, 5)
    args = (t, 0) if read in ("cov", "gain") else (t,)
    with raises_invalid("t", f"^{re.escape(f't must be an integer, got {t!r}')}$"):
        getattr(seq, read)(*args)


@pytest.mark.parametrize("i", [-1, 2, True, 2.5], ids=["negative", "K", "bool", "float"])
@pytest.mark.parametrize("read", ["cov", "gain"])
@pytest.mark.parametrize("stationary", [False, True], ids=["time-varying", "stationary"])
def test_schedule_accessors_reject_a_model_index_out_of_the_bank(stationary, read, i,
                                                                  paper_models):
    # Such an i would read model K - 1 (-1), fail in numpy (K, 2.5) or
    # broadcast a whole grid (True).
    seq = mx.stationary_gains(paper_models) if stationary else mx.run_recursion(paper_models, 5)
    want = f"model index must be an integer in 0..1, got {i!r}"
    with raises_invalid("i", f"^{re.escape(want)}$"):
        getattr(seq, read)(0, i)
    assert getattr(seq, read)(0, np.int64(1)).tobytes() == getattr(seq, read)(0, 1).tobytes()


def test_indefinite_innovation_covariances_name_the_earliest_t_then_the_lowest_model():
    # R is forced negative past validation; with F = 0 every P_t, t >= 1,
    # equals Q = 0.25, and S_t = -0.5 + H^2 P_t.  Model 0 (H = 1) has S_0 =
    # 0.5 but S_1 = -0.25; models 1 and 2 (H = 0.1, 0.2) fail already at t =
    # 0.  The report names t = 0 and the lower of the two models failing there.
    valid = mx.validate({"F": [0.0 * I1] * 3, "H": [I1, 0.1 * I1, 0.2 * I1],
                         "Q": 0.25 * I1, "R": I1, "P0": I1, "gamma": 10.0})
    broken = dataclasses.replace(valid, R=-0.5 * I1)
    with pytest.raises(mx.FactorizationFailure, match=r"^model 1, t=0: "):
        mx.run_recursion(broken, 5)


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
    np.testing.assert_array_equal(seq.feasible[:, 0], [True, True, False, False, False])
    assert not seq.feasible[:, 1].any()
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


def test_schedule_stores_nan_weights_where_infeasible():
    # I - gamma^{-2} H P0 H^T is 0 (singular) for gamma = 1 and -7/9 for
    # gamma = 1.5, P0 = 4; neither schedule raises, both hold NaN weights.
    for models in (unit_bank(gamma=1.0), unit_bank(gamma=1.5, P0=4.0 * I1)):
        seq = mx.run_recursion(models, 1)
        assert not seq.feasible[0, 0]
        assert np.isnan(seq.W[0, 0]).all()
    seq = mx.run_recursion(unit_bank(gamma=3.0), 1)
    np.testing.assert_allclose(seq.W[:, 0, 0, 0], [9.0 / 8.0, 9.0 / 7.5], rtol=1e-15)
    assert not seq.W.flags.writeable  # build_pieces hands out views of it


SLOW_BANK = {"F": [0.999 * I1], "H": [I1], "Q": 1e-6 * I1, "R": I1, "P0": I1, "gamma": 3.0}
# P of model 0 overflows at t = 1, so S_1 is not positive definite.
OVERFLOW_BANK = {"F": [1e200 * I1, 0.5 * I1], "H": [I1, I1], "Q": I1, "R": I1, "P0": I1,
                 "gamma": 1e100}
# Each model has a calm step, then one that is not, shortly before it
# settles (at t = 22 and t = 39); a calm count that is not reset by the
# step that is not calm would let each leave one step early.
DIP_BANK = {"F": [[[-0.5, -0.3], [1.3, -0.2]], [[0.4, 1.0], [-0.3, 0.6]]],
            "H": [[[0.2, 0.8]], [[-0.3, 0.3]]], "Q": 0.9 * np.eye(2), "R": I1,
            "P0": np.eye(2), "gamma": 100.0}
# SLOW_BANK's model settles at t = 10365, the fast one at t = 35.
FAST_AND_SLOW_BANK = {"F": [0.5 * I1, 0.999 * I1], "H": [I1, I1], "Q": 1e-6 * I1, "R": I1,
                      "P0": I1, "gamma": 3.0}


@pytest.fixture(scope="module")
def settle_banks(paper_models, bench_banks):
    # K8 and K32 are the benchmark's bank seed 0.
    return {"paper": paper_models, "K8": bench_banks["bank0-K8"],
            "K32": bench_banks["bank0-K32"], "slow": mx.validate(SLOW_BANK),
            "dip": mx.validate(DIP_BANK), "mixed": mx.validate(FAST_AND_SLOW_BANK)}


def contraction_rate(models, P):
    """Squared spectral radius of F - K H at covariances P, the rate at which
    the recursion contracts near its fixed point; the largest over the bank."""
    rate = 0.0
    for i in range(models.K):
        F, H = models.F[i], models.H[i]
        gain = kalman_step(P[i], F, H, models.Q, models.R)[1]
        rate = max(rate, float(np.max(np.abs(np.linalg.eigvals(F - gain @ H)))) ** 2)
    return rate


@pytest.mark.parametrize("bank, N", [("paper", 1000), ("K8", 200), ("K32", 200), ("slow", 11000)])
def test_settled_schedule_matches_unclamped_recursion(bank, N, settle_banks):
    models = settle_banks[bank]
    seq = mx.run_recursion(models, N)
    assert seq.P.shape[0] - 1 < N  # the schedule was cut short
    want = textbook_schedule(models, N)
    # The documented bound of the cutoff, SETTLE_ULPS eps / (1 - rho)
    # relative, with a factor 2 for the rounding of the two recursions.
    rho = contraction_rate(models, want["P"][:, N])
    tol = 2 * riccati.SETTLE_ULPS * np.finfo(float).eps / (1 - rho)
    terminal = [seq.column(t, terminal=True) for t in range(N + 1)]
    gain = [seq.column(t) for t in range(N)]
    for name, cols in (("P", terminal), ("Sinv", gain), ("W", terminal)):
        got, ref = getattr(seq, name)[cols].swapaxes(0, 1), want[name]
        err = np.abs(got - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
        assert err.max() <= tol, name
    margin = seq.margin[terminal].T
    assert (np.abs(margin - want["margin"]) <= tol * np.abs(want["margin"])).all()
    logdet_S = (seq.log_norm[gain] - models.m * riccati.LOG_2PI).T
    assert np.abs(logdet_S - want["logdet_S"]).max() <= models.m * tol


GRIDS = ("P", "Sinv", "log_norm", "margin", "W")


def assert_clamped(seq, i, T):
    """Model i's columns after T repeat its column T exactly, in every grid."""
    for name in GRIDS:
        grid = getattr(seq, name)[:, i]
        np.testing.assert_array_equal(grid[T + 1:], np.broadcast_to(grid[T], grid[T + 1:].shape),
                                      err_msg=name)


def test_stationary_gains_of_a_model_slower_than_are_max_iter_raise(settle_banks):
    # SLOW_BANK's model settles at t = 10365: past ARE_MAX_ITER, so the ARE
    # stops short, while the time-varying schedule still serves the bank.
    models = settle_banks["slow"]
    with pytest.raises(mx.NoConvergence, match=f"^model 0: no fixed point within "
                                               f"{riccati.ARE_MAX_ITER} iterations$") as err:
        mx.stationary_gains(models)
    assert np.isfinite(err.value.last).all()
    assert mx.run_recursion(models, 11000).P.shape[0] == 10366


@pytest.mark.parametrize("bank", ["paper", "K8", "K32", "dip"])
def test_each_model_settles_at_its_own_step(bank, settle_banks):
    models = settle_banks[bank]
    N = 200
    seq = mx.run_recursion(models, N)
    settle, covs = settle_schedule(models, N)
    assert seq.P.shape[0] - 1 == max(settle) < N
    if bank in ("K32", "dip"):
        assert min(settle) < max(settle)  # the models leave the loop at different steps
    if bank == "dip":
        assert settle == [22, 39]
    for i, T in enumerate(settle):
        np.testing.assert_array_equal(seq.P[:T + 1, i], covs[i])
        assert_clamped(seq, i, T)


def test_mixed_bank_clamps_only_the_settled_model(settle_banks):
    N = 2000
    seq = mx.run_recursion(settle_banks["mixed"], N)
    assert (seq.P.shape[0], seq.Sinv.shape[0], seq.log_norm.shape[0]) == (N + 1, N, N)
    assert (seq.margin.shape[0], seq.W.shape[0]) == (N + 1, N + 1)
    settle, _ = settle_schedule(settle_banks["mixed"], N)
    assert settle[0] < N == settle[1]
    assert_clamped(seq, 0, settle[0])
    # the slow model is the unclamped recursion, bit for bit
    alone = mx.run_recursion(mx.validate(SLOW_BANK), N)
    assert alone.P.shape[0] == N + 1
    for name in GRIDS:
        np.testing.assert_array_equal(getattr(seq, name)[:, 1], getattr(alone, name)[:, 0],
                                      err_msg=name)
    np.testing.assert_array_equal(seq.bank_feasible, alone.bank_feasible)


@pytest.mark.parametrize("bank, N", [("K32", 200), ("mixed", 2000)])
def test_certificates_match_dense_recomputation(bank, N, settle_banks):
    # Each certificate is computed once per (model, column) up to the
    # model's settle step and spread to the columns after it; every column
    # must read what the definitions give on its own P.
    models = settle_banks[bank]
    seq = mx.run_recursion(models, N)
    gsq, H, m = seq.gamma_sq, models.H, models.m
    HPHt = np.einsum("kij,tkjl,kml->tkim", H, seq.P, H)
    np.testing.assert_array_equal(seq.margin, gsq - np.linalg.eigvalsh(HPHt)[..., -1])
    W = np.linalg.inv(np.eye(m) - HPHt / gsq)
    np.testing.assert_array_equal(seq.W, 0.5 * (W + W.swapaxes(-1, -2)))
    np.testing.assert_array_equal(seq.bank_feasible, (seq.margin > 0).all(axis=1))
    cols = seq.Sinv.shape[0]
    S = models.R + H @ (seq.P[:cols] @ H.swapaxes(-1, -2))
    np.testing.assert_array_equal(seq.Sinv, np.linalg.inv(0.5 * (S + S.swapaxes(-1, -2))))
    log_norm = m * riccati.LOG_2PI - np.log(np.linalg.eigvalsh(seq.Sinv)).sum(axis=-1)
    np.testing.assert_array_equal(seq.log_norm, log_norm)
    np.testing.assert_allclose(seq.log_norm - m * riccati.LOG_2PI, np.linalg.slogdet(S)[1],
                               rtol=0, atol=1e-12)


def test_settled_schedule_clamps_to_last_column(paper_models):
    short = mx.run_recursion(paper_models, 10)  # ends before the recursion settles
    assert (short.P.shape[0], short.Sinv.shape[0], short.W.shape[0]) == (11, 10, 11)
    N = 100
    seq = mx.run_recursion(paper_models, N)
    T = seq.P.shape[0] - 1
    assert 10 < T < N
    assert mx.run_recursion(paper_models, 1000).P.shape[0] == T + 1  # the cutoff ignores N
    for name in ("Sinv", "log_norm", "margin", "W"):
        assert getattr(seq, name).shape[0] == T + 1
    assert [seq.column(t) for t in (0, T - 1, T, T + 1, N - 1)] == [0, T - 1, T, T, T]
    assert seq.column(N, terminal=True) == T
    np.testing.assert_array_equal(seq.cov(N, 0), seq.P[T, 0])
    np.testing.assert_array_equal(seq.gain(N - 1, 1), seq.gain(T, 1))
    for t in (-1, N + 1):
        with raises_invalid("t", f"^no covariance at t={t}; horizon is {N}$"):
            seq.cov(t, 0)
    for t in (-1, N):
        with raises_invalid("t", f"^no gain at t={t}; horizon is {N}$"):
            seq.gain(t, 0)


def test_settled_schedule_names_earliest_violation():
    # As in test_require_feasible_names_earliest_violation, over a horizon
    # long enough for the schedule to be cut short.
    N = 100
    two = mx.validate({"F": [I1, I1], "H": [I1, 2.0 * I1], "Q": I1, "R": I1,
                       "P0": I1, "gamma": np.sqrt(1.55)})
    one = mx.validate({"F": [I1], "H": [I1], "Q": I1, "R": I1, "P0": I1,
                       "gamma": np.sqrt(1.55)})
    for models, where in ((two, (0, 1)), (one, (2, 0))):
        seq = mx.run_recursion(models, N)
        assert seq.P.shape[0] - 1 < N
        with pytest.raises(mx.GammaInfeasible) as err:
            seq.require_feasible()
        assert (err.value.t, err.value.model) == where
    with pytest.raises(mx.GammaInfeasible) as err:
        mx.run_recursion(one, N).require_feasible(t=N)  # read from the last column
    assert (err.value.t, err.value.model) == (N, 0)
    assert err.value.lambda_max == pytest.approx((1 + np.sqrt(5)) / 2)


def test_schedule_memory_flat_in_horizon(paper_models):
    def peak(N):
        riccati._run_recursion.cache_clear()  # measure a recursion, not a cache hit
        tracemalloc.start()
        try:
            mx.run_recursion(paper_models, N)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mx.run_recursion(paper_models, 1000)  # first-call allocations stay out of both peaks
    small = peak(1000)
    assert peak(100_000) <= 1.1 * small


def test_unsettled_schedule_holds_only_its_arrays():
    # SLOW_BANK does not settle within N, so every one of the N + 1 columns
    # is stored; a call must leave held about the arrays' bytes, with no
    # per-column objects on top.
    riccati._run_recursion.cache_clear()  # measure a recursion, not a cache hit
    tracemalloc.start()
    try:
        seq = mx.run_recursion(mx.validate(SLOW_BANK), 2000)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert seq.P.shape[0] == 2001
    arrays = sum(getattr(seq, name).nbytes
                 for name in ("P", "Sinv", "log_norm", "margin", "bank_feasible", "W", "Ht"))
    assert held <= 1.5 * arrays


def test_bank_feasible_flags_follow_margins():
    # One flag per column, true iff every model's margin there is positive;
    # require_feasible(t) answers from it and raises the margin's diagnostic.
    models = mx.validate({"F": [I1, I1], "H": [I1, 0.5 * I1], "Q": I1, "R": I1,
                          "P0": I1, "gamma": np.sqrt(1.55)})
    seq = mx.run_recursion(models, 4)
    np.testing.assert_array_equal(seq.bank_feasible, [True, True, False, False, False])
    np.testing.assert_array_equal(seq.bank_feasible, (seq.margin > 0).all(axis=1))
    seq.require_feasible(1)
    with pytest.raises(mx.GammaInfeasible) as err:
        seq.require_feasible(3)
    assert (err.value.t, err.value.model) == (3, 0)
    assert err.value.lambda_max == pytest.approx(seq.lambda_max(3)[0])
    stationary = mx.stationary_gains(models)
    np.testing.assert_array_equal(stationary.bank_feasible, [False])
    with pytest.raises(mx.GammaInfeasible) as err:
        stationary.require_feasible(7)
    assert (err.value.t, err.value.model) == (7, 0)


@pytest.mark.parametrize("N, match", [
    (-1, ">= 0, got -1$"), (2.5, "an integer, got 2.5$"), (20.0, "an integer, got 20.0$"),
    (True, "an integer, got True$"), (np.bool_(True), "an integer, got "), ("3", "an integer"),
], ids=["negative", "fraction", "float", "bool", "numpy-bool", "string"])
def test_recursion_horizon_must_be_a_non_negative_integer(N, match):
    with raises_invalid("N", "^horizon must be " + match):
        mx.run_recursion(unit_bank(), N)


def test_recursion_horizon_takes_numpy_integers():
    seq = mx.run_recursion(unit_bank(), np.int64(3))
    assert type(seq.horizon) is int and seq.horizon == 3
    assert seq.P is mx.run_recursion(unit_bank(), 3).P


def test_equal_banks_share_one_schedule_with_their_own_models(paper_models):
    riccati._run_recursion.cache_clear()
    seq = mx.run_recursion(paper_models, 30)
    twin = dataclasses.replace(paper_models)  # equal, not the same object
    again = mx.run_recursion(twin, 30)
    info = riccati._run_recursion.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert seq.models is paper_models and again.models is twin
    for name in ("P", "Sinv", "log_norm", "margin", "bank_feasible", "W", "Ht"):
        assert getattr(again, name) is getattr(seq, name)
    assert mx.run_recursion(paper_models, 31).P is not seq.P
    louder = dataclasses.replace(paper_models, gamma=2.0 * paper_models.gamma)
    assert mx.run_recursion(louder, 30).gamma_sq == 4.0 * seq.gamma_sq


def test_equal_stationary_banks_share_one_read_only_schedule(paper_models):
    riccati._stationary_schedule.cache_clear()
    seq = mx.stationary_gains(paper_models)
    twin = dataclasses.replace(paper_models)  # equal, not the same object
    again = mx.stationary_gains(twin)
    info = riccati._stationary_schedule.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert seq.models is paper_models and again.models is twin
    for name in ("P", "Sinv", "log_norm", "margin", "bank_feasible", "W", "Ht"):
        assert getattr(again, name) is getattr(seq, name)
        assert not getattr(again, name).flags.writeable
    louder = dataclasses.replace(paper_models, gamma=2.0 * paper_models.gamma)
    assert mx.stationary_gains(louder).gamma_sq == 4.0 * seq.gamma_sq


@pytest.mark.parametrize("field", ["B", "xhat0"])
def test_stationary_bank_differing_in_input_map_or_start_filters_with_its_own(field):
    # Same covariances, so the second bank's schedule is a cache hit; it
    # must still filter with its own B or xhat0.
    models = make_random_models(np.random.default_rng(7), 3, 3, 1, with_input=True)
    other = dataclasses.replace(models, **{field: getattr(models, field) + 1.0})

    def run(bank):
        return mx.simulate(bank, 1, 30, input_spec=mx.InputSpec("sinusoid"), stationary=True)

    riccati._stationary_schedule.cache_clear()
    cold = run(other)
    riccati._stationary_schedule.cache_clear()
    own = run(models)
    warm = run(other)
    assert riccati._stationary_schedule.cache_info().hits == 1
    for f in dataclasses.fields(cold):
        a, b = getattr(cold, f.name), getattr(warm, f.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
    assert not np.array_equal(own.yhat_models, warm.yhat_models)


def test_failed_stationary_schedule_is_raised_on_every_call(settle_banks):
    # R < 0, past validate, makes S = R + H P H^T negative at the fixed point.
    bank = mx.validate({"F": [0.5 * I1, 0.3 * I1], "H": [I1, I1], "Q": I1, "R": I1, "P0": I1,
                        "gamma": 10.0})
    bad = dataclasses.replace(bank, R=-5.0 * I1)
    riccati._stationary_schedule.cache_clear()
    for calls in (1, 2):
        with pytest.raises(mx.FactorizationFailure, match="^model 0: innovation covariance"):
            mx.stationary_gains(bad)
        info = riccati._stationary_schedule.cache_info()
        assert (info.misses, info.hits, info.currsize) == (calls, 0, 0)
    for _ in range(2):
        with pytest.raises(mx.NoConvergence, match="^model 0: no fixed point"):
            mx.stationary_gains(settle_banks["slow"])


def test_bank_differing_in_input_map_and_start_filters_with_its_own():
    # Same covariances, so the second bank's run is a cache hit; it must
    # still filter with its own B and xhat0.
    models = make_random_models(np.random.default_rng(7), 3, 3, 1, with_input=True)
    other = dataclasses.replace(models, B=-2.0 * models.B, xhat0=models.xhat0 + 1.0)

    def run(bank):
        return mx.simulate(bank, 1, 30, input_spec=mx.InputSpec("sinusoid"))

    riccati._run_recursion.cache_clear()
    cold = run(other)
    riccati._run_recursion.cache_clear()
    own = run(models)
    warm = run(other)
    assert riccati._run_recursion.cache_info().hits == 1
    for field in dataclasses.fields(cold):
        a, b = getattr(cold, field.name), getattr(warm, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
    assert not np.array_equal(own.yhat_models, warm.yhat_models)


@pytest.mark.parametrize("make", [lambda: mx.run_recursion(oracle_bank(), 4),
                                  lambda: mx.stationary_gains(oracle_bank())],
                         ids=["time-varying", "stationary"])
def test_schedule_arrays_are_read_only(make):
    seq = make()
    for name in ("P", "Sinv", "log_norm", "margin", "bank_feasible", "W"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(seq, name)[0, ...] = 0


@pytest.mark.parametrize("N", [1000, 10, None], ids=["settled", "unsettled", "stationary"])
def test_schedule_columns_are_read_only_views_of_its_arrays(N, paper_models):
    # Every step reads its column c of the t-major arrays as X[c]: a
    # contiguous, read-only view (no copy).  The paper bank settles at t =
    # 18, so N = 10 ends unsettled, with no S in its last column.
    seq = mx.stationary_gains(paper_models) if N is None else mx.run_recursion(paper_models, N)
    columns = {1000: 19, 10: 11, None: 1}[N]
    assert seq.P.shape[:2] == seq.W.shape[:2] == seq.margin.shape == (columns, 2)
    assert seq.Sinv.shape[:2] == seq.log_norm.shape == (columns - (N == 10), 2)
    assert seq.bank_feasible.shape == (columns,)
    assert not seq.bank_feasible.flags.writeable
    for name in ("P", "Sinv", "log_norm", "margin", "W"):
        whole = getattr(seq, name)
        for c in range(len(whole)):
            view = whole[c]
            assert view.flags.c_contiguous and not view.flags.writeable
            assert np.shares_memory(view, whole)
    log_norm = paper_models.m * riccati.LOG_2PI - np.log(np.linalg.eigvalsh(seq.Sinv)).sum(axis=-1)
    assert seq.log_norm.tobytes() == log_norm.tobytes()
    assert seq.Ht.shape == (2, 3, 1) and not seq.Ht.flags.writeable
    assert seq.Ht.tobytes() == paper_models.H.swapaxes(1, 2).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        seq.W[0][0] = 0.0


def test_failed_recursion_is_not_cached():
    bank = mx.validate(OVERFLOW_BANK)
    riccati._run_recursion.cache_clear()
    for calls in (1, 2):
        with pytest.raises(mx.FactorizationFailure, match="model 0, t=1"):
            mx.run_recursion(bank, 3)
        info = riccati._run_recursion.cache_info()
        assert (info.misses, info.hits, info.currsize) == (calls, 0, 0)


def test_patched_settle_steps_is_honoured_on_a_cached_bank(paper_models, monkeypatch):
    seq = mx.run_recursion(paper_models, 1000)
    monkeypatch.setattr(riccati, "SETTLE_STEPS", riccati.SETTLE_STEPS + 5)
    later = mx.run_recursion(paper_models, 1000)
    assert later.P.shape[0] == seq.P.shape[0] + 5
    np.testing.assert_array_equal(later.P[:seq.P.shape[0]], seq.P)
    monkeypatch.undo()
    assert mx.run_recursion(paper_models, 1000).P is seq.P


def test_diverging_bank_fails_without_running_out_the_horizon():
    # The loop ends at the first covariance that is not finite, so the
    # failure is raised at once, and its peak does not grow with N.
    bank = mx.validate(OVERFLOW_BANK)

    def peak(N):
        tracemalloc.start()
        try:
            with pytest.raises(mx.FactorizationFailure, match="^model 0, t=1: "):
                mx.run_recursion(bank, N)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # first-call allocations stay out of both peaks
    small = peak(1000)
    assert peak(100_000) <= 1.1 * small
