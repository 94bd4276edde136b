"""End-to-end acceptance gate.

Each criterion prints one PASS or FAIL line (run with ``pytest -s`` to see
the lines for passing runs too) and then asserts on the same condition.
"""
import math
import time

import numpy as np

import mmxest as mx
from mmxest import cli, filter_bank, minimax
from conftest import make_random_models, near_boundary_bank
from oracles import (
    concave_quadratic_max,
    disturbance_energy,
    explaining_energy,
    quadratic_max_closed_form,
    stacked_ls_value,
    value_function,
    worst_case_state,
)


def report(num, name, ok):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_stationary_covariance_golden_ratio():
    one = np.eye(1)
    mx.riccati._solve_are.cache_clear()  # time a solve, not a cache hit
    t0 = time.perf_counter()
    sol = mx.solve_are(one, one, one, one, one)
    elapsed = time.perf_counter() - t0
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    ok = abs(float(sol.P[0, 0]) - golden) <= 1e-9 and elapsed < 1.0
    report(1, "stationary_covariance_golden_ratio", ok)


def _single_model_errors(models, rng, steps=100):
    gains = mx.run_recursion(models, steps)
    state = filter_bank.init(gains)
    pred_err = value_err = 0.0
    for _ in range(steps):
        est = mx.solve(minimax.build_pieces(state))
        kalman = models.H[0] @ state.xbreve[0]
        pred_err = max(pred_err, float(np.max(np.abs(est.yhat - kalman))))
        value_err = max(value_err,
                        abs(est.value + models.gamma ** 2 * float(state.c[0])))
        state = filter_bank.step(state, kalman + rng.normal(size=models.m))
    return pred_err, value_err


def test_02_single_model_matches_kalman():
    # With one candidate there is nothing to hedge against: the game value
    # collapses onto the lone filter's prediction and its accumulated cost.
    rng = np.random.default_rng(12)
    worst_pred = worst_value = 0.0
    for n in (1, 3):
        models = make_random_models(rng, K=1, n=n, m=1)
        p, v = _single_model_errors(models, rng)
        worst_pred = max(worst_pred, p)
        worst_value = max(worst_value, v)
    ok = worst_pred <= 1e-9 and worst_value <= 1e-8
    report(2, "single_model_matches_kalman", ok)


def test_03_value_function_vs_trajectory_optimization():
    rng = np.random.default_rng(31)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        K = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, n + 1))
        with_input = bool(rng.integers(0, 2))
        models = make_random_models(rng, K, n, m, with_input=with_input)
        N = int(rng.integers(1, 4))
        gains = mx.run_recursion(models, N)
        state = filter_bank.init(gains)
        ys = rng.normal(size=(N, m))
        us = rng.normal(size=(N, models.p)) if models.p else None
        for t in range(N):
            state = filter_bank.step(state, ys[t], us[t] if us is not None else None)
        i = int(rng.integers(0, K))
        for _ in range(10):
            x_term = rng.normal(size=n)
            direct = value_function(state, x_term, i)
            oracle = stacked_ls_value(models, i, ys, us, x_term)
            worst = max(worst, abs(direct - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(3, "value_function_vs_trajectory_optimization", ok)


def test_04_quadratic_max_closed_form():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(50):
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4))
        A = rng.normal(size=(a, b))
        GX = rng.normal(size=(a, a))
        GY = rng.normal(size=(b, b))
        X = GX @ GX.T + a * np.eye(a)
        Y = GY @ GY.T + b * np.eye(b)
        M = A.T @ np.linalg.solve(X, A)
        # curvature stays negative definite: gamma^2 above lambda_max(M Y)
        lam = max(float(np.max(np.real(np.linalg.eigvals(M @ Y)))), 0.0)
        gamma = math.sqrt(2.0 * lam + 0.5)
        x = rng.normal(size=a)
        y = rng.normal(size=b)
        direct = quadratic_max_closed_form(x, y, A, X, Y, gamma)
        oracle, _ = concave_quadratic_max(x, y, A, X, Y, gamma)
        worst = max(worst, abs(direct - oracle))
    ok = worst <= 1e-8
    report(4, "quadratic_max_closed_form", ok)


def test_05_solver_vs_grid_search():
    rng = np.random.default_rng(7)
    worst_gap = worst_diff = 0.0
    spacing = 1e-4
    for _ in range(100):
        K = int(rng.integers(1, 5))
        a, c, o = np.array([(rng.uniform(0.5, 1.2), rng.uniform(-0.8, 0.8),
                             rng.uniform(-0.8, 0.8)) for _ in range(K)]).T
        est = mx.solve(mx.QuadraticPieces(W=a[:, None, None], centers=c[:, None], offsets=o))
        lo = c.min() - spacing
        hi = c.max() + spacing
        grid = np.arange(lo, hi + spacing, spacing)
        envelope = np.max(a[:, None] * (grid - c[:, None]) ** 2 + o[:, None], axis=0)
        worst_gap = max(worst_gap, est.gap)
        worst_diff = max(worst_diff, abs(est.value - float(envelope.min())))
    ok = worst_gap <= 1e-8 and worst_diff <= 1e-4
    report(5, "solver_vs_grid_search", ok)


def test_06_completed_square_identity():
    # The worst-case state certifies the piece value: plugging it back into
    # the raw objective must reproduce the weighted completed-square form.
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, n + 1))
        models = make_random_models(rng, K, n, m)
        steps = int(rng.integers(1, 4))
        gains = mx.run_recursion(models, steps)
        state = filter_bank.init(gains)
        for _ in range(steps):
            state = filter_bank.step(state, rng.normal(size=m))
        pieces = minimax.build_pieces(state)
        i = int(rng.integers(0, K))
        yhat = rng.normal(size=m)
        xstar = worst_case_state(yhat, i, state)
        r = yhat - models.H[i] @ xstar
        raw = float(r @ r) - models.gamma ** 2 * value_function(state, xstar, i)
        d = yhat - pieces.centers[i]
        completed = float(d @ pieces.W[i] @ d) + pieces.offsets[i]
        worst = max(worst, abs(raw - completed))
    ok = worst <= 1e-8
    report(6, "completed_square_identity", ok)


def test_07_estimator_agreement_after_burn_in(paper_config):
    # After a short burn-in the two estimators give practically the same
    # output trace; feasibility must hold at every step of every run.
    passes = 0
    feasible = True
    for s in range(50):
        cfg = mx.with_seed(paper_config, s)
        try:
            tr = mx.simulate(cfg.models, cfg.true_model, cfg.horizon,
                             process_noise=cfg.process_noise,
                             measurement_noise=cfg.measurement_noise,
                             input_spec=cfg.input_spec)
        except mx.GammaInfeasible:
            feasible = False
            break
        diff = tr.yhat_minimax[5:] - tr.yhat_bayes[5:]
        rms_diff = math.sqrt(float(np.mean(diff ** 2)))
        rms_z = math.sqrt(float(np.mean(tr.z[5:] ** 2)))
        if rms_diff < 0.25 * rms_z:
            passes += 1
    ok = feasible and passes >= 40
    report(7, "estimator_agreement_after_burn_in", ok)


def test_08_true_model_cost_advantage(paper_config):
    wins = 0
    horizon = 50
    gains = mx.run_recursion(paper_config.models, horizon)
    for s in range(50):
        cfg = mx.with_seed(paper_config, s)
        u, x, y, z = mx.generate_truth(cfg.models, cfg.true_model, horizon,
                                       cfg.process_noise,
                                       cfg.measurement_noise, cfg.input_spec)
        state = filter_bank.init(gains)
        for t in range(horizon):
            state = filter_bank.step(state, y[t], u[t])
        c_true = state.c[cfg.true_model]
        if all(c_true < state.c[j] for j in range(cfg.models.K)
               if j != cfg.true_model):
            wins += 1
    ok = wins >= 45
    report(8, "true_model_cost_advantage", ok)


def test_09_stationary_gain_convergence(paper_config):
    # The time-varying gain schedule approaches the stationary one, so the
    # per-model estimates from the two modes drift together over the run.
    passes = 0
    for s in range(50):
        cfg = mx.with_seed(paper_config, s)
        u, x, y, z = mx.generate_truth(cfg.models, cfg.true_model,
                                       cfg.horizon, cfg.process_noise,
                                       cfg.measurement_noise, cfg.input_spec)
        tv = mx.run_estimators(cfg.models, y, u=u, stationary=False,
                               run_minimax=False, run_bayes=False)
        st = mx.run_estimators(cfg.models, y, u=u, stationary=True,
                               run_minimax=False, run_bayes=False)
        d = np.max(np.abs(tv.yhat_models - st.yhat_models), axis=(1, 2))
        if d[15:20].max() < d[0:6].max():
            passes += 1
    ok = passes >= 45
    report(9, "stationary_gain_convergence", ok)


def test_10_deterministic_csv_output(tmp_path, paper_config_path):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    ok = cli.main(["run", "--config", paper_config_path,
                   "--out", str(first)]) == 0
    ok = ok and cli.main(["run", "--config", paper_config_path,
                          "--out", str(second)]) == 0
    blob = first.read_bytes()
    ok = ok and blob == second.read_bytes()
    ok = ok and blob.split(b"\n")[0] == b"t;z;zh_mini;zh_ba"
    report(10, "deterministic_csv_output", ok)


def test_11_minimax_becomes_the_true_model_filter(paper_config):
    # The paper's claim: once the bank has singled out the true model, the
    # estimator behaves like a standard Kalman filter.  t_learn is the first
    # step from which every solve is settled by the true model's piece
    # (lam = e_true); from there on the minimax prediction is that model's
    # Kalman prediction, bit for bit, and the game value is -gamma^2 times
    # its accumulated cost.
    horizon = 200
    gsq = paper_config.models.gamma ** 2
    learned = []
    for s in range(50):
        cfg = mx.with_seed(paper_config, s)
        tr = mx.simulate(cfg.models, cfg.true_model, horizon,
                         process_noise=cfg.process_noise,
                         measurement_noise=cfg.measurement_noise,
                         input_spec=cfg.input_spec)
        e_true = np.eye(cfg.models.K)[cfg.true_model]
        settled = np.all(tr.lam == e_true, axis=1)
        unsettled = np.flatnonzero(~settled)
        t_learn = int(unsettled[-1]) + 1 if unsettled.size else 0
        if t_learn == horizon:
            continue
        tail = slice(t_learn, None)
        if (np.array_equal(tr.yhat_minimax[tail], tr.yhat_models[tail, cfg.true_model])
                and np.array_equal(tr.J_star[tail], -gsq * tr.c[tail, cfg.true_model])):
            learned.append(t_learn)
    print(f"t_learn on {len(learned)} of 50 seeds, from {min(learned, default=None)} "
          f"to {max(learned, default=None)}")
    ok = len(learned) == 50
    report(11, "minimax_becomes_the_true_model_filter", ok)


def _ratio(J_star, err, budget):
    """Largest err / (J*_t + budget_t), and whether every step keeps err <=
    J*_t + budget_t to within 64 eps (|J*_t| + budget_t + err)."""
    bound = J_star + budget
    slack = 64 * np.finfo(float).eps * (np.abs(J_star) + budget + err)
    ok = bool((err <= bound + slack).all())
    positive = bound > 0  # at t = 0 bound and error are both 0: nothing is spent yet
    return float((err[positive] / bound[positive]).max()), ok


def _bound_ratio(models, true_model, horizon, process_noise, measurement_noise,
                 stationary=False, input_spec=mx.InputSpec()):
    """:func:`_ratio` of one simulated run, |z_t - yhat_t|^2 against J*_t +
    gamma^2 E_t with E_t the energy of the run's drawn disturbances."""
    tr = mx.simulate(models, true_model, horizon, process_noise, measurement_noise,
                     input_spec, stationary=stationary)
    budget = models.gamma ** 2 * disturbance_energy(models, tr, process_noise,
                                                    measurement_noise)
    return _ratio(tr.J_star, ((tr.z - tr.yhat_minimax) ** 2).sum(axis=1), budget)


def test_12_deterministic_error_bound(paper_config):
    # The paper's guarantee holds on every realized disturbance, not on
    # average: with E_t the energy of the true model's disturbances so far,
    # |z_t - yhat_t|^2 <= J*_t + gamma^2 E_t at every step.  Checked on the
    # paper config (20 seeds, both gain modes, where the bound is loose), on
    # every true model of two random banks at gamma^2 = 1.0001 times their
    # peak lambda_max(H P H^T), where it is tight, on the paper bank under
    # uniform noise unmatched to Q and R, without and with the config's
    # sinusoid input (without it, error, J* and E all scale with the noise
    # squared, so a second noise scale would repeat the first), and on
    # truths F = f F_base outside the paper bank, whose E_t is read from the
    # truth's states under each bank model (both share H, so the least of
    # the two bounds).
    worst, ok = {}, True

    def record(key, result):
        nonlocal ok
        worst[key] = max(worst.get(key, 0.0), result[0])
        ok &= result[1]

    for s in range(20):
        cfg = mx.with_seed(paper_config, s)
        for stationary in (False, True):
            record("paper", _bound_ratio(cfg.models, cfg.true_model, 400, cfg.process_noise,
                                         cfg.measurement_noise, stationary))
    for b in (5, 9):
        spec, _, peak = near_boundary_bank(b, 300)
        models = mx.validate({**spec, "gamma": float(np.sqrt(1.0001 * peak))})
        for true_model in range(models.K):
            record(f"bank {b}", _bound_ratio(models, true_model, 300, mx.NoiseSpec(seed=2 * b),
                                             mx.NoiseSpec(seed=2 * b + 1)))
    models = paper_config.models
    for key, input_spec in (("uniform 3", mx.InputSpec()),
                            ("uniform 3 sinusoid", paper_config.input_spec)):
        for s in range(10):
            record(key, _bound_ratio(models, paper_config.true_model, 400,
                                     mx.NoiseSpec("uniform-bounded", 3, 2 * s),
                                     mx.NoiseSpec("uniform-bounded", 3, 2 * s + 1),
                                     input_spec=input_spec))
    assert (models.H == models.H[0]).all()
    for f in (0.5, 0.9, -0.7):
        truth_bank = mx.validate({"F": [f * models.F[1]], "H": [models.H[1]], "Q": models.Q,
                                  "R": models.R, "P0": models.P0, "gamma": models.gamma})
        for s in range(10):
            _, x, y, z = mx.generate_truth(truth_bank, 0, 400, mx.NoiseSpec(seed=2 * s),
                                           mx.NoiseSpec(seed=2 * s + 1))
            tr = mx.run_estimators(models, y)
            budget = models.gamma ** 2 * explaining_energy(models, tr.u, x, y).min(axis=0)
            record(f"F x {f}", _ratio(tr.J_star, ((z - tr.yhat_minimax) ** 2).sum(axis=1),
                                      budget))
    print("largest error / bound: " + ", ".join(f"{k} {v:.3f}" for k, v in worst.items()))
    report(12, "deterministic_error_bound", ok)
