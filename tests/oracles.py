"""Independent oracles used by unit and acceptance tests.

These deliberately avoid the library's recursions: the value function is
minimized as one stacked least-squares problem over the whole trajectory,
the concave quadratic maximum is found from its first-order condition, and
the Kalman quantities are the textbook measurement and time updates.  The
settle rule is applied one model at a time to the one-step formula, with
none of the batched recursion's bookkeeping.

The verification devices of the paper (the forward value function, the
worst-case state and the closed-form quadratic maximum) live here too: no
estimator needs them, and the tests check each against an independent
oracle above or an identity of the paper.

The reference kernels at the end are the straightforward forms of rewritten
library kernels: the dominance test over every top row, the estimators' step
loop, the per-step truth loop, the per-value CSV renderer and the seeded
noise stream, word by word and one Box-Muller pair at a time.  The realized
disturbance energy of a simulated run states the paper's guarantee.
"""
import math

import numpy as np

import mmxest as mx


def stacked_ls_value(models, i, ys, us, x_terminal):
    """Trajectory-form value: minimize over (x_0, w_0..w_{N-1})

        |x_0 - xhat0|^2_{P0^{-1}} + sum |w_t|^2_{Q^{-1}}
                                  + sum |y_t - H x_t|^2_{R^{-1}}

    subject to x_{t+1} = F x_t + B u_t + w_t and x_N = x_terminal, by
    solving the KKT system of the equality-constrained least squares.
    """
    F = np.asarray(models.F[i], dtype=float)
    H = np.asarray(models.H[i], dtype=float)
    n = F.shape[0]
    m = H.shape[0]
    N = len(ys)
    ys = [np.asarray(y, dtype=float).reshape(m) for y in ys]

    # Powers of F and the input-driven part of each state.
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(F @ powers[-1])
    drift = [np.zeros(n)]
    for t in range(N):
        d = F @ drift[t]
        if models.p > 0 and us is not None:
            d = d + models.B[i] @ np.asarray(us[t], dtype=float).reshape(models.p)
        drift.append(d)

    nvar = n * (N + 1)  # x_0 then w_0 .. w_{N-1}

    def state_map(t):
        A = np.zeros((n, nvar))
        A[:, :n] = powers[t]
        for s in range(t):
            A[:, n * (s + 1):n * (s + 2)] = powers[t - 1 - s]
        return A

    L0 = np.linalg.cholesky(np.asarray(models.P0, dtype=float))
    LQ = np.linalg.cholesky(np.asarray(models.Q, dtype=float))
    LR = np.linalg.cholesky(np.asarray(models.R, dtype=float))

    rows = []
    rhs = []
    blk = np.zeros((n, nvar))
    blk[:, :n] = np.eye(n)
    rows.append(np.linalg.solve(L0, blk))
    rhs.append(np.linalg.solve(L0, np.asarray(models.xhat0, dtype=float)))
    for t in range(N):
        wblk = np.zeros((n, nvar))
        wblk[:, n * (t + 1):n * (t + 2)] = np.eye(n)
        rows.append(np.linalg.solve(LQ, wblk))
        rhs.append(np.zeros(n))
        A_t = state_map(t)
        rows.append(np.linalg.solve(LR, -H @ A_t))
        rhs.append(np.linalg.solve(LR, -(ys[t] - H @ drift[t])))
    M = np.vstack(rows)
    d = np.concatenate(rhs)

    C = state_map(N)
    e = np.asarray(x_terminal, dtype=float).reshape(n) - drift[N]

    KKT = np.block([[2.0 * M.T @ M, C.T],
                    [C, np.zeros((n, n))]])
    sol = np.linalg.solve(KKT, np.concatenate([2.0 * M.T @ d, e]))
    xi = sol[:nvar]
    r = M @ xi - d
    return float(r @ r)


def kalman_step(P, F, H, Q, R):
    """Textbook Kalman filter step from the prior covariance P.

    Returns the innovation covariance S = H P H^T + R, the one-step
    predictor gain F P H^T S^{-1}, and the next prior covariance
    F (P - P H^T S^{-1} H P) F^T + Q (measurement update, then time update).
    """
    S = H @ P @ H.T + R
    gain = F @ P @ H.T @ np.linalg.inv(S)
    posterior = P - P @ H.T @ np.linalg.solve(S, H @ P)
    return S, gain, F @ posterior @ F.T + Q


def textbook_schedule(models, N):
    """Every per-(model, t) quantity of a gain schedule, from :func:`kalman_step`
    run over all of t = 0..N with no cutoff.

    Returns a dict of arrays indexed [model, t]: ``P``, ``margin`` (gamma^2 -
    lambda_max(H P H^T)) and ``W`` ((I - gamma^{-2} H P H^T)^{-1}) over
    t = 0..N; ``Sinv`` and ``logdet_S`` of S = H P H^T + R over t = 0..N-1.
    """
    gsq = models.gamma ** 2
    out = {k: [] for k in ("P", "Sinv", "logdet_S", "margin", "W")}
    for i in range(models.K):
        F, H = models.F[i], models.H[i]
        P = np.array(models.P0, dtype=float)
        rows = {k: [] for k in out}
        for t in range(N + 1):
            HPHt = H @ P @ H.T
            rows["P"].append(P)
            rows["margin"].append(gsq - np.linalg.eigvalsh(HPHt)[-1])
            rows["W"].append(np.linalg.inv(np.eye(H.shape[0]) - HPHt / gsq))
            if t == N:
                break
            S, _, P = kalman_step(P, F, H, models.Q, models.R)
            rows["Sinv"].append(np.linalg.inv(S))
            rows["logdet_S"].append(np.linalg.slogdet(S)[1])
        for k, v in rows.items():
            out[k].append(np.array(v))
    return {k: np.stack(v) for k, v in out.items()}


def settle_schedule(models, N):
    """Each model's settle step T_i and covariances P_0..P_{T_i}, by the
    documented rule run on one model at a time with scalar bookkeeping.

    Model i's recursion is settled at the first step t whose max|P_{t+1} -
    P_t| and the SETTLE_STEPS - 1 before it are each within SETTLE_ULPS *
    eps * max|P_t|; T_i = N if that does not happen within N steps.
    Returns (T, P) with T a list of the T_i and P a list of (T_i + 1, n, n)
    arrays.

    The step is the library's one-step formula (``riccati._gain_terms``, then
    ``riccati._next_cov``) on one model, so that the iterates are bit for bit
    those of the batched update; :func:`kalman_step` is its independent
    oracle.  What this checks is the settle rule and its bookkeeping.
    """
    from mmxest import riccati

    tol = riccati.SETTLE_ULPS * np.finfo(float).eps
    settle, covs = [], []
    for i in range(models.K):
        P = np.array(models.P0, dtype=float)
        F, H = models.F[i], models.H[i]
        seen, calm, T = [P], 0, N
        for t in range(N):
            P_next = riccati._next_cov(P, F, models.Q, *riccati._gain_terms(P, F, H, models.R)[1:])
            if np.abs(P_next - P).max() <= tol * np.abs(P).max():
                calm += 1
            else:
                calm = 0
            if calm == riccati.SETTLE_STEPS:
                T = t
                break
            P = P_next
            seen.append(P)
        settle.append(T)
        covs.append(np.array(seen))
    return settle, covs


def concave_quadratic_max(x, y, A, X, Y, gamma):
    """Maximum of h(v) = |x - A v|^2_{X^{-1}} - gamma^2 |y - v|^2_{Y^{-1}}
    from the stationarity condition (the Hessian is negative definite by
    assumption), evaluated directly.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    gsq = gamma * gamma
    Xi = np.linalg.inv(X)
    Yi = np.linalg.inv(Y)
    Hess = A.T @ Xi @ A - gsq * Yi
    v = np.linalg.solve(Hess, A.T @ Xi @ x - gsq * Yi @ y)
    r1 = x - A @ v
    r2 = y - v
    return float(r1 @ Xi @ r1 - gsq * (r2 @ Yi @ r2)), v


class PreconditionViolated(mx.EstimationError):
    """A closed-form identity was invoked outside its validity region."""


def max_eig_sym(M):
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


def spd_solve(M, b, context="matrix"):
    """Solve M x = b for symmetric positive-definite M via Cholesky."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise mx.FactorizationFailure(f"{context} is not positive definite: {exc}") from None
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def quadratic_max_closed_form(x, y, A, X, Y, gamma):
    """Closed form of max_v |x - A v|^2_{X^{-1}} - gamma^2 |y - v|^2_{Y^{-1}}.

    Valid when A^T X^{-1} A - gamma^2 Y^{-1} is negative definite; the
    maximum equals |x - A y|^2 weighted by (X - gamma^{-2} A Y A^T)^{-1}.
    Links the worst-case state and the minimax weight completion;
    :func:`concave_quadratic_max` is its oracle.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    gsq = float(gamma) * float(gamma)
    Xinv_A = spd_solve(X, A, context="X")
    Yinv = spd_solve(Y, np.eye(Y.shape[0]), context="Y")
    curvature = A.T @ Xinv_A - gsq * Yinv
    if max_eig_sym(curvature) >= 0:
        raise PreconditionViolated(
            "A^T X^{-1} A - gamma^2 Y^{-1} must be negative definite")
    M = X - (A @ Y @ A.T) / gsq
    M = 0.5 * (M + M.T)
    d = x - A @ y
    return float(d @ spd_solve(M, d, context="X - gamma^{-2} A Y A^T"))


def value_function(state, x, i):
    """Forward dynamic-programming value V_{t,i}(x) = |x - xb_{t,i}|^2_{P^{-1}} + c_{t,i}
    of a filter-bank state; :func:`stacked_ls_value` is its oracle."""
    models = state.gains.models
    if not 0 <= i < models.K:
        raise mx.InvalidInput(f"model index {i} outside 0..{models.K - 1}", "i")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (models.n,):
        raise mx.InvalidInput(f"x has shape {x.shape}, expected ({models.n},)", "x")
    d = x - state.xbreve[i]
    P = state.gains.cov(state.t, i)
    return float(d @ spd_solve(P, d, context=f"P[{i}] at t={state.t}")) + float(state.c[i])


def worst_case_state(yhat, i, state):
    """State x* maximizing |yhat - H_i x|^2 - gamma^2 V_{t,i}(x), gamma being
    the schedule's.

    Requires gamma-feasibility of the bank at the current time, which makes
    H_i^T H_i - gamma^2 P^{-1} negative definite; the maximizer is

        x* = (H_i^T H_i - gamma^2 P^{-1})^{-1} (H_i^T yhat - gamma^2 P^{-1} xb).

    Otherwise raises :class:`mmxest.GammaInfeasible` at the first model whose
    margin in the state's own column is not positive, with ``model`` and
    ``t`` set.
    """
    gains = state.gains
    models = gains.models
    if not 0 <= i < models.K:
        raise mx.InvalidInput(f"model index {i} outside 0..{models.K - 1}", "i")
    yhat = np.asarray(yhat, dtype=float).reshape(-1)
    if yhat.shape != (models.m,):
        raise mx.InvalidInput(f"yhat has shape {yhat.shape}, expected ({models.m},)", "yhat")
    bad = np.flatnonzero(~(gains.margin[state.col] > 0))
    if bad.size:
        j = int(bad[0])
        lam = gains.gamma_sq - float(gains.margin[state.col, j])
        raise mx.GammaInfeasible(f"model {j} at t={state.t}: lambda_max(H P H^T) = {lam!r}",
                                 lambda_max=lam, gamma_sq=gains.gamma_sq, model=j, t=state.t)
    H = models.H[i]
    P = gains.cov(state.t, i)
    gsq = gains.gamma_sq
    Pinv = spd_solve(P, np.eye(models.n), context=f"P[{i}] at t={state.t}")
    M = H.T @ H - gsq * Pinv
    rhs = H.T @ yhat - gsq * (Pinv @ state.xbreve[i])
    return np.linalg.solve(M, rhs)


def scalar_minimax(curvatures, centers, offsets):
    """Exact min over y of max_i a_i (y - c_i)^2 + o_i for scalar y.

    The minimum of a max of convex parabolas lies at one parabola's vertex
    or where two of them cross, so the best of those candidates is the
    answer.  Returns (J*, y*).
    """
    a = np.asarray(curvatures, dtype=float)
    c = np.asarray(centers, dtype=float)
    o = np.asarray(offsets, dtype=float)
    candidates = list(c)
    # Nearly equal curvatures put a crossing far out, where the values can
    # overflow to inf; such a candidate never wins.
    with np.errstate(over="ignore"):
        for i in range(a.size):
            for j in range(i + 1, a.size):
                # f_i - f_j = A y^2 + B y + C; roots in the stable form
                A = a[i] - a[j]
                B = -2.0 * (a[i] * c[i] - a[j] * c[j])
                C = a[i] * c[i] ** 2 - a[j] * c[j] ** 2 + o[i] - o[j]
                disc = B * B - 4.0 * A * C
                if disc < 0.0:
                    continue
                q = -0.5 * (B + np.copysign(np.sqrt(disc), B))
                if A != 0.0:
                    candidates.append(q / A)
                if q != 0.0:
                    candidates.append(C / q)
        y = np.array(candidates)
        g = np.max(a[:, None] * (y[None, :] - c[:, None]) ** 2 + o[:, None], axis=0)
    best = int(np.argmin(g))
    return float(g[best]), float(y[best])


def dominant_all_rows(W, centers, offsets):
    """Indices i with f_j(center_i) <= offset_i for every j, testing the row
    of every piece with the largest offset."""
    top = np.flatnonzero(offsets == offsets.max())
    D = centers[top, None, :] - centers[None, :, :]
    values = np.einsum("ijk,jkl,ijl->ij", D, W, D) + offsets
    return top[values.max(axis=1) <= offsets[top]]


def reference_estimators(models, y, u, stationary=False):
    """The step loop of ``run_estimators`` written out from its formulas, with
    none of the library's per-step records: the column of every t looked up
    in the schedule, the dominance test over every top row
    (:func:`dominant_all_rows`), the Bayes estimate and update, and the
    filter step with its innovation.  A game no piece dominates goes to the
    library's ``solve``.  Returns the trace's per-step arrays by field name.
    """
    from mmxest.bayes import LIKELIHOOD_FLOOR
    from mmxest.minimax import QuadraticPieces, solve

    N, K = len(y), models.K
    gains = mx.stationary_gains(models) if stationary else mx.run_recursion(models, N)
    xb, c, mu = np.tile(models.xhat0, (K, 1)), np.zeros(K), np.full(K, 1.0 / K)
    rows = {k: [] for k in ("yhat_models", "c", "mu", "yhat_bayes", "yhat_minimax",
                            "J_star", "lam")}
    for t in range(N):
        col = gains.column(t, terminal=True)
        yhat = (models.H @ xb[:, :, None])[:, :, 0]
        W, offsets = gains.W[col], -gains.gamma_sq * c
        top = dominant_all_rows(W, yhat, offsets)
        if top.size:
            lam = np.zeros(K)
            lam[top] = 1.0 / top.size
            pred, J = yhat[top[0]], float(offsets[top[0]])
        else:
            est = solve(QuadraticPieces(W, yhat, offsets))
            pred, J, lam = est.yhat, est.value, est.weights
        for k, v in (("yhat_models", yhat), ("c", c), ("mu", mu), ("yhat_bayes", mu @ yhat),
                     ("yhat_minimax", pred), ("J_star", J), ("lam", lam)):
            rows[k].append(v)
        # the filter step: xb' = F (xb + P H^T S^-1 e) + B u, c' = c + e^T S^-1 e
        e = (y[t] - yhat)[:, :, None]
        Sinv_e = gains.Sinv[col] @ e
        cost = (e.swapaxes(1, 2) @ Sinv_e)[:, 0, 0]
        xb = (models.F @ (xb[:, :, None]
                          + gains.P[col] @ (models.H.swapaxes(1, 2) @ Sinv_e)))[:, :, 0]
        if models.p > 0:
            xb = xb + models.B @ u[t]
        c = c + cost
        # the Bayes update from the Gaussian likelihood of e, floored, renormalized
        w = -0.5 * (gains.log_norm[col] + cost)
        w = np.maximum(np.exp(w - w.max()) * mu, LIKELIHOOD_FLOOR)
        mu = w / w.sum()
    return {k: np.array(v) for k, v in rows.items()}


def truth_loop(models, true_model, u, w, v):
    """(x, y, z) of the true model, one step at a time: z_t = H x_t,
    y_t = z_t + v_t, x_{t+1} = F x_t + w_t + B u_t, from x_0 = xhat0."""
    F = models.F[true_model]
    H = models.H[true_model]
    B = models.B[true_model] if models.p > 0 else None
    N = len(w)
    x = np.zeros((N + 1, models.n))
    x[0] = models.xhat0
    y = np.zeros((N, models.m))
    z = np.zeros((N, models.m))
    for t in range(N):
        z[t] = H @ x[t]
        y[t] = z[t] + v[t]
        x[t + 1] = F @ x[t] + w[t]
        if B is not None:
            x[t + 1] += B @ u[t]
    return x, y, z


def disturbance_energy(models, trace, process_noise, measurement_noise):
    """Realized disturbance energy E_t of a simulated run, t = 0..N-1:

        E_t = |x_0 - xhat0|^2_{P0^{-1}} + sum_{s<t} (|w_s|^2_{Q^{-1}} + |v_s|^2_{R^{-1}}),

    with w and v drawn again from the run's noise specs, not differenced
    out of x.  The guarantee of the paper is |z_t - yhat_t|^2 <= J*_t +
    gamma^2 E_t for the minimax prediction yhat_t, on every realization.
    """
    N = trace.horizon
    w = process_noise.stream(N, models.n)
    v = measurement_noise.stream(N, models.m)
    d = trace.x[0] - models.xhat0
    prior = float(d @ np.linalg.solve(models.P0, d))
    step = (np.einsum("ti,ij,tj->t", w, np.linalg.inv(models.Q), w)
            + np.einsum("ti,ij,tj->t", v, np.linalg.inv(models.R), v))
    return prior + np.concatenate([[0.0], np.cumsum(step)[:-1]])


def explaining_energy(models, u, x, y):
    """E_t of a truth (u, x, y), t = 0..N-1, read under each bank model j:

        E_t[j] = |x_0 - xhat0|^2_{P0^{-1}} + sum_{s<t} (|w_s|^2_{Q^{-1}} + |v_s|^2_{R^{-1}}),

    with w_s = x_{s+1} - F_j x_s - B_j u_s and v_s = y_s - H_j x_s, the
    disturbances that make model j produce the truth's own states and
    outputs.  As (K, N); the truth need not come from the bank.  Where H_j
    x_t is the truth's z_t, |z_t - yhat_t|^2 <= J*_t + gamma^2 E_t[j].
    """
    N = len(y)
    w = x[None, 1:] - np.einsum("kij,tj->kti", models.F, x[:-1])
    if models.p:
        w -= np.einsum("kij,tj->kti", models.B, u)
    v = y[None] - np.einsum("kij,tj->kti", models.H, x[:-1])
    d = x[0] - models.xhat0
    prior = float(d @ np.linalg.solve(models.P0, d))
    step = (np.einsum("kti,ij,ktj->kt", w, np.linalg.inv(models.Q), w)
            + np.einsum("kti,ij,ktj->kt", v, np.linalg.inv(models.R), v))
    return prior + np.concatenate([np.zeros((models.K, 1)), np.cumsum(step, axis=1)[:, :N - 1]],
                                  axis=1)


def _fmt(x):
    return repr(float(x))


def trace_lines_per_value(trace, full=False):
    """CSV lines of a trace, rendered one value at a time."""
    m = trace.z.shape[1]
    K = trace.c.shape[1]

    def names(base, width):
        return [base] if width == 1 else [f"{base}{j}" for j in range(width)]

    header = ["t"] + names("z", m) + names("zh_mini", m) + names("zh_ba", m)
    if full:
        header += ["Jstar"] + [f"{q}{i}" for q in ("c", "mu", "lam") for i in range(K)]
    lines = [";".join(header)]
    for t in range(trace.horizon):
        row = [str(t)]
        row += [_fmt(v) for v in trace.z[t]]
        row += [_fmt(v) for v in trace.yhat_minimax[t]]
        row += [_fmt(v) for v in trace.yhat_bayes[t]]
        if full:
            row.append(_fmt(trace.J_star[t]))
            row += [_fmt(v) for v in trace.c[t]]
            row += [_fmt(v) for v in trace.mu[t]]
            row += [_fmt(v) for v in trace.lam[t]]
        lines.append(";".join(row))
    return lines


MASK64 = (1 << 64) - 1


def reference_splitmix64(seed):
    """splitmix64, reimplemented from the documented constants on purpose."""
    z = (seed + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def reference_stream(seed, count):
    """The first ``count`` 64-bit words of the xorshift64* stream of ``seed``."""
    s = reference_splitmix64(seed & MASK64)
    if s == 0:
        s = 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        s ^= s >> 12
        s = (s ^ (s << 25)) & MASK64
        s ^= s >> 27
        out.append((s * 0x2545F4914F6CDD1D) & MASK64)
    return out


def reference_uniforms(seed, n):
    """The first n uniforms of ``seed``'s stream: the top 53 bits of a word times 2^-53."""
    return np.array([(word >> 11) * 2.0 ** -53 for word in reference_stream(seed, n)])


def reference_normals(seed, n):
    """The first n normals of ``seed``'s stream, one Box-Muller pair of words at a
    time in Python floats: the cosine, then the sine, which an odd n drops last."""
    words = reference_stream(seed, n + n % 2)
    out = []
    for a, b in zip(words[0::2], words[1::2]):
        u1 = ((a >> 11) + 1) * 2.0 ** -53
        u2 = (b >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return np.array(out[:n], dtype=float)
