import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mmxest as mx
from mmxest import filter_bank, kkt, minimax
from mmxest.minimax import SOLVE_TOL, MinimaxEstimate, QuadraticPieces, build_pieces, solve
import solver_sweep
import workloads
from conftest import examples, make_random_models, raises_invalid, unit_bank
from oracles import (
    PreconditionViolated,
    concave_quadratic_max,
    dominant_all_rows,
    quadratic_max_closed_form,
    scalar_minimax,
)

I1 = np.eye(1)
ROUNDING = 64 * np.finfo(float).eps  # a gap at rounding level, relative to 1 + |J*|


def scalar_pieces(*triples):
    """Stacked scalar pieces a (y - c)^2 + o from (a, c, o) triples."""
    a, c, o = np.array(triples, dtype=float).reshape(-1, 3).T
    return QuadraticPieces(W=a[:, None, None], centers=c[:, None], offsets=o)


def grid_minimum(pieces, spacing=1e-4, pad=1e-4):
    a, c, o = pieces.W[:, 0, 0], pieces.centers[:, 0], pieces.offsets
    grid = np.arange(c.min() - pad, c.max() + pad + spacing, spacing)
    return float(np.max(a[:, None] * (grid - c[:, None]) ** 2 + o[:, None], axis=0).min())


def test_weight_matrix_scalar_oracle():
    W = build_pieces(filter_bank.init(mx.run_recursion(unit_bank(3.0), 1))).W
    assert W[0, 0, 0] == pytest.approx(1.0 / (1.0 - 1.0 / 9.0), abs=1e-12)
    assert W[0, 0, 0] == pytest.approx(1.125, abs=1e-12)


def test_weight_matrix_boundary_infeasible():
    with pytest.raises(mx.GammaInfeasible) as err:
        build_pieces(filter_bank.init(mx.run_recursion(unit_bank(1.0), 1)))
    assert err.value.lambda_max == pytest.approx(1.0)
    assert err.value.gamma_sq == pytest.approx(1.0)
    assert (err.value.model, err.value.t) == (0, 0)


def test_weight_matrix_multivariate_identity():
    # W_i (I - gamma^{-2} H_i P_i H_i^T) = I for every model, at every step.
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = m + int(rng.integers(0, 3))
        models = make_random_models(rng, int(rng.integers(1, 4)), n, m)
        state = filter_bank.init(mx.run_recursion(models, 3))
        for t in range(4):
            W = build_pieces(state).W
            for i in range(models.K):
                H, P = models.H[i], state.gains.cov(t, i)
                M = np.eye(m) - (H @ P @ H.T) / models.gamma ** 2
                np.testing.assert_allclose(W[i] @ M, np.eye(m), atol=1e-10)
            if t < 3:
                state = filter_bank.step(state, rng.normal(size=m))


def test_solve_singleton_closed_form():
    est = solve(scalar_pieces((2.0, 0.7, -3.0)))
    assert est.yhat[0] == pytest.approx(0.7, abs=1e-12)
    assert est.value == pytest.approx(-3.0, abs=1e-12)
    assert est.iterations == 0
    assert est.gap <= 1e-12
    assert est.active == (0,)
    np.testing.assert_allclose(est.weights, [1.0])


def test_solve_symmetric_pair():
    # Equal curvatures, centers 0 and 2: the optimum is the midpoint.
    est = solve(scalar_pieces((1.0, 0.0, 0.0), (1.0, 2.0, 0.0)))
    assert est.yhat[0] == pytest.approx(1.0, abs=1e-8)
    assert est.value == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(est.weights, [0.5, 0.5], atol=1e-6)
    assert est.active == (0, 1)


def test_solve_dominated_piece_inactive():
    # Same parabola shifted up dominates; only it stays active.
    est = solve(scalar_pieces((1.0, 0.0, 0.0), (1.0, 0.0, 5.0)))
    assert est.yhat[0] == pytest.approx(0.0, abs=1e-9)
    assert est.value == pytest.approx(5.0, abs=1e-9)
    assert est.active == (1,)


def test_solve_grid_oracle_scalar():
    rng = np.random.default_rng(7)
    for _ in range(100):
        K = int(rng.integers(1, 5))
        pieces = scalar_pieces(*[(rng.uniform(0.5, 1.2), rng.uniform(-0.8, 0.8),
                                  rng.uniform(-0.8, 0.8)) for _ in range(K)])
        est = solve(pieces)
        assert est.gap <= 1e-8
        assert abs(est.value - grid_minimum(pieces)) <= 1e-4


def test_solve_certificates():
    rng = np.random.default_rng(9)
    for _ in range(30):
        K = int(rng.integers(2, 5))
        mdim = int(rng.integers(1, 3))
        W, centers, offsets = [], [], []
        for _ in range(K):
            A = rng.normal(size=(mdim, mdim))
            W.append(A @ A.T + mdim * np.eye(mdim))
            centers.append(rng.normal(size=mdim))
            offsets.append(float(rng.normal()))
        pieces = QuadraticPieces(W=np.array(W), centers=np.array(centers),
                                 offsets=np.array(offsets))
        est = solve(pieces)
        vals = values_at(pieces, est.yhat)
        # Primal value is the pointwise max at yhat; the gap bounds the
        # distance to the dual value from below (weak duality).
        assert est.value == pytest.approx(max(vals), abs=1e-10)
        assert est.gap >= -1e-12
        assert est.gap <= 1e-8
        # Certificate weights live on the simplex and mark active pieces.
        assert est.weights.min() >= 0
        assert est.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert all(est.weights[i] > 1e-6 for i in est.active)
        # yhat is a local (hence global) minimizer of the pointwise max.
        for _ in range(10):
            probe = est.yhat + 1e-3 * rng.normal(size=mdim)
            assert values_at(pieces, probe).max() >= est.value - 1e-9


def test_solve_empty_piece_list():
    with raises_invalid("pieces", "^minimax program needs at least one piece$"):
        solve(scalar_pieces())


def test_solve_no_convergence_carries_best(monkeypatch):
    # Two pieces in the plane (m = 2).  The active-set stage certifies them,
    # so it is withheld here, and no gap meets the tolerance: the ascent from
    # uniform weights still ends, at the face optimum where no piece lies
    # above phi, and its last estimate comes with the error.
    monkeypatch.setattr(minimax, "SOLVE_TOL", -np.inf)
    monkeypatch.setattr(minimax, "newton_stage", lambda *args: None)
    pieces = QuadraticPieces(W=np.array([np.eye(2), np.diag([2.0, 1.0])]),
                             centers=np.array([[-1.0, 0.0], [1.5, 0.5]]),
                             offsets=np.array([0.0, -0.5]))
    with pytest.raises(mx.NoConvergence) as err:
        solve(pieces)
    best = err.value.last
    assert best is not None
    assert f"after {best.iterations} ascent steps" in str(err.value)
    assert best.iterations > 0
    assert abs(best.gap) <= ROUNDING * (1.0 + abs(best.value))
    assert best.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_build_pieces_paper_first_step(paper_models):
    # After y_0 = 1: centers are +-0.55 (the two gains differ by sign) and
    # both offsets are -gamma^2 * 0.5 because the first innovation is the
    # same for both models.
    state = filter_bank.init(mx.run_recursion(paper_models, 3))
    state = filter_bank.step(state, np.array([1.0]), np.array([0.0]))
    pieces = build_pieces(state)
    np.testing.assert_allclose(np.sort(pieces.centers[:, 0]), [-0.55, 0.55], rtol=0, atol=1e-12)
    np.testing.assert_allclose(pieces.offsets, -9.0 * 0.5, rtol=0, atol=1e-12)
    assert pieces.W.shape == (2, 1, 1)


def test_build_pieces_infeasible_reports_location(paper_models):
    spec = {
        "F": list(paper_models.F), "H": list(paper_models.H),
        "B": list(paper_models.B), "Q": paper_models.Q, "R": paper_models.R,
        "P0": paper_models.P0, "gamma": 1.0,
    }
    tight = mx.validate(spec)
    state = filter_bank.init(mx.run_recursion(tight, 2))
    with pytest.raises(mx.GammaInfeasible) as err:
        build_pieces(state)
    assert err.value.model == 0
    assert err.value.t == 0
    assert err.value.lambda_max >= err.value.gamma_sq


def test_quadratic_max_scalar_oracle():
    # A = X = Y = 1, gamma^2 = 2: max over v of (0-v)^2 - 2 (1-v)^2
    # equals (0-1)^2 / (1 - 1/2) = 2.
    val = quadratic_max_closed_form(
        np.array([0.0]), np.array([1.0]), I1, I1, I1, np.sqrt(2.0))
    assert val == pytest.approx(2.0, abs=1e-12)


def test_quadratic_max_requires_negative_curvature():
    with pytest.raises(PreconditionViolated):
        quadratic_max_closed_form(
            np.array([0.0]), np.array([1.0]), I1, I1, I1, 0.5)


def test_quadratic_max_matches_stationarity_oracle():
    rng = np.random.default_rng(19)
    done = 0
    while done < 50:
        nv = int(rng.integers(1, 4))
        nx = int(rng.integers(1, 4))
        A = rng.normal(size=(nx, nv))
        Xr = rng.normal(size=(nx, nx))
        X = Xr @ Xr.T + nx * np.eye(nx)
        Yr = rng.normal(size=(nv, nv))
        Y = Yr @ Yr.T + nv * np.eye(nv)
        x = rng.normal(size=nx)
        y = rng.normal(size=nv)
        curv = A.T @ np.linalg.inv(X) @ A
        gamma = np.sqrt(2.0 * max(np.linalg.eigvalsh(curv).max(), 0.1)
                        * np.linalg.eigvalsh(Y).max())
        Hess = curv - gamma ** 2 * np.linalg.inv(Y)
        if np.linalg.eigvalsh(Hess).max() >= -1e-9:
            continue
        done += 1
        closed = quadratic_max_closed_form(x, y, A, X, Y, gamma)
        direct, vstar = concave_quadratic_max(x, y, A, X, Y, gamma)
        assert closed == pytest.approx(direct, abs=1e-8)
        # Spot-check maximality around the stationary point.
        Xi = np.linalg.inv(X)
        Yi = np.linalg.inv(Y)
        for _ in range(5):
            v = vstar + 0.1 * rng.normal(size=nv)
            r1 = x - A @ v
            r2 = y - v
            h = float(r1 @ Xi @ r1) - gamma ** 2 * float(r2 @ Yi @ r2)
            assert h <= closed + 1e-9


def values_at(pieces, y):
    """Each piece's value at y, one piece at a time."""
    return np.array([float((y - pieces.centers[i]) @ pieces.W[i] @ (y - pieces.centers[i]))
                     + float(pieces.offsets[i]) for i in range(len(pieces.offsets))])


def dual_value(pieces, lam):
    """phi(lam) = min_y sum_i lam_i f_i(y), from its stationarity condition."""
    A = sum(l * W for l, W in zip(lam, pieces.W))
    b = sum(l * W @ c for l, W, c in zip(lam, pieces.W, pieces.centers))
    return float(lam @ values_at(pieces, np.linalg.solve(A, b)))


def assert_certified(pieces, est):
    """Check the estimate's certificate from the pieces alone."""
    value = float(values_at(pieces, est.yhat).max())
    # rounding allowance for sums of terms no larger than |value| + max |o_i|
    scale = 64 * np.finfo(float).eps * (1.0 + abs(value) + float(np.abs(pieces.offsets).max()))
    assert est.value == pytest.approx(value, abs=scale)
    assert est.weights.min() >= 0
    assert est.weights.sum() == pytest.approx(1.0, abs=1e-12)
    phi = dual_value(pieces, est.weights)
    assert phi <= value + scale  # weak duality
    assert value - phi <= SOLVE_TOL + scale
    assert -scale <= est.gap <= SOLVE_TOL


@pytest.fixture()
def known_k32_pieces(bench_banks):
    """The game at t = 0 of the benchmark's bank0-K32 (K = 32, n = 4, m = 2)."""
    return build_pieces(filter_bank.init(mx.run_recursion(bench_banks["bank0-K32"], 1)))


def test_solve_certifies_known_k32_stall(known_k32_pieces):
    # The bank whose first program the projected-gradient solver could not
    # certify (gap 1.4e-7 after 210 iterations).  SLSQP on the epigraph
    # form gives 25.7475778782.
    pieces = known_k32_pieces
    est = solve(pieces)
    assert_certified(pieces, est)
    assert est.value == pytest.approx(25.7475778782, abs=2e-8)
    assert est.active == (4, 27, 30)
    assert est.iterations <= 20


def test_solve_dominant_piece_is_exact():
    W = np.array([[[2.0, 0.3], [0.3, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [[3.0, 0.0], [0.0, 0.5]]])
    centers = np.array([[0.3, -0.2], [0.0, 0.1], [0.5, -0.4]])
    offsets = np.array([1.0, -1.0, 0.5])
    est = solve(QuadraticPieces(W=W, centers=centers, offsets=offsets))
    assert est.gap == 0.0
    assert est.iterations == 0
    assert est.value == 1.0
    np.testing.assert_array_equal(est.yhat, centers[0])
    np.testing.assert_array_equal(est.weights, [1.0, 0.0, 0.0])
    assert est.active == (0,)


@pytest.mark.parametrize("i", range(4))
def test_single_dominant_piece_gives_unit_weight(i):
    # Piece i sits above the others at its own center: lam = e_i exactly,
    # and i is the only active index.
    W = np.stack([np.eye(2), 2.0 * np.eye(2), np.diag([1.0, 3.0]), 0.5 * np.eye(2)])
    centers = np.array([[0.0, 0.0], [0.2, -0.1], [-0.3, 0.4], [0.1, 0.1]])
    offsets = np.full(4, -5.0)
    offsets[i] = 1.0
    est = solve(QuadraticPieces(W=W, centers=centers, offsets=offsets))
    want = np.zeros(4)
    want[i] = 1.0
    assert est.weights.tobytes() == want.tobytes()
    assert est.active == (i,)
    assert est.value == 1.0 and est.gap == 0.0 and est.iterations == 0
    np.testing.assert_array_equal(est.yhat, centers[i])
    assert not np.shares_memory(est.yhat, centers)


def test_solve_identical_pieces_share_weights():
    # Three copies of one piece, and a piece below them at their center.
    tied = (1.5, 0.2, -1.0)
    est = solve(scalar_pieces(tied, (1.0, 0.5, -2.0), tied, tied))
    assert est.iterations == 0
    assert est.gap == 0.0
    assert est.yhat[0] == 0.2
    assert est.value == -1.0
    np.testing.assert_array_equal(est.weights, [1 / 3, 0.0, 1 / 3, 1 / 3])
    assert est.active == (0, 2, 3)


def piece_sets(max_m=3, max_k=32):
    """Random piece sets: W = A A^T + I, offsets down to -1e4, some duplicated."""
    @st.composite
    def build(draw):
        K = draw(st.integers(1, max_k))
        m = draw(st.integers(1, max_m))
        floats = st.floats(-3.0, 3.0)
        A = draw(arrays(np.float64, (K, m, m), elements=floats))
        centers = draw(arrays(np.float64, (K, m), elements=st.floats(-10.0, 10.0)))
        offsets = draw(arrays(np.float64, K, elements=st.floats(-1e4, 0.0)))
        W = A @ np.swapaxes(A, 1, 2) + np.eye(m)
        for src, dst in draw(st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)),
                                      max_size=3)):
            W[dst], centers[dst], offsets[dst] = W[src], centers[src], offsets[src]
        return QuadraticPieces(W=W, centers=centers, offsets=offsets)
    return build()


@settings(max_examples=examples(150), deadline=None)
@given(piece_sets(max_m=1))
def test_solve_matches_scalar_oracle(pieces):
    # solve, and the dual ascent alone from e_top, which solve does not
    # reach on scalar pieces that the exact stages settle.
    J, y = scalar_minimax(pieces.W[:, 0, 0], pieces.centers[:, 0], pieces.offsets)
    est = solve(pieces)
    assert abs(est.value - J) <= SOLVE_TOL + 16 * np.finfo(float).eps * abs(J)
    assert abs(est.yhat[0] - y) <= 2.0 * np.sqrt(SOLVE_TOL)
    est = ascent_estimate(pieces)
    assert est.gap <= SOLVE_TOL
    assert abs(est.value - J) <= SOLVE_TOL + 16 * np.finfo(float).eps * abs(J)
    assert abs(est.yhat[0] - y) <= 2.0 * np.sqrt(SOLVE_TOL)


def _singular_face():
    """K = 4, m = 3, offsets 0: unit pieces at (4.5, 0, 0), (0, 6.9, 0) and
    the origin, and W = diag(2, 1, 1) at the origin too.  A stress draw: the
    two pieces at the origin have parallel gradients wherever y_1 = 0, so
    faces that hold both can be singular."""
    W = np.stack([np.eye(3), np.diag([2.0, 1.0, 1.0]), np.eye(3), np.eye(3)])
    centers = np.zeros((4, 3))
    centers[0, 0], centers[2, 1] = 4.49850932, 6.89780828
    return QuadraticPieces(W=W, centers=centers, offsets=np.zeros(4))


def _near_tie():
    """K = 6, m = 3, every W the identity: centers and offsets tied to within
    e = -1.1920929e-07, a stress draw.  The ascent's face of four pieces
    there is rank-deficient and takes a null-vector step."""
    e = -1.1920929e-07
    centers = np.array([[0.0, 1.0, e], [0.0, e, e], [e, e, e], [e, e, e], [e, e, e],
                        [-1.0, e, e]])
    return QuadraticPieces(W=np.stack([np.eye(3)] * 6), centers=centers,
                           offsets=np.array([e, 0.0, 0.0, e, e, e]))


@settings(max_examples=examples(150), deadline=None)
@given(piece_sets())
@example(_singular_face())
@example(_near_tie())
def test_solve_certificate_holds(pieces):
    assert_certified(pieces, solve(pieces))


def permuted_piece_sets():
    """piece_sets() and a permutation of their pieces."""
    @st.composite
    def build(draw):
        pieces = draw(piece_sets())
        return pieces, draw(st.permutations(range(len(pieces.offsets))))
    return build()


def _copies_at_zero():
    """K = 20, m = 3, every offset 0: 16 copies of one piece centered at 0.
    At the minimizer (3.5, 0, 0) the copies' gradient is 2/3 of piece 18's
    plus 1/3 of piece 19's, so the certifying weights are not unique.
    Weights found in the caller's order once moved by 2.0e-6 under the
    permutation below."""
    J = np.full((3, 3), 12.0) + np.eye(3)
    W = np.stack([J] * 16 + [np.array([[13.0, 8, 12], [8, 9, 8], [12, 8, 13]]), J,
                             np.array([[13.0, 12, 14], [12, 13, 14], [14, 14, 18]]),
                             np.array([[13.0, 12, 8], [12, 13, 8], [8, 8, 9]])])
    centers = np.zeros((20, 3))
    centers[17, 0] = 7.0
    return QuadraticPieces(W=W, centers=centers, offsets=np.zeros(20))


@settings(max_examples=examples(150), deadline=None)
@given(permuted_piece_sets())
@example((_copies_at_zero(),
          [16, 4, 13, 1, 3, 14, 0, 11, 9, 7, 19, 12, 5, 15, 2, 8, 17, 10, 6, 18]))
@example((scalar_pieces((1.0, -1.0, -1.0), (1.0, -1.15e-190, -2.0e-307),
                        (1.0, -1.15e-190, -2.0e-307)), [0, 2, 1]))
def test_solve_unique_minimizer_across_starts(case):
    # The minimizer is unique, so reordering the pieces finds the same yhat
    # and value.  The weights follow the pieces: copies share their piece's
    # weight, and the later stages run in one order of the pieces.  In
    # the second pinned set the answer is the vertex of a piece with two
    # copies, which the dominance test misses by rounding.
    pieces, perm = case
    perm = np.array(perm)
    base = solve(pieces)
    again = solve(QuadraticPieces(W=pieces.W[perm], centers=pieces.centers[perm],
                                  offsets=pieces.offsets[perm]))
    scale = 64 * np.finfo(float).eps * (1.0 + abs(base.value) + float(np.abs(pieces.offsets).max()))
    assert abs(again.value - base.value) <= SOLVE_TOL + scale
    assert np.linalg.norm(again.yhat - base.yhat) <= 2.0 * np.sqrt(SOLVE_TOL)
    np.testing.assert_allclose(again.weights, base.weights[perm], rtol=0, atol=1e-6)


def tie_heavy_piece_sets():
    """Piece sets drawn from small grids, so that equal offsets with equal
    centers, equal offsets with distinct centers, dominant pieces and K = 1
    all come up often.  Distinct centers are at least 0.5 apart: at a
    separation of a few ulps the two tests may round differently, and both
    answers then certify gap 0 to rounding."""
    @st.composite
    def build(draw):
        K = draw(st.integers(1, 6))
        m = draw(st.integers(1, 2))
        A = draw(arrays(np.float64, (K, m, m), elements=st.sampled_from([-1.0, 0.0, 0.5, 2.0])))
        W = A @ np.swapaxes(A, 1, 2) + np.eye(m)
        centers = draw(arrays(np.float64, (K, m), elements=st.sampled_from([-1.0, 0.0, 0.5, 3.0])))
        offsets = draw(arrays(np.float64, K, elements=st.sampled_from([-40.0, -3.0, -1.0, 0.0])))
        return QuadraticPieces(W=W, centers=centers, offsets=offsets)
    return build()


def scalar_piece_sets():
    """piece_sets(max_m=1) and the m = 1 draws of tie_heavy_piece_sets()."""
    return st.one_of(piece_sets(max_m=1),
                     tie_heavy_piece_sets().filter(lambda pieces: pieces.centers.shape[1] == 1))


@settings(max_examples=examples(300), deadline=None)
@given(scalar_piece_sets())
@example(scalar_pieces((1.0, -1.0, -1.0), (1.0, -1.15e-190, -2.0e-307)))
@example(scalar_pieces((1.0, 1.0, -1.0), (1.25, 2.26169315e-202, -2.26169315e-202),
                       (1.0, 2.26169315e-202, -2.26169315e-202)))
@example(scalar_pieces((1.0, 1.0, -1.0), (2.0, 2.26169315e-202, -2.26169315e-202),
                       (1.0, 2.26169315e-202, -2.26169315e-202)))
def test_scalar_solves_need_no_ascent_step(pieces):
    # With one output the answer is a vertex (the dominance check) or the
    # crossing of two pieces (the active-pair walk); either way it is
    # certified without an ascent step and matches the exact oracle.  In the
    # first pinned set f_0 at the vertex c_1 rounds to 0 > o_1, so the
    # dominance test misses it, and the active-set stage answers at its
    # starting point, the top vertex.  In the other two the slopes of pieces
    # 1 and 2 at their crossings have one sign but a product that underflows
    # to 0, which must not count as a kink.
    est = solve(pieces)
    J, y = scalar_minimax(pieces.W[:, 0, 0], pieces.centers[:, 0], pieces.offsets)
    assert est.iterations == 0
    assert_certified(pieces, est)
    assert abs(est.value - J) <= SOLVE_TOL + 16 * np.finfo(float).eps * abs(J)
    assert abs(est.yhat[0] - y) <= 2.0 * np.sqrt(SOLVE_TOL)


def walk_piece_sets():
    """Scalar piece sets with K = 2..32 on a grid of 0.01, and a permutation
    of their pieces.  A draw is plain or has exact copies, three or more
    pieces through one kink at (0, 0) (the answer there), tied offsets or
    near-equal curvatures."""
    def grid(lo, hi):
        return st.integers(lo * 100, hi * 100).map(lambda v: v / 100)

    @st.composite
    def build(draw):
        K = draw(st.integers(2, 32))
        a = draw(arrays(np.float64, K, elements=grid(1, 100)))
        c = draw(arrays(np.float64, K, elements=grid(-10, 10)))
        o = draw(arrays(np.float64, K, elements=grid(-100, 0)))
        index = st.integers(0, K - 1)
        kind = draw(st.sampled_from(["plain", "copies", "kink", "tied", "curvatures"]))
        if kind == "copies":
            for src, dst in draw(st.lists(st.tuples(index, index), min_size=1, max_size=4)):
                a[dst], c[dst], o[dst] = a[src], c[src], o[src]
        elif kind == "kink" and K >= 3:
            n = draw(st.integers(3, K))
            a[:n] = draw(arrays(np.float64, n, elements=st.sampled_from([0.5, 1.0, 2.0, 4.0])))
            c[:n] = [-1.0, 1.0] + draw(st.lists(st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]),
                                                min_size=n - 2, max_size=n - 2))
            o[:n] = -a[:n] * c[:n] ** 2    # f_i(0) = 0 exactly, slopes of both signs
            o[n:] -= a[n:] * c[n:] ** 2 + 1.0  # the rest below 0 at y = 0
        elif kind == "tied":
            o[draw(st.lists(index, min_size=2, max_size=K))] = o[0]
        elif kind == "curvatures":
            for i, j in draw(st.lists(st.tuples(index, index), min_size=1, max_size=4)):
                a[j] = a[i] * (1.0 + draw(st.integers(1, 4)) * np.finfo(float).eps)
        perm = draw(st.permutations(range(K)))
        return QuadraticPieces(W=a[:, None, None], centers=c[:, None], offsets=o), perm
    return build()


def walk_estimate(pieces):
    """The active-pair walk alone on the pieces, offsets shifted as solve
    shifts them, as an estimate; None if it does not answer."""
    shifted = pieces.offsets - pieces.offsets.max()
    found = minimax._pair_walk(*minimax._scalar(pieces.W, pieces.centers, shifted))
    if found is None:
        return None
    y, lam, gap = found
    yhat = np.array([y])
    return MinimaxEstimate(yhat, float(values_at(pieces, yhat).max()), np.array(lam), (), gap, 0)


@settings(max_examples=examples(200), deadline=None)
@given(walk_piece_sets())
@example((scalar_pieces((1.0 + 2.0 ** -52, -0.39, 0.0), (1.0, -0.39, 0.0), (2.0, 0.01, -0.01),
                        (1.25, 1.0, -0.01)), [2, 3, 1, 0]))
def test_pair_walk_matches_scalar_oracle_and_follows_permutations(case):
    # Past the dominance check the walk answers alone, copies unmerged, with
    # the exact value and minimizer; the weights of several pieces through
    # one kink are the average of its pairs' weights.  Reordered pieces give
    # the same yhat to the bit, since the walk sums over the pieces at the
    # level in one canonical order, and get their own weights back.  In the
    # pinned set pieces 0 and 1 differ by an ulp of curvature: a walk that
    # ends on either must weigh both alike.
    pieces, perm = case
    assume(minimax._dominant(*pieces) is None)
    est = walk_estimate(pieces)
    assert est is not None
    J, y = scalar_minimax(pieces.W[:, 0, 0], pieces.centers[:, 0], pieces.offsets)
    assert abs(est.value - J) <= SOLVE_TOL + 16 * np.finfo(float).eps * abs(J)
    assert abs(est.yhat[0] - y) <= 2.0 * np.sqrt(SOLVE_TOL)
    assert_certified(pieces, est)
    again = walk_estimate(QuadraticPieces(*(x[perm] for x in pieces)))
    assert again.yhat.tobytes() == est.yhat.tobytes()
    np.testing.assert_allclose(again.weights, est.weights[perm], rtol=0, atol=1e-12)


def test_pair_walk_answers_every_scalar_sweep_set(monkeypatch):
    # Every m = 1 set of the sweep's seed 100 that the dominance check does
    # not settle is answered by the walk, with no active-set stage and no
    # ascent step.  Its value and active set, read off Python lists, are
    # those of piece_values and the weights, to the bit.
    def withheld(*args):
        raise AssertionError("the active-pair walk did not answer")

    monkeypatch.setattr(minimax, "newton_stage", withheld)
    scalar = [p for p in solver_sweep.piece_sets(100)
              if p.centers.shape[1] == 1 and minimax._dominant(*p) is None]
    assert len(scalar) > 300
    for pieces in scalar:
        est = solve(pieces)
        assert est.iterations == 0
        assert_certified(pieces, est)
        assert est.value == float(kkt.piece_values(est.yhat, *pieces).max())
        assert est.active == tuple(np.flatnonzero(est.weights > minimax.ACTIVE_THRESHOLD))


def dominant_active(W, centers, offsets):
    """The pieces the dominance check answers with, as ``solve`` reports them
    active; [] if the check does not answer."""
    if minimax._dominant(W, centers, offsets) is None:
        return []
    return list(solve(QuadraticPieces(W, centers, offsets)).active)


@settings(max_examples=examples(400), deadline=None)
@given(tie_heavy_piece_sets())
def test_one_row_dominance_matches_all_rows(pieces):
    want = dominant_all_rows(pieces.W, pieces.centers, pieces.offsets)
    got = minimax._dominant(pieces.W, pieces.centers, pieces.offsets)
    assert got == (want[0] if want.size else None)  # the first top piece
    assert dominant_active(pieces.W, pieces.centers, pieces.offsets) == want.tolist()


def array_path(pieces):
    """What solve answers for the pieces on arrays, as it does where m >= 2
    or a piece is not finite: the einsum dominance row, then _staged."""
    i = minimax._dominant(*pieces)
    if i is None:
        return minimax._staged(*pieces)
    return minimax._vertex(pieces.centers, i, pieces.offsets.tolist())


def outcome(solver, pieces):
    """A solver's answer as bytes and types, or its error's type and message
    with the bytes of its last estimate."""
    def bits(est):
        return (est.yhat.tobytes(), est.yhat.shape, type(est.value),
                np.float64(est.value).tobytes(), est.weights.tobytes(), est.weights.shape,
                est.active, np.float64(est.gap).tobytes(), est.iterations)
    try:
        return bits(solver(pieces))
    except mx.NoConvergence as err:
        return type(err), str(err), bits(err.last)


def test_scalar_dominance_decides_as_the_einsum_row_at_the_boundary(monkeypatch):
    # Each set's rows reach the top offset to within rounding, so about half
    # of them pass.  _dominant forms the einsum row; solve forms the row of
    # finite scalar pieces on Python floats, and must decide as the einsum
    # does on every set: a set it settles is not walked, and gets e_i,
    # center i and offset i to the byte.  Every answer, settled or walked,
    # is the array path's to the bit.  A row in another order of products,
    # a (d d), decides differently on some of them.
    def einsum_dominant(W, centers, offsets):
        i = int(offsets.argmax())
        d = centers[i] - centers
        q = np.einsum("ki,kij,kj->k", d, W, d) + offsets
        return i if q.max() <= offsets[i] else None

    walked = []
    walk = minimax._pair_walk
    monkeypatch.setattr(minimax, "_pair_walk", lambda *lists: walked.append(1) or walk(*lists))
    rng = np.random.default_rng(25)
    passed = 0
    for _ in range(2000):
        K = int(rng.integers(2, 9))
        W = 10.0 ** rng.uniform(-3, 3, (K, 1, 1))
        centers = rng.normal(size=(K, 1))
        d = centers[rng.integers(K)] - centers
        offsets = rng.uniform(-5.0, 0.0) - np.einsum("ki,kij,kj->k", d, W, d)
        got = minimax._dominant(W, centers, offsets)
        assert got == einsum_dominant(W, centers, offsets)
        passed += got is not None
        pieces = QuadraticPieces(W, centers, offsets)
        del walked[:]
        est = solve(pieces)
        assert (not walked) == (got is not None)
        if got is not None:
            lam = np.zeros(K)
            lam[got] = 1.0
            assert est.weights.tobytes() == lam.tobytes()
            assert est.yhat.tobytes() == centers[got].tobytes()
            assert np.float64(est.value).tobytes() == offsets[got].tobytes()
        assert outcome(solve, pieces) == outcome(array_path, pieces)
    assert 500 < passed < 1500


@pytest.mark.parametrize("pieces, stages", [
    (scalar_pieces((2.0, 0.3, -1.5)), ["_vertex"]),
    (scalar_pieces((1.0, 0.5, -0.0), (2.0, 0.5, -0.0), (3.0, 0.5, -0.0)), ["_vertex"]),
    (scalar_pieces((1.0, 0.5, -1.0), (2.0, 0.5, -1.0), (3.0, 2.0, -17.0)), ["_vertex"]),
    (scalar_pieces((1.0, 0.0, -1.0), (2.0, 1.0, -1.0), (3.0, 2.0, -7.0)),
     ["_staged", "_pair_walk"]),
    (scalar_pieces((1.0, -1.0, -0.0), (1.0, 1.0, 0.0), (2.0, 3.0, -0.0)),
     ["_staged", "_pair_walk"]),
    (scalar_pieces((1.0, 0.0, 0.0), (2.0, 1.0, -0.5), (1.0, 0.0, 0.0), (2.0, 1.0, -0.5)),
     ["_staged", "_pair_walk"]),
    (scalar_pieces((1.0, 0.0, 0.0), (1e300, 1e10, -1e30)), ["_staged", "_pair_walk"]),
    (scalar_pieces((1.0, 0.0, 0.0), (1.0, 1e155, -1.0)), ["_staged", "_pair_walk"]),
    (scalar_pieces((1.0, 0.0, 0.0), (2.0, 1.0, -0.5), (1.0, 5.0, -np.inf)),
     ["_dominant", "_staged"]),
    (scalar_pieces((1.0, 0.0, 0.0), (2.0, 1.0, np.nan)), ["_dominant", "_staged"]),
    (scalar_pieces((1.0, np.nan, 0.0), (2.0, 1.0, -9.0)), ["_dominant", "_staged"]),
], ids=["K=1", "t=0-all-minus-zero", "tied-top-same-center", "tied-top-apart",
        "mixed-signed-zeros", "exact-copies", "row-overflows", "crossing-overflows",
        "minus-inf-offset", "nan-offset", "nan-center"])
def test_scalar_path_answers_as_the_array_path(monkeypatch, pieces, stages):
    # Finite scalar pieces take the dominance check on Python floats, tied
    # offsets and a row that overflows to inf included; past it every set
    # takes _staged, and is walked at most once, also where the walk does
    # not certify (here a crossing that overflows).  Pieces that are not
    # finite take the einsum row.  Every answer, or NoConvergence with
    # its message and last estimate, is the array path's to the bit.
    taken = []
    for name in ("_dominant", "_vertex", "_pair_walk", "_staged"):
        stage = getattr(minimax, name)
        monkeypatch.setattr(minimax, name,
                            lambda *a, _n=name, _f=stage: taken.append(_n) or _f(*a))
    got = outcome(solve, pieces)
    assert taken == stages
    assert got == outcome(array_path, pieces)


def test_scalar_vertex_keeps_signed_zero_tie_shares_and_nan_message():
    # t = 0: every offset is -0.0 and every center equal; the value stays
    # -0.0 and the three tied top pieces share equally.
    est = solve(scalar_pieces((1.0, 0.5, -0.0), (2.0, 0.5, -0.0), (3.0, 0.5, -0.0)))
    assert type(est.value) is float and np.signbit(est.value) and est.value == 0.0
    assert est.weights.tobytes() == np.full(3, 1 / 3).tobytes() and est.active == (0, 1, 2)
    est = solve(scalar_pieces((1.0, 0.5, -1.0), (2.0, 0.5, -1.0), (3.0, 2.0, -17.0)))
    assert est.weights.tobytes() == np.array([0.5, 0.5, 0.0]).tobytes() and est.active == (0, 1)
    est = solve(scalar_pieces((1.0, 0.0, 0.0), (2.0, 1.0, -0.5),
                              (1.0, 0.0, 0.0), (2.0, 1.0, -0.5)))
    assert est.weights[0] == est.weights[2] and est.weights[1] == est.weights[3]
    with pytest.raises(mx.NoConvergence, match=r"^duality gap nan > tol 1\.000e-08 after 0 "):
        solve(scalar_pieces((1.0, 0.0, 0.0), (2.0, 1.0, np.nan)))


def test_one_row_dominance_ties():
    W = np.stack([np.eye(2)] * 3)
    centers = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
    for offsets, want in (([0.0, 0.0, -9.0], [0, 1]),    # tie, equal centers
                          ([0.0, -9.0, 0.0], []),        # tie, distinct centers
                          ([-1.0, 0.0, -9.0], [1])):     # one top piece
        offsets = np.array(offsets)
        assert dominant_active(W, centers, offsets) == want
        np.testing.assert_array_equal(dominant_all_rows(W, centers, offsets), want)
    one = dominant_active(np.eye(1)[None], np.array([[0.5]]), np.array([-3.0]))
    assert one == [0]  # K = 1


@pytest.mark.parametrize("where", ["offset", "center", "weight"])
@pytest.mark.parametrize("index", [0, 1])
def test_solve_rejects_nan_pieces(where, index):
    # A NaN anywhere fails the dominance test and makes the duality gap NaN,
    # which never certifies: the solve stops at once instead of iterating.
    W = np.stack([np.eye(1), 2.0 * np.eye(1)])
    centers = np.array([[0.0], [1.0]])
    offsets = np.array([0.0, -5.0])
    if where == "offset":
        offsets[index] = np.nan
    elif where == "center":
        centers[index, 0] = np.nan
    else:
        W[index, 0, 0] = np.nan
    pieces = QuadraticPieces(W=W, centers=centers, offsets=offsets)
    assert minimax._dominant(W, centers, offsets) is None
    with pytest.raises(mx.NoConvergence) as err:
        solve(pieces)
    assert np.isnan(err.value.last.gap)
    assert err.value.last.iterations == 0


def _newton_k25():
    """K = 25, m = 2, equal offsets: 17 copies of one piece at the origin
    and 8 pieces near it, so that copy merging has work to do and the KKT
    matrices near the answer are ill-conditioned (cond 4.7e11 was seen)."""
    J = np.array([[15.709063186210484, 14.709063186210484],
                  [14.709063186210484, 15.709063186210484]])
    W = np.stack([J] * 25)
    W[17] = [[15.709063186210484, 5.149927190600763], [5.149927190600763, 9.015386810057272]]
    centers = np.zeros((25, 2))
    for k, at, value in ((3, 1, -1.4197396419139152e-213), (4, 0, 0.5),
                         (7, 0, -1.9717599970364618e-70), (8, 1, 0.8129300197138933),
                         (14, 0, 1.0), (15, 0, -1.9717599970364618e-70),
                         (24, 0, -2.9113896408349549e-32)):
        centers[k, at] = value
    return QuadraticPieces(W=W, centers=centers, offsets=np.full(25, -3.8644704827896073))


def random_piece_sets():
    """The solver sweep's first 500 piece sets of seed 8, in a fixed order (the
    n-th set is the same in every test)."""
    return itertools.islice(solver_sweep.piece_sets(8), 500)


def ascent_estimate(pieces):
    """The dual ascent alone on the pieces from e_top, offsets shifted as
    solve shifts them, as an estimate."""
    offsets = pieces.offsets - pieces.offsets.max()
    top = np.zeros(len(offsets))
    top[offsets.argmax()] = 1.0
    yhat, lam, gap, steps = kkt.dual_ascent(pieces.W, pieces.centers, offsets, top, SOLVE_TOL)
    return MinimaxEstimate(yhat, float(values_at(pieces, yhat).max()), lam, (), gap, steps)


def test_ascent_alone_on_random_sets():
    # The ascent runs on every set directly (solve answers most of them
    # before it) and certifies each at rounding level, set 97 (K = 2, m = 3)
    # included; _newton_k25, with its ill-conditioned Newton matrices, is
    # one more input.
    steps = 0
    for pieces in [*random_piece_sets(), _newton_k25()]:
        est = ascent_estimate(pieces)
        assert_certified(pieces, est)
        assert est.gap <= ROUNDING * (1.0 + abs(est.value))
        steps += est.iterations
    assert steps > 2000


def test_solve_certifies_every_random_set():
    # solve certifies all 500 sets, set 97 included: the active-set stage
    # answers it.
    for pieces in random_piece_sets():
        assert_certified(pieces, solve(pieces))


def test_stage_answers_every_two_piece_set():
    # Past the dominance check two pieces are equal at the answer, and the
    # stage needs no ascent step on any two-piece set of the 500: not on
    # sets 11 and 97, where the linearized path would drop the top piece too
    # early (phi there is lower), nor on set 345, where the first Newton step
    # from the entering weights overshoots in y.
    two = [pieces for pieces in random_piece_sets() if len(pieces.offsets) == 2]
    assert len(two) >= 10
    for pieces in two:
        est = solve(pieces)
        assert est.iterations == 0
        assert_certified(pieces, est)


def test_ascent_answers_where_the_stage_gives_up(monkeypatch):
    # Set 210 (K = 3, m = 2): the stage's best weights do not certify, and
    # the ascent from them answers.  Set 97 (K = 2, m = 3) with the stage
    # withheld: the ascent answers from uniform weights.
    sets = list(random_piece_sets())
    gaps = []
    stage = minimax.newton_stage

    def recorded(*args):
        found = stage(*args)
        gaps.append(found[2])
        return found

    monkeypatch.setattr(minimax, "newton_stage", recorded)
    pieces = sets[210]
    est = solve(pieces)
    assert len(gaps) == 1 and gaps[0] > SOLVE_TOL
    assert est.iterations > 0
    assert_certified(pieces, est)
    assert est.gap <= ROUNDING * (1.0 + abs(est.value))

    monkeypatch.setattr(minimax, "newton_stage", lambda *args: None)
    pieces = sets[97]
    est = solve(pieces)
    assert est.iterations > 0
    assert_certified(pieces, est)
    assert est.gap <= ROUNDING * (1.0 + abs(est.value))


def benchmark_games(banks):
    """(pieces, estimate) of every solve on the benchmark's random banks,
    each run for its horizon on noise streams 0 and 1."""
    games = []
    solve_ = minimax.solve

    def recording(pieces):
        games.append((pieces, solve_(pieces)))
        return games[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimax, "solve", recording)
        for models in banks.values():
            mx.simulate(models, 0, workloads.BANK_HORIZON, mx.NoiseSpec(seed=0),
                        mx.NoiseSpec(seed=1))
    return games


def test_stage_certifies_benchmark_games_at_rounding_level(bench_banks):
    # Every game past the dominance check is answered by the active-set
    # stage, with no ascent step and a gap at rounding level.
    hard = [(p, est) for p, est in benchmark_games(bench_banks)
            if minimax._dominant(p.W, p.centers, p.offsets) is None]
    assert hard
    for pieces, est in hard:
        assert est.iterations == 0
        assert est.gap <= ROUNDING * (1.0 + abs(est.value))
        assert_certified(pieces, est)


def test_random_banks_run_certified_to_the_end(monkeypatch):
    # Twelve random banks (K 2..8, n 1..4, m 1..3, spectral radius at most
    # 0.99), each run for 400 steps at gamma^2 = 1.0001, 1.01 and 2 times
    # the largest lambda_max(H P H^T) of its schedule: every one of the
    # 14400 solves certifies, so every run reaches its end, and the ascent
    # answers at least one of them.
    steps = []
    solve_ = minimax.solve

    def recording(pieces):
        est = solve_(pieces)
        steps.append(est.iterations)
        return est

    monkeypatch.setattr(minimax, "solve", recording)
    for b in range(12):
        rng = np.random.default_rng(1000 + b)
        K, n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        F = []
        for _ in range(K):
            A = rng.normal(size=(n, n))
            F.append(A * (0.99 * rng.uniform(0.2, 1.0) / np.abs(np.linalg.eigvals(A)).max()))
        spec = {"F": F, "H": [rng.normal(size=(m, n)) for _ in range(K)],
                "Q": workloads._random_spd(rng, n), "R": workloads._random_spd(rng, m),
                "P0": workloads._random_spd(rng, n),
                "gamma": 1.0}
        true_model = int(rng.integers(K))
        schedule = mx.run_recursion(mx.validate(spec), 400)
        peak = max(float(schedule.lambda_max(t).max()) for t in range(401))
        for factor in (1.0001, 1.01, 2.0):
            models = mx.validate({**spec, "gamma": float(np.sqrt(factor * peak))})
            trace = mx.simulate(models, true_model, 400, mx.NoiseSpec(seed=2 * b),
                                mx.NoiseSpec(seed=2 * b + 1))
            assert np.isfinite(trace.J_star).all()
    assert len(steps) == 36 * 400
    assert max(steps) > 0


def test_stage_exchanges_on_known_k32_game(monkeypatch, known_k32_pieces):
    # The answer's three pieces are reached through an exchange: a piece
    # enters a set that already holds m + 1 = 3 pieces, and one leaves.
    sizes = []
    enter = kkt._enter

    def recorded(j, active, *args):
        sizes.append(len(active))
        return enter(j, active, *args)

    monkeypatch.setattr(kkt, "_enter", recorded)
    est = solve(known_k32_pieces)
    assert 3 in sizes
    assert est.iterations == 0
    assert est.active == (4, 27, 30)
    assert est.gap <= ROUNDING * (1.0 + abs(est.value))
