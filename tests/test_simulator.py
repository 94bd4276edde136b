import dataclasses
import sys

import numpy as np
import pytest

import mmxest as mx
from mmxest import filter_bank, riccati
from mmxest.simulator import InputSpec, NoiseSpec
from conftest import make_random_models, raises_invalid
from oracles import reference_estimators, reference_normals, reference_uniforms, truth_loop


def paper_setup(cfg, **overrides):
    kw = dict(process_noise=cfg.process_noise,
              measurement_noise=cfg.measurement_noise,
              input_spec=cfg.input_spec)
    kw.update(overrides)
    return kw


def test_noise_spec_validation():
    with raises_invalid(None, "^unknown noise kind 'poisson'$"):
        NoiseSpec(kind="poisson")
    with raises_invalid(None, "^noise scale must be a finite number >= 0, got -1.0$"):
        NoiseSpec(scale=-1.0)


def test_uniform_stream_matches_generator():
    block = NoiseSpec(kind="uniform-bounded", scale=0.5, seed=11).stream(5, 2)
    expected = (0.5 * (2.0 * reference_uniforms(11, 10) - 1.0)).reshape(5, 2)
    np.testing.assert_array_equal(block, expected)
    assert NoiseSpec(seed=11).stream(0, 3).shape == (0, 3)


def test_zero_noise_stream():
    z = NoiseSpec(kind="zero", scale=0.0, seed=3).stream(5, 2)
    np.testing.assert_array_equal(z, np.zeros((5, 2)))
    # Gaussian with zero scale is also silent.
    z2 = NoiseSpec(kind="gaussian", scale=0.0, seed=3).stream(5, 2)
    np.testing.assert_array_equal(z2, np.zeros((5, 2)))


def test_gaussian_stream_matches_generator():
    spec = NoiseSpec(kind="gaussian", scale=2.0, seed=9)
    block = spec.stream(4, 3)
    expected = (2.0 * reference_normals(9, 12)).reshape(4, 3)
    np.testing.assert_array_equal(block, expected)


def test_uniform_bounded_stream():
    spec = NoiseSpec(kind="uniform-bounded", scale=0.7, seed=4)
    block = spec.stream(50, 2)
    assert np.abs(block).max() <= 0.7
    expected = (0.7 * (2.0 * reference_uniforms(4, 100) - 1.0)).reshape(50, 2)
    np.testing.assert_array_equal(block, expected)


def test_streams_are_independent_per_source(paper_config):
    cfg = paper_config
    u1, x1, y1, z1 = mx.generate_truth(
        cfg.models, 1, 10, cfg.process_noise,
        NoiseSpec(kind="gaussian", scale=1.0, seed=2), cfg.input_spec)
    u2, x2, y2, z2 = mx.generate_truth(
        cfg.models, 1, 10, cfg.process_noise,
        NoiseSpec(kind="gaussian", scale=1.0, seed=777), cfg.input_spec)
    # Same process stream, so the state paths agree; measurements differ.
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(z1, z2)
    assert not np.array_equal(y1, y2)


def test_input_spec_kinds():
    assert InputSpec(kind="none").build(4, 1).tolist() == [[0.0]] * 4
    sin = InputSpec(kind="sinusoid", rate=0.2).build(5, 1)
    np.testing.assert_allclose(sin[:, 0], np.sin(0.2 * np.arange(5)))
    seq = InputSpec(kind="sequence", values=np.arange(3.0)).build(3, 1)
    np.testing.assert_array_equal(seq, [[0.0], [1.0], [2.0]])
    with raises_invalid(None, "^sequence input needs values$"):
        InputSpec(kind="sequence")  # values required
    with raises_invalid(None, r"^input sequence has shape \(3, 1\), need \(4, 1\)$"):
        InputSpec(kind="sequence", values=np.arange(3.0)).build(4, 1)
    with raises_invalid(None, "^unknown input kind 'ramp'$"):
        InputSpec(kind="ramp")


def test_input_needs_b_and_a_finite_wave():
    # Without B (p = 0) any input but none would be dropped.  rate * t
    # overflows at t = 2, with no RuntimeWarning (errors under this suite).
    assert InputSpec(kind="none").build(3, 0).shape == (3, 0)
    for spec in (InputSpec(kind="sinusoid"), InputSpec(kind="sequence", values=np.arange(2.0))):
        with raises_invalid(None, rf"^{spec.kind} input needs models\.B; the bank has no input$"):
            spec.build(5, 0)
    with raises_invalid(None, r"^input sin\(rate \* t\) is not finite at t=2$"):
        InputSpec(kind="sinusoid", rate=1.0e308).build(5, 1)


def test_input_sequence_keeps_its_own_copy(paper_config):
    # A sequence keeps a read-only float64 copy of the caller's values: a
    # later change to the caller's list or array reaches neither build nor
    # the run, which would otherwise blame the state for a NaN input.
    vals, arr = [0.5] * 20, np.full(20, 0.5)
    specs = [InputSpec(kind="sequence", values=v) for v in (vals, arr)]
    vals[3] = arr[3] = np.nan
    for spec in specs:
        assert spec.values.dtype == np.float64 and not spec.values.flags.writeable
        with pytest.raises(ValueError):
            spec.values[0] = 1.0
        assert spec.build(20, 1).tolist() == [[0.5]] * 20
        trace = mx.simulate(paper_config.models, 1, 20, input_spec=spec)
        assert trace.u.tolist() == [[0.5]] * 20


@pytest.mark.parametrize("values", [["a", 1.0], [[1.0, 2.0], [3.0]], {"a": 1.0}],
                         ids=["string", "ragged", "mapping"])
def test_input_spec_rejects_values_that_are_not_numbers(values):
    # numpy's own conversion error would reach a library caller unmapped
    with raises_invalid(None, "^input values must be numbers$"):
        InputSpec(kind="sequence", values=values)


@pytest.mark.parametrize("kind", ["none", "sinusoid"])
def test_input_spec_rejects_values_of_other_kinds(kind):
    # Only a sequence reads its values; elsewhere they would be dropped.
    with raises_invalid(None, rf"^input values need kind 'sequence', not '{kind}'$"):
        InputSpec(kind=kind, values=np.arange(3.0))


def test_generate_truth_recursion_exact(paper_config):
    cfg = paper_config
    zero = NoiseSpec(kind="zero")
    u, x, y, z = mx.generate_truth(cfg.models, 1, 8, zero, zero, cfg.input_spec)
    assert x.shape == (9, 3)
    F, B, H = cfg.models.F[1], cfg.models.B[1], cfg.models.H[1]
    for t in range(8):
        np.testing.assert_allclose(x[t + 1], F @ x[t] + B @ u[t], atol=1e-12)
        np.testing.assert_allclose(z[t], H @ x[t], atol=1e-12)
    np.testing.assert_array_equal(y, z)  # no measurement noise


def test_generate_truth_matches_step_loop_bitwise_on_paper_config(paper_config):
    cfg = paper_config
    for true_model in (0, 1):
        u, x, y, z = mx.generate_truth(cfg.models, true_model, 200, cfg.process_noise,
                                       cfg.measurement_noise, cfg.input_spec)
        w = cfg.process_noise.stream(200, cfg.models.n)
        v = cfg.measurement_noise.stream(200, cfg.models.m)
        for got, want in zip((x, y, z), truth_loop(cfg.models, true_model, u, w, v)):
            np.testing.assert_array_equal(got, want)


def test_generate_truth_matches_step_loop_on_random_bank():
    # m = 2, n = 4, one input.  The state recursion does the loop's
    # arithmetic, so x agrees bit for bit.  z = H x for all t at once may
    # sum each row in another order: it stays within the dot-product
    # rounding bound n eps sum_k |H_jk x_k|.
    models = make_random_models(np.random.default_rng(5), 3, 4, 2, with_input=True)
    noise = NoiseSpec(seed=3), NoiseSpec(seed=4)
    inputs = InputSpec(kind="sinusoid", rate=0.3)
    u, x, y, z = mx.generate_truth(models, 2, 150, *noise, inputs)
    w, v = noise[0].stream(150, 4), noise[1].stream(150, 2)
    x_loop, y_loop, z_loop = truth_loop(models, 2, u, w, v)
    np.testing.assert_array_equal(x, x_loop)
    bound = 4 * np.finfo(float).eps * (np.abs(x[:-1]) @ np.abs(models.H[2]).T)
    assert (np.abs(z - z_loop) <= bound).all()
    assert (np.abs(y - y_loop) <= bound + np.finfo(float).eps * np.abs(y_loop)).all()


def test_run_estimators_forms_each_innovation_once(paper_config, monkeypatch):
    # One innovation per step serves both the filter update and the Bayes
    # update.  Every binding of the function in the package is counted, so
    # a module that imports it by name is counted too.
    calls = []
    innovations = filter_bank.innovations

    def counted(state, y):
        calls.append(state.t)
        return innovations(state, y)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mmxest" and getattr(module, "innovations", None) is innovations:
            monkeypatch.setattr(module, "innovations", counted)
    cfg = paper_config
    u, x, y, z = mx.generate_truth(cfg.models, 1, 30, cfg.process_noise,
                                   cfg.measurement_noise, cfg.input_spec)
    tr = mx.run_estimators(cfg.models, y, u=u)
    assert calls == list(range(30))
    assert np.isfinite(tr.yhat_bayes).all() and np.isfinite(tr.yhat_minimax).all()


@pytest.mark.parametrize("case", ["paper", "paper-stationary", "bank1-K8", "paper-zero-noise",
                                  "paper-y0-negative-zero", "scalar-negative-H",
                                  "scalar-negative-H-stationary"])
def test_run_estimators_is_the_reference_step_loop_bit_for_bit(case, paper_config, bench_banks):
    # N = 200 on the paper bank (m = 1, one input), and the benchmark's bank1-K8
    # (m = 2, no input) on its fixed data, some of whose games no piece dominates.
    # The library forms the m = 1 products of inner dimension 1 by broadcasting,
    # the reference by matmul; the cases where their bits could part: zero
    # noise, so that many innovations are exactly 0; a record whose y_0 is
    # -0.0 against predictions H xhat0 = +0; and a scalar bank with no input
    # whose H has negative entries.
    stationary = case.endswith("stationary")
    if case.startswith("paper"):
        cfg = paper_config
        models = cfg.models
        noise = (cfg.process_noise, cfg.measurement_noise)
        if case == "paper-zero-noise":
            noise = (NoiseSpec(kind="zero"), NoiseSpec(kind="zero"))
        u, _, y, _ = mx.generate_truth(models, cfg.true_model, 200, *noise, cfg.input_spec)
        if case == "paper-y0-negative-zero":
            assert not models.xhat0.any()
            y = y.copy()
            y[0, 0] = -0.0
    elif case.startswith("scalar"):
        models = make_random_models(np.random.default_rng(0), 3, 3, 1)
        assert (models.H < 0).any() and models.p == 0
        u, _, y, _ = mx.generate_truth(models, 0, 200, NoiseSpec(seed=0), NoiseSpec(seed=1))
    else:
        models = bench_banks[case]
        u, _, y, _ = mx.generate_truth(models, 0, 200, NoiseSpec(seed=0), NoiseSpec(seed=1))
    trace = mx.run_estimators(models, y, u=u, stationary=stationary)
    want = reference_estimators(models, y, u, stationary=stationary)
    for name, array in want.items():
        got = getattr(trace, name)
        assert got.shape == array.shape and got.tobytes() == array.tobytes(), name


def test_generate_truth_validates_arguments(paper_config):
    cfg = paper_config
    zero = NoiseSpec(kind="zero")
    with raises_invalid("true_model", r"^true_model 2 outside 0\.\.1$"):
        mx.generate_truth(cfg.models, 2, 5, zero, zero)
    with raises_invalid("horizon", "^horizon must be at least 1$"):
        mx.generate_truth(cfg.models, 0, 0, zero, zero)
    # A true state that overflows is reported at its first t, with no warning
    # (RuntimeWarnings are errors under this suite).
    one = np.eye(1)
    for F, gamma, horizon, t in ((1.0e200, 1.0e100, 20, 3), (1.5, 10.0, 1800, 1755)):
        models = mx.validate({"F": [F * one, 0.5 * one], "H": [one, one], "Q": one, "R": one,
                              "P0": one, "gamma": gamma})
        with raises_invalid("horizon", rf"^state of true model 0 is not finite at t={t} "
                                       rf"\(horizon {horizon}\)$"):
            mx.generate_truth(models, 0, horizon, NoiseSpec(), NoiseSpec(seed=1))


@pytest.mark.parametrize("true_model, horizon, field, got", [
    (0, 2.5, "horizon", "2.5"), (0, 20.0, "horizon", "20.0"), (0, True, "horizon", "True"),
    (0, "3", "horizon", "'3'"), (True, 5, "true_model", "True"),
    (np.bool_(True), 5, "true_model", "np.True_"), (1.5, 5, "true_model", "1.5"),
], ids=["fraction", "float", "bool", "string", "model-bool", "model-numpy-bool", "model-fraction"])
def test_simulate_takes_integer_horizon_and_true_model(paper_config, true_model, horizon,
                                                        field, got):
    with raises_invalid(field, f"^{field} must be an integer, got {got}$"):
        mx.simulate(paper_config.models, true_model, horizon)


def test_simulate_takes_numpy_integers(paper_config):
    models = paper_config.models
    want = mx.simulate(models, 1, 5)
    got = mx.simulate(models, np.int64(1), np.int32(5))
    assert got.horizon == 5 and got.true_model == 1
    for name in ("x", "y", "z", "yhat_minimax", "yhat_bayes", "c", "mu", "lam"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_trace_shapes(paper_config):
    cfg = paper_config
    tr = mx.simulate(cfg.models, cfg.true_model, 12, **paper_setup(cfg))
    assert tr.horizon == 12
    assert tr.x.shape == (13, 3)
    for arr, shape in [(tr.u, (12, 1)), (tr.y, (12, 1)), (tr.z, (12, 1)),
                       (tr.yhat_minimax, (12, 1)), (tr.yhat_bayes, (12, 1)),
                       (tr.yhat_models, (12, 2, 1)), (tr.c, (12, 2)),
                       (tr.mu, (12, 2)), (tr.J_star, (12,)), (tr.lam, (12, 2))]:
        assert arr.shape == shape
    assert np.isfinite(tr.yhat_minimax).all()
    assert np.isfinite(tr.J_star).all()


def test_zero_noise_true_filter_is_exact(paper_config):
    cfg = paper_config
    zero = NoiseSpec(kind="zero")
    tr = mx.simulate(cfg.models, 1, 20,
                     process_noise=zero, measurement_noise=zero,
                     input_spec=cfg.input_spec)
    # The true model's filter reproduces the output exactly, and its
    # accumulated cost stays at zero: every innovation vanishes.
    np.testing.assert_allclose(tr.yhat_models[:, 1, 0], tr.z[:, 0], atol=1e-12)
    assert (tr.c[:, 1] == 0.0).all()
    # The wrong model pays a growing cost once the input excites the system.
    assert tr.c[-1, 0] > 100.0
    # The minimax prediction blends models only while the wrong model is
    # still cheap for the adversary; afterwards it locks onto the truth.
    dev = np.abs(tr.yhat_minimax[:, 0] - tr.z[:, 0])
    assert dev[:3].max() <= 1e-9
    assert dev[3:5].max() > 0.1
    assert dev[6:].max() <= 1e-9


def test_estimates_are_causal(paper_config):
    cfg = paper_config
    u, x, y, z = mx.generate_truth(cfg.models, 1, 10, cfg.process_noise,
                                   cfg.measurement_noise, cfg.input_spec)
    base = mx.run_estimators(cfg.models, y, u=u)
    bumped = y.copy()
    s = 6
    bumped[s, 0] += 2.5
    other = mx.run_estimators(cfg.models, bumped, u=u)
    # Row t is computed from y_0 .. y_{t-1}, so rows up to s are untouched.
    for field in ("yhat_minimax", "yhat_bayes", "yhat_models", "c", "mu"):
        np.testing.assert_array_equal(getattr(base, field)[:s + 1],
                                      getattr(other, field)[:s + 1])
    assert not np.array_equal(base.yhat_minimax[s + 1:], other.yhat_minimax[s + 1:])
    assert not np.array_equal(base.c[s + 1:], other.c[s + 1:])


def test_simulation_is_deterministic(paper_config):
    cfg = paper_config
    a = mx.simulate(cfg.models, cfg.true_model, 15, **paper_setup(cfg))
    b = mx.simulate(cfg.models, cfg.true_model, 15, **paper_setup(cfg))
    for field in ("u", "x", "y", "z", "yhat_minimax", "yhat_bayes",
                  "yhat_models", "c", "mu", "J_star", "lam"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_infeasible_gamma_rejected_before_data(paper_config):
    cfg = paper_config
    spec = {
        "F": list(cfg.models.F), "H": list(cfg.models.H),
        "B": list(cfg.models.B), "Q": cfg.models.Q, "R": cfg.models.R,
        "P0": cfg.models.P0, "gamma": 1.0,
    }
    tight = mx.validate(spec)
    with pytest.raises(mx.GammaInfeasible) as err:
        mx.run_estimators(tight, np.zeros((5, 1)), u=np.zeros((5, 1)))
    assert err.value.lambda_max >= err.value.gamma_sq


@pytest.mark.parametrize("run_bayes", [True, False])
def test_run_estimators_checks_record_shapes(paper_config, monkeypatch, run_bayes):
    cfg = paper_config

    def no_work(*args, **kwargs):
        raise AssertionError("gain schedule computed before the record was checked")

    monkeypatch.setattr(riccati, "run_recursion", no_work)
    with raises_invalid("y", r"^y has shape \(6, 2\), expected \(N, 1\)$"):
        mx.run_estimators(cfg.models, np.zeros((6, 2)), u=np.zeros((6, 1)), run_bayes=run_bayes)
    with raises_invalid("u", r"^u has shape \(5, 1\), expected \(6, 1\)$"):
        mx.run_estimators(cfg.models, np.zeros((6, 1)), u=np.zeros((5, 1)), run_bayes=run_bayes)
    for name, t, bad in (("y", 3, np.nan), ("u", 2, np.inf), ("u", 5, -np.inf)):
        record = {"y": np.zeros((6, 1)), "u": np.zeros((6, 1))}
        record[name][t] = bad
        with raises_invalid(name, rf"^{name} is not finite at t={t}$"):
            mx.run_estimators(cfg.models, record["y"], u=record["u"], run_bayes=run_bayes)
    # bayes_mode is checked up front too, whether or not the Bayes baseline runs
    with raises_invalid("bayes_mode", r"^bayes_mode 'avg' not in \('average', 'map'\)$"):
        mx.run_estimators(cfg.models, np.zeros((6, 1)), u=np.zeros((6, 1)), run_bayes=run_bayes,
                          bayes_mode="avg")


@pytest.mark.parametrize("true_model, match", [
    (1.5, r"^true_model must be an integer, got 1\.5$"),
    (True, r"^true_model must be an integer, got True$"),
    (7, r"^true_model 7 outside 0\.\.1$"), (-1, r"^true_model -1 outside 0\.\.1$"),
], ids=["fraction", "bool", "past-K", "negative"])
def test_generate_truth_checks_true_model(paper_config, true_model, match):
    with raises_invalid("true_model", match):
        mx.generate_truth(paper_config.models, true_model, 5, NoiseSpec(), NoiseSpec())


@pytest.mark.parametrize("switches", [{}, {"run_minimax": False}, {"run_bayes": False}],
                         ids=["both", "no-minimax", "no-bayes"])
@pytest.mark.parametrize("stationary", [False, True], ids=["time-varying", "stationary"])
@pytest.mark.parametrize("bank", ["paper", "bank1-K8"])
def test_simulate_attaches_the_truth(paper_config, bench_banks, bank, stationary, switches):
    # The estimators read only the record (y, u); simulate attaches
    # generate_truth's u, x, y, z byte for byte and true_model as given,
    # and passes the estimator switches on to run_estimators.
    if bank == "paper":
        models, true_model, setup = paper_config.models, 1, paper_setup(paper_config)
    else:
        models, true_model = bench_banks[bank], 0
        setup = dict(process_noise=NoiseSpec(), measurement_noise=NoiseSpec(seed=1))
    truth = mx.generate_truth(models, true_model, 30, **setup)
    trace = mx.simulate(models, true_model, 30, stationary=stationary, **setup, **switches)
    assert trace.true_model == true_model
    for name, want in zip("uxyz", truth):
        got = getattr(trace, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    replay = mx.run_estimators(models, truth[2], u=truth[0], stationary=stationary, **switches)
    for name in ("yhat_minimax", "yhat_bayes", "yhat_models", "c", "mu", "J_star", "lam"):
        assert getattr(trace, name).tobytes() == getattr(replay, name).tobytes(), name


def test_run_estimators_takes_a_1d_record_as_one_column(paper_config):
    cfg = paper_config
    u, _, y, _ = mx.generate_truth(cfg.models, cfg.true_model, 12, cfg.process_noise,
                                   cfg.measurement_noise, cfg.input_spec)
    want = mx.run_estimators(cfg.models, y, u=u)
    got = mx.run_estimators(cfg.models, y[:, 0], u=u[:, 0])
    for field in dataclasses.fields(mx.SimulationTrace):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("bank", ["paper", "no-input"])
def test_run_estimators_without_u_replays_a_zero_input(paper_config, bank):
    # u omitted is u = zeros((N, p)): on the paper bank (p = 1) and on a bank
    # without B (p = 0) every trace array is that replay's, byte for byte.
    models = paper_config.models
    if bank == "no-input":
        models = mx.validate({"F": list(models.F), "H": list(models.H), "Q": models.Q,
                              "R": models.R, "P0": models.P0, "gamma": models.gamma})
    _, _, y, _ = mx.generate_truth(models, 1, 30, NoiseSpec(seed=3), NoiseSpec(seed=4))
    got = mx.run_estimators(models, y)
    want = mx.run_estimators(models, y, u=np.zeros((30, models.p)))
    assert got.u.shape == (30, models.p)
    for field in dataclasses.fields(mx.SimulationTrace):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def test_single_step_horizon(paper_config):
    cfg = paper_config
    tr = mx.simulate(cfg.models, cfg.true_model, 1, **paper_setup(cfg))
    assert tr.horizon == 1
    # Before any data both estimators output the prior prediction.
    np.testing.assert_allclose(tr.yhat_minimax[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(tr.yhat_bayes[0], 0.0, atol=1e-12)


def test_stationary_mode_runs_and_differs(paper_config):
    cfg = paper_config
    u, x, y, z = mx.generate_truth(cfg.models, 1, 12, cfg.process_noise,
                                   cfg.measurement_noise, cfg.input_spec)
    tv = mx.run_estimators(cfg.models, y, u=u)
    st = mx.run_estimators(cfg.models, y, u=u, stationary=True)
    assert not np.array_equal(tv.yhat_models, st.yhat_models)
    # Early transient difference shrinks as the recursion reaches the
    # stationary solution.
    d = np.abs(tv.yhat_models - st.yhat_models).max(axis=(1, 2))
    assert d[10:].max() < d[1:4].max()


def test_replay_without_truth_leaves_nan_columns(paper_config):
    cfg = paper_config
    tr = mx.run_estimators(cfg.models, np.ones((4, 1)), u=np.zeros((4, 1)))
    assert np.isnan(tr.z).all()
    assert np.isnan(tr.x).all()
    assert tr.true_model is None
    assert not tr.x.flags.writeable and not tr.z.flags.writeable  # views: no memory held
    assert np.isfinite(tr.yhat_minimax).all()


def test_estimator_toggles(paper_config):
    cfg = paper_config
    tr = mx.run_estimators(cfg.models, np.ones((4, 1)), u=np.zeros((4, 1)),
                           run_minimax=False)
    assert np.isnan(tr.yhat_minimax).all()
    assert np.isnan(tr.J_star).all()
    assert np.isfinite(tr.yhat_bayes).all()
    tr = mx.run_estimators(cfg.models, np.ones((4, 1)), u=np.zeros((4, 1)),
                           run_bayes=False)
    assert np.isnan(tr.yhat_bayes).all()
    assert np.isfinite(tr.yhat_minimax).all()


def test_mu_columns_follow_the_bayes_toggle(paper_config):
    # With Bayes off the posterior columns are NaN, as every skipped
    # estimator's are; with it on, row t is the posterior before y_t.
    cfg = paper_config
    y, u = np.linspace(-1.0, 1.0, 6)[:, None], np.zeros((6, 1))
    assert np.isnan(mx.run_estimators(cfg.models, y, u=u, run_bayes=False).mu).all()
    tr = mx.run_estimators(cfg.models, y, u=u)
    state, posterior = mx.init(mx.run_recursion(cfg.models, 6)), mx.bayes_init(cfg.models)
    for t in range(6):
        np.testing.assert_array_equal(tr.mu[t], posterior)
        state = mx.step(state, y[t], u[t])
        posterior = mx.bayes_step(posterior, state)
