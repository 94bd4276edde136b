import dataclasses
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import yaml

import mmxest as mx
from mmxest import cli, config, riccati
from conftest import child_env, make_random_models
from oracles import trace_lines_per_value

SCALAR_UNIT = textwrap.dedent("""
    models:
      F: [[[1.0]]]
      H: [1.0]
    Q: 1.0
    R: 1.0
    P0: 1.0
    gamma: 3.0
    horizon: 4
    process_noise: {kind: gaussian, scale: 1.0, seed: 5}
    measurement_noise: {kind: gaussian, scale: 1.0, seed: 6}
""")


def write(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    header = lines[0].split(";")
    rows = [line.split(";") for line in lines[1:]]
    return header, rows


def test_run_paper_config(tmp_path, paper_config_path, capsys):
    out = str(tmp_path / "trace.csv")
    code = cli.main(["run", "--config", paper_config_path, "--out", out])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "z", "zh_mini", "zh_ba"]
    assert len(rows) == 20  # header + 20 rows = 21 lines
    assert [r[0] for r in rows] == [str(t) for t in range(20)]
    for r in rows:
        for cell in r[1:]:
            float(cell)  # every numeric cell parses


def test_run_twice_is_byte_identical(tmp_path, paper_config_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert cli.main(["run", "--config", paper_config_path, "--out", a]) == 0
    assert cli.main(["run", "--config", paper_config_path, "--out", b]) == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_main_parses_each_call_on_its_own(tmp_path, paper_config_path):
    # main reuses one parser per process; no option of one call reaches the next
    a, b, c = (str(tmp_path / f"{name}.csv") for name in "abc")
    mapped = write(tmp_path, open(paper_config_path, encoding="utf-8").read()
                   + "bayes_mode: map\n")
    assert cli.main(["run", "--config", paper_config_path, "--out", a]) == 0
    assert cli.main(["run", "--config", mapped, "--out", b, "--full", "--stationary"]) == 0
    assert cli.main(["run", "--config", paper_config_path, "--out", c]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert len(read_csv(b)[0]) == 11
    with open(a, "rb") as fa, open(c, "rb") as fc:
        assert fa.read() == fc.read()


def test_run_full_columns_round_trip(tmp_path, paper_config_path):
    out = str(tmp_path / "full.csv")
    assert cli.main(["run", "--config", paper_config_path, "--out", out,
                     "--full"]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "z", "zh_mini", "zh_ba", "Jstar",
                      "c0", "c1", "mu0", "mu1", "lam0", "lam1"]
    cfg = mx.load_config(paper_config_path)
    tr = mx.simulate(cfg.models, cfg.true_model, cfg.horizon,
                     process_noise=cfg.process_noise,
                     measurement_noise=cfg.measurement_noise,
                     input_spec=cfg.input_spec)
    # Serialized with shortest round-trip decimals: parsing returns the
    # exact float that was written.
    for t, row in enumerate(rows):
        assert float(row[1]) == tr.z[t, 0]
        assert float(row[2]) == tr.yhat_minimax[t, 0]
        assert float(row[3]) == tr.yhat_bayes[t, 0]
        assert float(row[4]) == tr.J_star[t]
        assert float(row[5]) == tr.c[t, 0]
        assert float(row[6]) == tr.c[t, 1]
        assert float(row[7]) == tr.mu[t, 0]
        assert float(row[8]) == tr.mu[t, 1]
        assert float(row[9]) == tr.lam[t, 0]
        assert float(row[10]) == tr.lam[t, 1]


def test_run_without_out_prints_csv(tmp_path, capsys):
    cfgp = write(tmp_path, SCALAR_UNIT)
    assert cli.main(["run", "--config", cfgp]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t;z;zh_mini;zh_ba"
    assert len(lines) == 5


def test_run_seed_batch(tmp_path, paper_config_path):
    out = str(tmp_path / "batch.csv")
    code = cli.main(["run", "--config", paper_config_path, "--out", out,
                     "--seeds", "0..2"])
    assert code == 0
    contents = []
    for s in range(3):
        header, rows = read_csv(str(tmp_path / f"batch_seed{s}.csv"))
        assert header == ["t", "z", "zh_mini", "zh_ba"]
        assert len(rows) == 20
        contents.append(rows)
    assert contents[0] != contents[1] != contents[2]
    # Seeds map to streams 2s and 2s + 1.
    cfg = mx.with_seed(mx.load_config(paper_config_path), 2)
    tr = mx.simulate(cfg.models, cfg.true_model, cfg.horizon,
                     process_noise=cfg.process_noise,
                     measurement_noise=cfg.measurement_noise,
                     input_spec=cfg.input_spec)
    assert float(contents[2][3][1]) == tr.z[3, 0]


def test_time_varying_seed_batch_computes_the_schedule_once(tmp_path, paper_config_path):
    # The seeds share one bank and horizon: one recursion, three cache hits,
    # and the same files as runs that each compute their own schedule.
    argv = ["run", "--config", paper_config_path, "--full", "--out"]
    riccati._run_recursion.cache_clear()
    assert cli.main(argv + [str(tmp_path / "batch.csv"), "--seeds", "0..3"]) == 0
    info = riccati._run_recursion.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    for s in range(4):
        riccati._run_recursion.cache_clear()
        assert cli.main(argv + [str(tmp_path / "one.csv"), "--seeds", f"{s}..{s}"]) == 0
        batch = (tmp_path / f"batch_seed{s}.csv").read_bytes()
        assert batch == (tmp_path / f"one_seed{s}.csv").read_bytes()


def test_run_seed_batch_requires_output(tmp_path, capsys):
    cfgp = write(tmp_path, SCALAR_UNIT)
    assert cli.main(["run", "--config", cfgp, "--seeds", "0..1"]) == 2
    assert "output" in capsys.readouterr().err


def test_bad_seed_range(tmp_path, capsys):
    cfgp = write(tmp_path, SCALAR_UNIT)
    assert cli.main(["run", "--config", cfgp, "--out",
                     str(tmp_path / "x.csv"), "--seeds", "5"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_empty_seed_range(tmp_path, capsys):
    cfgp = write(tmp_path, SCALAR_UNIT)
    assert cli.main(["run", "--config", cfgp, "--out",
                     str(tmp_path / "x.csv"), "--seeds", "5..3"]) == 2
    assert capsys.readouterr().err == "error: field --seeds: empty range '5..3'\n"


def test_seed_range_is_drawn_one_seed_at_a_time():
    # A range, not a list: a long batch holds no seed before its run.
    assert cli._parse_seed_range("3..5") == range(3, 6)
    assert len(cli._parse_seed_range("0..999999999999")) == 10**12


def test_config_error_exit_code(tmp_path, capsys):
    cfgp = write(tmp_path, SCALAR_UNIT.replace("horizon: 4", "horizon: 0"))
    assert cli.main(["run", "--config", cfgp,
                     "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "horizon" in err  # diagnostic names the field


def test_non_finite_noise_scale_exit_code(tmp_path, capsys):
    # A NaN scale used to run to exit 0 with NaN rows from t = 1.
    cfgp = write(tmp_path, SCALAR_UNIT.replace("scale: 1.0, seed: 6", "scale: .nan, seed: 6"))
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 2
    assert "field measurement_noise" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_input_rate_exit_code(tmp_path, capsys):
    # A NaN input rate used to reach the solver, which exited 1 on a NaN gap.
    body = SCALAR_UNIT.replace("F: [[[1.0]]]", "F: [[[0.5]], [[-0.5]]]\n  B: [1.0]")
    cfgp = write(tmp_path, body + "input: {kind: sinusoid, rate: .nan}\n")
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 2
    assert "field input" in capsys.readouterr().err
    assert not out.exists()


MALFORMED_CONFIGS = [
    pytest.param("Q", "Q: 1.0", "Q: abc", id="Q-abc"),
    pytest.param("Q", "Q: 1.0", "Q: [[1.0], [1.0, 2.0]]", id="Q-ragged"),
    pytest.param("models.H", "H: [1.0]", "H: x", id="H-x"),
    pytest.param("models.H", "H: [1.0]", "H: [[1.0], [1.0, 2.0]]", id="H-ragged"),
    pytest.param("models.F", "F: [[[1.0]]]", "F: [[[1.0]], [[1.0, 2.0]]]", id="F-ragged"),
    pytest.param("models.F_scales", "F: [[[1.0]]]", "F_base: [[1.0]]\n  F_scales: [a, 1]",
                 id="F_scales-a"),
    pytest.param("models.F_base", "F: [[[1.0]]]", "F_base: x\n  F_scales: [1.0]", id="F_base-x"),
    pytest.param("gamma", "gamma: 3.0", "gamma: .inf", id="gamma-inf"),
    pytest.param("gamma", "gamma: 3.0", "gamma: [3]", id="gamma-list"),
    pytest.param("gamma", "gamma: 3.0", "gamma: 1.0e+300", id="gamma-square-overflows"),
    pytest.param("gamma", "gamma: 3.0", "gamma: 1" + "0" * 400, id="gamma-int-beyond-float"),
    pytest.param("xhat0", "horizon: 4", "horizon: 4\nxhat0: [a]", id="xhat0-a"),
    pytest.param("xhat0", "horizon: 4", "horizon: 4\nxhat0: [.nan]", id="xhat0-nan"),
    pytest.param("Q", "Q: 1.0", "Q: .nan", id="Q-nan"),
    pytest.param("models.F", "F: [[[1.0]]]", "F: [[[.nan]]]", id="F-nan"),
    pytest.param("input", "H: [1.0]\n",
                 "H: [1.0]\n  B: [1.0]\ninput: {kind: sequence, values: [0.0, 1.0, 2.0]}\n",
                 id="input-short-sequence"),
    pytest.param("stationry", "horizon: 4", "horizon: 4\nstationry: true", id="typo-key"),
    pytest.param("B", "horizon: 4", "horizon: 4\nB: [1.0]", id="root-B"),
    pytest.param("models.G", "H: [1.0]\n", "H: [1.0]\n  G: [1.0]\n", id="models-unknown"),
    pytest.param("estimators.bayes", "horizon: 4", "horizon: 4\nestimators: {bayes: false}",
                 id="estimators-unknown"),
    pytest.param("process_noise", "process_noise: {kind: gaussian, scale: 1.0, seed: 5}",
                 "process_noise: [1]", id="process_noise-list"),
    pytest.param("input.rat", "horizon: 4", "horizon: 4\ninput: {rat: 0.2}", id="input-unknown"),
    pytest.param("models.F_base", "F: [[[1.0]]]", "F_base: [[1.0, 2.0]]\n  F_scales: [1.0]",
                 id="F_base-shape"),
    pytest.param("horizon", "horizon: 4", "horizon: 4\nhorizon: 1000", id="repeat-top"),
    pytest.param("models.H", "H: [1.0]", "H: [1.0]\n  H: [2.0]", id="repeat-nested"),
    pytest.param("measurement_noise.kind", "{kind: gaussian, scale: 1.0, seed: 6}",
                 "{kind: zero, kind: gaussian, scale: 1.0, seed: 6}", id="repeat-flow"),
]


@pytest.mark.parametrize("body, line", [
    (SCALAR_UNIT.replace("F: [[[1.0]]]", "F_base: [[1.0]]\n  F_scales: 2.0"),
     "field models.F_scales: must be a list of numbers"),
    (SCALAR_UNIT.replace("  F: [[[1.0]]]\n", ""),
     "field models.F: missing (give F or F_base + F_scales)"),
    ("- 1\n- 2\n", "config root must be a mapping"),
], ids=["F_scales-scalar", "no-F", "root-list"])
def test_config_shape_error_ends_in_one_line(tmp_path, capsys, body, line):
    cfgp = write(tmp_path, body)
    assert cli.main(["run", "--config", cfgp]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("key, old, new", MALFORMED_CONFIGS)
def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys, key, old, new):
    # Each of these used to end in a traceback, a NaN solve (exit 1) or a
    # run that ignored the key (exit 0); gamma [3] is kept as a regression case.
    assert old in SCALAR_UNIT
    cfgp = write(tmp_path, SCALAR_UNIT.replace(old, new, 1))
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: field {key}: ")
    assert not out.exists()


def loaded_with(libyaml, path):
    """load_config(path) with libyaml's parser or PyYAML's own: the config, or the error text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yaml, "__with_libyaml__", libyaml)
        try:
            return config.load_config(path)
        except mx.InvalidInput as exc:
            return str(exc)


def assert_same_config(got, want):
    """Equal configs: dataclass fields compared one by one, arrays exactly."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        for field in dataclasses.fields(want):
            assert_same_config(getattr(got, field.name), getattr(want, field.name))
    elif isinstance(want, (np.ndarray, list, tuple)):
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("key, old, new",
                         [pytest.param(None, "", "", id="bundled")] + MALFORMED_CONFIGS)
def test_c_and_python_yaml_loaders_agree(tmp_path, paper_config_path, key, old, new):
    # The bundled config loads to equal configs with libyaml's parser and
    # with PyYAML's own; every malformed one fails with the same message.
    path = write(tmp_path, SCALAR_UNIT.replace(old, new, 1)) if key else paper_config_path
    fast, slow = loaded_with(True, path), loaded_with(False, path)
    if key is None:
        assert isinstance(slow, config.ExperimentConfig)
    else:
        assert slow.startswith(f"field {key}: ")
    assert_same_config(fast, slow)


def test_infeasible_gamma_exit_code(tmp_path, paper_config_path, capsys):
    body = open(paper_config_path, encoding="utf-8").read()
    cfgp = write(tmp_path, body.replace("gamma: 3.0", "gamma: 0.1"))
    assert cli.main(["run", "--config", cfgp,
                     "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "lambda_max" in err
    assert "gamma^2" in err


def test_no_convergence_exit_code(tmp_path, monkeypatch, capsys):
    cfgp = write(tmp_path, SCALAR_UNIT)

    def explode(*args, **kwargs):
        raise mx.NoConvergence("forced for the exit-code path")

    monkeypatch.setattr("mmxest.simulator.minimax.solve", explode)
    assert cli.main(["run", "--config", cfgp,
                     "--out", str(tmp_path / "x.csv")]) == 1
    # the failing step is named; no offset overflowed
    err = capsys.readouterr().err
    assert err == "error: no convergence: at t=0: forced for the exit-code path\n"


@pytest.mark.parametrize("seeds", [[], ["--seeds", "0..1"]], ids=["one-run", "seeds"])
def test_unwritable_output_exits_2(tmp_path, paper_config_path, capsys, seeds):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["run", "--config", paper_config_path, "--out", str(out)] + seeds) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field output: cannot write: ")
    assert err.count("\n") == 1 and "missing" in err


DIVERGING_BANK = SCALAR_UNIT.replace("F: [[[1.0]]]", "F: [[[1.0e+200]], [[0.5]]]").replace(
    "gamma: 3.0", "gamma: 1.0e+100").replace("kind: gaussian", "kind: zero")


@pytest.mark.parametrize("command", ["run", "check"])
def test_diverging_bank_names_model_and_t(tmp_path, capsys, command):
    # P of model 0 overflows at t = 1; the recursion ignores the overflow
    # (RuntimeWarnings are errors under this suite) and the factorization
    # check reports where S stopped being positive definite.
    cfgp = write(tmp_path, DIVERGING_BANK)
    assert cli.main([command, "--config", cfgp]) == 1
    assert capsys.readouterr().err == (
        "error: factorization failure: model 0, t=1: innovation covariance "
        "R + H P H^T is not positive definite\n")


@pytest.mark.parametrize("argv", [["run", "--stationary"], ["riccati"]], ids=["run", "riccati"])
def test_diverging_are_names_the_model(tmp_path, capsys, argv):
    # Model 1 (F = 2, H = 0) has P_k = 4 P_{k-1} + 1, which overflows at step
    # 512; the stationary solve names the model it failed on.
    body = SCALAR_UNIT.replace("F: [[[1.0]]]", "F: [[[0.5]], [[2.0]]]").replace(
        "H: [1.0]", "H: [[[1.0]], [[0.0]]]")
    assert cli.main(argv + ["--config", write(tmp_path, body)]) == 1
    assert capsys.readouterr().err == (
        "error: no convergence: model 1: Riccati iteration diverged after 512 steps\n")


OVERFLOWING = textwrap.dedent("""
    models:
      F: [[[{F}]], [[0.5]]]
      H: 1.0
    Q: 1.0
    R: 1.0
    P0: 1.0
    gamma: {gamma}
    horizon: {horizon}
""")


@pytest.mark.parametrize("F, gamma, horizon, code, line", [
    ("1.0e+200", "1.0e+100", 20, 2, "state of true model 0 is not finite at t=3 (horizon 20)"),
    ("1.5", "10.0", 1800, 2, "state of true model 0 is not finite at t=1755 (horizon 1800)"),
    ("1.5", "10.0", 900, 1, "no convergence: model 1, t=876: gamma^2 c overflows; at t=880: "
                            "duality gap inf > tol 1.000e-08 after 0 ascent steps"),
], ids=["truth-at-3", "truth-at-1755", "cost"])
def test_overflow_ends_in_one_line_naming_where(tmp_path, capsys, F, gamma, horizon, code, line):
    # Either the true state overflows (checked once after the truth loop), or
    # the truth stays finite and gamma^2 c of the wrong model 1 overflows at
    # t = 876, which the solve cannot certify from t = 880 on.  No
    # RuntimeWarning on the way: they are errors under this suite.
    cfgp = write(tmp_path, OVERFLOWING.format(F=F, gamma=gamma, horizon=horizon))
    assert cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "x.csv")]) == code
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("B, entry, line", [
    ("", "{kind: sequence, values: [1.0, 2.0]}",
     "sequence input needs models.B; the bank has no input"),
    ("  B: 1.0\n", "{kind: sinusoid, rate: 1.0e+308}", "input sin(rate * t) is not finite at t=2"),
], ids=["no-B", "wave-overflows"])
def test_bad_input_ends_in_one_line(tmp_path, capsys, B, entry, line):
    # An input that no B reads, and a wave whose rate * t overflows at t = 2:
    # both fail when the config loads, before any state is computed.
    body = OVERFLOWING.format(F="0.5", gamma="3.0", horizon=5).replace(
        "  H: 1.0\n", "  H: 1.0\n" + B) + f"input: {entry}\n"
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", write(tmp_path, body), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: field input: {line}\n" and not out.exists()


OVERFLOWING_COST = OVERFLOWING.format(F="1.5", gamma="10.0", horizon=1700) + \
    "estimators: {{minimax: {minimax}}}\n"


@pytest.mark.parametrize("seeds, line", [
    ([], "model 1: accumulated cost is not finite from t=881"),
    (["--seeds", "0..1"], "seed 0: model 1: accumulated cost is not finite from t=881\n"
                          "warning: seed 1: model 1: accumulated cost is not finite from t=878"),
], ids=["one-run", "seeds"])
def test_overflowed_cost_without_minimax_warns_once_per_run(tmp_path, capsys, seeds, line):
    # Without the minimax solve nothing fails on c1 = inf; the run checks its
    # recorded costs once, warns, and still exits 0 with the trace as rendered.
    cfgp = write(tmp_path, OVERFLOWING_COST.format(minimax="false"))
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", cfgp, "--out", str(out), "--full"] + seeds) == 0
    assert capsys.readouterr().err == f"warning: {line}\n"
    if not seeds:  # the trace as the library renders it, inf included
        trace = paper_trace(config.load_config(cfgp), run_minimax=False)
        assert out.read_text(encoding="utf-8") == "\n".join(cli.trace_lines(trace, True)) + "\n"
    header, rows = read_csv(tmp_path / "x_seed0.csv" if seeds else out)
    c1 = [row[header.index("c1")] for row in rows]
    assert c1.index("inf") == 881 and set(c1[881:]) == {"inf"}


def test_overflowed_cost_with_minimax_is_still_an_error(tmp_path, capsys):
    cfgp = write(tmp_path, OVERFLOWING_COST.format(minimax="true"))
    assert cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no convergence: model 1, t=876: ") and err.count("\n") == 1


@pytest.mark.parametrize("cls, code", [
    (mx.InvalidInput, 2), (mx.GammaInfeasible, 3), (mx.NoConvergence, 1),
    (mx.FactorizationFailure, 1), (mx.EstimationError, 1),
    (type("LibraryError", (mx.EstimationError,), {}), 1),
    (type("BadSeed", (mx.InvalidInput,), {}), 2)])
def test_every_library_error_exits_with_one_line(tmp_path, monkeypatch, capsys, cls, code):
    cfgp = write(tmp_path, SCALAR_UNIT)

    def fail(*args, **kwargs):
        raise cls("forced")

    monkeypatch.setattr(cli._simulator, "simulate", fail)
    assert cli.main(["run", "--config", cfgp]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("forced\n") and err.count("\n") == 1


def test_riccati_reports_golden_ratio(tmp_path, capsys):
    cfgp = write(tmp_path, SCALAR_UNIT)
    assert cli.main(["riccati", "--config", cfgp]) == 0
    out = capsys.readouterr().out
    assert "1.618033988" in out
    assert "feasible: yes" in out
    assert "iterations" in out
    assert "lambda_max" in out


def test_riccati_infeasible_still_reported(tmp_path, capsys):
    # A gamma too small for the stationary covariance: reported, exit 0.
    cfgp = write(tmp_path, SCALAR_UNIT.replace("gamma: 3.0", "gamma: 1.2"))
    assert cli.main(["riccati", "--config", cfgp]) == 0
    assert "feasible: no" in capsys.readouterr().out


def test_check_paper_config(paper_config_path, capsys):
    assert cli.main(["check", "--config", paper_config_path]) == 0
    assert "gamma-feasible" in capsys.readouterr().out


def test_check_reports_first_violation(tmp_path, paper_config_path, capsys):
    body = open(paper_config_path, encoding="utf-8").read()
    cfgp = write(tmp_path, body.replace("gamma: 3.0", "gamma: 1.0"))
    assert cli.main(["check", "--config", cfgp]) == 3
    err = capsys.readouterr().err
    assert "t=0" in err
    assert "model 0" in err
    assert "lambda_max" in err


GAIN_MODE_CONFIGS = {
    # feasible for t = 0..2, not at the stationary covariance
    "stationary-infeasible": ("models: {F: [[[0.99]], [[0.5]]], H: 1.0}\nQ: 1.0\nR: 1.0\n"
                              "P0: 0.01\ngamma: 1.245\nhorizon: 2\nstationary: true\n", 3),
    # infeasible at P0 = 100 only, which the stationary gains never use
    "stationary-feasible": ("models: {F: [[[0.5]]], H: 1.0}\nQ: 1.0\nR: 1.0\n"
                            "P0: 100.0\ngamma: 3.0\nhorizon: 2\nstationary: true\n", 0),
}


@pytest.mark.parametrize("name", list(GAIN_MODE_CONFIGS))
def test_check_uses_the_gains_run_uses(tmp_path, capsys, name):
    body, code = GAIN_MODE_CONFIGS[name]
    cfgp = write(tmp_path, body)

    def call(argv):
        exit_code = cli.main(argv + ["--config", cfgp])
        out, err = capsys.readouterr()
        return exit_code, [line for line in err.splitlines() if line.startswith("error:")], out

    check, run = call(["check"]), call(["run", "--out", str(tmp_path / "x.csv")])
    assert check[:2] == run[:2] and check[0] == code
    if code == 0:
        assert check[2] == "all i gamma-feasible with stationary gains, 1 models, gamma^2 = 9.0\n"
    else:
        assert check[1] == ["error: gamma-infeasible: model 0: lambda_max(H P H^T) = "
                            "1.6036697746538084 >= gamma^2 = 1.5500250000000002"]


def test_stationary_and_bayes_mode_flags(tmp_path, paper_config_path, capsys):
    # --stationary is a flag; the Bayes mode is the config's bayes_mode only
    a = str(tmp_path / "tv.csv")
    b = str(tmp_path / "st.csv")
    c = str(tmp_path / "map.csv")
    mapped = write(tmp_path, open(paper_config_path, encoding="utf-8").read()
                   + "bayes_mode: map\n")
    assert cli.main(["run", "--config", paper_config_path, "--out", a]) == 0
    assert cli.main(["run", "--config", paper_config_path, "--out", b,
                     "--stationary"]) == 0
    assert cli.main(["run", "--config", mapped, "--out", c]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", paper_config_path, "--out", c, "--bayes-mode", "map"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bayes-mode map" in capsys.readouterr().err
    _, rows_a = read_csv(a)
    _, rows_b = read_csv(b)
    _, rows_c = read_csv(c)
    assert rows_a != rows_b  # gain schedule changes the estimates
    assert [r[1] for r in rows_a] == [r[1] for r in rows_c]  # same truth
    assert [r[3] for r in rows_a] != [r[3] for r in rows_c]  # mode changes zh_ba


def test_console_entry_point_subprocess(tmp_path, paper_config_path):
    out = str(tmp_path / "sub.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "mmxest.cli", "run",
         "--config", paper_config_path, "--out", out],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    header, rows = read_csv(out)
    assert header == ["t", "z", "zh_mini", "zh_ba"]
    assert len(rows) == 20


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mmxest, mmxest.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def paper_trace(cfg, **kwargs):
    u, x, y, z = mx.generate_truth(cfg.models, cfg.true_model, cfg.horizon, cfg.process_noise,
                                   cfg.measurement_noise, cfg.input_spec)
    return dataclasses.replace(mx.run_estimators(cfg.models, y, u=u, **kwargs),
                               true_model=cfg.true_model, x=x, z=z)


def random_m2_trace():
    models = make_random_models(np.random.default_rng(3), 3, 4, 2)
    return mx.simulate(models, 1, 25, mx.NoiseSpec(seed=7), mx.NoiseSpec(seed=8))


@pytest.mark.parametrize("block, switch", [("{minimax: false}", {"run_minimax": False}),
                                           ("{bayesian: false}", {"run_bayes": False})],
                         ids=["no-minimax", "no-bayes"])
def test_run_full_with_an_estimator_off_writes_its_trace(tmp_path, paper_config_path, block,
                                                         switch):
    body = open(paper_config_path, encoding="utf-8").read() + f"estimators: {block}\n"
    cfgp = write(tmp_path, body)
    out = tmp_path / "trace.csv"
    assert cli.main(["run", "--config", cfgp, "--out", str(out), "--full"]) == 0
    trace = paper_trace(config.load_config(cfgp), **switch)
    assert out.read_bytes() == ("\n".join(cli.trace_lines(trace, full=True)) + "\n").encode()


@pytest.mark.parametrize("make", [
    lambda cfg: paper_trace(cfg),
    lambda cfg: paper_trace(cfg, stationary=True),
    lambda cfg: paper_trace(cfg, run_minimax=False),
    lambda cfg: paper_trace(cfg, run_bayes=False),
    lambda cfg: random_m2_trace(),
], ids=["paper", "paper-stationary", "no-minimax", "no-bayes", "random-m2"])
@pytest.mark.parametrize("full", [False, True], ids=["short", "full"])
def test_trace_lines_match_per_value_renderer(paper_config, make, full):
    trace = make(paper_config)
    assert cli.trace_lines(trace, full=full) == trace_lines_per_value(trace, full=full)
