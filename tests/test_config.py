import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

import mmxest as mx
from mmxest import cli, config
from conftest import raises_invalid


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


MINIMAL = textwrap.dedent("""
    models:
      F: [[[0.5]], [[-0.5]]]
      H: [1.0]
    Q: 1.0
    R: 1.0
    P0: 1.0
    gamma: 3.0
    horizon: 5
""")


def test_bundled_config_paper_system(paper_config):
    cfg = paper_config
    assert (cfg.models.K, cfg.models.n, cfg.models.m, cfg.models.p) == (2, 3, 1, 1)
    np.testing.assert_allclose(cfg.models.F[1][0], [1.1, -0.5, 0.1])
    np.testing.assert_allclose(cfg.models.F[0], -cfg.models.F[1])
    np.testing.assert_allclose(cfg.models.B[0][:, 0], [-1.0, 2.0, 3.0])
    np.testing.assert_array_equal(cfg.models.Q, np.eye(3))
    np.testing.assert_array_equal(cfg.models.R, np.eye(1))
    assert cfg.models.gamma == 3.0
    assert cfg.true_model == 1
    assert cfg.horizon == 20
    assert cfg.process_noise == mx.NoiseSpec(kind="gaussian", scale=1.0, seed=1)
    assert cfg.measurement_noise == mx.NoiseSpec(kind="gaussian", scale=1.0, seed=2)
    assert cfg.input_spec.kind == "sinusoid"
    assert cfg.input_spec.rate == 0.2
    assert not cfg.stationary
    assert cfg.bayes_mode == "average"
    assert cfg.run_minimax and cfg.run_bayes


def test_minimal_config_defaults(tmp_path):
    cfg = mx.load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.models.K == 2
    assert cfg.models.p == 0
    assert cfg.true_model == 0
    assert cfg.process_noise.kind == "gaussian"
    assert cfg.input_spec.kind == "none"
    assert cfg.output is None


def test_scalar_weight_shorthand(tmp_path):
    cfg = mx.load_config(write_cfg(tmp_path, """
        models:
          F_base: [[0.9, 0.1], [0.0, 0.8]]
          F_scales: [1.0, -1.0]
          H: [[1.0, 0.0]]
        Q: 2.0
        R: 0.5
        P0: 3.0
        gamma: 4.0
        horizon: 3
    """))
    np.testing.assert_array_equal(cfg.models.Q, 2.0 * np.eye(2))
    np.testing.assert_array_equal(cfg.models.R, 0.5 * np.eye(1))
    np.testing.assert_array_equal(cfg.models.P0, 3.0 * np.eye(2))
    np.testing.assert_allclose(cfg.models.F[1], -cfg.models.F[0])


def test_per_model_output_maps(tmp_path):
    cfg = mx.load_config(write_cfg(tmp_path, """
        models:
          F: [[[1.0]], [[1.0]]]
          H: [[[2.0]], [[-2.0]]]
        Q: 1.0
        R: 1.0
        P0: 1.0
        gamma: 9.0
        horizon: 2
    """))
    assert cfg.models.H[0][0, 0] == 2.0
    assert cfg.models.H[1][0, 0] == -2.0


def test_error_messages_name_the_field(tmp_path):
    cases = [
        ("gamma", MINIMAL.replace("gamma: 3.0", "")),
        ("horizon", MINIMAL.replace("horizon: 5", "")),
        ("horizon", MINIMAL.replace("horizon: 5", "horizon: 0")),
        ("true_model", MINIMAL + "true_model: 7\n"),
        ("bayes_mode", MINIMAL + "bayes_mode: mean\n"),
        ("models.H", MINIMAL.replace("H: [1.0]", "")),
        ("stationary", MINIMAL + "stationary: 3\n"),
        ("models.F_scales", """
            models:
              F_base: [[1.0]]
            Q: 1.0
            R: 1.0
            P0: 1.0
            gamma: 1.5
            horizon: 1
        """),
    ]
    for field, body in cases:
        with raises_invalid(field, f"^field {re.escape(field)}: "):
            mx.load_config(write_cfg(tmp_path, body))


@pytest.mark.parametrize("old, new, message", [
    ("horizon: 5", "horizon: 5\nprocess_noise: [1]", "field process_noise: must be a mapping"),
    ("horizon: 5", "horizon: 5\nmeasurement_noise: 0.5",
     "field measurement_noise: must be a mapping"),
    ("horizon: 5", "horizon: 5\nprocess_noise: 0", "field process_noise: must be a mapping"),
    ("horizon: 5", "horizon: 5\ninput: []", "field input: must be a mapping"),
    ("horizon: 5", "horizon: 5\nestimators: 0", "field estimators: must be a mapping"),
    ("horizon: 5", "horizon: 5\ninput: {rat: 0.2}", "field input.rat: unknown"),
    ("horizon: 5", "horizon: 5\nprocess_noise: {sclae: 2}", "field process_noise.sclae: unknown"),
    ("F: [[[0.5]], [[-0.5]]]", "F_base: [[1.0, 2.0]]\n  F_scales: [1.0]",
     "field models.F_base: F[0] has shape (1, 2), expected (1, 1)"),
], ids=["process_noise-list", "measurement_noise-scalar", "process_noise-zero", "input-empty-list",
        "estimators-zero", "input-unknown", "process_noise-unknown", "F_base-shape"])
def test_section_errors_name_the_config_key(tmp_path, old, new, message):
    # The message names the key as the config spells it, not a Python call:
    # a section that is not a mapping (a falsy one is not taken as empty) or
    # has an unknown key, and a bank built from F_base that fails its shape check.
    field = message.split(":")[0].removeprefix("field ")
    with raises_invalid(field, f"^{re.escape(message)}$"):
        mx.load_config(write_cfg(tmp_path, MINIMAL.replace(old, new, 1)))


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pyyaml"])
def test_a_key_given_twice_is_rejected(tmp_path, paper_config_path, monkeypatch, libyaml):
    # PyYAML keeps the last value of a repeated key; the config names it, with
    # its section, under either parser (tests/test_cli.py MALFORMED_CONFIGS has
    # the nested and flow cases).  A merge key (<<) may still be overridden.
    monkeypatch.setattr(yaml, "__with_libyaml__", libyaml)
    paper = Path(paper_config_path).read_text(encoding="utf-8")
    for body, field in (
            (paper + "horizon: 1000\nprocess_noise:\n  kind: zero\n", "horizon"),
            (MINIMAL + "input: {values: {a: 1, a: 2}}\n", "input.values.a")):
        with raises_invalid(field, f"^field {re.escape(field)}: given twice$"):
            mx.load_config(write_cfg(tmp_path, body))
    merged = MINIMAL + ("process_noise: &noise {kind: gaussian, seed: 5}\n"
                        "measurement_noise: {<<: *noise, seed: 6}\n")
    cfg = mx.load_config(write_cfg(tmp_path, merged))
    assert (cfg.process_noise.seed, cfg.measurement_noise.seed) == (5, 6)
    assert cfg.measurement_noise.kind == "gaussian"


def test_invalid_yaml_and_missing_file(tmp_path):
    with raises_invalid(None, "^config is not valid YAML: while parsing a flow sequence; "
                        "in .*, line 1, column 9; did not find expected ',' or ']'; ") as err:
        mx.load_config(write_cfg(tmp_path, "models: [unclosed"))
    assert "\n" not in str(err.value)  # the CLI prints one line
    with raises_invalid(None, "^cannot read config: .*No such file or directory: .*absent.cfg"):
        mx.load_config(str(tmp_path / "absent.cfg"))


def test_model_validation_errors_become_config_errors(tmp_path):
    with raises_invalid("Q", "^field Q: Q is not positive definite$"):
        mx.load_config(write_cfg(tmp_path, MINIMAL.replace("Q: 1.0", "Q: -1.0")))


def test_estimator_toggles(tmp_path):
    cfg = mx.load_config(write_cfg(
        tmp_path, MINIMAL + "estimators:\n  minimax: false\n"))
    assert not cfg.run_minimax
    assert cfg.run_bayes
    with raises_invalid("estimators", "^field estimators: toggles must be booleans$"):
        mx.load_config(write_cfg(
            tmp_path, MINIMAL + "estimators:\n  minimax: 1\n"))


def test_with_seed_separates_streams(paper_config):
    reseeded = mx.with_seed(paper_config, 21)
    assert reseeded.process_noise.seed == 42
    assert reseeded.measurement_noise.seed == 43
    # Everything else survives untouched.
    assert reseeded.models == paper_config.models
    assert reseeded.horizon == paper_config.horizon
    assert reseeded.process_noise.kind == paper_config.process_noise.kind


@pytest.mark.parametrize("seed", [True, 1.5, "3"])
def test_with_seed_takes_an_integer_only(paper_config, seed):
    with raises_invalid("seed", f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        mx.with_seed(paper_config, seed)


def test_output_and_flags(tmp_path):
    cfg = mx.load_config(write_cfg(
        tmp_path,
        MINIMAL + "output: trace.csv\nstationary: true\nbayes_mode: map\n"))
    assert cfg.output == "trace.csv"
    assert cfg.stationary
    assert cfg.bayes_mode == "map"


@pytest.mark.parametrize("key", ["process_noise", "measurement_noise"])
@pytest.mark.parametrize("entry, field", [
    ("seed: 1.5", "seed"),
    ("seed: true", "seed"),
    ("seed: '3'", "seed"),
    ("scale: .nan", "scale"),
    ("scale: .inf", "scale"),
    ("scale: -.inf", "scale"),
    ("scale: -1.0", "scale"),
    ("scale: true", "scale"),
    ("scale: loud", "scale"),
])
def test_noise_fields_validated(tmp_path, key, entry, field):
    body = MINIMAL + f"{key}: {{kind: gaussian, {entry}}}\n"
    with raises_invalid(key, rf"^field {key}: noise {field} must be"):
        mx.load_config(write_cfg(tmp_path, body))


def test_noise_fields_accept_integers_and_finite_scales(tmp_path):
    body = MINIMAL + ("process_noise: {kind: uniform-bounded, scale: 2, seed: -4}\n"
                      "measurement_noise: {scale: 0.25, seed: 12345678901234567890}\n")
    cfg = mx.load_config(write_cfg(tmp_path, body))
    assert cfg.process_noise == mx.NoiseSpec(kind="uniform-bounded", scale=2.0, seed=-4)
    assert cfg.measurement_noise == mx.NoiseSpec(scale=0.25, seed=12345678901234567890)


@pytest.mark.parametrize("field, value", [("scale", float("nan")), ("scale", float("inf")),
                                          ("scale", True), ("scale", "2"),
                                          ("seed", 1.5), ("seed", True), ("seed", "3")])
def test_noise_spec_rejects_bad_scale_and_seed(field, value):
    with raises_invalid(None, f"^noise {field} must be .*, got {re.escape(repr(value))}$"):
        mx.NoiseSpec(**{field: value})
    assert mx.NoiseSpec(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("entry", [
    "{kind: sinusoid, rate: .nan}",
    "{kind: sinusoid, rate: .inf}",
    "{kind: sequence, values: [0.0, .nan, 1.0, 0.0, 0.0]}",
    "{kind: sequence, values: [0.0, 1.0, -.inf, 0.0, 0.0]}",
])
def test_input_fields_must_be_finite(tmp_path, entry):
    body = MINIMAL.replace("  H: [1.0]\n", "  H: [1.0]\n  B: [1.0]\n") + f"input: {entry}\n"
    with raises_invalid("input", r"^field input: input (rate|values) must be .*finite"):
        mx.load_config(write_cfg(tmp_path, body))


@pytest.mark.parametrize("entry", ["{kind: sequence, values: [a, 1.0, 2.0, 3.0, 4.0]}",
                                   "{kind: sequence, values: [[1.0, 2.0], [3.0]]}"],
                         ids=["string", "ragged"])
def test_input_values_must_be_numbers(tmp_path, entry, capsys):
    body = MINIMAL.replace("  H: [1.0]\n", "  H: [1.0]\n  B: [1.0]\n") + f"input: {entry}\n"
    path = write_cfg(tmp_path, body)
    with raises_invalid("input", "^field input: input values must be numbers$"):
        mx.load_config(path)
    assert cli.main(["check", "--config", path]) == 2
    assert capsys.readouterr().err == "error: field input: input values must be numbers\n"


@pytest.mark.parametrize("entry, kind", [("{values: [1.0, 2.0, 3.0, 4.0, 5.0]}", "none"),
                                         ("{kind: sinusoid, values: [1.0, 2.0]}", "sinusoid")])
def test_input_values_need_a_sequence(tmp_path, entry, kind):
    body = MINIMAL.replace("  H: [1.0]\n", "  H: [1.0]\n  B: [1.0]\n") + f"input: {entry}\n"
    want = rf"^field input: input values need kind 'sequence', not '{kind}'$"
    with raises_invalid("input", want):
        mx.load_config(write_cfg(tmp_path, body))


@pytest.mark.parametrize("entry, kind", [("{kind: sequence, values: [1.0, 2.0]}", "sequence"),
                                         ("{kind: sinusoid, rate: 0.2}", "sinusoid")],
                         ids=["sequence", "sinusoid"])
def test_input_needs_models_b(tmp_path, entry, kind):
    # MINIMAL has no B, so an input would drive nothing: the 2-row sequence
    # (horizon 5) would go unchecked and the wave would be dropped.
    want = rf"^field input: {kind} input needs models\.B; the bank has no input$"
    with raises_invalid("input", want):
        mx.load_config(write_cfg(tmp_path, MINIMAL + f"input: {entry}\n"))


@pytest.mark.parametrize("spec", [{"kind": "sinusoid", "rate": float("nan")},
                                  {"kind": "sinusoid", "rate": -float("inf")},
                                  {"kind": "sinusoid", "rate": "fast"},
                                  {"kind": "sinusoid", "rate": True},
                                  {"kind": "sequence", "values": np.array([0.0, float("nan")])}])
def test_input_spec_rejects_non_finite(spec):
    field = "rate" if "rate" in spec else "values"
    with raises_invalid(None, rf"^input {field} must be .*finite"):
        mx.InputSpec(**spec)


def test_readme_config_format_lists_the_accepted_keys():
    # Every key load_config accepts is documented, and nothing else: a
    # bullet under "Config format" starts with the keys it describes.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    heads = [line[2:].split(": ", 1)[0] for line in section.splitlines()
             if line.startswith("- ")]
    documented = {key for head in heads for key in re.findall(r"`([^`]+)`", head)}
    accepted = set(config.ROOT_KEYS) - {"models", "estimators"}
    accepted |= {f"models.{key}" for key in config.MODEL_KEYS}
    accepted |= {f"estimators.{key}" for key in config.ESTIMATOR_KEYS}
    assert documented == accepted
