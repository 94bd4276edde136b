"""Experiment configuration: YAML file -> validated objects.

A config file describes the model bank, the horizon, the noise sources, the
known input, and estimator options.  Each section is built by the type that
checks it (``validate``, ``NoiseSpec``, ``InputSpec``); this module only
expands the shorthands: a scalar means that multiple of I, a vector is a row
(one output) or a column, a single H or B is shared by every model, and
F_base with F_scales builds {scale_i * F_base}.  Unknown keys and a key
given twice in one mapping are rejected, and every failure raises
:class:`InvalidInput` naming the config key.
"""
from __future__ import annotations

import dataclasses
import functools
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bayes import BAYES_MODES
from .exceptions import EstimationError, InvalidInput
from .model_bank import ModelSet, validate
from .simulator import InputSpec, NoiseSpec

ROOT_KEYS = ("models", "Q", "R", "P0", "gamma", "xhat0", "true_model", "horizon",
             "process_noise", "measurement_noise", "input", "stationary",
             "bayes_mode", "output", "estimators")
MODEL_KEYS = ("F", "F_base", "F_scales", "H", "B")
ESTIMATOR_KEYS = ("minimax", "bayesian")
_MERGE = "tag:yaml.org,2002:merge"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; the model set is already validated."""

    models: ModelSet
    true_model: int
    horizon: int
    process_noise: NoiseSpec
    measurement_noise: NoiseSpec
    input_spec: InputSpec
    stationary: bool = False
    bayes_mode: str = "average"
    output: Optional[str] = None
    run_minimax: bool = True
    run_bayes: bool = True


@contextmanager
def _field(name, f_key="F"):
    """Report an owner's error as an InvalidInput naming the config key.

    A model-bank error names its own array in ``field``; that key wins (F as
    ``f_key``, the key the bank was built from), and F, H and B live under
    ``models``.  Noise and input errors carry no ``field``, so the section
    key stands.
    """
    try:
        yield
    except (EstimationError, ValueError, TypeError) as exc:
        key = getattr(exc, "field", None)
        if key is not None:
            name = f"models.{f_key if key == 'F' else key}" if key in MODEL_KEYS else key
        raise InvalidInput(f"field {name}: {exc}", name) from None


def _require(ok, key, message):
    """Raise "field <key>: <message>" unless ``ok``."""
    if not ok:
        raise InvalidInput(f"field {key}: {message}", key)


def _known(section, keys, prefix=""):
    for key in section:
        _require(key in keys, f"{prefix}{key}", "unknown")


def _required(section, key):
    if key not in section:
        raise InvalidInput("missing")
    return section[key]


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _matrix(value, rows):
    """A scalar becomes that multiple of I, a vector a row (rows == 1) or a column."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return arr * np.eye(rows)
    if arr.ndim == 1:
        return arr[None, :] if rows == 1 else arr[:, None]
    return arr


def _per_model(value, K, rows):
    """A per-model list (one more nesting level), or one matrix shared by all K."""
    arr = np.asarray(value, dtype=float)
    return list(arr) if arr.ndim == 3 else [_matrix(arr, rows)] * K


def _models(raw) -> ModelSet:
    section = raw.get("models")
    _require(isinstance(section, dict), "models", "missing or not a mapping")
    _known(section, MODEL_KEYS, "models.")
    if "F" in section:
        with _field("models.F"):
            F = np.atleast_1d(np.asarray(section["F"], dtype=float))
    elif "F_base" in section:
        with _field("models.F_base"):
            base = np.asarray(section["F_base"], dtype=float)
        with _field("models.F_scales"):
            scales = np.asarray(_required(section, "F_scales"), dtype=float)
            if scales.ndim != 1:
                raise InvalidInput("must be a list of numbers")
        F = np.multiply.outer(scales, base)
    else:
        raise InvalidInput("field models.F: missing (give F or F_base + F_scales)", "models.F")
    K, n = len(F), F.shape[-1] if F.ndim == 3 else 1
    with _field("models.H"):
        H = _per_model(_required(section, "H"), K, 1)
        m = H[0].shape[0] if H else 1
    fields = {"F": F, "H": H, "gamma": raw.get("gamma")}
    if "B" in section:
        with _field("models.B"):
            fields["B"] = _per_model(section["B"], K, n)
    for key, rows in (("Q", n), ("R", m), ("P0", n)):
        with _field(key):
            fields[key] = _matrix(raw.get(key, 1.0), rows)
    if "xhat0" in raw:
        with _field("xhat0"):
            fields["xhat0"] = np.asarray(raw["xhat0"], dtype=float)
    with _field("models", "F" if "F" in section else "F_base"):
        return validate(fields)


@functools.cache
def _strict(base):
    """Loader class ``base`` that rejects a key given twice in one mapping:
    InvalidInput "field <section>.<key>: given twice".  A mapping's keys are
    checked before its values are built, so a nested mapping learns its
    section from its parent (one under a sequence has none).  A merge key
    (``<<``) is PyYAML's to resolve, and may be overridden."""
    import yaml

    class Loader(base):
        def __init__(self, stream):
            super().__init__(stream)
            self.sections = {}  # mapping node -> "<section>." of its keys

        def construct_mapping(self, node, deep=False):
            if isinstance(node, yaml.MappingNode):
                section, seen = self.sections.get(node, ""), set()
                for key_node, value_node in node.value:
                    # a merge key is PyYAML's; a collection as a key is its error
                    if not isinstance(key_node, yaml.ScalarNode) or key_node.tag == _MERGE:
                        continue
                    key = self.construct_object(key_node)
                    _require(key not in seen, f"{section}{key}", "given twice")
                    seen.add(key)
                    if isinstance(value_node, yaml.MappingNode):
                        self.sections[value_node] = f"{section}{key}."
            return super().construct_mapping(node, deep=deep)

    return Loader


def load_config(path: str) -> ExperimentConfig:
    """Read a config file, expand its shorthands and build each section.

    PyYAML is imported here, on the first call, so that ``import mmxest``
    costs numpy and the package only.
    """
    import yaml

    # libyaml's parser where PyYAML has it: the same documents, about 7x faster
    loader = _strict(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise InvalidInput(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:  # PyYAML's message spans lines; the error is one
        detail = "; ".join(line.strip() for line in str(exc).splitlines())
        raise InvalidInput(f"config is not valid YAML: {detail}") from None
    if not isinstance(raw, dict):
        raise InvalidInput("config root must be a mapping")
    _known(raw, ROOT_KEYS)
    models = _models(raw)

    horizon = raw.get("horizon")
    _require(_integer(horizon) and horizon >= 1, "horizon", "missing or not an integer >= 1")
    true_model = raw.get("true_model", 0)
    _require(_integer(true_model) and 0 <= true_model < models.K, "true_model",
             f"{true_model!r} is not an integer in 0..{models.K - 1}")
    stationary = raw.get("stationary", False)
    _require(isinstance(stationary, bool), "stationary", "must be a boolean")
    bayes_mode = raw.get("bayes_mode", "average")
    _require(bayes_mode in BAYES_MODES, "bayes_mode", f"{bayes_mode!r} not in {BAYES_MODES}")
    output = raw.get("output")
    _require(output is None or isinstance(output, str), "output", "must be a path string")

    toggles = {} if raw.get("estimators") is None else raw["estimators"]
    _require(isinstance(toggles, dict), "estimators", "must be a mapping")
    _known(toggles, ESTIMATOR_KEYS, "estimators.")
    run_minimax = toggles.get("minimax", True)
    run_bayes = toggles.get("bayesian", True)
    _require(isinstance(run_minimax, bool) and isinstance(run_bayes, bool), "estimators",
             "toggles must be booleans")

    specs = {}
    for key, spec in (("process_noise", NoiseSpec), ("measurement_noise", NoiseSpec),
                      ("input", InputSpec)):
        section = {} if raw.get(key) is None else raw[key]
        _require(isinstance(section, dict), key, "must be a mapping")
        _known(section, [f.name for f in dataclasses.fields(spec)], f"{key}.")
        with _field(key):
            specs[key] = spec(**section)
    input_spec = specs.pop("input")
    with _field("input"):
        input_spec.build(horizon, models.p)

    return ExperimentConfig(
        models=models,
        true_model=true_model,
        horizon=horizon,
        input_spec=input_spec,
        stationary=stationary,
        bayes_mode=bayes_mode,
        output=output,
        run_minimax=run_minimax,
        run_bayes=run_bayes,
        **specs,
    )


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Reseed both noise streams from one batch seed.

    Seed s maps to process stream 2s and measurement stream 2s + 1, so
    distinct batch seeds never share a stream.  A seed that is not an
    integer (or is a bool) raises InvalidInput naming ``seed``.
    """
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise InvalidInput(f"seed must be an integer, got {seed!r}", "seed")
    return dataclasses.replace(
        config,
        process_noise=dataclasses.replace(config.process_noise, seed=2 * seed),
        measurement_noise=dataclasses.replace(
            config.measurement_noise, seed=2 * seed + 1),
    )
