"""Experiment configuration: YAML file -> validated objects.

A config file describes the model bank, the horizon, the noise sources, the
known input, and estimator options.  Model matrices accept shorthands: a
scalar weight means that multiple of the identity, a single shared H or B
applies to every model, and F_base with F_scales builds the bank
{scale_i * F_base}.  Every parse failure raises :class:`ConfigError` naming
the offending field.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .exceptions import ConfigError
from .model_bank import ModelSet, validate
from .simulator import InputSpec, NoiseSpec

BAYES_MODES = ("average", "map")


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


def _matrix(value, rows, cols, field):
    """Coerce scalar-or-nested-list into a (rows, cols) array."""
    if np.isscalar(value):
        if rows != cols:
            raise ConfigError(f"field {field}: scalar shorthand needs a square matrix")
        return float(value) * np.eye(rows)
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :] if rows == 1 else arr[:, None]
    if arr.shape != (rows, cols):
        raise ConfigError(
            f"field {field}: shape {arr.shape} does not match ({rows}, {cols})")
    return arr


def _model_matrices(section, key, K, rows, cols, required=True):
    """Per-model list, or one shared matrix broadcast to all K models."""
    if key not in section:
        if required:
            raise ConfigError(f"field models.{key}: missing")
        return None
    value = section[key]
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 3:
        if arr.shape[0] != K:
            raise ConfigError(
                f"field models.{key}: got {arr.shape[0]} matrices for {K} models")
        return [_matrix(arr[i], rows, cols, f"models.{key}[{i}]") for i in range(K)]
    shared = _matrix(value, rows, cols, f"models.{key}")
    return [shared] * K


def _parse_models(raw) -> ModelSet:
    if not isinstance(raw, dict):
        raise ConfigError("field models: must be a mapping")
    section = raw.get("models")
    if not isinstance(section, dict):
        raise ConfigError("field models: missing or not a mapping")

    if "F" in section:
        F_arr = np.asarray(section["F"], dtype=float)
        if F_arr.ndim != 3:
            raise ConfigError("field models.F: need a list of square matrices")
        K, n = F_arr.shape[0], F_arr.shape[1]
        F = [_matrix(F_arr[i], n, n, f"models.F[{i}]") for i in range(K)]
    elif "F_base" in section:
        base = np.asarray(section["F_base"], dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ConfigError("field models.F_base: must be a square matrix")
        scales = section.get("F_scales")
        if not isinstance(scales, (list, tuple)) or not scales:
            raise ConfigError("field models.F_scales: need a nonempty list of scalars")
        n = base.shape[0]
        K = len(scales)
        F = [float(s) * base for s in scales]
    else:
        raise ConfigError("field models.F: missing (give F or F_base + F_scales)")

    H_raw = section.get("H")
    if H_raw is None:
        raise ConfigError("field models.H: missing")
    H_arr = np.asarray(H_raw, dtype=float)
    if H_arr.ndim == 3:
        m = H_arr.shape[1]
    elif H_arr.ndim == 2:
        m = H_arr.shape[0]
    else:
        m = 1
    H = _model_matrices(section, "H", K, m, n)

    if "B" in section:
        B_raw = np.asarray(section["B"], dtype=float)
        if B_raw.ndim == 3:
            p = B_raw.shape[2]
        elif B_raw.ndim == 2:
            p = B_raw.shape[1]
        else:
            p = 1
        B = _model_matrices(section, "B", K, n, p)
    else:
        B = None

    fields = {
        "F": F,
        "H": H,
        "Q": _matrix(raw.get("Q", 1.0), n, n, "Q"),
        "R": _matrix(raw.get("R", 1.0), m, m, "R"),
        "P0": _matrix(raw.get("P0", 1.0), n, n, "P0"),
        "gamma": raw.get("gamma"),
    }
    if B is not None:
        fields["B"] = B
    if "xhat0" in raw:
        fields["xhat0"] = np.asarray(raw["xhat0"], dtype=float)
    if fields["gamma"] is None:
        raise ConfigError("field gamma: missing")
    try:
        fields["gamma"] = float(fields["gamma"])
    except (TypeError, ValueError):
        raise ConfigError("field gamma: not a number") from None
    try:
        return validate(fields)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"field models: {exc}") from None


def _parse_noise(raw, key) -> NoiseSpec:
    section = raw.get(key, {})
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"field {key}: must be a mapping")
    scale = section.get("scale", 1.0)
    if isinstance(scale, bool):
        raise ConfigError(f"field {key}.scale: must be a number, got {scale!r}")
    try:
        scale = float(scale)
    except (TypeError, ValueError):
        raise ConfigError(f"field {key}.scale: must be a number, got {scale!r}") from None
    try:
        return NoiseSpec(kind=section.get("kind", "gaussian"), scale=scale,
                         seed=section.get("seed", 0))
    except ValueError as exc:
        raise ConfigError(f"field {key}: {exc}") from None


def _parse_input(raw) -> InputSpec:
    section = raw.get("input", {})
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError("field input: must be a mapping")
    try:
        values = section.get("values")
        return InputSpec(
            kind=section.get("kind", "none"),
            rate=float(section.get("rate", 0.2)),
            values=None if values is None else np.asarray(values, dtype=float),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field input: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    models = _parse_models(raw)

    horizon = raw.get("horizon")
    if horizon is None:
        raise ConfigError("field horizon: missing")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise ConfigError("field horizon: must be an integer >= 1")

    true_model = raw.get("true_model", 0)
    if not isinstance(true_model, int) or isinstance(true_model, bool):
        raise ConfigError("field true_model: must be an integer")
    if not 0 <= true_model < models.K:
        raise ConfigError(
            f"field true_model: {true_model} outside 0..{models.K - 1}")

    stationary = raw.get("stationary", False)
    if not isinstance(stationary, bool):
        raise ConfigError("field stationary: must be a boolean")

    bayes_mode = raw.get("bayes_mode", "average")
    if bayes_mode not in BAYES_MODES:
        raise ConfigError(
            f"field bayes_mode: {bayes_mode!r} not in {BAYES_MODES}")

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("field output: must be a path string")

    toggles = raw.get("estimators", {})
    if toggles is None:
        toggles = {}
    if not isinstance(toggles, dict):
        raise ConfigError("field estimators: must be a mapping")
    run_minimax = toggles.get("minimax", True)
    run_bayes = toggles.get("bayesian", True)
    if not isinstance(run_minimax, bool) or not isinstance(run_bayes, bool):
        raise ConfigError("field estimators: toggles must be booleans")

    return ExperimentConfig(
        models=models,
        true_model=true_model,
        horizon=horizon,
        process_noise=_parse_noise(raw, "process_noise"),
        measurement_noise=_parse_noise(raw, "measurement_noise"),
        input_spec=_parse_input(raw),
        stationary=stationary,
        bayes_mode=bayes_mode,
        output=output,
        run_minimax=run_minimax,
        run_bayes=run_bayes,
    )


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Reseed both noise streams from one batch seed.

    Seed s maps to process stream 2s and measurement stream 2s + 1, so
    distinct batch seeds never share a stream.
    """
    return dataclasses.replace(
        config,
        process_noise=dataclasses.replace(config.process_noise, seed=2 * seed),
        measurement_noise=dataclasses.replace(
            config.measurement_noise, seed=2 * seed + 1),
    )
