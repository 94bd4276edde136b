"""Closed-loop simulation: truth generation plus both estimators.

``generate_truth`` rolls the true model forward under seeded portable noise;
``run_estimators`` replays a measurement record (y, u) through the filter
bank, the minimax predictor, and the Bayesian baseline.  ``simulate`` chains
the two and attaches the truth.  Keeping the stages separate lets tests feed
hand-crafted or perturbed measurement records through the estimators.

Row timing: row t of a trace holds the noise-free output z_t = H_true x_t
and the predictions of it formed from y_0 .. y_{t-1} only.  Row 0 is the
prior prediction, before any data.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Optional

import numpy as np

from . import bayes as _bayes
from . import filter_bank, linalg, minimax, riccati, rng
from .exceptions import InvalidInput, NoConvergence
from .model_bank import ModelSet, _freeze, finite_real

NOISE_KINDS = ("gaussian", "uniform-bounded", "zero")
INPUT_KINDS = ("none", "sinusoid", "sequence")


@dataclass(frozen=True)
class NoiseSpec:
    """How one noise source is drawn: kind, amplitude, stream seed."""

    kind: str = "gaussian"
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidInput(f"unknown noise kind {self.kind!r}")
        if not finite_real(self.scale) or self.scale < 0:
            raise InvalidInput(f"noise scale must be a finite number >= 0, got {self.scale!r}")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise InvalidInput(f"noise seed must be an integer, got {self.seed!r}")

    def stream(self, length: int, width: int) -> np.ndarray:
        """Draw a (length, width) block from this source's own stream, row by row."""
        if self.kind == "zero" or self.scale == 0.0:
            return np.zeros((length, width))
        if self.kind == "gaussian":
            draws = rng.normals(self.seed, length * width)
        else:
            draws = 2.0 * rng.uniforms(self.seed, length * width) - 1.0
        draws *= self.scale
        return draws.reshape(length, width)


@dataclass(frozen=True, eq=False)
class InputSpec:
    """Known input: none, sin(rate * t), or an explicit sequence, kept as a
    read-only float64 copy of the caller's ``values``."""

    kind: str = "none"
    rate: float = 0.2
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in INPUT_KINDS:
            raise InvalidInput(f"unknown input kind {self.kind!r}")
        if self.kind == "sequence" and self.values is None:
            raise InvalidInput("sequence input needs values")
        if self.kind != "sequence" and self.values is not None:
            raise InvalidInput(f"input values need kind 'sequence', not {self.kind!r}")
        if not finite_real(self.rate):
            raise InvalidInput(f"input rate must be a finite number, got {self.rate!r}")
        if self.values is not None:
            values = _freeze(linalg.as_floats(self.values, None, "input values"))
            if not np.isfinite(values).all():
                raise InvalidInput("input values must be finite")
            object.__setattr__(self, "values", values)

    def build(self, horizon: int, p: int) -> np.ndarray:
        if self.kind == "none":
            return np.zeros((horizon, p))
        if p == 0:
            raise InvalidInput(f"{self.kind} input needs models.B; the bank has no input")
        if self.kind == "sinusoid":
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                wave = np.sin(self.rate * np.arange(horizon))
            if not np.isfinite(wave).all():
                raise InvalidInput(f"input sin(rate * t) is not finite at "
                                   f"t={int(np.isfinite(wave).argmin())}")
            return np.tile(wave[:, None], (1, p))
        vals = self.values
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (horizon, p):
            raise InvalidInput(
                f"input sequence has shape {vals.shape}, need ({horizon}, {p})")
        return vals.copy()


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Per-step record of one run; every array has ``horizon`` rows.

    ``x`` additionally carries the terminal state, so it has one extra row.
    ``yhat_models`` holds each model's own output prediction H_i xb_i,
    ``c`` the accumulated prediction costs, ``mu`` the Bayesian posterior,
    ``lam`` the minimax certificate weights, all as logged BEFORE absorbing
    that row's measurement.  A replay (:func:`run_estimators`) does not
    know the truth: ``true_model`` is None, and ``x`` and ``z`` are NaN,
    read-only views of one value that hold no memory of their own.
    """

    horizon: int
    true_model: Optional[int]
    u: np.ndarray             # (N, p)
    x: np.ndarray             # (N + 1, n)
    y: np.ndarray             # (N, m)
    z: np.ndarray             # (N, m)
    yhat_minimax: np.ndarray  # (N, m)
    yhat_bayes: np.ndarray    # (N, m)
    yhat_models: np.ndarray   # (N, K, m)
    c: np.ndarray             # (N, K)
    mu: np.ndarray            # (N, K)
    J_star: np.ndarray        # (N,)
    lam: np.ndarray           # (N, K)


def generate_truth(models: ModelSet, true_model: int, horizon: int,
                   process_noise: NoiseSpec, measurement_noise: NoiseSpec,
                   input_spec: InputSpec = InputSpec()):
    """Roll the true model forward from the bank's prior mean.  Returns (u, x, y, z).

    x has horizon + 1 rows (terminal state included), x_{t+1} = F x_t + w_t
    + B u_t; y_t = H x_t + v_t and z_t = H x_t for t < horizon; the
    estimators read y and u, and :func:`simulate` attaches the rest.  A
    non-integer (or bool) or out-of-range ``true_model`` or ``horizon``, or a
    state that is not finite (named by its first t), raises InvalidInput.
    """
    if not isinstance(true_model, numbers.Integral) or isinstance(true_model, bool):
        raise InvalidInput(f"true_model must be an integer, got {true_model!r}", "true_model")
    if not 0 <= true_model < models.K:
        raise InvalidInput(f"true_model {true_model} outside 0..{models.K - 1}", "true_model")
    if not isinstance(horizon, numbers.Integral) or isinstance(horizon, bool):
        raise InvalidInput(f"horizon must be an integer, got {horizon!r}", "horizon")
    if horizon < 1:
        raise InvalidInput("horizon must be at least 1", "horizon")
    F = models.F[true_model]
    H = models.H[true_model]

    u = input_spec.build(horizon, models.p)
    w = process_noise.stream(horizon, models.n)
    v = measurement_noise.stream(horizon, models.m)
    Bu = u @ models.B[true_model].T if models.p > 0 else repeat(None)

    x = np.empty((horizon + 1, models.n))
    x[0] = models.xhat0
    with np.errstate(over="ignore", invalid="ignore"):  # checked once below
        for x_t, x_next, w_t, Bu_t in zip(x, x[1:], w, Bu):
            F.dot(x_t, out=x_next)  # each state is written into its row
            x_next += w_t
            if Bu_t is not None:
                x_next += Bu_t
    if not np.isfinite(x).all():
        t = int((~np.isfinite(x).all(axis=1)).argmax())
        raise InvalidInput(f"state of true model {true_model} is not finite at t={t} "
                           f"(horizon {horizon})", "horizon")
    z = x[:-1] @ H.T
    return u, x, z + v, z


def run_estimators(models: ModelSet, y, u=None, stationary: bool = False,
                   run_minimax: bool = True, run_bayes: bool = True,
                   bayes_mode: str = "average") -> SimulationTrace:
    """Replay a measurement record through both estimators.

    ``y`` must be (N, m) and ``u`` (N, p), or None for no input; a 1-D
    record is taken as one column.  Other shapes, entries that are not
    numbers or not finite, and a ``bayes_mode`` not in BAYES_MODES raise
    :class:`InvalidInput` before any work.  Gamma-feasibility is checked for
    every model over the whole horizon (terminal covariance included) before
    any data is processed; an infeasible pair raises :class:`GammaInfeasible`
    immediately.  A solve that stops uncertified raises :class:`NoConvergence`
    naming its t and the first (model, t) whose offset -gamma^2 c_i
    overflowed, if any.  Skipped estimators leave NaN columns, as does the
    truth, which a replay does not read: :func:`simulate` attaches it.
    """
    y = linalg.as_floats(y, "y")
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[1] != models.m:
        raise InvalidInput(f"y has shape {y.shape}, expected (N, {models.m})", "y")
    N = y.shape[0]
    if u is None:
        u = np.zeros((N, models.p))
    else:
        u = linalg.as_floats(u, "u")
        if u.ndim == 1:
            u = u[:, None]
        if u.shape != (N, models.p):
            raise InvalidInput(f"u has shape {u.shape}, expected ({N}, {models.p})", "u")
    for name, record in (("y", y), ("u", u)):
        if not np.isfinite(record).all():
            t = int((~np.isfinite(record).all(axis=1)).argmax())
            raise InvalidInput(f"{name} is not finite at t={t}", name)
    if bayes_mode not in _bayes.BAYES_MODES:
        raise InvalidInput(f"bayes_mode {bayes_mode!r} not in {_bayes.BAYES_MODES}", "bayes_mode")

    if stationary:
        gains = riccati.stationary_gains(models)
    else:
        gains = riccati.run_recursion(models, N)
    gains.require_feasible()

    state = filter_bank.init(gains)
    posterior = _bayes.bayes_init(models)

    K, m = models.K, models.m
    tr_models = np.zeros((N, K, m))
    tr_c = np.zeros((N, K))
    tr_mu = np.full((N, K), np.nan)
    tr_mini = np.full((N, m), np.nan)
    tr_bayes = np.full((N, m), np.nan)
    tr_J = np.full(N, np.nan)
    tr_lam = np.full((N, K), np.nan)

    inputs = u if models.p > 0 else repeat(None, N)
    # bound at call time, so that a wrapper installed around a layer is what runs
    step, build_pieces, solve = filter_bank.step, minimax.build_pieces, minimax.solve
    bayes_step, bayes_estimate = _bayes.bayes_step, _bayes.bayes_estimate
    with np.errstate(over="ignore", invalid="ignore"):  # a piece that overflows fails its solve
        for t, (y_t, u_t) in enumerate(zip(y, inputs)):
            tr_c[t] = state.c
            tr_models[t] = state.yhat
            if run_minimax:
                try:
                    est = solve(build_pieces(state))
                except NoConvergence as exc:  # name the first offset that overflowed, if any
                    t0, i = np.nonzero(~np.isfinite(gains.gamma_sq * tr_c[:t + 1]))
                    where = f"model {i[0]}, t={t0[0]}: gamma^2 c overflows; " if i.size else ""
                    raise NoConvergence(f"{where}at t={t}: {exc}", last=exc.last) from None
                tr_mini[t] = est.yhat
                tr_J[t] = est.value
                tr_lam[t] = est.weights
            if run_bayes:
                tr_mu[t] = posterior
                tr_bayes[t] = bayes_estimate(posterior, state, mode=bayes_mode)
            state = step(state, y_t, u_t)
            if run_bayes:
                posterior = bayes_step(posterior, state)

    return SimulationTrace(
        horizon=N, true_model=None, u=u, y=y,
        x=np.broadcast_to(np.nan, (N + 1, models.n)), z=np.broadcast_to(np.nan, (N, m)),
        yhat_minimax=tr_mini, yhat_bayes=tr_bayes, yhat_models=tr_models,
        c=tr_c, mu=tr_mu, J_star=tr_J, lam=tr_lam)


def simulate(models: ModelSet, true_model: int, horizon: int,
             process_noise: NoiseSpec = NoiseSpec(),
             measurement_noise: NoiseSpec = NoiseSpec(seed=1),
             input_spec: InputSpec = InputSpec(),
             stationary: bool = False, bayes_mode: str = "average",
             run_minimax: bool = True, run_bayes: bool = True) -> SimulationTrace:
    """One run: :func:`generate_truth`'s record (y, u) replayed by :func:`run_estimators`
    with the same switches; the trace carries the truth (x, z, true_model)."""
    u, x, y, z = generate_truth(models, true_model, horizon, process_noise,
                                measurement_noise, input_spec)
    trace = run_estimators(models, y, u=u, stationary=stationary, run_minimax=run_minimax,
                           run_bayes=run_bayes, bayes_mode=bayes_mode)
    return replace(trace, true_model=true_model, x=x, z=z)
