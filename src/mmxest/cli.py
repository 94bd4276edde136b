"""Command line front end: run experiments, solve AREs, check feasibility.

Subcommands: ``run`` simulates a configured experiment, one
:func:`mmxest.simulator.simulate` call per run (per seed with ``--seeds``),
and writes each trace as semicolon-separated CSV; ``riccati`` reports each
model's stationary solution; ``check`` verifies gamma-feasibility over the
whole horizon.

Exit codes (:data:`EXIT_CODES`): 0 success; 2 invalid input, a bad config
value, option or output path (:class:`InvalidInput`, the message names the
field); 3 gamma-infeasibility (:class:`GammaInfeasible`, the message reports
lambda_max(H P H^T) and gamma^2); 1 numerical failure, any other library
error (:class:`NoConvergence`, :class:`FactorizationFailure`).  A failure
writes exactly one ``error: ...`` line to standard error; a run that
completes with a cost that is not finite writes one ``warning: ...`` line.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import riccati as _riccati
from . import simulator as _simulator
from .config import ExperimentConfig, load_config, with_seed
from .exceptions import (
    EstimationError,
    FactorizationFailure,
    GammaInfeasible,
    InvalidInput,
    NoConvergence,
)

EXIT_OK = 0
# (exit code, message prefix) per error class; an error takes the entry of
# the nearest class in its MRO, so EstimationError covers any other one.
EXIT_CODES = {
    InvalidInput: (2, ""),
    GammaInfeasible: (3, "gamma-infeasible: "),
    NoConvergence: (1, "no convergence: "),
    FactorizationFailure: (1, "factorization failure: "),
    EstimationError: (1, ""),
}


def _fmt(x) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def _columns(base: str, width: int) -> list:
    if width == 1:
        return [base]
    return [f"{base}{j}" for j in range(width)]


def trace_lines(trace, full: bool = False) -> list:
    """Render a trace as CSV lines (header first, no line terminators).

    The columns are stacked into one table first; ``tolist`` hands back
    Python floats, whose ``repr`` is :func:`_fmt`'s text.
    """
    m = trace.z.shape[1]
    K = trace.c.shape[1]
    header = (["t"] + _columns("z", m) + _columns("zh_mini", m)
              + _columns("zh_ba", m))
    blocks = [trace.z, trace.yhat_minimax, trace.yhat_bayes]
    if full:
        header += ["Jstar"]
        header += [f"c{i}" for i in range(K)]
        header += [f"mu{i}" for i in range(K)]
        header += [f"lam{i}" for i in range(K)]
        blocks += [trace.J_star[:, None], trace.c, trace.mu, trace.lam]
    table = np.hstack(blocks, dtype=float).tolist()
    return [";".join(header)] + [f"{t};" + ";".join(map(repr, row))
                                 for t, row in enumerate(table)]


def write_trace(trace, path, full: bool = False) -> None:
    text = "\n".join(trace_lines(trace, full=full)) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"field output: cannot write: {exc}", "output") from None


def _seed_path(path: str, seed: int) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_seed{seed}{ext}"


def _parse_seed_range(text: str) -> range:
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError:
        raise InvalidInput(f"field --seeds: {text!r} is not of the form a..b", "--seeds") from None
    if hi < lo:
        raise InvalidInput(f"field --seeds: empty range {text!r}", "--seeds")
    return range(lo, hi + 1)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.stationary:
        updates["stationary"] = True
    if args.out is not None:
        updates["output"] = args.out
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _warn_if_cost_overflowed(trace, where: str) -> None:
    """One ``warning:`` line naming the first (model, t) whose cost is not finite; a run
    without the minimax solve does not fail on it, so the costs are checked after the run."""
    finite = np.isfinite(trace.c)
    if not finite.all():
        t, i = np.argwhere(~finite)[0]
        print(f"warning: {where}model {i}: accumulated cost is not finite from t={t}",
              file=sys.stderr)


def cmd_run(args) -> int:
    """Run the config, or each ``--seeds`` copy into its own file: one
    :func:`mmxest.simulator.simulate` call, its trace, any overflow warning."""
    cfg = _apply_overrides(load_config(args.config), args)
    runs = [(cfg, cfg.output, "")]
    if args.seeds is not None:
        seeds = _parse_seed_range(args.seeds)
        if cfg.output is None:
            raise InvalidInput("field output: required with --seeds (one file per seed)", "output")
        runs = ((with_seed(cfg, s), _seed_path(cfg.output, s), f"seed {s}: ") for s in seeds)
    for run, path, where in runs:
        trace = _simulator.simulate(
            run.models, run.true_model, run.horizon, run.process_noise, run.measurement_noise,
            run.input_spec, run.stationary, run.bayes_mode, run.run_minimax, run.run_bayes)
        write_trace(trace, path, full=args.full)
        _warn_if_cost_overflowed(trace, where)
    return EXIT_OK


def cmd_riccati(args) -> int:
    cfg = load_config(args.config)
    models = cfg.models
    gains = _riccati.stationary_gains(models)
    out = []
    for i in range(models.K):
        sol = _riccati.solve_are(models.F[i], models.H[i], models.Q, models.R, models.P0)
        out.append(f"model {i}:")
        out.append("  P = " + np.array2string(gains.cov(0, i), prefix="  P = "))
        out.append("  K = " + np.array2string(gains.gain(0, i), prefix="  K = "))
        out.append(f"  lambda_max(H P H^T) = {_fmt(gains.lambda_max(0)[i])}")
        out.append(f"  gamma^2 = {_fmt(gains.gamma_sq)}")
        out.append(f"  feasible: {'yes' if gains.feasible[0, i] else 'no'}")
        out.append(f"  residual = {_fmt(sol.residual)}")
        out.append(f"  iterations = {sol.iterations}")
    print("\n".join(out))
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    gains = _riccati.run_recursion(cfg.models, cfg.horizon)
    gains.require_feasible()
    print(f"all (t, i) gamma-feasible for t = 0..{cfg.horizon}, "
          f"{cfg.models.K} models, gamma^2 = {_fmt(gains.gamma_sq)}")
    return EXIT_OK


# one parser per process: a discarded parser is a reference cycle of about 28 KB
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmxest",
        description="Minimax and Bayesian multiple-model output prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate an experiment and write a CSV trace")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", default=None, help="output CSV path (default: config's, else stdout)")
    run.add_argument("--full", action="store_true",
                     help="add per-model cost, posterior, game value, and weight columns")
    run.add_argument("--seeds", default=None, metavar="A..B",
                     help="run once per seed in the inclusive range, one file per seed")
    run.add_argument("--stationary", action="store_true",
                     help="use stationary (ARE) gains instead of the time-varying recursion")
    run.set_defaults(func=cmd_run)

    ric = sub.add_parser("riccati", help="solve each model's ARE and report feasibility")
    ric.add_argument("--config", required=True, help="experiment config file")
    ric.set_defaults(func=cmd_riccati)

    chk = sub.add_parser("check", help="verify gamma-feasibility over the horizon")
    chk.add_argument("--config", required=True, help="experiment config file")
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EstimationError as exc:
        code, prefix = next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
