"""Spans around the public functions of each mmxest layer, recorded from outside.

``Tracer.install`` replaces every binding of a target function inside the
loaded ``mmxest`` modules (module globals, names imported with ``from``, and
the package namespace) by a wrapper that times the call.  Child time is
charged to the enclosing span, so a layer's self time is its span minus the
spans it caused.  Spans stay in memory as per-layer sums; ``summary`` returns
them with the work counts observed at the same boundaries.

Layer names follow the modules.  A refactor that stops calling a wrapped
function makes its count read zero; ``expected_call_problems`` turns that into
an error instead of a silent zero.
"""
from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer -> (module, attribute); "Class.method" patches the class attribute.
TARGETS = {
    "rng.stream": ("mmxest.simulator", "NoiseSpec.stream"),
    "simulator.generate_truth": ("mmxest.simulator", "generate_truth"),
    "simulator.run_estimators": ("mmxest.simulator", "run_estimators"),
    "riccati.run_recursion": ("mmxest.riccati", "run_recursion"),
    "riccati.stationary_gains": ("mmxest.riccati", "stationary_gains"),
    "riccati.solve_are": ("mmxest.riccati", "solve_are"),
    "filter_bank.step": ("mmxest.filter_bank", "step"),
    "bayes.step": ("mmxest.bayes", "bayes_step"),
    "bayes.estimate": ("mmxest.bayes", "bayes_estimate"),
    "minimax.build_pieces": ("mmxest.minimax", "build_pieces"),
    "minimax.solve": ("mmxest.minimax", "solve"),
    "cli.trace_lines": ("mmxest.cli", "trace_lines"),
    "cli.write_trace": ("mmxest.cli", "write_trace"),
    "config.load_config": ("mmxest.config", "load_config"),
    "model_bank.validate": ("mmxest.model_bank", "validate"),
}
RUN = "simulator.run_estimators"

# Work counts that must repeat exactly between two runs of one input.
REPEATING_COUNTS = ("riccati.recursion_steps", "riccati.are_iters",
                    "minimax.iters_total", "minimax.fails", "rng.draws",
                    "cli.bytes")


class Tracer:
    """Per-layer call counts, total and self times, and work counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.solve_iters = []
        self.runs = []          # one record per run_estimators call
        self._stack = []        # child time accumulated by each open span
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, (modname, attr) in TARGETS.items():
            module = importlib.import_module(modname)
            owner = module
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                raise LookupError(f"trace target {modname}.{attr} not found")
            wrapper = self._wrap(layer, original)
            holders = [owner] if isinstance(owner, type) else [
                mod for name, mod in list(sys.modules.items())
                if (name == "mmxest" or name.startswith("mmxest.")) and mod is not None]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    def _wrap(self, layer, fn):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        observe = _OBSERVERS.get(layer)
        tracer = self

        def wrapper(*args, **kwargs):
            before = dict(calls) if layer == RUN else None
            stack.append(0.0)
            failure = None
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                failure = exc
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[layer] += 1
                total[layer] += dt
                self_time[layer] += dt - child
                if stack:
                    stack[-1] += dt
                if observe is not None:
                    observe(tracer, args, kwargs, result, failure)
                if before is not None:
                    tracer._record_run(args, kwargs, before, failure)

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_run(self, args, kwargs, before, failure) -> None:
        y = np.asarray(kwargs.get("y", args[1] if len(args) > 1 else None))
        delta = {k: v - before.get(k, 0) for k, v in self.calls.items()
                 if v != before.get(k, 0) and k != RUN}
        models = kwargs.get("models", args[0] if args else None)
        self.runs.append({
            "N": int(y.shape[0]),
            "K": int(models.K),
            "stationary": bool(kwargs.get("stationary", False)),
            "ok": failure is None,
            "error": None if failure is None else type(failure).__name__,
            "calls": delta,
        })

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data view of everything recorded (JSON-serialisable)."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "solve_iters": list(self.solve_iters),
            "runs": list(self.runs),
        }


def _observe_stream(tracer, args, kwargs, result, failure):
    spec = args[0]
    if result is not None and spec.kind != "zero" and spec.scale != 0.0:
        tracer.counts["rng.draws"] += int(result.size)


def _observe_recursion(tracer, args, kwargs, result, failure):
    models = kwargs.get("models", args[0])
    N = kwargs.get("N", args[1] if len(args) > 1 else None)
    tracer.counts["riccati.recursion_steps"] += int(models.K) * int(N)


def _observe_are(tracer, args, kwargs, result, failure):
    if result is not None:
        tracer.counts["riccati.are_iters"] += int(result.iterations)


def _observe_solve(tracer, args, kwargs, result, failure):
    if result is not None:
        tracer.solve_iters.append(int(result.iterations))
        tracer.counts["minimax.certified"] += 1
    else:
        last = getattr(failure, "last", None)
        tracer.solve_iters.append(int(getattr(last, "iterations", 0)))
        tracer.counts["minimax.fails"] += 1


def _observe_write(tracer, args, kwargs, result, failure):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if failure is None and path is not None:
        tracer.counts["cli.bytes"] += os.path.getsize(path)


_OBSERVERS = {
    "rng.stream": _observe_stream,
    "riccati.run_recursion": _observe_recursion,
    "riccati.solve_are": _observe_are,
    "minimax.solve": _observe_solve,
    "cli.write_trace": _observe_write,
}


def expected_call_problems(summary: dict, expected_runs: int, cli_writes: int) -> list:
    """Check each layer's call count against what the runs delivered.

    ``expected_runs`` is the number of run_estimators calls one operation
    makes; ``cli_writes`` the number of trace files it writes through the CLI.
    Returns a list of problems; empty means every span was crossed as often
    as the work requires.
    """
    problems = []
    calls = defaultdict(int, summary["calls"])
    runs = summary["runs"]
    if len(runs) != expected_runs:
        problems.append(f"run_estimators called {len(runs)} times, expected {expected_runs}")
    for j, run in enumerate(runs):
        c = defaultdict(int, run["calls"])
        N, K = run["N"], run["K"]
        if run["stationary"]:
            want = {"riccati.stationary_gains": 1, "riccati.solve_are": K, "riccati.run_recursion": 0}
        else:
            want = {"riccati.stationary_gains": 0, "riccati.solve_are": 0, "riccati.run_recursion": 1}
        solves, steps = c["minimax.solve"], c["filter_bank.step"]
        if run["ok"]:
            want.update(dict.fromkeys(("minimax.solve", "minimax.build_pieces", "bayes.estimate",
                                       "bayes.step", "filter_bank.step"), N))
        else:
            want.update({"minimax.build_pieces": solves, "bayes.step": steps})
            # the failing step may or may not have reached the Bayes estimate
            if c["bayes.estimate"] in (steps, steps + 1):
                want["bayes.estimate"] = c["bayes.estimate"]
            if run["error"] == "NoConvergence" and solves != steps + 1:
                problems.append(f"run {j}: solve failed at step {steps} after {solves} solves")
        for layer, n in want.items():
            if c[layer] != n:
                problems.append(f"run {j}: {layer} called {c[layer]} times, expected {n}")
    if calls["rng.stream"] != 2 * calls["simulator.generate_truth"]:
        problems.append(f"rng.stream called {calls['rng.stream']} times for "
                        f"{calls['simulator.generate_truth']} generate_truth calls")
    if calls["simulator.generate_truth"] != expected_runs:
        problems.append(f"generate_truth called {calls['simulator.generate_truth']} times, "
                        f"expected {expected_runs}")
    if calls["cli.write_trace"] != cli_writes or calls["cli.trace_lines"] != cli_writes:
        problems.append(f"write_trace/trace_lines called {calls['cli.write_trace']}/"
                        f"{calls['cli.trace_lines']} times, expected {cli_writes}")
    return problems
