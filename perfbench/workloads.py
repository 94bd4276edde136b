"""The four benchmark workloads: their inputs and one operation each.

Every workload runs closed loop, one operation at a time, in one process
(``cli_paper`` starts one child interpreter per operation).  An operation
returns the wall time of each of its units and one ``Output`` per estimator
run it made: the ``--full`` CSV text of a delivered trace, or the name of the
error.

Only ``paper_long`` takes its data from the workload seed ``s``: its
operations cycle over ``variants`` data sets, set ``v`` using noise streams
``2d`` and ``2d + 1`` with ``d = variants * s + v`` (the mapping
``mmxest.with_seed`` uses for sweeps).  The other workloads run fixed inputs,
for the reasons their docstrings give.  The reference input is seed 0,
variant 0.
"""
from __future__ import annotations

import dataclasses
import functools
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer

HERE = Path(__file__).resolve().parent
CONFIG = Path("src") / "mmxest" / "configs" / "example_paper.cfg"

# The random-bank recipe: default_rng(b) draws a K=8 bank, then a K=32 bank.
# Bank seed 0 holds the known K=32 solver stall at t=0; it is always in the set.
BANK_SEEDS = (0, 1)
BANK_SIZES = (8, 32)
BANK_DIMS = (4, 2)          # n, m
BANK_HORIZON = 200
PAPER_LONG_HORIZON = 1000
SWEEP_SEEDS = 64


@dataclass
class Output:
    label: str
    status: str                 # "ok" or the error's name
    csv: str | None = None


@dataclass
class OpResult:
    walls: list                 # seconds per unit (estimator run or process)
    outputs: list
    peak_bytes: int | None = None
    trace: dict | None = None

    @property
    def wall(self):
        return sum(self.walls)


@dataclass
class Context:
    """Where the benchmark runs: the checkout root and a temporary directory."""

    root: Path
    work: Path
    env: dict = field(default_factory=dict)

    def child(self, *args):
        """Run the interpreter with ``args`` in the checkout; wait for it."""
        return subprocess.run([sys.executable, *map(str, args)], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=170, check=False)


def random_bank_spec(mx, rng, K, n, m):
    """Random stable bank with gamma chosen comfortably feasible.

    Same draws, in the same order, as ``make_random_models`` in the tests,
    so bank seed b here is bank seed b there.
    """
    F = [0.9 * _random_contraction(rng, n) for _ in range(K)]
    H = [rng.normal(size=(m, n)) for _ in range(K)]
    Q, R, P0 = _random_spd(rng, n), _random_spd(rng, m), _random_spd(rng, n)
    spec = {"F": F, "H": H, "Q": Q, "R": R, "P0": P0, "gamma": 1.0,
            "xhat0": rng.normal(size=n)}
    models = mx.validate(spec)
    seq = mx.run_recursion(models, 60)
    lam = 0.0
    for i in range(K):
        for t in range(61):
            P = seq.cov(t, i)
            lam = max(lam, float(np.linalg.eigvalsh(H[i] @ P @ H[i].T)[-1]))
    spec["gamma"] = float(np.sqrt(2.0 * lam))
    return spec


def _random_contraction(rng, n):
    A = rng.normal(size=(n, n))
    return A / max(1.0, float(np.max(np.abs(np.linalg.eigvals(A)))))


def _random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def bank_specs(mx):
    specs = []
    for b in BANK_SEEDS:
        rng = np.random.default_rng(b)
        for K in BANK_SIZES:
            specs.append((f"bank{b}-K{K}", random_bank_spec(mx, rng, K, *BANK_DIMS)))
    return specs


class InProcess:
    """A workload whose operation runs inside the benchmark's interpreter.

    ``units`` splits an operation into its estimator runs, each a callable
    returning ``[(label, trace or error name), ...]``.
    """

    variants = 1
    runs_per_op = 1
    cli_writes = 0

    def __init__(self, ctx: Context):
        import mmxest
        import mmxest.cli  # noqa: F401  (rendering and the CLI workloads)
        self.mx = mmxest
        self.ctx = ctx

    def run(self, seed, variant, mode="plain", between=None) -> OpResult:
        """One operation on input (seed, variant).

        ``mode`` is plain, peak (tracemalloc around the operation) or trace
        (spans around each layer).  ``between`` is called between the
        operation's units, outside their timing.
        """
        tracer = Tracer() if mode == "trace" else None
        if tracer is not None:
            tracer.install()
        gc.collect()  # every operation starts from the same collector state
        if mode == "peak":
            tracemalloc.start()
        walls, results = [], []
        try:
            for j, unit in enumerate(self.units(seed, variant)):
                if j and between is not None:
                    between()
                t0 = perf_counter()
                results += unit()
                walls.append(perf_counter() - t0)
        finally:
            peak = None
            if mode == "peak":
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            if tracer is not None:
                tracer.uninstall()
        outputs = [Output(label, res) if isinstance(res, str)
                   else Output(label, "ok", self.to_csv(res)) for label, res in results]
        return OpResult(walls, outputs, peak, tracer.summary() if tracer else None)

    def to_csv(self, result) -> str:
        """The bytes ``mmxest run --full`` writes for this trace."""
        return "\n".join(self.mx.cli.trace_lines(result, full=True)) + "\n"

    def estimate(self, models, true_model, horizon, data, input_spec=None):
        """``simulate``: generate_truth, then run_estimators."""
        kwargs = {} if input_spec is None else {"input_spec": input_spec}
        try:
            return self.mx.simulate(models, true_model, horizon, data[0], data[1], **kwargs)
        except self.mx.EstimationError as exc:
            return type(exc).__name__


class PaperLong(InProcess):
    """Paper bank (K=2, n=3, m=1), N=1000, time-varying gains, seeded data."""

    name = "paper_long"
    variants = 4

    def __init__(self, ctx):
        super().__init__(ctx)
        self.cfg = self.mx.load_config(str(ctx.root / CONFIG))

    def units(self, seed, variant):
        cfg = self.cfg
        d = self.variants * seed + variant
        noise = (dataclasses.replace(cfg.process_noise, seed=2 * d),
                 dataclasses.replace(cfg.measurement_noise, seed=2 * d + 1))
        return [lambda: [(f"data{d}", self.estimate(cfg.models, cfg.true_model,
                                                    PAPER_LONG_HORIZON, noise,
                                                    input_spec=cfg.input_spec))]]


class RandomBanks(InProcess):
    """Random banks K=8 and K=32 (n=4, m=2, N=200) on fixed data.

    The inputs do not depend on the workload seed.  Which banks stall, and
    when, depends on the data, and each stall moves the pass time and the
    delivered steps by several percent; with seeded data the spread between
    runs was wider than any bound allowed.  The fixed data (the reference
    input) keeps the known bank-0 K=32 stall at t=0 in every pass.
    """

    name = "random_banks"
    runs_per_op = len(BANK_SEEDS) * len(BANK_SIZES)

    def __init__(self, ctx):
        super().__init__(ctx)
        self.banks = [(label, self.mx.validate(spec)) for label, spec in bank_specs(self.mx)]
        self.noise = (self.mx.NoiseSpec(seed=0), self.mx.NoiseSpec(seed=1))

    def units(self, seed, variant):
        return [functools.partial(self._bank, label, models) for label, models in self.banks]

    def _bank(self, label, models):
        return [(label, self.estimate(models, 0, BANK_HORIZON, self.noise))]


class SeedSweep(InProcess):
    """``mmxest run --seeds 0..63 --stationary --full`` in-process, fixed seeds.

    The seed range does not follow the workload seed: a few seeds need
    hundreds of solver iterations, so the sweep time depended on the range by
    more than any bound allowed.
    """

    name = "seed_sweep"
    runs_per_op = SWEEP_SEEDS
    cli_writes = SWEEP_SEEDS

    def units(self, seed, variant):
        return [self._sweep]

    def _sweep(self):
        out = self.ctx.work / "sweep"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        code = self.mx.cli.main(["run", "--config", str(self.ctx.root / CONFIG),
                                 "--seeds", f"0..{SWEEP_SEEDS - 1}", "--stationary",
                                 "--full", "--out", str(out / "trace.csv")])
        paths = [(f"seed{s}", out / f"trace_seed{s}.csv") for s in range(SWEEP_SEEDS)]
        return [(label, path if code == 0 and path.exists() else f"exit {code}")
                for label, path in paths]

    def to_csv(self, path) -> str:
        return path.read_text(encoding="utf-8")


class CliPaper:
    """Cold ``mmxest run --full`` on the bundled paper config, one process each."""

    name = "cli_paper"
    variants = 1
    runs_per_op = 1
    cli_writes = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def run(self, seed, variant, mode="plain", between=None) -> OpResult:
        out = self.ctx.work / "cli.csv"
        if out.exists():
            out.unlink()
        argv = ["run", "--config", str(CONFIG), "--full", "--out", str(out)]
        if mode == "plain":
            # what the ``mmxest`` console script runs
            cmd = ["-c", "import sys; from mmxest.cli import main; sys.exit(main())"]
        else:
            cmd = [HERE / "child.py", "cli", mode, self.ctx.work / "child.json"]
        t0 = perf_counter()
        proc = self.ctx.child(*cmd, *argv)
        wall = perf_counter() - t0
        peak = trace = None
        if mode != "plain" and proc.returncode == 0:
            info = json.loads((self.ctx.work / "child.json").read_text())
            peak, trace = info.get("peak_bytes"), info.get("trace")
        if proc.returncode == 0 and out.exists():
            outputs = [Output("paper", "ok", out.read_text(encoding="utf-8"))]
        else:
            outputs = [Output("paper", f"exit {proc.returncode}")]
        return OpResult([wall], outputs, peak, trace)


WORKLOADS = {w.name: w for w in (CliPaper, PaperLong, RandomBanks, SeedSweep)}


def setup_calls(mx, root: Path, specs):
    """Set-up work: validate the bank specs, or load the paper config if None."""
    if specs is not None:
        for _, spec in specs:
            mx.validate(spec)
    else:
        mx.load_config(str(root / CONFIG))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env
