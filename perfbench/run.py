"""Benchmark for mmxest: end-to-end metrics per workload, or a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_long --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --out results.json

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs it again with spans around each layer and prints
the per-layer metrics.  Either way every output is checked, a table goes to
standard output, and the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload both ways in child processes and writes what they
printed, with a machine note, to ``--out``.

The program under test is imported from ``src/`` of the checkout.  A program
failure (no convergence, gamma-infeasible, nonzero exit, an output that fails
its check) is counted in ``failed`` and does not stop the run.  A benchmark
error (a span crossed the wrong number of times, a work count that does not
repeat, a missing reference) exits nonzero without a result.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# A run whose median probe is further than this from probe.REF_S is flagged:
# its scaled times are corrected only in part (see README.md).
PROBE_WARN = 0.10

# Pinned before numpy loads, for this process and every child it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from checks import compare, group, parse_csv, simplex_problems  # noqa: E402
from checks import load_reference as load_reference_file  # noqa: E402
from probe import REF_S as PROBE_REF_S, probe  # noqa: E402
from tracer import REPEATING_COUNTS, RUN, Tracer, expected_call_problems  # noqa: E402
from workloads import (WORKLOADS, Context, RandomBanks, bank_specs,  # noqa: E402
                       child_env, setup_calls)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_DIR = HERE / "ref"
SETUP_REPEATS = 11
PEAK_REPEATS = 3
IMPORT_REPEATS = 3
MIN_OPS = 3
IMPORT_PACKAGES = ("mmxest", "scipy", "numpy", "yaml")


class BenchmarkError(Exception):
    """The benchmark itself went wrong; no result is printed."""


# ---------------------------------------------------------------- accounting

class Book:
    """Counts runs and failures, checks every output, gathers accuracy sums."""

    def __init__(self, reference):
        self.reference = {o["label"]: o for o in reference["outputs"]}
        self.attempted = 0
        self.failed = 0
        self.failures = defaultdict(int)
        self.mismatches = []
        self.first_bytes = {}
        self.sq = defaultdict(float)
        self.n_values = 0

    def add(self, res, timed, against_reference=False):
        """Account for one operation's outputs; returns the steps delivered.

        Labels name the input, so outputs with one label must be identical.
        A run that the reference records as delivered and that now fails is
        a mismatch, not only a failure.
        """
        delivered = 0
        for out in res.outputs:
            self.attempted += 1
            ref = self.reference.get(out.label)
            if against_reference and ref is None:
                raise BenchmarkError(f"no reference output {out.label}")
            if out.status != "ok":
                self.failed += 1
                self.failures[out.status] += 1
                if ref is not None and ref["status"] == "ok":
                    self.mismatches.append(f"{out.label}: {out.status}, reference delivered")
                continue
            cols = parse_csv(out.csv)
            problems = simplex_problems(cols)
            if self.first_bytes.setdefault(out.label, out.csv) != out.csv:
                problems.append("CSV bytes differ from an earlier run of the same input")
            if against_reference and ref["status"] == "ok":
                problems += compare(cols, parse_csv(ref["csv"]))
            if problems:
                self.failed += 1
                self.mismatches.append(f"{out.label}: {problems[0]}")
                continue
            rows = len(cols["t"])
            delivered += rows
            if timed:
                z = group(cols, "z")
                for est in ("zh_mini", "zh_ba"):
                    self.sq[est] += float(np.sum((group(cols, est) - z) ** 2))
                self.n_values += z.size
        return delivered

    @property
    def correct(self):
        return not self.mismatches

    def rms(self, est):
        return (self.sq[est] / self.n_values) ** 0.5 if self.n_values else float("nan")


# ------------------------------------------------------------------ helpers

def tail(samples):
    """Highest percentile with at least ten samples beyond it, and its rank.

    None when fewer than 21 samples: no such percentile lies above the median.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return None
    return xs[n - 11], 100.0 * (n - 10) / n


def at_reference_speed(times, probes):
    """Scale times[j] by REF_S over the mean of probes[j] and probes[j + 1]."""
    return [t * 2.0 * PROBE_REF_S / (a + b) for t, a, b in zip(times, probes, probes[1:])]


def source_digest():
    """Hash of the program's sources and the benchmark's code."""
    h = hashlib.sha256()
    paths = [p for p in (ROOT / "src").rglob("*") if "__pycache__" not in p.parts]
    for path in sorted(paths + list(HERE.glob("*.py"))):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def peak_bytes(wl):
    """Peak allocation of one operation on the reference input (median of 3).

    Under tracemalloc an operation runs about five times slower, and the
    peak depends only on the code, so it is measured once per source tree
    and kept in .bench_build.
    """
    cache = ROOT / ".bench_build" / "perfbench-peak.json"
    data = json.loads(cache.read_text()) if cache.exists() else {}
    key = f"{wl.name}:{source_digest()}"
    if key not in data:
        data[key] = statistics.median(wl.run(0, 0, "peak").peak_bytes
                                      for _ in range(PEAK_REPEATS))
        tmp = cache.with_suffix(".tmp")
        tmp.write_text(json.dumps(data, indent=1))
        os.replace(tmp, cache)
    return data[key]


def setup_times(ctx, workload, probes):
    """Set-up seconds from fresh interpreters, each preceded by a probe."""
    out = []
    for _ in range(SETUP_REPEATS):
        probes.append(probe())
        proc = ctx.child(HERE / "child.py", "setup", workload)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    probes.append(probe())
    return out


def import_times(ctx):
    """Cumulative import seconds per package, from ``python -X importtime``."""
    runs = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = ctx.child("-X", "importtime", "-c", "import mmxest")
        if proc.returncode != 0:
            raise BenchmarkError(f"import failed: {proc.stderr.strip()[-400:]}")
        entries = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:") or "cumulative" in line:
                continue
            name_field = parts[2].rstrip()
            level = len(name_field) - len(name_field.lstrip())
            entries.append((level, name_field.strip(), int(parts[1])))
        totals = dict.fromkeys(IMPORT_PACKAGES, 0)
        # Lines come children first, so walking backwards meets every
        # ancestor before its descendants.
        stack = []
        for level, name, cum in reversed(entries):
            while stack and stack[-1][0] >= level:
                stack.pop()
            for pkg in IMPORT_PACKAGES:
                if _in_package(name, pkg) and not any(_in_package(a, pkg) for _, a in stack):
                    totals[pkg] += cum
            stack.append((level, name))
        for pkg, us in totals.items():
            runs[pkg].append(us * 1e-6)
    return {f"import.{pkg}_s": statistics.median(v) for pkg, v in runs.items()}


def _in_package(module, package):
    return module == package or module.startswith(package + ".")


def load_reference(workload):
    path = REF_DIR / f"{workload}.json.gz"
    if not path.exists():
        raise BenchmarkError(f"missing reference {path.relative_to(ROOT)}")
    return load_reference_file(path)


# ------------------------------------------------------------------ metrics

def measure(wl, ctx, seed, seconds):
    """Untraced run: set-up, one checked reference operation, timed operations."""
    book = Book(load_reference(wl.name))
    setup_probes = []
    setup = setup_times(ctx, wl.name, setup_probes)
    # Untimed: warms caches and is checked against the reference.
    book.add(wl.run(0, 0), timed=False, against_reference=True)
    peak = peak_bytes(wl)
    # A probe runs before every unit of work and after the last one; each
    # unit's time is converted to the probe's reference speed with the probes
    # on either side of it (see probe.py).
    probes, walls, walls_ref, per_step, per_step_ref = [probe()], [], [], [], []
    end = perf_counter() + seconds
    while len(walls) < MIN_OPS or perf_counter() < end:
        res = wl.run(seed, len(walls) % wl.variants, between=lambda: probes.append(probe()))
        probes.append(probe())
        steps = book.add(res, timed=True)
        scaled = at_reference_speed(res.walls, probes[-len(res.walls) - 1:])
        walls.append(res.wall)
        walls_ref.append(sum(scaled))
        per_step.append(1e6 * res.wall / steps if steps else float("inf"))
        per_step_ref.append(1e6 * sum(scaled) / steps if steps else float("inf"))
    setup_ref = at_reference_speed(setup, setup_probes)
    n = len(walls)
    t, t_ref = tail(walls), tail(walls_ref)
    wall = statistics.median(walls)
    rows = [
        ("setup_s", statistics.median(setup_ref), "s", SETUP_REPEATS,
         f"median of fresh interpreters; raw {statistics.median(setup):.4g}"),
        ("wall_s", statistics.median(walls_ref), "s", n, f"median per operation; raw {wall:.4g}"),
        ("wall_s_tail", None if t is None else t_ref[0], "s", n,
         "fewer than 21 samples" if t is None else f"p{t[1]:.0f}; raw {t[0]:.4g}"),
        ("step_us", statistics.median(per_step_ref), "us", n,
         f"median of operation wall over steps it delivered; raw {statistics.median(per_step):.4g}"),
        ("fail_ratio", book.failed / book.attempted, "ratio", book.attempted,
         f"{book.failed} of {book.attempted} runs"),
        ("ok_ratio", 1.0 - book.failed / book.attempted, "ratio", book.attempted,
         "delivered and checked runs over attempted runs"),
        ("peak_mib", peak / 2**20, "MiB", PEAK_REPEATS, "tracemalloc, reference input"),
        ("rms_minimax", book.rms("zh_mini"), "1", book.n_values, "zh_mini - z"),
        ("rms_bayes", book.rms("zh_ba"), "1", book.n_values, "zh_ba - z"),
        ("probe_s", statistics.median(probes), "s", len(probes),
         f"machine-speed probe; reference {PROBE_REF_S}"),
    ]
    return book, rows


def _layer(summary):
    """Per-layer numbers of one traced operation."""
    own = defaultdict(float, summary["self"])
    total = defaultdict(float, summary["total"])
    calls = defaultdict(int, summary["calls"])
    counts = defaultdict(int, summary["counts"])
    iters = summary["solve_iters"] or [0]
    solves = len(summary["solve_iters"])
    return {
        "rng.busy_s": own["rng.stream"],
        "rng.draws": counts["rng.draws"],
        "simulator.truth_self_s": own["simulator.generate_truth"],
        "riccati.recursion_s": own["riccati.run_recursion"],
        "riccati.recursion_steps": counts["riccati.recursion_steps"],
        "riccati.are_s": total["riccati.stationary_gains"],
        "riccati.are_iters": counts["riccati.are_iters"],
        "riccati.gains_s": own["riccati.run_recursion"] + total["riccati.stationary_gains"],
        "filter_bank.step_s": own["filter_bank.step"],
        "filter_bank.calls": calls["filter_bank.step"],
        "bayes.step_s": own["bayes.step"],
        "bayes.estimate_s": own["bayes.estimate"],
        "bayes.calls": calls["bayes.step"],
        "minimax.build_pieces_s": own["minimax.build_pieces"],
        "minimax.solve_s": own["minimax.solve"],
        "minimax.solves": solves,
        "minimax.iters_total": sum(iters),
        "minimax.iters_p50": statistics.median(iters),
        "minimax.iters_max": max(iters),
        "minimax.fails": counts["minimax.fails"],
        "minimax.certified_ratio": counts["minimax.certified"] / solves if solves else 1.0,
        "simulator.loop_self_s": own[RUN],
        "cli.render_s": own["cli.trace_lines"],
        "cli.write_s": own["cli.write_trace"],
        "cli.bytes": counts["cli.bytes"],
        "trace.coverage": 1.0 - own[RUN] / total[RUN] if total[RUN] else 0.0,
    }


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name in ("minimax.certified_ratio", "trace.coverage", "trace.overhead"):
        return "ratio"
    return "count"


def traced(wl, ctx, seed, seconds):
    """Traced run: per-layer self times and counts, checked against the work."""
    import mmxest

    book = Book(load_reference(wl.name))
    layers = import_times(ctx)

    specs = bank_specs(mmxest) if wl.name == RandomBanks.name else None
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            setup_calls(mmxest, ROOT, specs)
    finally:
        tracer.uninstall()
    layers["config.load_s"] = tracer.self_time["config.load_config"] / SETUP_REPEATS
    layers["model_bank.validate_s"] = tracer.self_time["model_bank.validate"] / SETUP_REPEATS

    book.add(wl.run(0, 0), timed=False, against_reference=True)
    plain, walls, per_op = [], [], []
    end = perf_counter() + seconds
    while len(walls) < 2 or perf_counter() < end:
        res = wl.run(seed, 0)
        book.add(res, timed=False)
        plain.append(res.wall)
        res = wl.run(seed, 0, "trace")
        if res.trace is None:
            raise BenchmarkError("traced operation returned no spans")
        delivered = book.add(res, timed=False)
        problems = expected_call_problems(res.trace, wl.runs_per_op, wl.cli_writes)
        ok_steps = sum(r["calls"].get("filter_bank.step", 0) for r in res.trace["runs"] if r["ok"])
        if ok_steps != delivered:
            problems.append(f"filter_bank.step called {ok_steps} times in delivered runs, "
                            f"{delivered} steps delivered")
        if problems:
            raise BenchmarkError("span check: " + "; ".join(problems[:5]))
        walls.append(res.wall)
        per_op.append(_layer(res.trace))
    for name in REPEATING_COUNTS:
        values = {m[name] for m in per_op}
        if len(values) != 1:
            raise BenchmarkError(f"count {name} drifted between runs of one input: {sorted(values)}")
    n = {name: IMPORT_REPEATS for name in layers if name.startswith("import.")}
    n.update({"config.load_s": SETUP_REPEATS, "model_bank.validate_s": SETUP_REPEATS,
              "trace.overhead": len(walls)})
    for name in per_op[0]:
        median = statistics.median_low if _unit(name) == "count" else statistics.median
        layers[name] = median(m[name] for m in per_op)
        n[name] = len(per_op)
    layers["trace.overhead"] = statistics.median(walls) / statistics.median(plain)
    rows = [(name, layers[name], _unit(name), n[name], "") for name in sorted(layers)]
    return book, rows


# ------------------------------------------------------------ command line

def run_one(args):
    if not (ROOT / "src" / "mmxest" / "__init__.py").is_file():
        print(f"error: no mmxest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mmxest
    if Path(mmxest.__file__).resolve().parent != (ROOT / "src" / "mmxest").resolve():
        print(f"error: imported mmxest from {mmxest.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        ctx = Context(root=ROOT, work=work, env=child_env(ROOT))
        wl = WORKLOADS[args.workload](ctx)
        fn = traced if args.trace else measure
        book, rows = fn(wl, ctx, args.seed, args.seconds)
        # The JSON line carries the metrics BENCHMARK.json lists; the table
        # also shows those that can be zero or missing on some workload.
        found = {name: (value, unit) for name, value, unit, *_ in rows}
        metrics = {}
        for want in spec["per_layer" if args.trace else "end_to_end"]:
            value, unit = found.get(want["name"], (None, None))
            if value is None or unit != want["unit"]:
                raise BenchmarkError(f"metric {want['name']}: got {value} {unit}")
            metrics[want["name"]] = {"value": value, "unit": unit}
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  machine: {machine_note(short=True)}")
    print(f"runs: {book.attempted} attempted, {book.failed} failed"
          + "".join(f"; {n} x {k}" for k, n in sorted(book.failures.items())))
    for line in book.mismatches[:10]:
        print(f"output check failed: {line}")
    probe_s = found.get("probe_s", (None,))[0]
    if probe_s is not None and abs(probe_s / PROBE_REF_S - 1.0) > PROBE_WARN:
        print(f"warning: median probe {probe_s:.4g} s is {100 * (probe_s / PROBE_REF_S - 1):+.0f}% "
              f"off the reference {PROBE_REF_S} s; compare scaled times only with runs "
              f"whose probe medians agree within {100 * PROBE_WARN:.0f}%")
    print(f"{'metric':28s} {'value':>14s} {'unit':6s} {'n':>6s}  note")
    for name, value, unit, n, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:28s} {shown:>14s} {unit:6s} {n:>6d}  {note}")
    print(json.dumps({"correct": book.correct, "attempted": book.attempted,
                      "failed": book.failed, "metrics": metrics}))
    return 0


def machine_note(short=False):
    note = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                 "MKL_NUM_THREADS")},
    }
    try:
        import scipy
        note["scipy"] = scipy.__version__
    except ImportError:
        note["scipy"] = None
    if short:
        return (f"nproc={note['nproc']} python={note['python']} numpy={note['numpy']} "
                f"scipy={note['scipy']} threads=1")
    note["platform"] = platform.platform()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            note["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        note["cpu"] = None
    return note


def run_all(args):
    """Every workload untraced then traced, each in its own interpreter."""
    results = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            results.setdefault(name, {})["traced" if trace else "untraced"] = {
                "table": proc.stdout.strip().splitlines()[:-1],
                "result": json.loads(proc.stdout.strip().splitlines()[-1]),
            }
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": machine_note(), "seed": args.seed, "seconds": args.seconds,
             "workloads": results}, indent=1) + "\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="with --workload all: results file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
