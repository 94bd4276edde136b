"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/ab_bench.py PARENT CHANGE WORKLOAD PAIRS [--seconds S]

Runs ``python3 perfbench/run.py --workload WORKLOAD --seed s --seconds S
--trace 0`` in each checkout, for seeds s = 1..PAIRS.  Each pair runs both
sides back to back, the parent first on odd seeds and the change first on
even seeds, so that a drift in machine speed falls on both sides alike.

Prints one line per pair as it finishes, then for every end-to-end metric
the median and quartiles of each side, the change of the medians, in how
many pairs the change was better ("better" and "bound" as ``BENCHMARK.json``
of the change checkout defines them; lower and no bound where it does not
say), and two verdicts (see ``verdicts``): whether a claimed gain is met and
whether the change is worse than its bound allows.  A last line checks
correctness (see ``correctness``), including one traced run of the change
(``--trace 1 --seconds 1``, see ``traced_error``), whose span check the
untraced pairs never reach.  Exits 1 if any run exits nonzero, prints no
result line or reports ``correct: false``, if the change fails a larger
share of its operations than the parent, if the traced run fails, or if
any metric reads "bound exceeded" (the last line names it).
Standard library only; it changes nothing in either checkout beyond what
the benchmark itself does.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; its result line as a dict, or None on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{checkout}: seed {seed} exited {proc.returncode}\n{proc.stderr}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(f"{checkout}: seed {seed} printed no result line\n")
        return None


def traced_error(checkout, workload):
    """Run the traced benchmark once; None if it passes, else its error line.

    The traced run checks each layer's call counts against the work the
    operation delivered (its span check) and reports a failure as one
    ``benchmark error:`` line on standard error.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
           "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    lines = proc.stderr.strip().splitlines()
    return next((line for line in reversed(lines) if line.startswith("benchmark error:")),
                lines[-1] if lines else f"traced run exited {proc.returncode}")


def gates(checkout):
    """{metric: ("lower" or "higher", bound or None)} from the checkout's BENCHMARK.json."""
    path = Path(checkout) / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: (m.get("better", "lower"), m.get("bound"))
            for m in spec.get("end_to_end", [])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdicts(parent, change, better="lower", bound=None):
    """(wins, claim met, bound exceeded) for one metric's per-pair values.

    The claim is met when at least 10 pairs ran, the change is better in at
    least 9 of every 10 and its median beats the parent's by more than the
    parent's interquartile range.  The bound is exceeded when the change median is
    worse than the parent's by more than ``bound`` times the parent median.
    """
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(parent), quartiles(change)
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    gain = sign * (qb[1] - qa[1])
    claim = len(parent) >= 10 and wins >= 0.9 * len(parent) and gain > qa[2] - qa[0]
    return wins, claim, bound is not None and -gain > bound * abs(qa[1])


def correctness(parent, change):
    """(incorrect runs, parent's failed share, change's failed share, passed)
    for the result lines of both sides.

    A side's failed share is its failed over its attempted operations,
    summed over its runs.  It passes when no run on either side reports
    ``correct: false`` and the change's share is no larger than the
    parent's, the benchmark's own rule for rejecting a change.
    """
    def share(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    incorrect = sum(not r["correct"] for r in parent + change)
    a, b = share(parent), share(change)
    return incorrect, a, b, incorrect == 0 and b <= a


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    ok = True
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, args.seconds)
        if pair["parent"] is None or pair["change"] is None:
            ok = False
            continue
        for side in results:
            results[side].append(pair[side])
        shown = "  ".join(
            f"{name} {pair['parent']['metrics'][name]['value']:.4g}/"
            f"{pair['change']['metrics'][name]['value']:.4g}"
            for name in pair["change"]["metrics"] if name in pair["parent"]["metrics"])
        flags = "  ".join(f"{side}: correct {pair[side]['correct']}, failed {pair[side]['failed']}"
                          for side in ("parent", "change"))
        print(f"pair {seed} ({order[0]} first): {shown}  [{flags}]", flush=True)

    if not results["change"]:
        return 1
    spec = gates(args.change)
    names = [n for n in results["change"][0]["metrics"] if n in results["parent"][0]["metrics"]]
    print(f"\n{args.workload}: {len(results['change'])} pairs, {args.seconds:g} s per run; "
          f"parent {args.parent}, change {args.change}")
    print(f"{'metric':12s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'change':>8s} {'wins':>6s}  verdicts")
    exceeded_by = []
    for name in names:
        a = [r["metrics"][name]["value"] for r in results["parent"]]
        b = [r["metrics"][name]["value"] for r in results["change"]]
        qa, qb = quartiles(a), quartiles(b)
        better, bound = spec.get(name, ("lower", None))
        wins, claim, exceeded = verdicts(a, b, better, bound)
        if exceeded:
            exceeded_by.append(name)
        rel = f"{100 * (qb[1] / qa[1] - 1):+.1f}%" if qa[1] else "n/a"
        spread_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
        spread_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
        shown = (f"{'claim met' if claim else 'claim not met'}, "
                 f"{'bound exceeded' if exceeded else 'within bound'}")
        print(f"{name:12s} {spread_a:>34s} {spread_b:>34s} {rel:>8s} {f'{wins}/{len(a)}':>6s}  "
              f"{shown}")
    incorrect, share_a, share_b, passed = correctness(results["parent"], results["change"])
    error = traced_error(args.change, args.workload)
    print(f"traced run of the change (--trace 1 --seconds 1): {error or 'passed'}")
    passed = passed and error is None and not exceeded_by
    bounds = f"; bound exceeded: {', '.join(exceeded_by)}" if exceeded_by else ""
    print(f"correctness: {incorrect} runs report correct: false; failed share parent "
          f"{share_a:.4g}, change {share_b:.4g}; traced run {'failed' if error else 'passed'}"
          f"{bounds}; {'passed' if passed else 'FAILED'}")
    return 0 if ok and passed else 1


if __name__ == "__main__":
    sys.exit(main())
