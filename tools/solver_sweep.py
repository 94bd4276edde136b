"""Adversarial sweep of the minimax solver on random piece sets.

    python tools/solver_sweep.py FIRST LAST

For each seed s = FIRST..LAST, ``numpy.random.default_rng(s)`` draws 1000
piece sets with K in 2..32 pieces and m in 1..3 outputs:
W_i = (A A^T + I) * 10^U(0, 3) with A standard normal, centers N(0, 1) and
offsets U(-10, 0).  Every set goes through ``mmxest.minimax.solve``.

For each output size m, prints the number of sets, how many of them the
dominance check does not settle, for m = 1 how many of those went past the
active-pair walk to the later stages (0 expected), and the seconds
``solve`` took on all of them.  Then prints the number of sets, how many
of them the dual ascent answered, how many raised ``NoConvergence``, and
the worst gap among the ascent's answers in units of eps (1 + |J*|).
Exits 1 if any set is left uncertified.  Needs numpy and the package
(``src`` on ``PYTHONPATH`` or installed); 1000 sets take about a second.
"""
import argparse
import sys
import time

import numpy as np

from mmxest import NoConvergence, minimax

SETS_PER_SEED = 1000


def piece_sets(seed):
    """The seed's SETS_PER_SEED piece sets, in draw order."""
    rng = np.random.default_rng(seed)
    for _ in range(SETS_PER_SEED):
        K, m = int(rng.integers(2, 33)), int(rng.integers(1, 4))
        A = rng.normal(size=(K, m, m))
        W = (A @ np.swapaxes(A, 1, 2) + np.eye(m)) * 10.0 ** rng.uniform(0, 3, size=(K, 1, 1))
        yield minimax.QuadraticPieces(W=W, centers=rng.normal(size=(K, m)),
                                      offsets=rng.uniform(-10.0, 0.0, size=K))


def sweep(first, last):
    """(sets, sets the ascent answered, NoConvergence count, worst gap of the
    ascent's answers / eps (1 + |J*|), by_m) over the seeds first..last;
    by_m maps each output size m to [sets, sets the dominance check does not
    settle, sets past the active-pair walk, seconds in solve]."""
    ascent, stages = minimax.dual_ascent, minimax._sorted_stages
    calls = {ascent: 0, stages: 0}

    def counted(f):
        def call(*args):
            calls[f] += 1
            return f(*args)
        return call

    minimax.dual_ascent, minimax._sorted_stages = counted(ascent), counted(stages)
    sets, answered, failed, worst = 0, 0, 0, 0.0
    by_m = {}
    try:
        for seed in range(first, last + 1):
            for pieces in piece_sets(seed):
                sets += 1
                row = by_m.setdefault(pieces.centers.shape[1], [0, 0, 0, 0.0])
                row[0] += 1
                row[1] += minimax._dominant(*pieces) is None
                before = dict(calls)
                start = time.perf_counter()
                try:
                    est = minimax.solve(pieces)
                except NoConvergence:
                    failed += 1
                    est = None
                row[3] += time.perf_counter() - start
                row[2] += calls[stages] > before[stages]
                if est is not None and calls[ascent] > before[ascent]:
                    answered += 1
                    worst = max(worst, est.gap / (np.finfo(float).eps * (1.0 + abs(est.value))))
    finally:
        minimax.dual_ascent, minimax._sorted_stages = ascent, stages
    return sets, answered, failed, worst, by_m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    sets, answered, failed, worst, by_m = sweep(args.first, args.last)
    for m, (count, undominated, past, seconds) in sorted(by_m.items()):
        walk = f"past the walk {past}, " if m == 1 else ""
        print(f"m {m}: sets {count}, non-dominated {undominated}, {walk}{seconds:.2f} s")
    print(f"sets {sets}, answered by the ascent {answered}, NoConvergence {failed}, "
          f"worst ascent gap {worst:.1f} eps (1 + |J*|)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
