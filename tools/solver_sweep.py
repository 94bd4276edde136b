"""Adversarial sweep of the minimax solver on random piece sets.

    python tools/solver_sweep.py FIRST LAST

For each seed s = FIRST..LAST, ``numpy.random.default_rng(s)`` draws 1000
piece sets with K in 2..32 pieces and m in 1..3 outputs:
W_i = (A A^T + I) * 10^U(0, 3) with A standard normal, centers N(0, 1) and
offsets U(-10, 0).  Every set goes through ``mmxest.minimax.solve``.

Prints the number of sets, how many of them the dual ascent answered, how
many raised ``NoConvergence``, and the worst gap among the ascent's answers
in units of eps (1 + |J*|).  Exits 1 if any set is left uncertified.  Needs
numpy and the package (``src`` on ``PYTHONPATH`` or installed); 1000 sets
take about a second.
"""
import argparse
import sys

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
    ascent's answers / eps (1 + |J*|)) over the seeds first..last."""
    ascent = minimax.dual_ascent
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return ascent(*args)

    minimax.dual_ascent = counted
    sets, answered, failed, worst = 0, 0, 0, 0.0
    try:
        for seed in range(first, last + 1):
            for pieces in piece_sets(seed):
                sets += 1
                before = calls[0]
                try:
                    est = minimax.solve(pieces)
                except NoConvergence:
                    failed += 1
                    continue
                if calls[0] > before:
                    answered += 1
                    worst = max(worst, est.gap / (np.finfo(float).eps * (1.0 + abs(est.value))))
    finally:
        minimax.dual_ascent = ascent
    return sets, answered, failed, worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    sets, answered, failed, worst = sweep(args.first, args.last)
    print(f"sets {sets}, answered by the ascent {answered}, NoConvergence {failed}, "
          f"worst ascent gap {worst:.1f} eps (1 + |J*|)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
