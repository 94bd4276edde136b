"""Machine-speed probe: fixed CPU work that does not touch mmxest.

On a shared machine the speed one process gets drifts by tens of percent over
minutes, so raw medians from runs minutes apart disagree by more than any
useful bound.  The benchmark runs this probe between operations and reports
each timing at the reference speed: a time t measured while the probe took a
median of p seconds is reported as t * REF_S / p.  The raw times are printed
beside the scaled ones.

The probe mixes what mmxest spends its time on: interpreter work and numpy
calls on 3x3 and 1x1 matrices.  It is benchmark code, so a change to mmxest
cannot change it.
"""
from time import perf_counter

import numpy as np

# Probe time on an uncontended core of the reference machine (2 vCPU Intel
# Xeon, Python 3.11.7, numpy 2.4.6), so scaled and raw times agree there.
# Only a unit: every run divides by it the same way.
REF_S = 0.036

_F = np.array([[1.1, -0.5, 0.1], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) * 0.5
_H = np.array([[1.0, 0.0, 0.0]])


def probe() -> float:
    """Run the fixed work once; returns the seconds it took."""
    t0 = perf_counter()
    P = np.eye(3)
    acc = 0
    for i in range(1500):
        S = _H @ P @ _H.T + 1.0
        L = np.linalg.cholesky(S)
        P = _F @ P @ _F.T + np.eye(3) - (_F @ P @ _H.T) @ np.linalg.solve(S, _H @ P @ _F.T)
        acc += int(L[0, 0] > 0) + i % 7
    return perf_counter() - t0
