"""Deterministic pseudo-random numbers with a fixed cross-platform spec.

Simulation noise must replay bit-for-bit from a seed, on any platform,
independent of numpy's generator versioning.  The stream is pinned here:

- splitmix64 of the seed is the state of an xorshift64* stream, and each of
  its 64-bit words gives its top 53 bits b;
- a uniform is b * 2**-53, on [0, 1);
- a normal pair comes from u1 = (b1 + 1) * 2**-53, in (0, 1] so the log
  never sees zero, and u2 = b2 * 2**-53, as r cos(2 pi u2) and
  r sin(2 pi u2) with r = sqrt(-2 ln u1);
- the logarithm, cosine and sine are the ``math`` module's.

Tests reimplement the same constants independently; do not change them.
"""
from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> int:
    """One splitmix64 step: expands a seed into a well-mixed 64-bit word."""
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Xorshift64Star:
    """xorshift64* stream seeded through splitmix64.

    Shifts 12/25/27 with multiplier 0x2545F4914F6CDD1D.  The state is the
    splitmix64 image of the seed; the all-zero state (unreachable through
    splitmix64 except for one seed) falls back to the golden-gamma constant
    so the recurrence never locks at zero.
    """

    def __init__(self, seed: int):
        state = splitmix64(int(seed) & _MASK64)
        self._state = state if state != 0 else 0x9E3779B97F4A7C15

    def _top53(self, count: int) -> np.ndarray:
        """The top 53 bits of the next ``count`` outputs, as exact floats.

        Only the xorshift runs word by word; the multiply (wrapping mod
        2**64 in uint64) and the shift act on the whole array.
        """
        states = np.empty(count, dtype=np.uint64)
        s = self._state
        for k in range(count):
            s ^= (s >> 12)
            s ^= (s << 25) & _MASK64
            s ^= (s >> 27)
            states[k] = s
        self._state = s
        return ((states * np.uint64(0x2545F4914F6CDD1D)) >> np.uint64(11)).astype(float)

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms on [0, 1), one word each."""
        return self._top53(count) * 2.0 ** -53

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normals from the next (count + 1) // 2 pairs of words.

        Cosines sit at even positions and sines at odd ones; an odd
        ``count`` drops the last pair's sine.  The square root is correctly
        rounded, so numpy's gives ``math``'s bits.
        """
        pairs = (count + 1) // 2
        bits = self._top53(2 * pairs)
        u1 = (bits[0::2] + 1.0) * 2.0 ** -53
        angle = 2.0 * math.pi * (bits[1::2] * 2.0 ** -53)
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1), float, pairs))
        out = np.empty(2 * pairs)
        out[0::2] = r * np.fromiter(map(math.cos, angle), float, pairs)
        out[1::2] = r * np.fromiter(map(math.sin, angle), float, pairs)
        return out[:count]
