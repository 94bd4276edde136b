"""Deterministic pseudo-random numbers with a fixed cross-platform spec.

Simulation noise must replay bit-for-bit from a seed, on any platform,
independent of numpy's generator versioning.  This module pins the exact
algorithms: a splitmix64 seed expander feeding an xorshift64* stream, with
53-bit uniforms and Box-Muller normals on top.  Tests reimplement the same
constants independently; do not change them.  :meth:`Xorshift64Star.uniforms`
and :meth:`Xorshift64Star.normals` fill an array with the same bits as
repeated scalar draws and leave the same state behind.
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
        self._cached_normal = None

    def next_uint64(self) -> int:
        s = self._state
        s ^= (s >> 12)
        s ^= (s << 25) & _MASK64
        s ^= (s >> 27)
        self._state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

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

    def uniform(self) -> float:
        """Uniform on [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal via Box-Muller; draws come out in pairs.

        u1 is shifted into (0, 1] so the log never sees zero.
        """
        if self._cached_normal is not None:
            z = self._cached_normal
            self._cached_normal = None
            return z
        u1 = ((self.next_uint64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.next_uint64() >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        self._cached_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` draws of :meth:`uniform`, as an array."""
        return self._top53(count) * 2.0 ** -53

    def normals(self, count: int) -> np.ndarray:
        """``count`` draws of :meth:`normal`, as an array, with the same bits.

        A partner carried from an earlier draw comes first, and an odd
        remainder carries the last pair's partner on.  The logarithm, cosine
        and sine are the ``math`` module's, one call per pair as in
        :meth:`normal`; the square root is correctly rounded either way.
        """
        out = np.empty(count)
        k = 0
        if count and self._cached_normal is not None:
            out[0], self._cached_normal, k = self._cached_normal, None, 1
        pairs = (count - k + 1) // 2
        bits = self._top53(2 * pairs)
        u1 = (bits[0::2] + 1.0) * 2.0 ** -53
        angle = 2.0 * math.pi * (bits[1::2] * 2.0 ** -53)
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1), float, pairs))
        out[k::2] = r * np.fromiter(map(math.cos, angle), float, pairs)
        sin = r * np.fromiter(map(math.sin, angle), float, pairs)
        out[k + 1::2] = sin[:(count - k) // 2]
        if (count - k) % 2:
            self._cached_normal = float(sin[-1])
        return out
