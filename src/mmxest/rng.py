"""Deterministic pseudo-random numbers with a fixed cross-platform spec.

Simulation noise must replay bit-for-bit from a seed, on any platform,
independent of numpy's generator versioning.  The stream is pinned here:

- splitmix64 of the seed is the state of an xorshift64* stream (shifts
  12/25/27, multiplier 0x2545F4914F6CDD1D; the all-zero state, reached by
  one seed only, falls back to the golden-gamma constant so the recurrence
  never locks at zero), and each of its 64-bit words gives its top 53 bits b;
- a uniform is b * 2**-53, on [0, 1);
- a normal pair comes from u1 = (b1 + 1) * 2**-53, in (0, 1] so the log
  never sees zero, and u2 = b2 * 2**-53, as r cos(2 pi u2) and
  r sin(2 pi u2) with r = sqrt(-2 ln u1);
- the logarithm, cosine and sine are the ``math`` module's.

A stream is a function of its seed: :func:`uniforms` and :func:`normals`
return its first ``count`` draws and carry no state between calls.

The xorshift step is linear over GF(2): the k-th state after s is the XOR,
over the set bits 2**i of s, of the k-th state after 2**i.  The jump table
(32 KB, built on first use) holds the _BLOCK (64) states after each 2**i,
so a stream longer than one block (an N = 1000 run draws 3000 and 1000
words) is made a block at a time with the very words the step gives.  A
stream of at most one block (the bundled 20-step config draws 60 and 20)
steps word by word and builds no table.

Tests reimplement the same constants independently; do not change them.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_BLOCK = 64  # states per jump-table row


def splitmix64(seed: int) -> int:
    """One splitmix64 step: expands a seed into a well-mixed 64-bit word."""
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@functools.cache
def _jump_table() -> tuple[np.ndarray, np.ndarray]:
    """(bits, table): the (64, 1) words 2**i, and in row i of the (64, _BLOCK)
    table the _BLOCK states after 2**i, all 64 stepped at once."""
    bits = np.uint64(1) << np.arange(64, dtype=np.uint64)[:, None]
    s = bits[:, 0].copy()
    table = np.empty((64, _BLOCK), dtype=np.uint64)
    for col in table.T:
        s ^= s >> 12
        s ^= s << 25  # uint64 drops the bits shifted past 2**63
        s ^= s >> 27
        col[:] = s
    return bits, table


def _top53(seed: int, count: int) -> np.ndarray:
    """The top 53 bits of the first ``count`` words of the stream of
    ``seed``, as exact floats.

    Up to _BLOCK words, the xorshift runs word by word.  A longer stream is
    made a block at a time: the XOR of the jump table's rows picked by the
    set bits of the last state, reduced straight into the block's row.  The
    multiply (wrapping mod 2**64 in uint64) and the shift act on the whole
    array.
    """
    s = splitmix64(int(seed) & _MASK64) or 0x9E3779B97F4A7C15
    if count <= _BLOCK:
        states = np.empty(count, dtype=np.uint64)
        for k in range(count):
            s ^= (s >> 12)
            s ^= (s << 25) & _MASK64
            s ^= (s >> 27)
            states[k] = s
    else:
        bits, table = _jump_table()
        blocks = np.empty((-(-count // _BLOCK), _BLOCK), dtype=np.uint64)
        last = np.array([s], dtype=np.uint64)
        for row in blocks:
            np.bitwise_xor.reduce(table, axis=0, where=(last & bits).astype(bool), out=row)
            last = row[-1:]
        states = blocks.ravel()[:count]
    return ((states * np.uint64(0x2545F4914F6CDD1D)) >> np.uint64(11)).astype(float)


def uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of the stream of ``seed``, on [0, 1), one word each."""
    return _top53(seed, count) * 2.0 ** -53


def normals(seed: int, count: int) -> np.ndarray:
    """``count`` standard normals from the first (count + 1) // 2 pairs of
    words of the stream of ``seed``.

    Cosines sit at even positions and sines at odd ones; an odd ``count``
    drops the last pair's sine.  The square root is correctly rounded, so
    numpy's gives ``math``'s bits; the ``math`` maps read Python floats
    through a memoryview, with no list and no numpy scalar per value.
    """
    pairs = (count + 1) // 2
    bits = _top53(seed, 2 * pairs)
    u1 = (bits[0::2] + 1.0) * 2.0 ** -53
    angle = memoryview(2.0 * math.pi * (bits[1::2] * 2.0 ** -53))
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, memoryview(u1)), float, pairs))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.fromiter(map(math.cos, angle), float, pairs)
    out[1::2] = r * np.fromiter(map(math.sin, angle), float, pairs)
    return out[:count]
