import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmxest.rng import Xorshift64Star, splitmix64
from conftest import examples

MASK = (1 << 64) - 1


def reference_splitmix64(seed):
    # Reimplemented from the documented constants, on purpose.
    z = (seed + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def reference_stream(seed, count):
    s = reference_splitmix64(seed & MASK)
    if s == 0:
        s = 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        s ^= s >> 12
        s = (s ^ (s << 25)) & MASK
        s ^= s >> 27
        out.append((s * 0x2545F4914F6CDD1D) & MASK)
    return out


def test_splitmix64_matches_reference():
    for seed in (0, 1, 2, 42, 2**63, MASK):
        assert splitmix64(seed) == reference_splitmix64(seed)


def test_uint64_stream_matches_reference():
    for seed in (0, 1, 7, 123456789, 2**40 + 5):
        rng = Xorshift64Star(seed)
        assert [rng.next_uint64() for _ in range(50)] == reference_stream(seed, 50)


def test_uniform_construction():
    rng = Xorshift64Star(99)
    ref = reference_stream(99, 100)
    got = [rng.uniform() for _ in range(100)]
    expected = [(bits >> 11) * 2.0 ** -53 for bits in ref]
    assert got == expected
    assert all(0.0 <= u < 1.0 for u in got)


def test_normal_box_muller_pairing():
    rng = Xorshift64Star(5)
    ref = reference_stream(5, 4)
    u1 = ((ref[0] >> 11) + 1) * 2.0 ** -53
    u2 = (ref[1] >> 11) * 2.0 ** -53
    r = math.sqrt(-2.0 * math.log(u1))
    first = r * math.cos(2.0 * math.pi * u2)
    second = r * math.sin(2.0 * math.pi * u2)
    assert rng.normal() == first
    assert rng.normal() == second  # cached partner, no new draws
    u1b = ((ref[2] >> 11) + 1) * 2.0 ** -53
    u2b = (ref[3] >> 11) * 2.0 ** -53
    rb = math.sqrt(-2.0 * math.log(u1b))
    assert rng.normal() == rb * math.cos(2.0 * math.pi * u2b)


def test_same_seed_same_sequence_different_seed_differs():
    a = [Xorshift64Star(31).normal() for _ in range(10)]
    b = [Xorshift64Star(31).normal() for _ in range(10)]
    c = [Xorshift64Star(32).normal() for _ in range(10)]
    assert a == b
    assert a != c


def test_normal_moments():
    rng = Xorshift64Star(1234)
    draws = np.array([rng.normal() for _ in range(20000)])
    assert abs(draws.mean()) < 0.03
    assert abs(draws.var() - 1.0) < 0.05


def test_uniform_moments():
    rng = Xorshift64Star(77)
    draws = np.array([rng.uniform() for _ in range(20000)])
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 1.0 / 12.0) < 0.01
    assert draws.min() >= 0.0
    assert draws.max() < 1.0


def test_state_never_zero():
    # Even seed 0 must produce a live stream.
    rng = Xorshift64Star(0)
    vals = {rng.next_uint64() for _ in range(10)}
    assert vals != {0}
    assert len(vals) == 10


def _same_state(a, b):
    return a._state == b._state and a._cached_normal == b._cached_normal


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, MASK), half=st.integers(0, 40), before=st.integers(0, 3))
def test_batched_draws_match_scalar_draws(parity, seed, half, before):
    # n draws at once give the bits of n scalar draws and leave the same
    # state: the carried Box-Muller partner first (after an odd number of
    # earlier normals), a partner carried on after an odd n.
    n = 2 * half + parity
    one, batch = Xorshift64Star(seed), Xorshift64Star(seed)
    for _ in range(before):
        assert batch.normal() == one.normal()
    want = np.array([one.normal() for _ in range(n)], dtype=float)
    got = batch.normals(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert _same_state(one, batch)
    assert [batch.normal() for _ in range(3)] == [one.normal() for _ in range(3)]

    want = np.array([one.uniform() for _ in range(n)], dtype=float)
    got = batch.uniforms(n)
    assert got.tobytes() == want.tobytes()
    assert _same_state(one, batch)
    assert batch.next_uint64() == one.next_uint64()
