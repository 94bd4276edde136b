import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmxest.rng import _BLOCK, normals, splitmix64, uniforms
from conftest import examples
from oracles import (MASK64, reference_normals, reference_splitmix64, reference_stream,
                     reference_uniforms)


def test_splitmix64_matches_reference():
    for seed in (0, 1, 2, 42, 2**63, MASK64):
        assert splitmix64(seed) == reference_splitmix64(seed)


def test_uint64_stream_matches_reference():
    # A uniform is the top 53 bits of one word, scaled exactly by 2^-53.
    for seed in (0, 1, 7, 123456789, 2**40 + 5):
        got = uniforms(seed, 50) * 2**53
        assert got.tolist() == [w >> 11 for w in reference_stream(seed, 50)]


def test_uniform_construction():
    got = uniforms(99, 100).tolist()
    expected = [(bits >> 11) * 2.0 ** -53 for bits in reference_stream(99, 100)]
    assert got == expected
    assert all(0.0 <= u < 1.0 for u in got)


def test_normal_box_muller_pairing():
    ref = reference_stream(5, 5)
    u1 = ((ref[0] >> 11) + 1) * 2.0 ** -53
    u2 = (ref[1] >> 11) * 2.0 ** -53
    r = math.sqrt(-2.0 * math.log(u1))
    u1b = ((ref[2] >> 11) + 1) * 2.0 ** -53
    u2b = (ref[3] >> 11) * 2.0 ** -53
    rb = math.sqrt(-2.0 * math.log(u1b))
    # cosine, then sine, of one pair of words; three draws take two pairs
    assert normals(5, 3).tolist() == [r * math.cos(2.0 * math.pi * u2),
                                      r * math.sin(2.0 * math.pi * u2),
                                      rb * math.cos(2.0 * math.pi * u2b)]


def test_same_seed_same_sequence_different_seed_differs():
    a = normals(31, 10).tolist()
    b = normals(31, 10).tolist()
    c = normals(32, 10).tolist()
    assert a == b
    assert a != c


def test_normal_moments():
    draws = normals(1234, 20000)
    assert abs(draws.mean()) < 0.03
    assert abs(draws.var() - 1.0) < 0.05


def test_uniform_moments():
    draws = uniforms(77, 20000)
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 1.0 / 12.0) < 0.01
    assert draws.min() >= 0.0
    assert draws.max() < 1.0


# splitmix64 is a bijection, and this is the one seed it maps to the all-zero state.
ZERO_STATE_SEED = -0x9E3779B97F4A7C15 & MASK64


def test_word_loop_and_jump_table_match_the_references():
    # Streams of at most one block step word by word, longer ones come from
    # the jump table; every count up to three blocks and one word has the
    # references' bits, the zero-state fallback included.
    assert reference_splitmix64(ZERO_STATE_SEED) == 0
    top = 3 * _BLOCK + 1
    for seed in (0, 1, 2**40 + 5, MASK64, ZERO_STATE_SEED):
        words = [w >> 11 for w in reference_stream(seed, top)]
        ref_u, ref_n = reference_uniforms(seed, top), reference_normals(seed, top)
        for count in range(top + 1):
            got = uniforms(seed, count)
            assert (got * 2**53).tolist() == words[:count]
            assert got.tobytes() == ref_u[:count].tobytes()
            assert normals(seed, count).tobytes() == ref_n[:count].tobytes()


def test_long_streams_match_the_references():
    # An N = 1000 paper-bank run draws 3000 process and 1000 measurement normals.
    for seed, count in ((0, 3000), (1, 1000), (2**63 + 1, 3001)):
        assert normals(seed, count).tobytes() == reference_normals(seed, count).tobytes()
        assert uniforms(seed, count).tobytes() == reference_uniforms(seed, count).tobytes()


def test_state_never_zero():
    # Even seed 0 must produce a live stream.
    vals = set(uniforms(0, 10).tolist())
    assert vals != {0.0}
    assert len(vals) == 10


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, MASK64), half=st.integers(0, 2 * _BLOCK),
       a=st.integers(0, 2 * _BLOCK), b=st.integers(0, 2 * _BLOCK))
def test_batched_draws_match_scalar_draws(parity, seed, half, a, b):
    # A block of n draws has the bits of the reference's scalar draws, for even
    # and odd n.  A stream is a function of its seed: a shorter block of
    # uniforms is a prefix of a longer one, and so is a block of normals that
    # spends whole pairs of words, on either side of the jump table's block
    # edges.
    n = 2 * half + parity
    got = normals(seed, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == reference_normals(seed, n).tobytes()
    got = uniforms(seed, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == reference_uniforms(seed, n).tobytes()
    assert uniforms(seed, a).tobytes() == uniforms(seed, a + b)[:a].tobytes()
    even = 2 * half
    assert normals(seed, even).tobytes() == normals(seed, even + 2)[:even].tobytes()
