import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metapix.rng import _SM_GAMMA, CounterRng, _mix64, bits_to_u64, stream_u64, u64_to_bits

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment, written out for an independent reference


class Xoshiro256StarStar:
    """Reference scalar xoshiro256** in exact-integer arithmetic, seeded from
    splitmix64 words first_word..first_word+3 of `seed`; the vectorized
    counter path must equal the first next_u64() of an instance seeded so."""

    def __init__(self, seed: int, first_word: int = 0):
        self.s = []
        for k in range(first_word, first_word + 4):
            z = (seed + (k + 1) * _GAMMA) & _M64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
            self.s.append(z ^ (z >> 31))

    def next_u64(self) -> int:
        s = self.s
        x = (s[1] * 5) & _M64
        result = (((x << 7) | (x >> 57)) & _M64) * 9 & _M64
        t = (s[1] << 17) & _M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & _M64
        return result


def splitmix64_word(seed: int, k: np.ndarray) -> np.ndarray:
    """k-th output of the splitmix64 stream seeded with `seed`, through the
    vectorized finalizer that stream_u64 uses."""
    z = np.array(k, dtype=np.uint64)
    z += np.uint64(1)
    z *= np.uint64(_SM_GAMMA)
    z += np.uint64(seed & _M64)
    return _mix64(z, np.empty_like(z))


def test_stream_matches_scalar_reference():
    """Each counter draw equals the first output of a freshly seeded scalar
    xoshiro256** whose state words come from the same splitmix64 stream."""
    for seed in (0, 1, 42, 0xDEADBEEF, (1 << 64) - 1):
        vec = stream_u64(seed, 0, 16)
        for i in range(16):
            ref = Xoshiro256StarStar(seed, first_word=4 * i)
            assert int(vec[i]) == ref.next_u64()


def test_stream_frozen_values():
    assert [int(v) for v in stream_u64(0, 0, 2)] == [
        0x99EC5F36CB75F2B4,
        0x657A983D215193D9,
    ]
    assert [int(v) for v in stream_u64(42, 0, 2)] == [
        0x15780B2E0C2EC716,
        0xFE647E5153400883,
    ]


def test_stream_is_slice_invariant():
    """Chunked generation is bit-identical to one serial call."""
    whole = stream_u64(42, 0, 100)
    parts = np.concatenate([stream_u64(42, k, 7) for k in range(0, 98, 7)] + [stream_u64(42, 98, 2)])
    np.testing.assert_array_equal(whole, parts)


def test_splitmix_word_is_positional():
    a = splitmix64_word(7, np.arange(10))
    b = splitmix64_word(7, np.arange(5, 10))
    np.testing.assert_array_equal(a[5:], b)
    # the vectorized finalizer gives the reference's state words
    for seed in (7, (1 << 64) - 1):
        words = splitmix64_word(seed, np.arange(8, 12))
        assert [int(w) for w in words] == Xoshiro256StarStar(seed, first_word=8).s


def test_bits_msb_first():
    bits = u64_to_bits(np.array([0x8000000000000000], dtype=np.uint64))
    assert bits.shape == (1, 64)
    assert bits[0, 0] == 1
    assert bits[0, 1:].sum() == 0
    bits = u64_to_bits(np.array([1], dtype=np.uint64))
    assert bits[0, 63] == 1
    assert bits[0, :63].sum() == 0


@given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=32))
def test_bits_round_trip(words):
    arr = np.array(words, dtype=np.uint64)
    back = bits_to_u64(u64_to_bits(arr))
    np.testing.assert_array_equal(arr, back)


def test_counter_rng_is_stateless_across_instances():
    a = CounterRng(7)
    b = CounterRng(7)
    np.testing.assert_array_equal(a.u64(10), b.u64(10))
    # consuming advances the counter, so the next block differs
    assert not np.array_equal(a.u64(10), CounterRng(7).u64(10))
    # but equals a fresh instance started at the right offset
    np.testing.assert_array_equal(CounterRng(7).u64(30)[20:], a.u64(10))


@pytest.mark.parametrize("seed", [-1, 1 << 64, 10**23])
def test_seeds_outside_u64_are_refused(seed):
    """Seeds are not folded mod 2**64, where -1 would draw the stream of 2**64 - 1."""
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        stream_u64(seed, 0, 4)
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        CounterRng(seed)
    assert CounterRng((1 << 64) - 1).u64(4).tolist() == stream_u64((1 << 64) - 1, 0, 4).tolist()


def test_random_unit_interval():
    r = CounterRng(3).random(10_000)
    assert r.min() >= 0.0
    assert r.max() < 1.0
    assert abs(r.mean() - 0.5) < 0.02


BELOW_P = [1.0, 0.5, 1 / 64, 0.3, 2.0**-53, 1e-300, float(np.nextafter(1.0, 0.0))]


@pytest.mark.parametrize("p", BELOW_P + [0.0, -0.5, 1.5, math.nan])
def test_below_is_random_below_p(p):
    """below(n, p) gives random(n) < p bit for bit from the same counter and
    leaves the counter where random leaves it."""
    a, b = CounterRng(9), CounterRng(9)
    a.u64(1234), b.u64(1234)
    got = a.below(50_000, p)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, b.random(50_000) < p)
    assert a.counter == b.counter == 1234 + 50_000
    np.testing.assert_array_equal(a.u64(3), b.u64(3))


class _FixedWords(CounterRng):
    """CounterRng whose every draw returns the same given words."""

    def __init__(self, words):
        super().__init__(0)
        self.words = np.array(words, dtype=np.uint64)

    def u64(self, n):
        self.counter += n
        return self.words.copy()


@pytest.mark.parametrize("p", BELOW_P)
def test_below_at_its_threshold_word(p):
    """Words at and next to the integer threshold, and the extreme words,
    compare as random's floats do."""
    t = min(math.ceil(p * 2.0**53), 2**53) << 11
    near = [w for w in (t - 2049, t - 2048, t - 1, t, t + 1, t + 2048) if 0 <= w < 2**64]
    fixed = _FixedWords(near + [0, 1, 2047, 2048, 2**64 - 2048, 2**64 - 1])
    np.testing.assert_array_equal(fixed.below(len(fixed.words), p),
                                  fixed.random(len(fixed.words)) < p)


def test_uniform_bounds():
    r = CounterRng(3).uniform(1000, -2.0, 5.0)
    assert r.min() >= -2.0
    assert r.max() < 5.0


def test_integers_range_and_bias():
    r = CounterRng(11)
    draws = r.integers(60_000, 6)
    assert draws.min() == 0
    assert draws.max() == 5
    counts = np.bincount(draws, minlength=6)
    assert counts.min() > 60_000 / 6 * 0.9

    with pytest.raises(ValueError):
        r.integers(1, 0)


def test_permutation_is_a_permutation():
    p = CounterRng(5).permutation(100)
    np.testing.assert_array_equal(np.sort(p), np.arange(100))
    np.testing.assert_array_equal(p, CounterRng(5).permutation(100))


@pytest.mark.parametrize("start", [(1 << 62) - 3, 1 << 62, (1 << 62) + 5, (1 << 63) - 2])
def test_stream_matches_reference_where_word_index_wraps(start):
    """Word index 4i wraps modulo 2**64 from counter 2**62 on; batches that
    start before, at and after the wrap still match the exact-integer path."""
    for seed in (0, 0xDEADBEEF):
        vec = stream_u64(seed, start, 6)
        for j in range(6):
            ref = Xoshiro256StarStar(seed, first_word=4 * (start + j))
            assert int(vec[j]) == ref.next_u64()


def test_successive_draws_are_independent_arrays():
    """Each call returns fresh memory: `integers` rewrites its own draw in
    place, so no buffer may be shared between calls."""
    r = CounterRng(9)
    a, b = r.u64(64), r.u64(64)
    x, y = r.random(64), r.random(64)
    assert not np.shares_memory(a, b)
    assert not np.shares_memory(x, y)
    expect_b, expect_y = b.copy(), y.copy()
    a[:] = 0
    x[:] = -1.0
    np.testing.assert_array_equal(b, expect_b)
    np.testing.assert_array_equal(y, expect_y)
    np.testing.assert_array_equal(b, CounterRng(9).u64(128)[64:])
