"""Deterministic random streams for genome sampling, GA draws and weight init.

Every draw is the first output of a xoshiro256** instance whose four state
words are taken from the splitmix64 stream of (seed, counter).  Because each
counter owns its own instance, draw i never depends on draws j < i, so chunked
or parallel generation produces bit-identical results to serial generation.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64 output finalizer, in place on uint64 array z; t is scratch."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _SM_MUL1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _SM_MUL2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _check_seed(seed: int) -> int:
    """`seed` as an int; ValueError unless it lies in [0, 2**64), where no two
    seeds share a stream."""
    seed = int(seed)
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed {seed} lies outside [0, 2**64)")
    return seed


def stream_u64(seed: int, start: int, count: int) -> np.ndarray:
    """`count` draws at counters start..start+count-1, one u64 each.

    Draw i is the first xoshiro256** output of the instance whose state is
    splitmix64 words 4i..4i+3 of `seed`; that output reads only state word
    s[1], so only word 4i+1 is materialized.  It is computed in place in the
    counter array, with one scratch array for the shifts: the splitmix64 input
    (4i+2)*gamma + seed mod 2**64, then the finalizer, then rotl(s1*5, 7)*9.
    A seed outside [0, 2**64) raises ValueError.
    """
    seed = _check_seed(seed)
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= np.uint64((4 * _SM_GAMMA) & _MASK)
    z += np.uint64((2 * _SM_GAMMA + seed) & _MASK)
    t = np.empty_like(z)
    _mix64(z, t)
    z *= np.uint64(5)
    np.right_shift(z, np.uint64(57), out=t)
    z <<= np.uint64(7)
    z |= t
    z *= np.uint64(9)
    return z


def u64_to_bits(words: np.ndarray) -> np.ndarray:
    """(n,) uint64 -> (n, 64) uint8, most significant bit first."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = words[:, None].astype(">u8").view(np.uint8).reshape(len(words), 8)
    return np.unpackbits(as_bytes, axis=1)


def bits_to_u64(bits: np.ndarray) -> np.ndarray:
    """(n, 64) 0/1 -> (n,) uint64, inverse of u64_to_bits.

    np.packbits takes bool bits as they are; other dtypes are cast to uint8
    first.
    """
    bits = np.asarray(bits)
    packed = np.packbits(bits if bits.dtype == bool else bits.astype(np.uint8, copy=False), axis=1)
    return packed.view(">u8").reshape(-1).astype(np.uint64)


class CounterRng:
    """Stateful façade over stream_u64: one seed, a moving counter."""

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)
        self.counter = 0

    def u64(self, n: int) -> np.ndarray:
        out = stream_u64(self.seed, self.counter, n)
        self.counter += n
        return out

    def random(self, n: int) -> np.ndarray:
        """float64 in [0, 1), 53-bit resolution."""
        words = self.u64(n)
        words >>= np.uint64(11)
        out = words.astype(np.float64)
        out *= 2.0**-53
        return out

    def below(self, n: int, p: float) -> np.ndarray:
        """random(n) < p, bit for bit, by comparing the words as integers.

        random's value is (word >> 11) * 2**-53, so it is below p exactly when
        the word is below ceil(p * 2**53) << 11.
        """
        words = self.u64(n)
        if not p > 0:
            return np.zeros(n, dtype=bool)
        bound = math.ceil(p * 2.0**53)
        if bound >= 1 << 53:
            return np.ones(n, dtype=bool)
        return words < np.uint64(bound << 11)

    def uniform(self, n: int, low: float, high: float) -> np.ndarray:
        return low + (high - low) * self.random(n)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n unbiased integers in [0, bound) via rejection sampling.

        Each kept word w gives w mod bound, taken as w - (w // bound) * bound:
        numpy divides uint64 by a scalar much faster than it takes `%`.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        top = np.uint64((1 << 64) // bound * bound - 1)  # the largest word kept
        out = self.u64(n)
        bad = out > top
        while bad.any():
            out[bad] = self.u64(int(bad.sum()))
            bad = out > top
        b = np.uint64(bound)
        q = out // b
        q *= b
        out -= q
        return out.astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (stable argsort of u64 keys)."""
        return np.argsort(self.u64(n), kind="stable")
