"""Seeded draws without numpy.random: NumPy's SeedSequence and PCG64,
bit for bit, in Python integers.

seed_words(entropy, n) is SeedSequence(entropy).generate_state(n) and
SeedStream(entropy).uniform(low, high, n) is
default_rng(SeedSequence(entropy)).uniform(low, high, n), both as NumPy
2.x computes them (bit_generator.pyx, pcg64.h; PCG64 is O'Neill's
XSL-RR 128/64 generator, HMC-CS-2014-0905).  Importing numpy.random
costs a process 5-6 MB of RSS and about 10 ms, with OpenSSL's libcrypto
mapped through secrets, and NumPy may change default_rng's generator
between versions; these streams stay fixed."""

from __future__ import annotations

import operator

import numpy as np

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hashing
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy) -> list[int]:
    """Each integer as 32-bit words, little end first, 0 as one word."""
    words = []
    for value in entropy:
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, not {value}")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


def _hasher():
    """SeedSequence's hashmix, its multiplier advancing with each call."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def seed_words(entropy, n: int) -> list[int]:
    """SeedSequence(entropy).generate_state(n), entropy a sequence of
    non-negative integers, as n Python ints below 2**32."""
    words = _entropy_words(entropy)
    hashmix = _hasher()
    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):  # late words reach the earlier ones
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:  # entropy beyond the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out, const = [], _INIT_B
    for i in range(n):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    return out


class SeedStream:
    """default_rng(SeedSequence(entropy)): a PCG64 state seeded from
    seed_words(entropy, 8) read as four little-endian uint64 words, the
    initial state and then the increment, each high word first."""

    def __init__(self, entropy):
        w = seed_words(entropy, 8)
        state = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        inc = (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32
        # pcg64_srandom_r: from state 0, step, add the seed, step
        self._inc = (inc << 1 | 1) & _MASK128
        self._state = ((self._inc + state) * _PCG_MULT
                       + self._inc) & _MASK128

    def _next64(self) -> int:
        """Step the LCG, then its XSL-RR output."""
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        state = self._state
        value, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (value >> rot | value << (-rot & 63)) & _MASK64

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """n draws of Generator.uniform(low, high): low + (high - low) u,
        u the top 53 bits of one output over 2**53."""
        draws = np.array([self._next64() >> 11 for _ in range(n)],
                         dtype=float)
        return low + (high - low) * (draws * 2.0 ** -53)
