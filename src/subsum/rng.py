"""Fixed 64-bit deterministic generator used by all instance generators.

The stream is splitmix64 (Steele, Lea, Flood 2014), chosen because it is
trivial to reimplement bit-for-bit in any language. Instance files produced
from a (family, n, seed) triple are only reproducible across implementations
if the generator is pinned, so the exact algorithm is part of the file
format contract:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output z XOR (z >> 31)

Derived draws are defined on top of the raw u64 stream:

  * next_bits(k): concatenate consecutive u64 words little-endian
    (word i contributes bits [64*i, 64*i+64)) and keep the low k bits;
    k = 0 consumes nothing and returns 0.
  * next_below(bound): rejection-sample next_bits(bound.bit_length() - 1
    rounded up so that bound-1 fits) until the value is < bound. Unbiased
    for any positive bound, including bounds wider than 64 bits.
"""

from __future__ import annotations

from .model import _quote

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """The splitmix64 output permutation of a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit stream with arbitrary-width uniform draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {_quote(seed)}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def next_bits(self, k: int) -> int:
        if k < 0:
            raise ValueError("bit count must be nonnegative")
        value = 0
        shift = 0
        while shift < k:
            value |= self.next_u64() << shift
            shift += 64
        return value & ((1 << k) - 1)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {_quote(bound)}")
        k = (bound - 1).bit_length()
        while True:
            value = self.next_bits(k)
            if value < bound:
                return value

    def next_in_range(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"empty range [{_quote(lo)}, {_quote(hi)}]")
        return lo + self.next_below(hi - lo + 1)


def derive_seed(master_seed: int, *parts: int) -> int:
    """Stateless per-row seed derivation: fold parts into the master seed.

    Each part is absorbed as mix64(previous XOR part), so derived seeds do
    not depend on any draw order and are stable under row skipping.
    """
    x = mix64(master_seed)
    for p in parts:
        x = mix64(x ^ (p & _MASK64))
    return x
