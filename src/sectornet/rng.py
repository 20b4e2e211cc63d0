"""Deterministic pseudo-random numbers with a portable bit stream.

A small splitmix64 generator: 64-bit state advanced by a fixed odd
constant, output whitened by the murmur-style finalizer.  Every draw is
pure integer arithmetic, so seeded streams are reproducible across
platforms and Python versions (unlike ``random.Random`` methods such as
``shuffle`` whose draw pattern has changed between releases).
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Seeded generator; equal seeds give equal streams, forever."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK
        self._spare_gauss: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        """An integer in [0, n) via the multiply-shift reduction."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return (self.next_u64() * n) >> 64

    def gauss(self) -> float:
        """Standard normal deviate (Box-Muller, one value cached)."""
        if self._spare_gauss is not None:
            z = self._spare_gauss
            self._spare_gauss = None
            return z
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_gauss = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)
