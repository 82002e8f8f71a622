"""Deterministic PRNG used for corruptions and color hashing.

The generators are fixed so corrupted datasets and rendered colors replay
bit-exactly across runs, platforms and implementations:

* ``splitmix64(x)`` - one step of Sebastiano Vigna's SplitMix64: with state
  ``s = (x + 0x9E3779B97F4A7C15) mod 2^64`` the output is
  ``mix(s)`` where ``mix`` xors ``s`` with ``s >> 30``, multiplies by
  ``0xBF58476D1CE4E5B9``, xors with ``>> 27``, multiplies by
  ``0x94D049BB133111EB`` and xors with ``>> 31`` (all mod 2^64).
* ``Xoshiro256StarStar(seed)`` - xoshiro256** with its four 64-bit state
  words produced by four consecutive SplitMix64 steps starting from
  ``seed``. One step returns ``rotl64(s1 * 5, 7) * 9`` before updating the
  state with the standard xor/shift/rotate schedule.
* Bounded integers are ``next_u64() % n``; floats are the top 53 bits
  scaled by 2^-53; shuffles are backward Fisher-Yates with
  ``j = next_below(i + 1)``.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """First output of a SplitMix64 stream whose initial state is ``x``."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** seeded via SplitMix64 expansion of a single 64-bit seed."""

    def __init__(self, seed: int):
        # word i is the (i+1)-th output of the SplitMix64 stream started at seed
        s = [splitmix64((seed + i * _GOLDEN) & _MASK64) for i in range(4)]
        if not any(s):  # all-zero state is the one forbidden xoshiro state
            s[0] = 1
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        x = (s[1] * 5) & _MASK64
        # rotl64(x, 7) * 9: bits a rotate leaves above bit 63 drop out with the final mask
        result = (((x << 7) | (x >> 57)) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & _MASK64
        return result

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n); n must be positive."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_below(hi - lo + 1)

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def shuffle(self, items: list) -> None:
        """In-place backward Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
