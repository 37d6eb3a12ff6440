"""Deterministic 64-bit PRNG (splitmix64) behind all seeded randomness.

Every randomized routine in this package draws from a splitmix64 stream,
so identical seeds reproduce identical runs across platforms:

    state' = (state + 0x9E3779B97F4A7C15) mod 2^64
    z  = state'
    z  = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z  = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    out = z XOR (z >> 31)

Trial t of a multi-trial run is seeded with ``mix(base_seed, t)``, which is
the (t+1)-th output of the stream started at ``base_seed``; trials are
therefore independent of execution order and safe to run concurrently.
Bounded draws use ``out mod k``; the modulo bias is negligible for the tiny
ranges used here and keeps the sequence trivial to reproduce elsewhere.
"""

from __future__ import annotations

__all__ = ["Rng", "mix"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix(base_seed: int, t: int) -> int:
    """Derive the seed for trial ``t`` from ``base_seed`` (t >= 0)."""
    return _finalize((base_seed + (t + 1) * _GAMMA) & _MASK)


class Rng:
    """Splitmix64 generator with the handful of draws the package needs."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _finalize(self._state)

    def below(self, k: int) -> int:
        """Uniform-ish integer in [0, k)."""
        if k <= 0:
            raise ValueError("below() needs k >= 1")
        return self.next_u64() % k

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
