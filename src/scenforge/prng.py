"""Deterministic pseudo-random streams shared by the sampler and normalizer.

The generator is the SplitMix64 recurrence with the standard constants
(increment 0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, shifts 30/27/31).  Every consumer derives an
independent stream from a 64-bit seed plus a label, so draw order never
depends on dict iteration order and results reproduce bit-for-bit on any
platform.
"""

from __future__ import annotations

from .digests import sha256

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream starting from an explicit 64-bit state."""

    def __init__(self, state: int):
        self._state = state & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]; degenerate ranges return low exactly."""
        if high == low:
            return low
        return low + self.next_unit() * (high - low)

    def choice_index(self, n: int) -> int:
        return self.next_u64() % n


def stream(seed: int, label: str) -> SplitMix64:
    """Derive the stream keyed by (seed, label).

    The stream state is the first 8 bytes (big-endian) of
    SHA-256(seed as 8-byte big-endian || label UTF-8).
    """
    raw = (seed & _MASK64).to_bytes(8, "big") + label.encode("utf-8")
    state = int.from_bytes(sha256(raw).digest()[:8], "big")
    return SplitMix64(state)
