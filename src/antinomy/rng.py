"""SplitMix64: the fixed pseudo-random generator behind all sampling.

Chosen because the whole algorithm fits in a dozen lines, has published
reference outputs to test against, and makes sub-stream derivation
trivial: sub-seed i of a batch is the i-th output of a SplitMix64
seeded with the batch seed, so batch items are independent of each
other and of how many items came before.

Each choice advances the stream by exactly one step, whatever its pool's
size. From a one-word pool it skips the output mix, since any output
picks the same word, so every later draw is what a full draw would give.
"""
from __future__ import annotations

from typing import Sequence, TypeVar

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit generator: state advances by a fixed gamma, output is mixed state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        state = self._state = (self._state + _GAMMA) & _MASK
        return _mix(state)

    def choice(self, pool: Sequence[T]) -> T:
        """Pick one element; pool order matters, so callers pass sorted pools."""
        if len(pool) == 1:
            # Any output picks pool[0]: step the state as next_u64 does, unmixed.
            self._state = (self._state + _GAMMA) & _MASK
            return pool[0]
        if not pool:
            raise IndexError("choice from empty pool")
        return pool[self.next_u64() % len(pool)]


def sub_seed(seed: int, index: int) -> int:
    """The index-th output (0-based) of SplitMix64 seeded with `seed`."""
    return _mix((seed + (index + 1) * _GAMMA) & _MASK)
