"""Every random draw in hydroloc: SplitMix64 streams.

SplitMix64 (Steele, Lea & Flood 2014, "Fast splittable pseudorandom
number generators") both derives stream seeds and draws from them.
child_seed mixes a master seed with purpose tags into a stream seed; a
Stream's draw k (k = 1, 2, ...) is the k-th SplitMix64 output from that
seed, so a stream is a counter, and its numbers depend on nothing
outside this module. A uniform is the top 53 bits, (x >> 11) * 2**-53,
in [0, 1); a normal is Box-Muller on two uniforms.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Stream", "box_muller", "child_seed"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_UNIT = 2.0**-53
_TWO_PI = 2.0 * math.pi


def _splitmix64(x: int) -> int:
    """The SplitMix64 output that follows state x."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK64
    return x ^ (x >> 31)


def child_seed(master: int, *tags: int) -> int:
    """Derive an independent 64-bit stream seed from the master seed."""
    x = master & _MASK64
    for tag in tags:
        x = _splitmix64((x + (tag & _MASK64)) & _MASK64)
    return x


def box_muller(u1, u2):
    """Standard normals sqrt(-2 log1p(-u1)) cos(2 pi u2) of uniforms in [0, 1).

    numpy's log1p can differ from math.log1p in the last bit, so floats
    go through the same ufuncs as arrays.
    """
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(_TWO_PI * u2)


class Stream:
    """The SplitMix64 stream from a seed: draw k is the k-th output from it.

    random and standard_normal return a float when size is None and an
    array of shape size (a tuple) otherwise; the array equals as many
    float draws, in order, to the bit. Arrays are mixed in numpy uint64
    arithmetic, which wraps silently; floats in Python ints, because a
    numpy uint64 scalar warns when it wraps.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def _bits(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array."""
        x = np.arange(1, n + 1, dtype=np.uint64)
        x *= _GAMMA
        x += self._state
        self._state = (self._state + n * _GAMMA) & _MASK64
        shifted = np.empty_like(x)
        x ^= np.right_shift(x, 30, out=shifted)
        x *= _MUL1
        x ^= np.right_shift(x, 27, out=shifted)
        x *= _MUL2
        x ^= np.right_shift(x, 31, out=shifted)
        return x

    def random(self, size=None):
        """Uniforms in [0, 1), one per draw."""
        if size is None:
            x = _splitmix64(self._state)
            self._state = (self._state + _GAMMA) & _MASK64
            return (x >> 11) * _UNIT
        return ((self._bits(math.prod(size)) >> 11) * _UNIT).reshape(size)

    def standard_normal(self, size=None):
        """Standard normals, two draws each (box_muller of consecutive uniforms)."""
        if size is None:
            u1 = self.random()
            return float(box_muller(u1, self.random()))
        u = self.random((math.prod(size), 2))
        return box_muller(u[:, 0], u[:, 1]).reshape(size)
