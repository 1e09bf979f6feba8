"""Deterministic Gaussian sampling for reproducible problem generation.

The generator is a SplitMix64 integer stream fed through Box-Muller, so the
same seed produces bit-identical matrices on every platform and every
library version. All CLI problem generation and head perturbation noise
goes through this module; tests may use numpy's own generators freely.

The integer part is vectorised: numpy ``uint64`` multiply and add wrap mod
2^64, so a whole block of SplitMix64 words is computed at once. ``log``,
``cos`` and ``sin`` go through ``math`` one element at a time, because
numpy's vectorised versions are not guaranteed to round like the C library
(``np.log`` differs in the last bit on a few draws in a thousand); the
square root and the multiplies are correctly rounded either way, so every
draw is bit-identical to the scalar SplitMix64 + Box-Muller algorithm.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import check_count

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class GaussianStream:
    """Seeded stream of independent N(0, 1) draws.

    SplitMix64 supplies 64-bit words; each pair of words is mapped to two
    normals via Box-Muller (cosine first, then sine). An unused sine from
    an odd-sized draw is kept for the next call, so draw order alone
    determines the sequence, however the draws are split into matrices.
    """

    def __init__(self, seed: int):
        check_count("seed", seed, 0, 2**64)
        self._state = seed
        self._spare: float | None = None

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` SplitMix64 outputs as a uint64 array."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def _normal_pairs(self, pairs: int) -> np.ndarray:
        """``2 * pairs`` fresh normals, ordered cos, sin, cos, sin, ..."""
        words = self._words(2 * pairs)
        # u1 in (0, 1] keeps log() finite; u2 in [0, 1).
        u1 = ((words[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
        angle = (2.0 * math.pi * u2).tolist()
        out = np.empty((pairs, 2), dtype=np.float64)
        out[:, 0] = radius * np.fromiter(map(math.cos, angle), np.float64, pairs)
        out[:, 1] = radius * np.fromiter(map(math.sin, angle), np.float64, pairs)
        return out.ravel()

    def matrix(self, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
        """Row-major (rows, cols) matrix of N(0, scale^2) entries."""
        check_count("rows", rows)
        check_count("cols", cols)
        out = np.empty(rows * cols, dtype=np.float64)
        start = 0
        if self._spare is not None:
            out[0], self._spare = self._spare, None
            start = 1
        fresh = out.size - start
        if fresh:
            normals = self._normal_pairs((fresh + 1) // 2)
            out[start:] = normals[:fresh]
            if normals.size > fresh:
                self._spare = float(normals[-1])
        return scale * out.reshape(rows, cols)
