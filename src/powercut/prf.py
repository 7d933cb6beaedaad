"""Seeded 64-bit pseudorandom function and hierarchical seed derivation.

All randomness in the package that has to be replayable across processes
(edge levels, sketch hashing, field elements) flows through `prf`, keyed by
a single master seed.  The mixer is splitmix64: cheap, well distributed,
and easy to evaluate both on Python ints and on numpy uint64 arrays.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer on a Python int (one 64-bit word in, one out)."""
    z = (x + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def prf(seed: int, *words: int) -> int:
    """Keyed PRF: fold `words` into `seed`, one mix round per word.

    Deterministic across platforms; collisions behave like a random function
    for the desk-scale universes used here.
    """
    h = mix64(seed & MASK64)
    for w in words:
        h = mix64(h ^ mix64(w & MASK64))
    return h


# the mixer's words and shifts as numpy scalars, built once
_GAMMA_U, _MIX1_U, _MIX2_U = (np.uint64(c) for c in (_GAMMA, _MIX1, _MIX2))
_S27, _S30, _S31 = (np.uint64(s) for s in (27, 30, 31))


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 on a uint64 array (wraparound arithmetic)."""
    z = np.asarray(x, dtype=np.uint64) + _GAMMA_U
    z ^= z >> _S30
    z *= _MIX1_U
    z ^= z >> _S27
    z *= _MIX2_U
    z ^= z >> _S31
    return z


def prf_array(state: np.ndarray, *words) -> np.ndarray:
    """Continue `prf` chains elementwise: `prf_array(prf(s, *a), *b)` equals
    `prf(s, *a, *b)`, and `prf_array(mix64(s), *b)` equals `prf(s, *b)`.

    `state` is a uint64 array; each word is an int or an integer array, and
    all of them broadcast together.
    """
    h = np.asarray(state, dtype=np.uint64)
    for w in words:
        if isinstance(w, (int, np.integer)):
            mixed = np.uint64(mix64(int(w) & MASK64))
        else:
            mixed = mix64_array(np.asarray(w).astype(np.uint64))
        h = mix64_array(h ^ mixed)
    return h


def leading_ones_array(x: np.ndarray) -> np.ndarray:
    """Number of leading 1-bits of each 64-bit word, as int64.

    Leading ones of x are leading zeros of ~x, counted by a binary search
    over the top 32, 16, ..., 1 bits; ~x == 0 (x all ones) gives 64.
    """
    y = ~np.asarray(x, dtype=np.uint64)
    count = np.zeros(y.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        top_clear = (y >> np.uint64(64 - s)) == 0
        count += np.where(top_clear, s, 0)
        y = np.where(top_clear, y << np.uint64(s), y)
    return count + (y == 0)
