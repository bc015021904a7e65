"""Counter-based splittable RNG used everywhere randomness is needed.

The generator is SplitMix64-flavoured: a 64-bit state is advanced by the golden
ratio increment and each output passes through the standard 64-bit avalanche
finalizer (xor-shift 33, * 0xff51afd7ed558ccd, xor-shift 33,
* 0xc4ceb9fe1a85ec53, xor-shift 33).  Being counter-based makes every draw a
pure function of (seed, counter), which is what the bit-reproducibility
contract of the trajectory sampler leans on:

* per-trajectory seed: ``seed_i = mix64(seed XOR i)``
* draw k of trajectory i (k = 0 picks the initial site and eigenvector,
  k >= 1 picks steps):
  ``u = to_unit(mix64(seed_i + (k + 1) * GAMMA mod 2^64))``
* ``to_unit(x) = (x >> 11) * 2^-53`` in [0, 1).

Scalar and numpy-vectorized variants are provided; they agree bit for bit.
The vectorized draw takes an array of draw indices as well as one index, so
the trajectory engine fetches the draws of a whole block of steps, for every
stream, in one call; each draw is still the same pure function of
(stream seed, counter).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "mix64",
    "derive_seed",
    "derive_seeds",
    "unit_draw",
]

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xFF51AFD7ED558CCD
_MIX_MUL_2 = 0xC4CEB9FE1A85EC53


def mix64(x: int) -> int:
    """64-bit avalanche finalizer (scalar)."""
    x &= MASK64
    x ^= x >> 33
    x = (x * _MIX_MUL_1) & MASK64
    x ^= x >> 33
    x = (x * _MIX_MUL_2) & MASK64
    x ^= x >> 33
    return x


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` on uint64 arrays (wrapping arithmetic)."""
    return _mix64_in_place(np.array(x, dtype=np.uint64))


def _mix64_in_place(x: np.ndarray) -> np.ndarray:
    tmp = np.empty_like(x)
    shift = np.uint64(33)
    with np.errstate(over="ignore"):
        x ^= np.right_shift(x, shift, out=tmp)
        x *= np.uint64(_MIX_MUL_1)
        x ^= np.right_shift(x, shift, out=tmp)
        x *= np.uint64(_MIX_MUL_2)
        x ^= np.right_shift(x, shift, out=tmp)
    return x


def derive_seed(seed: int, index: int) -> int:
    """Per-trajectory seed: ``mix64(seed XOR index)``."""
    return mix64((seed ^ index) & MASK64)


def derive_seeds(seed: int, count: int) -> np.ndarray:
    """Vectorized :func:`derive_seed` for indices 0..count-1."""
    idx = np.arange(count, dtype=np.uint64)
    return mix64_array(np.uint64(seed & MASK64) ^ idx)


def to_unit(x: int) -> float:
    """Map a 64-bit word to a double in [0, 1) using its top 53 bits."""
    return (x >> 11) * 2.0**-53


def unit_draw(seed_i: int, k: int) -> float:
    """Draw k (0-based) of the stream rooted at ``seed_i``."""
    return to_unit(mix64((seed_i + (k + 1) * GAMMA) & MASK64))


def unit_draws_array(seeds: np.ndarray, k: int | np.ndarray) -> np.ndarray:
    """Draw ``k`` of every stream in ``seeds`` at once.

    ``k`` is one draw index for all streams or an array of indices taken
    elementwise with ``seeds``; either way the state is
    ``seed + (k + 1) * GAMMA mod 2^64``, so the draws equal :func:`unit_draw`.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    # One state array, updated in place and then overwritten by the draws
    # themselves: a block of draws allocates nothing else.
    state = np.add(np.asarray(k, dtype=np.uint64), np.uint64(1),
                   out=np.empty(seeds.shape, dtype=np.uint64))
    with np.errstate(over="ignore"):
        state *= np.uint64(GAMMA)
        state += seeds
    _mix64_in_place(state)
    state >>= np.uint64(11)
    return np.multiply(state, 2.0**-53, out=state.view(np.float64))

