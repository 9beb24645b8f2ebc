"""The package's random draws: SplitMix64 (Steele, Lea & Flood 2014,
OOPSLA) keyed as in Salmon et al. 2011 (SC), without numpy.random, whose
import loads OpenSSL."""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix(z):
    """SplitMix64's output function, in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def words(key: tuple, n: int) -> np.ndarray:
    """mix(s + i * GAMMA) for i = 1..n per key, in an array of shape (*shape,
    n). key holds non-negative ints and uint64 arrays, which broadcast to
    shape; s folds in their 64-bit limbs, lowest first, from 0 as
    s = mix((s ^ limb) + GAMMA). Only arrays are computed on: their
    arithmetic wraps, where numpy scalars' warns."""
    state = np.zeros(1, np.uint64)
    for part in key:
        if isinstance(part, np.ndarray):
            limbs = [part]
        elif part >= 0:
            part = int(part)
            limbs = [part >> s & (2**64 - 1) for s in range(0, max(1, part.bit_length()), 64)]
        else:
            raise ValueError(f"key part {part} is negative")
        for limb in limbs:
            state = _mix((state ^ np.asarray(limb, np.uint64)[..., None]) + _GAMMA)
    return _mix(state + _GAMMA * np.arange(1, n + 1, dtype=np.uint64))
