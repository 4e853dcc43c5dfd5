"""Deterministic random-stream derivation.

Every sampling entry point in the package takes an explicit
``numpy.random.Generator``. Streams are built on the Philox counter-based
bit generator, keyed through a fixed 64-bit mixing function, so a replicate
or split indexed by integers always gets the same stream no matter how work
is scheduled across threads.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed mixing bijection on 64-bit integers."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mix(j: int) -> int:
    """The j-th output of the SplitMix64 sequence started from a zero state."""
    return mix64(((j + 1) * _GOLDEN) & _MASK)


def derive_seed(seed: int, *path: int) -> int:
    """Fold integer path components into a child key.

    Each component is absorbed as ``key = mix64(key XOR mix(component))``,
    so (seed, 3) and (seed, 4) are unrelated keys, and (seed, i, j) differs
    from (seed, j, i).
    """
    key = int(seed) & _MASK
    for part in path:
        key = mix64(key ^ mix(part))
    return key


def stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the derived key; distinct paths are independent."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *path)))
