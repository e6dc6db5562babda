"""Deterministic random streams.

Every random draw in the package flows from a single 64-bit seed through
named substreams. A substream is addressed by a path of labels, e.g.
``substream(seed, "device", 3, "day", 7)``. The path is hashed (SHA-256)
together with the seed into a Philox key, so streams are independent and
stable: adding a device or a schedule does not perturb anyone else's draws.

Philox is a counter-based generator with 64-bit words, which keeps results
reproducible across platforms and numpy versions that ship the same bit
generator.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["substream"]


def _key_for(seed: int, path: tuple) -> np.ndarray:
    h = hashlib.sha256()
    h.update(struct.pack("<Q", seed))
    for part in path:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    digest = h.digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def substream(seed: int, *path) -> np.random.Generator:
    """Return a Generator for the named substream of ``seed``.

    The same (seed, path) always yields the same stream; distinct paths
    yield independent streams. The seed is a 64-bit word, in [0, 2**64).
    """
    if not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=_key_for(seed, path)))
