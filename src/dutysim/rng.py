"""Deterministic random streams.

Every random draw in the package flows from a single 64-bit seed through
named substreams. A substream is addressed by a path of labels, e.g.
``substream(seed, "device", 3, "day", 7)``. The path is hashed (SHA-256)
together with the seed into a Philox key, so streams are independent and
stable: adding a device or a schedule does not perturb anyone else's draws.

Philox is a counter-based generator with 64-bit words, which keeps results
reproducible across platforms and numpy versions that ship the same bit
generator. A stream that is needed afresh many times, such as the network's
per-period pings stream, can be re-keyed with ``rekey``: that sets an existing
generator's key, zeroes its counter and empties its buffers, so it draws
exactly what a new ``substream`` with that path would. Building a new Philox
costs about 20 us, mostly OS entropy that the key then overwrites.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["rekey", "substream"]


def _key_for(seed: int, path: tuple) -> np.ndarray:
    if not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
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
    return np.random.Generator(np.random.Philox(key=_key_for(seed, path)))


def rekey(gen: np.random.Generator, seed: int, *path) -> np.random.Generator:
    """Reset ``gen``, a generator ``substream`` made, to the start of the named substream.

    Afterwards ``gen`` draws exactly what ``substream(seed, *path)`` would,
    whatever it drew before. Returns ``gen``.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": _key_for(seed, path)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
