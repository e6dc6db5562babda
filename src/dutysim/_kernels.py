"""Cached DFT basis for the tone detector's filter bank.

The power of a window x at bin b is |X[b]|^2 = (C x)_b^2 + (S x)_b^2, where
C[b, n] = cos(2 pi b n / N) and S[b, n] = sin(2 pi b n / N). Every row is read
from one length-N cos/sin table at index (b * n) mod N, so each angle is
reduced exactly before its cosine is taken. Bases are built on first use and
cached per (window_len, bins); nothing is computed at import time.

``USING_NUMBA`` is always False: no compiled kernels exist, and the
benchmark's run metadata reads the flag.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

USING_NUMBA = False


@lru_cache(maxsize=8)
def dft_basis(n: int, bins: tuple[int, ...]) -> np.ndarray:
    """Read-only (2B, n) matrix: the B cos rows, then the B sin rows.

    Each row is gathered from the tables straight into the one array kept, so
    the build allocates nothing else of that size: beside it, only the cos
    and sin tables and two index rows, each of length n.
    """
    angles = np.arange(n, dtype=np.float64)
    angles *= 2.0 * np.pi
    angles /= n
    cos, sin = np.cos(angles), np.sin(angles, out=angles)
    basis = np.empty((2 * len(bins), n))
    steps = np.arange(n)
    idx = np.empty_like(steps)
    for row, b in enumerate(bins):
        np.remainder(np.multiply(steps, b, out=idx), n, out=idx)
        np.take(cos, idx, out=basis[row], mode="clip")
        np.take(sin, idx, out=basis[len(bins) + row], mode="clip")
    basis.setflags(write=False)
    return basis


def bin_powers(x: np.ndarray, bins: tuple[int, ...]) -> np.ndarray:
    """|X[b]|^2 of the 1D float64 window x for each b in bins."""
    proj = dft_basis(x.shape[0], bins) @ x
    re, im = proj[: len(bins)], proj[len(bins) :]
    return re * re + im * im
