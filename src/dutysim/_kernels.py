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
    """Read-only (2B, n) matrix: the B cos rows, then the B sin rows."""
    angles = 2.0 * np.pi * np.arange(n) / n
    idx = np.outer(np.asarray(bins, dtype=np.int64), np.arange(n)) % n
    basis = np.concatenate((np.cos(angles)[idx], np.sin(angles)[idx]))
    basis.setflags(write=False)
    return basis


def bin_powers(x: np.ndarray, bins: tuple[int, ...]) -> np.ndarray:
    """|X[b]|^2 of the 1D float64 window x for each b in bins."""
    proj = dft_basis(x.shape[0], bins) @ x
    re, im = proj[: len(bins)], proj[len(bins) :]
    return re * re + im * im
