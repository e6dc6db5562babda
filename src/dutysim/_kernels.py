"""A stub kept for one reader: the benchmark's run metadata reads ``USING_NUMBA``.

No compiled kernels exist, so the flag is always False. The DFT basis that
lived here is now ``detect.dft_basis``; no package module imports this one.
It goes once the benchmark stops reading the flag.
"""

USING_NUMBA = False
