"""Detector microbenchmark through the public ``dutysim.detect`` functions.

Usage: python3 perfbench/microbench.py SECONDS

Times ``gate`` with the default 13-bin bank and ``goertzel_spectrum`` over
all 801 bins of one fixed 1600-sample window (a 4 kHz tone in unit noise),
and prints one JSON object: the median time per call of each, in
microseconds, the number of timed calls, and the multiply-adds each call
computes. The Goertzel recurrence s0 = x[n] + c*s1 - s2 does one
multiply-add per sample per bin, so a call on N samples and B bins computes
B*N (the final power per bin is not counted).
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np


def _median_us(fn, seconds: float) -> tuple[float, int]:
    fn()  # warm-up
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6, len(times)


def main(argv: list[str]) -> int:
    seconds = float(argv[0])
    from dutysim import detect

    bank = detect.default_bank()
    window = detect.synthesize_tone(
        4000.0, 1.0, bank.window_len, bank.sample_rate, noise_sd=1.0,
        rng=np.random.default_rng(12345),
    )
    all_bins = np.arange(bank.window_len // 2 + 1)
    gate_us, gate_n = _median_us(lambda: detect.gate(bank, window), seconds / 2)
    spectrum_us, spectrum_n = _median_us(
        lambda: detect.goertzel_spectrum(window, all_bins), seconds / 2
    )
    n = bank.window_len
    print(
        json.dumps(
            {
                "gate_us": gate_us,
                "gate_samples": gate_n,
                "gate_madds": len(bank.target_bins) * n,
                "gate_bins": len(bank.target_bins),
                "spectrum_us": spectrum_us,
                "spectrum_samples": spectrum_n,
                "spectrum_madds": len(all_bins) * n,
                "spectrum_bins": len(all_bins),
                "window_len": n,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
