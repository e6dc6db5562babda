"""Acoustic event gate built on a Goertzel filter bank.

The detector evaluates squared DFT magnitudes at a small set of target bins,
the quantities the device's Goertzel recurrence (s0 = x[n] + 2*cos(w)*s1 - s2)
computes at O(N) per bin instead of a full transform. Here they come from one
product of the window with a cached cos/sin basis of the bins (see
``_kernels``): ``goertzel_spectrum`` returns them for any bins of a window,
and ``gate`` flags a window as an event when the lower-middle median of its
bank powers strictly exceeds the bank's threshold.

An abstract detector model (true/false positive rates) stands in for the
filter bank when simulating schedules; both share the DetectorModel type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels

__all__ = [
    "GoertzelBank",
    "DetectorModel",
    "goertzel_spectrum",
    "gate",
    "sample_detection",
    "synthesize_tone",
    "default_bank",
]

DEFAULT_SAMPLE_RATE = 16000
DEFAULT_WINDOW = 1600  # 0.1 s at 16 kHz


@dataclass(frozen=True)
class GoertzelBank:
    """Target bins plus the gate threshold.

    Bins index the DFT of a window_len-sample frame at sample_rate, so bin b
    sits at b * sample_rate / window_len Hz.
    """

    sample_rate: int = DEFAULT_SAMPLE_RATE
    window_len: int = DEFAULT_WINDOW
    target_bins: tuple[int, ...] = ()
    threshold: float = 1e4

    def __post_init__(self):
        if self.sample_rate <= 0 or self.window_len <= 0:
            raise ValueError("sample_rate and window_len must be positive")
        if not self.target_bins:
            raise ValueError("target_bins must not be empty")
        for b in self.target_bins:
            _check_bin(b, self.window_len)

    def freq_of(self, bin_idx: int) -> float:
        return bin_idx * self.sample_rate / self.window_len


def default_bank(threshold: float = 1e4) -> GoertzelBank:
    """2 to 8 kHz in 500 Hz steps at 16 kHz / 1600-sample windows."""
    bins = tuple(
        int(round(f * DEFAULT_WINDOW / DEFAULT_SAMPLE_RATE))
        for f in range(2000, 8001, 500)
    )
    return GoertzelBank(target_bins=bins, threshold=threshold)


@dataclass(frozen=True)
class DetectorModel:
    """Either the real filter-bank gate or an abstract tp/fp-rate stand-in.

    kind "abstract": a probe with an event present fires with probability
    tp_rate, one without fires with probability fp_rate. kind "goertzel":
    the probe window is synthesized (each overlapping event contributes
    tones at the bank frequencies within event_bandwidth_hz of its band,
    plus Gaussian noise) and run through the gate. A narrow bandwidth
    therefore makes off-band events invisible to the median gate. The gate
    is the default bank, with its threshold replaced when one is set.
    """

    kind: str = "abstract"
    tp_rate: float = 1.0
    fp_rate: float = 0.0
    noise_sd: float = 0.0
    tone_amplitude: float = 1.0
    default_band: float = 4000.0
    event_bandwidth_hz: float = 4000.0
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in ("abstract", "goertzel"):
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not 0 <= self.tp_rate <= 1 or not 0 <= self.fp_rate <= 1:
            raise ValueError("tp_rate and fp_rate must lie in [0, 1]")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.event_bandwidth_hz <= 0:
            raise ValueError("event_bandwidth_hz must be positive")

    @cached_property
    def bank(self) -> GoertzelBank:
        return default_bank() if self.threshold is None else default_bank(self.threshold)

    @property
    def fixed_fp_rate(self) -> float | None:
        """Chance that a probe with no event present fires, if it is fixed.

        Abstract models fire at fp_rate whatever the window holds; the
        Goertzel gate's answer depends on each window's noise, so it has
        no fixed rate (None).
        """
        return self.fp_rate if self.kind == "abstract" else None


def _check_bin(bin_idx: int, window_len: int) -> None:
    if bin_idx != int(bin_idx):
        raise ValueError(f"bin {bin_idx} is not an integer")
    if not 0 <= bin_idx <= window_len // 2:
        raise ValueError(
            f"bin {bin_idx} out of range [0, {window_len // 2}] for window {window_len}"
        )


def goertzel_spectrum(samples: np.ndarray, bins) -> np.ndarray:
    """Powers at several bins of one window."""
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("samples must be a non-empty 1D array")
    bins = np.asarray(bins).tolist()
    for b in bins:
        _check_bin(b, x.shape[0])
    return _kernels.bin_powers(x, tuple(map(int, bins)))


def gate(bank: GoertzelBank, samples: np.ndarray) -> bool:
    """Event iff the lower-middle median bank power strictly exceeds the threshold.

    The lower-middle median of B powers is element (B - 1) // 2 of them
    sorted, so with an even bin count the lower middle power decides.
    """
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.shape != (bank.window_len,):
        raise ValueError(
            f"expected {bank.window_len} samples, got shape {x.shape}"
        )
    powers = np.sort(_kernels.bin_powers(x, bank.target_bins))
    return bool(powers[(powers.size - 1) // 2] > bank.threshold)


def sample_detection(model: DetectorModel, present: bool, rng: np.random.Generator) -> bool:
    """Draw one abstract detector outcome for a probe.

    Rates of exactly 0 or 1 consume no randomness.
    """
    if model.kind != "abstract":
        raise ValueError("sample_detection applies to abstract detector models")
    rate = model.tp_rate if present else model.fp_rate
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return bool(rng.random() < rate)


def synthesize_tone(
    freq_hz: float,
    amplitude: float,
    n_samples: int = DEFAULT_WINDOW,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    noise_sd: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """amplitude * sin(2 pi f t) plus optional Gaussian noise."""
    if n_samples <= 0 or sample_rate <= 0:
        raise ValueError("n_samples and sample_rate must be positive")
    if not 0.0 < freq_hz < sample_rate / 2.0:
        raise ValueError(
            f"frequency {freq_hz} Hz outside (0, {sample_rate / 2:g}) Nyquist range"
        )
    t = np.arange(n_samples, dtype=np.float64) / sample_rate
    out = amplitude * np.sin(2.0 * np.pi * freq_hz * t)
    if noise_sd > 0:
        if rng is None:
            raise ValueError("noise_sd > 0 needs an rng")
        out = out + rng.normal(0.0, noise_sd, size=n_samples)
    return out
