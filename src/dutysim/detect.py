"""The detector: a Goertzel filter-bank gate, its abstract stand-in, and the probe.

The detector evaluates squared DFT magnitudes at a small set of target bins,
the quantities the device's Goertzel recurrence (s0 = x[n] + 2*cos(w)*s1 - s2)
computes at O(N) per bin instead of a full transform. Here they come from one
product of the window with a cached basis of the bins: the power of a window
x at bin b is |X[b]|^2 = (C x)_b^2 + (S x)_b^2, where C[b, n] = cos(2 pi b n
/ N) and S[b, n] = sin(2 pi b n / N). ``dft_basis`` reads every row from one
length-N cos/sin table at index (b * n) mod N, so each angle is reduced
exactly before its cosine is taken; bases are built on first use and cached
per (window_len, bins), and nothing is computed at import time.
``goertzel_spectrum`` returns the powers for any bins of a window, and
``gate`` flags a window as an event when the lower-middle median of its bank
powers strictly exceeds the bank's threshold.

An abstract detector model (true/false positive rates) stands in for the
filter bank when simulating schedules; both share the DetectorModel type.
``make_probe_fn`` turns either kind into the probe the simulator calls at
each wake: an abstract draw, or a window synthesized from the heard events'
tones and noise and put through one ``gate`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import check_fields

__all__ = [
    "GoertzelBank",
    "DetectorModel",
    "goertzel_spectrum",
    "gate",
    "sample_detection",
    "make_probe_fn",
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
        check_fields(self, ValueError)
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
        check_fields(self, ValueError)
        if self.kind not in ("abstract", "goertzel"):
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not 0 <= self.tp_rate <= 1 or not 0 <= self.fp_rate <= 1:
            raise ValueError("tp_rate and fp_rate must lie in [0, 1]")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.event_bandwidth_hz <= 0:
            raise ValueError("event_bandwidth_hz must be positive")
        if self.default_band <= 0:  # as an event's own band must be (EventTrace)
            raise ValueError("default_band must be positive")

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


def goertzel_spectrum(samples: np.ndarray, bins) -> np.ndarray:
    """Powers at several bins of one window."""
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("samples must be a non-empty 1D array")
    bins = np.asarray(bins).tolist()
    for b in bins:
        _check_bin(b, x.shape[0])
    return bin_powers(x, tuple(map(int, bins)))


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
    powers = np.sort(bin_powers(x, bank.target_bins))
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


def make_probe_fn(model: DetectorModel):
    """Turn a DetectorModel into probe(bands, rng) -> bool.

    ``bands`` lists the dominant band of each event overlapping the record
    window (NaN for untagged events). Abstract models with rates of exactly
    0 or 1 consume no randomness.
    """
    if model.kind == "abstract":

        def probe_fn(bands, rng):
            return sample_detection(model, bool(bands), rng)

        return probe_fn

    bank = model.bank
    amplitude = model.tone_amplitude
    noise_sd = model.noise_sd
    default_band = model.default_band
    half_bw = model.event_bandwidth_hz / 2.0
    nyquist = bank.sample_rate / 2.0
    t = np.arange(bank.window_len, dtype=np.float64) / bank.sample_rate

    def _tone(f):
        return amplitude * np.sin(2.0 * np.pi * f * t)

    bank_tones = [(f, _tone(f)) for f in map(bank.freq_of, bank.target_bins)]

    def _event_tones(band):
        center = default_band if math.isnan(band) else band
        tones = [tone for f, tone in bank_tones if abs(f - center) <= half_bw]
        if tones:
            return tones
        # Out-of-bank event: its energy is in the air but the filter bank
        # mostly ignores it, so the median gate will usually stay quiet.
        if 0.0 < center < nyquist:
            return [_tone(center)]
        return []

    def probe_fn(bands, rng):
        window = np.zeros(bank.window_len)
        for band in bands:
            for tone in _event_tones(band):
                window += tone
        if noise_sd > 0:
            window += rng.normal(0.0, noise_sd, size=bank.window_len)
        return gate(bank, window)

    return probe_fn


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
