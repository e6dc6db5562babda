import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim import _kernels
from dutysim.detect import (
    DEFAULT_SAMPLE_RATE,
    DEFAULT_WINDOW,
    DetectorModel,
    GoertzelBank,
    default_bank,
    gate,
    goertzel_spectrum,
    sample_detection,
    synthesize_tone,
)
from dutysim.rng import substream

from _oracles import (
    assert_spectrum_close,
    goertzel_recurrence,
    naive_dft_power,
    outer_product_basis,
)


def test_zero_signal():
    assert goertzel_spectrum(np.zeros(1600), [200])[0] == 0.0


def test_on_bin_cosine_closed_form():
    n = 1600
    k = 200
    x = np.cos(2.0 * np.pi * k * np.arange(n) / n)
    assert goertzel_spectrum(x, [k])[0] == pytest.approx((n / 2.0) ** 2, rel=1e-9)


def test_matches_naive_dft_random_signals():
    rng = substream(0, "dft")
    for n in (160, 1600):
        bins = np.arange(n // 2 + 1)
        for _ in range(10):
            x = rng.normal(size=n)
            got = goertzel_spectrum(x, bins)
            want = naive_dft_power(x, bins)
            assert_spectrum_close(got, want, x)


def test_bin_out_of_range():
    x = np.zeros(1600)
    with pytest.raises(ValueError, match="out of range"):
        goertzel_spectrum(x, [801])
    with pytest.raises(ValueError, match="out of range"):
        goertzel_spectrum(x, [-1])
    with pytest.raises(ValueError, match="integer"):
        goertzel_spectrum(x, [200.5])
    for window in (np.zeros(0), np.zeros((2, 800))):
        with pytest.raises(ValueError, match="non-empty 1D"):
            goertzel_spectrum(window, [0])
    goertzel_spectrum(x, [0, 800])


def _full_circle_power_sum(x: np.ndarray) -> float:
    # Real input: |X_k|^2 = |X_{N-k}|^2, so bins above N/2 fold onto the
    # computed half.
    n = len(x)
    half = goertzel_spectrum(x, np.arange(n // 2 + 1))
    total = half[0] + 2.0 * np.sum(half[1 : (n + 1) // 2])
    if n % 2 == 0:
        total += half[n // 2]
    return float(total)


@pytest.mark.parametrize("n", [160, 161, 1600])
def test_parseval(n):
    x = substream(1, "parseval", n).normal(size=n)
    total = _full_circle_power_sum(x)
    assert total == pytest.approx(n * np.sum(x**2), rel=1e-6)


# -- bank and gate -----------------------------------------------------------


def test_default_bank_covers_2_to_8_khz():
    bank = default_bank()
    freqs = [bank.freq_of(b) for b in bank.target_bins]
    assert freqs == [2000.0 + 500.0 * i for i in range(13)]
    assert bank.sample_rate == DEFAULT_SAMPLE_RATE
    assert bank.window_len == DEFAULT_WINDOW


def test_bank_bin_freq_round_trip():
    # A tone at a bin's frequency peaks at that bin; a cosine, because the
    # top bin is the Nyquist bin, where a sine is zero.
    bank = default_bank()
    t = np.arange(bank.window_len) / bank.sample_rate
    for b in bank.target_bins:
        nearby = range(b - 2, min(b + 2, bank.window_len // 2) + 1)
        powers = goertzel_spectrum(np.cos(2.0 * np.pi * bank.freq_of(b) * t), nearby)
        assert nearby[int(np.argmax(powers))] == b


def test_bank_validation():
    with pytest.raises(ValueError):
        GoertzelBank(target_bins=())
    with pytest.raises(ValueError):
        GoertzelBank(target_bins=(900,))  # beyond window/2
    with pytest.raises(ValueError, match="integer"):
        GoertzelBank(target_bins=(200.5,))
    with pytest.raises(ValueError):
        GoertzelBank(target_bins=(100,), window_len=0)


def _bank_window(amplitudes, threshold):
    """A bank on bins 100, 200, ... and a window with one tone per bin.

    A tone of amplitude A on bin b has power (A * N / 2)^2, so the powers
    are in the ratio of the squared amplitudes.
    """
    bins = tuple(100 * (i + 1) for i in range(len(amplitudes)))
    bank = GoertzelBank(target_bins=bins, threshold=threshold)
    window = sum(synthesize_tone(bank.freq_of(b), a) for b, a in zip(bins, amplitudes))
    return bank, window


def test_median_lower_middle():
    unit = (DEFAULT_WINDOW / 2.0) ** 2  # power of a unit tone
    # Powers 1, 5, 9 (units): the median is 5.
    amps = np.sqrt([1.0, 5.0, 9.0])
    assert gate(*_bank_window(amps, 4.9 * unit)) is True
    assert gate(*_bank_window(amps, 5.1 * unit)) is False
    # Powers 4, 1, 3, 2: the lower middle is 2, not the mean 2.5 of the two
    # middle powers, nor the upper middle 3.
    amps = np.sqrt([4.0, 1.0, 3.0, 2.0])
    assert gate(*_bank_window(amps, 1.9 * unit)) is True
    assert gate(*_bank_window(amps, 2.1 * unit)) is False


def test_gate_fires_strictly_above_threshold():
    bank, window = _bank_window(np.sqrt([1.0, 5.0, 9.0]), 0.0)
    median = float(np.sort(goertzel_spectrum(window, bank.target_bins))[1])
    assert gate(GoertzelBank(target_bins=bank.target_bins, threshold=median), window) is False
    below = np.nextafter(median, 0.0)
    assert gate(GoertzelBank(target_bins=bank.target_bins, threshold=below), window) is True


def test_gate_on_bin_tone_fires_single_bin_bank():
    k = 400  # 4 kHz
    bank = GoertzelBank(target_bins=(k,), threshold=1e4)
    tone = synthesize_tone(bank.freq_of(k), 1.0)
    # Power (A*N/2)^2 = 640000 over threshold 1e4.
    assert gate(bank, tone) is True


def test_gate_midway_tone_stays_quiet():
    # Tone exactly between two covered bins lands on an uncovered integer
    # bin; orthogonality leaves zero leakage at both covered bins.
    bank = GoertzelBank(target_bins=(400, 404), threshold=1e4)
    tone = synthesize_tone(bank.freq_of(402), 1.0)
    assert gate(bank, tone) is False


def test_gate_wrong_window_length():
    with pytest.raises(ValueError, match="samples"):
        gate(default_bank(), np.zeros(100))
    with pytest.raises(ValueError, match="samples"):
        gate(default_bank(), np.zeros((DEFAULT_WINDOW, 3)))


@given(
    amp_low=st.floats(0.1, 5.0),
    amp_boost=st.floats(1.0, 4.0),
    k=st.sampled_from([100, 250, 400, 750]),
    n_bins=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_gate_monotone_in_amplitude(amp_low, amp_boost, k, n_bins):
    # Every bin power scales with amplitude squared, so firing at amplitude A
    # implies firing at any larger amplitude.
    bins = tuple(sorted({k + 7 * i for i in range(n_bins)}))
    bank = GoertzelBank(target_bins=bins, threshold=1e3)
    lo = gate(bank, synthesize_tone(bank.freq_of(k), amp_low))
    hi = gate(bank, synthesize_tone(bank.freq_of(k), amp_low * amp_boost))
    if lo:
        assert hi


# -- abstract detector -------------------------------------------------------


def test_sample_detection_oracle():
    model = DetectorModel(tp_rate=1.0, fp_rate=0.0)
    rng = substream(2, "oracle")
    assert sample_detection(model, True, rng) is True
    assert sample_detection(model, False, rng) is False
    # Rates of exactly 0/1 must leave the stream untouched.
    assert rng.random() == substream(2, "oracle").random()


def test_sample_detection_binomial():
    model = DetectorModel(tp_rate=0.85, fp_rate=0.0)
    rng = substream(3, "binom")
    n = 10**4
    hits = sum(sample_detection(model, True, rng) for _ in range(n))
    sigma = np.sqrt(n * 0.85 * 0.15)
    assert abs(hits - n * 0.85) <= 3.0 * sigma


def test_sample_detection_absent_with_zero_fp():
    model = DetectorModel(tp_rate=0.85, fp_rate=0.0)
    rng = substream(4, "fp")
    assert all(not sample_detection(model, False, rng) for _ in range(100))


def test_sample_detection_rejects_goertzel_kind():
    model = DetectorModel(kind="goertzel")
    with pytest.raises(ValueError):
        sample_detection(model, True, substream(0, "x"))


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(kind="cnn")
    with pytest.raises(ValueError):
        DetectorModel(tp_rate=1.5)
    with pytest.raises(ValueError):
        DetectorModel(event_bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        DetectorModel(noise_sd=-1.0)
    assert DetectorModel(kind="goertzel").bank is not None


# -- synthesis ---------------------------------------------------------------


def test_synthesize_zero_amplitude():
    assert np.all(synthesize_tone(1000.0, 0.0) == 0.0)


def test_synthesize_on_bin_power():
    bank = default_bank()
    for amp in (0.5, 1.0, 2.0):
        tone = synthesize_tone(bank.freq_of(300), amp)
        assert goertzel_spectrum(tone, [300])[0] == pytest.approx(
            (amp * DEFAULT_WINDOW / 2.0) ** 2, rel=1e-9
        )


def test_synthesize_nyquist_validation():
    with pytest.raises(ValueError, match="Nyquist"):
        synthesize_tone(0.0, 1.0)
    with pytest.raises(ValueError, match="Nyquist"):
        synthesize_tone(8000.0, 1.0)  # exactly sample_rate/2
    with pytest.raises(ValueError, match="Nyquist"):
        synthesize_tone(-100.0, 1.0)
    with pytest.raises(ValueError, match="n_samples and sample_rate must be positive"):
        synthesize_tone(1000.0, 1.0, n_samples=0)


def test_synthesize_noise_determinism():
    a = synthesize_tone(1000.0, 1.0, noise_sd=0.2, rng=substream(5, "n"))
    b = synthesize_tone(1000.0, 1.0, noise_sd=0.2, rng=substream(5, "n"))
    c = synthesize_tone(1000.0, 1.0, noise_sd=0.2, rng=substream(6, "n"))
    clean = synthesize_tone(1000.0, 1.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_allclose(a - clean, a - clean)  # noise is additive
    assert np.std((a - clean) - (c - clean)) > 0


def test_synthesize_noise_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        synthesize_tone(1000.0, 1.0, noise_sd=0.1)


# -- agreement with the device's recurrence -----------------------------------


@pytest.mark.parametrize("n", [160, 161, 1600])
def test_basis_matches_goertzel_recurrence(n):
    # Odd and even N; bin 0 and the top bin n // 2 (Nyquist when n is even).
    x = substream(7, "recurrence", n).normal(size=n)
    bins = sorted({0, 1, n // 4, n // 2 - 1, n // 2, *range(3, n // 2, 37)})
    want = goertzel_recurrence(x, bins)
    assert_spectrum_close(goertzel_spectrum(x, bins), want, x)
    assert_spectrum_close([goertzel_spectrum(x, [b])[0] for b in bins], want, x)
    # The gate's median agrees with the recurrence's.
    median = np.sort(want)[(len(want) - 1) // 2]
    for scale, fires in ((1 - 1e-6, True), (1 + 1e-6, False)):
        bank = GoertzelBank(window_len=n, target_bins=tuple(bins), threshold=median * scale)
        assert gate(bank, x) is fires


# -- the cached basis ---------------------------------------------------------

ALL_BINS = tuple(range(DEFAULT_WINDOW // 2 + 1))


@pytest.mark.parametrize(
    "n, bins",
    [
        (DEFAULT_WINDOW, (0,)),
        (DEFAULT_WINDOW, (DEFAULT_WINDOW // 2,)),
        (1601, (0, 1, 400, 799, 800)),
        (DEFAULT_WINDOW, default_bank().target_bins),
        (DEFAULT_WINDOW, ALL_BINS),
    ],
    ids=["bin_0", "nyquist", "odd_n", "default_bank", "all_801_bins"],
)
def test_basis_equals_outer_product_bitwise(n, bins):
    got = _kernels.dft_basis(n, bins)
    want = outer_product_basis(n, bins)
    assert got.shape == want.shape == (2 * len(bins), n)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not got.flags.writeable


@pytest.mark.parametrize(
    "bins", [default_bank().target_bins, ALL_BINS], ids=["default_bank", "all_801_bins"]
)
def test_basis_build_allocates_nothing_else_of_its_size(bins):
    # Beside the basis a build holds the cos and sin tables and two index
    # rows, each of length n; the outer-product build peaks at 2.5x the basis.
    n = DEFAULT_WINDOW
    _kernels.dft_basis.cache_clear()
    tracemalloc.start()
    try:
        basis = _kernels.dft_basis(n, bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _kernels.dft_basis.cache_info().misses == 1
    assert peak - basis.nbytes <= 4 * n * 8 + 4096
    if bins == ALL_BINS:
        assert peak <= 1.1 * basis.nbytes
