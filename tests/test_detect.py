import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim.detect import (
    DEFAULT_SAMPLE_RATE,
    DEFAULT_WINDOW,
    DetectorModel,
    GoertzelBank,
    bank_powers,
    default_bank,
    gate,
    gate_from_powers,
    goertzel_power,
    goertzel_spectrum,
    median_power,
    sample_detection,
    synthesize_tone,
)
from dutysim.rng import substream

from _oracles import assert_spectrum_close, goertzel_recurrence, naive_dft_power


def test_zero_signal():
    assert goertzel_power(np.zeros(1600), 200) == 0.0


def test_on_bin_cosine_closed_form():
    n = 1600
    k = 200
    x = np.cos(2.0 * np.pi * k * np.arange(n) / n)
    assert goertzel_power(x, k) == pytest.approx((n / 2.0) ** 2, rel=1e-9)


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
        goertzel_power(x, 801)
    with pytest.raises(ValueError, match="out of range"):
        goertzel_power(x, -1)
    with pytest.raises(ValueError, match="integer"):
        goertzel_spectrum(x, [200.5])
    goertzel_power(x, 0)
    goertzel_power(x, 800)


def test_window_len_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        goertzel_power(np.zeros(1600), 10, window_len=800)


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
    bank = default_bank()
    for b in bank.target_bins:
        assert bank.bin_for(bank.freq_of(b)) == b


def test_bank_validation():
    with pytest.raises(ValueError):
        GoertzelBank(target_bins=())
    with pytest.raises(ValueError):
        GoertzelBank(target_bins=(900,))  # beyond window/2
    with pytest.raises(ValueError, match="integer"):
        GoertzelBank(target_bins=(200.5,))
    with pytest.raises(ValueError):
        GoertzelBank(target_bins=(100,), window_len=0)


def test_median_lower_middle():
    assert median_power(np.array([1.0, 5.0, 9.0])) == 5.0
    assert median_power(np.array([4.0, 1.0, 3.0, 2.0])) == 2.0
    with pytest.raises(ValueError):
        median_power(np.array([]))


def test_gate_from_powers_examples():
    powers = np.array([1.0, 5.0, 9.0])
    assert gate_from_powers(powers, 4.0) is True
    assert gate_from_powers(powers, 5.0) is False


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
        assert goertzel_power(tone, 300) == pytest.approx(
            (amp * DEFAULT_WINDOW / 2.0) ** 2, rel=1e-9
        )


def test_synthesize_nyquist_validation():
    with pytest.raises(ValueError, match="Nyquist"):
        synthesize_tone(0.0, 1.0)
    with pytest.raises(ValueError, match="Nyquist"):
        synthesize_tone(8000.0, 1.0)  # exactly sample_rate/2
    with pytest.raises(ValueError, match="Nyquist"):
        synthesize_tone(-100.0, 1.0)


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
    assert_spectrum_close([goertzel_power(x, b) for b in bins], want, x)
    bank = GoertzelBank(window_len=n, target_bins=tuple(bins))
    assert_spectrum_close(bank_powers(bank, x), want, x)
