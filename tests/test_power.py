import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim.errors import ActivityLogError
from dutysim.power import (
    MODES,
    LogEntry,
    PowerProfile,
    charge_consumed,
    charge_from_ticks,
    lifetime_years,
    to_ticks,
    validate_log,
)
from dutysim.rng import substream

from _oracles import MS, integrate_log_1ms, random_ms_log


def _entry(mode: str, start: float, duration: float) -> LogEntry:
    """A log entry given in seconds."""
    return LogEntry(mode, to_ticks(start), to_ticks(duration))


def test_profile_defaults_match_measurements():
    p = PowerProfile()
    assert p.i_sleep == 0.097
    assert p.i_record_3s == 31.57
    assert p.i_probe_goertzel == 32.34
    assert p.i_probe_tflite == 33.11
    assert p.i_camera == 49.33
    assert p.i_tx_audio == 61.33
    assert p.i_tx_image == 97.73
    assert p.i_ql_infer == 0.031
    assert p.i_ql_update == 0.071
    assert p.battery_mah == 13400.0
    assert p.camera_trigger_ratio == pytest.approx(1.0 / 3.0)
    assert p.d_probe == 0.13  # 0.1 s record + 0.03 s detector latency


def test_profile_validation():
    with pytest.raises(ValueError):
        PowerProfile(i_sleep=-0.1)
    with pytest.raises(ValueError):
        PowerProfile(d_probe=0.0)
    with pytest.raises(ValueError):
        PowerProfile(battery_mah=0.0)
    with pytest.raises(ValueError):
        PowerProfile(camera_trigger_ratio=1.5)
    with pytest.raises(ValueError):
        PowerProfile(probe_detector="cnn")
    with pytest.raises(ValueError):
        PowerProfile(probe_record_s=0.2, d_probe=0.13)


@pytest.mark.parametrize(
    "name", ["d_probe", "d_ql", "d_tx_audio", "d_tx_image", "d_camera", "d_ping", "probe_record_s"]
)
def test_durations_that_round_to_zero_ticks_are_rejected_by_name(name):
    with pytest.raises(ValueError, match=f"{name} must be at least 1 ns"):
        PowerProfile(**{name: 4e-10})


def test_durations_in_ticks():
    p = PowerProfile(d_probe=0.13, false_alarm_record_s=0.0)
    assert p.ticks["d_probe"] == 130_000_000
    assert p.ticks["probe_record_s"] == 100_000_000
    assert p.ticks["false_alarm_record_s"] == 0
    assert to_ticks(1.5e-9) == 2 and to_ticks(2.5e-9) == 2  # ties to even


def test_profile_current_lookup():
    p = PowerProfile()
    assert p.current("sleep") == 0.097
    assert p.current("probe") == 32.34
    assert p.current("event_record") == 31.57
    assert p.current("ping") == p.i_ping
    assert PowerProfile(probe_detector="tflite").current("probe") == 33.11
    with pytest.raises(ValueError, match="mode"):
        p.current("laser")


@pytest.mark.parametrize("probe_detector", ["goertzel", "tflite"])
def test_mode_currents_list_modes_in_order(probe_detector):
    # charge_from_ticks adds one term per mode in this dict's order, so
    # MODES order keeps every charge's bits.
    p = PowerProfile(probe_detector=probe_detector)
    assert tuple(p._current_by_mode) == MODES
    assert list(p._current_by_mode.values()) == [p.current(m) for m in MODES]


@given(st.lists(st.integers(0, 2**62), min_size=len(MODES), max_size=len(MODES)))
@settings(max_examples=50, deadline=None)
def test_charge_from_ticks_adds_the_modes_in_order(ticks):
    p = PowerProfile()
    by_mode = dict(zip(MODES, ticks))
    want = 0.0
    for mode in MODES:
        want += p.current(mode) * by_mode[mode] / 3.6e12
    assert charge_from_ticks(by_mode, p).hex() == want.hex()


# -- charge_consumed ---------------------------------------------------------


def test_hour_of_sleep():
    log = [_entry("sleep", 0.0, 3600.0)]
    assert charge_consumed(log, PowerProfile()) == pytest.approx(0.097)


def test_sleep_with_one_recording():
    log = [
        _entry("sleep", 0.0, 1000.0),
        _entry("event_record", 1000.0, 3.0),
        _entry("sleep", 1003.0, 2597.0),
    ]
    expect = (3597.0 * 0.097 + 3.0 * 31.57) / 3600.0
    got = charge_consumed(log, PowerProfile(), span=to_ticks(3600.0))
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(0.1232275, rel=1e-6)


def test_empty_log_is_zero():
    assert charge_consumed([], PowerProfile()) == 0.0


def test_overlap_rejected():
    log = [_entry("sleep", 0.0, 10.0), _entry("probe", 9.5, 0.13)]
    with pytest.raises(ActivityLogError, match="overlap"):
        charge_consumed(log, PowerProfile())


def test_gap_rejected():
    log = [_entry("sleep", 0.0, 10.0), _entry("probe", 11.0, 0.13)]
    with pytest.raises(ActivityLogError, match="gap"):
        charge_consumed(log, PowerProfile())


def test_span_mismatch_rejected():
    log = [_entry("sleep", 0.0, 10.0)]
    with pytest.raises(ActivityLogError, match="span"):
        charge_consumed(log, PowerProfile(), span=to_ticks(20.0))


def test_negative_duration_rejected():
    with pytest.raises(ActivityLogError, match="negative"):
        validate_log([_entry("sleep", 0.0, -1.0)])


def test_validate_sorts_entries():
    log = [_entry("probe", 10.0, 0.5), _entry("sleep", 0.0, 10.0)]
    out = validate_log(log)
    assert [e.mode for e in out] == ["sleep", "probe"]


def test_additive_over_concatenation():
    p = PowerProfile()
    first = [_entry("sleep", 0.0, 100.0), _entry("probe", 100.0, 0.13)]
    second = [_entry("event_record", 100.13, 3.0), _entry("sleep", 103.13, 50.0)]
    total = charge_consumed(first + second, p)
    assert total == pytest.approx(charge_consumed(first, p) + charge_consumed(second, p))


def test_order_invariance():
    p = PowerProfile()
    log = [
        _entry("sleep", 0.0, 5.0),
        _entry("probe", 5.0, 0.13),
        _entry("event_record", 5.13, 2.0),
        _entry("sleep", 7.13, 10.0),
    ]
    shuffled = [log[2], log[0], log[3], log[1]]
    assert charge_consumed(shuffled, p) == charge_consumed(log, p)


def test_oracle_1ms_agreement():
    p = PowerProfile()
    rng = substream(11, "logs")
    for _ in range(20):
        log = random_ms_log(rng, p, int(rng.integers(5, 40)))
        got = charge_consumed(log, p)
        want = integrate_log_1ms(log, p)
        assert got == pytest.approx(want, rel=1e-6)


def test_monotone_in_activity():
    # Swapping a sleep stretch for an active mode cannot reduce charge, for
    # modes that actually draw more than sleep. The measured ql_infer,
    # ql_update, and ping currents sit below the deep-sleep draw, so the
    # premise (and hence the guarantee) excludes them.
    p = PowerProfile()
    base_charge = charge_consumed([_entry("sleep", 0.0, 3600.0)], p)
    checked = 0
    for mode in MODES:
        if mode == "sleep" or p.current(mode) <= p.i_sleep:
            continue
        log = [
            _entry("sleep", 0.0, 1000.0),
            _entry(mode, 1000.0, 10.0),
            _entry("sleep", 1010.0, 2590.0),
        ]
        assert charge_consumed(log, p) >= base_charge
        checked += 1
    assert checked >= 5  # probe, event_record, camera, both tx modes


@given(st.lists(st.sampled_from(MODES), min_size=1, max_size=20), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_charge_is_sum_of_parts(modes, seed):
    p = PowerProfile()
    rng = np.random.default_rng(seed)
    t = 0
    log = []
    for mode in modes:
        d = int(rng.integers(1, 3000)) * MS
        log.append(LogEntry(mode, t, d))
        t += d
    expect = sum(p.current(e.mode) * e.duration / 1e9 / 3600.0 for e in log)
    assert charge_consumed(log, p) == pytest.approx(expect, rel=1e-12)


# -- lifetime ----------------------------------------------------------------


def test_sleep_lifetime():
    assert lifetime_years(0.097, 13400.0) == pytest.approx(15.76, abs=0.005)
    assert lifetime_years(0.097, 13400.0) == pytest.approx(13400.0 / 0.097 / 8766.0)


def test_busy_schedule_lifetime():
    # A short fixed wake interval averages about 2.2 mA and drains the
    # pack in well under a year.
    assert lifetime_years(2.217, 13400.0) == pytest.approx(0.69, abs=0.005)


def test_lifetime_linearity():
    full = lifetime_years(1.5, 13400.0)
    assert lifetime_years(1.5, 6700.0) == pytest.approx(full / 2.0, rel=1e-12)


def test_lifetime_rejects_bad_current():
    with pytest.raises(ValueError):
        lifetime_years(0.0, 13400.0)
    with pytest.raises(ValueError):
        lifetime_years(-1.0, 13400.0)
    with pytest.raises(ValueError):
        lifetime_years(1.0, 0.0)
