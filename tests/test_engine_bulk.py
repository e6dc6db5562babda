"""Bulk billing of quiet wakes against the per-wake reference engine.

Each property runs the same inputs through TimelineEngine and through
``_oracles.PerWakeEngine`` (the one-probe-per-wake loop, one ping at a
time) and asserts equal results: period stats, per-mode ticks, charge to
the bit, busy frontier, pending wake, detections, logs and the position of
every day's random stream; a TimelineEngine that keeps no log must agree
on all but the log. It then checks the engine invariants: the log tiles the span
in ticks, the online charge equals the charge recomputed from the log, no
more events are detected than there are, and after each period every event
detected so far has ended by the engine clock t, unless t is at the horizon.

On a whole-millisecond grid, where event edges meet wakes and record
window ends exactly, one more property runs the same equality check with
bulk-billed detectors, and another checks the window rule as the engine
calls it, from its event pointer: each probe hears the events that
``_oracles.events_in_window_scan`` finds in its record window.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dutysim import collab, sim
from dutysim.collab import run_network
from dutysim.config import DeviceNode, NetworkConfig
from dutysim.detect import DetectorModel
from dutysim.errors import ScheduleError
from dutysim.power import TICKS_PER_S, PowerProfile, charge_consumed, to_ticks, validate_log
from dutysim.qsched import ActionSpace, Hyperparameters, QTable
from dutysim.sim import (
    FixedSchedule,
    GreedySchedule,
    TimelineEngine,
    _day_rng_provider,
    run_schedule,
    train_qlearn,
)
from dutysim.trace import (
    SECONDS_PER_DAY,
    DiurnalProfile,
    Event,
    generate_trace,
    make_trace,
)

from _oracles import PerWakeEngine, events_in_window_scan, stream_position, two_peak_rates

PROFILES = (
    PowerProfile(),
    PowerProfile(probe_record_s=0.13),  # record window as long as the probe
    PowerProfile(d_probe=0.5, probe_record_s=0.2, false_alarm_record_s=0.0),
)
FP_RATES = (0.0, 0.001, 0.02, 0.1, 0.3, 1.0)


def awkward_intervals(d_probe: float) -> tuple[float, ...]:
    return tuple(v for v in (0.3, 7.1, d_probe + 1e-9, 3.0, 1800.0) if v > d_probe)


def bits(x) -> str:
    return float(x).hex()


@contextlib.contextmanager
def per_wake_engine():
    """Run the package's entry points on the per-wake reference engine."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "TimelineEngine", PerWakeEngine)
        mp.setattr(collab, "TimelineEngine", PerWakeEngine)
        yield


def assert_log_invariants(log, charge_mah, profile, span):
    """``span`` in ticks."""
    validate_log(log, span=span)
    assert bits(charge_consumed(log, profile, span=span)) == bits(charge_mah)


# -- the engine itself ------------------------------------------------------


@st.composite
def engine_cases(draw):
    profile = draw(st.sampled_from(PROFILES))
    t_begin = draw(st.sampled_from([0.0, 0.07, 5000.3, SECONDS_PER_DAY - 1500.25]))
    t_end = t_begin + draw(st.floats(30.0, 7200.0))
    # Either the engine window ends at the trace horizon or events run past it.
    horizon = t_end + draw(st.sampled_from([0.0, 0.05, 600.0]))
    events = []
    for i in range(draw(st.integers(0, 25))):
        start = draw(st.floats(max(0.0, t_begin - 60.0), t_end - 0.01))
        duration = draw(st.one_of(st.floats(0.01, 5.0), st.floats(5.0, 400.0)))
        duration = min(duration, horizon - start)
        # start + (horizon - start) can round past the horizon.
        if duration > 0 and start + duration <= horizon:
            events.append(Event(id=i, start=start, duration=duration))
    trace = make_trace(events, horizon=horizon)
    detector = DetectorModel(
        tp_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
        fp_rate=draw(st.sampled_from(FP_RATES)),
    )
    interval = st.one_of(
        st.sampled_from(awkward_intervals(profile.d_probe)),
        st.floats(profile.d_probe * 1.001, 900.0),
    )
    periods = []
    p_start = t_begin
    while p_start < t_end:
        p_end = min(p_start + draw(st.floats(300.0, 4000.0)), t_end)
        bill = draw(st.sampled_from([None, "ql_infer", "ql_update", 1, 3]))  # int: pings
        periods.append((p_start, p_end, draw(interval), bill))
        p_start = p_end
    return profile, trace, t_begin, t_end, detector, periods, draw(st.integers(0, 2**16))


def _engine(cls, profile, trace, t_begin, t_end, detector, seed):
    return cls(
        trace, t_begin, t_end, profile, detector, _day_rng_provider(seed, 0), collect_log=True
    )


def assert_engines_agree(profile, trace, t_begin, t_end, detector, periods, seed):
    fast = _engine(TimelineEngine, profile, trace, t_begin, t_end, detector, seed)
    slow = _engine(PerWakeEngine, profile, trace, t_begin, t_end, detector, seed)
    # Without a log, quiet runs and pings are billed as tick sums only.
    bare = TimelineEngine(
        trace, t_begin, t_end, profile, detector, _day_rng_provider(seed, 0)
    )
    engines = (fast, slow, bare)
    detected = {e: [] for e in engines}  # each engine's rows, from its period stats
    for p_start, p_end, interval, bill in periods:
        if bill == "ql_infer":
            for e in engines:
                e.bill_ql(bill, p_start)
        got, want, got_bare = (e.run_period(p_end, interval) for e in engines)
        for e, stats in zip(engines, (got, want, got_bare)):
            detected[e] += stats.detected
            # The engine's dedupe rule: every detected event has ended by t,
            # or t is at the horizon, and later wakes come at or after t.
            assert e.t == e.horizon or all(e.ends[k] <= e.t for k in detected[e])
        if bill == "ql_update":
            for e in engines:
                e.bill_ql(bill, p_end)
        elif isinstance(bill, int):
            for e in engines:
                e.bill_pings(bill, p_end)
        assert got == want == got_bare
        assert fast.ticks_by_mode == slow.ticks_by_mode == bare.ticks_by_mode
        assert bits(fast.charge_mah) == bits(slow.charge_mah) == bits(bare.charge_mah)
        assert fast.t == slow.t == bare.t
        assert fast.next_wake == slow.next_wake == bare.next_wake
        assert fast.cam_acc == slow.cam_acc == bare.cam_acc
    for e in engines:
        e.finish()
    assert bare.ticks_by_mode == fast.ticks_by_mode
    assert detected[bare] == detected[fast]
    assert detected[fast] == detected[slow]
    assert fast.log == slow.log
    assert all(type(e.start) is int and type(e.duration) is int for e in fast.log)
    for day in range(int(t_begin // SECONDS_PER_DAY), int(t_end // SECONDS_PER_DAY) + 1):
        assert stream_position(fast.rng_for_day(day)) == stream_position(
            slow.rng_for_day(day)
        )

    assert_log_invariants(fast.log, fast.charge_mah, profile, fast.horizon - fast.t_begin)
    ids = trace.ids[detected[fast]].tolist()
    in_window = {ev.id for ev in events_in_window_scan(trace, t_begin, t_end)}
    assert len(set(ids)) == len(ids)
    assert set(ids) <= in_window


@settings(max_examples=60, deadline=None)
@given(engine_cases())
def test_bulk_engine_matches_per_wake_engine(case):
    assert_engines_agree(*case)


@st.composite
def whole_ms_cases(draw, fp_rates=(0.3, 1.0)):
    """Engine runs on a whole-millisecond grid, so ticks and float seconds order alike.

    Each event's band is its id. Wakes, periods and profile durations are
    whole milliseconds too, and an event is kept only when start + duration
    is its whole-millisecond end in float, as the scan oracle computes it.
    Coarse grids and whole-second intervals make event edges meet wakes and
    window ends. The detector's fp_rate is one of ``fp_rates``.
    """
    profile = draw(st.sampled_from(PROFILES))
    unit = draw(st.sampled_from([1, 100, 1000]))  # ms
    t_begin_ms = draw(st.sampled_from([0, 70, 5_000_300]))
    t_end_ms = t_begin_ms + draw(st.integers(30_000, 7_200_000))
    lo, hi = -(-max(0, t_begin_ms - 60_000) // unit), (t_end_ms - 1) // unit
    events = []
    for i in range(1, draw(st.integers(0, 25)) + 1):
        k = draw(st.integers(lo, hi))
        start_ms = k * unit
        length = draw(st.integers(1, 3) | st.integers(1, 400_000 // unit))
        end_ms = min(t_end_ms, unit * (k + length))
        start, end = start_ms / 1000, end_ms / 1000
        if start + (end - start) == end:
            events.append(Event(id=i, start=start, duration=end - start, band=float(i)))
    trace = make_trace(events, horizon=t_end_ms / 1000)
    d_probe_ms = round(profile.d_probe * 1000)
    interval_ms = st.one_of(
        st.sampled_from([1000, 3000, 60_000]), st.integers(d_probe_ms + 1, 900_000)
    )
    periods = []
    p_start_ms = t_begin_ms
    while p_start_ms < t_end_ms:
        p_end_ms = min(p_start_ms + draw(st.integers(300_000, 4_000_000)), t_end_ms)
        periods.append((p_end_ms / 1000, draw(interval_ms) / 1000))
        p_start_ms = p_end_ms
    detector = DetectorModel(
        tp_rate=draw(st.sampled_from([0.0, 0.5, 1.0])), fp_rate=draw(st.sampled_from(fp_rates))
    )
    return profile, trace, t_begin_ms / 1000, t_end_ms / 1000, detector, periods


@settings(max_examples=60, deadline=None)
@given(whole_ms_cases(fp_rates=(0.0, 0.02)), st.integers(0, 2**16))
def test_bulk_runs_match_per_wake_where_event_edges_meet_windows(case, seed):
    # The quiet-run bound compares event starts with window ends and event
    # ends with wakes; on the grid these meet exactly, so a bound that gets
    # an edge wrong bills in bulk a wake whose window hears an event.
    profile, trace, t_begin, t_end, detector, periods = case
    p_starts = [t_begin] + [p_end for p_end, _ in periods[:-1]]
    periods = [(p_start, p_end, iv, None) for p_start, (p_end, iv) in zip(p_starts, periods)]
    assert_engines_agree(profile, trace, t_begin, t_end, detector, periods, seed)


@settings(max_examples=60, deadline=None)
@given(whole_ms_cases(), st.integers(0, 2**16))
def test_each_probe_hears_the_events_the_scan_oracle_finds(case, seed):
    # At fp_rate 0.3 quiet wakes are billed in runs, and at 1.0 each wake is
    # probed singly. Every wake is checked: a single probe hears what the
    # scan finds, and a wake billed in a run has an empty record window.
    profile, trace, t_begin, t_end, detector, periods = case
    wakes, heard = [], []
    engine = _engine(TimelineEngine, profile, trace, t_begin, t_end, detector, seed)
    probe_fn = engine.probe_fn

    def hear(bands, rng):
        # run_period keeps the clock in a local; when the detector is asked,
        # the last log entry is this probe's, starting at its wake.
        entry = engine.log[-1]
        assert entry.mode == "probe"
        wakes.append(entry.start)
        heard.append(bands)
        return probe_fn(bands, rng)

    engine.probe_fn = hear
    activations = sum(engine.run_period(p_end, iv).activations for p_end, iv in periods)
    probes = [e.start for e in engine.log if e.mode == "probe"]
    assert len(wakes) == len(heard) <= len(probes) == activations
    assert set(wakes) <= set(probes)
    single = dict(zip(wakes, heard))
    record = profile.ticks["probe_record_s"]
    for w in probes:
        want = events_in_window_scan(trace, w / TICKS_PER_S, (w + record) / TICKS_PER_S)
        assert single.get(w, []) == [ev.band for ev in want]


@pytest.mark.parametrize("fp_rate", [0.0, 0.001])
def test_quiet_run_across_midnight_draws_from_each_day(fp_rate):
    trace = make_trace([], horizon=2 * SECONDS_PER_DAY)
    t_begin, t_end = SECONDS_PER_DAY - 601.5, SECONDS_PER_DAY + 600.0
    periods = [(t_begin, t_end, 3.0, None)]
    detector = DetectorModel(fp_rate=fp_rate)
    assert_engines_agree(PROFILES[0], trace, t_begin, t_end, detector, periods, 5)


def test_false_alarm_that_cuts_a_run_records_an_event_the_walk_stepped_over():
    # Wakes every 10 s from 0. Event 0 (91-91.5 s) falls between the wakes
    # at 90 and 100 s, so the quiet walk steps over it; event 1 (from
    # 120.05 s) is heard by the wake at 120 s, which ends the walk. Seed
    # 13's day-0 stream first draws a countdown of 9 quiet wakes, so a false
    # alarm at the wake at 90 s cuts the run, and its 3 s recording
    # captures event 0. A single probe that walked from the walk's heard
    # event, not from the event pointer, would miss it.
    seed, fp_rate = 13, 0.1
    u = _day_rng_provider(seed, 0)(0).random()
    assert math.floor(math.log1p(-u) / math.log1p(-fp_rate)) == 9
    events = [Event(id=0, start=91.0, duration=0.5), Event(id=1, start=120.05, duration=5.0)]
    trace = make_trace(events, horizon=SECONDS_PER_DAY)
    detector = DetectorModel(tp_rate=1.0, fp_rate=fp_rate)
    periods = [(0.0, 3600.0, 10.0, None)]
    assert_engines_agree(PROFILES[0], trace, 0.0, 3600.0, detector, periods, seed)
    engine = _engine(TimelineEngine, PROFILES[0], trace, 0.0, 3600.0, detector, seed)
    stats = engine.run_period(3600.0, 10.0)
    assert stats.detected == [0, 1]
    assert [e.start for e in engine.log if e.mode == "event_record"][0] == to_ticks(90.13)


@pytest.mark.parametrize("collect_log", [False, True])
def test_pings_clip_at_the_horizon_as_one_at_a_time(collect_log):
    profile = PROFILES[0]
    d_ping = profile.ticks["d_ping"]
    trace = make_trace([], horizon=SECONDS_PER_DAY)
    at = SECONDS_PER_DAY - 2.5 * profile.d_ping
    detector = DetectorModel(fp_rate=0.0)
    fast, slow = (
        cls(trace, 0.0, SECONDS_PER_DAY, profile, detector, None, collect_log=collect_log)
        for cls in (TimelineEngine, PerWakeEngine)
    )
    for e in (fast, slow):
        e.bill_pings(4, at)
    assert fast.ticks_by_mode == slow.ticks_by_mode
    assert fast.ticks_by_mode["ping"] == fast.horizon - to_ticks(at) == 2.5 * d_ping
    assert fast.t == slow.t == fast.horizon
    assert fast.log == slow.log
    if collect_log:
        assert [e.mode for e in fast.log] == ["sleep", "ping", "ping", "ping"]


def counting_probes(engine) -> list:
    """Wrap the engine's detector; single probes ask it, bulk-billed wakes never do."""
    calls, probe_fn = [], engine.probe_fn

    def counting(bands, rng):
        calls.append(bands)
        return probe_fn(bands, rng)

    engine.probe_fn = counting
    return calls


def test_quiet_day_takes_no_single_probes():
    detector = DetectorModel(fp_rate=0.0)
    trace = make_trace([], horizon=SECONDS_PER_DAY)
    engine = _engine(TimelineEngine, PROFILES[0], trace, 0.0, SECONDS_PER_DAY, detector, 1)
    calls = counting_probes(engine)
    activations = 0
    for hour in range(24):
        activations += engine.run_period((hour + 1) * 3600.0, 3.0).activations
    assert activations == 28800
    assert calls == []


def test_quiet_runs_draw_once_each_not_once_per_wake():
    # A quiet day at fp_rate 0.001 and 3 s wakes, about 28,800 of them. A run
    # opens at each period's first wake and at the wake after each false
    # alarm, and draws one number, so the day's stream moves by one draw
    # per run.
    seed = 1
    detector = DetectorModel(fp_rate=0.001)
    trace = make_trace([], horizon=SECONDS_PER_DAY)
    engine = _engine(TimelineEngine, PROFILES[0], trace, 0.0, SECONDS_PER_DAY, detector, seed)
    calls = counting_probes(engine)
    activations = sum(engine.run_period((h + 1) * 3600.0, 3.0).activations for h in range(24))
    assert activations > 28_700
    runs, after_alarm, hour = 0, False, -1
    for entry in engine.log:
        if entry.mode == "event_record":
            after_alarm = True
        elif entry.mode == "probe":
            runs += after_alarm or entry.start // (3600 * TICKS_PER_S) != hour
            after_alarm, hour = False, entry.start // (3600 * TICKS_PER_S)
    alarms = sum(entry.mode == "event_record" for entry in engine.log)
    assert 24 <= runs <= 24 + alarms < 100
    twin = _day_rng_provider(seed, 0)(0)
    for _ in range(runs):
        twin.random()
    assert stream_position(engine.rng_for_day(0)) == stream_position(twin)
    assert calls == []  # every wake was billed in a run, the false alarms too


@pytest.mark.parametrize("fp_rate", [0.001, 0.02, 0.1, 0.3, 0.7])
def test_false_alarms_of_quiet_wakes_are_binomial(fp_rate):
    # Each quiet wake fires with chance fp_rate, independently of the
    # others, whether billed in a run or probed singly: on an empty trace
    # with 60 s wakes the false alarms of N wakes lie within 4 sigma of
    # N * fp_rate.
    days = 30
    trace = make_trace([], horizon=days * SECONDS_PER_DAY)
    detector = DetectorModel(fp_rate=fp_rate)
    profile = PROFILES[0]
    engine = TimelineEngine(
        trace, 0.0, trace.horizon, profile, detector, _day_rng_provider(7, 0)
    )
    wakes = sum(engine.run_period((h + 1) * 3600.0, 60.0).activations for h in range(24 * days))
    assert wakes == 1440 * days
    record = engine.ticks_by_mode["event_record"]
    alarms, rest = divmod(record, profile.ticks["false_alarm_record_s"])
    assert rest == 0
    assert abs(alarms - wakes * fp_rate) <= 4.0 * math.sqrt(wakes * fp_rate * (1.0 - fp_rate))


def test_events_between_wakes_take_no_single_probe():
    # Each 0.05 s event starts 20 s after a wake of a 60 s grid and ends
    # long before the next, so no record window hears it and the whole
    # hour is one quiet run.
    events = [Event(id=j, start=60.0 * j + 20.0, duration=0.05) for j in range(60)]
    trace = make_trace(events, horizon=SECONDS_PER_DAY)
    detector = DetectorModel(fp_rate=0.0)
    engine = _engine(TimelineEngine, PROFILES[0], trace, 0.0, 3600.0, detector, 1)
    calls = counting_probes(engine)
    stats = engine.run_period(3600.0, 60.0)
    assert stats.activations == 60
    assert stats.detected == []
    assert calls == []


@pytest.mark.parametrize("fp_rate", [0.0, 0.01])
@pytest.mark.parametrize("gap_wakes", [1, 3])
def test_short_quiet_runs_are_billed_in_bulk(fp_rate, gap_wakes):
    # Below fp_rate 1 a run of any length is billed in bulk, also when it
    # draws from the day's stream.
    # Short events gap_wakes wakes apart, with gap_wakes quiet wakes
    # between two of them.
    gap = 3.0 * gap_wakes
    events = [Event(id=j, start=1.0 + j * gap, duration=0.05) for j in range(int(3600 // gap) + 1)]
    trace = make_trace(events, horizon=SECONDS_PER_DAY)
    detector = DetectorModel(fp_rate=fp_rate)
    engine = _engine(TimelineEngine, PROFILES[0], trace, 0.0, 3600.0, detector, 1)
    calls = counting_probes(engine)
    activations = engine.run_period(3600.0, 3.0).activations
    if fp_rate == 0.0:
        assert activations == 1200
    assert len(calls) < activations


def test_interval_within_a_tick_of_the_probe_is_rejected():
    # The next float above d_probe rounds to the probe's own tick count, so
    # the probe would fill the whole interval.
    profile = PROFILES[0]
    interval = math.nextafter(profile.d_probe, math.inf)
    assert interval > profile.d_probe
    assert to_ticks(interval) == to_ticks(profile.d_probe)
    trace = make_trace([], horizon=SECONDS_PER_DAY)
    detector = DetectorModel(fp_rate=0.0)
    engine = _engine(TimelineEngine, profile, trace, 0.0, 3600.0, detector, 1)
    with pytest.raises(ScheduleError, match="nanoseconds"):
        engine.run_period(3600.0, interval)
    with pytest.raises(ScheduleError, match="nanoseconds"):
        run_schedule(trace, FixedSchedule(interval), detector, profile, 1)
    actions = ActionSpace((interval, 60.0))
    with pytest.raises(ScheduleError, match="nanoseconds"):
        train_qlearn(trace, 1, Hyperparameters(), actions, detector, profile, 1)


@pytest.mark.parametrize(
    "detector, bulk",
    [
        (DetectorModel(fp_rate=0.0), True),
        (DetectorModel(fp_rate=0.1), True),
        (DetectorModel(fp_rate=0.3), True),
        (DetectorModel(kind="goertzel", noise_sd=1.0), False),
        (DetectorModel(fp_rate=1.0), False),
    ],
)
def test_bulk_eligibility_comes_from_the_model(monkeypatch, detector, bulk):
    # Wrap every probe function, as a tracer does; the choice must not
    # depend on what the probe function is.
    probes = []
    make = sim.make_probe_fn

    def wrapped_make(model):
        inner = make(model)

        def probe(bands, rng):
            probes.append(bands)
            return inner(bands, rng)

        return probe

    monkeypatch.setattr(sim, "make_probe_fn", wrapped_make)
    trace = make_trace([], horizon=SECONDS_PER_DAY)
    engine = TimelineEngine(trace, 0.0, 3600.0, PROFILES[0], detector, _day_rng_provider(1, 0))
    assert engine.run_period(3600.0, 60.0).activations == 60
    assert (len(probes) < 60) == bulk


# -- the entry points -------------------------------------------------------


def _trace(seed: int, duration_sd: float, **kwargs):
    profile = DiurnalProfile(
        hourly_rate=two_peak_rates(peak=60.0, base=2.0),
        duration_mean=3.0,
        duration_sd=duration_sd,
        days=2,
        **kwargs,
    )
    return generate_trace(profile, seed)


detectors = st.builds(
    DetectorModel,
    tp_rate=st.sampled_from([1.0, 0.8]),
    fp_rate=st.sampled_from([0.0, 0.01, 0.1]),
)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 1000),
    duration_sd=st.floats(0.5, 20.0),
    detector=detectors,
    t_begin=st.sampled_from([0.0, 3600.5, SECONDS_PER_DAY - 7200.25]),
    hours=st.integers(1, 5),
    interval=st.sampled_from([0.3, 3.0, 7.1, 60.0]),
)
def test_run_schedule_matches_per_wake(seed, duration_sd, detector, t_begin, hours, interval):
    trace = _trace(seed, duration_sd)
    table = QTable(
        values=np.random.default_rng(seed).random((24, 5)).astype(np.float32),
        visits=np.zeros((24, 5), dtype=np.uint32),
    )
    profile = PROFILES[0]
    span = hours * 3600.0 + 1234.5
    for spec in (FixedSchedule(interval), GreedySchedule(table, ActionSpace((3.0, 7.1, 60.0, 300.0, 1800.0)))):
        def go():
            return run_schedule(
                trace, spec, detector, profile, seed,
                collect_log=True, t_begin=t_begin, duration_s=span,
            )

        fast, fast_log = go()
        with per_wake_engine():
            slow, slow_log = go()
        assert fast == slow
        assert fast_log == slow_log
        assert_log_invariants(
            fast_log, fast.charge_mah, profile, to_ticks(t_begin + span) - to_ticks(t_begin)
        )
        assert fast.events_detected <= fast.events_total


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 1000), detector=detectors, d_ql=st.just(PowerProfile().d_ql))
# Scheduler calls that push the clock past the period end: every period's
# wakes then start at or after its end, and the engine must leave them all
# to the next period.
@example(seed=5, detector=DetectorModel(tp_rate=0.8, fp_rate=0.1), d_ql=1800.0)
@example(seed=5, detector=DetectorModel(tp_rate=0.8, fp_rate=0.1), d_ql=4000.0)
def test_train_qlearn_matches_per_wake(seed, detector, d_ql):
    trace = _trace(seed, 4.0)
    profile = PowerProfile(d_ql=d_ql)

    def go():
        result = train_qlearn(
            trace, 1, Hyperparameters(w1=0.02), ActionSpace(), detector, profile, seed,
            collect_log=True,
        )
        evaluated = run_schedule(
            trace, GreedySchedule(result.table), detector, profile, seed,
            collect_log=True, t_begin=SECONDS_PER_DAY, duration_s=SECONDS_PER_DAY,
        )
        return result, evaluated

    fast, (fast_eval, fast_eval_log) = go()
    with per_wake_engine():
        slow, (slow_eval, slow_eval_log) = go()
    assert np.array_equal(fast.table.values, slow.table.values)
    assert np.array_equal(fast.table.visits, slow.table.visits)
    assert fast.train_report == slow.train_report
    assert fast_eval == slow_eval
    assert fast.train_log == slow.train_log
    assert fast_eval_log == slow_eval_log
    assert bits(fast.eps_final) == bits(slow.eps_final)
    for report, log in ((fast.train_report, fast.train_log), (fast_eval, fast_eval_log)):
        assert_log_invariants(log, report.charge_mah, profile, to_ticks(SECONDS_PER_DAY))
        assert report.events_detected <= report.events_total


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 1000), detector=detectors, drop_rate=st.sampled_from([0.2, 0.7]))
def test_run_network_matches_per_wake(seed, detector, drop_rate):
    trace = _trace(seed, 4.0, area=(0.0, 10.0, 0.0, 10.0))
    nodes = tuple(DeviceNode(i, 5.0, 5.0, 500.0, 500.0) for i in range(3))
    config = NetworkConfig(layout=nodes, episodes=2, drop_rate=drop_rate, failures=((2, 1),))
    profile = PROFILES[0]

    def go():
        return run_network(
            trace, config, Hyperparameters(w1=0.02), ActionSpace(), detector, profile, seed,
            collect_logs=True,
        )

    fast = go()
    with per_wake_engine():
        slow = go()
    assert fast.to_dict() == slow.to_dict()
    for i in fast.tables:
        assert np.array_equal(fast.tables[i].values, slow.tables[i].values)
    assert fast.logs == slow.logs
    assert [d.removed_at for d in fast.devices] == [None, None, 1]
    for device in fast.devices:
        if device.removed_at is None:
            assert_log_invariants(
                fast.logs[device.id], device.charge_mah, profile, to_ticks(2 * SECONDS_PER_DAY)
            )
    for ep in fast.episodes:
        assert ep.events_detected <= ep.events_total
