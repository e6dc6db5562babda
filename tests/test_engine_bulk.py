"""Bulk billing of quiet wakes against the per-wake reference engine.

Each property runs the same inputs through TimelineEngine and through
``_oracles.PerWakeEngine`` (the one-probe-per-wake loop) and asserts
equal results: period stats, per-mode ticks, charge to the bit, busy
frontier, pending wake, detections, logs and the position of every day's
random stream. It then checks the engine invariants: the log tiles the span
in ticks, the online charge equals the charge recomputed from the log, and
no more events are detected than there are.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim import collab, sim
from dutysim.collab import DeviceNode, NetworkConfig, run_network
from dutysim.detect import DetectorModel
from dutysim.errors import ScheduleError
from dutysim.power import PowerProfile, charge_consumed, to_ticks, validate_log
from dutysim.qsched import ActionSpace, Hyperparameters, QTable
from dutysim.sim import (
    BULK_MAX_FP,
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

from _oracles import PerWakeEngine, two_peak_rates

PROFILES = (
    PowerProfile(),
    PowerProfile(probe_record_s=0.13),  # record window as long as the probe
    PowerProfile(d_probe=0.5, probe_record_s=0.2, false_alarm_record_s=0.0),
)
FP_RATES = (0.0, 0.001, 0.02, BULK_MAX_FP, 0.3, 1.0)


def awkward_intervals(d_probe: float) -> tuple[float, ...]:
    return tuple(v for v in (0.3, 7.1, d_probe + 1e-9, 3.0, 1800.0) if v > d_probe)


def bits(x) -> str:
    return float(x).hex()


def stream_position(rng: np.random.Generator) -> tuple:
    state = rng.bit_generator.state
    return (
        tuple(int(c) for c in state["state"]["counter"]),
        state["buffer_pos"],
        state["has_uint32"],
    )


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
        bill = draw(st.sampled_from([None, "ql_infer", "ql_update", "ping"]))
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
    for p_start, p_end, interval, bill in periods:
        if bill == "ql_infer":
            fast.bill_ql(bill, p_start)
            slow.bill_ql(bill, p_start)
        got = fast.run_period(p_end, interval)
        want = slow.run_period(p_end, interval)
        if bill in ("ql_update", "ping"):
            fast.bill_ql(bill, p_end)
            slow.bill_ql(bill, p_end)
        assert got == want
        assert fast.ticks_by_mode == slow.ticks_by_mode
        assert bits(fast.charge_mah) == bits(slow.charge_mah)
        assert fast.t == slow.t
        assert fast.next_wake == slow.next_wake
        assert fast.cam_acc == slow.cam_acc
    fast.finish()
    slow.finish()
    assert fast.detected == slow.detected
    assert fast.log == slow.log
    assert all(type(e.start) is int and type(e.duration) is int for e in fast.log)
    for day in range(int(t_begin // SECONDS_PER_DAY), int(t_end // SECONDS_PER_DAY) + 1):
        assert stream_position(fast.rng_for_day(day)) == stream_position(
            slow.rng_for_day(day)
        )

    assert_log_invariants(fast.log, fast.charge_mah, profile, fast.horizon - fast.t_begin)
    ids = [eid for eid, _ in fast.detected]
    in_window = {ev.id for ev in trace.events if ev.start < t_end and ev.end > t_begin}
    assert len(set(ids)) == len(ids)
    assert set(ids) <= in_window


@settings(max_examples=60, deadline=None)
@given(engine_cases(), st.sampled_from([BULK_MAX_FP, 1.0]))
def test_bulk_engine_matches_per_wake_engine(case, bulk_max_fp):
    # With no fp_rate cutoff (1.0) every fp_rate is billed in bulk.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "BULK_MAX_FP", bulk_max_fp)
        assert_engines_agree(*case)


@pytest.mark.parametrize("fp_rate", [0.0, 0.001])
def test_quiet_run_across_midnight_draws_from_each_day(fp_rate):
    trace = make_trace([], horizon=2 * SECONDS_PER_DAY)
    t_begin, t_end = SECONDS_PER_DAY - 601.5, SECONDS_PER_DAY + 600.0
    periods = [(t_begin, t_end, 3.0, None)]
    detector = DetectorModel(fp_rate=fp_rate)
    assert_engines_agree(PROFILES[0], trace, t_begin, t_end, detector, periods, 5)


def test_quiet_day_takes_no_single_probes(monkeypatch):
    calls = []
    monkeypatch.setattr(TimelineEngine, "_probe", lambda self, w, stats: calls.append(w))
    detector = DetectorModel(fp_rate=0.0)
    trace = make_trace([], horizon=SECONDS_PER_DAY)
    engine = _engine(TimelineEngine, PROFILES[0], trace, 0.0, SECONDS_PER_DAY, detector, 1)
    activations = 0
    for hour in range(24):
        activations += engine.run_period((hour + 1) * 3600.0, 3.0).activations
    assert activations == 28800
    assert calls == []


@pytest.mark.parametrize("fp_rate", [0.0, 0.01])
@pytest.mark.parametrize("gap_wakes", [1, 3])
def test_short_quiet_runs_are_billed_in_bulk(monkeypatch, fp_rate, gap_wakes):
    # Up to BULK_MAX_FP a run of any length is billed in bulk, also when it
    # draws from the day's stream.
    probe = TimelineEngine._probe
    calls = []

    def counting_probe(self, w, stats):
        calls.append(w)
        probe(self, w, stats)

    monkeypatch.setattr(TimelineEngine, "_probe", counting_probe)
    # Short events gap_wakes wakes apart, with gap_wakes quiet wakes
    # between two of them.
    gap = 3.0 * gap_wakes
    events = [Event(id=j, start=1.0 + j * gap, duration=0.05) for j in range(int(3600 // gap) + 1)]
    trace = make_trace(events, horizon=SECONDS_PER_DAY)
    detector = DetectorModel(fp_rate=fp_rate)
    engine = _engine(TimelineEngine, PROFILES[0], trace, 0.0, 3600.0, detector, 1)
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
        train_qlearn(trace, 1, 0, Hyperparameters(), actions, detector, profile, 1)


@pytest.mark.parametrize(
    "detector, bulk",
    [
        (DetectorModel(fp_rate=0.0), True),
        (DetectorModel(fp_rate=BULK_MAX_FP), True),
        (DetectorModel(fp_rate=0.3), False),
        (DetectorModel(kind="goertzel", noise_sd=1.0), False),
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
    fp_rate=st.sampled_from([0.0, 0.01, BULK_MAX_FP]),
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
            return run_schedule(trace, spec, detector, profile, seed, t_begin=t_begin, duration_s=span)

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
@given(seed=st.integers(0, 1000), detector=detectors)
def test_train_qlearn_matches_per_wake(seed, detector):
    trace = _trace(seed, 4.0)
    profile = PROFILES[0]

    def go():
        return train_qlearn(
            trace, 1, 1, Hyperparameters(w1=0.02), ActionSpace(), detector, profile, seed,
            collect_logs=True,
        )

    fast = go()
    with per_wake_engine():
        slow = go()
    assert np.array_equal(fast.table.values, slow.table.values)
    assert np.array_equal(fast.table.visits, slow.table.visits)
    assert fast.train_report == slow.train_report
    assert fast.eval_report == slow.eval_report
    assert fast.train_log == slow.train_log
    assert fast.eval_log == slow.eval_log
    assert bits(fast.eps_final) == bits(slow.eps_final)
    for report, log in ((fast.train_report, fast.train_log), (fast.eval_report, fast.eval_log)):
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
