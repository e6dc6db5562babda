"""Engines share their trace's one tick view, and engine rows match sub-traces.

Every ``TimelineEngine`` reads ``EventTrace.tick_view``: whole, sliced at its
horizon, or gathered at the rows a network device senses, always pointing at
the view's own objects. An engine over ``rows`` must simulate exactly what an
engine over a trace of just those events does.
"""

import bisect
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim import collab, sim
from dutysim.collab import DeviceNode, NetworkConfig, run_network
from dutysim.detect import DetectorModel
from dutysim.power import PowerProfile, to_ticks
from dutysim.qsched import ActionSpace, Hyperparameters
from dutysim.sim import FixedSchedule, TimelineEngine, _day_rng_provider, run_schedule, train_qlearn
from dutysim.trace import (
    SECONDS_PER_DAY,
    DiurnalProfile,
    Event,
    EventTrace,
    generate_trace,
    make_trace,
)

from _oracles import stream_position, two_peak_rates, two_peak_trace

DETECTOR = DetectorModel()
PROFILE = PowerProfile()


@contextlib.contextmanager
def recorded_engines():
    """Every TimelineEngine the package builds, in the order it builds them."""
    made = []

    class Recorded(TimelineEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "TimelineEngine", Recorded)
        mp.setattr(collab, "TimelineEngine", Recorded)
        yield made


def columns(engine):
    return engine.starts, engine.ends, engine._bands


def holds_view_objects(engine, view, rows) -> bool:
    """The engine's k-th event is the view's own objects at rows[k]."""
    return all(
        len(got) == len(rows) and all(got[k] is col[j] for k, j in enumerate(rows))
        for got, col in zip(columns(engine), view)
    )


# -- sharing ----------------------------------------------------------------


def test_schedule_and_training_engines_hold_the_trace_view():
    trace = two_peak_trace(3, seed=4)
    view = trace.tick_view
    assert trace.tick_view is view
    with recorded_engines() as made:
        train_qlearn(trace, 2, Hyperparameters(), ActionSpace(), DETECTOR, PROFILE, 1)
        run_schedule(trace, FixedSchedule(60.0), DETECTOR, PROFILE, 1)
        run_schedule(
            trace, FixedSchedule(60.0), DETECTOR, PROFILE, 1,
            t_begin=2 * SECONDS_PER_DAY, duration_s=SECONDS_PER_DAY,
        )
    train, whole, held_out = made
    # The training horizon cuts the trace: the engine holds a slice of the view.
    live = bisect.bisect_left(view.starts, to_ticks(2 * SECONDS_PER_DAY))
    assert 0 < live < len(view.starts)
    assert holds_view_objects(train, view, range(live))
    # Windows that end at the trace horizon hold the view itself.
    for engine in (whole, held_out):
        assert all(got is col for got, col in zip(columns(engine), view))


def test_network_devices_hold_the_view_or_its_objects():
    trace = generate_trace(
        DiurnalProfile(two_peak_rates(), 3.0, 0.0, days=1, area=(0.0, 10.0, 0.0, 10.0)), 3
    )
    view = trace.tick_view
    layout = (
        DeviceNode(0, 5.0, 5.0, 500.0, 500.0),  # senses every event
        DeviceNode(1, 2.0, 2.0, 3.0, 500.0),  # senses some
        DeviceNode(2, 900.0, 900.0, 1.0, 5000.0),  # senses none
    )
    with recorded_engines() as made:
        run_network(
            trace, NetworkConfig(layout=layout, episodes=1), Hyperparameters(), ActionSpace(),
            DETECTOR, PROFILE, 9,
        )
    every, some, none = made
    assert all(got is col for got, col in zip(columns(every), view))
    rows = np.flatnonzero(collab._senses(layout[1], trace)).tolist()
    assert 0 < len(rows) < len(trace)
    assert holds_view_objects(some, view, rows)
    assert columns(none) == ((), (), ())


# -- equivalence ------------------------------------------------------------


def sub_trace(trace: EventTrace, mask: np.ndarray) -> EventTrace:
    """The events of ``mask`` as a trace of their own, over the same span."""
    return EventTrace(
        trace.ids[mask], trace.starts[mask], trace.durations[mask], trace.horizon,
        trace.origin_hour, trace.bands[mask], trace.xs[mask], trace.ys[mask],
    )


@st.composite
def rows_cases(draw):
    horizon = 7200.0
    events = []
    for i in range(draw(st.integers(0, 20))):
        start = draw(st.floats(0.0, horizon - 1.0))
        duration = min(draw(st.floats(0.01, 400.0)), horizon - start)
        if start + duration <= horizon:
            events.append(Event(id=i, start=start, duration=duration))
    trace = make_trace(events, horizon=horizon)
    n = len(trace)
    mask = draw(
        st.one_of(
            st.just([False] * n),
            st.just([True] * n),
            st.integers(0, max(n - 1, 0)).map(lambda i: [j == i for j in range(n)]),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
    t_begin = draw(st.sampled_from([0.0, 1000.3]))
    # Horizons that cut the trace, and the trace's own.
    t_end = draw(st.sampled_from([horizon, 3600.0]) | st.floats(t_begin + 30.0, horizon))
    detector = DetectorModel(
        tp_rate=draw(st.sampled_from([0.5, 1.0])), fp_rate=draw(st.sampled_from([0.0, 0.02, 0.3]))
    )
    periods = []
    p_start = t_begin
    while p_start < t_end:
        p_end = min(p_start + draw(st.floats(300.0, 4000.0)), t_end)
        periods.append((p_end, draw(st.sampled_from([1.0, 3.0, 7.1, 60.0]))))
        p_start = p_end
    return trace, np.array(mask, dtype=bool), t_begin, t_end, detector, periods


@settings(max_examples=40, deadline=None)
@given(rows_cases(), st.integers(0, 2**16))
def test_engine_over_rows_matches_engine_over_sub_trace(case, seed):
    trace, mask, t_begin, t_end, detector, periods = case
    rows = np.flatnonzero(mask).tolist()
    over_rows = TimelineEngine(
        trace, t_begin, t_end, PROFILE, detector, _day_rng_provider(seed, 0),
        collect_log=True, rows=rows,
    )
    over_sub = TimelineEngine(
        sub_trace(trace, mask), t_begin, t_end, PROFILE, detector, _day_rng_provider(seed, 0),
        collect_log=True,
    )
    # No event that starts at or after t_end reaches the engine.
    assert len(over_rows.starts) == len(over_sub.starts) == int((trace.starts[mask] < t_end).sum())
    detected = []
    for p_end, interval in periods:
        got, want = over_rows.run_period(p_end, interval), over_sub.run_period(p_end, interval)
        assert got == want
        assert over_rows.ticks_by_mode == over_sub.ticks_by_mode
        detected += [rows[k] for k in got.detected]
    over_rows.finish()
    over_sub.finish()
    assert over_rows.log == over_sub.log
    assert over_rows.ticks_by_mode == over_sub.ticks_by_mode
    for day in range(int(t_end // SECONDS_PER_DAY) + 1):
        assert stream_position(over_rows.rng_for_day(day)) == stream_position(
            over_sub.rng_for_day(day)
        )
    # Mapped through rows, the detections are sensed trace rows inside the window.
    assert len(set(detected)) == len(detected)
    assert all(mask[j] and trace.starts[j] < t_end and trace.ends[j] > t_begin for j in detected)
