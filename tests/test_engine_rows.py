"""Engines share their trace's one tick view, and engine rows match sub-traces.

Every ``TimelineEngine`` reads ``EventTrace.tick_view``, read-only 8-byte
buffers: whole or sliced at its horizon, sharing the view's buffers, or
gathered at the rows a network device senses, 8 bytes per sensed event per
column. An engine over ``rows`` must simulate exactly what an engine over a
trace of just those events does.
"""

import bisect
import contextlib
import tracemalloc

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


def read_only_8_bytes(col, n: int) -> bool:
    return isinstance(col, memoryview) and col.readonly and col.nbytes == 8 * n == 8 * len(col)


def gathered_from_view(engine, view, rows) -> bool:
    """The engine's columns are read-only columns of the view's values at rows."""
    return all(
        read_only_8_bytes(got, len(rows))
        and np.array_equal(np.asarray(got), np.asarray(col)[rows], equal_nan=True)
        for got, col in zip(columns(engine), view)
    )


def shares_view(engine, view, n: int) -> bool:
    """The engine's columns are the view's first n events, in the view's own buffers."""
    return gathered_from_view(engine, view, np.arange(n)) and all(
        np.shares_memory(np.asarray(got), np.asarray(col))
        for got, col in zip(columns(engine), view)
    )


# -- sharing ----------------------------------------------------------------


def test_schedule_and_training_engines_hold_the_trace_view():
    trace = two_peak_trace(3, seed=4)
    view = trace.tick_view
    assert trace.tick_view is view
    assert all(read_only_8_bytes(col, len(trace)) for col in view)
    assert np.shares_memory(np.asarray(view.bands), trace.bands)
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
    assert shares_view(train, view, live)
    # Windows that end at the trace horizon hold all of the view.
    for engine in (whole, held_out):
        assert shares_view(engine, view, len(trace))


def test_network_devices_hold_the_view_or_columns_gathered_from_it():
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
    assert shares_view(every, view, len(trace))
    assert collab._sensed_rows(layout[0], trace) is None
    rows = collab._sensed_rows(layout[1], trace)
    assert read_only_8_bytes(rows, len(rows)) and 0 < len(rows) < len(trace)
    assert rows.tolist() == np.flatnonzero(collab._senses(layout[1], trace)).tolist()
    assert gathered_from_view(some, view, rows)
    assert all(read_only_8_bytes(col, 0) for col in columns(none))


def test_partial_device_keeps_8_bytes_per_sensed_event_per_column():
    # Its sensed rows, then its engine's three columns gathered at them.
    trace = generate_trace(
        DiurnalProfile((840.0,) * 24, 3.0, 1.0, days=1, area=(0.0, 10.0, 0.0, 10.0)), 6
    )
    node = DeviceNode(0, 0.0, 5.0, 5.0, 50.0)  # senses about 40% of the events
    trace.tick_view  # the trace's, shared by every device, so built before measuring
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = collab._sensed_rows(node, trace)
        kept_rows = tracemalloc.get_traced_memory()[0] - before
        engine = TimelineEngine(
            trace, 0.0, SECONDS_PER_DAY, PROFILE, DETECTOR, _day_rng_provider(1, 0), rows=rows
        )
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = len(rows)
    assert 5_000 < n < len(trace) * 0.6
    assert len(engine.starts) == n
    assert kept_rows <= 8 * n + 4096
    assert kept - kept_rows <= 3 * 8 * n + 8192


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
@given(rows_cases(), st.integers(0, 2**16), st.booleans())
def test_engine_over_rows_matches_engine_over_sub_trace(case, seed, as_list):
    trace, mask, t_begin, t_end, detector, periods = case
    # Read-only int64 rows, as run_network passes them, or a list of ints.
    rows = np.flatnonzero(mask)
    rows = rows.tolist() if as_list else memoryview(rows).toreadonly()
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
