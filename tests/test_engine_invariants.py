"""Engine invariants on fixed, greedy and network runs, as properties.

For every engine a run builds: the log tiles the engine's window exactly in
ticks, the per-mode tick totals sum to the window and equal the log's, the
online charge equals the charge recomputed from the log with ``==``, no
event is detected twice, no more events are detected than there are, and
after each period every detected event has ended by the engine clock, unless
the clock is at the horizon.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim import collab, sim
from dutysim.collab import DeviceNode, NetworkConfig, run_network
from dutysim.detect import DetectorModel
from dutysim.power import MODES, PowerProfile, charge_consumed, validate_log
from dutysim.qsched import ActionSpace, Hyperparameters, QTable
from dutysim.sim import FixedSchedule, GreedySchedule, TimelineEngine, run_schedule
from dutysim.trace import SECONDS_PER_DAY, DiurnalProfile, generate_trace

from _oracles import two_peak_rates

PROFILES = (
    PowerProfile(),
    PowerProfile(d_probe=0.5, probe_record_s=0.2, false_alarm_record_s=0.0),
)

detectors = st.builds(
    DetectorModel,
    tp_rate=st.sampled_from([1.0, 0.7]),
    fp_rate=st.sampled_from([0.0, 0.01, 0.3]),
)


@contextlib.contextmanager
def recorded_engines():
    """Collect every TimelineEngine the package builds inside the block.

    Each keeps the rows of its period stats in ``detected_rows`` and checks,
    after each period, the rule its dedupe rests on: every event detected so
    far has ended by the clock t, or t is at the horizon.
    """
    engines = []

    class Recorded(TimelineEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.detected_rows = []
            engines.append(self)

        def run_period(self, p_end, interval):
            stats = super().run_period(p_end, interval)
            self.detected_rows += stats.detected
            ends, t = self.ends, self.t
            assert t == self.horizon or all(ends[k] <= t for k in self.detected_rows)
            return stats

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "TimelineEngine", Recorded)
        mp.setattr(collab, "TimelineEngine", Recorded)
        yield engines


def assert_engine_invariants(engine, finished=True):
    span = (engine.horizon if finished else engine.t) - engine.t_begin
    log = validate_log(engine.log, span=span)
    assert sum(engine.ticks_by_mode.values()) == span
    from_log = dict.fromkeys(MODES, 0)
    for entry in log:
        from_log[entry.mode] += entry.duration
    assert from_log == engine.ticks_by_mode
    assert engine.charge_mah == charge_consumed(log, engine.profile, span=span)
    rows = engine.detected_rows
    assert len(set(rows)) == len(rows)
    assert len(rows) <= len(engine.trace)


def _trace(seed, days, **kwargs):
    profile = DiurnalProfile(
        hourly_rate=two_peak_rates(peak=30.0, base=1.0),
        duration_mean=3.0,
        duration_sd=4.0,
        days=days,
        **kwargs,
    )
    return generate_trace(profile, seed)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    detector=detectors,
    profile=st.sampled_from(PROFILES),
    t_begin=st.sampled_from([0.0, 1800.25, SECONDS_PER_DAY - 3600.5]),
    span=st.floats(600.0, 6 * 3600.0),
    interval=st.sampled_from([0.7, 3.0, 7.1, 60.0, 1800.0]),
    greedy=st.booleans(),
)
def test_fixed_and_greedy_runs_keep_the_invariants(
    seed, detector, profile, t_begin, span, interval, greedy
):
    trace = _trace(seed, 2)
    if greedy:
        actions = ActionSpace(tuple(sorted({interval, 5.0, 60.0, 300.0})))
        table = QTable(
            values=np.random.default_rng(seed).random((24, len(actions))).astype(np.float32),
            visits=np.zeros((24, len(actions)), dtype=np.uint32),
        )
        spec = GreedySchedule(table, actions)
    else:
        spec = FixedSchedule(interval)
    with recorded_engines() as engines:
        report, log = run_schedule(
            trace, spec, detector, profile, seed,
            collect_log=True, t_begin=t_begin, duration_s=span,
        )
    (engine,) = engines
    assert log is engine.log
    assert_engine_invariants(engine)
    assert report.charge_mah == engine.charge_mah
    assert report.events_detected <= report.events_total


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    detector=detectors,
    n_devices=st.integers(1, 3),
    episodes=st.integers(1, 2),
    drop_rate=st.sampled_from([0.0, 0.5]),
    train=st.booleans(),
)
def test_network_runs_keep_the_invariants(seed, detector, n_devices, episodes, drop_rate, train):
    trace = _trace(seed, episodes, area=(0.0, 10.0, 0.0, 10.0))
    nodes = tuple(DeviceNode(i, 2.0 + 3.0 * i, 5.0, 4.0, 20.0) for i in range(n_devices))
    failures = ((n_devices - 1, 1),) if n_devices > 1 and episodes > 1 else ()
    config = NetworkConfig(
        layout=nodes,
        episodes=episodes,
        drop_rate=drop_rate,
        failures=failures,
        train=train,
        fixed_interval=None if train else 7.1,
    )
    with recorded_engines() as engines:
        report = run_network(
            trace, config, Hyperparameters(w1=0.02), ActionSpace(), detector,
            PowerProfile(), seed, collect_logs=True,
        )
    assert len(engines) == n_devices
    for engine, device in zip(engines, report.devices):
        assert engine.log is report.logs[device.id]
        assert_engine_invariants(engine, finished=device.removed_at is None)
        assert device.charge_mah == engine.charge_mah
        # The device record and the episode records count the same periods.
        assert device.activations == sum(e.activations.get(device.id, 0) for e in report.episodes)
        assert device.battery_level == PowerProfile().battery_mah - device.charge_mah
        assert device.events_detected == len(engine.detected_rows)
    for episode in report.episodes:
        assert episode.events_detected <= episode.events_total
        assert episode.positives + episode.negatives == sum(episode.activations.values())
        assert episode.batteries.keys() == episode.activations.keys()
