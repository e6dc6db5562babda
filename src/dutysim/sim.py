"""Trace-driven schedule simulation.

The simulator walks a single device timeline over a trace. At each wake it
bills a probe (record window plus detector latency), asks the detector about
events overlapping the record window, and on a fire records until the last
overlapping event ends. Events that begin while the mic is already on count
as detected and extend the recording. Each detected event bills an audio
transmission, and a deterministic accumulator triggers the camera plus image
transmission for one event in three (by default). The next wake is
max(scheduled wake, end of current activity), where the scheduled wake is the
previous probe start plus the active interval.

Scheduling periods are hours. A fixed schedule keeps one interval; a learned
schedule picks the interval per period through a ``Learner``, the one
Q-learning scheduler that both train_qlearn and the network mode
(``collab.run_network``) drive. It chooses epsilon-greedily with per-period
updates when training and greedily, without learning, when evaluating.
Training episodes are whole days, and the learner itself ends each one.
``train_qlearn`` only trains; ``run_schedule`` evaluates every schedule over
the held-out window, the trained table as a ``GreedySchedule`` among them.

Engine time is integer nanosecond ticks (``power.to_ticks``, within int64
range); seconds appear only at the edges, in the inputs and in the reports.
Every engine over a trace reads the trace's one ``EventTrace.tick_view``,
read-only 8-byte buffers of ticks and bands, as slices of the view's own
buffers or gathered at the rows it senses, so a run converts the event
columns to ticks once however many engines it drives.
Charge is billed from a tick total per mode. ``TimelineEngine.run_period``
is one loop per device-period; it bills each run of wakes in one block
and every activity after a fire through ``_emit``. With an abstract detector
of fp_rate below 1 a run covers every wake whose record window meets no
event, up to the first wake that hears one: at fp_rate 0 in closed-form
integer arithmetic, O(1) whatever the run's length. So cost follows the
events that wakes hear, and periods and days, rather than probes. At a
positive fp_rate a run also draws one number, the count of quiet wakes
before its first false alarm, so cost follows false alarms too. The wake
that ends a run is probed singly, as is every wake at fp_rate 1 and every
wake of the Goertzel detector, which synthesizes noise for every window.
A single probe walks the event list forward once: through its
record window, and on a fire on through the recording. The reports ask
``trace.window_rows``, the same window rule on float columns.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .detect import DetectorModel, make_probe_fn
from .errors import ScheduleError
from .power import MODES, TICKS_PER_S, LogEntry, PowerProfile, charge_from_ticks, to_ticks
from .power import check_seconds, lifetime_years
from .qsched import (
    ActionSpace,
    Hyperparameters,
    QTable,
    decay_epsilon,
    q_update,
    reward,
    select_action,
)
from .rng import substream
from .trace import SECONDS_PER_DAY, SECONDS_PER_HOUR, EventTrace, window_rows

__all__ = [
    "FixedSchedule",
    "GreedySchedule",
    "PeriodRecord",
    "SimReport",
    "TrainResult",
    "run_schedule",
    "train_qlearn",
    "convergence_episodes",
]


@dataclass(frozen=True)
class FixedSchedule:
    """Wake every ``interval`` seconds, all day."""

    interval: float

    @property
    def name(self) -> str:
        return f"fixed_{self.interval:g}"


@dataclass(frozen=True)
class GreedySchedule:
    """Per-hour interval from the argmax row of a trained table."""

    table: QTable
    actions: ActionSpace = ActionSpace()

    @property
    def name(self) -> str:
        return "qlearn"


@dataclass(frozen=True)
class PeriodRecord:
    index: int
    hour: int
    interval: float
    activations: int
    positives: int
    negatives: int
    events_total: int
    events_detected: int
    reward: float


@dataclass
class SimReport:
    span_s: float
    periods: list[PeriodRecord]
    activations: int
    positives: int
    negatives: int
    events_total: int
    events_detected: int
    detection_rate: float
    charge_mah: float
    avg_current_ma: float
    lifetime_years: float


# -- timeline engine --------------------------------------------------------

TICKS_PER_DAY = round(SECONDS_PER_DAY) * TICKS_PER_S

def _check_intervals(intervals, profile: PowerProfile, what: str = "interval") -> list[int]:
    """The intervals in ticks; ScheduleError unless each fits the clock and outlasts the probe."""
    ticks = []
    for interval in intervals:
        check_seconds(interval, what, ScheduleError)
        ticks.append(to_ticks(interval))
        if ticks[-1] <= profile.ticks["d_probe"]:
            raise ScheduleError(
                f"{what} {interval} s not longer than the probe "
                f"({profile.d_probe} s) in whole nanoseconds"
            )
    return ticks


@dataclass
class PeriodStats:
    """One period's probe counts, and the events it detected, as trace rows.

    ``detected`` is the only record of what a device heard; reports and the
    network driver read it.
    """

    activations: int = 0
    positives: int = 0
    negatives: int = 0
    detected: list[int] = field(default_factory=list)


class TimelineEngine:
    """One device's timeline over [t_begin, t_end) of a trace's ``rows``.

    ``rows`` are the trace rows the device senses, strictly ascending; None
    means every row. The engine reads the trace's one ``tick_view``: with
    every row that starts before t_end it holds zero-copy slices of the
    view's read-only buffers, and otherwise read-only int64 and float64
    columns gathered from the view at ``rows``, 8 bytes per sensed event
    each. Rows that start at or after t_end are dropped, so no
    probe can hear them. The engine keeps the ``rows`` it gathered at (None
    when it slices the view), and run_period maps its detections through
    them once, so ``PeriodStats.detected`` holds trace rows either way.

    Engine time is integer nanosecond ticks (``power.to_ticks``, within
    int64 range): event starts and ends come in ticks from the view, the
    window, period ends, intervals and profile durations are converted once,
    and t, next_wake, horizon and the log are in ticks. The engine keeps a
    tick total per mode, and charge_mah is ``power.charge_from_ticks`` of
    those totals. Periods are driven externally via run_period, in seconds,
    so a caller can interleave action selection, reward computation, and
    billing between periods. All methods keep the busy frontier, the pending
    wake, and the per-mode ticks consistent; the exported log (when
    collected) tiles the window exactly.

    run_period is the one wake loop. It keeps the clock, event pointer,
    pending wake, camera accumulator, counts and sleep and probe ticks in
    locals and stores them once per period; the day boundary and horizon
    bound on a run are worked out once per day segment of a period. One
    block bills each run of wakes; ``_emit`` bills every activity after a
    fire, as it does for bill_ql, bill_pings and finish. A run is the quiet
    wakes w + i * interval, i < k, from the current wake w on, then the
    wake after them if it falls before the period end. With an abstract
    detector of fp_rate below 1, k is the least of three bounds:
      - the wakes before the period end, the horizon and the next day
        boundary (the random stream is per day);
      - the wakes before the first one whose record window hears an event.
        Window i is [w + i * interval, w + i * interval + record). For
        event j from the event pointer on, i_j, the first window that ends
        after the event starts, is the only candidate: it hears the event
        iff it starts before the event ends, and no later window does if
        it does not. i_j never falls as j grows, so the walk stops at the
        first i_j that hears its event or reaches the other bounds, and an
        event that no wake hears costs a few integer operations;
      - the wakes whose probes end inside the horizon.
    With fp_rate 0 that is closed-form integer arithmetic, O(1) per run.
    With 0 < fp_rate < 1 a run of k >= 1 wakes draws one uniform U from the
    day's stream: g = floor(log1p(-U) / log1p(-fp_rate)) quiet wakes come
    before its first false alarm, as P(g >= i) = (1 - fp_rate) ** i. If
    g < k, k becomes g and the wake after the quiet ones fires as a false
    alarm with no draw of its own; otherwise g is dropped, which is exact
    because the wakes are independent, and the next run draws afresh. With
    fp_rate 1 or the Goertzel detector k is 0. The wake after the quiet
    ones is probed singly, by one forward walk over the event list. It
    starts at the event that ended the quiet walk, as every event before it
    has ended by that wake, or at the event pointer when a false alarm cuts
    the run short (an event the quiet walk stepped over may not have ended
    by an earlier wake). The walk collects the record window's hits,
    ``trace.window_rows``' rule on tick columns, and the end of the
    recording they start; their bands go to ``make_probe_fn(detector)``,
    the one detector call. On a fire the walk goes on from the same index
    while events start before the recording ends, and each one it captures
    stretches the recording. The third bound keeps every quiet probe
    inside the horizon, so only that last probe is clipped. Billed in runs
    or wake by wake under this draw rule, the ticks, logs and random draws
    are the same.

    The engine keeps no record of what it detected; each period's
    ``PeriodStats.detected`` is the record. It needs none because every
    detected event has ended by the clock t, or t sits at the horizon, and
    every later wake is at or after t: no probe can hear an event twice.
    """

    def __init__(
        self,
        trace: EventTrace,
        t_begin: float,
        t_end: float,
        profile: PowerProfile,
        detector: DetectorModel,
        rng_for_day,
        collect_log: bool = False,
        rows=None,
    ):
        if not 0 <= t_begin < t_end <= trace.horizon:
            raise ScheduleError(
                f"window [{t_begin}, {t_end}) outside trace horizon {trace.horizon}"
            )
        self.trace = trace
        self.profile = profile
        self.probe_fn = make_probe_fn(detector)
        self.rng_for_day = rng_for_day
        self.t_begin = to_ticks(t_begin)
        self.horizon = to_ticks(t_end)
        self.t = self.t_begin
        self.next_wake = self.t_begin
        self.ptr = 0
        self.cam_acc = 0.0
        self.ticks_by_mode = dict.fromkeys(MODES, 0)
        self.log: list[LogEntry] | None = [] if collect_log else None
        view = trace.tick_view
        live = bisect.bisect_left(view.starts, self.horizon)  # later events are outside the window
        if rows is not None:
            rows = rows[: bisect.bisect_left(rows, live)]
        if rows is None or len(rows) == live:
            # Every row before the horizon: a slice of the view's own buffers.
            rows = None
            columns = (col[:live] for col in view)
        else:
            columns = (memoryview(np.asarray(col)[rows]).toreadonly() for col in view)
        self.rows = rows
        self.starts, self.ends, self._bands = columns
        fp = detector.fixed_fp_rate
        self._quiet_fp = fp if fp is not None and fp < 1.0 else None
        self.dur = profile.ticks

    @property
    def charge_mah(self) -> float:
        return charge_from_ticks(self.ticks_by_mode, self.profile)

    def _emit(self, mode: str, duration: int) -> None:
        t = self.t
        if t + duration > self.horizon:
            duration = self.horizon - t
        if duration <= 0:
            return
        self.ticks_by_mode[mode] += duration
        if self.log is not None:
            self.log.append(LogEntry(mode, t, duration))
        self.t = t + duration

    def _sleep_to(self, target: int) -> None:
        if target > self.t:
            self._emit("sleep", target - self.t)

    def bill_ql(self, mode: str, at: float) -> None:
        """Insert a scheduler inference or update activity at the frontier."""
        self._sleep_to(to_ticks(at))
        self._emit(mode, self.dur["d_ql"])

    def bill_pings(self, k: int, at: float) -> None:
        """Insert k pings back to back at the frontier, from ``at`` (s) on.

        Without a log the k pings are one tick add, clipped at the horizon
        as k separate ones would be; a collected log gets k entries.
        """
        self._sleep_to(to_ticks(at))
        d_ping = self.dur["d_ping"]
        if self.log is None:
            self._emit("ping", k * d_ping)
        else:
            for _ in range(k):
                self._emit("ping", d_ping)

    def run_period(self, p_end: float, interval: float) -> PeriodStats:
        """Process all wakes scheduled before p_end (s) at the given interval (s)."""
        (interval,) = _check_intervals((interval,), self.profile)
        horizon = self.horizon
        stop = min(to_ticks(p_end), horizon)
        d = self.dur
        d_probe, d_record, d_fa = d["d_probe"], d["probe_record_s"], d["false_alarm_record_s"]
        d_audio, d_camera, d_image = d["d_tx_audio"], d["d_camera"], d["d_tx_image"]
        cam_ratio = self.profile.camera_trigger_ratio
        starts, ends, bands = self.starts, self.ends, self._bands
        n = len(starts)
        log, fp, probe_fn, rng_for_day = self.log, self._quiet_fp, self.probe_fn, self.rng_for_day
        log_q = math.log1p(-fp) if fp else 0.0  # the log of a wake's chance to stay quiet
        gap = interval - d_probe
        t, ptr, next_wake, cam_acc = self.t, self.ptr, self.next_wake, self.cam_acc
        activations = positives = negatives = 0
        detected = []
        sleep = probe = 0
        # The current day segment's end, the last wake a run may bill in it,
        # and the uniform draw of its day's stream.
        day_end, last_wake, uniform = 0, 0, None
        while next_wake < stop:
            w = next_wake if next_wake > t else t
            if w >= stop:
                # Activity pushed the effective wake out of this period.
                next_wake = w
                break
            # Events before ptr have ended by w, so no record window from w on meets them.
            while ptr < n and ends[ptr] <= w:
                ptr += 1
            k = 0
            j = ptr
            alarm = False
            if fp is not None:
                # The run of quiet wakes w + i * interval, i < k; the class
                # docstring gives the bounds on k.
                if w >= day_end:
                    day = w // TICKS_PER_DAY
                    day_end = (day + 1) * TICKS_PER_DAY
                    last_wake = min(stop, day_end) - 1
                    if horizon - d_probe < last_wake:
                        last_wake = horizon - d_probe
                    if fp:
                        uniform = rng_for_day(day).random
                k = (last_wake - w) // interval + 1
                w_record = w + d_record
                if fp and k > 0 and (j == n or starts[j] >= w_record):
                    # Wake w is quiet (the first event not yet ended starts
                    # after its window), so a run opens with its one draw.
                    g = math.log1p(-uniform()) / log_q
                    if g < k:
                        k, alarm = int(g) + 1, True  # the walk checks windows 0..g
                # i is i_j, the one window that can be the first to hear event
                # j. Window 0 is quiet if a run opened, so a run cut at wake 0
                # (k 1, alarm True) needs no walk.
                while j < n and k > alarm:
                    i = (starts[j] - w_record) // interval + 1
                    if i < 0:
                        i = 0
                    if i >= k:
                        break
                    if w + i * interval < ends[j]:
                        k, alarm = i, False  # wake i hears it: no false alarm
                        break
                    j += 1
                if alarm:
                    # Wake g fires. The events the walk stepped over may not
                    # have ended by it, so its probe walks from ptr.
                    k, j = k - 1, ptr
            # Bill the k quiet wakes and the one after them, unless it is at
            # or past stop; only the last probe can meet the horizon.
            after = w + k * interval  # the wake after the quiet ones
            if after < stop:
                m, last = k, after  # m: the wakes before the last one billed
            else:
                m, last = k - 1, after - interval
            dur = d_probe if last <= horizon - d_probe else horizon - last
            sleep += (w - t) + m * gap
            probe += m * d_probe + dur
            if log is not None:
                if w > t:
                    log.append(LogEntry("sleep", t, w - t))
                for wk in range(w, last, interval):
                    log.append(LogEntry("probe", wk, d_probe))
                    log.append(LogEntry("sleep", wk + d_probe, gap))
                log.append(LogEntry("probe", last, dur))
            t = last + dur
            activations += m + 1
            negatives += k
            if after >= stop:
                next_wake = after
                break
            # The single probe at w. Every event before j has ended by w, so
            # one walk from there covers the record window and, after a fire,
            # the recording.
            w = last
            ptr = j
            while ptr < n and ends[ptr] <= w:
                ptr += 1
            window_end = w + d_record
            hit, heard = [], []
            rec_end = w
            j = ptr
            while j < n and starts[j] < window_end:
                end = ends[j]
                if end > w:
                    hit.append(j)
                    heard.append(bands[j])
                    if end > rec_end:
                        rec_end = end
                j += 1
            if not (alarm or probe_fn(heard, rng_for_day(w // TICKS_PER_DAY))):
                negatives += 1
                next_wake = w + interval if w + interval > t else t
                continue

            # Every event detected earlier has ended by the clock before this
            # probe, which is at most w (or sits at the horizon and no wake
            # follows), so the hits are all new, and the events the recording
            # can add start at or after the record window, at j on. The rest
            # of the fire is billed through _emit, from self.t.
            self.t = t
            if not hit:
                rec_end = t + d_fa
            if rec_end > t:
                # Mic stays on; events starting meanwhile are captured and
                # stretch the recording to their own ends.
                while j < n and starts[j] < rec_end:
                    end = ends[j]
                    if end > t:
                        hit.append(j)
                        if end > rec_end:
                            rec_end = end
                    j += 1
                self._emit("event_record", rec_end - t)
            if hit:
                positives += 1
                detected += hit
                for _ in hit:  # a clip per event; camera_trigger_ratio of them get a picture
                    self._emit("tx_audio", d_audio)
                    cam_acc += cam_ratio
                    if cam_acc >= 1.0 - 1e-9:
                        cam_acc -= 1.0
                        self._emit("camera", d_camera)
                        self._emit("tx_image", d_image)
            else:
                # False alarm: the clip still gets recorded and sent.
                negatives += 1
                self._emit("tx_audio", d_audio)
            t = self.t
            # Every event before j has ended by the clock t (or t sits at the horizon).
            ptr = j
            next_wake = w + interval if w + interval > t else t

        self.t, self.ptr, self.next_wake, self.cam_acc = t, ptr, next_wake, cam_acc
        self.ticks_by_mode["sleep"] += sleep
        self.ticks_by_mode["probe"] += probe
        if self.rows is not None:
            detected = [self.rows[k] for k in detected]
        return PeriodStats(activations, positives, negatives, detected)

    def finish(self) -> None:
        self._sleep_to(self.horizon)


# -- learner ----------------------------------------------------------------


class Learner:
    """One device's Q-learning scheduler.

    The state is hour * n_bins + bin, where bin places the device's own
    detection count of the previous period among the inclusive upper
    ``edges``; with no edges the state is the plain hour. Each period the
    learner chooses an interval epsilon-greedily from the day's stream and
    bills an inference at the period start; ``learn`` updates the chosen
    cell toward the next hour's state and bills the update at the period
    end. An update at a day boundary (every 24th) ends an episode: epsilon
    decays and the greedy policy joins ``history``. At epsilon 0 the choice
    is greedy and draws nothing, so a learner that never learns replays a
    trained table.
    """

    def __init__(self, table, hp, actions, rng_for_day, edges=(), eps=None):
        self.table = table
        self.hp = hp
        self.actions = actions
        self.rng_for_day = rng_for_day
        self.edges = edges
        self.n_bins = len(edges) + 1
        self.eps = hp.eps_max if eps is None else eps
        self.bin = 0
        self.state = 0
        self.action = 0
        self.history: list[np.ndarray] = []

    def choose(self, engine: TimelineEngine, hour: int, p_start: float) -> float:
        self.state = hour * self.n_bins + self.bin
        rng = self.rng_for_day(int(p_start // SECONDS_PER_DAY)) if self.eps > 0 else None
        self.action = select_action(self.table, self.state, self.eps, rng)
        engine.bill_ql("ql_infer", p_start)
        return self.actions.intervals[self.action]

    def learn(
        self, engine: TimelineEngine, r: float, hour: int, n_detected: int, p_end: float
    ) -> None:
        self.bin = bisect.bisect_left(self.edges, n_detected)
        next_state = ((hour + 1) % 24) * self.n_bins + self.bin
        q_update(self.table, self.state, self.action, r, next_state, self.hp)
        engine.bill_ql("ql_update", p_end)
        if p_end % SECONDS_PER_DAY == 0:
            self.eps = decay_epsilon(self.eps, self.hp)
            self.history.append(self.table.greedy_policy())


def _run_periods(
    trace, t_begin, t_end, detector, profile, rng_for_day, w1, collect_log, *,
    interval=None, learner=None, learn=False,
):
    """Drive one engine through the hourly periods of [t_begin, t_end).

    Every period runs at ``interval``, unless a learner chooses each
    period's interval; with ``learn`` it also learns from the period reward
    and ends its own episodes. Each period's reward is scored once, with the
    false-alarm weight ``w1``, for the learner and the report. Returns the
    report and the engine's log.
    """
    engine = TimelineEngine(
        trace, t_begin, t_end, profile, detector, rng_for_day, collect_log=collect_log
    )
    rows = []
    for p in range(int(math.ceil((t_end - t_begin) / SECONDS_PER_HOUR))):
        p_start = t_begin + p * SECONDS_PER_HOUR
        p_end = min(p_start + SECONDS_PER_HOUR, t_end)
        hour = trace.hour_of(p_start)
        if learner is not None:
            interval = learner.choose(engine, hour, p_start)
        stats = engine.run_period(p_end, interval)
        r = reward(stats.positives, stats.negatives, w1)
        if learn:
            learner.learn(engine, r, hour, len(stats.detected), p_end)
        rows.append((p, hour, interval, stats, r))
    engine.finish()
    return _build_report(trace, t_begin, t_end, rows, engine, profile), engine.log


def _per_period(starts: np.ndarray, t_begin: float, n_periods: int) -> np.ndarray:
    """Count starts per hourly period from t_begin; earlier starts count in period 0."""
    idx = np.where(starts >= t_begin, (starts - t_begin) // SECONDS_PER_HOUR, 0.0)
    return np.bincount(idx[idx < n_periods].astype(np.int64), minlength=n_periods)


def _build_report(
    trace: EventTrace,
    t_begin: float,
    t_end: float,
    rows,
    engine: TimelineEngine,
    profile: PowerProfile,
) -> SimReport:
    n_periods = len(rows)
    # Events intersecting the window, attributed to the period of their
    # start (carry-ins from before the window land in period 0).
    live = window_rows(trace, t_begin, t_end)
    totals = _per_period(trace.starts[live], t_begin, n_periods)
    rows_detected = [k for *_, stats, _ in rows for k in stats.detected]
    detected = _per_period(trace.starts[rows_detected], t_begin, n_periods)

    periods = []
    for (p, hour, interval, stats, r) in rows:
        periods.append(
            PeriodRecord(
                index=p,
                hour=hour,
                interval=interval,
                activations=stats.activations,
                positives=stats.positives,
                negatives=stats.negatives,
                events_total=int(totals[p]),
                events_detected=int(detected[p]),
                reward=r,
            )
        )
    events_total = int(totals.sum())
    events_detected = int(detected.sum())
    rate = 1.0 if events_total == 0 else events_detected / events_total
    span = t_end - t_begin
    avg_ma = engine.charge_mah / (span / 3600.0)
    return SimReport(
        span_s=span,
        periods=periods,
        activations=sum(p.activations for p in periods),
        positives=sum(p.positives for p in periods),
        negatives=sum(p.negatives for p in periods),
        events_total=events_total,
        events_detected=events_detected,
        detection_rate=rate,
        charge_mah=engine.charge_mah,
        avg_current_ma=avg_ma,
        lifetime_years=lifetime_years(avg_ma, profile.battery_mah) if avg_ma > 0 else math.inf,
    )


def _episodes_span(trace: EventTrace, days: int) -> float:
    """The span (s) of ``days`` whole-day episodes; ScheduleError if the trace is shorter."""
    span = days * SECONDS_PER_DAY
    if trace.horizon < span:
        raise ScheduleError(f"trace horizon {trace.horizon} s shorter than {span} s of episodes")
    return span


def _day_rng_provider(seed: int, device_id: int):
    """day -> the device's stream for that day, built once per day."""
    return functools.cache(functools.partial(substream, seed, "device", device_id, "day"))


# -- public operations ------------------------------------------------------


def run_schedule(
    trace: EventTrace,
    spec: FixedSchedule | GreedySchedule,
    detector: DetectorModel,
    profile: PowerProfile,
    seed: int,
    *,
    collect_log: bool = False,
    t_begin: float = 0.0,
    duration_s: float | None = None,
) -> tuple[SimReport, list[LogEntry] | None]:
    """Simulate one schedule over a window of the trace.

    A ``GreedySchedule`` replays a trained table without learning, so a
    learned policy is evaluated exactly as a fixed schedule is, on device 0's
    streams. Returns the report and, when collect_log, an activity log
    tiling the window exactly.
    """
    t_end = trace.horizon if duration_s is None else t_begin + duration_s
    hp = Hyperparameters()
    if isinstance(spec, FixedSchedule):
        _check_intervals((spec.interval,), profile)
        learner, interval = None, spec.interval
    elif isinstance(spec, GreedySchedule):
        _check_intervals(spec.actions.intervals, profile, "action")
        if spec.table.n_states != 24:
            raise ScheduleError(
                f"greedy schedule needs a 24-state table, got {spec.table.n_states}"
            )
        learner, interval = Learner(spec.table, hp, spec.actions, None, eps=0.0), None
    else:
        raise ScheduleError(f"unknown schedule spec {spec!r}")
    return _run_periods(
        trace, t_begin, t_end, detector, profile, _day_rng_provider(seed, 0), hp.w1,
        collect_log, interval=interval, learner=learner,
    )


@dataclass
class TrainResult:
    """A trained table, the training window's report and the greedy policy after each episode."""

    table: QTable
    train_report: SimReport
    policy_history: list[np.ndarray]
    eps_final: float
    train_log: list[LogEntry] | None = None


def train_qlearn(
    trace: EventTrace,
    train_days: int,
    hp: Hyperparameters,
    actions: ActionSpace,
    detector: DetectorModel,
    profile: PowerProfile,
    seed: int,
    *,
    init_table: QTable | None = None,
    device_id: int = 0,
    collect_log: bool = False,
) -> TrainResult:
    """Train over the leading ``train_days`` days of the trace.

    Each training day is one episode: per period an action is chosen
    epsilon-greedily at period start, held for the period, and updated at
    period end with the period reward; the next-state index wraps from the
    last hour to the first. The learner ends each episode (``Learner``).
    To evaluate the trained table, run ``GreedySchedule(result.table,
    actions)`` through ``run_schedule``, as any fixed schedule is run.
    """
    if train_days < 1:
        raise ScheduleError("need train_days >= 1")
    train_end = _episodes_span(trace, train_days)
    _check_intervals(actions.intervals, profile, "action")
    if init_table is not None:
        if init_table.values.shape != (24, len(actions)):
            raise ScheduleError("init_table shape does not match 24 x actions")
        table = init_table.copy()
    else:
        table = QTable.zeros(24, len(actions))
    rng_for_day = _day_rng_provider(seed, device_id)
    learner = Learner(table, hp, actions, rng_for_day)
    train_report, train_log = _run_periods(
        trace, 0.0, train_end, detector, profile, rng_for_day, hp.w1, collect_log,
        learner=learner, learn=True,
    )
    return TrainResult(
        table=table,
        train_report=train_report,
        policy_history=learner.history,
        eps_final=learner.eps,
        train_log=train_log,
    )


def convergence_episodes(policy_history: list[np.ndarray]) -> int | None:
    """First episode index after which the greedy policy never changes.

    Returns None for an empty history or when the policy was still changing
    at the final episode (no evidence of stability).
    """
    if not policy_history:
        return None
    last_change = 0
    for i in range(1, len(policy_history)):
        if not np.array_equal(policy_history[i], policy_history[i - 1]):
            last_change = i
    if last_change == len(policy_history) - 1 and len(policy_history) > 1:
        return None
    return last_change
