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
Training episodes are whole days; epsilon decays once per episode.

Engine time is integer nanosecond ticks (``power.to_ticks``, within int64
range); seconds appear only at the edges, in the inputs and in the reports.
Charge is billed from a tick total per mode. With an abstract detector of
low false-positive rate, wakes whose record windows meet no event are billed
in bulk. At fp_rate 0 a run of such wakes is closed-form integer arithmetic,
O(1) whatever its length, so cost scales with events, periods and days
rather than probes; at a low positive fp_rate it also draws one number per
wake. The Goertzel detector synthesizes noise for every window, so each of
its wakes is probed one by one. ``TimelineEngine`` says exactly which wakes
go which way; both ways give the same ticks, logs and random draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detect import DetectorModel, gate, sample_detection
from .errors import ScheduleError
from .power import MODES, TICKS_PER_S, LogEntry, PowerProfile, charge_from_ticks, to_ticks
from .qsched import (
    ActionSpace,
    Hyperparameters,
    QTable,
    RewardInputs,
    decay_epsilon,
    q_update,
    reward,
    select_action,
)
from .rng import substream
from .trace import SECONDS_PER_DAY, SECONDS_PER_HOUR, EventTrace

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
    episodes_to_convergence: int | None = None


# -- detector wiring --------------------------------------------------------


def make_probe_fn(model: DetectorModel):
    """Turn a DetectorModel into probe(bands, rng) -> bool.

    ``bands`` lists the dominant band of each event overlapping the record
    window (None for untagged events). Abstract models with rates of exactly
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
        center = band if band is not None else default_band
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


# -- timeline engine --------------------------------------------------------

TICKS_PER_DAY = round(SECONDS_PER_DAY) * TICKS_PER_S

# With fp_rate > 0 a bulk step saves the day's stream, draws for the run and
# may rewind, and a false alarm ends a run after about 1 / fp_rate wakes, so
# above BULK_MAX_FP every wake is probed one by one. Up to it, runs of any
# length are billed in bulk, as at fp_rate 0, where a run costs a few integer
# operations, less than one probe. Timed in process with run_schedule at
# fixed intervals of 3, 10, 30 and 60 s (about 115 k wakes each, best of 3,
# 2-vCPU x86-64): at fp_rate 0.001 to 0.1 runs of at least 1, 2 or 4 wakes
# timed alike, and bulk billing beat probing every wake at all four
# intervals; at 0.15 it lost at 10 s.
BULK_MAX_FP = 0.1


def _check_intervals(intervals, profile: PowerProfile, what: str = "interval") -> None:
    """Raise ScheduleError unless every interval is longer than the probe in ticks."""
    d_probe = profile.ticks["d_probe"]
    for interval in intervals:
        if to_ticks(interval) <= d_probe:
            raise ScheduleError(
                f"{what} {interval} s not longer than the probe "
                f"({profile.d_probe} s) in whole nanoseconds"
            )


@dataclass
class PeriodStats:
    activations: int = 0
    positives: int = 0
    negatives: int = 0
    detected: list = field(default_factory=list)  # (event_id, event_start in s)


class TimelineEngine:
    """One device's timeline over [t_begin, t_end) of a trace.

    Engine time is integer nanosecond ticks (``power.to_ticks``, within
    int64 range): event starts and ends, the window, period ends, intervals
    and profile durations are converted once, and t, next_wake, horizon and
    the log are in ticks. The engine keeps a tick total per mode, and
    charge_mah is ``power.charge_from_ticks`` of those totals. Periods are
    driven externally via run_period, in seconds, so a caller can interleave
    action selection, reward computation, and billing between periods. All
    methods keep the busy frontier, the pending wake, and the per-mode ticks
    consistent; the exported log (when collected) tiles the window exactly.

    Each wake is probed through ``make_probe_fn(detector)``. When the
    detector is abstract with fp_rate <= BULK_MAX_FP, run_period bills in
    one step each run of quiet wakes w + i * interval, i < k, from the
    current wake w on. k is the least of three bounds:
      - the wakes before the period end, the horizon and the next day
        boundary (the random stream is per day);
      - the wakes whose record windows end by the start of the next event
        that has not ended yet, so no event overlaps them;
      - the wakes whose probes end inside the horizon.
    With fp_rate 0 that is closed-form integer arithmetic, O(1) per run:
    (w - t) + (k - 1) * (interval - d_probe) sleep ticks and k * d_probe
    probe ticks, k activations and k negatives. With fp_rate > 0, k is cut
    at the first false alarm drawn from the day's stream (and after about
    4 / fp_rate draws), and the stream is left with exactly one draw per
    billed wake. The wake that ends a run goes through ``_probe``, as does
    every wake not in a run and every wake with the Goertzel detector or a
    higher fp_rate. Both ways give the same ticks, logs and random draws.
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
        self.detected_mask = np.zeros(len(trace), dtype=bool)
        self.detected: list[tuple[int, float]] = []
        self.cam_acc = 0.0
        self.ticks_by_mode = dict.fromkeys(MODES, 0)
        self.log: list[LogEntry] | None = [] if collect_log else None
        self.starts = np.rint(trace.starts * 1e9).astype(np.int64).tolist()
        self.ends = np.rint(trace.ends * 1e9).astype(np.int64).tolist()
        self._bands = [ev.band for ev in trace.events]
        self._ids = [ev.id for ev in trace.events]
        fp = detector.fixed_fp_rate
        self._quiet_fp = fp if fp is not None and fp <= BULK_MAX_FP else None
        self.dur = profile.ticks

    @property
    def charge_mah(self) -> float:
        return charge_from_ticks(self.ticks_by_mode, self.profile)

    def _emit(self, mode: str, duration: int) -> None:
        if self.t + duration > self.horizon:
            duration = self.horizon - self.t
        if duration <= 0:
            return
        self.ticks_by_mode[mode] += duration
        if self.log is not None:
            self.log.append(LogEntry(mode, self.t, duration))
        self.t += duration

    def _sleep_to(self, target: int) -> None:
        if target > self.t:
            self._emit("sleep", target - self.t)

    def bill_ql(self, mode: str, at: float) -> None:
        """Insert a scheduler inference/update/ping activity at the frontier."""
        self._sleep_to(to_ticks(at))
        self._emit(mode, self.dur["d_ping" if mode == "ping" else "d_ql"])

    def run_period(self, p_end: float, interval: float) -> PeriodStats:
        """Process all wakes scheduled before p_end (s) at the given interval (s)."""
        _check_intervals((interval,), self.profile)
        p_end, interval = to_ticks(p_end), to_ticks(interval)
        stats = PeriodStats()
        while self.next_wake < p_end and self.next_wake < self.horizon:
            w = max(self.next_wake, self.t)
            if self._quiet_fp is not None and w < p_end and w < self.horizon:
                w = self._bill_quiet_wakes(w, p_end, interval, stats)
            if w >= p_end or w >= self.horizon:
                # Activity pushed the effective wake out of this period.
                self.next_wake = w
                break
            self._probe(w, stats)
            self.next_wake = max(w + interval, self.t)
        return stats

    def finish(self) -> None:
        self._sleep_to(self.horizon)

    def _bill_quiet_wakes(self, w: int, p_end: int, interval: int, stats: PeriodStats) -> int:
        """Bill the run of quiet wakes w, w + interval, ... in one step.

        Returns the first wake not billed (w itself when none qualifies); the
        bounds are listed in the class docstring. Leaves t, the per-mode
        ticks, log, stats and the day's stream exactly as probing the billed
        wakes one by one would.
        """
        starts, ends = self.starts, self.ends
        n = len(starts)
        while self.ptr < n and ends[self.ptr] <= w:
            self.ptr += 1
        d_probe = self.dur["d_probe"]
        day = w // TICKS_PER_DAY
        # The three bounds: wakes before w_end (at least one, as w < w_end),
        # wakes whose probes end inside the horizon, and wakes whose record
        # windows end by starts[ptr]; events from ptr on start there or
        # later, and earlier ones have ended.
        w_end = min(p_end, self.horizon, (day + 1) * TICKS_PER_DAY)
        k = min(
            (w_end - 1 - w) // interval + 1,
            (self.horizon - d_probe - w) // interval + 1,
        )
        if self.ptr < n:
            k = min(k, (starts[self.ptr] - self.dur["probe_record_s"] - w) // interval + 1)
        fp = self._quiet_fp
        if fp > 0.0 and k > 0:
            rng = self.rng_for_day(day)
            state = rng.bit_generator.state
            # A false alarm ends the run after about 1/fp wakes, and 4/fp
            # draws hold none with chance e**-4. Drawing for the whole run
            # made 0.3 s intervals 1.3-1.6x slower at fp_rate 0.002-0.05;
            # caps from 1/fp to 8/fp timed alike at 3 and 30 s.
            fires = rng.random(min(k, int(4.0 / fp) + 16)) < fp
            k = fires.size
            if fires.any():
                # Keep exactly one draw per billed wake; _probe draws for
                # the wake that fired.
                k = int(fires.argmax())
                rng.bit_generator.state = state
                rng.random(k)
        if k <= 0:
            return w

        t = self.t
        last = w + (k - 1) * interval
        gap = interval - d_probe
        self.ticks_by_mode["sleep"] += (w - t) + (k - 1) * gap
        self.ticks_by_mode["probe"] += k * d_probe
        if self.log is not None:
            log = self.log
            if w > t:
                log.append(LogEntry("sleep", t, w - t))
            log.append(LogEntry("probe", w, d_probe))
            for wk in range(w + interval, last + 1, interval):
                log.append(LogEntry("sleep", wk - gap, gap))
                log.append(LogEntry("probe", wk, d_probe))
        self.t = last + d_probe
        stats.activations += k
        stats.negatives += k
        return last + interval

    def _probe(self, w: int, stats: PeriodStats) -> None:
        d = self.dur
        self._sleep_to(w)
        self._emit("probe", d["d_probe"])
        window_end = w + d["probe_record_s"]
        starts, ends = self.starts, self.ends
        n = len(starts)
        while self.ptr < n and ends[self.ptr] <= w:
            self.ptr += 1
        hit = []
        j = self.ptr
        while j < n and starts[j] < window_end:
            if ends[j] > w:
                hit.append(j)
            j += 1
        rng = self.rng_for_day(w // TICKS_PER_DAY)
        fired = self.probe_fn([self._bands[k] for k in hit], rng)
        stats.activations += 1
        if not fired:
            stats.negatives += 1
            return

        detected_now = []
        for k in hit:
            if not self.detected_mask[k]:
                self.detected_mask[k] = True
                detected_now.append(k)
        rec_start = self.t
        if hit:
            rec_end = max(ends[k] for k in hit)
        else:
            rec_end = rec_start + d["false_alarm_record_s"]
        if rec_end > rec_start:
            # Mic stays on; events starting meanwhile are captured and
            # stretch the recording to their own ends.
            k = self.ptr
            while k < n and starts[k] < rec_end:
                if ends[k] > rec_start and not self.detected_mask[k]:
                    self.detected_mask[k] = True
                    detected_now.append(k)
                    if ends[k] > rec_end:
                        rec_end = ends[k]
                k += 1
            self._emit("event_record", rec_end - rec_start)

        if detected_now:
            stats.positives += 1
            events = self.trace.events
            for k in detected_now:
                stats.detected.append((self._ids[k], events[k].start))
                self.detected.append((self._ids[k], events[k].start))
                self._emit("tx_audio", d["d_tx_audio"])
                self.cam_acc += self.profile.camera_trigger_ratio
                if self.cam_acc >= 1.0 - 1e-9:
                    self.cam_acc -= 1.0
                    self._emit("camera", d["d_camera"])
                    self._emit("tx_image", d["d_tx_image"])
        else:
            # False alarm: the clip still gets recorded and sent.
            stats.negatives += 1
            self._emit("tx_audio", d["d_tx_audio"])


# -- learner ----------------------------------------------------------------


def _bin_index(count: int, edges: tuple[int, ...]) -> int:
    for i, edge in enumerate(edges):
        if count <= edge:
            return i
    return len(edges)


class Learner:
    """One device's Q-learning scheduler.

    The state is hour * n_bins + bin, where bin places the device's own
    detection count of the previous period among the inclusive upper
    ``edges``; with no edges the state is the plain hour. Each period the
    learner chooses an interval epsilon-greedily from the day's stream and
    bills an inference at the period start; ``learn`` updates the chosen
    cell toward the next hour's state and bills the update at the period
    end. Epsilon decays once per episode. At epsilon 0 the choice is greedy
    and draws nothing, so a learner that never learns replays a trained
    table.
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

    def choose(self, engine: TimelineEngine, hour: int, p_start: float) -> float:
        self.state = hour * self.n_bins + self.bin
        rng = self.rng_for_day(int(p_start // SECONDS_PER_DAY)) if self.eps > 0 else None
        self.action = select_action(self.table, self.state, self.eps, rng)
        engine.bill_ql("ql_infer", p_start)
        return self.actions[self.action]

    def learn(
        self, engine: TimelineEngine, r: float, hour: int, n_detected: int, p_end: float
    ) -> None:
        self.bin = _bin_index(n_detected, self.edges)
        next_state = ((hour + 1) % 24) * self.n_bins + self.bin
        q_update(self.table, self.state, self.action, r, next_state, self.hp)
        engine.bill_ql("ql_update", p_end)

    def end_episode(self) -> None:
        self.eps = decay_epsilon(self.eps, self.hp)


def _run_periods(
    engine, t_begin, t_end, n_periods, learner=None, interval=None, w1=None, first_period=0
):
    """Drive the engine period by period; returns raw period tuples.

    Without a learner every period runs at ``interval``. A learner chooses
    each period's interval, and learns from the period reward when given
    its false-alarm weight ``w1``. first_period keeps the period index honest
    when a run is driven in chunks (training drives one day at a time).
    """
    rows = []
    for p in range(n_periods):
        p_start = t_begin + p * SECONDS_PER_HOUR
        p_end = min(p_start + SECONDS_PER_HOUR, t_end)
        hour = engine.trace.hour_of(p_start)
        if learner is not None:
            interval = learner.choose(engine, hour, p_start)
        stats = engine.run_period(p_end, interval)
        if w1 is not None:
            r = reward(RewardInputs(stats.positives, stats.negatives), w1)
            learner.learn(engine, r, hour, len(stats.detected), p_end)
        rows.append((first_period + p, hour, interval, stats))
    return rows


def _build_report(
    trace: EventTrace,
    t_begin: float,
    t_end: float,
    rows,
    engine: TimelineEngine,
    w1: float,
    profile: PowerProfile,
) -> SimReport:
    n_periods = len(rows)
    # Events intersecting the window, attributed to the period of their
    # start (carry-ins from before the window land in period 0).
    totals = np.zeros(n_periods, dtype=np.int64)
    for ev in trace.events:
        if ev.start >= t_end or ev.end <= t_begin:
            continue
        idx = int((ev.start - t_begin) // SECONDS_PER_HOUR) if ev.start >= t_begin else 0
        if 0 <= idx < n_periods:
            totals[idx] += 1
    detected = np.zeros(n_periods, dtype=np.int64)
    for _, start in engine.detected:
        idx = int((start - t_begin) // SECONDS_PER_HOUR) if start >= t_begin else 0
        if 0 <= idx < n_periods:
            detected[idx] += 1

    periods = []
    for (p, hour, interval, stats) in rows:
        r = reward(RewardInputs(stats.positives, stats.negatives), w1)
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
        lifetime_years=(
            profile.battery_mah / avg_ma / 8766.0 if avg_ma > 0 else math.inf
        ),
    )


def _day_rng_provider(seed: int, device_id: int):
    cache: dict[int, np.random.Generator] = {}

    def provider(day: int) -> np.random.Generator:
        gen = cache.get(day)
        if gen is None:
            gen = substream(seed, "device", device_id, "day", day)
            cache[day] = gen
        return gen

    return provider


# -- public operations ------------------------------------------------------


def run_schedule(
    trace: EventTrace,
    spec: FixedSchedule | GreedySchedule,
    detector: DetectorModel,
    profile: PowerProfile,
    seed: int,
    *,
    collect_log: bool = True,
    device_id: int = 0,
    t_begin: float = 0.0,
    duration_s: float | None = None,
) -> tuple[SimReport, list[LogEntry] | None]:
    """Simulate one schedule over a window of the trace.

    Returns the report and, when collect_log, an activity log tiling the
    window exactly.
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
    engine = TimelineEngine(
        trace,
        t_begin,
        t_end,
        profile,
        detector,
        _day_rng_provider(seed, device_id),
        collect_log=collect_log,
    )
    n_periods = int(math.ceil((t_end - t_begin) / SECONDS_PER_HOUR))
    rows = _run_periods(engine, t_begin, t_end, n_periods, learner, interval)
    engine.finish()
    report = _build_report(trace, t_begin, t_end, rows, engine, hp.w1, profile)
    return report, engine.log


@dataclass
class TrainResult:
    table: QTable
    train_report: SimReport
    eval_report: SimReport
    policy_history: list[np.ndarray]
    eps_final: float
    train_log: list[LogEntry] | None = None
    eval_log: list[LogEntry] | None = None


def train_qlearn(
    trace: EventTrace,
    train_days: int,
    eval_days: int,
    hp: Hyperparameters,
    actions: ActionSpace,
    detector: DetectorModel,
    profile: PowerProfile,
    seed: int,
    *,
    init_table: QTable | None = None,
    device_id: int = 0,
    collect_logs: bool = False,
) -> TrainResult:
    """Train over the leading days of the trace, then evaluate greedily.

    Each training day is one episode: per period an action is chosen
    epsilon-greedily at period start, held for the period, and updated at
    period end with the period reward; the next-state index wraps from the
    last hour to the first. Epsilon decays once per episode. Evaluation runs
    the greedy policy over the following days with learning frozen.
    """
    if train_days < 1 or eval_days < 0:
        raise ScheduleError("need train_days >= 1 and eval_days >= 0")
    needed = (train_days + eval_days) * SECONDS_PER_DAY
    if trace.horizon < needed:
        raise ScheduleError(
            f"trace horizon {trace.horizon} s shorter than {needed} s of episodes"
        )
    _check_intervals(actions.intervals, profile, "action")
    if init_table is not None:
        if init_table.values.shape != (24, len(actions)):
            raise ScheduleError("init_table shape does not match 24 x actions")
        table = init_table.copy()
    else:
        table = QTable.zeros(24, len(actions))
    rng_for_day = _day_rng_provider(seed, device_id)

    train_end = train_days * SECONDS_PER_DAY
    engine = TimelineEngine(
        trace, 0.0, train_end, profile, detector, rng_for_day, collect_log=collect_logs
    )
    learner = Learner(table, hp, actions, rng_for_day)
    history: list[np.ndarray] = []
    all_rows = []
    for day in range(train_days):
        all_rows.extend(
            _run_periods(
                engine,
                day * SECONDS_PER_DAY,
                train_end,
                24,
                learner,
                w1=hp.w1,
                first_period=day * 24,
            )
        )
        learner.end_episode()
        history.append(table.greedy_policy())
    engine.finish()
    train_report = _build_report(trace, 0.0, train_end, all_rows, engine, hp.w1, profile)
    train_report.episodes_to_convergence = convergence_episodes(history)

    if eval_days > 0:
        eval_spec = GreedySchedule(table=table, actions=actions)
        eval_report, eval_log = run_schedule(
            trace,
            eval_spec,
            detector,
            profile,
            seed,
            collect_log=collect_logs,
            device_id=device_id,
            t_begin=train_end,
            duration_s=eval_days * SECONDS_PER_DAY,
        )
        eval_report.episodes_to_convergence = train_report.episodes_to_convergence
    else:
        eval_report = train_report
        eval_log = None

    return TrainResult(
        table=table,
        train_report=train_report,
        eval_report=eval_report,
        policy_history=history,
        eps_final=learner.eps,
        train_log=engine.log,
        eval_log=eval_log,
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
