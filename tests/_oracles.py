"""Independent reference implementations the tests check against.

Everything here is deliberately naive: direct DFT matrix products, the
cos/sin basis gathered through one bins x window index matrix, the scalar
Goertzel recurrence, 1 ms time-grid energy integration, linear
interval scans, exhaustive subset clique enumeration, a per-hour reward
table from one fixed-schedule run per action, a timeline engine
that probes every wake one by one, a byte-by-byte event hash and ping
delivery that measures every distance per ping, and a local reward that
intersects fresh sets per detection. Slow and obviously correct beats fast
and clever for an oracle.
"""

import functools
import itertools
import math

import numpy as np

from dutysim.errors import ScheduleError
from dutysim.power import LogEntry, PowerProfile, to_ticks
from dutysim.qsched import reward
from dutysim.sim import TICKS_PER_DAY, FixedSchedule, PeriodStats, TimelineEngine, run_schedule
from dutysim.trace import SECONDS_PER_DAY, DiurnalProfile, Event, EventTrace, generate_trace


@functools.lru_cache(maxsize=4)
def _dft_basis(n: int, bins: tuple) -> np.ndarray:
    k = np.asarray(bins, dtype=np.float64).reshape(-1, 1)
    return np.exp(-2j * np.pi * k * np.arange(n) / n)


def naive_dft_power(samples: np.ndarray, bins) -> np.ndarray:
    """|X[k]|^2 per requested bin via the definition, one matrix product.

    The complex-exponential basis is cached per (n, bins), so checking many
    signals of one length builds it once.
    """
    x = np.asarray(samples, dtype=np.float64)
    spectrum = _dft_basis(x.shape[0], tuple(np.asarray(bins).tolist())) @ x
    return np.abs(spectrum) ** 2


def outer_product_basis(n: int, bins) -> np.ndarray:
    """The (2B, n) cos/sin basis from one (B, n) index matrix.

    Row b of each half reads the length-n cos or sin table at (b * k) mod n,
    all rows at once: an outer product of bins and sample indices, reduced
    mod n, gathers both halves, which are then stacked.
    """
    angles = 2.0 * np.pi * np.arange(n) / n
    idx = np.outer(np.asarray(bins, dtype=np.int64), np.arange(n)) % n
    return np.concatenate((np.cos(angles)[idx], np.sin(angles)[idx]))


def goertzel_recurrence(samples: np.ndarray, bins) -> np.ndarray:
    """|X[k]|^2 per requested bin via the Goertzel recurrence.

    This is the O(N)-per-bin algorithm the device runs: with
    c = 2*cos(2*pi*k/N), s0 = x[n] + c*s1 - s2 over every sample, and then
    |X[k]|^2 = s1^2 + s2^2 - c*s1*s2. One scalar loop per bin.
    """
    x = [float(v) for v in np.asarray(samples, dtype=np.float64)]
    n = len(x)
    out = []
    for k in bins:
        c = 2.0 * math.cos(2.0 * math.pi * float(k) / n)
        s1 = s2 = 0.0
        for v in x:
            s1, s2 = v + c * s1 - s2, s1
        out.append(s1 * s1 + s2 * s2 - c * s1 * s2)
    return np.array(out)


def assert_spectrum_close(got, want, samples, rtol=1e-9):
    """Per-bin closeness, relative with a floor at rtol of total power.

    Roundoff in float64 is absolute at the spectrum scale, so bins whose
    true power sits near zero cannot satisfy a pure relative bound; the
    signal's circular power N * sum(x^2) supplies the scale.
    """
    x = np.asarray(samples, dtype=np.float64)
    scale = x.shape[0] * float(np.sum(x * x))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


MS = 1_000_000  # ticks per millisecond


def integrate_log_1ms(entries, profile: PowerProfile) -> float:
    """Charge in mAh by walking the log on a 1 ms grid.

    Exact only when every entry boundary (in ticks) falls on a whole
    millisecond, so callers must construct logs that way.
    """
    entries = sorted(entries, key=lambda e: e.start)
    if not entries:
        return 0.0
    t0 = entries[0].start
    t1 = entries[-1].start + entries[-1].duration
    currents = np.zeros((t1 - t0) // MS)
    for mode, start, duration in entries:
        currents[(start - t0) // MS : (start + duration - t0) // MS] = profile.current(mode)
    return float(np.sum(currents) * 0.001 / 3600.0)


def random_ms_log(rng: np.random.Generator, profile: PowerProfile, n_entries: int):
    """A gap-free log of random modes with integer-millisecond durations."""
    from dutysim.power import MODES

    t = 0
    out = []
    for _ in range(n_entries):
        mode = MODES[rng.integers(len(MODES))]
        duration = int(rng.integers(1, 5000)) * MS
        out.append(LogEntry(mode, t, duration))
        t = t + duration
    return out


def events_in_window_scan(trace: EventTrace, t0: float, t1: float):
    """Linear scan for events whose [start, end) meets [t0, t1), read from the columns."""
    if t1 <= t0:
        return []
    columns = (trace.ids, trace.starts, trace.durations, trace.bands, trace.xs, trace.ys)
    return [
        Event(i, s, d, None if math.isnan(b) else b, None if math.isnan(x) else (x, y))
        for i, s, d, b, x, y in zip(*(col.tolist() for col in columns))
        if s < t1 and s + d > t0
    ]


def maximal_cliques_bruteforce(positions, sensing_radii):
    """All maximal cliques of >= 2 nodes in the disk-overlap graph.

    Checks every subset, so keep n at 10 or below. Returns a sorted list of
    sorted member-index tuples.
    """
    n = len(positions)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            if (dx * dx + dy * dy) ** 0.5 <= sensing_radii[i] + sensing_radii[j]:
                adj[i][j] = adj[j][i] = True
    cliques = []
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            if not all(adj[a][b] for a, b in itertools.combinations(combo, 2)):
                continue
            members = set(combo)
            maximal = all(
                any(not adj[v][m] for m in combo)
                for v in range(n)
                if v not in members
            )
            if maximal:
                cliques.append(tuple(combo))
    return sorted(cliques)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def event_hash(band: float | None, start: float) -> int:
    """64-bit FNV-1a over one event's quantized features, byte by byte."""
    qband = -1 if band is None else int(band // 100.0)
    qstart = int(start // 1.0)
    h = _FNV_OFFSET
    for word in (qband & _MASK64, qstart & _MASK64):
        for byte in word.to_bytes(8, "little"):
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK64
    return h


def deliver_pings_per_ping(nodes, detections, drop_rate=0.0, rng=None):
    """Ping delivery measuring every sender-receiver distance per ping."""
    by_id = {n.id: n for n in nodes}
    ids = sorted(by_id)
    mailbox = {i: {} for i in ids}
    for sender_id in sorted(detections):
        sender = by_id[sender_id]
        for h in detections[sender_id]:
            for receiver_id in ids:
                if receiver_id == sender_id:
                    continue
                if math.dist(sender.position, by_id[receiver_id].position) > sender.comm_radius:
                    continue
                if drop_rate > 0 and rng.random() < drop_rate:
                    continue
                mailbox[receiver_id].setdefault(h, []).append(sender_id)
    return mailbox


def local_reward_by_intersection(
    device_id, t, n_pos, n_neg, own_hashes, mailbox_row, clusters, w1, w2
):
    """local_reward with a fresh set intersection per detection and holding cluster."""
    holding = [
        c for c in clusters if device_id in c.members and c.slot_holder(t) == device_id
    ]
    penalty = 0.0
    for h in own_hashes:
        senders = mailbox_row.get(h, ())
        if not senders:
            continue
        if any(set(senders) & set(c.members) for c in holding):
            continue
        penalty += len(senders)
    return n_pos - w1 * n_neg - w2 * penalty


def per_hour_oracle(trace, days, actions, detector, profile, seed, w1) -> np.ndarray:
    """R[h, a]: the mean period reward at hour of day h when action a runs as
    a fixed schedule over the first ``days`` days of the trace.

    On one device the next state is the next hour whatever the action, so
    the optimal policy is the per-hour argmax of R. Each schedule runs on
    the seed's device-0 streams, as train_qlearn does, and every period is
    scored with ``reward`` at w1 from its positives and negatives.
    """
    sums = np.zeros((24, len(actions)))
    counts = np.zeros((24, len(actions)))
    for a, interval in enumerate(actions.intervals):
        report, _ = run_schedule(
            trace, FixedSchedule(interval), detector, profile, seed,
            duration_s=days * SECONDS_PER_DAY,
        )
        for p in report.periods:
            sums[p.hour, a] += reward(p.positives, p.negatives, w1)
            counts[p.hour, a] += 1
    return sums / counts


def stream_position(rng: np.random.Generator) -> tuple:
    """Where a Philox stream stands: its counter and buffered output."""
    state = rng.bit_generator.state
    return (
        tuple(int(c) for c in state["state"]["counter"]),
        state["buffer_pos"],
        state["has_uint32"],
    )


TWO_PEAK_HOURS = (5, 6, 7, 8, 17, 18, 19)


def two_peak_rates(peak: float = 40.0, base: float = 0.5) -> tuple:
    return tuple(peak if h in TWO_PEAK_HOURS else base for h in range(24))


def two_peak_profile(days: int = 1, **kwargs) -> DiurnalProfile:
    """The dense-dawn/dense-dusk day used across scheduler tests."""
    return DiurnalProfile(
        hourly_rate=two_peak_rates(), duration_mean=3.0, duration_sd=0.0, days=days, **kwargs
    )


def two_peak_trace(days: int, seed: int, **kwargs) -> EventTrace:
    return generate_trace(two_peak_profile(days, **kwargs), seed)


class PerWakeEngine(TimelineEngine):
    """TimelineEngine that probes every wake one by one, never in bulk.

    run_period and _probe are the engine's per-wake loop, in integer ticks,
    and bill_pings bills one ping at a time; the rest of billing, log and
    state handling come from TimelineEngine. Swap it in for
    ``dutysim.sim.TimelineEngine`` (and ``dutysim.collab.TimelineEngine``)
    to get the reference result of any run. It marks each detected event in
    a mask of its own and skips marked ones, where the engine relies on no
    probe hearing a detected event again; agreeing results check that.

    With an abstract detector of 0 < fp_rate < 1 it applies the draw rule
    for quiet runs, wake by wake:
      - a quiet wake (its record window hears no event) whose probe ends by
        the horizon joins its day's open run; if no run is open, it opens
        one with one uniform U from the day's stream, which sets
        g = log1p(-U) / log1p(-fp_rate);
      - the run's wake floor(g), counted from 0, fires without a draw;
      - any other wake closes the run and goes through the detector: one
        that hears an event, one whose probe crosses the horizon, and a new
        day's first wake while a run is open;
      - every fire and every run_period call also closes the run.
    """

    def __init__(self, trace, t_begin, t_end, profile, detector, *args, **kwargs):
        super().__init__(trace, t_begin, t_end, profile, detector, *args, **kwargs)
        self.detected_mask = np.zeros(len(self.trace), dtype=bool)
        fp = detector.fp_rate if detector.kind == "abstract" else 0.0
        self.countdown_fp = fp if 0.0 < fp < 1.0 else None
        self.run = None  # the open run: [its day, the wakes it holds, g]

    def run_period(self, p_end: float, interval: float) -> PeriodStats:
        p_end, interval = to_ticks(p_end), to_ticks(interval)
        if interval <= self.dur["d_probe"]:
            raise ScheduleError(f"interval of {interval} ns not longer than the probe")
        stats = PeriodStats()
        self.run = None
        while self.next_wake < p_end and self.next_wake < self.horizon:
            w = max(self.next_wake, self.t)
            if w >= p_end or w >= self.horizon:
                self.next_wake = w
                break
            self._probe(w, stats)
            self.next_wake = max(w + interval, self.t)
        if self.rows is not None:
            stats.detected = [self.rows[k] for k in stats.detected]
        return stats

    def bill_pings(self, k: int, at: float) -> None:
        for _ in range(k):
            self._sleep_to(to_ticks(at))
            self._emit("ping", self.dur["d_ping"])

    def _countdown(self, w: int, hit: list) -> bool | None:
        """Whether the wake at w fires by the run's draw; None where the detector answers."""
        day = w // TICKS_PER_DAY
        joins = (
            self.countdown_fp is not None
            and not hit
            and w + self.dur["d_probe"] <= self.horizon
            and (self.run is None or self.run[0] == day)
        )
        if not joins:
            self.run = None
            return None
        if self.run is None:
            u = self.rng_for_day(day).random()
            self.run = [day, 0, math.log1p(-u) / math.log1p(-self.countdown_fp)]
        _, held, g = self.run
        if held + 1 > g:  # held == floor(g): the run's false alarm
            self.run = None
            return True
        self.run[1] += 1
        return False

    def _probe(self, w: int, stats: PeriodStats) -> None:
        p, d = self.profile, self.dur
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
        fired = self._countdown(w, hit)
        if fired is None:
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
            for k in detected_now:
                stats.detected.append(k)
                self._emit("tx_audio", d["d_tx_audio"])
                self.cam_acc += p.camera_trigger_ratio
                if self.cam_acc >= 1.0 - 1e-9:
                    self.cam_acc -= 1.0
                    self._emit("camera", d["d_camera"])
                    self._emit("tx_image", d["d_tx_image"])
        else:
            stats.negatives += 1
            self._emit("tx_audio", d["d_tx_audio"])
