"""Collaborative scheduling across a network of overlapping devices.

Devices whose sensing disks pairwise intersect form clusters (maximal
cliques), each with a round-robin slot that rotates every period. When a
device detects an event it broadcasts a short ping carrying a hash of the
event's quantized features; receivers within the sender's comm radius use
matching hashes to estimate how many neighbors saw the same event. Each
device fine-tunes its own Q-table with the single-device scheduler,
``sim.Learner``, against a local reward that subtracts an overlap penalty
for duplicated detections, waived in periods where the device holds a
cluster slot. The global network reward, ``network_reward``, also subtracts
the battery spread term and is computed as an evaluation metric only.

The per-device state space extends the hour with a binned count of the
device's own detections in the previous period. The network's config types,
``DeviceNode`` and ``NetworkConfig``, live in ``config``.

The per-period network loop does each piece of work once: every event is
hashed once per run, into one uint64 column, each sender's receivers are
found once per node set (at the start and after a failure), a period in
which no device detected anything skips ping delivery and its random
stream, the pings stream is built once per run and re-keyed
(``rng.rekey``) for each period that pings, and a device's pings are
billed in one step at the period end. No device copies the trace: each
engine reads the trace's one tick view, whole or gathered at the rows the
device senses (``sim.TimelineEngine``). The engine of a device that senses
part of the trace keeps those rows and its gathered columns as read-only
8-byte buffers, so each costs 8 bytes per sensed event.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import DeviceNode, NetworkConfig
from .detect import DetectorModel
from .errors import ScheduleError
from .power import LogEntry, PowerProfile
from .qsched import ActionSpace, Hyperparameters, QTable, reward
from .rng import rekey, substream
from .sim import Learner, TimelineEngine, _check_intervals, _day_rng_provider, _episodes_span
from .trace import SECONDS_PER_DAY, SECONDS_PER_HOUR, EventTrace

__all__ = [
    "Cluster",
    "EpisodeMetrics",
    "DeviceSummary",
    "NetworkReport",
    "event_hashes",
    "form_clusters",
    "deliver_pings",
    "local_reward",
    "network_reward",
    "expand_global_table",
    "run_network",
]


@dataclass(frozen=True)
class Cluster:
    """Devices with pairwise overlapping sensing disks; the slot rotates through members."""

    members: tuple[int, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a cluster needs at least two members")

    def slot_holder(self, t: int) -> int:
        return self.members[t % len(self.members)]


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _words(buckets: np.ndarray) -> np.ndarray:
    """Whole-number float buckets as uint64, each its integer value mod 2**64."""
    small = np.abs(buckets) < 2.0**63
    words = np.where(small, buckets, 0.0).astype(np.int64).view(np.uint64)
    # Past int64 a float is exact only as a Python int; such buckets are rare.
    words[~small] = [int(b) & _MASK64 for b in buckets[~small]]
    return words


def event_hashes(bands, starts) -> memoryview:
    """64-bit FNV-1a over each event's quantized features, 8 bytes per event.

    Band is bucketed to 100 Hz (untagged events, band NaN or None, share
    the bucket -1), start to whole seconds, so co-detections of one event
    hash alike on every device. Each bucket is taken mod 2**64, as a Python
    int would be, and hashed as two little-endian 64-bit words for all
    events at once in numpy uint64, whose multiply wraps mod 2**64. The
    result is a read-only memoryview of the uint64 column: indexing and
    iterating it yield Python ints, where a list would hold one int object
    per event.
    """
    bands = np.asarray(bands, dtype=np.float64)
    band_buckets = np.where(np.isnan(bands), -100.0, bands) // 100.0
    start_buckets = np.asarray(starts, dtype=np.float64) // 1.0
    h = np.full(len(bands), _FNV_OFFSET, dtype=np.uint64)
    prime, low_byte = np.uint64(_FNV_PRIME), np.uint64(0xFF)
    for word in (_words(band_buckets), _words(start_buckets)):
        for shift in range(0, 64, 8):
            h ^= (word >> np.uint64(shift)) & low_byte
            h *= prime
    h.setflags(write=False)
    return memoryview(h)


def form_clusters(nodes: list[DeviceNode]) -> list[Cluster]:
    """Maximal cliques of the sensing-overlap graph, two members or more.

    Disks overlap iff center distance <= the radius sum. A device can sit
    in several clusters. Members, and so the slot rotation, run in ascending id.
    """
    if not nodes:
        raise ValueError("need at least one node")
    ids = sorted(n.id for n in nodes)
    if len(set(ids)) != len(ids):
        raise ValueError("device ids must be unique")
    by_id = {n.id: n for n in nodes}
    adj: dict[int, set[int]] = {i: set() for i in ids}
    for i_pos, i in enumerate(ids):
        for j in ids[i_pos + 1 :]:
            a, b = by_id[i], by_id[j]
            if math.dist(a.position, b.position) <= a.sensing_radius + b.sensing_radius:
                adj[i].add(j)
                adj[j].add(i)

    cliques: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            if len(r) >= 2:
                cliques.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    expand(set(), set(ids), set())
    cliques.sort()
    return [Cluster(members=c) for c in cliques]


def network_reward(
    n_pos: int,
    n_neg: int,
    overlaps: tuple[int, ...],
    battery_sd: float,
    w1: float,
    w2: float,
    w3: float,
) -> float:
    """Global period reward: ``reward`` minus w2 per duplicate detection and w3
    times the battery spread. overlaps holds, per detected event, the number
    of devices that detected it.
    """
    if overlaps and min(overlaps) < 1:
        raise ValueError("every overlap count must be >= 1")
    if battery_sd < 0:
        raise ValueError("battery_sd must be >= 0")
    overlap_penalty = sum(overlaps) - len(overlaps)
    return reward(n_pos, n_neg, w1) - w2 * overlap_penalty - w3 * battery_sd


@functools.lru_cache(maxsize=16)
def _receivers(nodes: tuple[DeviceNode, ...]) -> dict[int, tuple[int, ...]]:
    """Each sender's receivers: the other devices within its comm radius, by id.

    Cached per node set, which changes only when a device fails; callers
    must not mutate the returned dict.
    """
    by_id = {n.id: n for n in nodes}
    ids = sorted(by_id)
    return {
        sender.id: tuple(
            i
            for i in ids
            if i != sender.id
            and math.dist(sender.position, by_id[i].position) <= sender.comm_radius
        )
        for sender in by_id.values()
    }


def deliver_pings(
    nodes: list[DeviceNode],
    detections: dict[int, list[int]],
    *,
    drop_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> dict[int, dict[int, list[int]]]:
    """Broadcast one ping per detection; collect them per receiver.

    detections maps sender id to the event hashes it pinged this period.
    Returns mailbox[receiver][hash] = senders whose ping arrived. Delivery
    reaches every other device within the sender's comm radius; with a
    positive drop_rate each delivery is lost independently with that
    probability (draw order: sender id, detection order, receiver id; all
    of a call's draws are taken in one block, which leaves the stream where
    one draw per delivery would).
    """
    if drop_rate and rng is None:
        raise ValueError("drop_rate > 0 needs an rng")
    receivers = _receivers(tuple(nodes))
    sender_ids = sorted(detections)
    mailbox: dict[int, dict[int, list[int]]] = {i: {} for i in sorted(receivers)}
    n = sum(len(detections[i]) * len(receivers[i]) for i in sender_ids)
    kept = (rng.random(n) >= drop_rate).tolist() if drop_rate > 0 else [True] * n
    start = 0
    for sender_id in sender_ids:
        hashes, reach = detections[sender_id], receivers[sender_id]
        end = start + len(hashes) * len(reach)
        # A sender's block is hash-major, so each receiver's draws are a stride.
        for i, receiver_id in enumerate(reach):
            row = mailbox[receiver_id]
            for h in itertools.compress(hashes, kept[start + i : end : len(reach)]):
                row.setdefault(h, []).append(sender_id)
        start = end
    return mailbox


def local_reward(
    device_id: int,
    t: int,
    n_pos: int,
    n_neg: int,
    own_hashes: list[int],
    mailbox_row: dict[int, list[int]],
    clusters: list[Cluster],
    w1: float,
    w2: float,
) -> float:
    """Per-device reward: Eq.-2 style terms minus the overlap penalty.

    Each own detection adds (estimate - 1) to the penalty, where the
    estimate is 1 plus matching received pings. The penalty is waived for a
    detection when the device holds the slot, this period, in a cluster one
    of the matching senders belongs to.
    """
    penalty = 0.0
    waived = None  # the members of the clusters whose slot the device holds
    for h in own_hashes:
        senders = mailbox_row.get(h)
        if not senders:
            continue
        if waived is None:
            waived = {m for c in clusters if c.slot_holder(t) == device_id for m in c.members}
        if waived.isdisjoint(senders):
            penalty += len(senders)
    return reward(n_pos, n_neg, w1) - w2 * penalty


def expand_global_table(table: QTable, n_bins: int) -> QTable:
    """Tile a 24-state table across detection bins for network use.

    Row (hour, bin) starts as the single-device row for that hour, so a
    pretrained schedule seeds every bin with the same action preferences.
    """
    if table.n_states != 24:
        raise ValueError(f"expected a 24-state table, got {table.n_states}")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    return QTable(
        values=np.repeat(table.values, n_bins, axis=0).astype(np.float32),
        visits=np.repeat(table.visits, n_bins, axis=0).astype(np.uint32),
    )


@dataclass
class EpisodeMetrics:
    """One episode's network totals; run_network adds each period into it."""

    index: int
    events_total: int = 0
    events_detected: int = 0
    detection_rate: float = 0.0
    mean_duplicates: float = 0.0
    positives: int = 0
    negatives: int = 0
    global_reward: float = 0.0
    battery_sd: float = 0.0
    activations: dict[int, int] = field(default_factory=dict)
    batteries: dict[int, float] = field(default_factory=dict)


@dataclass
class DeviceSummary:
    """One device's totals over the run; run_network adds each period into it."""

    id: int
    activations: int = 0
    positives: int = 0
    negatives: int = 0
    events_detected: int = 0
    charge_mah: float = 0.0
    battery_level: float = 0.0
    removed_at: int | None = None


@dataclass
class NetworkReport:
    n_devices: int
    episodes: list[EpisodeMetrics]
    devices: list[DeviceSummary]
    clusters: list[Cluster]
    tables: dict[int, QTable]
    logs: dict[int, list[LogEntry]] | None = None

    @property
    def detection_rate(self) -> float:
        total = sum(e.events_total for e in self.episodes)
        hit = sum(e.events_detected for e in self.episodes)
        return 1.0 if total == 0 else hit / total

    def to_dict(self) -> dict:
        """JSON form: per-episode device maps become id-sorted "devices" lists."""
        episodes = []
        for e in self.episodes:
            row = asdict(e)
            activations, batteries = row.pop("activations"), row.pop("batteries")
            row["devices"] = [
                {"id": i, "activations": activations[i], "battery_level": batteries[i]}
                for i in sorted(activations)
            ]
            episodes.append(row)
        return {
            "n_devices": self.n_devices,
            "detection_rate": self.detection_rate,
            "episodes": episodes,
            "devices": [asdict(d) for d in self.devices],
            "clusters": [list(c.members) for c in self.clusters],
        }


def _senses(node: DeviceNode, trace: EventTrace) -> np.ndarray:
    """Per event, whether math.dist(location, node.position) <= node.sensing_radius.

    np.hypot can differ from math.dist in the last bit, so math.dist decides the edge.
    """
    radius = node.sensing_radius
    dist = np.hypot(trace.xs - node.x, trace.ys - node.y)
    inside = dist <= radius
    for i in np.flatnonzero(np.abs(dist - radius) <= 1e-9 * radius):
        inside[i] = math.dist((trace.xs[i], trace.ys[i]), node.position) <= radius
    return inside


def _sensed_rows(node: DeviceNode, trace: EventTrace) -> memoryview | None:
    """The trace rows the device senses, ascending, as a read-only int64 memoryview;
    None when it senses every one."""
    senses = _senses(node, trace)
    return None if senses.all() else memoryview(np.flatnonzero(senses)).toreadonly()


@dataclass
class _DeviceRuntime:
    node: DeviceNode
    engine: TimelineEngine
    learner: Learner
    summary: DeviceSummary


def run_network(
    trace: EventTrace,
    config: NetworkConfig,
    hp: Hyperparameters,
    actions: ActionSpace,
    detector: DetectorModel,
    profile: PowerProfile,
    seed: int,
    *,
    init_tables: dict[int, QTable] | None = None,
    collect_logs: bool = False,
) -> NetworkReport:
    """Simulate config.layout in lockstep periods over whole-day episodes.

    Each device runs its own ``sim.Learner``, the scheduler train_qlearn
    drives, with the state widened by config.detection_bins and the reward
    replaced by local_reward. Every event needs a location; each device
    senses only events within its sensing radius, and its period stats name
    trace rows, from which the detection counts are added up. The loop order:
    per episode, the devices config.failures lists for it leave, and then
    clusters re-form and, by default, epsilon resets for the survivors; per
    period, in id order, each device chooses its interval and runs its
    timeline, then the pings go out and each device learns from its local
    reward; at the episode end come the battery spread and the global
    reward. A training device bills one ping per detection at the period
    end, even with no neighbour to hear it; train_qlearn bills none, so a
    lone network device keeps a different log and charge. init_tables[id]
    seeds that device's table by copy; the others start from zeros. The
    module docstring lists the work done once per run.
    """
    if not config.layout:
        raise ScheduleError("need at least one device; read layout_file into layout first")
    order = sorted(config.layout, key=lambda n: n.id)
    unlocated = trace.ids[np.isnan(trace.xs)]
    if unlocated.size:
        raise ScheduleError(f"event {unlocated[0]} has no location; network runs need one")
    span = _episodes_span(trace, config.episodes)
    if config.train:
        _check_intervals(actions.intervals, profile, "action")
    else:
        _check_intervals((config.fixed_interval,), profile, "fixed_interval")
    n_states = 24 * config.n_bins
    if config.train:
        hashes = event_hashes(trace.bands, trace.starts)

    runtimes: dict[int, _DeviceRuntime] = {}
    for node in order:
        if init_tables is not None and node.id in init_tables:
            table = init_tables[node.id].copy()
        else:
            table = QTable.zeros(n_states, len(actions))
        if config.train and table.values.shape != (n_states, len(actions)):
            raise ScheduleError(
                f"device {node.id}: table shape {table.values.shape} "
                f"does not match {n_states} states x {len(actions)} actions"
            )
        runtimes[node.id] = _DeviceRuntime(
            node,
            TimelineEngine(
                trace, 0.0, span, profile, detector, _day_rng_provider(seed, node.id),
                collect_log=collect_logs, rows=_sensed_rows(node, trace),
            ),
            Learner(table, hp, actions, config.detection_bins),
            DeviceSummary(node.id),
        )

    alive = list(runtimes.values())
    fails_at = dict(config.failures)
    rng_pings = None  # one pings stream, re-keyed for each period that pings

    episodes: list[EpisodeMetrics] = []
    detections = [0] * len(trace)  # per trace row, devices that heard it
    for day in range(config.episodes):
        fell = [rt for rt in alive if fails_at.get(rt.node.id) == day]
        for rt in fell:
            rt.summary.removed_at = day
        alive = [rt for rt in alive if rt.summary.removed_at is None]
        if not alive:
            raise ScheduleError(f"all devices removed by episode {day}")
        nodes = tuple(rt.node for rt in alive)  # as deliver_pings takes them
        if day == 0 or fell:
            clusters = form_clusters(list(nodes))
        if fell and config.eps_reset_on_change:
            for rt in alive:
                rt.learner.eps = hp.eps_max
        episode = EpisodeMetrics(day, activations={rt.node.id: 0 for rt in alive})
        episodes.append(episode)
        levels, terms = [], []  # per period: battery levels; reward counts

        for t in range(24 * day, 24 * day + 24):
            p_start = t * SECONDS_PER_HOUR
            p_end = p_start + SECONDS_PER_HOUR
            hour = trace.hour_of(p_start)

            # Each period's counts go straight into the device and episode
            # records; period_rows lists the period's detections as trace
            # rows, device by device, and own_hashes those of each device
            # that detected.
            period_stats = []  # in the order of alive
            period_rows: list[int] = []
            own_hashes: dict[int, list[int]] = {}
            n_pos = n_neg = 0
            for rt in alive:
                if config.train:
                    interval = rt.learner.choose(rt.engine, hour, p_start)
                else:
                    interval = config.fixed_interval
                stats = rt.engine.run_period(p_end, interval)
                period_stats.append(stats)
                summary = rt.summary
                summary.activations += stats.activations
                summary.positives += stats.positives
                summary.negatives += stats.negatives
                episode.activations[summary.id] += stats.activations
                n_pos += stats.positives
                n_neg += stats.negatives
                rows = stats.detected
                if rows:
                    summary.events_detected += len(rows)
                    period_rows += rows
                    for j in rows:
                        detections[j] += 1
                    if config.train:
                        own_hashes[summary.id] = [hashes[j] for j in rows]
                        rt.engine.bill_pings(len(rows), p_end)

            if config.train:
                mailbox = {}
                if period_rows:
                    # A period without pings draws nothing, so it needs no stream.
                    if config.drop_rate > 0:
                        if rng_pings is None:
                            rng_pings = substream(seed, "pings", t)
                        else:
                            rekey(rng_pings, seed, "pings", t)
                    mailbox = deliver_pings(
                        nodes, own_hashes, drop_rate=config.drop_rate, rng=rng_pings
                    )
                for rt, stats in zip(alive, period_stats):
                    did = rt.node.id
                    r = local_reward(
                        did,
                        t,
                        stats.positives,
                        stats.negatives,
                        own_hashes.get(did, []),
                        mailbox.get(did, {}),
                        clusters,
                        hp.w1,
                        config.w2,
                    )
                    rt.learner.learn(rt.engine, r, hour, len(stats.detected), p_end)

            # The batteries are read after this period's scheduler billing, so
            # the episode ends with its last period's levels and spread.
            levels.append([profile.battery_mah - rt.engine.charge_mah for rt in alive])
            episode.positives += n_pos
            episode.negatives += n_neg
            # Per trace row detected this period, the number of devices that detected it.
            overlaps = tuple(Counter(period_rows).values()) if period_rows else ()
            terms.append((n_pos, n_neg, overlaps))

        # The live devices change only at an episode start, so the levels are
        # a matrix; its row spreads equal per-period np.std calls.
        spreads = np.std(levels, axis=1).tolist()
        for (n_pos, n_neg, overlaps), sd in zip(terms, spreads):
            episode.global_reward += network_reward(
                n_pos, n_neg, overlaps, sd, hp.w1, config.w2, config.w3
            )
        episode.batteries = {rt.node.id: level for rt, level in zip(alive, levels[-1])}
        episode.battery_sd = spreads[-1]

    for rt in alive:
        rt.engine.finish()
    for rt in runtimes.values():
        rt.summary.charge_mah = rt.engine.charge_mah
        rt.summary.battery_level = profile.battery_mah - rt.summary.charge_mah

    detections = np.array(detections, dtype=np.int64)
    day = (trace.starts // SECONDS_PER_DAY).astype(np.int64)
    totals = np.bincount(day, minlength=len(episodes))
    hits = np.bincount(day, weights=detections > 0, minlength=len(episodes))
    duplicates = np.bincount(day, weights=detections, minlength=len(episodes))
    for episode in episodes:
        episode.events_total = total = int(totals[episode.index])
        episode.events_detected = hit = int(hits[episode.index])
        episode.detection_rate = 1.0 if not total else hit / total
        if hit:
            episode.mean_duplicates = int(duplicates[episode.index]) / hit

    return NetworkReport(
        n_devices=len(order),
        episodes=episodes,
        devices=[rt.summary for rt in runtimes.values()],
        clusters=clusters,
        tables={i: rt.learner.table for i, rt in runtimes.items()},
        logs={i: rt.engine.log for i, rt in runtimes.items()} if collect_logs else None,
    )
