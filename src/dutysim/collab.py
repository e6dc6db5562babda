"""Collaborative scheduling across a network of overlapping devices.

Devices whose sensing disks pairwise intersect form clusters (maximal
cliques), each with a round-robin slot that rotates every period. When a
device detects an event it broadcasts a short ping carrying a hash of the
event's quantized features; receivers within the sender's comm radius use
matching hashes to estimate how many neighbors saw the same event. Each
device fine-tunes its own Q-table with the single-device scheduler,
``sim.Learner``, against a local reward that subtracts an overlap penalty
for duplicated detections, waived in periods where the device holds a
cluster slot. The global network reward, with the battery spread term, is
computed as an evaluation metric only.

The per-device state space extends the hour with a binned count of the
device's own detections in the previous period.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .detect import DetectorModel
from .errors import ScheduleError
from .power import LogEntry, PowerProfile
from .qsched import ActionSpace, Hyperparameters, QTable, RewardInputs, reward
from .rng import substream
from .sim import Learner, TimelineEngine, _check_intervals, _day_rng_provider
from .trace import SECONDS_PER_DAY, SECONDS_PER_HOUR, EventTrace

__all__ = [
    "DeviceNode",
    "Cluster",
    "NetworkRewardInputs",
    "NetworkConfig",
    "EpisodeMetrics",
    "DeviceSummary",
    "NetworkReport",
    "event_hash",
    "form_clusters",
    "deliver_pings",
    "local_reward",
    "network_reward",
    "expand_global_table",
    "run_network",
]


@dataclass(frozen=True)
class DeviceNode:
    """A sensor at (x, y) with a sensing footprint and a radio footprint, in meters."""

    id: int
    x: float
    y: float
    sensing_radius: float
    comm_radius: float

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("device id must be >= 0")
        if self.sensing_radius <= 0 or self.comm_radius <= 0:
            raise ValueError("radii must be positive")

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


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


def event_hash(band: float | None, start: float) -> int:
    """64-bit FNV-1a over the event's quantized features.

    Band is bucketed to 100 Hz (untagged events share a sentinel bucket),
    start to whole seconds, so co-detections of one event hash alike on
    every device.
    """
    qband = -1 if band is None else int(band // 100.0)
    qstart = int(start // 1.0)
    h = _FNV_OFFSET
    for word in (qband & _MASK64, qstart & _MASK64):
        for byte in word.to_bytes(8, "little"):
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK64
    return h


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


@dataclass(frozen=True)
class NetworkRewardInputs:
    n_pos: int
    n_neg: int
    overlaps: tuple[int, ...]
    battery_sd: float
    w1: float
    w2: float
    w3: float

    def __post_init__(self):
        if self.n_pos < 0 or self.n_neg < 0:
            raise ValueError("activation counts must be >= 0")
        if any(o < 1 for o in self.overlaps):
            raise ValueError("every overlap count must be >= 1")
        if self.battery_sd < 0:
            raise ValueError("battery_sd must be >= 0")


def network_reward(inputs: NetworkRewardInputs) -> float:
    overlap_penalty = sum(o - 1 for o in inputs.overlaps)
    return (
        reward(RewardInputs(inputs.n_pos, inputs.n_neg), inputs.w1)
        - inputs.w2 * overlap_penalty
        - inputs.w3 * inputs.battery_sd
    )


def deliver_pings(
    nodes: list[DeviceNode],
    detections: dict[int, list[int]],
    *,
    drop_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> dict[int, dict[int, tuple[int, ...]]]:
    """Broadcast one ping per detection; collect them per receiver.

    detections maps sender id to the event hashes it pinged this period.
    Returns mailbox[receiver][hash] = senders whose ping arrived. Delivery
    reaches every other device within the sender's comm radius; with a
    positive drop_rate each delivery is lost independently with that
    probability (draw order: sender id, detection order, receiver id).
    """
    if drop_rate and rng is None:
        raise ValueError("drop_rate > 0 needs an rng")
    by_id = {n.id: n for n in nodes}
    ids = sorted(by_id)
    mailbox: dict[int, dict[int, list[int]]] = {i: {} for i in ids}
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
    return {
        i: {h: tuple(senders) for h, senders in row.items()}
        for i, row in mailbox.items()
    }


def local_reward(
    device_id: int,
    t: int,
    n_pos: int,
    n_neg: int,
    own_hashes: list[int],
    mailbox_row: dict[int, tuple[int, ...]],
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
    return reward(RewardInputs(n_pos, n_neg), w1) - w2 * penalty


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


@dataclass(frozen=True)
class NetworkConfig:
    """The devices and knobs of a network run.

    The devices come as ``layout``, or as ``layout_file``, a JSON device
    list the caller reads into ``layout`` before the run; exactly one is
    set. pretrain_days > 0 asks the caller to seed every device's table
    from that many days of single-device training (``dutysim run-network``
    does, through run_network's init_tables). train False runs every device
    on fixed_interval with no learning, no pings, and no scheduler billing
    (a pure baseline). detection_bins are inclusive upper edges of the
    previous-period detection-count bins; the empty tuple collapses the
    state back to hour only.
    """

    layout: tuple[DeviceNode, ...] | None = None
    layout_file: str | None = None
    episodes: int = 30
    w2: float = 0.5
    w3: float = 0.01
    drop_rate: float = 0.0
    detection_bins: tuple[int, ...] = (0, 2, 5)
    pretrain_days: int = 0
    train: bool = True
    fixed_interval: float | None = None
    eps_reset_on_change: bool = True
    failures: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if (self.layout is None) == (self.layout_file is None):
            raise ValueError("need exactly one of 'layout' or 'layout_file'")
        if self.layout is not None and not self.layout:
            raise ValueError("layout: need a non-empty device list")
        if self.pretrain_days < 0:
            raise ValueError(f"pretrain_days must be >= 0, got {self.pretrain_days}")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.w2 < 0 or self.w3 < 0:
            raise ValueError("w2 and w3 must be >= 0")
        if not 0 <= self.drop_rate <= 1:
            raise ValueError("drop_rate must lie in [0, 1]")
        edges = tuple(int(e) for e in self.detection_bins)
        if any(e < 0 for e in edges) or list(edges) != sorted(set(edges)):
            raise ValueError("detection_bins must be strictly increasing and >= 0")
        object.__setattr__(self, "detection_bins", edges)
        if not self.train and self.fixed_interval is None:
            raise ValueError("train False needs fixed_interval")
        for entry in self.failures:
            if len(entry) != 2 or entry[1] < 0:
                raise ValueError("failures entries are (device_id, episode >= 0)")

    @property
    def n_bins(self) -> int:
        return len(self.detection_bins) + 1


@dataclass
class EpisodeMetrics:
    index: int
    events_total: int
    events_detected: int
    detection_rate: float
    mean_duplicates: float
    positives: int
    negatives: int
    global_reward: float
    battery_sd: float
    activations: dict[int, int]
    batteries: dict[int, float]


@dataclass
class DeviceSummary:
    id: int
    activations: int
    positives: int
    negatives: int
    events_detected: int
    charge_mah: float
    battery_level: float
    removed_at: int | None


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


@dataclass
class _DeviceRuntime:
    node: DeviceNode
    engine: TimelineEngine
    learner: Learner
    battery_initial: float
    removed_at: int | None = None
    activations: int = 0
    positives: int = 0
    negatives: int = 0

    @property
    def battery(self) -> float:
        return self.battery_initial - self.engine.charge_mah


class _EpisodeTally:
    """One episode's network metrics, summed period by period."""

    def __init__(self, index: int, alive: list[_DeviceRuntime]):
        self.index = index
        self.positives = 0
        self.negatives = 0
        self.global_reward = 0.0
        self.activations = {rt.node.id: 0 for rt in alive}
        # Overwritten every period, so they end as the episode's last values.
        self.battery_sd = 0.0
        self.batteries: dict[int, float] = {}

    def add_period(self, alive, period_stats, detections_by_event, w1, w2, w3) -> None:
        """Fold in one period: device totals, detections and the network reward."""
        counts: Counter = Counter()
        for rt in alive:
            did = rt.node.id
            stats = period_stats[did]
            rt.activations += stats.activations
            rt.positives += stats.positives
            rt.negatives += stats.negatives
            self.activations[did] += stats.activations
            for eid, _s in stats.detected:
                detections_by_event.setdefault(eid, set()).add(did)
                counts[eid] += 1
        self.batteries = {rt.node.id: rt.battery for rt in alive}
        self.battery_sd = float(np.std(list(self.batteries.values())))
        overlaps = tuple(counts[eid] for eid in sorted(counts))
        n_pos = sum(period_stats[rt.node.id].positives for rt in alive)
        n_neg = sum(period_stats[rt.node.id].negatives for rt in alive)
        self.positives += n_pos
        self.negatives += n_neg
        self.global_reward += network_reward(
            NetworkRewardInputs(n_pos, n_neg, overlaps, self.battery_sd, w1, w2, w3)
        )

    def metrics(self, day_events: list[int], detections_by_event) -> EpisodeMetrics:
        detected = [eid for eid in day_events if eid in detections_by_event]
        dup = (
            sum(len(detections_by_event[eid]) for eid in detected) / len(detected)
            if detected
            else 0.0
        )
        total = len(day_events)
        return EpisodeMetrics(
            index=self.index,
            events_total=total,
            events_detected=len(detected),
            detection_rate=1.0 if total == 0 else len(detected) / total,
            mean_duplicates=dup,
            positives=self.positives,
            negatives=self.negatives,
            global_reward=self.global_reward,
            battery_sd=self.battery_sd,
            activations=self.activations,
            batteries=self.batteries,
        )


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
    senses only events within its sensing radius. Per period and in id
    order: choose actions, run each device's timeline, exchange pings, then
    update each table against its local reward. A training device bills one
    ping per detection at the period end, even with no neighbour to hear
    it; train_qlearn bills none, so a lone network device keeps a different
    log and charge. Failures listed in the config remove a device at the
    start of the given episode; clusters re-form and, by default, epsilon
    resets for the survivors. init_tables[id] seeds that device's table by
    copy; the others start from zeros.
    """
    if not config.layout:
        raise ScheduleError("need at least one device; read layout_file into layout first")
    order = sorted(config.layout, key=lambda n: n.id)
    ids = [n.id for n in order]
    if len(set(ids)) != len(ids):
        raise ScheduleError("device ids must be unique")
    for ev in trace.events:
        if ev.location is None:
            raise ScheduleError(f"event {ev.id} has no location; network runs need one")
    span = config.episodes * SECONDS_PER_DAY
    if trace.horizon < span:
        raise ScheduleError(
            f"trace horizon {trace.horizon} s shorter than {span} s of episodes"
        )
    if config.train:
        _check_intervals(actions.intervals, profile, "action")
    else:
        _check_intervals((config.fixed_interval,), profile, "fixed_interval")
    known = set(ids)
    for did, _ep in config.failures:
        if did not in known:
            raise ScheduleError(f"failure names unknown device {did}")
    n_states = 24 * config.n_bins
    feat = {ev.id: (ev.band, ev.start) for ev in trace.events}
    events_by_day: dict[int, list[int]] = {}
    for ev in trace.events:
        events_by_day.setdefault(int(ev.start // SECONDS_PER_DAY), []).append(ev.id)

    runtimes: dict[int, _DeviceRuntime] = {}
    for node in order:
        sub = trace.subset(
            lambda ev: math.dist(ev.location, node.position) <= node.sensing_radius
        )
        if init_tables is not None and node.id in init_tables:
            table = init_tables[node.id].copy()
        else:
            table = QTable.zeros(n_states, len(actions))
        if config.train and table.values.shape != (n_states, len(actions)):
            raise ScheduleError(
                f"device {node.id}: table shape {table.values.shape} "
                f"does not match {n_states} states x {len(actions)} actions"
            )
        rng_for_day = _day_rng_provider(seed, node.id)
        runtimes[node.id] = _DeviceRuntime(
            node,
            TimelineEngine(
                sub, 0.0, span, profile, detector, rng_for_day, collect_log=collect_logs
            ),
            Learner(table, hp, actions, rng_for_day, config.detection_bins),
            profile.battery_mah,
        )

    alive = list(runtimes.values())
    clusters = form_clusters(order) if len(order) > 1 else []
    failures_by_episode: dict[int, list[int]] = {}
    for did, ep in config.failures:
        failures_by_episode.setdefault(ep, []).append(did)

    detections_by_event: dict[int, set[int]] = {}
    tallies: list[_EpisodeTally] = []
    for t in range(config.episodes * 24):
        day, hour_idx = divmod(t, 24)
        p_start = t * SECONDS_PER_HOUR
        p_end = min(p_start + SECONDS_PER_HOUR, span)
        if hour_idx == 0:
            fell = [rt for rt in alive if rt.node.id in failures_by_episode.get(day, ())]
            if fell:
                for rt in fell:
                    rt.removed_at = day
                alive = [rt for rt in alive if rt.removed_at is None]
                if not alive:
                    raise ScheduleError(f"all devices removed by episode {day}")
                clusters = form_clusters([rt.node for rt in alive]) if len(alive) > 1 else []
                if config.eps_reset_on_change:
                    for rt in alive:
                        rt.learner.eps = hp.eps_max
            tallies.append(_EpisodeTally(day, alive))
        hour = trace.hour_of(p_start)

        period_stats = {}
        for rt in alive:
            if config.train:
                interval = rt.learner.choose(rt.engine, hour, p_start)
            else:
                interval = config.fixed_interval
            period_stats[rt.node.id] = rt.engine.run_period(p_end, interval)

        if config.train:
            own_hashes: dict[int, list[int]] = {}
            for rt in alive:
                did = rt.node.id
                hashes = [event_hash(*feat[eid]) for (eid, _s) in period_stats[did].detected]
                own_hashes[did] = hashes
                for _ in hashes:
                    rt.engine.bill_ql("ping", p_end)
            rng_pings = substream(seed, "pings", t) if config.drop_rate > 0 else None
            mailbox = deliver_pings(
                [rt.node for rt in alive],
                own_hashes,
                drop_rate=config.drop_rate,
                rng=rng_pings,
            )
            for rt in alive:
                did = rt.node.id
                stats = period_stats[did]
                r = local_reward(
                    did,
                    t,
                    stats.positives,
                    stats.negatives,
                    own_hashes[did],
                    mailbox.get(did, {}),
                    clusters,
                    hp.w1,
                    config.w2,
                )
                rt.learner.learn(rt.engine, r, hour, len(stats.detected), p_end)

        tallies[day].add_period(
            alive, period_stats, detections_by_event, hp.w1, config.w2, config.w3
        )
        if hour_idx == 23 and config.train:
            for rt in alive:
                rt.learner.end_episode()

    for rt in alive:
        rt.engine.finish()

    devices = [
        DeviceSummary(
            id=i,
            activations=rt.activations,
            positives=rt.positives,
            negatives=rt.negatives,
            events_detected=len(rt.engine.detected),
            charge_mah=rt.engine.charge_mah,
            battery_level=rt.battery,
            removed_at=rt.removed_at,
        )
        for i, rt in runtimes.items()
    ]
    return NetworkReport(
        n_devices=len(ids),
        episodes=[
            tally.metrics(events_by_day.get(tally.index, []), detections_by_event)
            for tally in tallies
        ],
        devices=devices,
        clusters=clusters,
        tables={i: rt.learner.table for i, rt in runtimes.items()},
        logs={i: rt.engine.log for i, rt in runtimes.items()} if collect_logs else None,
    )
