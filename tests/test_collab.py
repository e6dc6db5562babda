"""Network collaboration tests.

Cluster formation is checked against a brute-force maximal-clique
enumerator, ping delivery and both reward variants against hand-worked
examples, and run_network against its single-device reductions to the
core simulator.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dutysim import collab
from dutysim.collab import (
    Cluster,
    deliver_pings,
    event_hashes,
    expand_global_table,
    form_clusters,
    local_reward,
    network_reward,
    run_network,
)
from dutysim.config import DeviceNode, NetworkConfig
from dutysim.detect import DetectorModel
from dutysim.errors import ScheduleError
from dutysim.power import PowerProfile, charge_consumed, to_ticks, validate_log
from dutysim.qsched import ActionSpace, Hyperparameters, QTable, reward
from dutysim.rng import substream
from dutysim.sim import FixedSchedule, GreedySchedule, TimelineEngine, run_schedule, train_qlearn
from dutysim.trace import DiurnalProfile, Event, events_in_window, generate_trace, make_trace

from _oracles import (
    deliver_pings_per_ping,
    event_hash,
    local_reward_by_intersection,
    maximal_cliques_bruteforce,
    stream_position,
    two_peak_rates,
    two_peak_trace,
)

ORACLE = DetectorModel(tp_rate=1.0, fp_rate=0.0)
PROFILE = PowerProfile()
AREA = (0.0, 10.0, 0.0, 10.0)
CENTER = (5.0, 5.0)
HP = Hyperparameters()
W1 = Hyperparameters(w1=0.02)


def area_trace(days, seed):
    profile = DiurnalProfile(
        hourly_rate=two_peak_rates(), duration_mean=3.0, duration_sd=0.0, days=days, area=AREA
    )
    return generate_trace(profile, seed)


def covering_node(device_id):
    return DeviceNode(
        id=device_id, x=CENTER[0], y=CENTER[1], sensing_radius=500.0, comm_radius=500.0
    )


def network(*nodes, **kwargs):
    return NetworkConfig(layout=nodes or (covering_node(0),), **kwargs)


# ---------------------------------------------------------------------------
# network_reward


def test_network_reward_worked_example():
    got = network_reward(
        n_pos=6, n_neg=4, overlaps=(2, 3), battery_sd=0.0, w1=0.1, w2=0.5, w3=0.0
    )
    assert got == pytest.approx(4.1, rel=1e-12)


def test_network_reward_battery_term_only():
    got = network_reward(
        n_pos=0, n_neg=0, overlaps=(), battery_sd=2.5, w1=0.0, w2=0.0, w3=1.0
    )
    assert got == pytest.approx(-2.5, rel=1e-12)


@given(
    n_pos=st.integers(0, 500),
    n_neg=st.integers(0, 500),
    n_events=st.integers(0, 20),
    w1=st.floats(0.0, 2.0, allow_nan=False),
    w2=st.floats(0.0, 2.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_network_reward_unit_overlaps_match_core_reward(n_pos, n_neg, n_events, w1, w2):
    # Every event seen exactly once and no battery term: the network reward
    # collapses to the single-device reward on the same totals.
    got = network_reward(
        n_pos=n_pos,
        n_neg=n_neg,
        overlaps=(1,) * n_events,
        battery_sd=0.0,
        w1=w1,
        w2=w2,
        w3=0.0,
    )
    core = reward(n_pos=n_pos, n_neg=n_neg, w1=w1)
    assert got == core


def test_network_reward_inputs_validation():
    with pytest.raises(ValueError):
        network_reward(n_pos=-1, n_neg=0, overlaps=(), battery_sd=0.0,
                       w1=0.1, w2=0.5, w3=0.0)
    with pytest.raises(ValueError):
        network_reward(n_pos=0, n_neg=0, overlaps=(1, 0), battery_sd=0.0,
                       w1=0.1, w2=0.5, w3=0.0)
    with pytest.raises(ValueError):
        network_reward(n_pos=0, n_neg=0, overlaps=(), battery_sd=-0.5,
                       w1=0.1, w2=0.5, w3=0.0)


# ---------------------------------------------------------------------------
# form_clusters


def node_at(device_id, x, y, r=10.0, comm=100.0):
    return DeviceNode(id=device_id, x=x, y=y, sensing_radius=r, comm_radius=comm)


def test_disjoint_devices_form_no_clusters():
    nodes = [node_at(0, 0.0, 0.0), node_at(1, 100.0, 0.0)]
    assert form_clusters(nodes) == []
    assert form_clusters(nodes[:1]) == []


def test_triangle_forms_one_cluster():
    nodes = [node_at(0, 0.0, 0.0), node_at(1, 15.0, 0.0), node_at(2, 7.0, 12.0)]
    clusters = form_clusters(nodes)
    assert len(clusters) == 1
    assert clusters[0].members == (0, 1, 2)


def test_chain_forms_two_pair_clusters():
    # 0-1 and 1-2 overlap but 0-2 do not: two maximal pairs sharing device 1.
    nodes = [node_at(0, 0.0, 0.0), node_at(1, 18.0, 0.0), node_at(2, 36.0, 0.0)]
    clusters = form_clusters(nodes)
    assert [c.members for c in clusters] == [(0, 1), (1, 2)]


def test_clusters_match_bruteforce_on_random_layouts():
    rng = substream(1301, "layouts")
    for _ in range(60):
        n = int(rng.integers(2, 11))
        nodes = [
            node_at(
                i,
                float(rng.uniform(0.0, 100.0)),
                float(rng.uniform(0.0, 100.0)),
                r=float(rng.uniform(5.0, 30.0)),
            )
            for i in range(n)
        ]
        got = [c.members for c in form_clusters(nodes)]
        want = maximal_cliques_bruteforce(
            [n.position for n in nodes], [n.sensing_radius for n in nodes]
        )
        assert got == want


def test_form_clusters_rejects_bad_input():
    with pytest.raises(ValueError):
        form_clusters([])
    with pytest.raises(ValueError):
        form_clusters([node_at(3, 0.0, 0.0), node_at(3, 1.0, 0.0)])


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(members=(7,))


# ---------------------------------------------------------------------------
# slot rotation


def test_slot_holder_examples():
    cluster = Cluster(members=(10, 11, 12))
    assert cluster.slot_holder(0) == 10
    assert cluster.slot_holder(7) == 11


def test_slot_counts_exact_over_multiple_of_size():
    cluster = Cluster(members=(0, 1, 2))
    counts = {0: 0, 1: 0, 2: 0}
    for t in range(3000):
        counts[cluster.slot_holder(t)] += 1
    assert counts == {0: 1000, 1: 1000, 2: 1000}


@given(
    size=st.integers(2, 6),
    start=st.integers(0, 1000),
    length=st.integers(1, 500),
)
@settings(max_examples=100, deadline=None)
def test_slot_counts_balanced_over_any_window(size, start, length):
    cluster = Cluster(members=tuple(range(size)))
    counts = [0] * size
    for t in range(start, start + length):
        counts[cluster.slot_holder(t)] += 1
    assert max(counts) - min(counts) <= 1


# ---------------------------------------------------------------------------
# event_hashes


def test_event_hash_deterministic_and_quantized():
    bands = [2500.0, 2500.0, 2599.0, 2600.0, 2500.0]
    starts = [90.0, 90.2, 90.9, 90.0, 91.0]
    hashes = event_hashes(bands, starts)
    assert event_hashes(bands, starts) == hashes
    base, later_start, both_later, next_band, next_second = hashes
    # 100 Hz buckets and 1 s buckets.
    assert base == later_start == both_later
    assert next_band != base
    assert next_second != base


def test_event_hash_untagged_band_is_distinct_bucket():
    a, b, tagged = event_hashes([None, None, 50.0], [10.0, 10.4, 10.0])
    assert a == b
    assert a != tagged


@given(
    band=st.one_of(st.none(), st.floats(1.0, 8000.0, allow_nan=False)),
    start=st.floats(0.0, 1e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_event_hash_is_64_bit(band, start):
    (h,) = event_hashes([band], [start])
    assert type(h) is int
    assert 0 <= h < 2**64


def _either_side(multiple: float, n: int) -> list[float]:
    x = n * multiple
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Bands within an ulp of a 100 Hz bucket edge, untagged bands, bands whose
# bucket is 2**63 or more (past int64, exact only in Python ints), and
# starts within an ulp of a whole second.
HASH_BANDS = st.one_of(
    st.none(),
    st.floats(1e-3, 2e4),
    st.integers(1, 200).flatmap(lambda n: st.sampled_from(_either_side(100.0, n))),
    st.floats(2.0**63 * 100.0, 1e300),
)
HASH_STARTS = st.one_of(
    st.floats(0.0, 1e7),
    st.integers(0, 10**7).flatmap(lambda n: st.sampled_from(_either_side(1.0, n))),
)


@given(st.lists(st.tuples(HASH_BANDS, HASH_STARTS), max_size=40))
@example([(2.0**63 * 100.0, 1.0), (math.nextafter(100.0, 0.0), math.nextafter(1.0, 0.0))])
@settings(max_examples=200, deadline=None)
def test_event_hashes_match_scalar_oracle(events):
    bands = [b for b, _ in events]
    starts = [s for _, s in events]
    assert list(event_hashes(bands, starts)) == [event_hash(b, s) for b, s in events]


def test_event_hashes_are_a_read_only_uint64_column():
    hashes = event_hashes([None, 2500.0, 4000.0], [1.0, 2.0, 3.0])
    assert [type(h) for h in hashes] == [int, int, int]
    assert hashes.nbytes == 8 * len(hashes)
    with pytest.raises(TypeError):
        hashes[0] = 0


def test_sensing_follows_math_dist_at_the_radius():
    # np.hypot and math.dist round some distances to neighbouring floats. A
    # device senses exactly the events with math.dist(location, position) <=
    # radius: event 0 lies on the radius, where np.hypot reads an ulp more,
    # and event 1 an ulp beyond it, where np.hypot reads an ulp less.
    origin = (0.0, 0.0)
    points = np.random.default_rng(3).uniform(-100.0, 100.0, size=(20000, 2))
    hypot = np.hypot(points[:, 0], points[:, 1])
    exact = np.array([math.dist(p, origin) for p in points])
    on_edge, beyond = points[hypot > exact][0], points[hypot < exact][0]
    trace = make_trace(
        [Event(0, 1.0, 1.0, location=tuple(on_edge)), Event(1, 2.0, 1.0, location=tuple(beyond))]
    )
    edges = {0: math.dist(on_edge, origin), 1: math.nextafter(math.dist(beyond, origin), 0.0)}
    events = events_in_window(trace, 0.0, trace.horizon)
    for event, radius in edges.items():
        node = DeviceNode(0, *origin, sensing_radius=radius, comm_radius=1.0)
        sensed = collab._senses(node, trace).tolist()
        assert sensed == [math.dist(ev.location, origin) <= radius for ev in events]
        assert sensed[event] == (event == 0)


# ---------------------------------------------------------------------------
# deliver_pings


def test_pings_reach_devices_in_comm_range():
    nodes = [node_at(0, 0.0, 0.0, comm=50.0), node_at(1, 30.0, 0.0, comm=50.0)]
    h = event_hash(3000.0, 120.0)
    mailbox = deliver_pings(nodes, {0: [h], 1: [h]})
    # Each receives the other's ping, so both estimate 1 + 1 = 2 detections.
    assert mailbox[0] == {h: [1]}
    assert mailbox[1] == {h: [0]}


def test_pings_do_not_cross_out_of_range():
    nodes = [node_at(0, 0.0, 0.0, comm=50.0), node_at(1, 200.0, 0.0, comm=50.0)]
    h = event_hash(3000.0, 120.0)
    mailbox = deliver_pings(nodes, {0: [h], 1: [h]})
    assert mailbox[0] == {}
    assert mailbox[1] == {}


def test_ping_reach_uses_sender_radius():
    nodes = [node_at(0, 0.0, 0.0, comm=300.0), node_at(1, 200.0, 0.0, comm=50.0)]
    h = event_hash(3000.0, 120.0)
    mailbox = deliver_pings(nodes, {0: [h], 1: [h]})
    assert mailbox[1] == {h: [0]}
    assert mailbox[0] == {}


def test_drop_rate_one_silences_everything():
    nodes = [node_at(0, 0.0, 0.0, comm=50.0), node_at(1, 30.0, 0.0, comm=50.0)]
    h = event_hash(3000.0, 120.0)
    mailbox = deliver_pings(
        nodes, {0: [h], 1: [h]}, drop_rate=1.0, rng=substream(5, "drop")
    )
    assert mailbox[0] == {} and mailbox[1] == {}


def test_drop_rate_needs_rng():
    nodes = [node_at(0, 0.0, 0.0), node_at(1, 5.0, 0.0)]
    with pytest.raises(ValueError):
        deliver_pings(nodes, {0: [1]}, drop_rate=0.5)


def test_lossy_delivery_is_deterministic_per_stream():
    nodes = [node_at(i, 10.0 * i, 0.0, comm=100.0) for i in range(4)]
    detections = {i: [event_hash(2000.0 + 100 * i, 60.0 * i)] for i in range(4)}
    a = deliver_pings(nodes, detections, drop_rate=0.5, rng=substream(9, "p"))
    b = deliver_pings(nodes, detections, drop_rate=0.5, rng=substream(9, "p"))
    assert a == b


@st.composite
def ping_rounds(draw):
    """A layout, then per round a surviving node set and its detections."""
    n = draw(st.integers(1, 6))
    coord = st.floats(0.0, 30.0)
    nodes = [
        node_at(i, draw(coord), draw(coord), comm=draw(st.sampled_from([5.0, 10.0, 20.0])))
        for i in range(n)
    ]
    rounds = []
    alive = list(nodes)
    for _ in range(draw(st.integers(1, 4))):
        if len(alive) > 1 and draw(st.booleans()):
            alive.pop(draw(st.integers(0, len(alive) - 1)))  # a failure
        hashes = st.lists(st.integers(0, 5), max_size=4)
        rounds.append((list(alive), {nd.id: draw(hashes) for nd in alive}))
    return rounds


@given(ping_rounds(), st.sampled_from([0.0, 0.5]), st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_cached_receivers_deliver_like_per_ping_distances(rounds, drop_rate, seed):
    # Receivers are cached per node set, so replaying rounds whose node set
    # shrinks after a failure must still match a fresh math.dist per ping,
    # mailbox for mailbox and draw for draw.
    rng = substream(seed, "p") if drop_rate else None
    oracle_rng = substream(seed, "p") if drop_rate else None
    for nodes, detections in rounds:
        got = deliver_pings(nodes, detections, drop_rate=drop_rate, rng=rng)
        want = deliver_pings_per_ping(nodes, detections, drop_rate, oracle_rng)
        assert got == want
        if drop_rate:
            assert stream_position(rng) == stream_position(oracle_rng)


def test_receivers_on_the_radius_boundary():
    # 3-4-5 triangle: the distance is exactly 5.0, so the ping arrives.
    nodes = [node_at(0, 0.0, 0.0, comm=5.0), node_at(1, 3.0, 4.0, comm=4.0)]
    mailbox = deliver_pings(nodes, {0: [7], 1: [7]})
    assert mailbox == {0: {}, 1: {7: [0]}}


# ---------------------------------------------------------------------------
# local_reward


def test_slot_holder_pays_no_overlap_penalty():
    cluster = Cluster(members=(0, 1, 2))
    h = event_hash(4000.0, 50.0)
    # Estimate 3: two matching pings from fellow members while holding the slot.
    r = local_reward(
        device_id=0,
        t=0,
        n_pos=1,
        n_neg=10,
        own_hashes=[h],
        mailbox_row={h: [1, 2]},
        clusters=[cluster],
        w1=0.1,
        w2=0.5,
    )
    assert r == pytest.approx(1 - 0.1 * 10, rel=1e-12)


def test_non_holder_pays_per_duplicate():
    cluster = Cluster(members=(0, 1, 2))
    h = event_hash(4000.0, 50.0)
    r = local_reward(
        device_id=0,
        t=1,  # slot belongs to device 1 now
        n_pos=1,
        n_neg=0,
        own_hashes=[h],
        mailbox_row={h: [1]},
        clusters=[cluster],
        w1=0.1,
        w2=0.5,
    )
    assert r == pytest.approx(1 - 0.5, rel=1e-12)


def test_waiver_requires_matching_cluster_member():
    # Holding a slot only waives duplicates shared with that cluster.
    cluster = Cluster(members=(0, 1))
    h = event_hash(4000.0, 50.0)
    r = local_reward(
        device_id=0,
        t=0,
        n_pos=0,
        n_neg=0,
        own_hashes=[h],
        mailbox_row={h: [5]},
        clusters=[cluster],
        w1=0.1,
        w2=0.5,
    )
    assert r == pytest.approx(-0.5, rel=1e-12)


@given(
    n_pos=st.integers(0, 200),
    n_neg=st.integers(0, 200),
    w1=st.floats(0.0, 1.0, allow_nan=False),
    w2=st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_isolated_device_reduces_to_core_reward(n_pos, n_neg, w1, w2):
    got = local_reward(
        device_id=0,
        t=13,
        n_pos=n_pos,
        n_neg=n_neg,
        own_hashes=[1, 2, 3],
        mailbox_row={},
        clusters=[],
        w1=w1,
        w2=w2,
    )
    assert got == reward(n_pos=n_pos, n_neg=n_neg, w1=w1)


@st.composite
def local_reward_cases(draw):
    """A device, a period, random clusters, own hashes with repeats, and a mailbox row."""
    ids, hashes = st.integers(0, 5), st.integers(0, 6)
    clusters = [
        Cluster(members=tuple(sorted(draw(st.sets(ids, min_size=2, max_size=5)))))
        for _ in range(draw(st.integers(0, 4)))
    ]
    own = draw(st.lists(hashes, max_size=8))
    mailbox_row = draw(
        st.dictionaries(hashes, st.lists(ids, max_size=4), max_size=7)
    )
    return draw(ids), draw(st.integers(0, 60)), own, mailbox_row, clusters


@given(
    case=local_reward_cases(),
    n_pos=st.integers(0, 200),
    n_neg=st.integers(0, 200),
    w1=st.floats(0.0, 1.0),
    w2=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_local_reward_matches_the_set_intersection_oracle(case, n_pos, n_neg, w1, w2):
    device_id, t, own, mailbox_row, clusters = case
    args = (device_id, t, n_pos, n_neg, own, mailbox_row, clusters, w1, w2)
    assert local_reward(*args).hex() == local_reward_by_intersection(*args).hex()


# ---------------------------------------------------------------------------
# expand_global_table


def test_expand_global_table_tiles_rows():
    rng = substream(21, "table")
    base = QTable.zeros(24, 5)
    base.values[:] = rng.normal(size=(24, 5)).astype(np.float32)
    base.visits[:] = rng.integers(0, 50, size=(24, 5)).astype(np.uint32)
    wide = expand_global_table(base, 4)
    assert wide.values.shape == (96, 5)
    for hour in range(24):
        for b in range(4):
            assert np.array_equal(wide.values[hour * 4 + b], base.values[hour])
            assert np.array_equal(wide.visits[hour * 4 + b], base.visits[hour])


def test_expand_global_table_validation():
    with pytest.raises(ValueError):
        expand_global_table(QTable.zeros(23, 5), 4)
    with pytest.raises(ValueError):
        expand_global_table(QTable.zeros(24, 5), 0)


# ---------------------------------------------------------------------------
# NetworkConfig


def test_network_config_validation():
    with pytest.raises(ValueError):
        network(episodes=0)
    with pytest.raises(ValueError):
        network(w2=-0.1)
    with pytest.raises(ValueError):
        network(drop_rate=1.5)
    with pytest.raises(ValueError):
        network(detection_bins=(2, 1))
    with pytest.raises(ValueError):
        network(detection_bins=(1, 1))
    with pytest.raises(ValueError):
        network(train=False)
    with pytest.raises(ValueError):
        network(failures=((0, -1),))
    with pytest.raises(ValueError, match="device ids must be unique"):
        network(covering_node(0), covering_node(0))
    with pytest.raises(ValueError, match="unknown device 9"):
        network(failures=((9, 0),))
    with pytest.raises(ValueError, match="episode < episodes"):
        network(episodes=2, failures=((0, 2),))
    with pytest.raises(ValueError, match="fail only once"):
        network(covering_node(0), covering_node(1), episodes=2, failures=((0, 1), (0, 0)))
    with pytest.raises(ValueError):
        network(pretrain_days=-1)
    with pytest.raises(ValueError):
        NetworkConfig(layout=())
    with pytest.raises(ValueError):
        NetworkConfig(layout=(covering_node(0),), layout_file="layout.json")
    with pytest.raises(ValueError):
        NetworkConfig()


def test_network_config_bin_count():
    assert network(detection_bins=(0, 2, 5)).n_bins == 4
    assert network(detection_bins=()).n_bins == 1


# ---------------------------------------------------------------------------
# run_network


def test_single_device_fixed_run_matches_run_schedule():
    tr = area_trace(3, 11)
    cfg = network(episodes=2, train=False, fixed_interval=60.0)
    rep = run_network(tr, cfg, HP, ActionSpace(), ORACLE, PROFILE, 11, collect_logs=True)
    sim_rep, sim_log = run_schedule(
        tr, FixedSchedule(60.0), ORACLE, PROFILE, 11, collect_log=True, duration_s=2 * 86400.0
    )
    assert rep.logs[0] == sim_log
    assert rep.devices[0].charge_mah == sim_rep.charge_mah
    assert rep.detection_rate == sim_rep.detection_rate
    assert rep.devices[0].activations == sim_rep.activations
    assert rep.clusters == []


def test_single_device_training_matches_train_qlearn():
    # With the detection-count bin collapsed the network state space is the
    # plain hour, no pings arrive, and learning must replay train_qlearn
    # draw for draw.
    tr = area_trace(3, 11)
    hp = Hyperparameters(w1=0.02)
    cfg = network(episodes=3, detection_bins=())
    rep = run_network(tr, cfg, hp, ActionSpace(), ORACLE, PROFILE, 11)
    res = train_qlearn(tr, 3, hp, ActionSpace(), ORACLE, PROFILE, 11)
    assert np.array_equal(rep.tables[0].values, res.table.values)
    assert np.array_equal(rep.tables[0].visits, res.table.visits)


def test_lone_network_device_pings_each_detection_and_train_qlearn_does_not():
    # The one billing difference between the two drivers of the learner: a
    # network device pings every detection even with nobody in range.
    tr = area_trace(3, 11)
    cfg = network(episodes=3, detection_bins=())
    rep = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 11, collect_logs=True)
    pings = sum(1 for entry in rep.logs[0] if entry.mode == "ping")
    assert pings == rep.devices[0].events_detected > 0
    res = train_qlearn(tr, 3, W1, ActionSpace(), ORACLE, PROFILE, 11, collect_log=True)
    assert not any(entry.mode == "ping" for entry in res.train_log)
    assert np.array_equal(rep.tables[0].values, res.table.values)
    assert np.array_equal(rep.tables[0].visits, res.table.visits)


def test_event_ids_are_only_labels():
    # A non-monotone relabelling of a trace with distinct starts keeps its
    # (start, id) order, so every result must stay equal.
    tr = area_trace(2, 13)
    assert np.unique(tr.starts).size == len(tr)
    ids = np.random.default_rng(0).permutation(len(tr)) * 1009 - 500_000
    assert (np.diff(ids) > 0).any() and (np.diff(ids) < 0).any()
    relabelled = dataclasses.replace(tr, ids=ids)
    detector = DetectorModel(tp_rate=0.8, fp_rate=0.02)
    nodes = (
        DeviceNode(0, 3.0, 5.0, 4.0, 20.0),
        DeviceNode(1, 7.0, 5.0, 4.0, 20.0),
        DeviceNode(2, 5.0, 5.0, 500.0, 500.0),
    )
    cfg = network(*nodes, episodes=2, drop_rate=0.3)

    def results(trace):
        trained = train_qlearn(trace, 1, W1, ActionSpace(), detector, PROFILE, 13)
        greedy, _ = run_schedule(
            trace, GreedySchedule(trained.table), detector, PROFILE, 13,
            t_begin=86400.0, duration_s=86400.0,
        )
        fixed, _ = run_schedule(trace, FixedSchedule(7.0), detector, PROFILE, 13)
        net = run_network(trace, cfg, W1, ActionSpace(), detector, PROFILE, 13)
        tables = [trained.table] + [net.tables[n.id] for n in nodes]
        return (
            (trained.train_report, greedy, fixed, net.to_dict()),
            [(t.values.tolist(), t.visits.tolist()) for t in tables],
        )

    assert results(relabelled) == results(tr)


@pytest.mark.parametrize("failures", [((2, 2),), ()], ids=["failure", "no_failure"])
def test_eps_reset_on_change_only_acts_after_a_failure(failures):
    tr = area_trace(4, 11)
    nodes = [covering_node(i) for i in range(3)]

    def tables(reset):
        cfg = network(*nodes, episodes=4, failures=failures, eps_reset_on_change=reset)
        rep = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 11)
        return [rep.tables[i].values for i in range(3)]

    differ = [not np.array_equal(a, b) for a, b in zip(tables(True), tables(False))]
    # The casualty's table froze before the reset; the survivors' diverge.
    assert differ == ([True, True, False] if failures else [False, False, False])


def test_missing_event_locations_rejected():
    profile = DiurnalProfile(
        hourly_rate=two_peak_rates(), duration_mean=3.0, duration_sd=0.0, days=1
    )
    bare = generate_trace(profile, 3)
    with pytest.raises(ScheduleError):
        run_network(bare, network(episodes=1), HP, ActionSpace(), ORACLE, PROFILE, 3)


def test_network_pings_billed_per_detection_in_one_step(monkeypatch):
    engines = []

    class RecordingEngine(TimelineEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.detected_per_period = []
            engines.append(self)

        def run_period(self, p_end, interval):
            stats = super().run_period(p_end, interval)
            self.detected_per_period.append(len(stats.detected))
            return stats

    monkeypatch.setattr(collab, "TimelineEngine", RecordingEngine)
    tr = area_trace(2, 23)
    cfg = network(covering_node(0), covering_node(1), episodes=2)
    logged = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 23, collect_logs=True)
    bare = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 23)
    for device in logged.devices:
        engine, bare_engine = engines[device.id], engines[2 + device.id]
        log = logged.logs[device.id]
        assert max(engine.detected_per_period) >= 2
        # Pings of the last period fall at the horizon and clip to nothing.
        pings = [entry for entry in log if entry.mode == "ping"]
        assert len(pings) == sum(engine.detected_per_period[:-1])
        assert all(entry.duration == PROFILE.ticks["d_ping"] for entry in pings)
        from_log = dict.fromkeys(engine.ticks_by_mode, 0)
        for entry in log:
            from_log[entry.mode] += entry.duration
        assert from_log == engine.ticks_by_mode == bare_engine.ticks_by_mode
        assert device.charge_mah == charge_consumed(log, PROFILE)
        assert device.charge_mah == bare.devices[device.id].charge_mah
    assert logged.to_dict() == bare.to_dict()


def test_battery_conservation_and_log_tiling():
    tr = area_trace(2, 23)
    cfg = network(covering_node(0), covering_node(1), episodes=2)
    rep = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 23, collect_logs=True)
    for device in rep.devices:
        log = rep.logs[device.id]
        validate_log(log, span=to_ticks(2 * 86400.0))
        assert device.charge_mah == charge_consumed(log, PROFILE)
        assert device.battery_level == PROFILE.battery_mah - device.charge_mah


def test_duplicates_fall_while_detection_holds():
    tr = area_trace(3, 11)
    cfg = network(*(covering_node(i) for i in range(3)), episodes=3, w2=0.5)
    rep = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 11)
    first, last = rep.episodes[0], rep.episodes[-1]
    assert last.mean_duplicates < first.mean_duplicates
    assert last.detection_rate >= 0.85
    assert len(rep.clusters) == 1 and rep.clusters[0].members == (0, 1, 2)


@pytest.mark.parametrize("seed", [707, 1, 2])
def test_collaboration_saves_charge_at_a_bounded_detection_cost(seed):
    # Criterion 5's set-up without the failure: three co-located devices
    # seeded from 10 pretraining days, 40 episodes, learning alone (w2 = 0)
    # or collaboratively (the default w2). Measured savings are 18.2, 21.6
    # and 24.0% of the charge at a cost of 1.9, 6.2 and 3.1 points of
    # detection rate over the last 10 episodes (seeds 707, 1, 2); the bounds
    # guard against regression and are not targets.
    trace = two_peak_trace(40, seed, area=AREA)
    pretrain = train_qlearn(trace, 10, W1, ActionSpace(), ORACLE, PROFILE, seed, device_id=-1)
    nodes = [covering_node(i) for i in range(3)]
    arms = []
    for w2 in (0.0, NetworkConfig.w2):
        cfg = network(*nodes, episodes=40, w2=w2)
        table = expand_global_table(pretrain.table, cfg.n_bins)
        rep = run_network(
            trace, cfg, W1, ActionSpace(), ORACLE, PROFILE, seed,
            init_tables={i: table for i in range(3)},
        )
        charge = sum(d.charge_mah for d in rep.devices)
        rate = float(np.mean([e.detection_rate for e in rep.episodes[-10:]]))
        arms.append((charge, rate))
    (alone_charge, alone_rate), (collab_charge, collab_rate) = arms
    assert 1.0 - collab_charge / alone_charge >= 0.15
    assert alone_rate - collab_rate <= 0.08


def test_event_counted_once_in_network_rate():
    # Three co-located oracles detect nearly everything; the network rate
    # must stay a fraction of distinct events, not triple-count them.
    tr = area_trace(1, 7)
    cfg = network(
        *(covering_node(i) for i in range(3)), episodes=1, train=False, fixed_interval=3.0
    )
    rep = run_network(tr, cfg, HP, ActionSpace(), ORACLE, PROFILE, 7)
    assert rep.episodes[0].events_total == len(tr)
    assert rep.episodes[0].events_detected == len(tr)
    assert rep.detection_rate == 1.0
    assert rep.episodes[0].mean_duplicates == pytest.approx(3.0)


def test_failure_injection_bookkeeping():
    tr = area_trace(4, 11)
    cfg = network(*(covering_node(i) for i in range(3)), episodes=4, failures=((2, 2),))
    rep = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 11, collect_logs=True)
    assert [d.removed_at for d in rep.devices] == [None, None, 2]
    assert sorted(rep.episodes[1].activations) == [0, 1, 2]
    assert sorted(rep.episodes[3].activations) == [0, 1]
    # The casualty is billed through its final update at the removal
    # boundary and nothing after.
    log = rep.logs[2]
    assert log[-1].start + log[-1].duration == to_ticks(2 * 86400.0) + to_ticks(PROFILE.d_ql)
    assert rep.devices[2].charge_mah == charge_consumed(log, PROFILE)


def test_removing_all_devices_is_an_error():
    tr = area_trace(2, 11)
    cfg = network(covering_node(0), covering_node(1), episodes=2, failures=((0, 1), (1, 1)))
    with pytest.raises(ScheduleError):
        run_network(tr, cfg, HP, ActionSpace(), ORACLE, PROFILE, 11)


def test_run_network_is_deterministic():
    tr = area_trace(2, 31)
    cfg = network(covering_node(0), covering_node(1), episodes=2)
    a = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 31)
    b = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 31)
    assert a.to_dict() == b.to_dict()
    for i in a.tables:
        assert np.array_equal(a.tables[i].values, b.tables[i].values)
        assert np.array_equal(a.tables[i].visits, b.tables[i].visits)


def test_run_network_validation():
    tr = area_trace(2, 11)
    actions = ActionSpace()

    def run(cfg, actions=actions):
        return run_network(tr, cfg, HP, actions, ORACLE, PROFILE, 11)

    with pytest.raises(ScheduleError):
        run(NetworkConfig(layout_file="layout.json", episodes=2))
    with pytest.raises(ScheduleError):
        run(network(episodes=3))
    with pytest.raises(ScheduleError):
        run(network(episodes=2, train=False, fixed_interval=0.1))
    with pytest.raises(ScheduleError):
        run(network(episodes=2), ActionSpace((0.1, 5.0)))


@pytest.mark.parametrize("interval", [1e10, 1e300])
def test_intervals_past_the_tick_clock_are_schedule_errors(interval):
    # 1e10 s is past power.MAX_SECONDS and 1e300 s past the float-to-int
    # conversion. ActionSpace and NetworkConfig refuse both when built, so
    # here they are set past those checks, as a library caller could.
    tr = area_trace(2, 11)
    actions = ActionSpace()
    object.__setattr__(actions, "intervals", (60.0, interval))
    fixed = network(episodes=2, train=False, fixed_interval=60.0)
    object.__setattr__(fixed, "fixed_interval", interval)
    engine = TimelineEngine(tr, 0.0, 3600.0, PROFILE, ORACLE, None)
    with pytest.raises(ScheduleError, match="^interval must be <="):
        engine.run_period(3600.0, interval)
    with pytest.raises(ScheduleError, match="^interval must be <="):
        run_schedule(tr, FixedSchedule(interval), ORACLE, PROFILE, 1)
    with pytest.raises(ScheduleError, match="^action must be <="):
        train_qlearn(tr, 1, HP, actions, ORACLE, PROFILE, 1)
    with pytest.raises(ScheduleError, match="^action must be <="):
        run_network(tr, network(episodes=2), HP, actions, ORACLE, PROFILE, 11)
    with pytest.raises(ScheduleError, match="^fixed_interval must be <="):
        run_network(tr, fixed, HP, ActionSpace(), ORACLE, PROFILE, 11)


def test_init_table_shape_checked_and_expansion_accepted():
    tr = area_trace(2, 11)
    cfg = network(episodes=2)
    with pytest.raises(ScheduleError):
        run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 11,
                    init_tables={0: QTable.zeros(24, 5)})
    seeded = expand_global_table(QTable.zeros(24, 5), cfg.n_bins)
    rep = run_network(tr, cfg, W1, ActionSpace(), ORACLE, PROFILE, 11,
                      init_tables={0: seeded})
    assert rep.tables[0].values.shape == (24 * cfg.n_bins, 5)
    # The caller's table object is seeded by copy, not adopted.
    assert seeded.visits.sum() == 0


# ---------------------------------------------------------------------------
# the battery spread, taken once per episode


@given(
    st.lists(
        st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=300).map(tuple),
        min_size=1,
        max_size=24,
    ).filter(lambda rows: len(set(map(len, rows))) == 1)
)
@settings(max_examples=200, deadline=None)
def test_row_spreads_equal_per_row_spreads_to_the_bit(rows):
    # run_network takes np.std of a period-by-device matrix along its rows;
    # past 8 columns numpy's pairwise summation unrolls, and the rows must
    # still match one np.std call per period.
    levels = np.array(rows)
    spreads = np.std(levels, axis=1)
    for i, row in enumerate(rows):
        assert spreads[i].hex() == float(np.std(list(row))).hex()


def nine_device_report():
    """A 3 x 3 grid of overlapping devices on a lossy channel; the centre one fails."""
    nodes = tuple(
        DeviceNode(3 * row + col, 2.0 + 3.0 * col, 2.0 + 3.0 * row, 2.5, 6.0)
        for row in range(3)
        for col in range(3)
    )
    config = NetworkConfig(layout=nodes, episodes=2, drop_rate=0.3, failures=((4, 1),))
    detector = DetectorModel(tp_rate=0.9, fp_rate=0.01)
    return run_network(area_trace(2, 5), config, W1, ActionSpace(), detector, PROFILE, 5)


def test_nine_device_network_output_is_pinned():
    # Nine live devices, then eight: both sides of numpy's unrolled
    # summation. The digest is of the output that one np.std call per
    # period gives.
    report = nine_device_report()
    assert [d.removed_at for d in report.devices] == [None] * 4 + [1] + [None] * 4
    blob = json.dumps(report.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == "965849a28b00960fceaa1a7e4819ebb01e5367118bd87d963d36afd583c0a7bd"
