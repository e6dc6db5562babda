"""Acceptance gate: seven release criteria, one test and one verdict line each.

Each test prints "criterion N ... PASS/FAIL (details)" to the terminal
regardless of capture settings, then asserts. Criteria 2 and 3 share one
ten-seed training sweep through a module fixture so the suite stays well
inside its runtime budgets.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dutysim.cli import main as cli_main
from dutysim.collab import (
    DeviceNode,
    NetworkConfig,
    expand_global_table,
    form_clusters,
    network_reward,
    run_network,
)
from dutysim.detect import DetectorModel, goertzel_spectrum
from dutysim.power import PowerProfile, charge_consumed, lifetime_years
from dutysim.qsched import (
    DEFAULT_ACTIONS,
    ActionSpace,
    Hyperparameters,
    reward,
)
from dutysim.rng import substream
from dutysim.sim import FixedSchedule, GreedySchedule, convergence_episodes, run_schedule
from dutysim.sim import train_qlearn
from dutysim.trace import SECONDS_PER_DAY, events_in_window

from _oracles import (
    events_in_window_scan,
    integrate_log_1ms,
    maximal_cliques_bruteforce,
    naive_dft_power,
    random_ms_log,
    two_peak_trace,
)

ORACLE = DetectorModel(tp_rate=1.0, fp_rate=0.0)
PROFILE = PowerProfile()
HP = Hyperparameters(w1=0.02)


def _verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Goertzel power equals the DFT definition


def test_criterion_1_goertzel_matches_dft(capsys):
    rng = substream(4201, "acceptance", "dft")
    bins = np.arange(801)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=1600)
        got = goertzel_spectrum(x, bins)
        want = naive_dft_power(x, bins)
        # Relative closeness with the signal's circular power as the bin
        # scale; |got-want| <= rtol*(|want| + scale) bin by bin.
        scale = x.shape[0] * float(np.sum(x * x))
        worst = max(worst, float(np.max(np.abs(got - want) / (np.abs(want) + scale))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(
        capsys,
        1,
        "goertzel vs dft, 100 signals x 801 bins",
        ok,
        f"worst normalized err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2 + 3. Ten-seed scheduler headline sweep (shared)


@pytest.fixture(scope="module")
def headline_sweep():
    def held_out(trace, spec, seed):
        # Every schedule, the trained one included, runs over the same 4 days.
        report, _ = run_schedule(
            trace,
            spec,
            ORACLE,
            PROFILE,
            seed,
            t_begin=10 * SECONDS_PER_DAY,
            duration_s=4 * SECONDS_PER_DAY,
        )
        return report

    t0 = time.perf_counter()
    rows = []
    for seed in range(10):
        trace = two_peak_trace(14, seed)
        result = train_qlearn(
            trace, 10, HP, ActionSpace(), ORACLE, PROFILE, seed
        )
        fixed = {i: held_out(trace, FixedSchedule(i), seed) for i in DEFAULT_ACTIONS}
        rows.append({"eval": held_out(trace, GreedySchedule(result.table), seed), "fixed": fixed})
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def test_criterion_2_trained_schedule_headline(headline_sweep, capsys):
    passing = 0
    ratios = []
    for row in headline_sweep["rows"]:
        ev = row["eval"]
        qualifying = [
            r for r in row["fixed"].values() if r.detection_rate >= 0.99
        ]
        if not qualifying:
            continue
        best = min(qualifying, key=lambda r: r.activations)
        ratio = ev.activations / best.activations
        ratios.append(ratio)
        if ev.detection_rate >= 0.80 and ratio <= 0.5:
            passing += 1
    elapsed = headline_sweep["elapsed"]
    ok = passing >= 8 and elapsed < 120.0
    _verdict(
        capsys,
        2,
        "detection >= 0.80 at <= half the best fixed activations",
        ok,
        f"{passing}/10 seeds, median activation ratio "
        f"{np.median(ratios):.2f}, sweep {elapsed:.0f}s",
    )


def test_criterion_3_lifetime_arithmetic(headline_sweep, capsys):
    # Pure deep sleep from the battery constants.
    sleep_years = lifetime_years(0.097, 13400.0)
    sleep_ok = abs(sleep_years - 13400.0 / 0.097 / 8766.0) < 1e-9
    sleep_ok &= abs(sleep_years - 15.76) / 15.76 < 1e-3

    # Closed-form charge vs a 1 ms integration walk on random logs.
    rng = substream(4203, "acceptance", "energy")
    worst = 0.0
    for _ in range(50):
        log = random_ms_log(rng, PROFILE, 200)
        exact = charge_consumed(log, PROFILE)
        approx = integrate_log_1ms(log, PROFILE)
        worst = max(worst, abs(exact - approx) / exact)
    oracle_ok = worst <= 1e-6

    # Directional: training buys at least 30% more lifetime than fixed 3 s.
    quorum = sum(
        1
        for row in headline_sweep["rows"]
        if row["eval"].lifetime_years >= 1.3 * row["fixed"][3].lifetime_years
    )
    ok = sleep_ok and oracle_ok and quorum >= 8
    _verdict(
        capsys,
        3,
        "lifetime model",
        ok,
        f"sleep {sleep_years:.2f} yr, oracle worst rel {worst:.1e}, "
        f"lifetime gain >= 1.3x in {quorum}/10 seeds",
    )


# ---------------------------------------------------------------------------
# 4. Convergence within 50 episodes


def test_criterion_4_convergence(capsys):
    t0 = time.perf_counter()
    episodes = []
    for seed in range(10):
        trace = two_peak_trace(60, seed)
        result = train_qlearn(
            trace, 60, HP, ActionSpace(), ORACLE, PROFILE, seed
        )
        episodes.append(convergence_episodes(result.policy_history))
    elapsed = time.perf_counter() - t0
    passing = sum(1 for e in episodes if e is not None and e <= 50)
    ok = passing >= 8 and elapsed < 120.0
    _verdict(
        capsys,
        4,
        "policy converges within 50 episodes",
        ok,
        f"{passing}/10 seeds, episodes {episodes}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. Collaborative redundancy and failure robustness


def test_criterion_5_collaborative_redundancy(capsys):
    # Three co-located devices train for 30 episodes; the device carrying
    # the most activations then breaks down (a neighbor that stops pinging
    # is only felt if it was detecting), and the survivors get 10 episodes
    # to take its coverage back up. The no-failure prefix of the rerun is
    # identical by determinism, so a probe run picks the casualty.
    seed = 707
    episodes, fail_at = 40, 30
    area = (0.0, 10.0, 0.0, 10.0)
    trace = two_peak_trace(episodes, seed, area=area)
    pretrain = train_qlearn(
        trace, 10, HP, ActionSpace(), ORACLE, PROFILE, seed, device_id=-1
    )
    nodes = tuple(
        DeviceNode(id=i, x=5.0, y=5.0, sensing_radius=500.0, comm_radius=500.0)
        for i in range(3)
    )
    probe_cfg = NetworkConfig(layout=nodes, episodes=fail_at, w2=0.5)
    seed_table = expand_global_table(pretrain.table, probe_cfg.n_bins)
    tables = {i: seed_table for i in range(3)}
    probe = run_network(trace, probe_cfg, HP, ActionSpace(), ORACLE, PROFILE, seed,
                        init_tables=tables)
    share = {
        i: sum(probe.episodes[e].activations[i] for e in range(fail_at - 10, fail_at))
        for i in range(3)
    }
    busiest = max(share, key=share.get)

    cfg = NetworkConfig(
        layout=nodes, episodes=episodes, w2=0.5, failures=((busiest, fail_at),)
    )
    rep = run_network(trace, cfg, HP, ActionSpace(), ORACLE, PROFILE, seed, init_tables=tables)
    eps = rep.episodes
    dup0 = eps[0].mean_duplicates
    dup_trained = float(np.mean([eps[i].mean_duplicates for i in range(fail_at - 5, fail_at)]))
    rate0 = eps[0].detection_rate
    rate_trained = float(np.mean([eps[i].detection_rate for i in range(fail_at - 5, fail_at)]))
    survivors = [i for i in range(3) if i != busiest]
    acts = [sum(e.activations[i] for i in survivors) for e in eps]
    acts_pre = float(np.mean(acts[fail_at - 10:fail_at]))
    acts_post = float(np.mean(acts[fail_at:fail_at + 10]))

    ok = (
        dup_trained < dup0
        and abs(rate_trained - rate0) <= 0.05
        and acts_post > acts_pre
    )
    _verdict(
        capsys,
        5,
        "redundancy falls, detection holds, survivors re-cover",
        ok,
        f"duplicates {dup0:.2f}->{dup_trained:.2f}, detection "
        f"{rate0:.3f}->{rate_trained:.3f}, survivor activations "
        f"{acts_pre:.0f}->{acts_post:.0f} after losing device {busiest}",
    )


# ---------------------------------------------------------------------------
# 6. Oracle equivalences


def test_criterion_6_oracle_equivalences(capsys):
    rng = substream(4206, "acceptance", "cliques")
    clique_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 11))
        nodes = [
            DeviceNode(
                id=i,
                x=float(rng.uniform(0, 100)),
                y=float(rng.uniform(0, 100)),
                sensing_radius=float(rng.uniform(5, 30)),
                comm_radius=100.0,
            )
            for i in range(n)
        ]
        got = [c.members for c in form_clusters(nodes)]
        want = maximal_cliques_bruteforce(
            [d.position for d in nodes], [d.sensing_radius for d in nodes]
        )
        clique_ok &= got == want

    trace = two_peak_trace(5, 61)
    rng = substream(4206, "acceptance", "windows")
    window_ok = True
    horizon = trace.horizon
    for _ in range(1000):
        a, b = sorted(rng.uniform(-1000.0, horizon + 1000.0, size=2))
        got = events_in_window(trace, a, b)
        want = events_in_window_scan(trace, a, b)
        window_ok &= list(got) == list(want)

    rng = substream(4206, "acceptance", "reward")
    reward_ok = True
    for _ in range(10_000):
        n_pos = int(rng.integers(0, 1000))
        n_neg = int(rng.integers(0, 1000))
        w1 = float(rng.uniform(0.0, 2.0))
        w2 = float(rng.uniform(0.0, 2.0))
        got = network_reward(
            n_pos=n_pos,
            n_neg=n_neg,
            overlaps=(1,) * int(rng.integers(0, 30)),
            battery_sd=0.0,
            w1=w1,
            w2=w2,
            w3=0.0,
        )
        reward_ok &= got == reward(n_pos=n_pos, n_neg=n_neg, w1=w1)

    ok = clique_ok and window_ok and reward_ok
    _verdict(
        capsys,
        6,
        "clique/window/reward oracles",
        ok,
        f"cliques {'ok' if clique_ok else 'MISMATCH'} (200 layouts), "
        f"windows {'ok' if window_ok else 'MISMATCH'} (1000 queries), "
        f"rewards {'ok' if reward_ok else 'MISMATCH'} (10000 exact)",
    )


# ---------------------------------------------------------------------------
# 7. Byte-level determinism of every subcommand


def _tree(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def test_criterion_7_subcommand_determinism(tmp_path, capsys):
    flat = {
        "hourly_rate": [0.5] * 24,
        "duration_mean": 3.0,
        "duration_sd": 0.0,
        "days": 3,
    }
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"seed": 5, "trace": {"profile": dict(flat, days=2)}}))
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(
        json.dumps(
            {
                "seed": 5,
                "trace": {"profile": flat},
                "schedules": {
                    "fixed": [3, 5, 60, 300, 1800],
                    "qlearn": {"train_days": 2, "eval_days": 1},
                },
                "hyperparameters": {"w1": 0.02},
            }
        )
    )
    net_cfg = tmp_path / "net.json"
    net_cfg.write_text(
        json.dumps(
            {
                "seed": 5,
                "trace": {
                    "profile": dict(flat, days=2, area=[0.0, 10.0, 0.0, 10.0])
                },
                "hyperparameters": {"w1": 0.02},
                "network": {
                    "layout": [
                        {
                            "id": i,
                            "x": 5.0,
                            "y": 5.0,
                            "sensing_radius": 500.0,
                            "comm_radius": 500.0,
                        }
                        for i in range(2)
                    ],
                    "episodes": 2,
                    "pretrain_days": 1,
                },
            }
        )
    )

    results = {}
    for rep in ("a", "b"):
        gen_out = tmp_path / f"gen_{rep}"
        run_out = tmp_path / f"run_{rep}"
        net_out = tmp_path / f"net_{rep}"
        rep_run = tmp_path / f"reprun_{rep}"
        rep_net = tmp_path / f"repnet_{rep}"
        assert cli_main(["gen-trace", "--config", str(gen_cfg), "--out", str(gen_out)]) == 0
        assert cli_main(["run", "--config", str(run_cfg), "--out", str(run_out)]) == 0
        assert cli_main(["run-network", "--config", str(net_cfg), "--out", str(net_out)]) == 0
        assert cli_main(
            ["report", "--summary", str(run_out / "summary.json"), "--out", str(rep_run)]
        ) == 0
        assert cli_main(
            ["report", "--summary", str(net_out / "network.json"), "--out", str(rep_net)]
        ) == 0
        results[rep] = {
            "gen-trace": _tree(gen_out),
            "run": _tree(run_out),
            "run-network": _tree(net_out),
            "report(run)": _tree(rep_run),
            "report(network)": _tree(rep_net),
        }

    mismatched = [k for k in results["a"] if results["a"][k] != results["b"][k]]
    n_files = sum(len(v) for v in results["a"].values())
    ok = not mismatched
    _verdict(
        capsys,
        7,
        "byte-identical reruns of every subcommand",
        ok,
        f"{n_files} files across 5 invocations"
        + (f"; mismatches in {mismatched}" if mismatched else ""),
    )
