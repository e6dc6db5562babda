"""End-to-end command line tests.

Each test drives main() in process against a small JSON config in a temp
directory, then inspects the emitted files. Determinism is checked at the
byte level since the manifest hashes promise exactly that.
"""

import copy
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim.cli import main
from dutysim.config import (
    DeviceNode,
    ExperimentConfig,
    NetworkConfig,
    QLearnSpec,
    TraceSource,
    config_to_dict,
    parse_config,
)
from dutysim.detect import DetectorModel
from dutysim.power import PowerProfile
from dutysim.qsched import load_qtable
from dutysim.sim import convergence_episodes
from dutysim.trace import DiurnalProfile, events_in_window, load_trace

FLAT_PROFILE = {
    "hourly_rate": [0.5] * 24,
    "duration_mean": 3.0,
    "duration_sd": 0.0,
    "days": 3,
}


def write_config(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2))
    return path


def run_config(days=3, seed=5):
    profile = dict(FLAT_PROFILE, days=days)
    return {
        "seed": seed,
        "trace": {"profile": profile},
        "schedules": {
            "fixed": [3, 5, 60, 300, 1800],
            "qlearn": {"train_days": 2, "eval_days": 1},
        },
        "hyperparameters": {"w1": 0.02},
    }


def network_config(episodes=2, seed=5, n_devices=2, **net_extra):
    profile = dict(FLAT_PROFILE, days=episodes, area=[0.0, 10.0, 0.0, 10.0])
    layout = [
        {"id": i, "x": 5.0, "y": 5.0, "sensing_radius": 500.0, "comm_radius": 500.0}
        for i in range(n_devices)
    ]
    return {
        "seed": seed,
        "trace": {"profile": profile},
        "hyperparameters": {"w1": 0.02},
        "network": {"layout": layout, "episodes": episodes, **net_extra},
    }


def read_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def tree_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# gen-trace


def test_gen_trace_zero_rate_writes_valid_empty_trace(tmp_path, capsys):
    cfg = {
        "seed": 1,
        "trace": {
            "profile": {
                "hourly_rate": [0.0] * 24,
                "duration_mean": 3.0,
                "duration_sd": 0.0,
                "days": 1,
            }
        },
    }
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["gen-trace", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    trace = load_trace(tmp_path / "out" / "trace.csv")
    assert events_in_window(trace, 0.0, trace.horizon) == []
    assert trace.horizon == 86400.0
    out = capsys.readouterr().out
    assert "events: 0" in out


def test_gen_trace_two_days_horizon(tmp_path, capsys):
    cfg = {"seed": 3, "trace": {"profile": dict(FLAT_PROFILE, days=2)}}
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["gen-trace", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    for name in ("trace.csv", "trace.json"):
        assert load_trace(tmp_path / "out" / name).horizon == 172800.0


def test_gen_trace_reruns_byte_identical(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.json", {"seed": 9, "trace": {"profile": FLAT_PROFILE}}
    )
    for out in ("a", "b"):
        assert main(["gen-trace", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_gen_trace_bytes_are_pinned(tmp_path, capsys):
    # Every event carries a band and a location. The digests pin each byte
    # of both writers: number text, key order, and which fields appear.
    profile = dict(FLAT_PROFILE, hourly_rate=[5.0] * 24, duration_sd=1.0, days=2,
                   band_range=[1500, 8500], area=[-50, 50, 0, 20])
    cfg_path = write_config(tmp_path / "cfg.json", {"seed": 3, "trace": {"profile": profile}})
    assert main(["gen-trace", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in ("trace.csv", "trace.json")
    }
    assert digests == {
        "trace.csv": "b5b33c2f2cbd11aa9c5e613503e0f06b7c5c075b5cfc1389ecd9039ea5ba2448",
        "trace.json": "561178b6c53d7f22800c9586f4a91969d0da233aaa0c57418c52bad8028d3ff3",
    }
    assert capsys.readouterr().out == (
        "events: 254  horizon: 172800.0 s\n"
        "per-hour: 10 7 12 5 10 14 14 13 13 10 9 11 8 11 12 13 10 9 13 14 6 9 13 8\n"
    )


def test_gen_trace_requires_profile_source(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.json", {"seed": 1, "trace": {"file": "whatever.csv"}}
    )
    assert main(["gen-trace", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run


def test_run_emits_six_row_comparison(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", run_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "comparison.csv")
    assert [r["name"] for r in rows] == [
        "fixed_3", "fixed_5", "fixed_60", "fixed_300", "fixed_1800", "qlearn",
    ]
    header = (out / "comparison.csv").read_text().splitlines()[0]
    assert header == (
        "name,detection_rate,activations,positives,negatives,"
        "avg_current_ma,lifetime_years"
    )
    table = load_qtable((out / "qtable.bin").read_bytes())
    assert table.n_states == 24 and table.n_actions == 5
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "run"
    assert len(summary["qlearn"]["policy_history"]) == 2
    history = [np.array(p) for p in summary["qlearn"]["policy_history"]]
    assert summary["qlearn"]["episodes_to_convergence"] == convergence_episodes(history)


# Every probe under the gate synthesizes a window, so the goertzel case is
# smaller: it still trains a schedule under the gate and evaluates it.
GOERTZEL_RERUN = dict(
    run_config(days=2),
    detector={"kind": "goertzel", "noise_sd": 1.0},
    actions=[30, 60],
    schedules={"fixed": [60], "qlearn": {"train_days": 1, "eval_days": 1}},
)


@pytest.mark.parametrize("cfg", [run_config(), GOERTZEL_RERUN], ids=["abstract", "goertzel"])
def test_run_reruns_byte_identical(tmp_path, capsys, cfg):
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    for out in ("a", "b"):
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_run_manifest_hashes_every_output(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", run_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    expected = {"comparison.csv", "per_period.csv", "summary.json", "qtable.bin"}
    assert set(manifest["outputs"]) == expected
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


ZERO_CURRENTS = {f.name: 0.0 for f in dataclasses.fields(PowerProfile) if f.name.startswith("i_")}


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize(
    "power",
    [ZERO_CURRENTS, {**ZERO_CURRENTS, "i_sleep": 1e-310}],
    ids=["no_drain", "projection_past_float64"],
)
def test_run_without_a_finite_lifetime_writes_valid_outputs(tmp_path, capsys, power):
    # Both exited 0 with "lifetime_years": Infinity in summary.json and inf in comparison.csv.
    cfg = write_config(tmp_path / "cfg.json", {**run_config(), "power": power})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(line.endswith(" lifetime=none") for line in lines)
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_refuse)
    assert {row["lifetime_years"] for row in summary["comparison"]} == {None}
    assert summary["qlearn"]["eval"]["lifetime_years"] is None
    assert {row["lifetime_years"] for row in read_rows(out / "comparison.csv")} == {""}
    re_out = tmp_path / "re"
    assert main(["report", "--summary", str(out / "summary.json"), "--out", str(re_out)]) == 0
    assert (re_out / "comparison.csv").read_bytes() == (out / "comparison.csv").read_bytes()


def test_run_seed_flag_overrides_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", run_config())
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(
        ["run", "--config", str(cfg_path), "--seed", "77", "--out", str(tmp_path / "b")]
    ) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seed"] == 77
    a = (tmp_path / "a" / "comparison.csv").read_bytes()
    b = (tmp_path / "b" / "comparison.csv").read_bytes()
    assert a != b


def test_run_missing_seed_is_a_validation_error(tmp_path, capsys):
    cfg = run_config()
    del cfg["seed"]
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_run_rejects_seed_override_outside_64_bits(tmp_path, capsys, seed):
    cfg_path = write_config(tmp_path / "cfg.json", run_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--seed", seed, "--out", str(out)]) == 1
    assert "--seed: seed must lie in [0, 2**64)" in capsys.readouterr().err


def test_run_rejects_zero_eval_days(tmp_path, capsys):
    cfg = run_config()
    cfg["schedules"]["qlearn"]["eval_days"] = 0
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "eval_days" in capsys.readouterr().err


def test_run_rejects_short_trace(tmp_path, capsys):
    cfg = run_config(days=2)  # needs 2 train + 1 eval
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "train_days" in capsys.readouterr().err


def test_run_consumes_generated_trace_file(tmp_path, capsys):
    gen_cfg = write_config(
        tmp_path / "gen.json", {"seed": 9, "trace": {"profile": FLAT_PROFILE}}
    )
    assert main(["gen-trace", "--config", str(gen_cfg), "--out", str(tmp_path)]) == 0
    cfg = run_config()
    cfg["trace"] = {"file": "trace.csv"}  # resolved relative to the config
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    rows = read_rows(tmp_path / "out" / "comparison.csv")
    assert len(rows) == 6


def test_run_refuses_unknown_trace_csv_metadata_key(tmp_path, capsys):
    (tmp_path / "trace.csv").write_text(
        "# orign_hour=5\n# note: seed = 3\nid,start,duration,band,x,y\n1,60,3,,,\n"
    )
    cfg = _fixed_run_on("trace.csv")
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "trace.csv:1: unknown metadata key 'orign_hour'" in err


def test_run_init_scale_takes_event_across_train_boundary(tmp_path, capsys):
    # Event 1 starts in the last second of the training day and ends in the
    # evaluation day; the initial table counts it in training hour 23.
    (tmp_path / "trace.csv").write_text("id,start,duration,band,x,y\n1,86399,3,,,\n")
    cfg = run_config()
    cfg["trace"] = {"file": "trace.csv"}
    cfg["schedules"]["qlearn"] = {"train_days": 1, "eval_days": 1, "init_scale": 1.0}
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_run_without_qlearn_section(tmp_path, capsys):
    cfg = run_config()
    cfg["schedules"]["qlearn"] = None
    cfg["schedules"]["fixed"] = [60, 300]
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "comparison.csv")
    assert [r["name"] for r in rows] == ["fixed_60", "fixed_300"]
    assert not (out / "qtable.bin").exists()


def test_run_with_a_scheduler_call_longer_than_a_period(tmp_path, capsys):
    # Each 4,000 s inference pushes the clock past its period's end, so no
    # learned period gets to wake.
    cfg = run_config()
    cfg["trace"]["profile"]["hourly_rate"] = [2.0] * 24
    cfg["schedules"]["fixed"] = [60]
    cfg["power"] = {"d_ql": 4000}
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "comparison.csv")
    assert [r["name"] for r in rows] == ["fixed_60", "qlearn"]
    assert rows[0]["activations"] != "0" and rows[1]["activations"] == "0"
    periods = [r for r in read_rows(out / "per_period.csv") if r["schedule"] == "qlearn"]
    assert len(periods) == 72 and all(r["activations"] == "0" for r in periods)


# ---------------------------------------------------------------------------
# run-network


def test_network_single_device_matches_run(tmp_path, capsys):
    # One covering device on a fixed schedule is exactly the single-device
    # simulator; the network totals must agree with cmd_run's row.
    net_cfg = network_config(
        episodes=2, n_devices=1, train=False, fixed_interval=60.0
    )
    net_path = write_config(tmp_path / "net.json", net_cfg)
    out_net = tmp_path / "out_net"
    assert main(["run-network", "--config", str(net_path), "--out", str(out_net)]) == 0

    run_cfg = {
        "seed": 5,
        "trace": {"profile": dict(FLAT_PROFILE, days=2, area=[0.0, 10.0, 0.0, 10.0])},
        "schedules": {"fixed": [60], "qlearn": None},
        "hyperparameters": {"w1": 0.02},
    }
    run_path = write_config(tmp_path / "run.json", run_cfg)
    out_run = tmp_path / "out_run"
    assert main(["run", "--config", str(run_path), "--out", str(out_run)]) == 0

    report = json.loads((out_net / "network.json").read_text())["report"]
    row = read_rows(out_run / "comparison.csv")[0]
    assert report["devices"][0]["activations"] == int(row["activations"])
    assert report["devices"][0]["positives"] == int(row["positives"])
    assert report["detection_rate"] == float(row["detection_rate"])


def test_network_emits_one_csv_per_device(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.json", network_config(episodes=1, n_devices=5)
    )
    out = tmp_path / "out"
    assert main(["run-network", "--config", str(cfg_path), "--out", str(out)]) == 0
    device_csvs = sorted(p.name for p in out.glob("device_*.csv"))
    assert device_csvs == [f"device_{i}.csv" for i in range(5)]
    qtables = sorted(p.name for p in out.glob("qtable_*.bin"))
    assert qtables == [f"qtable_{i}.bin" for i in range(5)]
    assert (out / "network.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {
        "network.json", "network_series.csv",
        *device_csvs, *qtables,
    }


def test_network_failure_marks_device_inactive(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.json",
        network_config(episodes=3, n_devices=2, failures=[[1, 1]]),
    )
    out = tmp_path / "out"
    assert main(["run-network", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "network.json").read_text())["report"]
    removed = {d["id"]: d["removed_at"] for d in report["devices"]}
    assert removed == {0: None, 1: 1}
    # The casualty appears in the series only before its removal episode.
    assert len(read_rows(out / "device_1.csv")) == 1
    assert len(read_rows(out / "device_0.csv")) == 3


def test_network_reruns_byte_identical(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.json",
        network_config(episodes=2, n_devices=2, pretrain_days=1),
    )
    for out in ("a", "b"):
        assert main(
            ["run-network", "--config", str(cfg_path), "--out", str(tmp_path / out)]
        ) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_network_requires_network_section(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", run_config())
    assert main(["run-network", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "network" in capsys.readouterr().err


def _zero_radius_network():
    cfg = network_config(episodes=1, n_devices=1)
    cfg["network"]["layout"][0]["sensing_radius"] = 0.0
    return cfg


def _duplicate_id_network():
    cfg = network_config(episodes=1, n_devices=2)
    cfg["network"]["layout"][1]["id"] = 0
    return cfg


def _train_days_with_init_scale(train_days):
    cfg = run_config()
    cfg["schedules"]["qlearn"] = {"train_days": train_days, "eval_days": 1, "init_scale": 1.0}
    return cfg


def _band_trace(band_range):
    profile = dict(FLAT_PROFILE, band_range=band_range)
    return {"seed": 1, "trace": {"profile": profile}}


# Durations that overflowed the tick clock and exited 2 in to_ticks.
_POWER_DURATIONS = (
    "d_ping", "d_probe", "d_ql", "d_tx_audio", "d_tx_image", "d_camera",
    "probe_record_s", "false_alarm_record_s",
)


# Trace files past the tick clock, written next to every case's config. The
# first exited 2 converting its horizon; the second ran to exit 0 with its
# event's start and end wrapped to -2**63 ticks, so it was never detected.
_TRACE_FILES = {
    "huge_horizon.json": {"horizon": 1e300, "events": []},
    "wrapping_horizon.json": {
        "horizon": 1.2e10,
        "events": [{"id": 0, "start": 1e10, "duration": 3.0}],
    },
    # Inside the tick clock but past trace.MAX_DAYS (11,574 days).
    "long_horizon.json": {"horizon": 1e9, "events": []},
}


def _fixed_run_on(trace_file):
    return {**run_config(), "trace": {"file": trace_file},
            "schedules": {"fixed": [1800], "qlearn": None}}


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        ("run-network", _zero_radius_network(), "network.layout[0]: radii must be positive"),
        (
            "run-network",
            _duplicate_id_network(),
            "network: layout: device ids must be unique",
        ),
        (
            "run-network",
            network_config(episodes=1, n_devices=2, failures=[[7, 0]]),
            "network: failures: unknown device 7",
        ),
        ("run", {**run_config(), "detector": {"tp_rate": 2.0}}, "detector: tp_rate"),
        ("gen-trace", _band_trace([5000, 100]), "trace.profile: band_range"),
        ("gen-trace", _band_trace([-100, 100]), "trace.profile: band_range"),
        (
            "run",
            {**run_config(), "detector": {"kind": "goertzel", "noise_sd": -1}},
            "detector: noise_sd",
        ),
        ("run", {**run_config(), "power": {"d_ping": 1e-10}}, "power: d_ping must be at least 1 ns"),
        (
            "gen-trace",
            {
                "seed": 1,
                "trace": {"profile": dict(FLAT_PROFILE, hourly_rate=[2**70] + [0.5] * 23)},
            },
            "trace.profile: hourly_rate[0]",
        ),
        # Generated traces are bounded: this one needed 7.45 GiB and exited 2.
        (
            "gen-trace",
            {"seed": 1, "trace": {"profile": dict(FLAT_PROFILE, hourly_rate=[1e9] + [0.5] * 23)}},
            "trace.profile: hourly_rate: sum(hourly_rate) * days",
        ),
        # ... and this one ran for longer than 20 s.
        (
            "gen-trace",
            {"seed": 1, "trace": {"profile": dict(FLAT_PROFILE, days=100_000_000)}},
            "trace.profile: days must be <= 10000",
        ),
        # init_scale reads the training days' event rates before training starts.
        ("run", _train_days_with_init_scale(0), "schedules.qlearn: train_days"),
        ("run", _train_days_with_init_scale(-1), "schedules.qlearn: train_days"),
        # Intervals and durations past the tick clock's int64 range exited 2.
        ("run", {**run_config(), "actions": [1, 1e300]}, "actions: intervals must be <="),
        (
            "run",
            {**run_config(), "schedules": {"fixed": [1e300], "qlearn": None}},
            "schedules: fixed[0] must be <=",
        ),
        (
            "run-network",
            network_config(episodes=1, train=False, fixed_interval=1e300),
            "network: fixed_interval must be <=",
        ),
        *(
            ("run", {**run_config(), "power": {name: 1e300}}, f"power: {name} must be")
            for name in _POWER_DURATIONS
        ),
        # numpy's uniform draw exited 2 on a width past the float range.
        (
            "gen-trace",
            {"seed": 1, "trace": {"profile": dict(FLAT_PROFILE, area=[-1e308, 1e308, 0, 1])}},
            "trace.profile: area width and height must be finite",
        ),
        # The whole run finished, then writing the Q-table's u16 header exited 2.
        (
            "run-network",
            network_config(episodes=1, detection_bins=list(range(2730))),
            "network: detection_bins: 2730 edges give 65544 states",
        ),
        (
            "run",
            {**run_config(), "actions": [1.0 + i for i in range(65536)]},
            "actions: action space holds at most 65535 intervals",
        ),
        # These ran and wrote avg_current_ma inf and battery_sd Infinity.
        ("run", {**run_config(), "power": {"i_sleep": 1e308}}, "power: i_sleep must be in"),
        (
            "run-network",
            {**network_config(episodes=1), "power": {"battery_mah": 1e308}},
            "power: battery_mah must be in",
        ),
        ("run", _fixed_run_on("huge_horizon.json"), "huge_horizon.json: horizon must be <="),
        (
            "run",
            _fixed_run_on("wrapping_horizon.json"),
            "wrapping_horizon.json: horizon must be <=",
        ),
        (
            "run",
            _fixed_run_on("long_horizon.json"),
            "long_horizon.json: horizon must be <= 10000 days",
        ),
    ],
    ids=[
        "layout_radius",
        "layout_duplicate_id",
        "failure_unknown_device",
        "detector_rate",
        "band_range_reversed",
        "band_range_non_positive",
        "noise_sd_negative",
        "duration_below_a_tick",
        "hourly_rate_past_poisson_limit",
        "hourly_rate_past_event_limit",
        "days_past_limit",
        "train_days_zero_with_init_scale",
        "train_days_negative_with_init_scale",
        "actions_past_tick_clock",
        "fixed_past_tick_clock",
        "network_fixed_interval_past_tick_clock",
        *(f"{name}_past_tick_clock" for name in _POWER_DURATIONS),
        "area_of_infinite_width",
        "detection_bins_past_qtable_header",
        "actions_past_qtable_header",
        "i_sleep_past_bound",
        "battery_mah_past_bound",
        "trace_horizon_past_float_to_int",
        "trace_horizon_past_tick_clock",
        "trace_horizon_past_max_days",
    ],
)
def test_values_rejected_by_domain_types_are_validation_errors(
    tmp_path, capsys, command, cfg, message
):
    for name, payload in _TRACE_FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "layout_ids, failures, message",
    [
        ([0, 0], [], "network.layout_file: layout: device ids must be unique"),
        ([0, 1], [[7, 0]], "network.layout_file: failures: unknown device 7"),
        ([0, 1], [[1, 1]], "network: failures entries are (device_id, 0 <= episode < episodes)"),
        ([0, 1], [[1, 0], [1, 0]], "network: failures: a device can fail only once"),
        ([], [], "need a non-empty device list"),
    ],
    ids=[
        "duplicate_id",
        "failure_unknown_device",
        "failure_after_last_episode",
        "failure_twice",
        "empty",
    ],
)
def test_network_layout_file_is_checked_like_layout(
    tmp_path, capsys, layout_ids, failures, message
):
    cfg = network_config(episodes=1, n_devices=len(layout_ids), failures=failures)
    layout = cfg["network"].pop("layout")
    for device, did in zip(layout, layout_ids):
        device["id"] = did
    cfg["network"]["layout_file"] = "layout.json"
    (tmp_path / "layout.json").write_text(json.dumps(layout))
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["run-network", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


def test_network_layout_file_source(tmp_path, capsys):
    cfg = network_config(episodes=1, n_devices=1)
    layout = cfg["network"].pop("layout")
    cfg["network"]["layout_file"] = "layout.json"
    (tmp_path / "layout.json").write_text(json.dumps({"devices": layout}))
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run-network", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "device_0.csv").exists()


# ---------------------------------------------------------------------------
# report


def test_report_rerenders_run_csvs(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", run_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    re_out = tmp_path / "re"
    assert main(
        ["report", "--summary", str(out / "summary.json"), "--out", str(re_out)]
    ) == 0
    for name in ("comparison.csv", "per_period.csv"):
        assert (re_out / name).read_bytes() == (out / name).read_bytes()


def test_report_rerenders_network_csvs(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.json", network_config(episodes=2, n_devices=2)
    )
    out = tmp_path / "out"
    assert main(["run-network", "--config", str(cfg_path), "--out", str(out)]) == 0
    re_out = tmp_path / "re"
    assert main(
        ["report", "--summary", str(out / "network.json"), "--out", str(re_out)]
    ) == 0
    for name in ("network_series.csv", "device_0.csv", "device_1.csv"):
        assert (re_out / name).read_bytes() == (out / name).read_bytes()


def test_report_reproduces_network_csvs_with_device_removed_at_start(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.json", network_config(episodes=2, n_devices=2, failures=[[1, 0]])
    )
    out = tmp_path / "out"
    assert main(["run-network", "--config", str(cfg_path), "--out", str(out)]) == 0
    re_out = tmp_path / "re"
    assert main(
        ["report", "--summary", str(out / "network.json"), "--out", str(re_out)]
    ) == 0
    csvs = {name: data for name, data in tree_bytes(out).items() if name.endswith(".csv")}
    assert tree_bytes(re_out) == csvs
    assert csvs["device_1.csv"] == b"episode,activations,battery_level\n"


# The smallest summaries that decode, for the cases below to break one node of.
_SUMMARY_CONFIG = {"seed": 1, "trace": {"profile": FLAT_PROFILE}}
_RUN_SUMMARY = {
    "kind": "run", "config": _SUMMARY_CONFIG, "comparison": [], "per_period": [], "qlearn": None,
}
_NETWORK_TOTALS = {
    "n_devices": 1, "detection_rate": 1.0, "episodes": [], "devices": [], "clusters": [],
}


def _network_summary(**report):
    return {"kind": "run-network", "config": _SUMMARY_CONFIG, "report": _NETWORK_TOTALS | report}


def _device(did):
    return {"id": did, "activations": 1, "positives": 0, "negatives": 1, "events_detected": 0,
            "charge_mah": 0.5, "battery_level": 1.5, "removed_at": None}


def _episode(devices):
    return {"index": 0, "events_total": 0, "events_detected": 0, "detection_rate": 1.0,
            "mean_duplicates": 0.0, "positives": 0, "negatives": 1, "global_reward": 0.0,
            "battery_sd": 0.0, "devices": devices}


def _episode_device(did):
    return {"id": did, "activations": 1, "battery_level": 1.5}


def test_report_refuses_a_json_boolean_in_a_numeric_cell(tmp_path, capsys):
    # It exited 0 and wrote the booleans as 1 and 0.
    row = {"name": "hand", "detection_rate": True, "activations": False, "positives": 1,
           "negatives": 0, "avg_current_ma": 0.5, "lifetime_years": 2.0}
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(_RUN_SUMMARY | {"comparison": [row]}))
    out = tmp_path / "re"
    assert main(["report", "--summary", str(summary), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: .*summary.json.comparison\[0\].detection_rate: expected a number, "
                     r"got True$", err, re.M)
    assert not out.exists()


def test_report_rejects_bad_summaries(tmp_path, capsys):
    assert main(["report", "--summary", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", "--summary", str(bad)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"kind": "mystery"}))
    assert main(["report", "--summary", str(unknown)]) == 1
    assert main(["report"]) == 1


def _without(payload: dict, key: str) -> dict:
    return {k: v for k, v in payload.items() if k != key}


@pytest.mark.parametrize(
    "payload, node",
    [
        (_without(_RUN_SUMMARY, "comparison"), "summary.json: missing required field 'comparison'"),
        (_without(_RUN_SUMMARY, "per_period"), "summary.json: missing required field 'per_period'"),
        (
            _network_summary() | {"report": _without(_NETWORK_TOTALS, "devices")},
            "summary.json.report: missing required field 'devices'",
        ),
    ],
    ids=["comparison", "per_period", "devices"],
)
def test_report_names_a_missing_table(tmp_path, capsys, payload, node):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(payload))
    out = tmp_path / "re"
    assert main(["report", "--summary", str(summary), "--out", str(out)]) == 1
    assert f"{node}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, node",
    [
        (_RUN_SUMMARY | {"comparison": 5}, r"\.comparison: expected a list"),
        (_RUN_SUMMARY | {"per_period": [3]}, r"\.per_period\[0\]: expected an object"),
        (_network_summary() | {"report": 5}, r"\.report: expected an object"),
        (_network_summary(episodes={}), r"\.report\.episodes: expected a list"),
        (
            _network_summary(episodes=[_episode(1)]),
            r"\.report\.episodes\[0\]\.devices: expected a list",
        ),
        (_network_summary(devices="x"), r"\.report\.devices: expected a list"),
        (
            _network_summary(devices=[_device("../escaped")]),
            r"\.report\.devices\[0\]\.id: expected an integer",
        ),
        (
            _network_summary(devices=[_device(True)]),
            r"\.report\.devices\[0\]\.id: expected an integer",
        ),
        (
            _network_summary(episodes=[_episode([_episode_device(-1)])]),
            r"\.report\.episodes\[0\]\.devices\[0\]: id must be a non-negative integer",
        ),
        # Found by tests/test_cli_fuzz.py: the id named a file name too long
        # for the file system, and the report exited 2.
        (
            _network_summary(devices=[_device(10**400)]),
            r"\.report\.devices\[0\]: id must be .* got an integer past int64's range",
        ),
        # It exited 1 with "missing key 5": the device CSVs are keyed by
        # report.devices.
        (
            _network_summary(episodes=[_episode([_episode_device(5)])], devices=[_device(0)]),
            r"\.report: episodes\[0\]\.devices\[0\]: id 5 is not one of devices",
        ),
    ],
    ids=[
        "comparison",
        "per_period",
        "report",
        "episodes",
        "episode_devices",
        "devices",
        "device_id_path",
        "device_id_bool",
        "episode_device_id_negative",
        "device_id_past_int64",
        "episode_device_not_listed",
    ],
)
def test_report_names_a_wrongly_typed_table(tmp_path, capsys, payload, node):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(payload))
    out = tmp_path / "re"
    assert main(["report", "--summary", str(summary), "--out", str(out)]) == 1
    assert re.search(f"^error: .*summary.json{node}", capsys.readouterr().err)
    assert not out.exists()


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    """The summary.json of a run and the network.json of a run-network."""
    root = tmp_path_factory.mktemp("summaries")
    made = {}
    runs = (
        ("run", "summary.json", run_config()),
        ("run-network", "network.json", network_config(episodes=2, n_devices=2)),
    )
    for command, name, cfg in runs:
        cfg_path = write_config(root / f"{command}.json", cfg)
        assert main([command, "--config", str(cfg_path), "--out", str(root / command)]) == 0
        made[name] = json.loads((root / command / name).read_text())
    return made


# Each exited 0 and wrote the bad value into the CSV, or wrote an episode
# twice into one device's CSV.
_MALFORMED = {
    "comparison_activations_str": (
        "summary.json",
        lambda s: s["comparison"][0].update(activations="abc"),
        r"summary.json.comparison\[0\].activations: expected an integer, got 'abc'",
    ),
    "per_period_hour_list": (
        "summary.json",
        lambda s: s["per_period"][0].update(hour=[1, 2]),
        r"summary.json.per_period\[0\].hour: expected an integer, got \[1, 2\]",
    ),
    "unknown_key": (
        "summary.json",
        lambda s: s.update(bogus=1),
        r"summary.json: unknown field 'bogus'",
    ),
    "episode_detection_rate_str": (
        "network.json",
        lambda n: n["report"]["episodes"][0].update(detection_rate="oops"),
        r"network.json.report.episodes\[0\].detection_rate: expected a number, got 'oops'",
    ),
    "device_charge_list": (
        "network.json",
        lambda n: n["report"]["devices"][0].update(charge_mah=[1]),
        r"network.json.report.devices\[0\].charge_mah: expected a number, got \[1\]",
    ),
    "device_listed_twice": (
        "network.json",
        lambda n: n["report"]["devices"].append(n["report"]["devices"][0]),
        r"network.json.report: devices\[2\]: id 0 is listed twice",
    ),
    "episode_device_listed_twice": (
        "network.json",
        lambda n: (devices := n["report"]["episodes"][0]["devices"]).append(devices[0]),
        r"network.json.report.episodes\[0\]: devices\[2\]: id 0 is listed twice",
    ),
}


@pytest.mark.parametrize("name, mutate, error", _MALFORMED.values(), ids=_MALFORMED)
def test_report_refuses_a_malformed_summary(tmp_path, capsys, summaries, name, mutate, error):
    payload = copy.deepcopy(summaries[name])
    mutate(payload)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    out = tmp_path / "re"
    assert main(["report", "--summary", str(path), "--out", str(out)]) == 1
    assert re.search(f"^error: .*{error}$", capsys.readouterr().err, re.M)
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes and config round trip


def test_missing_config_flag_is_validation_error(tmp_path, capsys):
    assert main(["run"]) == 1
    assert "config" in capsys.readouterr().err


# Each exited 2 with "runtime error: [Errno 21] Is a directory", "[Errno 17] File
# exists" or "[Errno 20] Not a directory". Each case: the argv, then the path named.
_PATHS_IN_THE_WAY = {
    "config_dir": (["run", "--config", "{dir}"], "{dir}"),
    "trace_file_dir": (["run", "--config", "{trace_cfg}", "--out", "{out}"], "{dir}"),
    "summary_dir": (["report", "--summary", "{dir}"], "{dir}"),
    "out_is_a_file": (["gen-trace", "--config", "{cfg}", "--out", "{file}"], "{file}"),
    "out_under_a_file": (["gen-trace", "--config", "{cfg}", "--out", "{file}/sub"], "{file}"),
}


@pytest.mark.parametrize("argv, named", _PATHS_IN_THE_WAY.values(), ids=_PATHS_IN_THE_WAY)
def test_a_directory_or_file_in_the_way_is_named(tmp_path, capsys, argv, named):
    (tmp_path / "d.json").mkdir()
    (tmp_path / "file").write_text("")
    paths = {
        "dir": tmp_path / "d.json",
        "file": tmp_path / "file",
        "out": tmp_path / "out",
        "cfg": write_config(tmp_path / "cfg.json", {"seed": 1, "trace": {"profile": FLAT_PROFILE}}),
        "trace_cfg": write_config(tmp_path / "trace_cfg.json", _fixed_run_on("d.json")),
    }
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named.format(**paths) in err


_BIG_INT = b"1" + b"0" * 5000  # past Python's 4,300-digit int-string limit
_NOT_UTF8 = b'{"seed": "\xff"}'
_DEEP = b"[" * 100_000 + b"]" * 100_000  # past the recursion limit
_INPUT_CASES = {
    "config_big_int": ("cfg.json", _BIG_INT),
    "config_not_utf8": ("cfg.json", _NOT_UTF8),
    "config_deep": ("cfg.json", _DEEP),
    "layout_big_int": ("layout.json", _BIG_INT),
    "layout_not_utf8": ("layout.json", _NOT_UTF8),
    "layout_deep": ("layout.json", _DEEP),
    "trace_json_big_int": ("trace.json", _BIG_INT),
    "trace_json_not_utf8": ("trace.json", _NOT_UTF8),
    "trace_json_deep": ("trace.json", _DEEP),
    "trace_json_missing": ("trace.json", None),
    "trace_csv_not_utf8": ("trace.csv", b"id,start,duration,band,x,y\n\xff,1,1,,,\n"),
    "trace_csv_missing": ("trace.csv", None),
    "summary_big_int": ("summary.json", _BIG_INT),
    "summary_not_utf8": ("summary.json", _NOT_UTF8),
    "summary_deep": ("summary.json", _DEEP),
}


@pytest.mark.parametrize("name, content", _INPUT_CASES.values(), ids=_INPUT_CASES)
def test_malformed_or_missing_input_file_is_named(tmp_path, capsys, name, content):
    cfg = network_config(episodes=1, n_devices=1)
    if name.startswith("trace."):
        cfg["trace"] = {"file": name}
    elif name == "layout.json":
        cfg["network"]["layout_file"] = name
        del cfg["network"]["layout"]
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    if name == "summary.json":
        argv = ["report", "--summary", str(path)]
    else:
        argv = ["run-network", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_config_round_trip_is_identity(tmp_path):
    cfg_dict = network_config(episodes=4, n_devices=3, failures=[[2, 2]],
                              pretrain_days=2, drop_rate=0.25)
    cfg_dict["schedules"] = {
        "fixed": [3, 60],
        "qlearn": {"train_days": 4, "eval_days": 2, "init_scale": 0.5},
    }
    cfg_dict["detector"] = {"kind": "goertzel", "noise_sd": 0.1, "threshold": 5000.0}
    cfg_dict["power"] = {"battery_mah": 2000.0, "probe_detector": "tflite"}
    cfg_dict["actions"] = [3, 5, 60]
    cfg_dict["out"] = "somewhere"
    cfg = parse_config(cfg_dict)
    once = config_to_dict(cfg)
    again = config_to_dict(parse_config(once))
    assert once == again
    assert parse_config(once) == cfg
    # config_sha256 hashes this dict's JSON: pin defaults materialization,
    # number types and which None fields are left out.
    device = {"x": 5.0, "y": 5.0, "sensing_radius": 500.0, "comm_radius": 500.0}
    expected = {
        "seed": 5,
        "trace": {
            "profile": {
                "hourly_rate": [0.5] * 24,
                "duration_mean": 3.0,
                "duration_sd": 0.0,
                "days": 4,
                "origin_hour": 0,
                "area": [0.0, 10.0, 0.0, 10.0],
            }
        },
        "schedules": {
            "fixed": [3.0, 60.0],
            "qlearn": {"train_days": 4, "eval_days": 2, "init_scale": 0.5},
        },
        "hyperparameters": {
            "gamma": 0.9,
            "alpha": 0.1,
            "eps_max": 0.3,
            "eps_min": 0.1,
            "eps_decay": 0.99,
            "beta": 1e-05,
            "w1": 0.02,
        },
        "actions": [3.0, 5.0, 60.0],
        "detector": {
            "kind": "goertzel",
            "tp_rate": 1.0,
            "fp_rate": 0.0,
            "noise_sd": 0.1,
            "tone_amplitude": 1.0,
            "default_band": 4000.0,
            "event_bandwidth_hz": 4000.0,
            "threshold": 5000.0,
        },
        "power": {"battery_mah": 2000.0, "probe_detector": "tflite"},
        "out": "somewhere",
        "network": {
            "episodes": 4,
            "w2": 0.5,
            "w3": 0.01,
            "drop_rate": 0.25,
            "detection_bins": [0, 2, 5],
            "pretrain_days": 2,
            "train": True,
            "eps_reset_on_change": True,
            "failures": [[2, 2]],
            "layout": [{"id": i, **device} for i in range(3)],
        },
    }
    assert json.dumps(once, sort_keys=True) == json.dumps(expected, sort_keys=True)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _ordered_pair(lo, hi):
    return st.tuples(_floats(lo, hi), _floats(lo, hi)).map(lambda p: tuple(sorted(p)))


profiles = st.builds(
    DiurnalProfile,
    hourly_rate=st.lists(_floats(0.0, 100.0), min_size=24, max_size=24).map(tuple),
    duration_mean=_floats(0.1, 100.0),
    duration_sd=_floats(0.0, 50.0),
    days=st.integers(1, 400),
    origin_hour=st.integers(0, 23),
    band_range=st.none() | _ordered_pair(1.0, 8000.0),
    area=st.none()
    | st.tuples(_ordered_pair(-1e4, 1e4), _ordered_pair(-1e4, 1e4)).map(lambda a: a[0] + a[1]),
)
detectors = st.builds(
    DetectorModel,
    kind=st.sampled_from(["abstract", "goertzel"]),
    tp_rate=_floats(0.0, 1.0),
    fp_rate=_floats(0.0, 1.0),
    noise_sd=_floats(0.0, 100.0),
    tone_amplitude=_floats(0.0, 100.0),
    default_band=_floats(1.0, 8000.0),
    event_bandwidth_hz=_floats(1.0, 8000.0),
    threshold=st.none() | _floats(1.0, 1e9),
)
devices = st.builds(
    DeviceNode,
    id=st.integers(0, 1000),
    x=_floats(-1e4, 1e4),
    y=_floats(-1e4, 1e4),
    sensing_radius=_floats(0.1, 1e4),
    comm_radius=_floats(0.1, 1e4),
)


def _networks(train, fixed_interval):
    # Layout ids are unique; failures name layout devices, each at most once,
    # at an episode the run reaches.
    def network(layout, episodes):
        failed = st.tuples(st.sampled_from([n.id for n in layout]), st.integers(0, episodes - 1))
        return st.builds(
            NetworkConfig,
            layout=st.just(layout),
            episodes=st.just(episodes),
            w2=_floats(0.0, 10.0),
            w3=_floats(0.0, 10.0),
            drop_rate=_floats(0.0, 1.0),
            detection_bins=st.lists(st.integers(0, 50), unique=True).map(
                lambda b: tuple(sorted(b))
            ),
            pretrain_days=st.integers(0, 30),
            train=st.just(train),
            fixed_interval=fixed_interval,
            eps_reset_on_change=st.booleans(),
            failures=st.lists(failed, max_size=3, unique_by=lambda f: f[0]).map(tuple),
        )

    layouts = st.lists(devices, min_size=1, max_size=5, unique_by=lambda n: n.id)
    return st.tuples(layouts.map(tuple), st.integers(1, 100)).flatmap(lambda a: network(*a))


intervals = _floats(0.5, 3600.0)
configs = st.builds(
    ExperimentConfig,
    seed=st.integers(0, 2**32 - 1),
    trace=st.builds(TraceSource, profile=profiles) | st.builds(TraceSource, file=st.just("t.csv")),
    detector=detectors,
    network=st.none() | _networks(True, st.none() | intervals) | _networks(False, intervals),
)


@settings(max_examples=60, deadline=None)
@given(cfg=configs)
def test_parse_inverts_config_to_dict(cfg):
    data = config_to_dict(cfg)
    assert parse_config(data) == cfg
    assert "bank" not in data["detector"]
    if cfg.network is not None:
        assert not {"hp", "actions"} & set(data["network"])


def test_parse_config_names_offending_fields(tmp_path):
    from dutysim.errors import ConfigError

    base = run_config()

    def profile_case(**bad):
        return {**base, "trace": {"profile": dict(FLAT_PROFILE, **bad)}}

    device = {"id": 0, "x": 0.0, "y": 0.0, "sensing_radius": 1.0, "comm_radius": 1.0}

    cases = [
        ({**base, "mystery": 1}, "mystery"),
        ({**base, "trace": {}}, "trace"),
        ({**base, "trace": {"file": "x", "profile": FLAT_PROFILE}}, "trace"),
        ({**base, "detector": {"kind": "psychic"}}, "kind"),
        ({**base, "actions": [3]}, "actions"),
        ({**base, "actions": [5, 3]}, "actions"),
        ({**base, "power": {"i_warp": 1.0}}, "i_warp"),
        ({**base, "hyperparameters": {"gamma": 2.0}}, "hyperparameters"),
        ({**base, "seed": "five"}, "seed"),
        ({**base, "seed": True}, "seed"),
        ({**base, "detector": 5}, "detector"),
        ({**base, "power": [1.0]}, "power"),
        ({**base, "power": {"battery_mah": -1}}, "battery_mah"),
        ({**base, "network": []}, "network"),
        ({**base, "network": {"layout": [5]}}, "network.layout[0]"),
        ({**base, "network": {"layout": []}}, "layout"),
        ({**base, "trace": {"file": 5}}, "trace.file"),
        ({**base, "trace": {"file": None}}, "trace"),
        ({**base, "network": {"layout_file": 5}}, "network.layout_file"),
        ({**base, "schedules": {"qlearn": {"train_days": 1.5}}}, "train_days"),
        ({**base, "schedules": {"qlearn": {"train_days": 0}}}, "schedules.qlearn: train_days"),
        ({**base, "schedules": {"qlearn": {"train_days": -1}}}, "schedules.qlearn: train_days"),
        ({**base, "schedules": {"qlearn": {"eval_days": 0}}}, "schedules.qlearn: eval_days"),
        # Past float32's largest value, the seeded table would hold inf.
        (
            {**base, "schedules": {"qlearn": {"init_scale": 3.5e38}}},
            "schedules.qlearn: init_scale",
        ),
        (profile_case(band_range=[5000, 100]), "trace.profile: band_range"),
        (profile_case(band_range=[-100, 100]), "trace.profile: band_range"),
        (profile_case(area=[10, 0, 0, 10]), "trace.profile: area"),
        (profile_case(area=[0, 10, 0]), "trace.profile.area: expected 4 items, got 3"),
        (profile_case(area=5), "trace.profile.area: expected a list"),
        (profile_case(hourly_rate=[-1.0] * 24), "trace.profile: hourly_rate"),
        # Above numpy's Poisson limit.
        (profile_case(hourly_rate=[0.5] * 23 + [2**70]), "trace.profile: hourly_rate[23]"),
        (profile_case(days=0), "trace.profile: days"),
        (profile_case(origin_hour=25), "trace.profile: origin_hour"),
        ({**base, "detector": {"noise_sd": -1}}, "detector: noise_sd"),
        # An untagged event sounds at default_band; at or below 0 Hz the
        # gate missed every one of them.
        ({**base, "detector": {"default_band": -4000}}, "detector: default_band must be positive"),
        ({**base, "detector": {"default_band": 0}}, "detector: default_band must be positive"),
        (
            {**base, "network": {"layout_file": "x.json", "pretrain_days": -1}},
            "network: pretrain_days",
        ),
        # Python's json reads NaN, Infinity and 1e400 (as inf).
        ({**base, "power": {"i_sleep": math.nan}}, "power.i_sleep"),
        ({**base, "power": {"battery_mah": math.inf}}, "power.battery_mah"),
        ({**base, "detector": {"noise_sd": math.nan}}, "detector.noise_sd"),
        (profile_case(hourly_rate=[math.nan] + [0.5] * 23), "trace.profile.hourly_rate[0]"),
        (profile_case(hourly_rate=[math.inf] + [0.5] * 23), "trace.profile.hourly_rate[0]"),
        (profile_case(duration_sd=math.nan), "trace.profile.duration_sd"),
        ({**base, "hyperparameters": {"w1": math.nan}}, "hyperparameters.w1"),
        ({**base, "hyperparameters": {"w1": 10**400}}, "hyperparameters.w1"),
        # Reward weights outside [0, qsched.W_MAX].
        ({**base, "hyperparameters": {"w1": 1e40}}, "hyperparameters: w1"),
        ({**base, "hyperparameters": {"w1": -5}}, "hyperparameters: w1"),
        ({**base, "network": {"layout_file": "x.json", "w2": 1e40}}, "network: w2"),
        ({**base, "network": {"layout_file": "x.json", "w3": 1e308}}, "network: w3"),
        ({**base, "actions": [3, math.nan, 60]}, "actions[1]"),
        ({**base, "schedules": {"fixed": [math.inf]}}, "schedules.fixed[0]"),
        ({**base, "network": {"layout": [dict(device, x=-math.inf)]}}, "layout[0].x"),
        (
            {**base, "network": {"layout": [dict(device, id=-1)]}},
            "network.layout[0]: device id must be >= 0",
        ),
        # Found by tests/test_cli_fuzz.py; each exited 2. An id past int64
        # named a device CSV file too long for the file system, and a span
        # past float64 failed converting its seconds.
        (
            {**base, "network": {"layout": [dict(device, id=10**400)]}},
            "network.layout[0]: device id must be <= 9223372036854775807 (int64)",
        ),
        ({**base, "schedules": {"qlearn": {"train_days": 10**400}}}, "train_days must be <= 10000"),
        ({**base, "schedules": {"qlearn": {"eval_days": 10001}}}, "eval_days must be <= 10000"),
        (
            {**base, "network": {"layout_file": "x.json", "episodes": 10**400}},
            "network: episodes must be <= 10000",
        ),
        # An empty layout_file read the config's directory.
        ({**base, "network": {"layout_file": ""}}, "network: layout_file must name a file"),
        (
            {**base, "network": {"layout": [dict(device, sensing_radius=math.nan)]}},
            "layout[0].sensing_radius",
        ),
        # The random streams key on the seed mod 2**64.
        ({**base, "seed": 2**64}, "seed"),
        ({**base, "seed": -1}, "seed"),
    ]
    for data, needle in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert needle in str(err.value)


TOO_LONG = 10**5000  # str, repr and json.loads refuse an int past 4,300 digits
ONE_DEVICE = (DeviceNode(0, 0.0, 0.0, 1.0, 1.0),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QLearnSpec(train_days=TOO_LONG), "^train_days must be <= 10000, "),
        (lambda: QLearnSpec(train_days=-TOO_LONG), "^train_days must be >= 1, "),
        (
            lambda: DeviceNode(TOO_LONG, 0.0, 0.0, 1.0, 1.0),
            r"^device id must be <= 9223372036854775807 \(int64\), ",
        ),
        (
            lambda: NetworkConfig(layout=ONE_DEVICE, episodes=TOO_LONG),
            "^episodes must be <= 10000, ",
        ),
    ],
    ids=["train_days", "train_days_negative", "device_id", "episodes"],
)
def test_a_config_int_too_long_to_print_is_named_not_shown(build, message):
    # Each raised a bare ValueError from formatting the value into its message.
    with pytest.raises(ValueError, match=message + "got an integer past int64's range$"):
        build()
