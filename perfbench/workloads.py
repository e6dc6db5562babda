"""The benchmark's workloads: generated configs, output facts, reference checks.

Each workload is one ``dutysim`` CLI invocation on a config this module
writes. The model inputs (trace profile, schedules, detector, simulation
seed) are fixed per workload, so the simulated results and the stored
reference are the same on every run. The benchmark's ``--seed`` only picks
the layout of the config file (key order and indentation), which must not
change a single output byte.

Facts are read back from the invocation's output files. Integer facts and
strings (including digests of the per-row integer columns) must equal the
reference exactly; floats may differ by a small relative tolerance, so a
last-bit change in summation order is not a failure but a model change is.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

# The README's dense-dawn / dense-dusk day, events per hour.
TWO_PEAK_RATES = [0.5] * 5 + [40] * 4 + [0.5] * 8 + [40] * 3 + [0.5] * 4

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


def two_peak_profile(days: int, **extra) -> dict:
    profile = {
        "hourly_rate": TWO_PEAK_RATES,
        "duration_mean": 3.0,
        "duration_sd": 0.0,
        "days": days,
    }
    profile.update(extra)
    return profile


# name -> (CLI subcommand, config). Sizes are recorded in BENCHMARK.json.
WORKLOADS = {
    # The README's run config exactly as written.
    "run_abstract": (
        "run",
        {
            "seed": 7,
            "trace": {"profile": two_peak_profile(14)},
            "schedules": {
                "fixed": [3, 5, 60, 300, 1800],
                "qlearn": {"train_days": 10, "eval_days": 4},
            },
            "hyperparameters": {"w1": 0.02},
        },
    ),
    # Every probe synthesizes a noisy window and runs the Goertzel gate; the
    # band range also reaches events outside the filter bank.
    "run_goertzel": (
        "run",
        {
            "seed": 7,
            "trace": {"profile": two_peak_profile(1, band_range=[1500, 8500])},
            "detector": {"kind": "goertzel", "noise_sd": 1.0},
            "schedules": {"fixed": [60], "qlearn": None},
        },
    ),
    # Acceptance criterion 5 at full scale: three co-located devices, lossy
    # pings, and device 0 failing at episode 30.
    "network": (
        "run-network",
        {
            "seed": 707,
            "trace": {"profile": two_peak_profile(40, area=[0, 10, 0, 10])},
            "hyperparameters": {"w1": 0.02},
            "network": {
                "layout": [
                    {"id": i, "x": 5, "y": 5, "sensing_radius": 500, "comm_radius": 500}
                    for i in range(3)
                ],
                "episodes": 40,
                "pretrain_days": 10,
                "failures": [[0, 30]],
                "drop_rate": 0.1,
            },
        },
    ),
}

# Schedule whose simulated results are the workload's headline.
HEADLINE_SCHEDULE = {"run_abstract": "qlearn", "run_goertzel": "fixed_60"}


def _shuffled(value, rnd: random.Random):
    if isinstance(value, dict):
        keys = list(value)
        rnd.shuffle(keys)
        return {k: _shuffled(value[k], rnd) for k in keys}
    if isinstance(value, list):
        return [_shuffled(v, rnd) for v in value]
    return value


def write_config(config: dict, seed: int, path: Path) -> None:
    """Write ``config`` with a key order and indentation drawn from ``seed``."""
    rnd = random.Random(seed)
    layout = _shuffled(config, rnd)
    indent = rnd.choice([None, 1, 2, 4])
    path.write_text(json.dumps(layout, indent=indent) + "\n")


# -- facts ------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:32]


PERIOD_INT_COLUMNS = ["activations", "positives", "negatives", "events_total", "events_detected"]
EPISODE_INT_FIELDS = ["index", "events_total", "events_detected", "positives", "negatives"]


def _run_facts(out: Path) -> dict:
    facts: dict = {}
    for row in _read_csv(out / "comparison.csv"):
        key = f"comparison.{row['name']}"
        for col in ("activations", "positives", "negatives"):
            facts[f"{key}.{col}"] = int(row[col])
        for col in ("detection_rate", "avg_current_ma", "lifetime_years"):
            facts[f"{key}.{col}"] = float(row[col])

    groups: dict[str, list[dict]] = {}
    for row in _read_csv(out / "per_period.csv"):
        groups.setdefault(f"{row['schedule']}.{row['phase']}", []).append(row)
    for name, rows in groups.items():
        key = f"per_period.{name}"
        facts[f"{key}.rows"] = len(rows)
        for col in PERIOD_INT_COLUMNS:
            facts[f"{key}.{col}"] = sum(int(r[col]) for r in rows)
        facts[f"{key}.int_digest"] = _digest(
            ",".join([r["index"], r["hour"], r["interval"]] + [r[c] for c in PERIOD_INT_COLUMNS])
            for r in rows
        )
        facts[f"{key}.reward_sum"] = math.fsum(float(r["reward"]) for r in rows)

    summary = json.loads((out / "summary.json").read_text())
    q = summary["qlearn"]
    if q is not None:
        facts["qlearn.episodes_to_convergence"] = q["episodes_to_convergence"]
        facts["qlearn.eps_final"] = q["eps_final"]
        facts["qlearn.greedy_policy"] = " ".join(str(a) for a in q["greedy_policy"])
        facts["qlearn.policy_history_digest"] = _digest(
            " ".join(str(a) for a in p) for p in q["policy_history"]
        )
        for phase in ("train", "eval"):
            for k, v in q[phase].items():
                facts[f"qlearn.{phase}.{k}"] = v
        facts["qlearn.qtable_bytes"] = (out / "qtable.bin").stat().st_size
    return facts


def _network_facts(out: Path) -> dict:
    payload = json.loads((out / "network.json").read_text())
    report = payload["report"]
    facts: dict = {
        "n_devices": report["n_devices"],
        "detection_rate": report["detection_rate"],
        "clusters": json.dumps(report["clusters"]),
    }
    for d in report["devices"]:
        for k, v in d.items():
            if k != "id":
                facts[f"device.{d['id']}.{k}"] = v
    episodes = report["episodes"]
    facts["episodes.int_digest"] = _digest(
        ",".join(
            str(v)
            for v in [e[k] for k in EPISODE_INT_FIELDS]
            + [f"{d['id']}:{d['activations']}" for d in e["devices"]]
        )
        for e in episodes
    )
    for k in ("detection_rate", "mean_duplicates", "global_reward", "battery_sd"):
        facts[f"episodes.{k}"] = [e[k] for e in episodes]
    facts["episodes.battery_level"] = [d["battery_level"] for e in episodes for d in e["devices"]]

    series = _read_csv(out / "network_series.csv")
    facts["series.rows"] = len(series)
    facts["series.events_detected"] = sum(int(r["events_detected"]) for r in series)
    for path in sorted(out.glob("device_*.csv")):
        rows = _read_csv(path)
        key = f"csv.{path.stem}"
        facts[f"{key}.rows"] = len(rows)
        facts[f"{key}.activations"] = sum(int(r["activations"]) for r in rows)
    facts["qtables"] = sorted(p.name for p in out.glob("qtable_*.bin"))
    return facts


def read_facts(workload: str, out: Path) -> dict:
    """Every checked fact of one invocation's output tree."""
    command, _ = WORKLOADS[workload]
    return _network_facts(out) if command == "run-network" else _run_facts(out)


def _same(got, want) -> bool:
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    if isinstance(want, int):
        return type(got) is int and got == want
    if isinstance(want, float):
        return isinstance(got, (int, float)) and math.isclose(
            got, want, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    return got == want


def compare_facts(got: dict, want: dict) -> list[str]:
    """Names of the facts that differ from the reference, with both values."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in want:
            problems.append(f"{key}: not in reference")
        elif key not in got:
            problems.append(f"{key}: missing from output")
        elif not _same(got[key], want[key]):
            problems.append(f"{key}: got {got[key]!r}, reference {want[key]!r}")
    return problems


def consistency_problems(workload: str, facts: dict) -> list[str]:
    """Invariants that must hold between the output files of one invocation."""
    problems = []
    if WORKLOADS[workload][0] == "run-network":
        for key in [k for k in facts if k.startswith("device.") and k.endswith(".activations")]:
            did = key.split(".")[1]
            if facts.get(f"csv.device_{did}.activations") != facts[key]:
                problems.append(f"device_{did}.csv activations disagree with network.json")
        if facts["series.rows"] != len(facts["episodes.detection_rate"]):
            problems.append("network_series.csv rows disagree with network.json episodes")
    else:
        for key in [k for k in facts if k.startswith("comparison.") and k.endswith(".activations")]:
            name = key.split(".")[1]
            if facts.get(f"per_period.{name}.eval.activations") != facts[key]:
                problems.append(f"{name}: comparison.csv activations disagree with per_period.csv")
        for key in [k for k in facts if k.startswith("per_period.") and k.endswith(".events_total")]:
            if facts[key.replace("events_total", "events_detected")] > facts[key]:
                problems.append(f"{key}: more events detected than there were")
    return problems


# -- simulated metrics --------------------------------------------------------


def device_days(command: str, out: Path) -> float:
    """Simulated device-days of one invocation, read from its outputs.

    Every simulated timeline's span counts: training, evaluation and fixed
    schedules for ``run`` (one per-period row is one simulated hour), and
    pretraining plus each device's active episodes for ``run-network``.
    """
    if command == "run-network":
        payload = json.loads((out / "network.json").read_text())
        pretrain = payload["config"]["network"]["pretrain_days"]
        return pretrain + sum(len(_read_csv(p)) for p in out.glob("device_*.csv"))
    return len(_read_csv(out / "per_period.csv")) / 24.0


def simulated_metrics(workload: str, out: Path) -> dict:
    """Headline simulated results of one invocation, read from its outputs."""
    command, _ = WORKLOADS[workload]
    days = device_days(command, out)
    if command == "run-network":
        report = json.loads((out / "network.json").read_text())["report"]
        active_days = {
            d["id"]: len(report["episodes"]) if d["removed_at"] is None else d["removed_at"]
            for d in report["devices"]
        }
        currents = [
            d["charge_mah"] / (24.0 * active_days[d["id"]]) for d in report["devices"]
        ]
        dups = [e["mean_duplicates"] for e in report["episodes"]]
        return {
            "detection_rate": report["detection_rate"],
            "avg_current_ma": math.fsum(currents) / len(currents),
            "duplicates_per_event": math.fsum(dups) / len(dups),
            "device_days": days,
        }
    rows = {r["name"]: r for r in _read_csv(out / "comparison.csv")}
    head = rows[HEADLINE_SCHEDULE[workload]]
    return {
        "detection_rate": float(head["detection_rate"]),
        "avg_current_ma": float(head["avg_current_ma"]),
        # One device: every detected event is recorded exactly once.
        "duplicates_per_event": 1.0,
        "device_days": days,
    }
