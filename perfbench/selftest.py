"""Fast self-test of the benchmark harness.

Usage: python3 perfbench/selftest.py

Runs small versions of the three workloads once untraced and once traced,
with configs written from two different seeds, and checks that:
  - both invocations write the same manifest.json (the config layout and the
    tracing change no output);
  - the traced sim.activations equals the summed activations columns of the
    CLI outputs;
  - on the Goertzel workload, every probe call made exactly one gate call;
  - the output files agree with each other and give the expected
    device-days;
  - the reference comparison fails on a changed count or a float changed
    beyond the tolerance, and passes on a last-bit float change.
Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys

from run import BENCH, CLI_CODE, WORK, child_env, spawn
from workloads import (
    two_peak_profile,
    compare_facts,
    consistency_problems,
    device_days,
    read_facts,
    write_config,
)

MINI = {
    "run_abstract": (
        "run",
        {
            "seed": 7,
            "trace": {"profile": two_peak_profile(2)},
            "schedules": {"fixed": [60, 300], "qlearn": {"train_days": 1, "eval_days": 1}},
            "hyperparameters": {"w1": 0.02},
        },
        4.0,  # device-days: 1 training + 1 eval + 2 fixed schedules x 1 day
    ),
    "run_goertzel": (
        "run",
        {
            "seed": 7,
            "trace": {"profile": two_peak_profile(1, band_range=[1500, 8500])},
            "detector": {"kind": "goertzel", "noise_sd": 1.0},
            "schedules": {"fixed": [1800], "qlearn": None},
        },
        1.0,
    ),
    "network": (
        "run-network",
        {
            "seed": 707,
            "trace": {"profile": two_peak_profile(3, area=[0, 10, 0, 10])},
            "hyperparameters": {"w1": 0.02},
            "network": {
                "layout": [
                    {"id": i, "x": 5, "y": 5, "sensing_radius": 500, "comm_radius": 500}
                    for i in range(3)
                ],
                "episodes": 3,
                "pretrain_days": 1,
                "failures": [[0, 2]],
                "drop_rate": 0.1,
            },
        },
        9.0,  # 1 pretraining day + 3 + 3 + 2 active device-days
    ),
}

failures: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")
    if not ok:
        failures.append(label)


def _csv_sum(paths, column: str) -> int:
    total = 0
    for path in paths:
        with open(path, newline="") as fh:
            total += sum(int(row[column]) for row in csv.DictReader(fh))
    return total


def run_mini(name: str, command: str, config: dict, expected_days: float) -> None:
    work = WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    outs = {}
    for seed, traced in ((1, False), (2, True)):
        cfg, out = work / f"config{seed}.json", work / f"out{seed}"
        write_config(config, seed, cfg)
        cli = [command, "--config", str(cfg), "--out", str(out)]
        prefix = (
            [sys.executable, str(BENCH / "traced.py"), str(work / "traced.json"), str(out), "--"]
            if traced
            else [sys.executable, "-c", CLI_CODE]
        )
        code, _, _, _ = spawn(prefix + cli, env, work / f"out{seed}.log")
        check(f"{name}: {'traced' if traced else 'untraced'} invocation exits 0", code == 0,
              "" if code == 0 else (work / f"out{seed}.log").read_text()[-500:])
        if code != 0:
            return
        outs[traced] = out
    manifests = {(out / "manifest.json").read_bytes() for out in outs.values()}
    check(f"{name}: traced and untraced manifests equal", len(manifests) == 1)

    layers = json.loads((work / "traced.json").read_text())
    metrics, counts = layers["metrics"], layers["counts"]
    out = outs[True]
    if command == "run":
        from_outputs = _csv_sum([out / "per_period.csv"], "activations")
        traced_count = metrics["sim.activations"]
    else:
        from_outputs = _csv_sum(sorted(out.glob("device_*.csv")), "activations")
        traced_count = counts["sim.activations.run_network"]
        check(f"{name}: sim.activations is pretraining plus the network",
              metrics["sim.activations"]
              == counts["sim.activations.run_network"] + counts["sim.activations.train_qlearn"])
        sent, ratio = metrics["collab.pings_sent"], metrics["collab.delivery_ratio"]
        check(f"{name}: pings were sent and delivered", sent > 0 and 0 < ratio <= 1,
              f"{sent} pings, delivery ratio {ratio:.3f}")
    check(f"{name}: traced sim.activations equals summed activations columns",
          traced_count == from_outputs, f"{traced_count} vs {from_outputs}")
    if name == "run_goertzel":
        check(f"{name}: detect.gate_calls equals sim.probe_calls",
              metrics["detect.gate_calls"] == metrics["sim.probe_calls"] > 0,
              f"{metrics['detect.gate_calls']} vs {metrics['sim.probe_calls']}")
    else:
        check(f"{name}: no gate calls with the abstract detector",
              metrics["detect.gate_calls"] == 0)
    problems = consistency_problems(name, read_facts(name, out))
    check(f"{name}: output files agree", not problems, "; ".join(problems))
    days = device_days(command, out)
    check(f"{name}: device-days", days == expected_days, f"{days} vs {expected_days}")


def check_comparison() -> None:
    want = {"a": 10, "b": 0.25, "c": [1.0, 2.0], "d": "x1"}
    check("reference: identical facts pass", not compare_facts(dict(want), want))
    check("reference: a last-bit float change passes",
          not compare_facts(dict(want, b=0.25 * (1 + 1e-15), c=[1.0, 2.0 + 4e-16]), want))
    check("reference: a changed count fails", bool(compare_facts(dict(want, a=11), want)))
    check("reference: a float count fails", bool(compare_facts(dict(want, a=10.0), want)))
    check("reference: a float change beyond tolerance fails",
          bool(compare_facts(dict(want, c=[1.0, 2.000001]), want)))
    check("reference: a missing fact fails", bool(compare_facts({"a": 10}, want)))


def main() -> int:
    check_comparison()
    for name, (command, config, days) in MINI.items():
        run_mini(name, command, config, days)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
