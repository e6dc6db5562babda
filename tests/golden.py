"""The golden output trees: the CLI outputs on which byte-identity is judged.

A change that keeps the simulated results must leave every file of these
trees byte-identical. ``test_golden.py`` builds them once and compares each
output file's sha256 with the checked-in table ``golden_trees.json``. A
change that moves outputs on purpose re-makes the table in the same change,
and lists every entry that moved::

    PYTHONPATH=src python3 tests/golden.py

The trees are the three workloads of ``perfbench/workloads.py``, read here
and never edited. Each workload's summary is also re-rendered by
``dutysim report``, and its config's trace written by ``dutysim gen-trace``,
so the report output and the trace files are pinned too. Each workload then
runs again on that trace CSV and JSON, so the trace-file read path is pinned
too.

Eight small configs of its own (``EXTRA``) cover paths no workload runs:
network devices that sense part of the area (the engine's gathered rows,
whose detections it maps back to trace rows), with the abstract detector
and with the Goertzel gate; abstract detectors with 0 < fp_rate < 1 at a
low and a high rate (each quiet run's one countdown draw, and the false
alarm that cuts it); a scheduler inference longer than a period, which
pushes every learned period's wakes past its end; a tp_rate below 1 (the
abstract draw on a heard event) with random event durations, the tflite
probe current and a Q-table seeded from the trace (``init_scale``); a
Goertzel gate whose bandwidth is narrower than the bank's 500 Hz spacing,
so that events between its tones are synthesized out of bank, at a
threshold low enough that such tones change which probes fire; and a
network of fixed-interval devices (``train`` false) read from a layout
file (``INPUTS``, written beside the configs), one of which fails.

Every tree is built in process through ``dutysim.cli.main``, so the same
builder serves any checkout of the package that is first on the path.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from dutysim.cli import main

REPO = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("golden_trees.json")
REMAKE = "PYTHONPATH=src python3 tests/golden.py"

sys.path.insert(0, str(REPO / "perfbench"))
from workloads import WORKLOADS, two_peak_profile, write_config  # noqa: E402

EXTRA = {
    "partial_network": ("run-network", {
        "seed": 11,
        "trace": {"profile": two_peak_profile(4, area=[0, 10, 0, 10])},
        "network": {
            "layout": [{"id": i, "x": x, "y": 5, "sensing_radius": 3, "comm_radius": 10}
                       for i, x in enumerate((2, 5, 8))],
            "episodes": 4, "failures": [[1, 2]], "drop_rate": 0.2,
        },
    }),
    "goertzel_partial_network": ("run-network", {
        "seed": 13,
        "trace": {"profile": two_peak_profile(2, band_range=[1500, 8500], area=[0, 10, 0, 10])},
        "detector": {"kind": "goertzel", "noise_sd": 1.0},
        "actions": [30, 60],
        "network": {
            "layout": [{"id": i, "x": x, "y": 5, "sensing_radius": 3, "comm_radius": 10}
                       for i, x in enumerate((2, 5, 8))],
            "episodes": 2, "drop_rate": 0.2,
        },
    }),
    "run_fp": ("run", {
        "seed": 3,
        "trace": {"profile": two_peak_profile(3)},
        "detector": {"fp_rate": 0.05},
        "schedules": {"fixed": [3, 60], "qlearn": {"train_days": 2, "eval_days": 1}},
    }),
    "run_fp_high": ("run", {
        "seed": 3,
        "trace": {"profile": two_peak_profile(3)},
        "detector": {"fp_rate": 0.3},
        "schedules": {"fixed": [3, 60], "qlearn": {"train_days": 2, "eval_days": 1}},
    }),
    "run_long_inference": ("run", {
        "seed": 3,
        "trace": {"profile": {"hourly_rate": [2] * 24, "duration_mean": 3.0,
                              "duration_sd": 0.0, "days": 3}},
        "power": {"d_ql": 4000},
        "schedules": {"fixed": [60], "qlearn": {"train_days": 2, "eval_days": 1}},
    }),
    "run_tflite_init": ("run", {
        "seed": 5,
        "trace": {"profile": two_peak_profile(3, duration_sd=1.5)},
        "detector": {"tp_rate": 0.8, "fp_rate": 0.05},
        "power": {"probe_detector": "tflite"},
        "schedules": {"fixed": [60],
                      "qlearn": {"train_days": 2, "eval_days": 1, "init_scale": 0.5}},
    }),
    "goertzel_narrow_band": ("run", {
        "seed": 9,
        "trace": {"profile": two_peak_profile(2, band_range=[1500, 8500])},
        "detector": {"kind": "goertzel", "noise_sd": 1.0, "event_bandwidth_hz": 200,
                     "threshold": 2000},
        "actions": [30, 60],
        "schedules": {"fixed": [60], "qlearn": {"train_days": 1, "eval_days": 1}},
    }),
    "fixed_network": ("run-network", {
        "seed": 17,
        "trace": {"profile": two_peak_profile(3, area=[0, 10, 0, 10])},
        "network": {
            "layout_file": "fixed_network.layout.json",
            "episodes": 3, "train": False, "fixed_interval": 30, "failures": [[1, 1]],
        },
    }),
}

# Input files some EXTRA configs name, written beside the configs.
INPUTS = {
    "fixed_network.layout.json": {
        "devices": [{"id": i, "x": x, "y": 5, "sensing_radius": 4, "comm_radius": 10}
                    for i, x in enumerate((3, 7))],
    },
}


def _cli(*argv) -> None:
    argv = [str(a) for a in argv]
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"dutysim {' '.join(argv)} exited {code}")


def _run(command: str, config: dict, out: Path, name: str) -> None:
    write_config(config, 0, out / f"{name}.config.json")
    _cli(command, "--config", out / f"{name}.config.json", "--out", out / name)


def build_trees(out: Path) -> dict[str, str]:
    """Build every golden tree under ``out``; return each output file's sha256.

    Keys are the files' paths relative to ``out``. The config files written
    beside the trees are inputs and are not hashed.
    """
    out.mkdir(parents=True, exist_ok=True)
    for name, (command, config) in WORKLOADS.items():
        _run(command, config, out, name)
        summary = "network.json" if command == "run-network" else "summary.json"
        _cli("report", "--summary", out / name / summary, "--out", out / f"{name}.report")
        _cli("gen-trace", "--config", out / f"{name}.config.json", "--out", out / f"{name}.trace")
        for fmt in ("csv", "json"):
            # Relative to the config, so every checkout hashes the same config.
            from_file = dict(config, trace={"file": f"{name}.trace/trace.{fmt}"})
            _run(command, from_file, out, f"{name}.{fmt}")
    for name, data in INPUTS.items():
        (out / name).write_text(json.dumps(data) + "\n")
    for name, (command, config) in EXTRA.items():
        _run(command, config, out, name)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.parent != out
    }


def read_table() -> dict[str, str]:
    return json.loads(TABLE.read_text())


def write_table() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = build_trees(Path(tmp))
    TABLE.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"wrote {len(hashes)} output file digests to {TABLE.name}")


if __name__ == "__main__":
    write_table()
