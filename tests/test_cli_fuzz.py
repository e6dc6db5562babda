"""The CLI's exit contract under mutated inputs.

Each example takes the small valid input files of one subcommand, changes one
node of one file (deletes it, or puts a value of another type, a huge
integer, an empty list or an empty object in its place) and runs ``main`` in
process. Whatever the change, the command exits 0, or exits 1 with an
``error:`` line; exit 2, an unexpected failure, and a traceback are bugs.

Configs span a day or two and the examples are derandomized and few, since
tier-1 wall time is one of the project's workloads.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim.cli import main

DELETE = "<delete>"
# A type swap, three integers past int64 or float64, then the empty containers.
REPLACEMENTS = ["x", True, None, 0.5, -1, 2**64, -(2**63) - 1, 10**400, [], {}]

PROFILE = {
    "hourly_rate": [2.0] * 24,
    "duration_mean": 3.0,
    "duration_sd": 0.5,
    "days": 2,
    "band_range": [1000, 6000],
    "area": [0, 10, 0, 10],
}
RUN = {
    "seed": 3,
    "trace": {"profile": PROFILE},
    "schedules": {"fixed": [60, 1800], "qlearn": {"train_days": 1, "eval_days": 1}},
    "hyperparameters": {"w1": 0.02},
    "detector": {"kind": "abstract", "tp_rate": 0.9, "fp_rate": 0.01},
    "power": {"battery_mah": 2000, "i_sleep": 0.1, "d_probe": 0.13},
}
LAYOUT = [
    {"id": 0, "x": 2, "y": 5, "sensing_radius": 500, "comm_radius": 500},
    {"id": 1, "x": 8, "y": 5, "sensing_radius": 500, "comm_radius": 500},
]
NETWORK = {
    "seed": 3,
    "trace": {"profile": dict(PROFILE, days=1)},
    "hyperparameters": {"w1": 0.02},
    "network": {
        "layout": LAYOUT,
        "episodes": 1,
        "drop_rate": 0.1,
        "detection_bins": [0, 2],
        "failures": [[1, 0]],
    },
}
TRACE_JSON = {
    "horizon": 172800,
    "origin_hour": 0,
    "events": [
        {"id": 0, "start": 100, "duration": 3, "band": 4000, "location": [1, 2]},
        {"id": 1, "start": 90000, "duration": 2.5},
    ],
}
# A CSV file as rows of cells; a mutated cell is written as its JSON text.
TRACE_CSV = [
    ["# horizon=172800"],
    ["# origin_hour=0"],
    ["id", "start", "duration", "band", "x", "y"],
    ["0", "100", "3", "4000", "1", "2"],
    ["1", "90000", "2.5", "", "", ""],
]


def _fixed_run(trace_file):
    return dict(RUN, trace={"file": trace_file})


# name -> (subcommand, input files by name). The first file is the one the
# subcommand is given; "summary.json" and "network.json" come from running
# RUN and NETWORK once.
TARGETS = {
    "gen_trace": ("gen-trace", {"config.json": {"seed": 3, "trace": {"profile": PROFILE}}}),
    "run": ("run", {"config.json": RUN}),
    "run_trace_csv": ("run", {"config.json": _fixed_run("trace.csv"), "trace.csv": TRACE_CSV}),
    "run_trace_json": ("run", {"config.json": _fixed_run("trace.json"), "trace.json": TRACE_JSON}),
    "run_network": ("run-network", {"config.json": NETWORK}),
    "run_network_layout_file": (
        "run-network",
        {
            "config.json": dict(NETWORK, network=dict(
                {k: v for k, v in NETWORK["network"].items() if k != "layout"},
                layout_file="layout.json",
            )),
            "layout.json": {"devices": LAYOUT},
        },
    ),
    "report_run": ("report", {"summary.json": None}),
    "report_network": ("report", {"network.json": None}),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _cell(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _write(path: Path, payload) -> None:
    if path.suffix == ".csv":
        rows = (",".join(map(_cell, r)) if isinstance(r, list) else _cell(r) for r in payload)
        path.write_text("\n".join(rows) + "\n")
    else:
        path.write_text(json.dumps(payload))


def _argv(command, given: Path, out: Path):
    if command == "report":
        return [command, "--summary", str(given), "--out", str(out)]
    return [command, "--config", str(given), "--out", str(out)]


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    """The summary.json of RUN and the network.json of NETWORK."""
    made = {}
    runs = (("run", "summary.json", RUN), ("run-network", "network.json", NETWORK))
    for command, name, cfg in runs:
        root = tmp_path_factory.mktemp(command)
        _write(root / "config.json", cfg)
        assert _run(_argv(command, root / "config.json", root / "out"))[0] == 0
        made[name] = json.loads((root / "out" / name).read_text())
    return made


def _paths(node, prefix=()):
    """Every node below the root, as key and index paths."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(payload, path, value):
    payload = copy.deepcopy(payload)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return payload


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_0_or_names_the_error(summaries, target, data):
    command, inputs = TARGETS[target]
    inputs = {name: summaries.get(name, payload) for name, payload in inputs.items()}
    name = data.draw(st.sampled_from(sorted(inputs)), label="file")
    path = data.draw(st.sampled_from(list(_paths(inputs[name]))), label="node")
    value = data.draw(st.sampled_from([DELETE, *REPLACEMENTS]), label="value")
    inputs[name] = _mutate(inputs[name], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file, payload in inputs.items():
            _write(root / file, payload)
        code, err = _run(_argv(command, root / next(iter(inputs)), root / "out"))
    assert code == 0 or (code == 1 and re.search("^error: ", err, re.M)), (code, err)
    assert "Traceback" not in err
