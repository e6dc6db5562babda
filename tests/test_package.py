"""What a fresh interpreter loads: the package root loads nothing else, and
only ``run-network`` loads the network code."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dutysim

LOADED = """
import json, sys
import dutysim
print(json.dumps({
    "file": dutysim.__file__,
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] in ("dutysim", "numpy")),
}))
"""

# Each subcommand in turn, in one process; after each, whether collab is loaded.
COLLAB_LOADED_AFTER = """
import json, sys
from dutysim import cli
config, out = sys.argv[1:]
loaded = {}
for argv in (
    ["gen-trace", "--config", config, "--out", out + "/trace"],
    ["run", "--config", config, "--out", out + "/run"],
    ["report", "--summary", out + "/run/summary.json"],
    ["run-network", "--config", config, "--out", out + "/network"],
):
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = "dutysim.collab" in sys.modules
print(json.dumps(loaded))
"""


def _child(code: str, *args: str):
    """Run ``code`` in a fresh interpreter, since this one has imported every
    module already, and decode the JSON on its last stdout line."""
    src = str(Path(dutysim.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    child = _child(LOADED)
    assert child["file"] == dutysim.__file__
    assert child["loaded"] == ["dutysim"]


def test_only_run_network_loads_collab(tmp_path):
    profile = {
        "hourly_rate": [1.0] * 24,
        "duration_mean": 3.0,
        "duration_sd": 0.0,
        "days": 1,
        "area": [0.0, 10.0, 0.0, 10.0],
    }
    config = {
        "seed": 3,
        "trace": {"profile": profile},
        "schedules": {"fixed": [60], "qlearn": None},
        "network": {
            "layout": [{"id": 0, "x": 5, "y": 5, "sensing_radius": 10, "comm_radius": 10}],
            "episodes": 1,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    loaded = _child(COLLAB_LOADED_AFTER, str(path), str(tmp_path))
    assert loaded == {"gen-trace": False, "run": False, "report": False, "run-network": True}
