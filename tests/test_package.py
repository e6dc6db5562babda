"""The package root re-exports nothing, so importing it loads nothing else."""

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


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    # A fresh interpreter, since this one has imported every module already.
    src = str(Path(dutysim.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", LOADED], env=env, capture_output=True, text=True, check=True
    )
    child = json.loads(out.stdout)
    assert child["file"] == dutysim.__file__
    assert child["loaded"] == ["dutysim"]
