"""Rewrite reference.json from one invocation of each workload.

Usage: python3 perfbench/make_reference.py

Run this only on a commit whose simulated results are the intended ones:
every later benchmark run compares its outputs against this file.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import BENCH, CLI_CODE, WORK, child_env, spawn
from workloads import WORKLOADS, read_facts, write_config


def main() -> int:
    env = child_env()
    reference = {}
    for name, (command, config) in WORKLOADS.items():
        work = WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg, out, log = work / "config.json", work / "out", work / "out.log"
        write_config(config, 0, cfg)
        argv = [sys.executable, "-c", CLI_CODE, command, "--config", str(cfg), "--out", str(out)]
        code, wall, _, _ = spawn(argv, env, log)
        if code != 0:
            print(log.read_text(), file=sys.stderr)
            return 1
        reference[name] = {
            "manifest_sha256": hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest(),
            "facts": read_facts(name, out),
        }
        print(f"{name}: {wall:.2f} s, {len(reference[name]['facts'])} facts")
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
