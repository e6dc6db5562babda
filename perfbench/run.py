"""dutysim benchmark: one workload, timed end to end or traced per layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the program is imported from ``src/``. The
workloads are in ``workloads.py`` and described in BENCHMARK.json.

One run writes the workload's config (its layout drawn from ``--seed``)
and then, for ``--seconds`` seconds, makes CLI invocations one at a time,
each preceded by a set-up sample: a fresh interpreter that imports
``dutysim.cli`` and loads the config. Each invocation is a child process
that runs the ``dutysim`` entry point; its wall time and peak resident
memory come from the parent. Every invocation's outputs are checked against the reference
in ``reference.json`` and must have the same ``manifest.json`` as the
run's first invocation.

With ``--trace 0`` the invocations run untraced and the run reports the
end-to-end metrics. With ``--trace 1`` untraced and traced invocations
(``traced.py``) alternate, the detector microbenchmark (``microbench.py``)
runs once, and the run reports the per-layer metrics, including
trace_overhead, the median traced wall time over the median untraced one.

Child processes get BLAS and OpenMP pinned to one thread and write
bytecode caches. Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with every sample and the run metadata, is
written to
``perfbench/_work/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (
    WORKLOADS,
    compare_facts,
    consistency_problems,
    read_facts,
    simulated_metrics,
    write_config,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = BENCH / "_work"

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_SAMPLES = 5
MICROBENCH_SECONDS = 2.0
CHILD_TIMEOUT_S = 150.0

# The ``dutysim`` console script's entry point.
CLI_CODE = "import sys; from dutysim.cli import main; sys.exit(main())"
SETUP_CODE = (
    "import sys; import dutysim.cli; from dutysim.config import load_config; "
    "load_config(sys.argv[1])"
)
META_CODE = """
import importlib.util, json, platform, numpy, dutysim, dutysim._kernels
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "numba_importable": importlib.util.find_spec("numba") is not None,
    "using_numba": bool(dutysim._kernels.USING_NUMBA),
    "dutysim_file": dutysim.__file__,
}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(THREAD_PINS)
    # Cache bytecode as an installed package does, so that set-up and wall
    # time measure imports rather than compilation.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], env: dict, log_path: Path) -> tuple[int, float, float, float]:
    """Run argv to completion; return exit code, wall and CPU seconds, peak RSS in MB."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def run_metadata(env: dict) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", META_CODE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if out.returncode != 0:
        raise BenchError(f"cannot import dutysim from {SRC}:\n{out.stderr.strip()}")
    meta = json.loads(out.stdout)
    if not Path(meta["dutysim_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"dutysim imported from {meta['dutysim_file']}, not from {SRC}")
    git_sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git_sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dutysim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    meta.update(
        git_sha=git_sha,
        source_sha256=digest.hexdigest(),
        nproc=os.cpu_count(),
        cpus_allowed=len(os.sched_getaffinity(0)),
        thread_pins=THREAD_PINS,
        platform=sys.platform,
    )
    return meta


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.command, config = WORKLOADS[workload]
        self.trace = trace
        self.work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        write_config(config, seed, self.config_path)
        self.env = child_env()
        self.reference = json.loads((BENCH / "reference.json").read_text())[workload]
        self.invocations: list[dict] = []
        self.setup: list[float] = []
        self.manifest: bytes | None = None

    def time_setup(self) -> float:
        argv = [sys.executable, "-c", SETUP_CODE, str(self.config_path)]
        log = self.work / "setup.log"
        code, wall, _, _ = spawn(argv, self.env, log)
        if code != 0:
            raise BenchError(f"set-up failed:\n{log.read_text()}")
        return wall

    def invoke(self, traced: bool) -> None:
        n = len(self.invocations)
        out = self.work / f"out{n}"
        cli_args = [self.command, "--config", str(self.config_path), "--out", str(out)]
        if traced:
            report = self.work / f"traced{n}.json"
            argv = [sys.executable, str(BENCH / "traced.py"), str(report), str(out), "--"]
        else:
            argv = [sys.executable, "-c", CLI_CODE]
        log = self.work / f"out{n}.log"
        code, wall, cpu, rss = spawn(argv + cli_args, self.env, log)
        inv = {
            "traced": traced, "exit_code": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss
        }
        inv["problems"] = self.check(out, code, log)
        if code == 0:
            try:
                inv.update(simulated_metrics(self.workload, out))
                if traced:
                    inv["layers"] = json.loads(report.read_text())
            except (OSError, KeyError, ValueError) as e:
                inv["problems"].append(f"unreadable outputs: {e!r}")
        self.invocations.append(inv)
        if n:  # keep the first output tree to look at
            shutil.rmtree(out, ignore_errors=True)

    def check(self, out: Path, code: int, log: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {log.read_text()[-2000:]}"]
        try:
            facts = read_facts(self.workload, out)
            manifest = (out / "manifest.json").read_bytes()
        except (OSError, KeyError, ValueError) as e:
            return [f"unreadable outputs: {e!r}"]
        problems = compare_facts(facts, self.reference["facts"])
        problems += consistency_problems(self.workload, facts)
        if self.manifest is None:
            self.manifest = manifest
        elif manifest != self.manifest:
            problems.append("manifest.json differs from the run's first invocation")
        return problems

    def loop(self, seconds: float) -> None:
        """Invoke the CLI for ``seconds``, timing one set-up before each invocation.

        Set-up samples are spread over the run, like the invocations, so that
        both see the same spells of a busy host.
        """
        self.time_setup()  # fills the bytecode cache
        deadline = time.perf_counter() + seconds
        while not self.invocations or time.perf_counter() < deadline:
            self.setup.append(self.time_setup())
            self.invoke(traced=False)
            if self.trace:
                self.invoke(traced=True)
        while len(self.setup) < SETUP_SAMPLES:
            self.setup.append(self.time_setup())

    def microbench(self) -> dict:
        log = self.work / "microbench.log"
        argv = [sys.executable, str(BENCH / "microbench.py"), str(MICROBENCH_SECONDS)]
        code, _, _, _ = spawn(argv, self.env, log)
        if code != 0:
            raise BenchError(f"microbenchmark failed:\n{log.read_text()}")
        return json.loads(log.read_text().strip().splitlines()[-1])


def measured(run: Run, traced: bool) -> list[dict]:
    """Invocations that ran to completion, correct or not."""
    key = "layers" if traced else "device_days"
    return [i for i in run.invocations if i["traced"] == traced and key in i]


def end_to_end(run: Run) -> dict:
    good = measured(run, traced=False)
    first = good[0]
    return {
        "wall_s": statistics.median([i["wall_s"] for i in good]),
        "device_days_per_s": statistics.median([i["device_days"] / i["wall_s"] for i in good]),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": statistics.median([i["peak_rss_mb"] for i in good]),
        "detection_rate": first["detection_rate"],
        "avg_current_ma": first["avg_current_ma"],
        "duplicates_per_event": first["duplicates_per_event"],
    }


# Per-layer counts that must repeat exactly across traced invocations.
EXACT_LAYER_COUNTS = (
    "sim.activations",
    "sim.probe_calls",
    "detect.gate_calls",
    "power.current_calls",
    "qsched.select_calls",
    "qsched.update_calls",
    "rng.substream_calls",
    "collab.pings_sent",
    "collab.form_clusters_calls",
    "trace.events",
    "cli.bytes_written",
)


def per_layer(run: Run, micro: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics (medians over traced invocations), n/a names, problems."""
    traced, plain = measured(run, traced=True), measured(run, traced=False)
    if not traced or not plain:
        raise BenchError("no traced or no untraced invocation ran to completion")
    layers = [i["layers"]["metrics"] for i in traced]
    problems = [
        f"{name} differs between traced invocations"
        for name in EXACT_LAYER_COUNTS
        if len({m[name] for m in layers}) != 1
    ]
    metrics = {
        name: layers[0][name]
        if name in EXACT_LAYER_COUNTS
        else statistics.median([m[name] for m in layers])
        for name in layers[0]
    }
    metrics.update(
        {
            "detect.gate_us": micro["gate_us"],
            "detect.gate_madds": micro["gate_madds"],
            "detect.spectrum_us": micro["spectrum_us"],
            "detect.spectrum_madds": micro["spectrum_madds"],
            "trace_overhead": statistics.median([i["wall_s"] for i in traced])
            / statistics.median([i["wall_s"] for i in plain]),
        }
    )
    return metrics, traced[0]["layers"]["n_a"], problems


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dutysim" / "cli.py").is_file():
        print(f"error: no dutysim source under {SRC}", file=sys.stderr)
        return 2
    try:
        run = Run(args.workload, args.seed, bool(args.trace))
        meta = run_metadata(run.env)
        run.loop(args.seconds)
        micro = run.microbench() if run.trace else None
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = len(run.invocations)
    failed = sum(1 for i in run.invocations if i["problems"])
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations {attempted}  failed {failed}  failed_frac {failed / attempted:.4g}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for n, inv in enumerate(run.invocations):
        for problem in inv["problems"][:10]:
            print(f"# invocation {n} FAILED: {problem}")
    if not measured(run, traced=False):
        print("error: no invocation ran to completion", file=sys.stderr)
        return 1
    manifest_sha = hashlib.sha256(run.manifest).hexdigest()
    same_tree = manifest_sha == run.reference["manifest_sha256"]
    print(f"# manifest.json sha256 {manifest_sha} "
          f"({'equals' if same_tree else 'differs from'} the reference run's)")

    problems: list[str] = []
    notes: dict[str, str] = {}
    na: list[str] = []
    if run.trace:
        try:
            values, na, problems = per_layer(run, micro)
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        wanted = spec["per_layer"]
        notes = dict.fromkeys(na, "n/a: the workload never calls it")
        print(f"# layer times are medians of {len(measured(run, traced=True))} traced invocations")
        print(f"# detect microbenchmark: {json.dumps(micro)}")
    else:
        values = end_to_end(run)
        wanted = spec["end_to_end"]
        walls = sorted(i["wall_s"] for i in measured(run, traced=False))
        print(f"# wall_s samples {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls))
        print(f"# setup_s samples {len(run.setup)}: " + " ".join(f"{s:.4f}" for s in run.setup))
        notes = dict.fromkeys(
            ["wall_s", "device_days_per_s", "peak_rss_mb"], f"median of {len(walls)} invocations"
        )
        notes["setup_s"] = f"median of {len(run.setup)} fresh interpreters"
    for problem in problems:
        print(f"# FAILED: {problem}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']:<28} {_fmt(value):>14} {m['unit']}{note}")
    # failed_frac is 0 whenever the run is correct, so it is carried by the
    # result's failed / attempted rather than listed in BENCHMARK.json.
    print(f"{'failed_frac':<28} {_fmt(failed / attempted):>14} ratio")

    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    full = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                failed_frac=failed / attempted, n_a=na, problems=problems, meta=meta,
                setup_s=run.setup, manifest_sha256=manifest_sha, microbench=micro,
                invocations=run.invocations)
    (run.work / "result.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
