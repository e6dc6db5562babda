"""Run one dutysim CLI invocation with per-layer tracing.

Usage: python3 perfbench/traced.py REPORT.json OUT_DIR -- <dutysim arguments>

Before calling ``dutysim.cli.main`` this wraps the public functions of each
``dutysim.*`` module (and the names other modules imported them under) with
timers, so the program itself is unchanged. Calls made once per probe or per
billing entry are aggregated into a count and a total time per name; the
coarse calls (one per command, schedule, training run, network run or trace
generation) are also kept as spans with their parent. A layer's self time
is the time of its calls minus the time of the traced calls they made.
REPORT.json receives the per-layer metrics, the raw counters and the spans.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        # One frame per open traced call: [seconds of traced children, span index].
        self._stack: list[list] = [[0.0, None]]

    def wrap(self, layer: str, name: str, fn, *, span: bool = False, observe=None):
        """Return ``fn`` timed under ``name`` and billed to ``layer``.

        ``observe(args, result)`` runs after the call to take counts from
        its arguments and result.
        """
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if span:
                frame[1] = len(spans)
                spans.append({"name": name, "parent": parent[1]})
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                calls[name] += 1
                seconds[name] += elapsed
                self_seconds[layer] += elapsed - frame[0]
                if span:
                    spans[frame[1]].update(start=start, end=start + elapsed)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _rebind(original, replacement) -> None:
    """Point every dutysim module-level name bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "dutysim" or name.startswith("dutysim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    from dutysim import cli, collab, detect, power, qsched, rng, sim, trace

    counts = tracer.counts

    def patch_function(module, attr, layer, **kw):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(layer, f"{layer}.{attr}", original, **kw))

    def patch_method(cls, attr, layer, name):
        setattr(cls, attr, tracer.wrap(layer, name, getattr(cls, attr)))

    def count_report(report):
        counts["sim.activations"] += report.activations
        counts["sim.positives"] += report.positives

    def on_run_schedule(args, result):
        count_report(result[0])

    def on_train(args, result):
        count_report(result.train_report)
        counts["sim.activations.train_qlearn"] += result.train_report.activations

    def on_network(args, result):
        for d in result.devices:
            counts["sim.activations"] += d.activations
            counts["sim.positives"] += d.positives
            counts["sim.activations.run_network"] += d.activations

    def on_gate(args, fired):
        counts["detect.fires"] += bool(fired)

    def on_pings(args, mailbox):
        nodes, detections = args[0], args[1]
        by_id = {n.id: n for n in nodes}
        for sender_id, hashes in detections.items():
            sender = by_id[sender_id]
            in_range = sum(
                1
                for n in nodes
                if n.id != sender_id
                and math.dist(n.position, sender.position) <= sender.comm_radius
            )
            counts["collab.pings_sent"] += len(hashes)
            counts["collab.deliveries_attempted"] += len(hashes) * in_range
        counts["collab.deliveries"] += sum(
            len(senders) for row in mailbox.values() for senders in row.values()
        )

    def on_generate(args, result):
        counts["trace.events"] += len(result)

    patch_function(cli, "cmd_run", "cli", span=True)
    patch_function(cli, "cmd_run_network", "cli", span=True)
    patch_function(trace, "generate_trace", "trace", span=True, observe=on_generate)
    patch_function(sim, "run_schedule", "sim", span=True, observe=on_run_schedule)
    patch_function(sim, "train_qlearn", "sim", span=True, observe=on_train)
    patch_method(sim.TimelineEngine, "run_period", "sim", "sim.run_period")
    patch_method(sim.TimelineEngine, "bill_ql", "sim", "sim.bill_ql")
    patch_method(sim.TimelineEngine, "finish", "sim", "sim.finish")
    make_probe_fn = sim.make_probe_fn

    def traced_make_probe_fn(model):
        return tracer.wrap("sim", "sim.probe", make_probe_fn(model))

    _rebind(make_probe_fn, traced_make_probe_fn)
    patch_function(detect, "gate", "detect", observe=on_gate)
    patch_method(power.PowerProfile, "current", "power", "power.current")
    for attr in ("select_action", "q_update", "init_from_distribution", "save_qtable"):
        patch_function(qsched, attr, "qsched")
    patch_method(qsched.QTable, "greedy_action", "qsched", "qsched.greedy_action")
    patch_method(qsched.QTable, "greedy_policy", "qsched", "qsched.greedy_policy")
    patch_function(rng, "substream", "rng")
    patch_function(collab, "run_network", "collab", span=True, observe=on_network)
    patch_function(collab, "deliver_pings", "collab", observe=on_pings)
    patch_function(collab, "form_clusters", "collab")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Metrics that mean nothing when the named call never happened; they read 0
# and are listed as n/a.
NA_UNLESS_CALLED = {
    "sim.run_schedule_s": "sim.run_schedule",
    "sim.train_qlearn_s": "sim.train_qlearn",
    "sim.positive_ratio": "sim.run_period",
    "detect.gate_s": "detect.gate",
    "detect.fire_ratio": "detect.gate",
    "qsched.s": "qsched.select_action",
    "rng.substream_s": "rng.substream",
    "collab.run_network_s": "collab.run_network",
    "collab.self_s": "collab.run_network",
    "collab.deliver_pings_s": "collab.deliver_pings",
    "collab.delivery_ratio": "collab.deliver_pings",
    "trace.generate_s": "trace.generate_trace",
}


def layer_metrics(tracer: Tracer, out_dir: Path) -> tuple[dict, list[str]]:
    """The per-layer metrics of one traced invocation, and the n/a names."""
    c, s, own, n = tracer.calls, tracer.seconds, tracer.self_seconds, tracer.counts
    na = sorted(m for m, call in NA_UNLESS_CALLED.items() if not c[call])
    metrics = {
        "sim.run_schedule_s": s["sim.run_schedule"],
        "sim.train_qlearn_s": s["sim.train_qlearn"],
        "sim.self_s": own["sim"],
        "sim.activations": int(n["sim.activations"]),
        "sim.probe_calls": c["sim.probe"],
        "sim.positive_ratio": _ratio(n["sim.positives"], n["sim.activations"]),
        "detect.gate_calls": c["detect.gate"],
        "detect.gate_s": s["detect.gate"],
        "detect.fire_ratio": _ratio(n["detect.fires"], c["detect.gate"]),
        "power.current_calls": c["power.current"],
        "power.current_s": s["power.current"],
        "qsched.select_calls": c["qsched.select_action"],
        "qsched.update_calls": c["qsched.q_update"],
        "qsched.s": own["qsched"],
        "rng.substream_calls": c["rng.substream"],
        "rng.substream_s": s["rng.substream"],
        "collab.run_network_s": s["collab.run_network"],
        "collab.self_s": own["collab"],
        "collab.deliver_pings_s": s["collab.deliver_pings"],
        "collab.pings_sent": int(n["collab.pings_sent"]),
        "collab.delivery_ratio": _ratio(
            n["collab.deliveries"], n["collab.deliveries_attempted"]
        ),
        "collab.form_clusters_calls": c["collab.form_clusters"],
        "trace.generate_s": s["trace.generate_trace"],
        "trace.events": int(n["trace.events"]),
        "cli.self_s": own["cli"],
        "cli.bytes_written": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()),
    }
    return metrics, na


def main(argv: list[str]) -> int:
    report_path, out_dir, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py REPORT.json OUT_DIR -- <dutysim arguments>")
    from dutysim import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    metrics, na = layer_metrics(tracer, Path(out_dir))
    payload = {
        "exit_code": code,
        "metrics": metrics,
        "n_a": na,
        "calls": dict(tracer.calls),
        "seconds": dict(tracer.seconds),
        "self_seconds": dict(tracer.self_seconds),
        "counts": dict(tracer.counts),
        "spans": tracer.spans,
    }
    Path(report_path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
