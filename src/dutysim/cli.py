"""Command line entry points.

Subcommands:
  gen-trace    generate a trace from the config's profile, write CSV + JSON
  run          compare fixed schedules against the trained scheduler
  run-network  simulate the multi-device network
  report       re-render the CSV files from an existing JSON summary

Every output is fully determined by the config file and the seed; a
manifest with content hashes accompanies each run. ``--seed`` and ``--out``
override the corresponding config fields.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    MAX_DEVICE_ID,
    ExperimentConfig,
    build_profile,
    build_trace,
    config_to_dict,
    load_config,
    load_layout,
)
from .errors import ConfigError, DutysimError
from .qsched import ActionSpace, init_from_distribution, save_qtable
from .sim import FixedSchedule, PeriodRecord, SimReport, convergence_episodes
from .sim import GreedySchedule, run_schedule, train_qlearn
from .trace import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    fmt_float,
    hourly_event_probability,
    read_json,
    save_trace,
    write_json,
)

COMPARISON_COLUMNS = [
    "name",
    "detection_rate",
    "activations",
    "positives",
    "negatives",
    "avg_current_ma",
    "lifetime_years",
]
DEVICE_COLUMNS = ["episode", "activations", "battery_level"]


def _fields(record, drop=()) -> list[str]:
    return [f.name for f in dataclasses.fields(record) if f.name not in drop]


# The other tables write their records' own fields, in declaration order.
PER_PERIOD_COLUMNS = ["schedule", "phase", *_fields(PeriodRecord)]
# The SimReport fields of the qlearn train/eval summaries in summary.json.
SUMMARY_FIELDS = _fields(SimReport, ("periods",))


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, cfg_dict: dict, seed: int, filenames: list[str]) -> None:
    cfg_bytes = json.dumps(cfg_dict, sort_keys=True).encode()
    manifest = {
        "seed": seed,
        "config_sha256": hashlib.sha256(cfg_bytes).hexdigest(),
        "outputs": {name: _sha256(out_dir / name) for name in sorted(filenames)},
    }
    write_json(out_dir / "manifest.json", manifest)


def _prepare(args) -> tuple[ExperimentConfig, Path, Path]:
    if not args.config:
        raise ConfigError("--config is required")
    cfg_path = Path(args.config)
    cfg = load_config(cfg_path)
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        except ValueError as e:
            raise ConfigError(f"--seed: {e}") from None
    out = args.out or cfg.out or "out"
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, cfg_path.parent, out_dir


def _pick(report, names: list[str]) -> dict:
    return {c: getattr(report, c) for c in names}


def _comparison_row(name: str, report) -> dict:
    return {"name": name, **_pick(report, COMPARISON_COLUMNS[1:])}


def _period_rows(schedule: str, phase: str, report) -> list[dict]:
    # vars, not dataclasses.asdict: the deep copy cost about 25 ms per run
    # of the README config (about 800 PeriodRecords).
    return [{"schedule": schedule, "phase": phase, **vars(p)} for p in report.periods]


def _write_network_csvs(out_dir: Path, report: dict) -> list[str]:
    """Write the series CSV and one CSV per device from NetworkReport.to_dict().

    One pass over the episodes sorts the rows by device. A device removed
    at episode 0 still gets its (header-only) file. Returns the names written.
    """
    from .collab import EpisodeMetrics  # only network runs and reports load collab

    episodes = report["episodes"]
    series = [{"episode": e["index"], **e} for e in episodes]
    per_device = {d["id"]: [] for d in report["devices"]}
    for e in episodes:
        for dev in e["devices"]:
            per_device[dev["id"]].append({"episode": e["index"], **dev})
    series_columns = ["episode", *_fields(EpisodeMetrics, ("index", "activations", "batteries"))]
    tables = {"network_series.csv": (series_columns, series)}
    for did, rows in per_device.items():
        tables[f"device_{did}.csv"] = (DEVICE_COLUMNS, rows)
    for name, (columns, rows) in tables.items():
        _write_csv(out_dir / name, columns, rows)
    return list(tables)


# -- gen-trace --------------------------------------------------------------


def cmd_gen_trace(args) -> int:
    cfg, _base, out_dir = _prepare(args)
    if cfg.trace.profile is None:
        raise ConfigError("gen-trace needs a trace.profile section, not a file source")
    trace = build_trace(cfg)
    save_trace(trace, out_dir / "trace.csv")
    save_trace(trace, out_dir / "trace.json")
    _write_manifest(out_dir, config_to_dict(cfg), cfg.seed, ["trace.csv", "trace.json"])
    hours = (trace.origin_hour + trace.starts // SECONDS_PER_HOUR).astype(np.int64) % 24
    hist = np.bincount(hours, minlength=24)
    print(f"events: {len(trace)}  horizon: {fmt_float(trace.horizon)} s")
    print("per-hour: " + " ".join(str(n) for n in hist))
    return 0


# -- run --------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg, base_dir, out_dir = _prepare(args)
    trace = build_trace(cfg, base_dir)
    detector = cfg.detector
    profile = build_profile(cfg)
    actions = ActionSpace(cfg.actions)

    t_begin = 0.0
    duration = None
    qlearn_payload = None
    comparison: list[dict] = []
    period_rows: list[dict] = []
    outputs = ["comparison.csv", "per_period.csv", "summary.json"]

    if cfg.schedules.qlearn is not None:
        q = cfg.schedules.qlearn
        needed = (q.train_days + q.eval_days) * SECONDS_PER_DAY
        if trace.horizon < needed:
            raise ConfigError(
                f"schedules.qlearn: trace covers {trace.horizon} s but "
                f"train_days+eval_days need {needed} s"
            )
        t_begin = q.train_days * SECONDS_PER_DAY
        duration = q.eval_days * SECONDS_PER_DAY
        init_table = None
        if q.init_scale is not None:
            init_table = init_from_distribution(
                hourly_event_probability(trace, days=q.train_days), q.init_scale, len(actions)
            )
        result = train_qlearn(
            trace,
            q.train_days,
            cfg.hyperparameters,
            actions,
            detector,
            profile,
            cfg.seed,
            init_table=init_table,
        )
        qlearn_report, _ = run_schedule(
            trace, GreedySchedule(result.table, actions), detector, profile, cfg.seed,
            t_begin=t_begin, duration_s=duration,
        )
        period_rows.extend(_period_rows("qlearn", "train", result.train_report))
        period_rows.extend(_period_rows("qlearn", "eval", qlearn_report))
        qlearn_payload = {
            "episodes_to_convergence": convergence_episodes(result.policy_history),
            "eps_final": result.eps_final,
            "greedy_policy": [int(a) for a in result.table.greedy_policy()],
            "policy_history": [[int(a) for a in p] for p in result.policy_history],
            "train": _pick(result.train_report, SUMMARY_FIELDS),
            "eval": _pick(qlearn_report, SUMMARY_FIELDS),
        }
        (out_dir / "qtable.bin").write_bytes(save_qtable(result.table))
        outputs.append("qtable.bin")

    for interval in cfg.schedules.fixed:
        spec = FixedSchedule(interval)
        report, _ = run_schedule(
            trace, spec, detector, profile, cfg.seed, t_begin=t_begin, duration_s=duration
        )
        comparison.append(_comparison_row(spec.name, report))
        period_rows.extend(_period_rows(spec.name, "eval", report))
    if qlearn_payload is not None:
        comparison.append(_comparison_row("qlearn", qlearn_report))

    summary = {
        "kind": "run",
        "config": config_to_dict(cfg),
        "comparison": comparison,
        "per_period": period_rows,
        "qlearn": qlearn_payload,
    }
    _write_csv(out_dir / "comparison.csv", COMPARISON_COLUMNS, comparison)
    _write_csv(out_dir / "per_period.csv", PER_PERIOD_COLUMNS, period_rows)
    write_json(out_dir / "summary.json", summary)
    _write_manifest(out_dir, config_to_dict(cfg), cfg.seed, outputs)
    for row in comparison:
        print(
            f"{row['name']}: detection={row['detection_rate']:.4f} "
            f"activations={row['activations']} lifetime={row['lifetime_years']:.3f} yr"
        )
    return 0


# -- run-network ------------------------------------------------------------


def cmd_run_network(args) -> int:
    # Imported here, so that the other subcommands load no network code.
    from .collab import expand_global_table, run_network

    cfg, base_dir, out_dir = _prepare(args)
    net_cfg = cfg.network
    if net_cfg is None:
        raise ConfigError("run-network needs a network section")
    if net_cfg.layout_file is not None:
        layout = load_layout(net_cfg.layout_file, base_dir)
        try:
            net_cfg = dataclasses.replace(net_cfg, layout=layout, layout_file=None)
        except ValueError as e:
            raise ConfigError(f"network.layout_file: {e}") from None
    trace = build_trace(cfg, base_dir)
    profile = build_profile(cfg)
    actions = ActionSpace(cfg.actions)

    init_tables = None
    if net_cfg.train and net_cfg.pretrain_days > 0:
        pre = train_qlearn(
            trace,
            net_cfg.pretrain_days,
            cfg.hyperparameters,
            actions,
            cfg.detector,
            profile,
            cfg.seed,
            device_id=-1,
        )
        shared = expand_global_table(pre.table, net_cfg.n_bins)
        init_tables = {node.id: shared for node in net_cfg.layout}

    report = run_network(
        trace,
        net_cfg,
        cfg.hyperparameters,
        actions,
        cfg.detector,
        profile,
        cfg.seed,
        init_tables=init_tables,
    )

    report_dict = report.to_dict()
    write_json(
        out_dir / "network.json",
        {"kind": "run-network", "config": config_to_dict(cfg), "report": report_dict},
    )
    outputs = ["network.json", *_write_network_csvs(out_dir, report_dict)]
    if net_cfg.train:
        for did in sorted(report.tables):
            name = f"qtable_{did}.bin"
            (out_dir / name).write_bytes(save_qtable(report.tables[did]))
            outputs.append(name)
    _write_manifest(out_dir, config_to_dict(cfg), cfg.seed, outputs)

    first, last = report.episodes[0], report.episodes[-1]
    print(
        f"devices: {report.n_devices}  episodes: {len(report.episodes)}  "
        f"detection: {report.detection_rate:.4f}"
    )
    print(
        f"duplicates per detected event: {first.mean_duplicates:.3f} (ep 0) -> "
        f"{last.mean_duplicates:.3f} (ep {last.index})"
    )
    return 0


# -- report -----------------------------------------------------------------


def _check_tables(path: Path, kind: str, payload: dict) -> None:
    """Raise ConfigError naming the first malformed summary table or device id.

    A table must be a list of objects and a device id a non-negative int.
    A missing key raises KeyError, for the caller to name.
    """

    def rows(container: dict, key: str, where: str) -> list:
        value = container[key]
        if not isinstance(value, list) or not all(isinstance(r, dict) for r in value):
            raise ConfigError(f"{path}: {where}{key!r} must be a list of objects")
        return value

    def devices(container: dict, where: str) -> None:
        # Each id names a device_{id}.csv file, so only a plain int will do.
        for k, device in enumerate(rows(container, "devices", where)):
            did = device["id"]
            if type(did) is not int or not 0 <= did <= MAX_DEVICE_ID:
                raise ConfigError(
                    f"{path}: {where}devices[{k}]: 'id' must be a non-negative "
                    f"integer within int64, got {did!r}"
                )

    if kind == "run":
        rows(payload, "comparison", "")
        rows(payload, "per_period", "")
        return
    report = payload["report"]
    if not isinstance(report, dict):
        raise ConfigError(f"{path}: 'report' must be an object")
    for i, episode in enumerate(rows(report, "episodes", "report: ")):
        devices(episode, f"report: episodes[{i}]: ")
    devices(report, "report: ")


def cmd_report(args) -> int:
    if not args.summary:
        raise ConfigError("--summary is required")
    path = Path(args.summary)
    payload = read_json(path, ConfigError, "summary file")
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind not in ("run", "run-network"):
        raise ConfigError(f"{path}: unknown summary kind {kind!r}")
    out_dir = Path(args.out) if args.out else path.parent
    try:
        _check_tables(path, kind, payload)
        out_dir.mkdir(parents=True, exist_ok=True)
        if kind == "run":
            _write_csv(out_dir / "comparison.csv", COMPARISON_COLUMNS, payload["comparison"])
            _write_csv(out_dir / "per_period.csv", PER_PERIOD_COLUMNS, payload["per_period"])
            print(f"rendered comparison.csv and per_period.csv to {out_dir}")
        else:
            names = _write_network_csvs(out_dir, payload["report"])
            print(f"rendered network_series.csv and {len(names) - 1} device CSVs to {out_dir}")
    except KeyError as e:
        raise ConfigError(f"{path}: missing key {e.args[0]!r}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dutysim",
        description="Trace-driven simulation of an adaptive acoustic duty-cycle scheduler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("gen-trace", help="generate a synthetic trace")
    common(p)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("run", help="compare fixed schedules and the trained scheduler")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("run-network", help="simulate the device network")
    common(p)
    p.set_defaults(func=cmd_run_network)

    p = sub.add_parser("report", help="re-render CSVs from a JSON summary")
    p.add_argument("--summary", help="summary.json or network.json from a run")
    p.add_argument("--out", default=None, help="output directory (default: alongside)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DutysimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - single boundary for exit code 2
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
