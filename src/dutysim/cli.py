"""Command line entry points.

Subcommands:
  gen-trace    generate a trace from the config's profile, write CSV + JSON
  run          compare fixed schedules against the trained scheduler
  run-network  simulate the multi-device network
  report       re-render the CSV files from an existing JSON summary

Every output is fully determined by the config file and the seed; a
manifest with content hashes accompanies each run. ``--seed`` and ``--out``
override the corresponding config fields.

Each JSON summary's shape is declared once: ``RunSummary`` here for
summary.json, ``collab.NetworkSummary`` for network.json. ``report`` decodes
a summary against it, so a wrong type, an unknown or missing key or a bad
device id exits 1 naming its JSON path, and writes each CSV through the
writer its run uses, with the columns of its row type.
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

from .codec import decode, fields_of, shape
from .config import (
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

# summary.json, which ``run`` writes and ``report`` decodes. Its rows hold
# their records' own fields after their labels, and a CSV's columns are the
# fields of its row type.
ComparisonRow = shape("ComparisonRow", {"name": str, **fields_of(
    SimReport, "detection_rate", "activations", "positives", "negatives",
    "avg_current_ma", "lifetime_years",
)})
PeriodRow = shape("PeriodRow", {"schedule": str, "phase": str, **fields_of(PeriodRecord)})
SimTotals = shape("SimTotals", fields_of(SimReport, drop=("periods",)))


@dataclasses.dataclass(frozen=True)
class QLearnSummary:
    episodes_to_convergence: int | None
    eps_final: float
    greedy_policy: tuple[int, ...]
    policy_history: tuple[tuple[int, ...], ...]
    train: SimTotals
    eval: SimTotals


@dataclasses.dataclass(frozen=True)
class RunSummary:
    """summary.json; ``qlearn`` is null when no schedule is trained."""

    kind: str
    config: ExperimentConfig
    comparison: tuple[ComparisonRow, ...]
    per_period: tuple[PeriodRow, ...]
    qlearn: QLearnSummary | None


def _fields(row_type, drop=()) -> list[str]:
    return [f.name for f in dataclasses.fields(row_type) if f.name not in drop]


COMPARISON_COLUMNS = _fields(ComparisonRow)
PER_PERIOD_COLUMNS = _fields(PeriodRow)


def _row(row_type, record, **labels) -> dict:
    """``record`` as a ``row_type`` JSON object: ``labels``, then its other fields."""
    return labels | {c: getattr(record, c) for c in _fields(row_type) if c not in labels}


def _cell(value) -> str:
    if value is None:  # a run with no finite lifetime
        return ""
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _write_csv(path: Path, columns: list[str], rows) -> None:
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
    out_dir = Path(args.out or cfg.out or "out")
    _make_out_dir(out_dir, "--out" if args.out else "out")
    return cfg, cfg_path.parent, out_dir


def _make_out_dir(out_dir: Path, source: str) -> None:
    """Make the output directory; a file in its way is bad input named by ``source``."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"{source}: cannot make {out_dir}, a file is in the way") from None


def _write_network_csvs(out_dir: Path, episodes: list[dict], device_ids: list[int]) -> list[str]:
    """Write the series CSV and one CSV per device id from network.json's
    episode rows, each with its "devices" rows.

    One pass over the episodes sorts the rows by device. A device removed
    at episode 0 still gets its (header-only) file. Returns the names written.
    """
    from .collab import EpisodeDevice, EpisodeRow  # only network runs and reports load collab

    series = [{"episode": e["index"], **e} for e in episodes]
    per_device = {did: [] for did in device_ids}
    for e in episodes:
        for dev in e["devices"]:
            per_device[dev["id"]].append({"episode": e["index"], **dev})
    series_columns = ["episode", *_fields(EpisodeRow, ("index", "devices"))]
    device_columns = ["episode", *_fields(EpisodeDevice, ("id",))]
    tables = {"network_series.csv": (series_columns, series)}
    for did, rows in per_device.items():
        tables[f"device_{did}.csv"] = (device_columns, rows)
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
    runs = []  # (schedule, phase, report), in per_period's order
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
        greedy = GreedySchedule(result.table, actions)
        qlearn_report, _ = run_schedule(
            trace, greedy, detector, profile, cfg.seed, t_begin=t_begin, duration_s=duration
        )
        runs += [(greedy.name, "train", result.train_report), (greedy.name, "eval", qlearn_report)]
        qlearn_payload = {
            "episodes_to_convergence": convergence_episodes(result.policy_history),
            "eps_final": result.eps_final,
            "greedy_policy": [int(a) for a in result.table.greedy_policy()],
            "policy_history": [[int(a) for a in p] for p in result.policy_history],
            "train": _row(SimTotals, result.train_report),
            "eval": _row(SimTotals, qlearn_report),
        }
        (out_dir / "qtable.bin").write_bytes(save_qtable(result.table))
        outputs.append("qtable.bin")

    for interval in cfg.schedules.fixed:
        spec = FixedSchedule(interval)
        report, _ = run_schedule(
            trace, spec, detector, profile, cfg.seed, t_begin=t_begin, duration_s=duration
        )
        comparison.append(_row(ComparisonRow, report, name=spec.name))
        runs.append((spec.name, "eval", report))
    if qlearn_payload is not None:
        comparison.append(_row(ComparisonRow, qlearn_report, name=greedy.name))
    # vars, not dataclasses.asdict: the deep copy cost about 25 ms per run
    # of the README config (about 800 PeriodRecords).
    period_rows = [
        {"schedule": name, "phase": phase, **vars(p)} for name, phase, r in runs for p in r.periods
    ]

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
        life = row["lifetime_years"]
        lifetime = "none" if life is None else f"{life:.3f} yr"
        print(
            f"{row['name']}: detection={row['detection_rate']:.4f} "
            f"activations={row['activations']} lifetime={lifetime}"
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
    device_ids = [d.id for d in report.devices]
    outputs = ["network.json", *_write_network_csvs(out_dir, report_dict["episodes"], device_ids)]
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


def cmd_report(args) -> int:
    """Re-render the CSVs of a ``run`` summary.json or a ``run-network`` network.json.

    The summary is decoded against the shape its command writes, ``RunSummary``
    or ``collab.NetworkSummary``: a wrong type, an unknown or missing key or a
    bad device id raises ConfigError naming its JSON path before any output is
    made. The decoded rows go through the writers the runs use.
    """
    if not args.summary:
        raise ConfigError("--summary is required")
    path = Path(args.summary)
    payload = read_json(path, ConfigError, "summary file")
    kind = payload.get("kind") if isinstance(payload, dict) else None
    out_dir = Path(args.out) if args.out else path.parent
    if kind == "run":
        summary = decode(RunSummary, payload, str(path), ConfigError)
        _make_out_dir(out_dir, "--out")
        _write_csv(out_dir / "comparison.csv", COMPARISON_COLUMNS, map(vars, summary.comparison))
        _write_csv(out_dir / "per_period.csv", PER_PERIOD_COLUMNS, map(vars, summary.per_period))
        print(f"rendered comparison.csv and per_period.csv to {out_dir}")
    elif kind == "run-network":
        from .collab import NetworkSummary

        report = decode(NetworkSummary, payload, str(path), ConfigError).report
        _make_out_dir(out_dir, "--out")
        episodes = [{**vars(e), "devices": list(map(vars, e.devices))} for e in report.episodes]
        names = _write_network_csvs(out_dir, episodes, [d.id for d in report.devices])
        print(f"rendered network_series.csv and {len(names) - 1} device CSVs to {out_dir}")
    else:
        raise ConfigError(f"{path}: unknown summary kind {kind!r}")
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
