"""Experiment configuration.

One JSON file fully determines a run: trace source (a file or a generator
profile, never both), schedule specs, hyperparameters, detector, power
overrides, an optional network section, and the seed.

Each section is the frozen dataclass the simulator itself consumes, and its
field names are the JSON keys: ``trace.profile`` is a ``DiurnalProfile``,
``detector`` a ``DetectorModel``, ``network`` a ``NetworkConfig`` and each
``network.layout`` entry a ``DeviceNode``, so every key is declared once.
``_parse`` walks the fields and their annotations (int, float, str, bool,
``X | None``, ``tuple[T, ...]``, fixed-length tuples and nested dataclasses);
int and float fields reject true/false, float fields NaN, ±inf and 1e400.
A type's invariants live in its ``__post_init__`` and run at parse time.
Unknown keys, missing required keys, wrong types and broken invariants raise
ConfigError naming the offending field. ``config_to_dict`` is the inverse
with every default materialized; it leaves a field out only when it is None
and defaults to None. parse -> serialize -> parse is the identity.
"""

import dataclasses
import functools
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .collab import DeviceNode, NetworkConfig
from .detect import DetectorModel
from .errors import ConfigError, TraceValidationError
from .power import PowerProfile, check_seconds
from .qsched import DEFAULT_ACTIONS, Q_MAX, ActionSpace, Hyperparameters
from .trace import DiurnalProfile, EventTrace, generate_trace, load_trace, read_json

__all__ = [
    "ExperimentConfig",
    "TraceSource",
    "Schedules",
    "QLearnSpec",
    "load_config",
    "parse_config",
    "config_to_dict",
    "build_trace",
    "build_profile",
    "load_layout",
]


@dataclass(frozen=True)
class TraceSource:
    file: str | None = None
    profile: DiurnalProfile | None = None

    def __post_init__(self):
        if (self.file is None) == (self.profile is None):
            raise ValueError("need exactly one of 'file' or 'profile'")


@dataclass(frozen=True)
class QLearnSpec:
    train_days: int = 10
    eval_days: int = 4
    init_scale: float | None = None

    def __post_init__(self):
        if self.train_days < 1:
            raise ValueError(f"train_days must be >= 1, got {self.train_days}")
        if self.eval_days < 1:  # every schedule is compared on the held-out days
            raise ValueError(f"eval_days must be >= 1, got {self.eval_days}")
        if self.init_scale is not None and not abs(self.init_scale) <= Q_MAX:
            raise ValueError(f"init_scale must lie within float32 range, got {self.init_scale}")


@dataclass(frozen=True)
class Schedules:
    fixed: tuple[float, ...] = DEFAULT_ACTIONS
    qlearn: QLearnSpec | None = field(default_factory=QLearnSpec)

    def __post_init__(self):
        for i, interval in enumerate(self.fixed):
            check_seconds(interval, f"fixed[{i}]")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    trace: TraceSource
    out: str | None = None
    schedules: Schedules = field(default_factory=Schedules)
    hyperparameters: Hyperparameters = field(default_factory=Hyperparameters)
    actions: tuple[float, ...] = DEFAULT_ACTIONS
    detector: DetectorModel = field(default_factory=DetectorModel)
    # Only the PowerProfile fields the file sets, sorted by name: checked
    # against a full profile, serialized as the same sparse map.
    power: tuple[tuple[str, object], ...] = field(
        default=(), metadata={"overrides": PowerProfile}
    )
    network: NetworkConfig | None = None

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:  # the seeds rng.substream takes
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        try:
            ActionSpace(self.actions)
        except ValueError as e:
            raise ValueError(f"actions: {e}") from None


# -- parsing ----------------------------------------------------------------

_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "true or false"),
}


@functools.cache
def _fields(cls) -> tuple[tuple[dataclasses.Field, object], ...]:
    """The dataclass's fields with their resolved annotations."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


def _parse(tp, value, where: str):
    """Check decoded JSON ``value`` against annotation ``tp`` and build it."""
    if dataclasses.is_dataclass(tp):
        return _parse_dataclass(tp, value, where)
    origin = typing.get_origin(tp)
    if origin is types.UnionType:
        (inner,) = (a for a in typing.get_args(tp) if a is not type(None))
        return None if value is None else _parse(inner, value, where)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        items = typing.get_args(tp)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ConfigError(f"{where}: expected {len(items)} items, got {len(value)}")
        return tuple(_parse(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    accepted, what = _SCALARS[tp]
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    if tp is float and not -sys.float_info.max <= value <= sys.float_info.max:
        shown = value if isinstance(value, float) else "an integer past the float range"
        raise ConfigError(f"{where}: expected a finite number, got {shown}")
    return tp(value)


def _parse_dataclass(cls, value, where: str):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    fields = _fields(cls)
    unknown = sorted(set(value) - {f.name for f, _ in fields})
    if unknown:
        raise ConfigError(f"{where}: unknown field '{unknown[0]}'")
    prefix = "" if where == "config" else f"{where}."
    kwargs = {}
    for f, tp in fields:
        if f.name in value:
            overrides = f.metadata.get("overrides")
            if overrides is None:
                kwargs[f.name] = _parse(tp, value[f.name], prefix + f.name)
            else:
                full = _parse(overrides, value[f.name], prefix + f.name)
                kwargs[f.name] = tuple((k, getattr(full, k)) for k in sorted(value[f.name]))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required field '{f.name}'")
    try:
        return cls(**kwargs)
    except (ValueError, TraceValidationError) as e:
        raise ConfigError(f"{where}: {e}") from None


def parse_config(data: dict) -> ExperimentConfig:
    return _parse(ExperimentConfig, data, "config")


def load_config(path) -> ExperimentConfig:
    return parse_config(read_json(Path(path), ConfigError, "config file"))


def _to_json(value):
    if dataclasses.is_dataclass(value):
        return {
            f.name: dict(v) if "overrides" in f.metadata else _to_json(v)
            for f in dataclasses.fields(value)
            if (v := getattr(value, f.name)) is not None or f.default is not None
        }
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Inverse of parse_config, with every default materialized."""
    return _to_json(cfg)


# -- builders ---------------------------------------------------------------


def _resolve(file: str, base_dir: Path | None) -> Path:
    path = Path(file)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return path


def build_trace(cfg: ExperimentConfig, base_dir: Path | None = None) -> EventTrace:
    if cfg.trace.file is not None:
        return load_trace(_resolve(cfg.trace.file, base_dir))
    try:
        return generate_trace(cfg.trace.profile, cfg.seed)
    except TraceValidationError as e:
        raise ConfigError(f"trace.profile: {e}") from None


def build_profile(cfg: ExperimentConfig) -> PowerProfile:
    return PowerProfile(**dict(cfg.power))


def load_layout(file: str, base_dir: Path | None = None) -> tuple[DeviceNode, ...]:
    """Read a network.layout_file: a JSON device list, bare or under "devices"."""
    path = _resolve(file, base_dir)
    data = read_json(path, ConfigError, "network.layout_file")
    if isinstance(data, dict) and "devices" in data:
        data = data["devices"]
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: need a non-empty device list")
    return _parse(tuple[DeviceNode, ...], data, str(path))
