"""Experiment configuration.

One JSON file fully determines a run: trace source (a file or a generator
profile, never both), schedule specs, hyperparameters, detector, power
overrides, an optional network section, and the seed.

Each section is a frozen dataclass whose field names are its JSON keys, so a
field is declared once. ``_parse`` walks the fields and their annotations
(int, float, str, bool, ``X | None``, ``tuple[T, ...]``, fixed-length tuples
and nested dataclasses); int and float fields reject true/false. A section's
own invariants live in its ``__post_init__``. Unknown keys, missing required
keys, wrong types and broken invariants raise ConfigError naming the
offending field. ``config_to_dict`` is the inverse with every default
materialized; it leaves a field out only when it is None and defaults to
None. parse -> serialize -> parse is the identity.
"""

import dataclasses
import functools
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .detect import DetectorModel, GoertzelBank, default_bank
from .errors import ConfigError
from .power import PowerProfile
from .qsched import DEFAULT_ACTIONS, ActionSpace, Hyperparameters
from .trace import DiurnalProfile, EventTrace, generate_trace, load_trace

__all__ = [
    "ExperimentConfig",
    "TraceSource",
    "GeneratorSpec",
    "Schedules",
    "QLearnSpec",
    "NetworkSpec",
    "DeviceLayout",
    "DetectorSpec",
    "load_config",
    "parse_config",
    "config_to_dict",
    "build_trace",
    "build_detector",
    "build_profile",
    "build_network",
]


@dataclass(frozen=True)
class GeneratorSpec:
    hourly_rate: tuple[float, ...]
    duration_mean: float
    duration_sd: float
    days: int
    origin_hour: int = 0
    band_range: tuple[float, float] | None = None
    area: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if len(self.hourly_rate) != 24:
            raise ValueError("hourly_rate: need a list of 24 rates")


@dataclass(frozen=True)
class TraceSource:
    file: str | None = None
    profile: GeneratorSpec | None = None

    def __post_init__(self):
        if (self.file is None) == (self.profile is None):
            raise ValueError("need exactly one of 'file' or 'profile'")


@dataclass(frozen=True)
class QLearnSpec:
    train_days: int = 10
    eval_days: int = 4
    init_scale: float | None = None


@dataclass(frozen=True)
class Schedules:
    fixed: tuple[float, ...] = DEFAULT_ACTIONS
    qlearn: QLearnSpec | None = field(default_factory=QLearnSpec)


@dataclass(frozen=True)
class DetectorSpec:
    kind: str = "abstract"
    tp_rate: float = 1.0
    fp_rate: float = 0.0
    noise_sd: float = 0.0
    tone_amplitude: float = 1.0
    default_band: float = 4000.0
    event_bandwidth_hz: float = 4000.0
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in ("abstract", "goertzel"):
            raise ValueError(f"kind: expected 'abstract' or 'goertzel', got {self.kind!r}")


@dataclass(frozen=True)
class DeviceLayout:
    id: int
    x: float
    y: float
    sensing_radius: float
    comm_radius: float


@dataclass(frozen=True)
class NetworkSpec:
    layout: tuple[DeviceLayout, ...] | None = None
    layout_file: str | None = None
    episodes: int = 30
    w2: float = 0.5
    w3: float = 0.01
    drop_rate: float = 0.0
    detection_bins: tuple[int, ...] = (0, 2, 5)
    pretrain_days: int = 0
    train: bool = True
    fixed_interval: float | None = None
    eps_reset_on_change: bool = True
    failures: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if (self.layout is None) == (self.layout_file is None):
            raise ValueError("need exactly one of 'layout' or 'layout_file'")
        if self.layout == ():
            raise ValueError("layout: need a non-empty device list")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    trace: TraceSource
    out: str | None = None
    schedules: Schedules = field(default_factory=Schedules)
    hyperparameters: Hyperparameters = field(default_factory=Hyperparameters)
    actions: tuple[float, ...] = DEFAULT_ACTIONS
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    # Only the PowerProfile fields the file sets, sorted by name: checked
    # against a full profile, serialized as the same sparse map.
    power: tuple[tuple[str, object], ...] = field(
        default=(), metadata={"overrides": PowerProfile}
    )
    network: NetworkSpec | None = None

    def __post_init__(self):
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
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def parse_config(data: dict) -> ExperimentConfig:
    return _parse(ExperimentConfig, data, "config")


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON ({e})") from None
    return parse_config(data)


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
    g = cfg.trace.profile
    try:
        profile = DiurnalProfile(
            hourly_rate=g.hourly_rate,
            duration_mean=g.duration_mean,
            duration_sd=g.duration_sd,
        )
    except ValueError as e:
        raise ConfigError(f"trace.profile: {e}") from None
    return generate_trace(
        profile,
        g.days,
        cfg.seed,
        origin_hour=g.origin_hour,
        band_range=g.band_range,
        area=g.area,
    )


def build_detector(cfg: ExperimentConfig) -> DetectorModel:
    spec = cfg.detector
    try:
        if spec.kind == "abstract":
            return DetectorModel(kind="abstract", tp_rate=spec.tp_rate, fp_rate=spec.fp_rate)
        bank = default_bank()
        if spec.threshold is not None:
            bank = GoertzelBank(
                sample_rate=bank.sample_rate,
                window_len=bank.window_len,
                target_bins=bank.target_bins,
                threshold=spec.threshold,
            )
        return DetectorModel(
            kind="goertzel",
            bank=bank,
            tone_amplitude=spec.tone_amplitude,
            noise_sd=spec.noise_sd,
            default_band=spec.default_band,
            event_bandwidth_hz=spec.event_bandwidth_hz,
        )
    except ValueError as e:
        raise ConfigError(f"detector: {e}") from None


def build_profile(cfg: ExperimentConfig) -> PowerProfile:
    return PowerProfile(**dict(cfg.power))


def _load_layout_file(path: Path) -> tuple[DeviceLayout, ...]:
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"network.layout_file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    if isinstance(data, dict) and "devices" in data:
        data = data["devices"]
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: need a non-empty device list")
    return _parse(tuple[DeviceLayout, ...], data, str(path))


def build_network(cfg: ExperimentConfig, base_dir: Path | None = None):
    """Resolve the network section into (nodes, NetworkConfig)."""
    from .collab import DeviceNode, NetworkConfig

    if cfg.network is None:
        raise ConfigError("network: section missing")
    spec = cfg.network
    devices = spec.layout
    if spec.layout_file is not None:
        devices = _load_layout_file(_resolve(spec.layout_file, base_dir))
    try:
        nodes = [
            DeviceNode(
                id=d.id,
                position=(d.x, d.y),
                sensing_radius=d.sensing_radius,
                comm_radius=d.comm_radius,
            )
            for d in devices
        ]
        net_cfg = NetworkConfig(
            episodes=spec.episodes,
            hp=cfg.hyperparameters,
            actions=ActionSpace(cfg.actions),
            w2=spec.w2,
            w3=spec.w3,
            drop_rate=spec.drop_rate,
            detection_bins=spec.detection_bins,
            train=spec.train,
            fixed_interval=spec.fixed_interval,
            eps_reset_on_change=spec.eps_reset_on_change,
            failures=spec.failures,
        )
    except ValueError as e:
        raise ConfigError(f"network: {e}") from None
    return nodes, net_cfg
