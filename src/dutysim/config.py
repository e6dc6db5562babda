"""Experiment configuration.

One JSON file fully determines a run: trace source (a file or a generator
profile, never both), schedule specs, hyperparameters, detector, power
overrides, an optional network section, and the seed.

Each section is the frozen dataclass the simulator itself consumes, and its
field names are the JSON keys: ``trace.profile`` is a ``DiurnalProfile``,
``detector`` a ``DetectorModel``, ``network`` a ``NetworkConfig`` and each
``network.layout`` entry a ``DeviceNode``. ``codec.decode`` checks a file
against them and raises ConfigError naming the offending field;
``config_to_dict`` is ``codec.encode``, its inverse.
"""

from dataclasses import dataclass, field
from pathlib import Path

from .codec import decode, encode
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


def parse_config(data: dict) -> ExperimentConfig:
    return decode(ExperimentConfig, data, "config", ConfigError)


def load_config(path) -> ExperimentConfig:
    return parse_config(read_json(Path(path), ConfigError, "config file"))


config_to_dict = encode  # the inverse of parse_config, with every default materialized


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
    return decode(tuple[DeviceNode, ...], data, str(path), ConfigError)
