"""Experiment configuration.

One JSON file fully determines a run: trace source (a file or a generator
profile, never both), schedule specs, hyperparameters, detector, power
overrides, an optional network section, and the seed.

Each section is the frozen dataclass the simulator itself consumes, and its
field names are the JSON keys: ``trace.profile`` is a ``DiurnalProfile``,
``detector`` a ``DetectorModel``, ``network`` a ``NetworkConfig`` and each
``network.layout`` entry a ``DeviceNode``. ``codec.decode`` checks a file
against them and raises ConfigError naming the offending field;
``config_to_dict`` is ``codec.encode``, its inverse. The two network types
are defined here, not in ``collab``, so that parsing a config loads no
network code.
"""

from dataclasses import dataclass, field
from pathlib import Path

from .codec import decode, encode
from .detect import DetectorModel
from .errors import ConfigError, TraceValidationError, check_fields, shown
from .power import PowerProfile, check_seconds
from .qsched import DEFAULT_ACTIONS, MAX_STATES, Q_MAX, W_MAX, ActionSpace, Hyperparameters
from .trace import MAX_DAYS, DiurnalProfile, EventTrace, generate_trace, load_trace, read_json

__all__ = [
    "ExperimentConfig",
    "TraceSource",
    "Schedules",
    "QLearnSpec",
    "DeviceNode",
    "NetworkConfig",
    "load_config",
    "parse_config",
    "config_to_dict",
    "build_trace",
    "build_profile",
    "load_layout",
]


MAX_DEVICE_ID = 2**63 - 1  # a device id names its CSV file, so it stays within int64


def _check_days(days: int, name: str) -> None:
    # No trace is longer than MAX_DAYS, so a longer span can never run.
    if days > MAX_DAYS:
        raise ValueError(f"{name} must be <= {MAX_DAYS}, got {shown(days)}")


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
        check_fields(self, ValueError, ranged=("train_days", "eval_days"))
        if self.train_days < 1:
            raise ValueError(f"train_days must be >= 1, got {shown(self.train_days)}")
        if self.eval_days < 1:  # every schedule is compared on the held-out days
            raise ValueError(f"eval_days must be >= 1, got {shown(self.eval_days)}")
        _check_days(self.train_days, "train_days")
        _check_days(self.eval_days, "eval_days")
        if self.init_scale is not None and not abs(self.init_scale) <= Q_MAX:
            raise ValueError(f"init_scale must lie within float32 range, got {self.init_scale}")


@dataclass(frozen=True)
class Schedules:
    fixed: tuple[float, ...] = DEFAULT_ACTIONS
    qlearn: QLearnSpec | None = field(default_factory=QLearnSpec)

    def __post_init__(self):
        check_fields(self, ValueError)
        for i, interval in enumerate(self.fixed):
            check_seconds(interval, f"fixed[{i}]")


@dataclass(frozen=True)
class DeviceNode:
    """A sensor at (x, y) with a sensing footprint and a radio footprint, in meters."""

    id: int
    x: float
    y: float
    sensing_radius: float
    comm_radius: float

    def __post_init__(self):
        check_fields(self, ValueError, ranged=("id",))
        if self.id < 0:
            raise ValueError("device id must be >= 0")
        if self.id > MAX_DEVICE_ID:
            raise ValueError(f"device id must be <= {MAX_DEVICE_ID} (int64), got {shown(self.id)}")
        if self.sensing_radius <= 0 or self.comm_radius <= 0:
            raise ValueError("radii must be positive")

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class NetworkConfig:
    """The devices and knobs of a network run.

    The devices come as ``layout``, or as ``layout_file``, a JSON device
    list the caller reads into ``layout`` before the run; exactly one is
    set. Layout ids are unique, and each failures entry names one of them,
    no device twice, at an episode before ``episodes``.
    pretrain_days > 0 asks the caller to seed every device's table
    from that many days of single-device training (``dutysim run-network``
    does, through run_network's init_tables). train False runs every device
    on fixed_interval with no learning, no pings, and no scheduler billing
    (a pure baseline). detection_bins are inclusive upper edges of the
    previous-period detection-count bins; the empty tuple collapses the
    state back to hour only, and 24 * (edges + 1) states must fit
    ``qsched.MAX_STATES``. fixed_interval is within ``power.MAX_SECONDS``.
    """

    layout: tuple[DeviceNode, ...] | None = None
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
        check_fields(self, ValueError, ranged=("episodes",))
        if (self.layout is None) == (self.layout_file is None):
            raise ValueError("need exactly one of 'layout' or 'layout_file'")
        if self.layout_file == "":  # it would read the config's directory
            raise ValueError("layout_file must name a file, got ''")
        if self.layout is not None and not self.layout:
            raise ValueError("layout: need a non-empty device list")
        if self.pretrain_days < 0:
            raise ValueError(f"pretrain_days must be >= 0, got {self.pretrain_days}")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        _check_days(self.episodes, "episodes")
        for name in ("w2", "w3"):
            value = getattr(self, name)
            if not 0 <= value <= W_MAX:
                raise ValueError(f"{name} must be in [0, {W_MAX:g}], got {value}")
        if not 0 <= self.drop_rate <= 1:
            raise ValueError("drop_rate must lie in [0, 1]")
        edges = tuple(int(e) for e in self.detection_bins)
        if any(e < 0 for e in edges) or list(edges) != sorted(set(edges)):
            raise ValueError("detection_bins must be strictly increasing and >= 0")
        object.__setattr__(self, "detection_bins", edges)
        if 24 * self.n_bins > MAX_STATES:
            raise ValueError(
                f"detection_bins: {len(edges)} edges give {24 * self.n_bins} states, "
                f"more than the {MAX_STATES} a Q-table file holds"
            )
        if self.fixed_interval is not None:
            check_seconds(self.fixed_interval, "fixed_interval")
        if not self.train and self.fixed_interval is None:
            raise ValueError("train False needs fixed_interval")
        for entry in self.failures:
            if len(entry) != 2 or not 0 <= entry[1] < self.episodes:
                raise ValueError("failures entries are (device_id, 0 <= episode < episodes)")
        if len(dict(self.failures)) < len(self.failures):
            raise ValueError("failures: a device can fail only once")
        if self.layout is not None:
            ids = {n.id for n in self.layout}
            if len(ids) != len(self.layout):
                raise ValueError("layout: device ids must be unique")
            for did, _ep in self.failures:
                if did not in ids:
                    raise ValueError(f"failures: unknown device {did}")

    @property
    def n_bins(self) -> int:
        return len(self.detection_bins) + 1


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
        check_fields(self, ValueError, ranged=("seed",))
        if not 0 <= self.seed < 2**64:  # the seeds rng.substream takes
            raise ValueError(f"seed must lie in [0, 2**64), got {shown(self.seed)}")
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
