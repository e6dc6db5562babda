"""Trace-driven simulation of an adaptive duty-cycle acoustic scheduler.

The package simulates a battery-powered sensing device that wakes on a
schedule, probes a short audio window through a Goertzel filter bank gate,
records detected events, and learns per-hour wake intervals with tabular
Q-learning. It models measured per-mode currents to project battery
lifetime, and extends to networks of overlapping devices that trade pings
to cut duplicated detections.
"""

from .collab import (
    Cluster,
    DeviceNode,
    NetworkConfig,
    NetworkReport,
    deliver_pings,
    event_hashes,
    expand_global_table,
    form_clusters,
    local_reward,
    network_reward,
    run_network,
)
from .detect import (
    DetectorModel,
    GoertzelBank,
    default_bank,
    gate,
    goertzel_spectrum,
    synthesize_tone,
)
from .errors import (
    ActivityLogError,
    ConfigError,
    DutysimError,
    QTableFormatError,
    ScheduleError,
    TraceFormatError,
    TraceValidationError,
)
from .power import LogEntry, PowerProfile, charge_consumed, lifetime_years, validate_log
from .qsched import (
    DEFAULT_ACTIONS,
    ActionSpace,
    Hyperparameters,
    QTable,
    decay_epsilon,
    init_from_distribution,
    load_qtable,
    q_update,
    reward,
    save_qtable,
    select_action,
)
from .rng import substream
from .sim import (
    FixedSchedule,
    GreedySchedule,
    SimReport,
    TrainResult,
    convergence_episodes,
    run_schedule,
    train_qlearn,
)
from .trace import (
    DiurnalProfile,
    Event,
    EventTrace,
    events_in_window,
    generate_trace,
    hourly_event_probability,
    load_trace,
    make_trace,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpace",
    "ActivityLogError",
    "Cluster",
    "ConfigError",
    "DEFAULT_ACTIONS",
    "DetectorModel",
    "DeviceNode",
    "DiurnalProfile",
    "DutysimError",
    "Event",
    "EventTrace",
    "FixedSchedule",
    "GoertzelBank",
    "GreedySchedule",
    "Hyperparameters",
    "LogEntry",
    "NetworkConfig",
    "NetworkReport",
    "PowerProfile",
    "QTable",
    "QTableFormatError",
    "ScheduleError",
    "SimReport",
    "TraceFormatError",
    "TraceValidationError",
    "TrainResult",
    "charge_consumed",
    "convergence_episodes",
    "decay_epsilon",
    "default_bank",
    "deliver_pings",
    "event_hashes",
    "events_in_window",
    "expand_global_table",
    "form_clusters",
    "gate",
    "generate_trace",
    "goertzel_spectrum",
    "hourly_event_probability",
    "init_from_distribution",
    "lifetime_years",
    "load_qtable",
    "load_trace",
    "local_reward",
    "make_trace",
    "network_reward",
    "q_update",
    "reward",
    "run_network",
    "run_schedule",
    "save_qtable",
    "save_trace",
    "select_action",
    "substream",
    "synthesize_tone",
    "train_qlearn",
    "validate_log",
    "__version__",
]
