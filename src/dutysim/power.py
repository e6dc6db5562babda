"""Energy accounting.

Time is kept in integer nanosecond ticks: a duration of s seconds is
``to_ticks(s) = rint(s * 1e9)`` ticks. Activity logs are ordered
(mode, start, duration) entries, in ticks, that tile a span with no gaps or
overlaps. Charge is the sum over modes of current times the mode's total
ticks, in mAh, rounded once per mode; projected lifetime divides battery
capacity by average current using 8766 hours per year (365.25 days).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import ActivityLogError

__all__ = [
    "PowerProfile",
    "LogEntry",
    "MAX_BATTERY_MAH",
    "MAX_CURRENT_MA",
    "MAX_SECONDS",
    "MODES",
    "TICKS_PER_S",
    "charge_consumed",
    "charge_from_ticks",
    "check_seconds",
    "lifetime_years",
    "to_ticks",
    "validate_log",
]

HOURS_PER_YEAR = 8766.0  # 365.25 days
TICKS_PER_S = 1_000_000_000
_TICKS_PER_HOUR = 3600.0 * TICKS_PER_S
# The longest duration or interval, in seconds, that the engine's clock
# holds: to_ticks of it stays within int64 (about 292 years). Every value
# that becomes ticks is checked against it, by check_seconds alone.
MAX_SECONDS = (2**63 - 1) // TICKS_PER_S
# The largest mode current and battery capacity. A trace of trace.MAX_DAYS
# days is 240,000 hours, so even with every mode at MAX_CURRENT_MA a device
# draws under 2.2e12 mAh: charges, battery levels and the network's spread
# of levels (a standard deviation, which squares them) stay finite.
MAX_CURRENT_MA = 1e6
MAX_BATTERY_MAH = 1e12


def to_ticks(seconds: float) -> int:
    """Nanosecond ticks nearest to ``seconds`` (ties to even, like rint)."""
    return round(seconds * 1e9)


def check_seconds(value: float, name: str, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` seconds fit the tick clock.

    NaN fails too, so a value that passes converts with ``to_ticks``.
    """
    if not value <= MAX_SECONDS:
        raise error(f"{name} must be <= {MAX_SECONDS} s, the engine clock's limit, got {value}")


MODES = (
    "sleep",
    "probe",
    "event_record",
    "tx_audio",
    "tx_image",
    "camera",
    "ql_infer",
    "ql_update",
    "ping",
)


class LogEntry(NamedTuple):
    """One activity: ``mode`` from ``start`` for ``duration``, both in ticks."""

    mode: str
    start: int
    duration: int


# The fields in seconds that the engine reads in ticks.
_TICK_FIELDS = (
    "d_probe", "d_ql", "d_tx_audio", "d_tx_image", "d_camera", "d_ping",
    "probe_record_s", "false_alarm_record_s",
)


@dataclass(frozen=True)
class PowerProfile:
    """Mode currents (mA) and fixed activity durations (s).

    probe_detector picks which probe current applies; d_probe should be kept
    in step with it (record window plus detector latency). Currents lie in
    [0, MAX_CURRENT_MA], battery_mah in (0, MAX_BATTERY_MAH] and every
    duration within MAX_SECONDS.
    """

    i_sleep: float = 0.097
    i_record_3s: float = 31.57
    i_probe_goertzel: float = 32.34
    i_probe_tflite: float = 33.11
    i_camera: float = 49.33
    i_tx_audio: float = 61.33
    i_tx_image: float = 97.73
    i_ql_infer: float = 0.031
    i_ql_update: float = 0.071
    # Radio ping billed at the scheduler-inference rate for lack of a
    # measured figure; both knobs are override-able.
    i_ping: float = 0.031
    d_ping: float = 0.01
    d_probe: float = 0.13
    d_ql: float = 0.1
    d_tx_audio: float = 1.0
    d_tx_image: float = 2.0
    d_camera: float = 0.5
    battery_mah: float = 13400.0
    camera_trigger_ratio: float = 1.0 / 3.0
    probe_record_s: float = 0.1
    false_alarm_record_s: float = 3.0
    probe_detector: str = "goertzel"

    def __post_init__(self):
        for name in (
            "i_sleep",
            "i_record_3s",
            "i_probe_goertzel",
            "i_probe_tflite",
            "i_camera",
            "i_tx_audio",
            "i_tx_image",
            "i_ql_infer",
            "i_ql_update",
            "i_ping",
        ):
            value = getattr(self, name)
            if not 0 <= value <= MAX_CURRENT_MA:
                raise ValueError(f"{name} must be in [0, {MAX_CURRENT_MA:g}] mA, got {value}")
        for name in _TICK_FIELDS:
            value = getattr(self, name)
            check_seconds(value, name)
            if name != "false_alarm_record_s" and to_ticks(value) <= 0:
                raise ValueError(f"{name} must be at least 1 ns, got {value}")
        if self.false_alarm_record_s < 0:
            raise ValueError(
                f"false_alarm_record_s must be >= 0 s, got {self.false_alarm_record_s}"
            )
        if not 0 < self.battery_mah <= MAX_BATTERY_MAH:
            raise ValueError(
                f"battery_mah must be in (0, {MAX_BATTERY_MAH:g}] mAh, got {self.battery_mah}"
            )
        if not 0 <= self.camera_trigger_ratio <= 1:
            raise ValueError("camera_trigger_ratio must lie in [0, 1]")
        if self.probe_detector not in ("goertzel", "tflite"):
            raise ValueError(f"unknown probe_detector {self.probe_detector!r}")
        if to_ticks(self.probe_record_s) > to_ticks(self.d_probe):
            raise ValueError("need 0 < probe_record_s <= d_probe")

    @cached_property
    def _current_by_mode(self) -> dict[str, float]:
        """mA per mode, keyed in MODES order, the order charge_from_ticks sums in."""
        return {
            "sleep": self.i_sleep,
            "probe": (
                self.i_probe_goertzel
                if self.probe_detector == "goertzel"
                else self.i_probe_tflite
            ),
            "event_record": self.i_record_3s,
            "tx_audio": self.i_tx_audio,
            "tx_image": self.i_tx_image,
            "camera": self.i_camera,
            "ql_infer": self.i_ql_infer,
            "ql_update": self.i_ql_update,
            "ping": self.i_ping,
        }

    @cached_property
    def ticks(self) -> dict[str, int]:
        """Each fixed duration (d_* and *_record_s fields) in ticks."""
        return {name: to_ticks(getattr(self, name)) for name in _TICK_FIELDS}

    def current(self, mode: str) -> float:
        """mA drawn in the given activity mode."""
        try:
            return self._current_by_mode[mode]
        except KeyError:
            raise ValueError(f"unknown activity mode {mode!r}") from None


def validate_log(entries: Iterable[LogEntry], span: int | None = None) -> list[LogEntry]:
    """Check the entries tile a contiguous span; returns them sorted by start.

    Starts and durations are integer ticks, so every join is exact: each
    start equals the previous start + duration. With ``span`` (ticks) the
    entries must cover exactly that many ticks.
    """
    log = sorted(entries, key=lambda e: (e.start, e.mode))
    expect = None
    for i, entry in enumerate(log):
        if entry.duration < 0:
            raise ActivityLogError(f"entry {i}: negative duration {entry.duration}")
        if expect is not None:
            if entry.start < expect:
                raise ActivityLogError(
                    f"entry {i}: overlap, starts at {entry.start} before {expect}"
                )
            if entry.start > expect:
                raise ActivityLogError(
                    f"entry {i}: gap, starts at {entry.start} after {expect}"
                )
        expect = entry.start + entry.duration
    if span is not None:
        start0 = log[0].start if log else 0
        end = expect if expect is not None else start0
        if end - start0 != span:
            raise ActivityLogError(f"log covers {end - start0} ticks, expected span {span}")
    return log


def charge_from_ticks(ticks_by_mode: Mapping[str, int], profile: PowerProfile) -> float:
    """mAh drawn for the given ticks per mode.

    Sum over MODES, in that order, of current * ticks / 3.6e12: one rounding
    per mode, whatever the number or order of the activities behind it.
    """
    total = 0.0
    for mode, current in profile._current_by_mode.items():
        total += current * ticks_by_mode.get(mode, 0) / _TICKS_PER_HOUR
    return total


def charge_consumed(
    entries: Iterable[LogEntry],
    profile: PowerProfile,
    span: int | None = None,
) -> float:
    """mAh drawn over the log; validates coverage first.

    The ticks are summed per mode, exactly, and billed with
    ``charge_from_ticks``, the formula the simulator uses online, so online
    and offline totals are equal.
    """
    ticks_by_mode = dict.fromkeys(MODES, 0)
    for entry in validate_log(entries, span):
        if entry.mode not in ticks_by_mode:
            raise ValueError(f"unknown activity mode {entry.mode!r}")
        ticks_by_mode[entry.mode] += entry.duration
    return charge_from_ticks(ticks_by_mode, profile)


def lifetime_years(avg_current_ma: float, battery_mah: float) -> float:
    """Years until the battery drains at the given average draw."""
    if avg_current_ma <= 0:
        raise ValueError(f"average current must be positive, got {avg_current_ma}")
    if battery_mah <= 0:
        raise ValueError(f"battery capacity must be positive, got {battery_mah}")
    return battery_mah / avg_current_ma / HOURS_PER_YEAR
