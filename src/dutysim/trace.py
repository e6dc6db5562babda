"""Event traces.

A trace is an immutable, time-ordered list of events over a finite horizon.
Each event has a start time and a positive duration (seconds, half-open
interval [start, start + duration)), and may carry a dominant frequency band
in Hz and a 2D location in meters. Traces load from CSV or JSON, save back
losslessly, and can be generated synthetically from a diurnal profile via an
inhomogeneous Poisson process with piecewise-constant hourly rates.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import TraceFormatError, TraceValidationError
from .rng import substream

SECONDS_PER_DAY = 86400.0
SECONDS_PER_HOUR = 3600.0

_CSV_HEADER = ["id", "start", "duration", "band", "x", "y"]


def fmt_float(value: float) -> str:
    # Plain decimal notation with exact float round-trip.
    return np.format_float_positional(value, unique=True, trim="0")


@dataclass(frozen=True)
class Event:
    """One event on the timeline: [start, start + duration)."""

    id: int
    start: float
    duration: float
    band: float | None = None
    location: tuple[float, float] | None = None

    @property
    def end(self) -> float:
        return self.start + self.duration

    def validate(self) -> None:
        if self.start < 0:
            raise TraceValidationError(f"event {self.id}: start {self.start} < 0")
        if not self.duration > 0:
            raise TraceValidationError(
                f"event {self.id}: duration must be positive, got {self.duration}"
            )
        if self.band is not None and not self.band > 0:
            raise TraceValidationError(
                f"event {self.id}: band must be positive, got {self.band}"
            )


@dataclass(frozen=True)
class EventTrace:
    """Sorted events plus the span they live in.

    Events are ordered by (start, id), ids are unique, and every event fits
    inside [0, horizon). Instances are immutable; all mutation is rebuild.
    """

    events: tuple[Event, ...]
    horizon: float
    origin_hour: int = 0

    def __post_init__(self):
        if not self.horizon > 0:
            raise TraceValidationError(f"horizon must be positive, got {self.horizon}")
        if not 0 <= self.origin_hour < 24:
            raise TraceValidationError(
                f"origin_hour must be in [0, 24), got {self.origin_hour}"
            )
        seen: set[int] = set()
        prev = None
        for ev in self.events:
            ev.validate()
            if ev.id in seen:
                raise TraceValidationError(f"duplicate event id {ev.id}")
            seen.add(ev.id)
            if ev.end > self.horizon:
                raise TraceValidationError(
                    f"event {ev.id} ends at {ev.end}, beyond horizon {self.horizon}"
                )
            key = (ev.start, ev.id)
            if prev is not None and key < prev:
                raise TraceValidationError(
                    f"events out of order at id {ev.id}; sort by (start, id)"
                )
            prev = key

    def __len__(self) -> int:
        return len(self.events)

    def subset(self, keep) -> EventTrace:
        """The events whose flag in ``keep``, one bool per event, is true, over the same span.

        Any subsequence of a valid trace is valid, so the events are not
        checked again.
        """
        sub = object.__new__(EventTrace)
        events = tuple(ev for ev, k in zip(self.events, keep, strict=True) if k)
        object.__setattr__(sub, "events", events)
        object.__setattr__(sub, "horizon", self.horizon)
        object.__setattr__(sub, "origin_hour", self.origin_hour)
        return sub

    @cached_property
    def starts(self) -> np.ndarray:
        return np.array([ev.start for ev in self.events], dtype=np.float64)

    @cached_property
    def ends(self) -> np.ndarray:
        return np.array([ev.end for ev in self.events], dtype=np.float64)

    @cached_property
    def max_duration(self) -> float:
        return max((ev.duration for ev in self.events), default=0.0)

    @property
    def n_days(self) -> int:
        return int(math.ceil(self.horizon / SECONDS_PER_DAY))

    def hour_of(self, t: float) -> int:
        """Hour of day at trace time t, respecting origin_hour."""
        return int(self.origin_hour + t // SECONDS_PER_HOUR) % 24


def make_trace(
    events: list[Event],
    horizon: float | None = None,
    origin_hour: int = 0,
) -> EventTrace:
    """Build a trace from unordered events, defaulting the horizon.

    Without an explicit horizon, the span is the last event end rounded up to
    whole days (one day for an empty list).
    """
    ordered = tuple(sorted(events, key=lambda ev: (ev.start, ev.id)))
    if horizon is None:
        last = max((ev.end for ev in ordered), default=0.0)
        days = max(1, int(math.ceil(last / SECONDS_PER_DAY)))
        horizon = days * SECONDS_PER_DAY
    return EventTrace(events=ordered, horizon=float(horizon), origin_hour=origin_hour)


@dataclass(frozen=True)
class DiurnalProfile:
    """Piecewise-constant hourly event rates, a duration model, and the span.

    hourly_rate[h] is the expected number of events per hour at hour-of-day h.
    Durations are truncated-normal with a fixed floor of 0.5 s. A generated
    trace covers ``days`` whole days and starts at hour-of-day origin_hour.
    band_range=(lo, hi), 0 < lo <= hi, tags each event with a uniform band in
    Hz; area=(x0, x1, y0, y1) places each event uniformly in that rectangle.
    """

    hourly_rate: tuple[float, ...]
    duration_mean: float
    duration_sd: float
    days: int
    origin_hour: int = 0
    band_range: tuple[float, float] | None = None
    area: tuple[float, float, float, float] | None = None

    DURATION_FLOOR = 0.5

    def __post_init__(self):
        if len(self.hourly_rate) != 24:
            raise TraceValidationError(
                f"hourly_rate needs 24 entries, got {len(self.hourly_rate)}"
            )
        if any(r < 0 for r in self.hourly_rate):
            raise TraceValidationError("hourly_rate entries must be >= 0")
        if not self.duration_mean > 0:
            raise TraceValidationError("duration_mean must be positive")
        if self.duration_sd < 0:
            raise TraceValidationError("duration_sd must be >= 0")
        if self.days < 1:
            raise TraceValidationError(f"days must be >= 1, got {self.days}")
        if not 0 <= self.origin_hour < 24:
            raise TraceValidationError(
                f"origin_hour must be in [0, 24), got {self.origin_hour}"
            )
        if self.band_range is not None and not 0 < self.band_range[0] <= self.band_range[1]:
            raise TraceValidationError(
                f"band_range needs 0 < lo <= hi, got {self.band_range}"
            )
        if self.area is not None:
            x0, x1, y0, y1 = self.area
            if not (x0 <= x1 and y0 <= y1):
                raise TraceValidationError(f"area needs x0 <= x1 and y0 <= y1, got {self.area}")


def _truncated_normal(rng, mean, sd, lower, n):
    if n == 0:
        return np.empty(0)
    if sd == 0:
        return np.full(n, max(mean, lower))
    out = rng.normal(mean, sd, size=n)
    for _ in range(1000):
        bad = out < lower
        if not bad.any():
            return out
        out[bad] = rng.normal(mean, sd, size=int(bad.sum()))
    # Pathological mean far below the floor; settle rather than spin.
    return np.maximum(out, lower)


def generate_trace(profile: DiurnalProfile, seed: int) -> EventTrace:
    """Draw profile.days of events from the profile: Poisson counts per hour,
    uniform starts within the hour, truncated-normal durations, then the
    profile's band and location tags when it sets band_range or area.

    The same profile and seed always produce the same trace.
    """
    rng = substream(seed, "trace")
    days, origin_hour = profile.days, profile.origin_hour
    band_range, area = profile.band_range, profile.area
    horizon = days * SECONDS_PER_DAY
    starts_all: list[np.ndarray] = []
    durs_all: list[np.ndarray] = []
    for slot in range(days * 24):
        hod = (origin_hour + slot) % 24
        rate = profile.hourly_rate[hod]
        n = int(rng.poisson(rate)) if rate > 0 else 0
        if n == 0:
            continue
        t0 = slot * SECONDS_PER_HOUR
        starts = np.sort(rng.uniform(t0, t0 + SECONDS_PER_HOUR, size=n))
        durs = _truncated_normal(
            rng, profile.duration_mean, profile.duration_sd, DiurnalProfile.DURATION_FLOOR, n
        )
        starts_all.append(starts)
        durs_all.append(durs)
    if starts_all:
        starts = np.concatenate(starts_all)
        durs = np.concatenate(durs_all)
    else:
        starts = np.empty(0)
        durs = np.empty(0)
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    durs = np.minimum(durs[order], horizon - starts)

    n = len(starts)
    bands = rng.uniform(band_range[0], band_range[1], size=n) if band_range else None
    if area is not None:
        xs = rng.uniform(area[0], area[1], size=n)
        ys = rng.uniform(area[2], area[3], size=n)
    else:
        xs = ys = None

    events = [
        Event(
            id=i,
            start=float(starts[i]),
            duration=float(durs[i]),
            band=float(bands[i]) if bands is not None else None,
            location=(float(xs[i]), float(ys[i])) if xs is not None else None,
        )
        for i in range(n)
    ]
    return EventTrace(events=tuple(events), horizon=horizon, origin_hour=origin_hour)


def events_in_window(trace: EventTrace, t0: float, t1: float) -> list[Event]:
    """Events whose [start, end) intersects the half-open window [t0, t1)."""
    if t1 < t0:
        raise ValueError(f"window end {t1} before start {t0}")
    if t0 == t1 or len(trace) == 0:
        return []
    starts = trace.starts
    lo = int(np.searchsorted(starts, t0 - trace.max_duration, side="left"))
    out = []
    for i in range(lo, len(starts)):
        ev = trace.events[i]
        if ev.start >= t1:
            break
        if ev.end > t0:
            out.append(ev)
    return out


def hourly_event_probability(trace: EventTrace) -> np.ndarray:
    """Per hour-of-day, the fraction of days with at least one event start.

    Useful as the event_prob input when seeding a Q-table from observed
    activity.
    """
    days = trace.n_days
    seen = np.zeros((days, 24), dtype=bool)
    for ev in trace.events:
        day = int(ev.start // SECONDS_PER_DAY)
        seen[day, trace.hour_of(ev.start)] = True
    return seen.mean(axis=0)


# -- serialization ----------------------------------------------------------


def save_trace(trace: EventTrace, path: str | Path) -> None:
    """Write the trace as CSV or JSON, as the file suffix says."""
    path = Path(path)
    if _fmt_from_suffix(path) == "csv":
        _save_csv(trace, path)
    else:
        _save_json(trace, path)


def load_trace(path: str | Path) -> EventTrace:
    """Read a CSV or JSON trace, as the file suffix says."""
    path = Path(path)
    if _fmt_from_suffix(path) == "csv":
        return _load_csv(path)
    return _load_json(path)


def _fmt_from_suffix(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("csv", "json"):
        return suffix
    raise TraceFormatError(f"cannot infer trace format from {path.name!r}")


def _save_csv(trace: EventTrace, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# horizon={fmt_float(trace.horizon)}\n")
        fh.write(f"# origin_hour={trace.origin_hour}\n")
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for ev in trace.events:
            writer.writerow(
                [
                    ev.id,
                    fmt_float(ev.start),
                    fmt_float(ev.duration),
                    fmt_float(ev.band) if ev.band is not None else "",
                    fmt_float(ev.location[0]) if ev.location is not None else "",
                    fmt_float(ev.location[1]) if ev.location is not None else "",
                ]
            )


def _load_csv(path: Path) -> EventTrace:
    horizon = None
    origin_hour = 0
    events: list[Event] = []
    with open(path, newline="") as fh:
        lineno = 0
        header_seen = False
        reader = csv.reader(fh)
        for row in reader:
            lineno += 1
            if not row:
                continue
            if row[0].startswith("#"):
                meta = ",".join(row)[1:].strip()
                if "=" in meta:
                    key, _, value = meta.partition("=")
                    key = key.strip()
                    try:
                        if key == "horizon":
                            horizon = float(value)
                        elif key == "origin_hour":
                            origin_hour = int(value)
                    except ValueError as exc:
                        raise TraceFormatError(
                            f"{path.name}:{lineno}: bad {key} value {value!r}"
                        ) from exc
                continue
            if not header_seen:
                if [c.strip() for c in row] != _CSV_HEADER:
                    raise TraceFormatError(
                        f"{path.name}:{lineno}: expected header {','.join(_CSV_HEADER)}"
                    )
                header_seen = True
                continue
            events.append(_parse_csv_row(row, path.name, lineno))
    if not header_seen:
        raise TraceFormatError(f"{path.name}: missing header row")
    try:
        return make_trace(events, horizon=horizon, origin_hour=origin_hour)
    except TraceValidationError as exc:
        raise TraceValidationError(f"{path.name}: {exc}") from exc


def _parse_csv_row(row: list[str], name: str, lineno: int) -> Event:
    if len(row) != len(_CSV_HEADER):
        raise TraceFormatError(
            f"{name}:{lineno}: expected {len(_CSV_HEADER)} columns, got {len(row)}"
        )
    try:
        ev_id = int(row[0])
        start = float(row[1])
        duration = float(row[2])
        band = float(row[3]) if row[3].strip() else None
        x = float(row[4]) if row[4].strip() else None
        y = float(row[5]) if row[5].strip() else None
    except ValueError as exc:
        raise TraceFormatError(f"{name}:{lineno}: {exc}") from exc
    if (x is None) != (y is None):
        raise TraceFormatError(f"{name}:{lineno}: location needs both x and y")
    location = (x, y) if x is not None else None
    return Event(id=ev_id, start=start, duration=duration, band=band, location=location)


def _save_json(trace: EventTrace, path: Path) -> None:
    payload = {
        "horizon": trace.horizon,
        "origin_hour": trace.origin_hour,
        "events": [
            {
                "id": ev.id,
                "start": ev.start,
                "duration": ev.duration,
                **({"band": ev.band} if ev.band is not None else {}),
                **({"location": list(ev.location)} if ev.location is not None else {}),
            }
            for ev in trace.events
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_int(value, field: str) -> int:
    """A JSON integer; int() would truncate 1.5 and take true as 1."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def _json_float(value, field: str) -> float:
    """A JSON number as a float; float() would take true as 1.0 and "1.5" as 1.5."""
    if type(value) not in (int, float):
        raise TypeError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TypeError(f"{field} is too large for a float") from None


def _json_point(value) -> tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise TypeError(f"location must be a list of two numbers, got {value!r}")
    return (_json_float(value[0], "location"), _json_float(value[1], "location"))


def _load_json(path: Path) -> EventTrace:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path.name}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("events"), list):
        raise TraceFormatError(f"{path.name}: expected an object with an 'events' list")
    events = []
    for i, item in enumerate(payload["events"]):
        if not isinstance(item, dict):
            raise TraceFormatError(
                f"{path.name}: events[{i}]: expected an object, got {item!r}"
            )
        try:
            band, loc = item.get("band"), item.get("location")
            events.append(
                Event(
                    id=_json_int(item["id"], "id"),
                    start=_json_float(item["start"], "start"),
                    duration=_json_float(item["duration"], "duration"),
                    band=_json_float(band, "band") if band is not None else None,
                    location=_json_point(loc) if loc is not None else None,
                )
            )
        except (KeyError, TypeError) as exc:
            raise TraceFormatError(f"{path.name}: events[{i}]: {exc}") from exc
    meta = {}
    parsers = (
        ("horizon", lambda v: _json_float(v, "horizon")),
        ("origin_hour", lambda v: _json_int(v, "origin_hour")),
    )
    for key, parse in parsers:
        value = payload.get(key)
        if value is None:
            continue
        try:
            meta[key] = parse(value)
        except TypeError as exc:
            raise TraceFormatError(f"{path.name}: bad {key} value {value!r}") from exc
    try:
        return make_trace(events, **meta)
    except TraceValidationError as exc:
        raise TraceValidationError(f"{path.name}: {exc}") from exc
