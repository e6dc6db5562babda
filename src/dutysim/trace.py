"""Event traces.

A trace is an immutable, time-ordered set of events over a finite horizon,
held as the six columns of its file formats: id, start, duration, band, x
and y. Each event has an id, a start time and a positive duration (seconds,
half-open interval [start, start + duration)), and may carry a dominant
frequency band in Hz and a 2D location in meters; the ends are derived from
the starts and durations on each read, never stored. ``Event`` is a row
view, built on demand for the rows asked and never kept with the trace.
``TickView`` is the engines' view: read-only 8-byte buffers of the starts
and ends in integer nanosecond ticks and of the bands, built once per trace
on first use and shared by every ``sim.TimelineEngine`` over it, so no
engine, and no network device, converts or copies the columns. Traces load
from CSV or JSON, save back losslessly, and can be generated synthetically
from a diurnal profile via an inhomogeneous Poisson process with
piecewise-constant hourly rates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codec import decode
from .errors import TraceFormatError, TraceValidationError
from .power import check_seconds
from .rng import substream

SECONDS_PER_DAY = 86400.0
SECONDS_PER_HOUR = 3600.0

# The largest rate numpy's Poisson sampler accepts: int64 max - 10 * sqrt(int64 max).
_POISSON_MAX_RATE = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)

# The largest trace generate_trace makes, and the longest horizon load_trace
# takes from a file. Each hour of a day costs it a few
# Poisson, uniform and normal draws, about 15 us with events in it, and each
# event about 160 bytes at peak (2-vCPU x86-64, numpy 2): 10,000 days at 5
# events an hour generated in 5.1 s, and 2.4 M events in one day in 0.8 s
# and 424 MB, so a trace at both limits generates in about 10 s within ~1 GB.
MAX_DAYS = 10_000
MAX_EXPECTED_EVENTS = 5_000_000

_CSV_HEADER = ["id", "start", "duration", "band", "x", "y"]
_CSV_META = {"horizon": float, "origin_hour": int}  # "# key=value" comments
_COLUMNS = ("ids", "starts", "durations", "bands", "xs", "ys")
_OPTIONAL = ("bands", "xs", "ys")  # None in an Event: untagged, or no location


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


class TickView(NamedTuple):
    """A trace's columns as the engine reads them: read-only memoryviews, one item per event.

    ``starts`` and ``ends`` are int64 nanosecond ticks (``power.to_ticks``);
    ``bands`` is the trace's own float64 ``bands`` column, NaN where an event
    is untagged. Each column holds 8 bytes per event, and an item read from
    it is a Python ``int`` or ``float``.
    """

    starts: memoryview
    ends: memoryview
    bands: memoryview


@dataclass(frozen=True, eq=False)
class EventTrace:
    """Events as columns plus the span they live in.

    ``ids`` is int64, and a float, bool or out-of-range id is refused, not
    cast, as is a non-integer ``origin_hour``. ``starts``, ``durations``,
    ``bands``, ``xs`` and ``ys`` are float64; ``bands`` is NaN where an
    event is untagged, ``xs`` and ``ys`` where it has no location, and a
    column left out is all NaN.
    These six columns are all the events the trace stores: ``ends``,
    ``starts + durations``, is computed on each read. Events are ordered
    by (start, id), ids are unique, values are finite, and every event fits
    inside [0, horizon), a span within ``power.MAX_SECONDS``. The columns are
    read-only copies; all mutation is rebuild. ``tick_view``, the engines'
    ``TickView``, is built on first use and kept with the trace. The view
    adds 16 bytes per event, the two tick columns, and shares ``bands``.
    """

    ids: np.ndarray
    starts: np.ndarray
    durations: np.ndarray
    horizon: float
    origin_hour: int = 0
    bands: np.ndarray | None = None
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise TraceValidationError(f"horizon must be positive and finite, got {self.horizon}")
        # Every event ends by the horizon, so this bounds every start and end in ticks too.
        check_seconds(self.horizon, "horizon", TraceValidationError)
        if not (_is_int64(self.origin_hour) and 0 <= self.origin_hour < 24):
            got = _shown(self.origin_hour, repr)
            raise TraceValidationError(f"origin_hour must be an integer in [0, 24), got {got}")
        n = len(self.ids)
        for name in _COLUMNS:
            value = getattr(self, name)
            dtype = np.int64 if name == "ids" else np.float64
            # An int64 cast would truncate 1.7 to 1, take True as 1 and wrap
            # 2**63 to -2**63; a float64 cast parses '5' and takes True as 1.
            # Signed integer arrays need no check for ids, nor real ones for floats.
            if isinstance(value, np.ndarray):
                if value.dtype.kind not in ("i" if name == "ids" else "iuf"):
                    _check_column(name, value.tolist())
            elif value is not None:
                _check_column(name, value if np.iterable(value) else [value])
            col = np.full(n, np.nan) if value is None else np.array(value, dtype)
            if col.shape != (n,):
                got = f"shape {col.shape}" if col.ndim else f"the scalar {value!r}"
                raise TraceValidationError(f"{name} must be a 1-D column, length {n}, got {got}")
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        self._validate()

    @property
    def ends(self) -> np.ndarray:
        """``starts + durations``, a new array on each read."""
        return self.starts + self.durations

    def _validate(self) -> None:
        """Name the first event that breaks a rule, and the first rule it breaks."""
        ids, starts, durations, bands, xs, ys = (getattr(self, c) for c in _COLUMNS)
        duplicate = np.ones(len(ids), dtype=bool)
        duplicate[np.unique(ids, return_index=True)[1]] = False
        unordered = np.zeros(len(ids), dtype=bool)
        same_start = starts[1:] == starts[:-1]
        unordered[1:] = (starts[1:] < starts[:-1]) | (same_start & (ids[1:] < ids[:-1]))
        rules = (
            (starts < 0, "event {id}: start {start} < 0"),
            (~np.isfinite(starts), "event {id}: start must be finite, got {start}"),
            (~(durations > 0), "event {id}: duration must be positive, got {duration}"),
            (np.isinf(durations), "event {id}: duration must be finite, got {duration}"),
            (bands <= 0, "event {id}: band must be positive, got {band}"),
            (np.isinf(bands), "event {id}: band must be finite, got {band}"),
            (np.isinf(xs) | np.isinf(ys), "event {id}: location must be finite, got ({x}, {y})"),
            (np.isnan(xs) != np.isnan(ys), "event {id}: location needs both x and y"),
            (duplicate, "duplicate event id {id}"),
            (self.ends > self.horizon, "event {id} ends at {end}, beyond horizon {horizon}"),
            (unordered, "events out of order at id {id}; sort by (start, id)"),
        )
        bad = np.zeros(len(ids), dtype=bool)
        for mask, _ in rules:
            bad |= mask
        if bad.any():
            i = int(bad.argmax())
            row = dict(zip(_CSV_HEADER, (getattr(self, c)[i].item() for c in _COLUMNS)))
            rule = next(message for mask, message in rules if mask[i])
            raise TraceValidationError(
                rule.format(**row, end=self.ends[i].item(), horizon=self.horizon)
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventTrace):
            return NotImplemented
        return (self.horizon, self.origin_hour) == (other.horizon, other.origin_hour) and all(
            np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True) for c in _COLUMNS
        )

    @cached_property
    def tick_view(self) -> TickView:
        def ticks(col):
            out = np.rint(col * 1e9).astype(np.int64)
            out.setflags(write=False)
            return memoryview(out)

        return TickView(ticks(self.starts), ticks(self.ends), memoryview(self.bands))

    @property
    def n_days(self) -> int:
        return int(math.ceil(self.horizon / SECONDS_PER_DAY))

    def hour_of(self, t: float) -> int:
        """Hour of day at trace time t, respecting origin_hour."""
        return int(self.origin_hour + t // SECONDS_PER_HOUR) % 24


def _is_int64(value) -> bool:
    """Whether ``value`` is an integer, not a bool, that an int64 column holds."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and -(2**63) <= value < 2**63


def _shown(value, fmt=str) -> str:
    """``fmt(value)`` for a message, or "an integer past int64's range" for
    such an int: str and repr refuse an int past 4,300 digits."""
    if type(value) is int and not _is_int64(value):
        return "an integer past int64's range"
    return fmt(value)


def _is_real(value) -> bool:
    """Whether ``value`` is a number, not a bool, a string or an int past float64's range."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return -sys.float_info.max <= value <= sys.float_info.max  # else the cast overflows
    return isinstance(value, (float, np.floating))


def _check_column(name: str, values) -> None:
    """TraceValidationError naming the first value a cast to column ``name`` would change."""
    ok, kind = (_is_int64, "integers within int64") if name == "ids" else (_is_real, "numbers")
    for value in values:
        if not ok(value):
            field_name = _CSV_HEADER[_COLUMNS.index(name)]
            # An int past the column's range is not shown: repr refuses past 4,300 digits.
            limit = "int64" if name == "ids" else "float64"
            got = f"past {limit}'s range" if type(value) is int else repr(value)
            raise TraceValidationError(f"{name} must be {kind}, got event {field_name} {got}")


def make_trace(
    events: list[Event],
    horizon: float | None = None,
    origin_hour: int = 0,
) -> EventTrace:
    """Build a trace from unordered events, defaulting the horizon.

    Without an explicit horizon, the span is the last finite event end
    rounded up to whole days (one day for an empty list). A NaN band or
    coordinate is rejected: the columns read NaN as "untagged" or "none".
    """
    rows = [(ev.id, ev.start, ev.duration, ev.band, *_xy(ev)) for ev in events]
    # Checked before the sort, which compares ids, and the float cast, which parses strings.
    for name, values in zip(_COLUMNS, zip(*rows)):
        _check_column(name, [v for v in values if v is not None] if name in _OPTIONAL else values)
    rows.sort(key=lambda row: (row[1], row[0]))
    for row in rows:
        if any(v is not None and math.isnan(v) for v in row[3:]):
            raise TraceValidationError(f"event {row[0]}: band and location must not be NaN")
    # One column at a time; None casts to NaN, and an int64 array is not checked again.
    ids, starts, durations, bands, xs, ys = (
        np.array([row[k] for row in rows], np.float64 if k else np.int64)
        for k in range(len(_COLUMNS))
    )
    del rows  # free the row tuples before EventTrace copies the columns
    if horizon is None:
        ends = starts + durations
        last = ends[np.isfinite(ends)].max(initial=0.0)
        horizon = max(1, math.ceil(last / SECONDS_PER_DAY)) * SECONDS_PER_DAY
    return EventTrace(ids, starts, durations, float(horizon), origin_hour, bands, xs, ys)


def _xy(ev: Event) -> tuple:
    """The event's location as (x, y), or (None, None) when it has none."""
    try:
        x, y = (None, None) if ev.location is None else ev.location
    except (TypeError, ValueError):
        message = f"event {ev.id}: location must be a pair (x, y), got {ev.location!r}"
        raise TraceValidationError(message) from None
    return x, y


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
        for hour, r in enumerate(self.hourly_rate):
            if r > _POISSON_MAX_RATE:
                raise TraceValidationError(
                    f"hourly_rate[{hour}] must be <= {_POISSON_MAX_RATE!r}, "
                    f"numpy's Poisson limit, got {r!r}"
                )
        if not self.duration_mean > 0:
            raise TraceValidationError("duration_mean must be positive")
        if self.duration_sd < 0:
            raise TraceValidationError("duration_sd must be >= 0")
        for name in ("days", "origin_hour"):
            value = getattr(self, name)
            # An int past int64 is still an integer: the range checks refuse it.
            if not (_is_int64(value) or type(value) is int):
                raise TraceValidationError(f"{name} must be an integer, got {value!r}")
        if self.days < 1:
            raise TraceValidationError(f"days must be >= 1, got {_shown(self.days)}")
        if not 0 <= self.origin_hour < 24:
            raise TraceValidationError(
                f"origin_hour must be in [0, 24), got {_shown(self.origin_hour)}"
            )
        if self.band_range is not None and not 0 < self.band_range[0] <= self.band_range[1]:
            raise TraceValidationError(
                f"band_range needs 0 < lo <= hi, got {self.band_range}"
            )
        if self.area is not None:
            x0, x1, y0, y1 = self.area
            if not (x0 <= x1 and y0 <= y1):
                raise TraceValidationError(f"area needs x0 <= x1 and y0 <= y1, got {self.area}")
            # numpy's uniform draws need a finite width and height.
            if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
                raise TraceValidationError(
                    f"area width and height must be finite, got {self.area}"
                )


def _truncated_normal(rng, mean, sd, lower, n):
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

    The same profile and seed always produce the same trace. A profile of
    more than MAX_DAYS days, or of more than MAX_EXPECTED_EVENTS expected
    events (sum(hourly_rate) * days), is refused with a TraceValidationError.
    """
    if profile.days > MAX_DAYS:
        raise TraceValidationError(f"days must be <= {MAX_DAYS}, got {_shown(profile.days)}")
    expected = math.fsum(profile.hourly_rate) * profile.days
    if not expected <= MAX_EXPECTED_EVENTS:
        raise TraceValidationError(
            f"hourly_rate: sum(hourly_rate) * days, the expected event count, "
            f"must be <= {MAX_EXPECTED_EVENTS}, got {expected:g}"
        )
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
        starts = rng.uniform(t0, t0 + SECONDS_PER_HOUR, size=n)
        starts.sort()
        durs = _truncated_normal(
            rng, profile.duration_mean, profile.duration_sd, DiurnalProfile.DURATION_FLOOR, n
        )
        starts_all.append(starts)
        durs_all.append(durs)
    # Each hour's starts are sorted and the hours ascend, so the events are
    # already in (start, id) order; EventTrace checks it.
    starts = np.concatenate(starts_all) if starts_all else np.empty(0)
    durs = np.concatenate(durs_all) if durs_all else np.empty(0)
    del starts_all, durs_all  # free the per-hour arrays before EventTrace copies the columns
    np.minimum(durs, horizon - starts, out=durs)

    n = len(starts)
    bands = rng.uniform(band_range[0], band_range[1], size=n) if band_range else None
    if area is not None:
        xs = rng.uniform(area[0], area[1], size=n)
        ys = rng.uniform(area[2], area[3], size=n)
    else:
        xs = ys = None
    return EventTrace(np.arange(n), starts, durs, horizon, origin_hour, bands, xs, ys)


def window_rows(trace: EventTrace, t0: float, t1: float) -> np.ndarray:
    """The rows, ascending, whose [start, end) meets [t0, t1): start < t1 and end > t0.

    The package's one window rule: events_in_window and the reports ask it
    on the float columns. The engine applies the same rule in its own
    forward walk over tick columns, from its event pointer, and
    test_engine_bulk checks every probe it makes against a linear scan.
    """
    return np.flatnonzero((trace.starts < t1) & (trace.ends > t0))


def events_in_window(trace: EventTrace, t0: float, t1: float) -> list[Event]:
    """Events whose [start, end) meets the half-open window [t0, t1), as ``window_rows`` says."""
    if t1 < t0:
        raise ValueError(f"window end {t1} before start {t0}")
    if t0 == t1:
        return []
    rows = window_rows(trace, t0, t1)
    return [
        Event(i, s, d, None if math.isnan(b) else b, None if math.isnan(x) else (x, y))
        for i, s, d, b, x, y in zip(*(getattr(trace, c)[rows].tolist() for c in _COLUMNS))
    ]


def hourly_event_probability(trace: EventTrace, days: int | None = None) -> np.ndarray:
    """Per hour-of-day, the fraction of the first ``days`` days (default: all)
    with at least one event start.

    Useful as the event_prob input when seeding a Q-table from observed
    activity.
    """
    days = trace.n_days if days is None else days
    starts = trace.starts[trace.starts < days * SECONDS_PER_DAY]
    hours = (trace.origin_hour + starts // SECONDS_PER_HOUR).astype(np.int64) % 24
    cells = (starts // SECONDS_PER_DAY).astype(np.int64) * 24 + hours
    seen = np.bincount(cells, minlength=days * 24).reshape(days, 24) > 0
    return seen.mean(axis=0)


# -- serialization ----------------------------------------------------------


def read_input(path: Path, error: type[Exception], what: str) -> str:
    """The UTF-8 text of an input file, the one way the package reads one.

    A missing file, a directory or bytes that are not UTF-8 raise ``error``
    naming the file; other OS-level failures (no permission) propagate as they are.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except IsADirectoryError:
        raise error(f"{what} is a directory: {path}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e})") from None


def read_json(path: Path, error: type[Exception], what: str):
    """An input file's JSON through ``read_input``; bad JSON raises ``error`` naming the file.

    Past syntax errors, json.loads raises ValueError for an integer over the
    int-string digit limit and RecursionError for deep nesting.
    """
    text = read_input(path, error, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(f"{path}: invalid JSON ({e})") from None


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as the package writes every JSON output: sorted keys,
    indent 2 and a trailing newline, streamed rather than built as one string."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_trace(trace: EventTrace, path: str | Path) -> None:
    """Write the trace as CSV or JSON, as the file suffix says."""
    path = Path(path)
    if _fmt_from_suffix(path) == "csv":
        _save_csv(trace, path)
    else:
        _save_json(trace, path)


def load_trace(path: str | Path) -> EventTrace:
    """Read a CSV or JSON trace, as the file suffix says.

    A file's horizon, given or derived from its events, is held to MAX_DAYS
    days as a generated trace is. A TraceValidationError names the file; a
    TraceFormatError names it already, with the line where it has one.
    """
    path = Path(path)
    file = _load_csv(path) if _fmt_from_suffix(path) == "csv" else _load_json(path)
    try:
        trace = make_trace(file.events, file.horizon, file.origin_hour or 0)
        if trace.horizon > MAX_DAYS * SECONDS_PER_DAY:
            raise TraceValidationError(
                f"horizon must be <= {MAX_DAYS} days "
                f"({fmt_float(MAX_DAYS * SECONDS_PER_DAY)} s), got {fmt_float(trace.horizon)}"
            )
    except TraceValidationError as exc:
        raise TraceValidationError(f"{path.name}: {exc}") from exc
    return trace


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
        # NaN (untagged, no location) is an empty cell.
        cells = [
            ["" if math.isnan(v) else fmt_float(v) for v in getattr(trace, c).tolist()]
            for c in _COLUMNS[1:]
        ]
        writer.writerows(zip(trace.ids.tolist(), *cells))


def _load_csv(path: Path) -> _TraceFile:
    meta = {}
    events: list[Event] = []
    header_seen = False
    text = read_input(path, TraceFormatError, "trace file")
    with io.StringIO(text, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if row[0].startswith("#"):
                # A comment is metadata when the text before its first "=" is
                # an identifier; any other comment is free text.
                key, eq, value = ",".join(row)[1:].strip().partition("=")
                key = key.strip()
                if not (eq and key.isidentifier()):
                    continue
                if key not in _CSV_META:
                    raise TraceFormatError(
                        f"{path.name}:{lineno}: unknown metadata key {key!r}; "
                        f"known keys: {', '.join(_CSV_META)}"
                    )
                try:
                    meta[key] = _CSV_META[key](value)
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
    return _TraceFile(tuple(events), **meta)


def _parse_csv_row(row: list[str], name: str, lineno: int) -> Event:
    if len(row) != len(_CSV_HEADER):
        raise TraceFormatError(
            f"{name}:{lineno}: expected {len(_CSV_HEADER)} columns, got {len(row)}"
        )
    try:
        ev_id = int(row[0])
        if not _is_int64(ev_id):
            raise ValueError(f"id {ev_id} does not fit in int64")
        start = float(row[1])
        duration = float(row[2])
        band, x, y = (float(cell) if cell.strip() else None for cell in row[3:])
    except ValueError as exc:
        raise TraceFormatError(f"{name}:{lineno}: {exc}") from exc
    if (x is None) != (y is None):
        raise TraceFormatError(f"{name}:{lineno}: location needs both x and y")
    location = (x, y) if x is not None else None
    return Event(id=ev_id, start=start, duration=duration, band=band, location=location)


def _save_json(trace: EventTrace, path: Path) -> None:
    # Each event's object is built from the columns; NaN (untagged, no location) is left out.
    events = []
    for i, s, d, b, x, y in zip(*(getattr(trace, c).tolist() for c in _COLUMNS)):
        event = {"id": i, "start": s, "duration": d}
        if not math.isnan(b):
            event["band"] = b
        if not math.isnan(x):
            event["location"] = [x, y]
        events.append(event)
    write_json(path, {"horizon": trace.horizon, "origin_hour": trace.origin_hour, "events": events})


@dataclass(frozen=True)
class _TraceFile:
    """A trace file's events, and its span where the file sets it; a JSON file's schema."""

    events: tuple[Event, ...]
    horizon: float | None = None
    origin_hour: int | None = None


def _load_json(path: Path) -> _TraceFile:
    payload = read_json(path, TraceFormatError, "trace file")
    return decode(_TraceFile, payload, path.name, TraceFormatError)
