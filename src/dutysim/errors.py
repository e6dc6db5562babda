"""Exception types shared across the package, and the scalar rules that every
input dataclass and ``codec`` apply.

A field is an int or a float field by its annotation, and a tuple of numbers
holds one such kind per entry. An int field takes an int or numpy integer, not
a bool, within int64; a float field takes an int, float or numpy number, not a
bool or a string, that is finite in float64. ``check_fields`` holds each input
dataclass to these rules before its own range checks, and raises the class's
own error naming the field: ``battery_mah must be a number, got True``.
``codec`` refuses a config file's values with the same phrases (``refusal``).
``shown`` names, rather than prints, an int past int64 in a message.
"""

import dataclasses
import functools
import itertools
import math
import sys
import types
import typing

import numpy as np

_FLOAT_MAX = sys.float_info.max


class DutysimError(Exception):
    """Base class for package errors."""


class TraceFormatError(DutysimError):
    """Trace file could not be parsed."""


class TraceValidationError(DutysimError):
    """Trace content violates an invariant (order, bounds, duplicates)."""


class QTableFormatError(DutysimError):
    """Serialized Q-table is corrupt or truncated."""


class ActivityLogError(DutysimError):
    """Activity log has overlaps or coverage gaps."""


class ScheduleError(DutysimError):
    """Schedule definition cannot be simulated."""


class ConfigError(DutysimError):
    """Experiment configuration is invalid; message names the field."""


def is_int(value, within_int64: bool = True) -> bool:
    """Whether ``value`` is an int or numpy integer, not a bool, within int64 unless
    ``within_int64`` is False."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return False
    return not within_int64 or -(2**63) <= value < 2**63


def is_real(value) -> bool:
    """Whether ``value`` is an int, float or numpy number, not a bool or a string,
    that float64 holds; NaN and the infinities are floats, so they pass."""
    if isinstance(value, (float, np.floating)):
        return True
    return is_int(value, within_int64=False) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def shown(value, fmt=str) -> str:
    """``fmt(value)`` for a message, or "an integer past int64's range" for
    such an int: str and repr refuse an int past 4,300 digits."""
    if type(value) is int and not is_int(value):
        return "an integer past int64's range"
    return fmt(value)


def refusal(kind: type, value, within_int64: bool = True) -> tuple[str, str] | None:
    """None if ``value`` is a ``kind`` (int or float) scalar, else what one must be
    and what ``value`` is, in words: ("a finite number", "nan")."""
    if kind is int:
        if not is_int(value, within_int64=False):
            return "an integer", repr(value)
        if within_int64 and not is_int(value):
            return "an integer within int64", "an integer past int64's range"
        return None
    if is_real(value):
        return None if math.isfinite(value) else ("a finite number", str(value))
    if is_int(value, within_int64=False):
        return "a finite number", "an integer past the float range"
    return "a number", repr(value)


def check_value(kind, value, name: str, error: type[Exception], within_int64=True) -> None:
    """Raise ``error`` naming ``name``, or the entry ``name[i]`` of a tuple, where
    ``refusal`` refuses ``value`` or an entry of it. ``kind`` is int, float or the
    arguments of a tuple annotation of them, such as (float, ...); None passes."""
    if value is None:
        return
    if isinstance(kind, tuple):
        kinds = itertools.repeat(kind[0]) if kind[-1] is Ellipsis else kind
        for i, (item_kind, item) in enumerate(zip(kinds, value)):
            check_value(item_kind, item, f"{name}[{i}]", error, within_int64)
    elif (problem := refusal(kind, value, within_int64)) is not None:
        raise error(f"{name} must be {problem[0]}, got {problem[1]}")


def check_fields(obj, error: type[Exception], ranged: tuple[str, ...] = ()) -> None:
    """``check_value`` on each numeric field of dataclass ``obj``, before its own checks.

    The int fields in ``ranged`` may exceed int64: ``obj``'s own checks bound
    them, and name an int past int64 in their own words.
    """
    for name, kind in _numeric_fields(type(obj)):
        check_value(kind, getattr(obj, name), name, error, name not in ranged)


@functools.cache
def _numeric_fields(cls) -> tuple:
    """(name, kind) of each numeric field of ``cls``, read from its annotations once."""
    hints = typing.get_type_hints(cls)
    kinds = ((f.name, _kind(hints[f.name])) for f in dataclasses.fields(cls))
    return tuple((name, kind) for name, kind in kinds if kind is not None)


def _kind(tp):
    """int or float for a numeric annotation, ``X | None`` included, the arguments
    of a tuple annotation of numbers with each item's kind, or else None."""
    if typing.get_origin(tp) is types.UnionType:
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
    if typing.get_origin(tp) is tuple:
        items = tuple(a if a is Ellipsis else _kind(a) for a in typing.get_args(tp))
        return None if None in items else items
    return tp if tp in (int, float) else None
