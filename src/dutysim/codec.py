"""JSON codec for the package's frozen dataclasses: config, layout and trace files,
and the summaries that ``run`` and ``run-network`` write.

A dataclass's field names are its JSON keys and its annotations the checks:
int, float, str, bool, ``X | None``, ``tuple[T, ...]``, fixed-length tuples
and nested dataclasses. int and float values are held to ``errors.refusal``,
the scalar rules each input dataclass's ``errors.check_fields`` applies to a
library call, in the same words: true/false is no number, and a float field
refuses NaN, ±inf and 1e400. An int of any size decodes, and the built type
bounds it. A field whose metadata names ``overrides`` holds a sparse
map of that dataclass's fields, checked against a full instance and kept as
sorted (name, value) pairs. A type's invariants live in its ``__post_init__``
and run at decode time. Each annotation's decoder is built once. ``shape``
declares the fields of an output's JSON object, every one required, from the
annotations of the records it is built from (``fields_of``).
"""

import dataclasses
import functools
import sys
import types
import typing
from dataclasses import MISSING

from .errors import TraceValidationError, refusal

_MAX = sys.float_info.max
_SCALARS = {str: "a string", bool: "true or false"}


class _Invalid(Exception):
    """A value that does not decode; args are its message and its path, innermost step first."""


def decode(tp, value, where: str, error: type[Exception]):
    """Check decoded JSON ``value`` against annotation ``tp`` and build it.

    Unknown keys, missing required keys, wrong types and broken invariants raise
    ``error`` naming the value by its path from ``where`` (``trace.json.events[0].id``),
    assembled only on failure. A ``config``'s fields are named bare: ``trace.profile``.
    """
    try:
        return _decoder(tp)(value)
    except _Invalid as e:
        path = where + "".join(reversed(e.args[1]))
        if where == "config":
            path = path.removeprefix("config.")
        raise error(f"{path}: {e.args[0]}") from None


@functools.cache
def _decoder(tp):
    """The function that checks and builds a value of annotation ``tp``; a value of
    the exact type takes the first test and returns."""
    args = typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        hints, fields = typing.get_type_hints(tp), []
        for f in dataclasses.fields(tp):
            overrides = f.metadata.get("overrides")
            decode_field = _decoder(hints[f.name] if overrides is None else overrides)
            if overrides is not None:
                decode_field = functools.partial(_overrides, decode_field)
            required = f.default is MISSING and f.default_factory is MISSING
            fields.append((f.name, decode_field, required))
        names = frozenset(name for name, _, _ in fields)
        return functools.partial(_decode_dataclass, tp, tuple(fields), names)
    if typing.get_origin(tp) is types.UnionType:
        (inner,) = (_decoder(a) for a in args if a is not type(None))
        return lambda v: None if v is None else inner(v)
    if typing.get_origin(tp) is tuple:
        items = [_decoder(a) for a in args if a is not Ellipsis]
        return functools.partial(_decode_tuple, items, args[-1] is Ellipsis)
    if tp is float:
        return lambda v: v if type(v) is float and -_MAX <= v <= _MAX else _scalar(float, v)
    return lambda v: v if type(v) is tp else _scalar(tp, v)


def _scalar(tp, value):
    # An int of any size decodes: the type's own checks, or check_fields, bound it.
    if tp in (int, float):
        problem = refusal(tp, value, within_int64=False)
        if problem is None:
            return tp(value)
    else:
        problem = (_SCALARS[tp], repr(value))
    raise _Invalid(f"expected {problem[0]}, got {problem[1]}", [])


def _decode_tuple(items: list, variadic: bool, value):
    if not isinstance(value, list):
        raise _Invalid(f"expected a list, got {value!r}", [])
    if not variadic and len(value) != len(items):
        raise _Invalid(f"expected {len(items)} items, got {len(value)}", [])
    out = []
    try:
        for decode_item, item in zip(items * len(value) if variadic else items, value):
            out.append(decode_item(item))
    except _Invalid as e:
        e.args[1].append(f"[{len(out)}]")
        raise
    return tuple(out)


def _decode_dataclass(cls, fields: tuple, names: frozenset, value):
    if not isinstance(value, dict):
        raise _Invalid(f"expected an object, got {value!r}", [])
    if not names.issuperset(value):
        raise _Invalid(f"unknown field '{sorted(set(value) - names)[0]}'", [])
    kwargs = {}
    for name, decode_field, required in fields:
        if name in value:
            try:
                kwargs[name] = decode_field(value[name])
            except _Invalid as e:
                e.args[1].append(f".{name}")
                raise
        elif required:
            raise _Invalid(f"missing required field '{name}'", [])
    try:
        return cls(**kwargs)
    except (ValueError, TraceValidationError) as e:
        raise _Invalid(str(e), []) from None


def _overrides(decode_full, value):
    full = decode_full(value)
    return tuple((k, getattr(full, k)) for k in sorted(value))


def encode(value):
    """Inverse of ``decode``, with every default materialized: a field is left out
    only when it is None and defaults to None, so decode -> encode -> decode is the identity."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: dict(v) if "overrides" in f.metadata else encode(v)
            for f in dataclasses.fields(value)
            if (v := getattr(value, f.name)) is not None or f.default is not None
        }
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


def fields_of(cls, *names: str, drop=()) -> dict:
    """``cls``'s field annotations by name: of ``names`` in that order, or else of
    every field not in ``drop``, in declaration order."""
    hints = typing.get_type_hints(cls)
    names = names or [f.name for f in dataclasses.fields(cls) if f.name not in drop]
    return {name: hints[name] for name in names}


def shape(name: str, fields: dict, check=None) -> type:
    """A frozen dataclass ``name`` of ``fields`` (name -> annotation), each one required:
    the shape of one object of a JSON output. ``check`` is its ``__post_init__``."""
    namespace = {} if check is None else {"__post_init__": check}
    return dataclasses.make_dataclass(name, fields.items(), frozen=True, namespace=namespace)
