"""The scalar rules every input dataclass applies through ``errors.check_fields``.

Each numeric field, and one entry of each numeric tuple, refuses a bool, a
string, NaN, an infinity and an int past the field's range with its class's
own error, naming the field, and takes numpy scalars of its kind.
"""

import math
import typing

import numpy as np
import pytest

from dutysim.config import (
    DeviceNode,
    ExperimentConfig,
    NetworkConfig,
    QLearnSpec,
    Schedules,
    TraceSource,
)
from dutysim.detect import DetectorModel, GoertzelBank
from dutysim.errors import TraceValidationError
from dutysim.power import PowerProfile
from dutysim.qsched import ActionSpace, Hyperparameters
from dutysim.trace import DiurnalProfile, EventTrace

PROFILE = {"hourly_rate": (1.0,) * 24, "duration_mean": 3.0, "duration_sd": 0.0, "days": 1}
NETWORK = {"layout_file": "layout.json", "failures": ((0, 0),)}
EMPTY_TRACE = {"ids": [], "starts": [], "durations": [], "horizon": 10.0}
NODE = {"id": 0, "x": 0.0, "y": 0.0, "sensing_radius": 1.0, "comm_radius": 1.0}
EXPERIMENT = {"seed": 1, "trace": TraceSource(file="trace.csv")}

# (class, the other arguments, field, entry, a valid value): ``entry`` is None
# for a scalar field and the index path of one entry of a tuple field. The
# valid values are whole numbers, so each float field can take it as an int.
FIELDS = [
    *(
        (PowerProfile, {"d_probe": 2.0}, name, None, 1)
        for name in (
            "i_sleep", "i_record_3s", "i_probe_goertzel", "i_probe_tflite", "i_camera",
            "i_tx_audio", "i_tx_image", "i_ql_infer", "i_ql_update", "i_ping", "d_ping",
            "d_probe", "d_ql", "d_tx_audio", "d_tx_image", "d_camera", "battery_mah",
            "camera_trigger_ratio", "probe_record_s", "false_alarm_record_s",
        )
    ),
    *(
        (Hyperparameters, {}, name, None, good)
        for name, good in (
            ("gamma", 1), ("alpha", 1), ("eps_max", 1), ("eps_min", 0), ("eps_decay", 1),
            ("w1", 1),
        )
    ),
    (ActionSpace, {"intervals": (3.0, 5.0, 60.0)}, "intervals", (1,), 5),
    *(
        (DetectorModel, {}, name, None, good)
        for name, good in (
            ("tp_rate", 1), ("fp_rate", 0), ("noise_sd", 1), ("tone_amplitude", 1),
            ("default_band", 4000), ("event_bandwidth_hz", 4000), ("threshold", 10000),
        )
    ),
    (GoertzelBank, {"target_bins": (10,)}, "sample_rate", None, 16000),
    (GoertzelBank, {"target_bins": (10,)}, "window_len", None, 1600),
    (GoertzelBank, {"target_bins": (10,)}, "threshold", None, 10000),
    (GoertzelBank, {"target_bins": (10,)}, "target_bins", (0,), 10),
    (DiurnalProfile, PROFILE, "hourly_rate", (0,), 1),
    (DiurnalProfile, PROFILE, "duration_mean", None, 3),
    (DiurnalProfile, PROFILE, "duration_sd", None, 0),
    (DiurnalProfile, PROFILE, "days", None, 2),
    (DiurnalProfile, PROFILE, "origin_hour", None, 5),
    (DiurnalProfile, {**PROFILE, "band_range": (100.0, 200.0)}, "band_range", (0,), 100),
    (DiurnalProfile, {**PROFILE, "area": (0.0, 10.0, 0.0, 10.0)}, "area", (1,), 5),
    (EventTrace, EMPTY_TRACE, "horizon", None, 10),
    (EventTrace, EMPTY_TRACE, "origin_hour", None, 5),
    (QLearnSpec, {}, "train_days", None, 3),
    (QLearnSpec, {}, "eval_days", None, 3),
    (QLearnSpec, {}, "init_scale", None, 1),
    (Schedules, {"fixed": (3.0, 60.0)}, "fixed", (0,), 60),
    *(
        (DeviceNode, NODE, name, None, good)
        for name, good in (
            ("id", 3), ("x", 1), ("y", 0), ("sensing_radius", 1), ("comm_radius", 1),
        )
    ),
    *(
        (NetworkConfig, NETWORK, name, None, good)
        for name, good in (
            ("episodes", 3), ("w2", 1), ("w3", 0), ("drop_rate", 0), ("pretrain_days", 2),
            ("fixed_interval", 60),
        )
    ),
    (NetworkConfig, {**NETWORK, "detection_bins": (0, 2, 5)}, "detection_bins", (1,), 3),
    (NetworkConfig, NETWORK, "failures", (0, 0), 0),
    (ExperimentConfig, EXPERIMENT, "seed", None, 3),
    (ExperimentConfig, {**EXPERIMENT, "actions": (3.0, 5.0, 60.0)}, "actions", (1,), 5),
]
IDS = [f"{cls.__name__}.{name}" for cls, _, name, _, _ in FIELDS]


def _build(cls, kwargs: dict, name: str, entry, value):
    """``cls`` built from ``kwargs`` with ``value`` put in field ``name``, or in its entry."""
    if entry is not None:
        value = _replaced(kwargs[name], entry, value)
    return cls(**{**kwargs, name: value})


def _replaced(items: tuple, entry: tuple, value) -> tuple:
    i, *rest = entry
    item = _replaced(items[i], rest, value) if rest else value
    return items[:i] + (item,) + items[i + 1 :]


def _kind(cls, name: str) -> type:
    """int or float: the first argument, all the way down, of the field's annotation."""
    kind = typing.get_type_hints(cls)[name]
    while typing.get_args(kind):  # X | None, tuple[X, ...], tuple[tuple[X, X], ...]
        kind = typing.get_args(kind)[0]
    return kind


def test_every_numeric_field_is_listed():
    # The 60 numeric fields of the 12 input dataclasses, hourly_rate, intervals
    # and fixed through an entry, then an entry of each of the other six tuples.
    assert len(set(IDS)) == len(FIELDS) == 66


@pytest.mark.parametrize(
    "value", [10**5000, -(10**5000), True, "1", math.nan, math.inf],
    ids=["past_range", "past_range_negative", "bool", "string", "nan", "inf"],
)
@pytest.mark.parametrize("cls, kwargs, name, entry, good", FIELDS, ids=IDS)
def test_a_field_refuses_a_bad_scalar_naming_itself(cls, kwargs, name, entry, good, value):
    # Before check_fields, 113 of the 360 scalar-field calls built, among them
    # PowerProfile(battery_mah=True), a 1 mAh battery, and 108 raised an error
    # that named no field: str of an int past 4,300 digits, a TypeError or an OverflowError.
    _build(cls, kwargs, name, entry, good)
    error = TraceValidationError if cls in (DiurnalProfile, EventTrace) else ValueError
    with pytest.raises(error) as raised:
        _build(cls, kwargs, name, entry, value)
    assert name in str(raised.value)


@pytest.mark.parametrize("cls, kwargs, name, entry, good", FIELDS, ids=IDS)
def test_a_field_takes_numpy_scalars_of_its_kind(cls, kwargs, name, entry, good):
    kind = _kind(cls, name)
    values = [np.int64(good)] if kind is int else [np.float64(good), np.float32(good), good]
    for value in values:
        _build(cls, kwargs, name, entry, value)
