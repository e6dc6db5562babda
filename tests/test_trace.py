import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutysim import trace as trace_module
from dutysim.errors import TraceFormatError, TraceValidationError
from dutysim.power import MAX_SECONDS, to_ticks
from dutysim.trace import (
    MAX_DAYS,
    MAX_EXPECTED_EVENTS,
    SECONDS_PER_DAY,
    DiurnalProfile,
    Event,
    EventTrace,
    events_in_window,
    generate_trace,
    hourly_event_probability,
    load_trace,
    make_trace,
    save_trace,
    window_rows,
)

from _oracles import events_in_window_scan, two_peak_profile


def test_event_validation():
    with pytest.raises(TraceValidationError, match="event 0: start"):
        make_trace([Event(id=0, start=-1.0, duration=2.0)])
    with pytest.raises(TraceValidationError, match="event 0: duration"):
        make_trace([Event(id=0, start=0.0, duration=0.0)])
    with pytest.raises(TraceValidationError, match="event 0: band"):
        make_trace([Event(id=0, start=0.0, duration=1.0, band=-5.0)])
    make_trace([Event(id=0, start=0.0, duration=0.1)])


def test_trace_rejects_duplicate_ids():
    with pytest.raises(TraceValidationError, match="duplicate event id 1"):
        EventTrace(ids=[1, 1], starts=[0.0, 2.0], durations=[1.0, 1.0], horizon=10.0)


@pytest.mark.parametrize(
    "ids, shown",
    [
        ([1.7, 2.2], "1.7"),
        (np.array([1.0, 2.0]), "1.0"),
        ([True, False], "True"),
        ([0, True], "True"),
    ],
)
def test_trace_rejects_ids_a_cast_would_change(ids, shown):
    # An int64 cast truncated 1.7 to 1 and took True as 1.
    message = f"^ids must be integers within int64, got event id {shown}$"
    with pytest.raises(TraceValidationError, match=message):
        EventTrace(ids=ids, starts=[0.0, 2.0], durations=[1.0, 1.0], horizon=10.0)


PAST_INT64 = "^ids must be integers within int64, got event id past int64's range$"


@pytest.mark.parametrize(
    "ids",
    [[2**63, 1], np.array([2**63, 1], dtype=np.uint64), [-(2**63) - 1, 1], [10**5000, 1]],
    ids=["2**63", "uint64_2**63", "below_int64", "5001_digits"],
)
def test_trace_names_an_id_past_int64_without_showing_it(ids):
    # An int64 cast wrapped 2**63 to -2**63, and repr of an int past 4,300 digits
    # raises a bare ValueError.
    with pytest.raises(TraceValidationError, match=PAST_INT64):
        EventTrace(ids=ids, starts=[0.0, 2.0], durations=[1.0, 1.0], horizon=10.0)


def test_make_trace_and_origin_hour_are_checked_as_ids_are():
    with pytest.raises(TraceValidationError, match="got event id 3.9$"):
        make_trace([Event(3.9, 0.0, 1.0)])
    for origin_hour in (1.5, True):
        message = rf"^origin_hour must be an integer in \[0, 24\), got {origin_hour}$"
        with pytest.raises(TraceValidationError, match=message):
            EventTrace(ids=[], starts=[], durations=[], horizon=10.0, origin_hour=origin_hour)
    # Integers of any int64-safe type pass, and an empty id list is valid.
    ids = np.array([1, 2], dtype=np.uint8)
    tr = EventTrace(ids=ids, starts=[0.0, 2.0], durations=[1.0, 1.0], horizon=10.0)
    assert tr.ids.dtype == np.int64 and tr.ids.tolist() == [1, 2]
    tr = EventTrace(ids=[], starts=[], durations=[], horizon=10.0, origin_hour=np.int64(5))
    assert tr.hour_of(0.0) == 5
    assert make_trace([Event(2**63 - 1, 0.0, 1.0)]).ids.tolist() == [2**63 - 1]


def test_make_trace_names_an_id_too_long_to_print():
    with pytest.raises(TraceValidationError, match=PAST_INT64):
        make_trace([Event(10**5000, 0.0, 1.0)])


def test_make_trace_checks_each_id_once(monkeypatch):
    checked = []

    def counting(value):
        checked.append(value)
        return is_int64(value)

    is_int64 = trace_module._is_int64
    monkeypatch.setattr(trace_module, "_is_int64", counting)
    n = 100
    make_trace([Event(i, float(i), 1.0) for i in range(n)], origin_hour=5)
    # Each id once in make_trace, then origin_hour in EventTrace.
    assert checked == [*range(n), 5]


def test_make_trace_names_an_id_that_does_not_order():
    # make_trace sorts by (start, id); a None id at a tied start used to
    # reach the sort and raise a bare TypeError.
    message = "^ids must be integers within int64, got event id None$"
    with pytest.raises(TraceValidationError, match=message):
        make_trace([Event(None, 0.0, 1.0), Event(1, 0.0, 1.0)])
    with pytest.raises(TraceValidationError, match="got event id '2'$"):
        make_trace([Event(1, 0.0, 1.0), Event("2", 0.0, 1.0)])


@pytest.mark.parametrize(
    "event, message",
    [
        (Event(0, "5", 1.0), "^starts must be numbers, got event start '5'$"),
        (Event(0, 5.0, True), "^durations must be numbers, got event duration True$"),
        (Event(0, 5.0, 1.0, band="7"), "^bands must be numbers, got event band '7'$"),
        (Event(0, 5.0, 1.0, location=(1.0, "2")), "^ys must be numbers, got event y '2'$"),
        (Event(0, 5.0, 1.0, location=(False, 2.0)), "^xs must be numbers, got event x False$"),
    ],
)
def test_make_trace_refuses_a_string_or_bool_in_a_float_field(event, message):
    # The float64 cast parsed '5' as 5.0 and took True as 1.0.
    with pytest.raises(TraceValidationError, match=message):
        make_trace([event])


@pytest.mark.parametrize(
    "event, message",
    [
        (
            Event(0, 1.0, 1.0, location=(1.0,)),
            r"^event 0: location must be a pair \(x, y\), got \(1.0,\)$",
        ),
        (Event(0, 1.0, 1.0, location=5), r"^event 0: location must be a pair \(x, y\), got 5$"),
        (
            Event(0, 10**400, 1.0),
            "^starts must be numbers, got event start past float64's range$",
        ),
        (
            Event(0, 1.0, 1.0, band=10**400),
            "^bands must be numbers, got event band past float64's range$",
        ),
    ],
    ids=["location_of_one", "location_not_a_sequence", "start_past_float", "band_past_float"],
)
def test_make_trace_refuses_a_location_not_a_pair_and_an_int_past_float_range(event, message):
    # Unchecked, a one-item location fails in numpy's reshape and 10**400 in the float64
    # cast, with a bare ValueError and OverflowError.
    with pytest.raises(TraceValidationError, match=message):
        make_trace([event])


def test_trace_refuses_a_scalar_column():
    # A 0-d array has size 1, so a count of entries alone would match one id.
    message = "^starts must be a 1-D column, length 1, got the scalar 5.0$"
    with pytest.raises(TraceValidationError, match=message):
        EventTrace(ids=[0], starts=5.0, durations=[1.0], horizon=10.0)


@pytest.mark.parametrize(
    "column, values, shown",
    [
        ("starts", ["5", 2.0], "start '5'"),
        ("starts", np.array(["5", "2"]), "start '5'"),
        ("durations", [1.0, True], "duration True"),
        ("durations", np.array([True, True]), "duration True"),
        ("bands", [100.0, "7"], "band '7'"),
        ("xs", [1.0, np.True_], f"x {np.True_!r}"),
    ],
)
def test_trace_refuses_a_string_or_bool_in_a_float_column(column, values, shown):
    columns = {"starts": [0.0, 2.0], "durations": [1.0, 1.0], column: values}
    message = f"^{column} must be numbers, got event {shown}$"
    with pytest.raises(TraceValidationError, match=message):
        EventTrace(ids=[0, 1], horizon=10.0, **columns)


def test_trace_takes_numbers_of_any_real_type_in_float_columns():
    numbers = [np.int64(3), np.float32(4.0)]
    tr = EventTrace(
        ids=[0, 1], starts=[0, 2.0], durations=numbers, horizon=10.0, bands=numbers,
        xs=numbers, ys=np.array([1, 2], dtype=np.uint8),
    )
    assert tr.durations.tolist() == tr.bands.tolist() == tr.xs.tolist() == [3.0, 4.0]
    assert tr.ys.tolist() == [1.0, 2.0]


def test_trace_rejects_event_beyond_horizon():
    with pytest.raises(TraceValidationError, match="horizon"):
        EventTrace(ids=[0], starts=[9.5], durations=[1.0], horizon=10.0)


def test_horizon_past_the_tick_clock_is_rejected():
    # 1.2e10 s converted, then wrapped every start and end in tick_view to
    # -2**63; 1e300 s overflowed the float-to-int conversion.
    with pytest.raises(TraceValidationError, match="horizon must be <="):
        EventTrace(ids=[0], starts=[1e10], durations=[1.0], horizon=1.2e10)
    with pytest.raises(TraceValidationError, match="horizon must be <="):
        EventTrace(ids=[], starts=[], durations=[], horizon=1e300)
    with pytest.raises(TraceValidationError, match="horizon must be <="):
        make_trace([Event(id=0, start=1e10, duration=1.0)])
    with pytest.raises(TraceValidationError, match="horizon must be <="):
        make_trace([], horizon=MAX_SECONDS + 1.0)
    # The limit itself holds.
    tr = make_trace([Event(id=0, start=MAX_SECONDS - 1.0, duration=1.0)], horizon=MAX_SECONDS)
    assert tr.tick_view.ends[0] > tr.tick_view.starts[0] > 0


def test_tick_view_columns_are_read_only_8_byte_buffers():
    for tr in (generate_trace(two_peak_profile(2), 5), _sample_trace()):
        view = tr.tick_view
        assert tr.tick_view is view
        for col in view:
            assert isinstance(col, memoryview) and col.readonly
            assert col.nbytes == 8 * len(tr) == 8 * len(col)
        # The bands are the trace's own column, not a copy.
        assert np.shares_memory(np.asarray(view.bands), tr.bands)
        assert view.starts.tolist() == [to_ticks(s) for s in tr.starts.tolist()]
        assert view.ends.tolist() == [to_ticks(e) for e in tr.ends.tolist()]
        assert all(type(col[0]) is kind for col, kind in zip(view, (int, int, float)))
    # Untagged bands read NaN next to the tagged values.
    bands = _sample_trace().tick_view.bands.tolist()
    assert math.isnan(bands[0]) and bands[1:] == [4000.0, 2500.5]


def test_tick_view_keeps_16_bytes_per_event():
    # The two int64 tick columns; the bands are the trace's own column.
    tr = generate_trace(DiurnalProfile((420.0,) * 24, 3.0, 1.0, days=1), 2)
    assert 9_000 < len(tr) < 11_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        view = tr.tick_view
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(view.starts) == len(tr)
    assert kept <= 16 * len(tr) + 4096


def test_trace_rejects_out_of_order_events():
    with pytest.raises(TraceValidationError, match="order at id 1"):
        EventTrace(ids=[0, 1], starts=[5.0, 2.0], durations=[1.0, 1.0], horizon=10.0)


def test_trace_equals_only_a_trace():
    tr = _sample_trace()
    assert tr == _sample_trace()
    rows = events_in_window(tr, 0.0, tr.horizon)
    assert tr.__eq__(rows) is NotImplemented
    assert tr != rows


def test_make_trace_sorts_and_defaults_horizon():
    evs = [
        Event(id=0, start=10.0, duration=3.0),
        Event(id=1, start=5.0, duration=2.0),
    ]
    tr = make_trace(evs)
    assert [ev.start for ev in events_in_window(tr, 0.0, tr.horizon)] == [5.0, 10.0]
    assert tr.horizon == SECONDS_PER_DAY


def test_make_trace_breaks_start_ties_by_id():
    evs = [
        Event(id=7, start=5.0, duration=1.0),
        Event(id=3, start=5.0, duration=1.0),
    ]
    tr = make_trace(evs)
    assert [ev.id for ev in events_in_window(tr, 0.0, tr.horizon)] == [3, 7]


def test_make_trace_rounds_horizon_to_whole_days():
    tr = make_trace([Event(id=0, start=SECONDS_PER_DAY + 5.0, duration=1.0)])
    assert tr.horizon == 2 * SECONDS_PER_DAY


# -- file round trips --------------------------------------------------------


def _sample_trace():
    return make_trace(
        [
            Event(id=0, start=5.0, duration=2.0),
            Event(id=1, start=10.0, duration=3.0, band=4000.0),
            Event(id=2, start=100.25, duration=0.75, band=2500.5, location=(12.5, -3.0)),
        ],
        horizon=86400.0,
    )


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_save_load_round_trip(tmp_path, suffix):
    tr = _sample_trace()
    path = tmp_path / f"trace.{suffix}"
    save_trace(tr, path)
    back = load_trace(path)
    assert events_in_window(back, 0.0, back.horizon) == events_in_window(tr, 0.0, tr.horizon)
    assert back.horizon == tr.horizon
    assert back.origin_hour == tr.origin_hour


def test_writers_pin_every_band_and_location_combination(tmp_path, monkeypatch):
    # Untagged and unlocated, tagged only, located only, and both; ids 2 and 4
    # tie on start and go by id. CSV writes 1e-05 positionally, JSON as repr.
    # Both writers read the columns and build no Event row.
    tr = make_trace(
        [
            Event(4, 10.0, 2.5),
            Event(7, 0.125, 1e-05, location=(-1.5, 20.0)),
            Event(2, 10.0, 1.0, band=4000.0),
            Event(1, 86000.5, 0.1, band=2500.5, location=(12.0, -3.25)),
        ],
        horizon=86400.0,
        origin_hour=5,
    )
    monkeypatch.setattr(trace_module, "Event", _no_event_rows)
    save_trace(tr, tmp_path / "trace.csv")
    save_trace(tr, tmp_path / "trace.json")
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"# horizon=86400.0\n"
        b"# origin_hour=5\n"
        b"id,start,duration,band,x,y\r\n"
        b"7,0.125,0.00001,,-1.5,20.0\r\n"
        b"2,10.0,1.0,4000.0,,\r\n"
        b"4,10.0,2.5,,,\r\n"
        b"1,86000.5,0.1,2500.5,12.0,-3.25\r\n"
    )
    events = [
        '      "duration": 1e-05,\n      "id": 7,\n'
        '      "location": [\n        -1.5,\n        20.0\n      ],\n      "start": 0.125\n',
        '      "band": 4000.0,\n      "duration": 1.0,\n      "id": 2,\n      "start": 10.0\n',
        '      "duration": 2.5,\n      "id": 4,\n      "start": 10.0\n',
        '      "band": 2500.5,\n      "duration": 0.1,\n      "id": 1,\n'
        '      "location": [\n        12.0,\n        -3.25\n      ],\n      "start": 86000.5\n',
    ]
    body = ",\n".join("    {\n" + event + "    }" for event in events)
    assert (tmp_path / "trace.json").read_text() == (
        '{\n  "events": [\n' + body + '\n  ],\n  "horizon": 86400.0,\n  "origin_hour": 5\n}\n'
    )


def _no_event_rows(*args, **kwargs):
    raise AssertionError("built an Event row")


def test_a_trace_stores_six_columns_and_derives_ends(tmp_path):
    names = [f.name for f in dataclasses.fields(EventTrace)]
    assert names == ["ids", "starts", "durations", "horizon", "origin_hour", "bands", "xs", "ys"]
    generated = generate_trace(two_peak_profile(2, band_range=(500.0, 900.0)), 3)
    save_trace(generated, tmp_path / "trace.json")
    loaded = load_trace(tmp_path / "trace.json")
    for tr in (generated, loaded, make_trace([])):
        assert tr.ends.tobytes() == (tr.starts + tr.durations).tobytes()


def test_load_csv_sorts_rows(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("id,start,duration,band,x,y\n0,10.0,3.0,,,\n1,5.0,2.0,,,\n")
    tr = load_trace(path)
    assert [ev.start for ev in events_in_window(tr, 0.0, tr.horizon)] == [5.0, 10.0]


def test_load_csv_header_only_gives_empty_day(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("id,start,duration,band,x,y\n")
    tr = load_trace(path)
    assert len(tr) == 0
    assert tr.horizon == 86400.0


def test_load_csv_negative_duration_names_the_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("id,start,duration,band,x,y\n7,5.0,-1,,,\n")
    with pytest.raises(TraceValidationError, match="event 7"):
        load_trace(path)


def test_load_csv_malformed_row_names_the_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("id,start,duration,band,x,y\n0,oops,3.0,,,\n")
    with pytest.raises(TraceFormatError, match=":2"):
        load_trace(path)


def test_load_csv_missing_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("0,5.0,2.0,,,\n")
    with pytest.raises(TraceFormatError, match="header"):
        load_trace(path)


def test_load_csv_lone_coordinate_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("id,start,duration,band,x,y\n0,5.0,2.0,,1.0,\n")
    with pytest.raises(TraceFormatError, match="both x and y"):
        load_trace(path)


def test_csv_header_respects_horizon_comment(tmp_path):
    tr = make_trace([Event(id=0, start=5.0, duration=1.0)], horizon=7200.0)
    path = tmp_path / "trace.csv"
    save_trace(tr, path)
    assert load_trace(path).horizon == 7200.0


@pytest.mark.parametrize(
    "name, text",
    [
        ("trace.json", '{"horizon": 1e9, "events": []}'),
        ("trace.csv", "# horizon=1e9\nid,start,duration,band,x,y\n"),
        # No horizon given: the last end, rounded up to whole days, passes the limit.
        ("trace.json", '{"events": [{"id": 0, "start": 864000000, "duration": 1}]}'),
        ("trace.csv", "id,start,duration,band,x,y\n0,864000000,1,,,\n"),
    ],
    ids=["json_horizon", "csv_horizon", "json_derived_horizon", "csv_derived_horizon"],
)
def test_trace_files_past_max_days_are_rejected(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(TraceValidationError, match=f"^{name}: horizon must be <= {MAX_DAYS} days"):
        load_trace(path)
    # The limit itself loads, and a library trace may pass it up to the tick clock.
    limit = MAX_DAYS * SECONDS_PER_DAY
    at_limit = tmp_path / "limit.json"
    at_limit.write_text(json.dumps({"horizon": limit, "events": []}))
    assert load_trace(at_limit).horizon == limit
    assert make_trace([], horizon=2 * limit).horizon == 2 * limit


def test_unknown_suffix_rejected(tmp_path):
    with pytest.raises(TraceFormatError, match="format"):
        load_trace(tmp_path / "trace.txt")


def test_load_json_bad_payload(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"events": 5}, r"\.events"),
        ({"events": [5]}, r"\.events\[0\]"),
        ({"events": [], "horizon": "abc"}, r"\.horizon"),
        ({"events": [], "origin_hour": "x"}, r"\.origin_hour"),
        ({"events": [], "origin_hour": 1.5}, r"\.origin_hour"),
        ({"events": [], "origin_hour": True}, r"\.origin_hour"),
        ({"events": [{"id": 1.7, "start": 0.0, "duration": 1.0}]}, r"\.events\[0\]\.id"),
        ({"events": [{"id": True, "start": 0.0, "duration": 1.0}]}, r"\.events\[0\]\.id"),
        ({"events": [], "horizon": True}, r"\.horizon"),
        ({"events": [], "horizon": "86400"}, r"\.horizon"),
        ({"events": [{"id": 0, "start": False, "duration": 1.0}]}, r"\.events\[0\]\.start"),
        ({"events": [{"id": 0, "start": 0.0, "duration": True}]}, r"\.events\[0\]\.duration"),
        ({"events": [{"id": 0, "start": 10**400, "duration": 1.0}]}, r"\.events\[0\]\.start"),
        (
            {"events": [{"id": 0, "start": 0.0, "duration": 1.0, "band": True}]},
            r"\.events\[0\]\.band",
        ),
        (
            {"events": [{"id": 0, "start": 0.0, "duration": 1.0, "location": [True, 1.0]}]},
            r"\.events\[0\]\.location\[0\]",
        ),
        (
            {"events": [{"id": 0, "start": 0.0, "duration": 1.0, "location": "12"}]},
            r"\.events\[0\]\.location",
        ),
    ],
    ids=[
        "events",
        "event",
        "horizon",
        "origin_hour",
        "origin_hour_float",
        "origin_hour_bool",
        "id_float",
        "id_bool",
        "horizon_bool",
        "horizon_string",
        "start_bool",
        "duration_bool",
        "start_too_large",
        "band_bool",
        "location_bool",
        "location_string",
    ],
)
def test_load_json_bad_field_names_file_and_field(tmp_path, payload, field):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(TraceFormatError, match=rf"^trace\.json{field}: expected "):
        load_trace(path)


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"horizon": 86400, "orign_hour": 5, "events": []},
            r"^trace\.json: unknown field 'orign_hour'$",
        ),
        (
            {"events": [{"id": 0, "start": 10, "duration": 2, "bnd": 4000}]},
            r"^trace\.json\.events\[0\]: unknown field 'bnd'$",
        ),
    ],
    ids=["top_level", "event"],
)
def test_load_json_refuses_unknown_keys(tmp_path, payload, message):
    # Skipped, a misspelt origin_hour would load the trace at hour 0 without a word.
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(TraceFormatError, match=message):
        load_trace(path)


_CSV = "id,start,duration,band,x,y\n"


@pytest.mark.parametrize(
    "comments, horizon, origin_hour",
    [
        ("# note: seed = 3\n", 86400.0, 0),
        ("# generated by hand\n# 2 = two\n# a-b=5\n", 86400.0, 0),
        ("# horizon = 172800\n", 172800.0, 0),
        ("#origin_hour=5\n", 86400.0, 5),
        ("# horizon=90000\n# origin_hour= 7 \n# seed: 3 = three\n", 90000.0, 7),
        ("# horizon=90000\n\n", 90000.0, 0),
    ],
    ids=["free_text_with_eq", "free_text", "spaced_key", "no_space", "both_keys", "blank_line"],
)
def test_load_csv_reads_identifier_comments_as_metadata(tmp_path, comments, horizon, origin_hour):
    # Only a comment whose text before its first "=" is an identifier is
    # metadata; every other comment is free text and is skipped.
    path = tmp_path / "trace.csv"
    path.write_text(comments + _CSV + "7,5,3,,,\n")
    tr = load_trace(path)
    assert (tr.horizon, tr.origin_hour, len(tr)) == (horizon, origin_hour, 1)


@pytest.mark.parametrize(
    "name, text, error, message",
    [
        ("trace.csv", "# horizon=86400\n" + _CSV + "7,nan,3,,,\n", TraceValidationError,
         "event 7: start must be finite, got nan"),
        ("trace.csv", "# horizon=86400\n" + _CSV + "7,5,inf,,,\n", TraceValidationError,
         "event 7: duration must be finite, got inf"),
        ("trace.csv", _CSV + "7,5,3,nan,,\n", TraceValidationError,
         "event 7: band and location must not be NaN"),
        ("trace.csv", _CSV + "7,5,3,,nan,nan\n", TraceValidationError,
         "event 7: band and location must not be NaN"),
        ("trace.csv", _CSV + "7,5,3,,1,-inf\n", TraceValidationError,
         r"event 7: location must be finite, got \(1.0, -inf\)"),
        ("trace.csv", "# horizon=inf\n" + _CSV, TraceValidationError,
         "horizon must be positive and finite, got inf"),
        ("trace.csv", _CSV + f"{2**63},5,3,,,\n", TraceFormatError,
         "2: id 9223372036854775808 does not fit in int64"),
        ("trace.csv", "# horizon=abc\n" + _CSV, TraceFormatError, "1: bad horizon value 'abc'"),
        ("trace.csv", "# orign_hour=5\n" + _CSV, TraceFormatError,
         "1: unknown metadata key 'orign_hour'; known keys: horizon, origin_hour$"),
        ("trace.csv", _CSV + "# Horizon = 86400\n", TraceFormatError,
         "2: unknown metadata key 'Horizon'"),
        ("trace.csv", "# horizon=86400\n", TraceFormatError, "missing header row"),
        ("trace.csv", _CSV + "7,5,3,,\n", TraceFormatError, "2: expected 6 columns, got 5"),
        ("trace.json", '{"events": [{"id": 7, "start": 5, "duration": 3, "band": Infinity}]}',
         TraceFormatError, r"events\[0\]\.band: expected a finite number, got inf"),
        ("trace.json", '{"horizon": 86400, "events": [{"id": 7, "start": NaN, "duration": 3}]}',
         TraceFormatError, r"events\[0\]\.start: expected a finite number, got nan"),
        ("trace.json", '{"events": [], "horizon": Infinity}', TraceFormatError,
         "horizon: expected a finite number, got inf"),
        ("trace.json", f'{{"events": [{{"id": {2**63}, "start": 0, "duration": 1}}]}}',
         TraceValidationError, "ids must be integers within int64, got event id past int64's"),
    ],
    ids=[
        "csv_start_nan",
        "csv_duration_inf",
        "csv_band_nan",
        "csv_location_nan",
        "csv_location_inf",
        "csv_horizon_inf",
        "csv_id_too_large",
        "csv_horizon_not_a_number",
        "csv_unknown_key",
        "csv_unknown_key_after_header",
        "csv_comments_only",
        "csv_five_cells",
        "json_band_inf",
        "json_start_nan",
        "json_horizon_inf",
        "json_id_too_large",
    ],
)
def test_load_rejects_values_the_columns_cannot_hold(tmp_path, name, text, error, message):
    # A field path follows the file name with a dot (trace.json.horizon), the rest with a colon.
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(error, match=f"^{name}[:.].*{message}"):
        load_trace(path)


# -- generation --------------------------------------------------------------


def test_generate_zero_rate_is_empty():
    profile = DiurnalProfile(hourly_rate=(0.0,) * 24, duration_mean=3.0, duration_sd=0.0, days=3)
    tr = generate_trace(profile, 123)
    assert len(tr) == 0
    assert tr.horizon == 3 * SECONDS_PER_DAY


def test_generate_deterministic():
    profile = two_peak_profile(2, band_range=(2000.0, 8000.0))
    a = generate_trace(profile, 42)
    b = generate_trace(profile, 42)
    assert a == b


def test_generate_seeds_differ():
    profile = two_peak_profile()
    assert generate_trace(profile, 1) != generate_trace(profile, 2)


def test_generate_poisson_mean():
    # Rate 60/h for a day: mean count 1440. The mean over 100 fixed seeds
    # should sit within 3 standard errors, and did when frozen.
    profile = DiurnalProfile(hourly_rate=(60.0,) * 24, duration_mean=3.0, duration_sd=0.0, days=1)
    counts = [len(generate_trace(profile, seed)) for seed in range(100)]
    se = np.sqrt(1440.0 / 100.0)
    assert abs(np.mean(counts) - 1440.0) <= 3.0 * se


def test_generate_hourly_rates_converge():
    # 5% relative on a rate-20 Poisson mean needs a few hundred seeds to be
    # comfortably inside the noise floor; 300 puts 5% at about 4 sigma.
    rates = (20.0, 40.0) * 12
    profile = DiurnalProfile(hourly_rate=rates, duration_mean=3.0, duration_sd=0.0, days=1)
    counts = np.zeros(24)
    n_seeds = 300
    for seed in range(n_seeds):
        tr = generate_trace(profile, seed)
        for ev in events_in_window(tr, 0.0, tr.horizon):
            counts[int(ev.start // 3600.0)] += 1
    observed = counts / n_seeds
    assert np.all(np.abs(observed - np.array(rates)) / np.array(rates) <= 0.05)


def test_generate_duration_floor():
    profile = DiurnalProfile(hourly_rate=(30.0,) * 24, duration_mean=0.6, duration_sd=2.0, days=1)
    tr = generate_trace(profile, 5)
    assert len(tr) > 0
    events = events_in_window(tr, 0.0, tr.horizon)
    last = max(ev.end for ev in events)
    assert all(
        ev.duration >= DiurnalProfile.DURATION_FLOOR or ev.end == tr.horizon
        for ev in events
    ), f"durations below floor without horizon clipping (last end {last})"


def test_generate_settles_durations_far_below_the_floor_at_it():
    # No draw of N(0.01, 0.01) clears the floor, so every duration settles on it.
    profile = DiurnalProfile(hourly_rate=(5.0,) * 24, duration_mean=0.01, duration_sd=0.01, days=1)
    tr = generate_trace(profile, 3)
    assert len(tr) > 0
    assert np.all(tr.durations == DiurnalProfile.DURATION_FLOOR)


def test_generate_band_and_area_tagging():
    profile = two_peak_profile(
        1, band_range=(2000.0, 8000.0), area=(0.0, 100.0, -50.0, 50.0)
    )
    tr = generate_trace(profile, 9)
    assert len(tr) > 0
    for ev in events_in_window(tr, 0.0, tr.horizon):
        assert 2000.0 <= ev.band <= 8000.0
        x, y = ev.location
        assert 0.0 <= x <= 100.0 and -50.0 <= y <= 50.0


def test_generate_origin_hour_shifts_rates():
    rates = tuple(40.0 if h == 0 else 0.0 for h in range(24))
    profile = DiurnalProfile(
        hourly_rate=rates, duration_mean=3.0, duration_sd=0.0, days=1, origin_hour=6
    )
    tr = generate_trace(profile, 3)
    # Hour-of-day 0 is 18 hours after a trace origin at 06:00.
    assert len(tr) > 0
    for ev in events_in_window(tr, 0.0, tr.horizon):
        assert 18 * 3600.0 <= ev.start < 19 * 3600.0


def test_profile_validation():
    with pytest.raises(TraceValidationError):
        DiurnalProfile(hourly_rate=(1.0,) * 23, duration_mean=3.0, duration_sd=0.0, days=1)
    with pytest.raises(TraceValidationError):
        DiurnalProfile(hourly_rate=(-1.0,) * 24, duration_mean=3.0, duration_sd=0.0, days=1)
    with pytest.raises(TraceValidationError):
        DiurnalProfile(hourly_rate=(1.0,) * 24, duration_mean=0.0, duration_sd=0.0, days=1)
    with pytest.raises(TraceValidationError, match="duration_sd"):
        DiurnalProfile(hourly_rate=(1.0,) * 24, duration_mean=3.0, duration_sd=-1.0, days=1)
    for bad in (
        {"origin_hour": 24},
        {"band_range": (5000.0, 100.0)},
        {"band_range": (0.0, 100.0)},
        {"area": (10.0, 0.0, 0.0, 10.0)},
        {"area": (0.0, 10.0, 10.0, 0.0)},
    ):
        with pytest.raises(TraceValidationError):
            two_peak_profile(**bad)
    # Refused where the profile is built: 1.5 failed in generate_trace with a
    # bare TypeError, origin_hour=True only after the trace was drawn,
    # and days=True ran as one day.
    for name, value in (("days", 1.5), ("days", True), ("origin_hour", 1.5), ("origin_hour", True)):
        with pytest.raises(TraceValidationError, match=rf"^{name} must be an integer, got {value}$"):
            two_peak_profile(**{"days": 1, name: value})


TOO_LONG = 10**5000  # str and repr of an int refuse past 4,300 digits
NOT_SHOWN = "got an integer past int64's range$"
TRACE_ORIGIN_HOUR = r"^origin_hour must be an integer in \[0, 24\), "


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: two_peak_profile(days=-TOO_LONG), "^days must be >= 1, "),
        (lambda: two_peak_profile(origin_hour=TOO_LONG), r"^origin_hour must be in \[0, 24\), "),
        (lambda: generate_trace(two_peak_profile(days=TOO_LONG), 1), "^days must be <= 10000, "),
        (lambda: EventTrace([], [], [], 10.0, origin_hour=TOO_LONG), TRACE_ORIGIN_HOUR),
        (lambda: make_trace([], origin_hour=-TOO_LONG), TRACE_ORIGIN_HOUR),
    ],
    ids=["profile_days", "profile_origin_hour", "generate_days", "trace_origin_hour", "make_trace"],
)
def test_an_int_too_long_to_print_is_named_not_shown(build, message):
    # Each raised a bare ValueError from formatting the value into its message.
    with pytest.raises(TraceValidationError, match=message + NOT_SHOWN):
        build()


def test_profile_rate_bound_is_numpys_poisson_limit():
    # int64 max - 10 * sqrt(int64 max); only the profiles are built, no trace.
    limit = 9.223372006484771e18
    rates = (0.5,) * 23
    DiurnalProfile(hourly_rate=rates + (limit,), duration_mean=3.0, duration_sd=0.0, days=1)
    with pytest.raises(TraceValidationError, match=r"hourly_rate\[23\]"):
        DiurnalProfile(
            hourly_rate=rates + (math.nextafter(limit, math.inf),),
            duration_mean=3.0,
            duration_sd=0.0,
            days=1,
        )
    # The bound is numpy's own: one draw at the limit passes, the next float fails.
    rng = np.random.default_rng(0)
    rng.poisson(limit)
    with pytest.raises(ValueError):
        rng.poisson(math.nextafter(limit, math.inf))


def test_generate_bounds_days_and_expected_events():
    quiet = DiurnalProfile(
        hourly_rate=(0.0,) * 24, duration_mean=3.0, duration_sd=0.0, days=MAX_DAYS
    )
    assert len(generate_trace(quiet, 1)) == 0
    with pytest.raises(TraceValidationError, match="days must be <= 10000"):
        generate_trace(dataclasses.replace(quiet, days=MAX_DAYS + 1), 1)
    # Refused before any draw; generating it would take about 1 GB.
    rates = (math.nextafter(MAX_EXPECTED_EVENTS / 2, math.inf),) + (0.0,) * 23
    with pytest.raises(TraceValidationError, match=r"hourly_rate: sum\(hourly_rate\) \* days"):
        generate_trace(dataclasses.replace(quiet, hourly_rate=rates, days=2), 1)


def test_generate_rejects_zero_days():
    with pytest.raises(TraceValidationError):
        generate_trace(two_peak_profile(days=0), 1)


# -- window queries ----------------------------------------------------------


def test_window_half_open_boundaries():
    tr = make_trace([Event(id=0, start=5.0, duration=3.0)], horizon=86400.0)
    assert len(events_in_window(tr, 7.9, 8.0)) == 1
    assert len(events_in_window(tr, 8.0, 8.1)) == 0
    assert len(events_in_window(tr, 4.0, 5.0)) == 0
    assert len(events_in_window(tr, 4.0, 5.0 + 1e-9)) == 1


def test_window_keeps_no_rows_with_the_trace():
    # Rows are built for the window's hits only; a trace that kept every
    # event as an Event held about 328 bytes per event, some 6.5 MB here.
    tr = generate_trace(DiurnalProfile((840.0,) * 24, 3.0, 0.0, days=1), 4)
    assert 19_000 < len(tr) < 21_000
    tracemalloc.start()
    try:
        hits = events_in_window(tr, 0.0, float(tr.starts[0]) + 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [ev.id for ev in hits] == [0]
    assert peak < 1_000_000
    assert not hasattr(tr, "events")


def test_window_rejects_reversed():
    tr = make_trace([Event(id=0, start=5.0, duration=3.0)])
    with pytest.raises(ValueError):
        events_in_window(tr, 10.0, 9.0)


def test_window_matches_scan_on_random_queries():
    tr = generate_trace(two_peak_profile(2), 77)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        t0 = float(rng.uniform(0, tr.horizon))
        t1 = float(min(tr.horizon, t0 + rng.uniform(0, 600.0)))
        assert events_in_window(tr, t0, t1) == events_in_window_scan(tr, t0, t1)


@st.composite
def _trace_and_window(draw):
    n = draw(st.integers(0, 12))
    events = []
    for i in range(n):
        start = draw(st.floats(0.0, 90.0))
        duration = draw(st.floats(0.1, 30.0))
        events.append(Event(id=i, start=start, duration=duration))
    t0 = draw(st.floats(0.0, 130.0))
    t1 = t0 + draw(st.floats(0.0, 40.0))
    return make_trace(events, horizon=200.0), t0, t1


@given(_trace_and_window())
@settings(max_examples=200, deadline=None)
def test_window_matches_scan_property(case):
    tr, t0, t1 = case
    assert events_in_window(tr, t0, t1) == events_in_window_scan(tr, t0, t1)


@given(_trace_and_window(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_first_open_row_skips_only_rows_that_ended(case, at_an_end):
    tr, t0, t1 = case
    if at_an_end and len(tr):
        # Windows that open exactly where an event ends.
        t0 = float(tr.ends[int(t0) % len(tr)])
        t1 = max(t1, t0)
    rows = window_rows(tr, t0, t1).tolist()
    assert all(tr.ends[j] > t0 for j in rows)
    want = [j for j in range(len(tr)) if tr.starts[j] < t1 and tr.ends[j] > t0]
    assert rows == want
    assert events_in_window(tr, t0, t1) == events_in_window_scan(tr, t0, t1)


# -- hourly probability ------------------------------------------------------


def test_hourly_event_probability_counts_days_with_starts():
    evs = [
        Event(id=0, start=100.0, duration=5.0),  # day 0, hour 0
        Event(id=1, start=200.0, duration=5.0),  # day 0, hour 0 again
        Event(id=2, start=SECONDS_PER_DAY + 3600.0 * 5, duration=5.0),  # day 1, hour 5
    ]
    tr = make_trace(evs, horizon=2 * SECONDS_PER_DAY)
    probs = hourly_event_probability(tr)
    assert probs[0] == 0.5  # one day of two had an hour-0 start
    assert probs[5] == 0.5
    assert probs.sum() == 1.0


def test_hourly_event_probability_over_leading_days():
    # A start on day 1 is outside the first day; the event crossing into
    # day 1 counts by its start.
    evs = [
        Event(id=0, start=SECONDS_PER_DAY - 1.0, duration=3.0),  # day 0, hour 23
        Event(id=1, start=SECONDS_PER_DAY + 100.0, duration=5.0),  # day 1, hour 0
    ]
    tr = make_trace(evs, horizon=2 * SECONDS_PER_DAY)
    probs = hourly_event_probability(tr, days=1)
    assert probs[23] == 1.0
    assert probs.sum() == 1.0


def test_hourly_event_probability_respects_origin():
    tr = make_trace(
        [Event(id=0, start=100.0, duration=5.0)], horizon=SECONDS_PER_DAY, origin_hour=22
    )
    probs = hourly_event_probability(tr)
    assert probs[22] == 1.0
    assert probs.sum() == 1.0
