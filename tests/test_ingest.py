import json
import logging
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

from zoneseq import core, ingest, synth
from zoneseq.core import Route, Stop, StopSequence, TravelTimeMatrix, ValidationError, haversine_m
from zoneseq.ingest import zsgt
from conftest import make_route, oracle_zsgt


def write_fixture(tmp_path, routes, actuals=None, travel=None, quality=None):
    (tmp_path / "routes.json").write_text(json.dumps(routes))
    if actuals is not None:
        (tmp_path / "actual_sequences.json").write_text(json.dumps(actuals))
    if travel is not None:
        (tmp_path / "travel_times.json").write_text(json.dumps(travel))
    if quality is not None:
        (tmp_path / "quality.json").write_text(json.dumps(quality))
    return tmp_path


TWO_ROUTES = {
    "r1": {
        "depot": {"lat": 0.0, "lng": 0.0},
        "stops": {
            "a": {"lat": 0.1, "lng": 0.1, "zone_id": "Z1"},
            "b": {"lat": 0.2, "lng": 0.2, "zone_id": "Z2"},
        },
    },
    "r2": {
        "depot": {"lat": 1.0, "lng": 1.0},
        "stops": {"c": {"lat": 1.1, "lng": 1.1, "zone_id": "Z9"}},
    },
}


def test_load_empty_dataset(tmp_path):
    write_fixture(tmp_path, {})
    ds = ingest.load_dataset(tmp_path)
    assert ds.routes == {}


def test_load_two_routes(tmp_path):
    write_fixture(tmp_path, TWO_ROUTES,
                  actuals={"r1": {"depot": 0, "a": 1, "b": 2}},
                  quality={"r1": "High"})
    ds = ingest.load_dataset(tmp_path)
    assert len(ds.routes) == 2
    assert ds.routes["r1"].actual.ids == ("depot", "a", "b")
    assert ds.routes["r1"].quality == "High"
    assert ds.routes["r2"].actual is None


def test_missing_routes_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest.load_dataset(tmp_path)


def test_malformed_json(tmp_path):
    (tmp_path / "routes.json").write_text("{not json")
    with pytest.raises(ValidationError, match="routes.json"):
        ingest.load_dataset(tmp_path)


def test_actual_missing_stop_names_route(tmp_path):
    write_fixture(tmp_path, TWO_ROUTES, actuals={"r1": {"depot": 0, "a": 1}})
    with pytest.raises(ValidationError, match="r1"):
        ingest.load_dataset(tmp_path)


def test_non_square_matrix_names_route(tmp_path):
    travel = {"r2": {"depot": {"depot": 0, "c": 5}, "c": {"c": 0}}}
    write_fixture(tmp_path, TWO_ROUTES, travel=travel)
    with pytest.raises(ValidationError, match="r2"):
        ingest.load_dataset(tmp_path)


@pytest.mark.parametrize("stop_id", ["depot", "a"])
@pytest.mark.parametrize("field", ["lat", "lng"])
@pytest.mark.parametrize("value", ["missing", None, "north", [1.0], True, "0.5"],
                         ids=["missing", "null", "text", "list", "true", "numeric-text"])
def test_bad_coordinate_names_route_stop_and_field(tmp_path, stop_id, field, value):
    routes = json.loads(json.dumps(TWO_ROUTES))
    body = routes["r1"]["depot"] if stop_id == "depot" else routes["r1"]["stops"][stop_id]
    if value == "missing":
        del body[field]
    else:
        body[field] = value
    write_fixture(tmp_path, routes)
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    shown = None if value == "missing" else value  # a missing field reads as null
    assert str(excinfo.value) == f"route r1: stop {stop_id}: {field} {shown!r} is not a number"


def test_reserved_zone_id_names_route_and_stop(tmp_path):
    routes = json.loads(json.dumps(TWO_ROUTES))
    routes["r1"]["stops"]["b"]["zone_id"] = "stz"
    write_fixture(tmp_path, routes)
    with pytest.raises(ValidationError, match=r"^route r1: stop b: zone id 'stz' is reserved$"):
        ingest.load_dataset(tmp_path)


@pytest.mark.parametrize("routes", [
    [{"r1": {}}],
    {"r1": []},
    {"r1": "route"},
    {"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": []}},
    {"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": "a"}},
    {"r1": {"depot": 5.5, "stops": {}}},
    {"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {"a": [0.1, 0.1]}}},
    {"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {"a": "Z1"}}},
], ids=["top-list", "body-list", "body-text", "stops-list", "stops-text", "depot-number",
        "stop-list", "stop-text"])
def test_non_object_route_or_stops_names_route(tmp_path, routes):
    write_fixture(tmp_path, routes)
    match = "routes.json" if isinstance(routes, list) else "route r1: .*JSON object"
    with pytest.raises(ValidationError, match=match):
        ingest.load_dataset(tmp_path)


@pytest.mark.parametrize("actuals, travel, match", [
    (["r1"], None, "actual_sequences.json"),
    ({"r1": ["depot", "a", "b"]}, None, "route r1: actual sequence"),
    ({"r1": {"depot": "0", "a": 1, "b": 2}}, None, "route r1: actual sequence"),
    ({"r1": {"depot": 0, "a": True, "b": 2}}, None,
     "route r1: actual sequence position of stop 'a' is not an integer: True"),
    ({"r1": {"depot": False, "a": 1, "b": 2}}, None,
     "route r1: actual sequence position of stop 'depot' is not an integer: False"),
    ({"r1": {"depot": 0, "a": 1, "b": 2.0}}, None,
     "route r1: actual sequence position of stop 'b' is not an integer: 2.0"),
    (None, [], "travel_times.json"),
    (None, {"r1": [1, 2]}, "route r1: travel time matrix"),
    (None, {"r2": {"depot": [0, 5], "c": {"depot": 5, "c": 0}}},
     "route r2: travel time matrix"),
    (None, {"r2": {"depot": {"depot": 0, "c": "far"}, "c": {"depot": 5, "c": 0}}},
     "route r2: travel time matrix"),
    (None, {"r2": {"depot": {"depot": 0, "c": True}, "c": {"depot": 5, "c": 0}}},
     "route r2: travel time matrix has a non-numeric entry 'depot' -> 'c': True"),
    (None, {"r2": {"depot": {"depot": 0, "c": 5}, "c": {"depot": 5, "c": False}}},
     "route r2: travel time matrix has a non-numeric entry 'c' -> 'c': False"),
    (None, {"r2": {"depot": {"depot": 0, "c": "7"}, "c": {"depot": 5, "c": 0}}},
     "route r2: travel time matrix has a non-numeric entry 'depot' -> 'c': '7'"),
], ids=["actuals-top-list", "actual-list", "actual-text-position",
        "actual-true-position", "actual-false-position", "actual-float-position",
        "travel-top-list", "matrix-list", "matrix-row-list", "matrix-text-entry",
        "matrix-true-entry", "matrix-false-entry", "matrix-numeric-text-entry"])
def test_malformed_actuals_or_travel_times_name_route(tmp_path, actuals, travel, match):
    write_fixture(tmp_path, TWO_ROUTES, actuals=actuals, travel=travel)
    with pytest.raises(ValidationError, match=match):
        ingest.load_dataset(tmp_path)


def _r1_matrix(**entries):
    """A valid travel-time matrix for TWO_ROUTES' r1 with some entries replaced."""
    ids = ("a", "b", "depot")
    rows = {x: {y: 0 if x == y else 5 for y in ids} for x in ids}
    for key, value in entries.items():
        x, y = key.split("_")
        rows[x][y] = value
    return rows


HUGE = 10 ** 400  # parses as a Python int that float() cannot hold


@pytest.mark.parametrize("lat, matrix, message", [
    (None, _r1_matrix(a_depot=-5), "route r1: travel time a->depot is -5.0"),
    (None, _r1_matrix(b_b=float("nan")), "route r1: travel time b->b is nan"),
    (None, _r1_matrix(b_b=3), "route r1: nonzero diagonal at b"),
    (95, None, "route r1: stop a: lat 95 out of [-90, 90]"),
    (None, _r1_matrix(a_b=HUGE),
     "route r1: travel time matrix has a malformed or non-numeric entry"),
    (HUGE, None, "route r1: stop a: lat 100000000000000000...0000000000000000000 out of [-90, 90]"),
], ids=["negative", "nan", "nonzero-diagonal", "lat-95", "huge-travel-time", "huge-lat"])
def test_travel_time_and_coordinate_errors_name_route(tmp_path, lat, matrix, message):
    routes = json.loads(json.dumps(TWO_ROUTES))
    if lat is not None:
        routes["r1"]["stops"]["a"]["lat"] = lat
    travel = {"r2": {"c": {"c": 0, "depot": 3}, "depot": {"c": 4, "depot": 0}}}
    if matrix is not None:
        travel["r1"] = matrix
    write_fixture(tmp_path, routes, travel=travel)
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == message


def test_route_errors_name_the_route_once(tmp_path):
    routes = json.loads(json.dumps(TWO_ROUTES))
    write_fixture(tmp_path, routes, actuals={"r2": {"depot": 0}})
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == (
        "route r2: actual sequence is not a permutation of stops"
    )


def test_every_bad_route_is_named_in_route_id_order(tmp_path):
    routes = json.loads(json.dumps(TWO_ROUTES))
    del routes["r1"]["depot"]
    routes = {"r3": {"depot": {"lat": 2.0, "lng": 2.0},
                     "stops": {"d": {"lat": "2.1", "lng": 2.1, "zone_id": "Z1"}}}, **routes}
    write_fixture(tmp_path, routes)
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == (
        "route r1: missing depot entry; route r3: stop d: lat '2.1' is not a number"
    )


def test_loaded_travel_times_are_a_read_only_array(tmp_path):
    write_fixture(tmp_path, TWO_ROUTES, travel={"r1": _r1_matrix(a_b=7.5)})
    matrix = ingest.load_dataset(tmp_path).routes["r1"].travel_times
    assert matrix.ids == ("a", "b", "depot")
    assert matrix.t.tolist() == [[0.0, 7.5, 5.0], [5.0, 0.0, 5.0], [5.0, 5.0, 0.0]]
    assert not matrix.t.flags.writeable


def test_travel_time_row_with_a_key_that_is_not_a_stop_names_route_row_and_key(tmp_path):
    matrix = _r1_matrix()
    matrix["b"].update(zzz_not_a_stop=5.0, yyy=1.0)
    write_fixture(tmp_path, TWO_ROUTES, travel={"r1": matrix})
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == "route r1: travel time row 'b' has a non-stop key 'yyy'"


def test_travel_time_row_keys_that_are_stops_without_a_row_are_a_mismatch(tmp_path):
    matrix = _r1_matrix()
    del matrix["b"]
    write_fixture(tmp_path, TWO_ROUTES, travel={"r1": matrix})
    with pytest.raises(ValidationError, match="route r1: travel time matrix ids do not match"):
        ingest.load_dataset(tmp_path)


def test_travel_time_rows_in_any_key_order_and_with_int_seconds_load_the_same_matrix(
        tmp_path):
    rng = random.Random(5)
    ids = ("a", "b", "depot")
    rows = {x: {y: 0.0 if x == y else float(rng.randrange(1, 900)) / rng.choice([1, 4])
                for y in ids} for x in ids}
    rows["a"]["b"] = 2.0 ** 53  # an int a float64 holds exactly, where rounding starts
    write_fixture(tmp_path, TWO_ROUTES, travel={"r1": rows})
    expected = ingest.load_dataset(tmp_path).routes["r1"].travel_times
    text = json.dumps({"r1": {x: {y: int(v) if v.is_integer() else v
                                  for y, v in reversed(row.items())}
                              for x, row in reversed(rows.items())}})
    assert '"depot": 0, ' in text and '"b": 9007199254740992, ' in text
    (tmp_path / "travel_times.json").write_text(text)
    matrix = ingest.load_dataset(tmp_path).routes["r1"].travel_times
    assert matrix.ids == expected.ids == ids
    assert matrix.t.tobytes() == expected.t.tobytes()
    assert not matrix.t.flags.writeable


@pytest.mark.parametrize("travel, message", [
    ({}, None),
    ({"r1": {}}, "route r1: travel time matrix ids do not match stops"),
    ({"r1": {**_r1_matrix(), "b": {}}},
     "route r1: travel time matrix is not square, missing entry for 'a'"),
    ({"r1": 5}, "route r1: travel time matrix must be a JSON object, got int"),
    ({"r1": 5.5}, "route r1: travel time matrix must be a JSON object, got float"),
    ({"r2": 7, "r1": 5.5}, "route r1: travel time matrix must be a JSON object, got float; "
                           "route r2: travel time matrix must be a JSON object, got int"),
    ({"r1": {"a": 5, "b": 5.5}},
     "route r1: travel time matrix has a malformed or non-numeric entry"),
    ({"r1": {**_r1_matrix(), "b": {"a": 5, "b": {"c": 5, "d": 2.5}, "depot": 5}}},
     "route r1: travel time matrix has a non-numeric entry 'b' -> 'b': {'c': 5, 'd': 2.5}"),
    ({"r1": {**_r1_matrix(), "b": {"a": 5, "b": {"c": 2 ** 53 + 1}, "depot": 5}}},
     "route r1: travel time matrix has a non-numeric entry 'b' -> 'b': {'c': 9007199254740993}"),
    ({"r1": {**_r1_matrix(), "b": {"a": 5, "b": {"c": {"x": 1}}, "depot": 5}}},
     "route r1: travel time matrix has a non-numeric entry 'b' -> 'b': {'c': {'x': 1}}"),
    ({"r1": {**_r1_matrix(), "b": {"a": 5, "b": 0, "depot": 10 ** 400}}},
     "route r1: travel time matrix has a malformed or non-numeric entry"),
    ({"r1": {**_r1_matrix(), "b": {"b": 0, "depot": 5}}},
     "route r1: travel time matrix is not square, missing entry for 'a'"),
    ({"r1": {**_r1_matrix(), "b": {"a": 5, "b": 0, "depot": 5, "zz": 2}}},
     "route r1: travel time row 'b' has a non-stop key 'zz'"),
], ids=["top-empty", "matrix-empty", "row-empty", "top-int", "top-float", "top-two-routes",
        "matrix-of-numbers", "entry-of-numbers", "entry-of-a-long-int", "entry-of-objects",
        "huge-int-in-row", "row-missing-a-key", "row-with-a-key-more"])
def test_objects_of_numbers_out_of_row_place_load_as_plain_json(tmp_path, travel, message):
    # Each message is the one a dict of dicts of numbers gives.
    write_fixture(tmp_path, TWO_ROUTES, travel=travel)
    if message is None:
        assert [r.travel_times for r in ingest.load_dataset(tmp_path).routes.values()] == [
            None, None]
        return
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == message


FUZZ_VALUES = [0, 7, 2.5, -1, 2 ** 53 + 1, HUGE, True, False, None, "7", [], [0, 5], {},
               {"c": 5}, {"c": 5.5, "depot": 0}, {"c": 2 ** 53 + 1}, float("nan")]


def _mutate(travel, rng):
    """One random edit of a travel_times.json object, below its top level."""
    slots = []  # (object, key) of every value below the top level

    def walk(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                slots.append((obj, key))
                walk(value)

    walk(travel)
    obj, key = rng.choice(slots)
    op = rng.randrange(5)
    if op == 0:
        obj[key] = json.loads(json.dumps(rng.choice(FUZZ_VALUES)))
    elif op == 1:
        del obj[key]
    elif op == 2:
        obj[rng.choice(["a", "b", "c", "depot", "zz"])] = rng.choice([0, 5, 2.5])
    elif op == 3 and isinstance(obj[key], dict):
        obj[key] = dict(reversed(obj[key].items()))
    elif type(obj[key]) is int:
        obj[key] = float(obj[key])


def test_travel_time_rows_load_as_plain_json_does_fuzz(tmp_path, monkeypatch):
    # The reference decodes every object to a dict, so every row takes the
    # path that checks dicts: each file must load to the same matrices, bit
    # for bit, or fail with the same message.
    rng = random.Random(11)
    outcomes = set()
    for _ in range(300):
        travel = {"r1": _r1_matrix(a_b=2.5),
                  "r2": {"c": {"c": 0, "depot": 3}, "depot": {"c": 4.0, "depot": 0}}}
        for _ in range(rng.randint(0, 3)):
            _mutate(travel, rng)
        write_fixture(tmp_path, TWO_ROUTES, travel=travel)
        results = []
        for decode_rows in (True, False):
            monkeypatch.setattr(ingest, "read_json", lambda path, what, form=None, _d=decode_rows:
                                core.read_json(path, what, form=form if _d else None))
            try:
                routes = ingest.load_dataset(tmp_path).routes.values()
                results.append([(r.travel_times.ids, r.travel_times.t.tobytes())
                                if r.travel_times else None for r in routes])
            except ValidationError as exc:
                results.append(str(exc))
        assert results[0] == results[1], travel
        outcomes.add(type(results[0]))
    assert outcomes == {list, str}


STOP = {"lat": 0.5, "lng": 0.5, "zone_id": "Z1"}  # an object in the stop form


@pytest.mark.parametrize("routes, message", [
    (STOP, "route lat: route body must be a JSON object, got float; "
           "route lng: route body must be a JSON object, got float; "
           "route zone_id: route body must be a JSON object, got str"),
    ({"r1": STOP}, "route r1: missing depot entry"),
    ({"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": STOP}},
     "route r1: stop 'lat' must be a JSON object, got float"),
    ({"r1": {"depot": STOP, "stops": {"a": STOP}}}, None),
    ({"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {"a": {**STOP, "zone_id": STOP}}}},
     "route r1: stop a: zone id {'lat': 0.5, 'lng': 0.5, 'zone_id': 'Z1'} is not a string"),
    ({"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {"a": {**STOP, "lat": [STOP]}}}},
     "route r1: stop a: lat [{'lat': 0.5, 'lng': 0.5, 'zone_id': 'Z1'}] is not a number"),
    ({"r1": {"depot": {"lat": {"x": STOP}, "lng": 0.0}, "stops": {"a": STOP}}},
     "route r1: stop depot: lat {'x': {'lat': 0.5, 'lng': 0.5, 'zone_id': 'Z1'}} is not a number"),
], ids=["top-level", "route-body", "stops", "depot", "zone-id", "in-a-list", "in-an-object"])
def test_objects_in_stop_form_out_of_stop_place_load_as_plain_json(tmp_path, routes, message):
    # Each message is the one the file gives when every object decodes to a dict.
    write_fixture(tmp_path, routes)
    if message is None:  # the depot's zone id is not read
        stops = ingest.load_dataset(tmp_path).routes["r1"].stops
        assert stops == {"depot": Stop("depot", 0.5, 0.5), "a": Stop("a", 0.5, 0.5, "Z1")}
        return
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == message


def test_a_stop_field_nested_nearly_too_deep_to_decode_fails_as_a_validation_error(tmp_path):
    # Route's message shows six levels of it; undoing the stop form in every
    # level would pass the recursion limit.
    nested = "[" * 800 + "0" + "]" * 800
    (tmp_path / "routes.json").write_text(
        json.dumps(TWO_ROUTES).replace('"lat": 0.1,', f'"lat": {nested},', 1))
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == "route r1: stop a: lat [[[[[[[...]]]]]]] is not a number"


ROUTE_FUZZ_VALUES = [0, 1, 2.5, -1, 95.0, HUGE, True, False, None, "", "Z1", "7", [], {},
                     STOP, {**STOP, "lat": 1}, {**STOP, "zone_id": ""}, float("nan")]
DUPLICATE = "\0duplicate:"  # cut from the file's text: the key after it is there twice


def _mutate_routes(routes, rng):
    """One random edit of a routes.json object, below its top level."""
    slots = []  # (object, key) of every value below the top level

    def walk(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                slots.append((obj, key))
                walk(value)

    walk(routes)
    obj, key = rng.choice(slots)
    op = rng.randrange(8)
    if op == 0:
        obj[key] = json.loads(json.dumps(rng.choice(ROUTE_FUZZ_VALUES)))
    elif op == 1:
        del obj[key]
    elif op == 2:
        obj[rng.choice(["lat", "lng", "zone_id", "depot", "stops", "x"])] = rng.choice(
            [0.5, 1, "Z2", None])
    elif op == 3 and isinstance(obj[key], dict):
        obj[key] = dict(reversed(obj[key].items()))
    elif op == 4 and isinstance(obj[key], dict) and obj[key]:
        obj[key][DUPLICATE + rng.choice(list(obj[key]))] = rng.choice([0.5, "Z2"])
    elif op == 5:  # renamed in place, a stop id to "lat" among others
        name = rng.choice(["lat", "lng", "zone_id", "x"])
        items = [(name if k == key else k, v) for k, v in obj.items() if k != name]
        obj.clear()
        obj.update(items)
    elif op == 6:
        obj[key] = dict(STOP)
    elif type(obj[key]) is float and np.isfinite(obj[key]):
        obj[key] = rng.choice([int(obj[key]), True, False])
    elif type(obj[key]) is str:
        obj[key] = rng.choice(["", None])


def test_stops_load_as_plain_json_does_fuzz(tmp_path, monkeypatch):
    # The reference decodes every object to a dict, so every stop takes the
    # path that checks dicts: each file must load to equal routes or fail
    # with the same message. A load without costs reads the travel times,
    # here not JSON, only when a stop has no zone id (or a body is malformed).
    rng = random.Random(13)
    outcomes = set()
    for _ in range(300):
        routes = json.loads(json.dumps(TWO_ROUTES))
        routes["r2"]["stops"]["d"] = {"lat": 1.2, "lng": 1.25, "zone_id": "Z1"}
        for _ in range(rng.randint(0, 3)):
            _mutate_routes(routes, rng)
        text = json.dumps(routes).replace('"' + json.dumps(DUPLICATE)[1:-1], '"')
        (tmp_path / "routes.json").write_text(text)
        costs = rng.random() < 0.5
        (tmp_path / "travel_times.json").write_text("{}" if costs else "{not json")
        results = []
        for decode_stops in (True, False):
            monkeypatch.setattr(ingest, "read_json", lambda path, what, form=None,
                                _d=decode_stops: core.read_json(path, what, form=form if _d else None))
            try:  # by repr, as a Stop of 1 equals one of 1.0
                results.append(repr(list(ingest.load_dataset(tmp_path, costs).routes.values())))
            except ValidationError as exc:
                results.append(str(exc))
        assert results[0] == results[1], text
        outcomes.add(results[0].startswith("[Route("))
    assert outcomes == {True, False}


def test_duplicate_key_in_a_travel_time_row_names_file_and_key(tmp_path):
    write_fixture(tmp_path, TWO_ROUTES, travel={"r1": _r1_matrix()})
    path = tmp_path / "travel_times.json"
    path.write_text(path.read_text().replace('"b": {"a": 5, ', '"b": {"a": 5, "b": 0, ', 1))
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == f"dataset file {path} has the key 'b' twice"


def test_load_peak_memory_is_the_text_not_the_travel_times(tmp_path):
    # One route of 300 stops: 90k travel times in a 2.9 MB file. Decoded as
    # a dict of floats per row, the load peaked at 2.51x the file's size;
    # decoded into one array per row, at 2.05x (the text, as bytes and str).
    cfg = synth.SynthConfig(seed=3, n_train_routes=1, n_eval_routes=1, zones_per_route=[10, 10],
                            stops_per_zone=[30, 30])
    _, eval_ds = synth.generate(cfg)
    ingest.write_dataset(eval_ds, tmp_path)
    size = (tmp_path / "travel_times.json").stat().st_size
    tracemalloc.start()
    try:
        loaded = ingest.load_dataset(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.routes == eval_ds.routes
    assert peak < 2.3 * size, (peak, size)


def test_load_peak_memory_is_the_text_for_rows_in_any_key_order(tmp_path):
    # The file of the test above with each row's keys reversed. Each row put
    # in id order as its array, the load peaked at 2.03x the file's size, as
    # for sorted rows; through a dict of floats per row, at 2.16x.
    cfg = synth.SynthConfig(seed=3, n_train_routes=1, n_eval_routes=1, zones_per_route=[10, 10],
                            stops_per_zone=[30, 30])
    _, eval_ds = synth.generate(cfg)
    ingest.write_dataset(eval_ds, tmp_path)
    path = tmp_path / "travel_times.json"
    path.write_text(json.dumps({r: {a: dict(reversed(row.items())) for a, row in m.items()}
                                for r, m in json.loads(path.read_text()).items()}))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = ingest.load_dataset(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.routes == eval_ds.routes
    assert peak < 2.1 * size, (peak, size)


def test_load_peak_memory_for_training_is_the_text_not_the_stops(tmp_path):
    # 200 training routes of 30 zones of 3 stops, no travel times: 18k
    # stops in a 1.9 MB routes.json. Decoded as a dict per stop, the load
    # without costs peaked at 4.67x the file's size (4.66x for perfbench's
    # 1000-route train-heavy split); decoded as a Stop per stop, with
    # shared zone ids and each raw route dropped once built, at 2.64x
    # (2.61x).
    cfg = synth.SynthConfig(seed=3, n_train_routes=200, n_eval_routes=1, zones_per_route=[30, 30],
                            stops_per_zone=[3, 3], pattern_strength=1.0, n_zone_templates=26,
                            with_travel_times=False)
    train, _ = synth.generate(cfg)
    ingest.write_dataset(train, tmp_path)
    size = (tmp_path / "routes.json").stat().st_size
    tracemalloc.start()
    try:
        loaded = ingest.load_dataset(tmp_path, costs=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.routes == train.routes
    assert peak < 3.3 * size, (peak, size)


def test_a_decoded_stop_takes_a_stops_size():
    # The Stop built from a decoded stop reuses the tuple's freed block only
    # if both are one size. A (lat, lng, zone_id) 3-tuple takes the stop ids'
    # size instead: on perfbench's seed-42 train-heavy split, the blocks it
    # left free raised train's peak RSS from 55.5 to 60.3 MB, which the
    # tracemalloc guards above do not see.
    decoded = core.stop_form()([("lat", 0.5), ("lng", 0.5), ("zone_id", "Z1")])
    assert sys.getsizeof(decoded) == sys.getsizeof(Stop("a", 0.5, 0.5, "Z1"))


@pytest.mark.parametrize("name", ("routes.json",) + ingest.OPTIONAL_FILES)
def test_duplicate_key_in_a_dataset_file_names_file_and_key(tmp_path, name):
    write_fixture(tmp_path, TWO_ROUTES, actuals={"r1": {"depot": 0, "a": 1, "b": 2}},
                  travel={"r1": _r1_matrix()}, quality={"r1": "High"})
    path = tmp_path / name
    path.write_text(path.read_text().replace("{", '{"r1": 0, ', 1))
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == f"dataset file {path} has the key 'r1' twice"


@pytest.mark.parametrize("name", ingest.OPTIONAL_FILES)
def test_route_id_only_an_optional_file_holds_names_file_and_id(tmp_path, name):
    files = {"actual_sequences.json": {"r1": {"depot": 0, "a": 1, "b": 2}},
             "travel_times.json": {"r1": _r1_matrix()},
             "quality.json": {"r1": "High"}}
    files[name].update({"r9": files[name]["r1"], "r7": files[name]["r1"]})
    write_fixture(tmp_path, TWO_ROUTES, actuals=files["actual_sequences.json"],
                  travel=files["travel_times.json"], quality=files["quality.json"])
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == (
        f"dataset file {tmp_path / name} has unknown route r7"
    )


@pytest.mark.parametrize("zone", [5, 0, ["Z1"]], ids=["int", "zero", "list"])
def test_non_string_zone_id_names_route_stop_and_field(tmp_path, zone):
    routes = json.loads(json.dumps(TWO_ROUTES))
    routes["r1"]["stops"]["a"]["zone_id"] = zone
    write_fixture(tmp_path, routes)
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == f"route r1: stop a: zone id {zone!r} is not a string"


@pytest.mark.parametrize("quality", ["high", "HIGH", "", 1, None],
                         ids=["lower", "upper", "empty", "int", "null"])
def test_unknown_quality_names_route_and_allowed_values(tmp_path, quality):
    write_fixture(tmp_path, TWO_ROUTES, quality={"r1": "High", "r2": quality})
    if quality is None:
        assert ingest.load_dataset(tmp_path).routes["r2"].quality is None
        return
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    message = str(excinfo.value)
    assert "route r2" in message
    assert "'High', 'Medium', 'Low'" in message


def test_load_logs_each_file_read_and_the_counts_at_debug(tmp_path, caplog):
    write_fixture(tmp_path, TWO_ROUTES, actuals={"r1": {"depot": 0, "a": 1, "b": 2}},
                  travel={"r1": _r1_matrix()})
    with caplog.at_level(logging.WARNING, logger="zoneseq"):
        ingest.load_dataset(tmp_path)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="zoneseq"):
        ingest.load_dataset(tmp_path)
    lines = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    assert [line[:2] for line in lines] == [("zoneseq", "DEBUG")] * 4
    for (_, _, message), name in zip(lines, ["routes.json", "actual_sequences.json",
                                             "travel_times.json"]):
        path = tmp_path / name
        assert re.fullmatch(rf"read {re.escape(str(path))}: {path.stat().st_size} bytes "
                            r"in \d+\.\d{3} s", message), message
    assert lines[3][2] == "loaded 2 routes, 9 travel-time entries"


def test_load_without_costs_reads_travel_times_only_to_impute(tmp_path):
    write_fixture(tmp_path, TWO_ROUTES)
    (tmp_path / "travel_times.json").write_text("{not json")
    ds = ingest.load_dataset(tmp_path, costs=False)
    assert [route.travel_times for route in ds.routes.values()] == [None, None]
    with pytest.raises(ValidationError, match="travel_times.json"):
        ingest.load_dataset(tmp_path)
    routes = json.loads(json.dumps(TWO_ROUTES))
    routes["r2"]["stops"]["x"] = {"lat": 1.2, "lng": 1.2, "zone_id": ""}
    write_fixture(tmp_path, routes)  # a stop to impute, from the travel times
    with pytest.raises(ValidationError, match="travel_times.json"):
        ingest.load_dataset(tmp_path, costs=False)


def test_zone_imputation_on_load(tmp_path):
    routes = {
        "r1": {
            "depot": {"lat": 0.0, "lng": 0.0},
            "stops": {
                "a": {"lat": 0.0, "lng": 0.1, "zone_id": "Z1"},
                "b": {"lat": 0.0, "lng": 0.5, "zone_id": "Z2"},
                "x": {"lat": 0.0, "lng": 0.12, "zone_id": None},
            },
        }
    }
    write_fixture(tmp_path, routes)
    ds = ingest.load_dataset(tmp_path)
    assert ds.routes["r1"].stops["x"].zone_id == "Z1"


def test_imputed_route_computes_its_haversine_stops_once(tmp_path, monkeypatch):
    # 20 delivery stops and no travel times; one stop has a blank zone id
    stops = {f"s{i:02d}": {"lat": 0.001 * i, "lng": 0.002 * i, "zone_id": f"Z{i // 5}"}
             for i in range(20)}
    stops["s07"]["zone_id"] = ""
    write_fixture(tmp_path, {"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": stops}})
    calls = []
    haversine_matrix = core.haversine_matrix

    def counted(points, targets=None):
        calls.append(len(points))
        return haversine_matrix(points, targets)

    monkeypatch.setattr(core, "haversine_matrix", counted)
    route = ingest.load_dataset(tmp_path).routes["r1"]
    assert calls == [1]  # the zoneless stop's row, against the 19 zoned stops
    index, cost = route.stop_cost
    assert calls == [1, 21]  # the whole block, when first read
    assert route.stops["s07"].zone_id == "Z1"  # s06 and s08 are its nearest stops
    expected = haversine_matrix([(route.stops[sid].lat, route.stops[sid].lng) for sid in index])
    assert np.array_equal(cost, expected)


def test_impute_zone_forced():
    route = make_route(stops=[("a", 0, 0.1, "Z1"), ("x", 0, 0.9, None)])
    assert route.stops["x"].zone_id == "Z1"


def test_impute_zone_tie_breaks_on_stop_id():
    # two equidistant candidates with zones "A" (stop a1) and "B" (stop b1)
    route = make_route(stops=[("a1", 0, 1.0, "A"), ("b1", 0, -1.0, "B"),
                              ("x", 0, 0.0, None)])
    assert route.stops["x"].zone_id == "A"


def test_impute_zone_brute_force_nearest():
    # with and without travel times, and one to three zoneless stops ("" or
    # None); small integer times make ties that the stop id breaks. Each
    # zoneless stop takes its zone from the stops as given, so never from
    # another zoneless one, even when that one is nearer.
    rng = random.Random(11)
    for with_times in (False, True) * 20:
        stops = [(f"s{i}", rng.uniform(-1, 1), rng.uniform(-1, 1), f"Z{i}")
                 for i in range(rng.randint(1, 6))]
        zoneless = [f"x{i}" for i in range(rng.randint(1, 3))]
        stops += [(sid, rng.uniform(-1, 1), rng.uniform(-1, 1), rng.choice([None, ""]))
                  for sid in zoneless]
        rng.shuffle(stops)
        times = None
        if with_times:
            ids = ["depot"] + [s[0] for s in stops]
            times = {a: {b: 0 if a == b else rng.randint(1, 4) for b in ids} for a in ids}
        coords = {sid: (lat, lng) for sid, lat, lng, _ in stops}
        zoned = [(sid, zone) for sid, _, _, zone in stops if zone]
        route = make_route(stops=stops, travel_times=times)
        for x in zoneless:

            def cost(sid):
                if with_times:
                    return times[x][sid]
                return haversine_m(coords[x], coords[sid])

            _, zone = min(zoned, key=lambda sz: (cost(sz[0]), sz[0]))
            assert route.stops[x].zone_id == zone


def test_impute_zone_no_candidates():
    with pytest.raises(ValidationError, match="route r1: no zoned stop available to impute x"):
        make_route(stops=[("x", 0, 0, None)])


def test_loading_blank_zones_builds_each_route_once(tmp_path, monkeypatch):
    routes = {"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {
        "a": {"lat": 0.0, "lng": 0.1, "zone_id": "Z1"},
        "x": {"lat": 0.0, "lng": 0.12, "zone_id": None},
        "y": {"lat": 0.0, "lng": 0.13, "zone_id": ""},
    }}}
    write_fixture(tmp_path, routes)
    calls = []
    post_init = core.Route.__post_init__

    def counted(route):
        calls.append(route.route_id)
        post_init(route)

    monkeypatch.setattr(core.Route, "__post_init__", counted)
    route = ingest.load_dataset(tmp_path).routes["r1"]
    assert calls == ["r1"]
    assert route.stops["x"].zone_id == route.stops["y"].zone_id == "Z1"


# -- zone runs and the lossy collapse ---------------------------------------


def run_route(runs):
    """A route whose actual visits the given (zone, stop count) runs in order."""
    stops, actual = [], ["depot"]
    for zone, count in runs:
        for _ in range(count):
            sid = f"s{len(stops)}"
            stops.append((sid, 0.001 * len(stops), 0.001 * len(stops), zone))
            actual.append(sid)
    return make_route(stops=stops, actual=actual)


def test_collapse_fig2_pattern():
    # Run pattern ABCDEFGFGHIJKLE with E(2nd) = 1 stop and G(1st) >= G(2nd).
    runs = [(z, 1) for z in "ABCDEFGFGHIJKLE"]
    runs[4], runs[6] = ("E", 2), ("G", 2)
    assert "".join(zsgt(run_route(runs))) == "ABCDEFGHIJKL"


def test_zone_runs_all_same_zone():
    assert zsgt(run_route([("Z", 2)])) == ("Z",)


def test_zone_runs_alternating():
    assert zsgt(run_route([("A", 1), ("B", 1), ("A", 1)])) == ("A", "B")


def test_zone_runs_matches_oracle_fuzz():
    rng = random.Random(5)
    shapes = {
        "one-stop": lambda: ["A"],
        "one-zone": lambda: ["A"] * rng.randint(2, 12),
        "alternating": lambda: ["A", "B"] * rng.randint(1, 6),
        "long-runs": lambda: [z for z in rng.choices("ABC", k=rng.randint(1, 4))
                              for _ in range(rng.randint(5, 15))],
        "random": lambda: rng.choices("ABCD", k=rng.randint(1, 30)),
    }
    for _ in range(60):
        for shape, zones_of in shapes.items():
            zones = zones_of()
            stops = [(f"s{i}", 0.001 * i, 0.001 * i, z) for i, z in enumerate(zones)]
            order = [sid for sid, *_ in stops]
            rng.shuffle(order)
            route = make_route(stops=stops, actual=["depot"] + order)
            assert zsgt(route) == oracle_zsgt(route), shape


def test_collapse_no_repeats_is_identity():
    assert zsgt(run_route([("A", 2), ("B", 1)])) == ("A", "B")


def test_collapse_keeps_max_count_run():
    assert zsgt(run_route([("A", 2), ("B", 1), ("A", 5)])) == ("B", "A")


def test_collapse_tie_keeps_earlier_run():
    assert zsgt(run_route([("A", 2), ("B", 1), ("A", 2)])) == ("A", "B")


def test_collapse_properties_fuzz():
    rng = random.Random(5)
    for _ in range(100):
        zones = [rng.choice("ABCDE") for _ in range(rng.randint(1, 12))]
        runs = []
        for z in zones:
            if runs and runs[-1][0] == z:
                continue
            runs.append((z, rng.randint(1, 4)))
        zs = zsgt(run_route(runs))
        assert len(set(zs)) == len(zs)
        assert set(zs) == {z for z, _ in runs}


def test_training_corpus_excludes_low_quality(tmp_path):
    write_fixture(tmp_path, TWO_ROUTES,
                  actuals={"r1": {"depot": 0, "a": 1, "b": 2},
                           "r2": {"depot": 0, "c": 1}},
                  quality={"r1": "Low", "r2": "High"})
    ds = ingest.load_dataset(tmp_path)
    assert ingest.training_corpus(ds) == [("Z9",)]
    assert ingest.training_corpus(ds, include_low=True) == [("Z1", "Z2"), ("Z9",)]


def test_empty_training_corpus_names_both_reasons(tmp_path, caplog):
    routes = dict(TWO_ROUTES, r2={"depot": {"lat": 1.0, "lng": 1.0}, "stops": {}})
    write_fixture(tmp_path, routes,
                  actuals={"r1": {"depot": 0, "a": 1, "b": 2}, "r2": {"depot": 0}},
                  quality={"r1": "Low", "r2": "High"})
    ds = ingest.load_dataset(tmp_path)
    with pytest.raises(ValidationError) as excinfo:
        ingest.training_corpus(ds)
    assert str(excinfo.value) == (
        "dataset has no routes to train on: routes r2 have no delivery stops;"
        " Low quality routes r1 are left out; --include-low keeps them"
    )
    assert "skipped 1 routes without delivery stops: r2" in caplog.text
    assert ingest.training_corpus(ds, include_low=True) == [("Z1", "Z2")]


def test_roundtrip_byte_stable(tmp_path):
    travel = {"r1": {"depot": {"depot": 0, "a": 5, "b": 9},
                     "a": {"depot": 7, "a": 0, "b": 3},
                     "b": {"depot": 9, "a": 4, "b": 0}}}
    write_fixture(tmp_path, TWO_ROUTES,
                  actuals={"r1": {"depot": 0, "a": 1, "b": 2}},
                  travel=travel,
                  quality={"r1": "High"})
    ds = ingest.load_dataset(tmp_path)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    ingest.write_dataset(ds, out1)
    ingest.write_dataset(ingest.load_dataset(out1), out2)
    for name in ("routes.json", "actual_sequences.json", "travel_times.json", "quality.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert json.loads((out1 / "travel_times.json").read_text()) == travel


def test_int_coordinates_load_and_write_back_as_ints(tmp_path):
    # Route takes an int coordinate as it is, so the file keeps its form.
    routes = json.loads(json.dumps(TWO_ROUTES))
    routes["r1"]["stops"]["a"]["lat"] = 47
    routes["r1"]["depot"]["lng"] = -3
    write_fixture(tmp_path, routes)
    ds = ingest.load_dataset(tmp_path)
    assert repr(ds.routes["r1"].stops["a"].lat) == "47"
    assert repr(ds.routes["r1"].depot.lng) == "-3"
    ingest.write_dataset(ds, tmp_path / "out")
    written = json.loads((tmp_path / "out" / "routes.json").read_text())
    assert repr(written["r1"]["stops"]["a"]["lat"]) == "47"
    assert repr(written["r1"]["depot"]["lng"]) == "-3"


def _stdlib_files(dataset):
    """The oracle: every file write_dataset writes, as the stdlib encoder writes its dict.

    The dicts are built as write_dataset built them before it streamed each
    file; an optional file without routes is not written.
    """
    routes, actuals, matrices, qualities = {}, {}, {}, {}
    for route_id in sorted(dataset.routes):
        route = dataset.routes[route_id]
        routes[route_id] = {
            "depot": {"lat": route.depot.lat, "lng": route.depot.lng},
            "stops": {
                s.id: {"lat": s.lat, "lng": s.lng, "zone_id": s.zone_id}
                for s in sorted(route.delivery_stops(), key=lambda s: s.id)
            },
        }
        if route.actual is not None:
            actuals[route_id] = {sid: i for i, sid in enumerate(route.actual.ids)}
        m = route.travel_times
        if m is not None:
            matrices[route_id] = {a: dict(zip(m.ids, row)) for a, row in zip(m.ids, m.t.tolist())}
        if route.quality is not None:
            qualities[route_id] = route.quality
    files = {"routes.json": routes, "actual_sequences.json": actuals,
             "travel_times.json": matrices, "quality.json": qualities}
    return {name: json.dumps(obj, sort_keys=True, indent=1)
            for name, obj in files.items() if obj or name == "routes.json"}


def assert_files_match_the_stdlib_encoder(dataset, dir_path, monkeypatch):
    """write_dataset writes the oracle's files, one chunk per route plus the closing brace.

    `dir_path` first holds every file of an older dataset: those the new
    one has no data for must go.
    """
    dir_path.mkdir()
    for name in ("routes.json", *ingest.OPTIONAL_FILES):
        (dir_path / name).write_text("{}")
    chunks = {}

    def recording(path, produced, text=False):
        chunks[path.name] = list(produced)
        core.write_file(path, chunks[path.name], text=text)

    monkeypatch.setattr(ingest, "write_file", recording)
    ingest.write_dataset(dataset, dir_path)
    monkeypatch.undo()
    expected = _stdlib_files(dataset)
    assert sorted(p.name for p in dir_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (dir_path / name).read_bytes() == text.encode("ascii"), name
        assert len(chunks[name]) == len(json.loads(text)) + 1, name


def _symmetric(n, rng):
    t = np.triu(rng.uniform(0.0, 5000.0, (n, n)), 1)
    return t + t.T


EDGE_VALUES = [3.0, 5e-324, 1e-7, 1e16, 120.0, 0.1 + 0.2]

# Coordinates the API accepts: ints, signed zeros and the ends of each range.
EDGE_LATS = [47, -0.0, 90.0, -90, 5e-324, -1e-7, 0.1 + 0.2, 47.606209, 0, 89.99999999999999]
EDGE_LNGS = [-122, 0.0, 180, -180.0, -5e-324, 1e-7, 179.99999999999997, -122.332069, -0.0]

ESCAPED_IDS = ('q"', "b\\", "c\x01", "\u00e9", "\u2603", "\U0001f600")


def _route(route_id, ids, t=None, actual=True, quality="High", offset=0):
    """A Route over stop `ids` (the depot among them), each zoned, with edge coordinates."""
    stops = {
        sid: Stop(sid, EDGE_LATS[(i + offset) % len(EDGE_LATS)],
                  EDGE_LNGS[(i + offset) % len(EDGE_LNGS)],
                  None if sid == "depot" else f"Z{sid}"[:3])
        for i, sid in enumerate(ids)
    }
    order = ("depot", *sorted(set(ids) - {"depot"}, reverse=True))
    return Route(
        route_id=route_id,
        stops=stops,
        travel_times=None if t is None else TravelTimeMatrix(ids=tuple(ids), t=t),
        actual=StopSequence(route_id, order) if actual else None,
        quality=quality,
    )


TRAVEL_TIME_CASES = {
    "symmetric": (("depot", "a", "b", "c"), _symmetric(4, np.random.default_rng(1))),
    "asymmetric": (("depot", "a", "b", "c"), np.random.default_rng(2).uniform(0, 900, (4, 4))
                   * (1 - np.eye(4))),
    "negative-zero-against-zero": (("depot", "a"), [[0.0, -0.0], [0.0, 0.0]]),
    "negative-zero-mirrored": (("depot", "a"), [[0.0, -0.0], [-0.0, 0.0]]),
    "negative-zero-diagonal": (("depot", "a", "b"), [[-0.0, 1.0, 2.0],
                                                     [1.0, 0.0, 3.0],
                                                     [2.0, 3.0, -0.0]]),
    "edge-values-symmetric": (("depot", *"qrstuv"),
                              np.diag(EDGE_VALUES, 1) + np.diag(EDGE_VALUES, -1)),
    "edge-values-asymmetric": (("depot", *"qrstuv"), np.diag(EDGE_VALUES, 1)),
    "depot-only": (("depot",), [[0.0]]),
    "unsorted-ids-symmetric": (("z", "depot", "m", "a", "b10", "b9"),
                               _symmetric(6, np.random.default_rng(3))),
    "unsorted-ids-asymmetric": (("z", "depot", "m", "a"), [[0, 1, 2, 3], [4, 0, 5, 6],
                                                          [7, 8, 0, 9], [10, 11, 12, 0]]),
    "escaped-ids": (("depot", *ESCAPED_IDS), _symmetric(7, np.random.default_rng(4))),
}


@pytest.mark.parametrize("case", list(TRAVEL_TIME_CASES))
def test_travel_time_chunks_match_the_stdlib_encoder(case, tmp_path, monkeypatch):
    ids, t = TRAVEL_TIME_CASES[case]
    one = {"r1": _route("r1", ids, t)}
    three = {  # every file holds a route the others lack
        "r2": _route("r2", ids, t, actual=False, offset=1),
        'r"0': _route('r"0', ids, t, quality=None, offset=2),
        "r1": _route("r1", ids, None, quality="Low", offset=3),
    }
    for n, routes in enumerate((one, three)):
        assert_files_match_the_stdlib_encoder(ingest.Dataset(routes), tmp_path / str(n), monkeypatch)


DATASET_CASES = {
    "empty": {},
    "no-delivery-stops": {
        "r1": _route("r1", ("depot",)),
        "r2": _route("r2", ("depot",), actual=False, quality=None, offset=4),
    },
    "no-optional-data": {
        "r1": _route("r1", ("depot", "a", "b"), actual=False, quality=None),
        "r0": _route("r0", ("b", "depot"), actual=False, quality=None, offset=5),
    },
    "escaped-ids": {
        f"r{sid}": _route(f"r{sid}", ("depot", *ESCAPED_IDS), actual=i % 2 == 0,
                          quality=core.QUALITIES[i % 3], offset=i)
        for i, sid in enumerate(ESCAPED_IDS)
    },
}


@pytest.mark.parametrize("case", list(DATASET_CASES))
def test_dataset_files_match_the_stdlib_encoder(case, tmp_path, monkeypatch):
    assert_files_match_the_stdlib_encoder(ingest.Dataset(DATASET_CASES[case]), tmp_path / "out",
                                          monkeypatch)


def test_travel_time_chunks_match_the_stdlib_encoder_fuzz(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    alphabet = ["a", "B", "0", "-", ".", '"', "\\", "\n", "\u00fc"]
    routes = {}
    for n in (1, 2, 3, 8, 17, 40):
        ids = {"depot"}
        while len(ids) < n:
            ids.add("".join(rng.choice(alphabet, size=rng.integers(1, 5))))
        ids = tuple(rng.permutation(sorted(ids)))
        t = _symmetric(n, rng)
        quality = [None, *core.QUALITIES][rng.integers(4)]
        routes[f"sym{n}"] = _route(f"sym{n}", ids, t, quality=quality, offset=n)
        if n > 1:
            t[0, 1] = np.nextafter(t[0, 1], np.inf)  # one ulp breaks the symmetry
            routes[f"asym{n}"] = _route(f"asym{n}", ids, t, actual=bool(rng.integers(2)),
                                        offset=2 * n)
        routes[f"plain{n}\u00fc"] = _route(f"plain{n}\u00fc", ids, actual=bool(rng.integers(2)),
                                           quality=quality, offset=3 * n)
    keys = sorted(routes)
    routes = {keys[i]: routes[keys[i]] for i in rng.permutation(len(keys))}
    assert_files_match_the_stdlib_encoder(ingest.Dataset(routes), tmp_path / "out", monkeypatch)
    assert_files_match_the_stdlib_encoder(ingest.Dataset({}), tmp_path / "empty", monkeypatch)
