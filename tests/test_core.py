import json
import math
import random

import numpy as np
import pytest

from zoneseq.core import (
    Route,
    Stop,
    StopSequence,
    TravelTimeMatrix,
    ValidationError,
    haversine_m,
    haversine_matrix,
    representative_node,
)
from zoneseq import ingest
from zoneseq.ingest import zsgt
from conftest import make_route


def cost(route, from_id, to_id):
    """The route's stop-to-stop cost between two stops."""
    index, matrix = route.stop_cost
    return matrix[index[from_id], index[to_id]]


def test_haversine_identity():
    assert haversine_m((0.0, 0.0), (0.0, 0.0)) == 0.0


def test_haversine_one_degree_longitude_at_equator():
    # one degree of arc on a 6,371,000 m sphere
    assert haversine_m((0.0, 0.0), (0.0, 1.0)) == pytest.approx(111_195, abs=1.0)


def test_haversine_symmetry_random_pairs():
    rng = random.Random(0)
    for _ in range(100):
        a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        assert haversine_m(a, b) == haversine_m(b, a)
        assert haversine_m(a, b) >= 0.0


def test_distance_uses_matrix_when_present():
    tt = {
        "depot": {"depot": 0, "a": 5, "b": 7},
        "a": {"depot": 2, "a": 0, "b": 11},
        "b": {"depot": 3, "a": 13, "b": 0},
    }
    route = make_route(stops=[("a", 1, 1, "Z"), ("b", 2, 2, "Z")], travel_times=tt)
    assert cost(route, "a", "b") == 11.0
    assert cost(route, "b", "a") == 13.0  # asymmetry preserved
    assert cost(route, "a", "a") == 0.0


def test_distance_falls_back_to_haversine():
    route = make_route(stops=[("a", 0, 0, "Z"), ("b", 0, 1, "Z")])
    assert cost(route, "a", "b") == haversine_m((0, 0), (0, 1))


def test_distance_unknown_stop_names_id():
    route = make_route(stops=[("a", 0, 0, "Z")])
    with pytest.raises(KeyError, match="nope"):
        cost(route, "a", "nope")


def test_coordinates_validated():
    with pytest.raises(ValidationError, match=r"^stop s: lat 91.0 out of \[-90, 90\]$"):
        make_route(stops=[("s", 91.0, 0.0, "Z")])
    with pytest.raises(ValidationError, match=r"^stop depot: lng -181.0 out of \[-180, 180\]$"):
        make_route(stops=[("s", 0.0, 0.0, "Z")], depot=(0.0, -181.0))


def test_route_requires_the_depot_id():
    stops = {"d1": Stop("d1", 0, 0), "a": Stop("a", 1, 1, zone_id="Z")}
    with pytest.raises(ValidationError, match="route r: no depot stop 'depot'"):
        Route(route_id="r", stops=stops)


@pytest.mark.parametrize("stop, message", [
    (("a", True, 0.1, "Z1"), "stop a: lat True is not a number"),
    (("a", 0.1, "0.2", "Z1"), "stop a: lng '0.2' is not a number"),
    (("a", 0.1, None, "Z1"), "stop a: lng None is not a number"),
    (("a", 0.1, 0.2, 5), "stop a: zone id 5 is not a string"),
    (("a", 0.1, 0.2, ["Z1"]), "stop a: zone id ['Z1'] is not a string"),
], ids=["bool-lat", "text-lng", "null-lng", "int-zone", "list-zone"])
def test_route_rejects_the_stop_fields_load_dataset_rejects(stop, message):
    with pytest.raises(ValidationError) as excinfo:
        make_route(stops=[("b", 0.0, 0.0, "Z1"), stop])
    assert str(excinfo.value) == message
    with pytest.raises(ValidationError, match=r"^stop depot: lat False is not a number$"):
        make_route(stops=[("b", 0.0, 0.0, "Z1")], depot=(False, 0.0))
    assert make_route(stops=[("b", 0, -1, None), ("c", 0.5, 1, "Z1")]).stops["b"].zone_id == "Z1"


def test_route_quotes_a_tuple_field_as_given():
    # Only read_json's stop form, (None, lat, lng, zone_id), is quoted as its object.
    with pytest.raises(ValidationError) as excinfo:
        make_route(stops=[("b", 0.0, 0.0, "Z1"), ("a", (0.1, 0.2), 0.1, "Z1")])
    assert str(excinfo.value) == "stop a: lat (0.1, 0.2) is not a number"


def test_route_rejects_the_sentinel_zone_id():
    with pytest.raises(ValidationError, match=r"^stop s: zone id 'stz' is reserved$"):
        make_route(stops=[("s", 0.0, 0.0, "stz")])


def test_route_checks_its_quality():
    with pytest.raises(ValidationError) as excinfo:
        make_route(route_id="r7", stops=[("s", 0.0, 0.0, "Z")], quality="low")
    assert str(excinfo.value) == "route r7: quality 'low' is not one of 'High', 'Medium', 'Low'"
    assert make_route(stops=[("s", 0.0, 0.0, "Z")], quality=None).quality is None
    assert make_route(stops=[("s", 0.0, 0.0, "Z")], quality="Low").quality == "Low"


def test_depot_with_a_zone_is_neither_a_delivery_stop_nor_a_zone():
    stops = {"depot": Stop("depot", 0, 0, zone_id="X"), "a": Stop("a", 1, 1, zone_id="Y")}
    route = Route(route_id="r1", stops=stops, actual=StopSequence("r1", ("depot", "a")))
    assert [s.id for s in route.delivery_stops()] == ["a"]
    assert route.zone_stops == {"Y": ("a",)}
    assert zsgt(route) == ("Y",)


def test_actual_must_be_depot_first_permutation():
    with pytest.raises(ValidationError, match="permutation"):
        make_route(stops=[("a", 0, 0, "Z"), ("b", 0, 1, "Z")],
                   actual=["depot", "a"])
    with pytest.raises(ValidationError, match="depot"):
        make_route(stops=[("a", 0, 0, "Z"), ("b", 0, 1, "Z")],
                   actual=["a", "depot", "b"])


def test_sequence_rejects_duplicates():
    with pytest.raises(ValidationError):
        StopSequence(route_id="r", ids=("a", "a"))


def test_distance_total_and_non_negative():
    rng = random.Random(3)
    stops = [(f"s{i}", rng.uniform(-1, 1), rng.uniform(-1, 1), "Z") for i in range(6)]
    route = make_route(stops=stops)
    for a in route.stops:
        for b in route.stops:
            assert cost(route, a, b) >= 0.0


def random_points(rng, n):
    """Global (lat within 89, lng within 179) points, some of them repeated."""
    points = []
    for _ in range(n):
        if points and rng.random() < 0.2:
            points.append(rng.choice(points))
        else:
            points.append((rng.uniform(-89, 89), rng.uniform(-179, 179)))
    return points


def test_haversine_matrix_matches_haversine_bit_for_bit():
    rng = random.Random(12)
    for _ in range(40):
        points = random_points(rng, rng.randint(0, 12))
        targets = random_points(rng, rng.randint(0, 5))
        for got, rows, cols in [
            (haversine_matrix(points), points, points),
            (haversine_matrix(points, targets), points, targets),
            (haversine_matrix(targets, points), targets, points),
        ]:
            want = np.array([[haversine_m(a, b) for b in cols] for a in rows])
            assert got.shape == (len(rows), len(cols))
            assert got.tobytes() == want.reshape(got.shape).tobytes()


def test_geometry_layout_and_medians():
    stops = [("d", 1.0, 1.0, "Y"), ("b", 2.0, 4.0, "Y"), ("c", 3.0, 0.5, "X"),
             ("a", 5.0, 3.0, "Y")]
    ids = ("a", "b", "c", "d", "depot")
    tt = {a: {b: 0 if a == b else 10 * i + j for j, b in enumerate(ids)}
          for i, a in enumerate(ids)}
    for travel_times in (None, tt):
        route = make_route(stops=stops, travel_times=travel_times)
        geometry = route.geometry
        assert route.geometry is geometry  # computed once
        assert route.zone_stops == {"X": ("c",), "Y": ("a", "b", "d")}
        assert list(route.zone_stops) == ["X", "Y"]
        index, _ = route.stop_cost
        assert sorted(index.values()) == list(range(5))
        assert geometry.shape == (7, 7)
        assert not geometry.flags.writeable
        median_x = representative_node([route.stops["c"]])
        median_y = representative_node(route.stops[s] for s in "abd")
        assert median_y == (2.0, 3.0)
        for a, stop in route.stops.items():
            d = haversine_m((stop.lat, stop.lng), median_y)
            assert cost(route, a, a) == 0.0
            assert geometry[index[a], 5] == haversine_m((stop.lat, stop.lng), median_x)
            assert geometry[index[a], 6] == d
            assert geometry[6, index[a]] == d
            if travel_times is not None:
                assert [cost(route, a, b) for b in ids] == [tt[a][b] for b in ids]


def test_stop_cost_is_the_travel_times_or_the_geometry_stop_block():
    tt = {a: {b: 0 if a == b else 3 for b in ("a", "depot")} for a in ("a", "depot")}
    route = make_route(stops=[("a", 1, 1, "Z")], travel_times=tt)
    assert route.stop_cost[0] == {sid: i for i, sid in enumerate(route.travel_times.ids)}
    assert route.stop_cost[1] is route.travel_times.t
    route = make_route(stops=[("a", 1.0, 1.0, "Z"), ("b", 2.0, 0.5, "Z"), ("c", 0.5, 3.0, "W")])
    index, matrix = route.stop_cost
    assert list(index) == list(route.stops)
    assert not matrix.flags.writeable
    assert "geometry" not in route.__dict__
    n = len(index)
    assert matrix.tobytes() == route.geometry[:n, :n].tobytes()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("rows, message", [
    ([[0, -1, 2], [3, 0, -4], [5, 6, 0]], "travel time a->b is -1.0"),
    ([[0, 1, 2], [3, 0, INF], [-5, 6, 0]], "travel time b->c is inf"),
    ([[0, 1, 2], [3, 7, 4], [-5, 6, 0]], "nonzero diagonal at b"),
    ([[2, 1, -1], [3, 0, 4], [5, 6, 0]], "travel time a->c is -1.0"),
    ([[0, 1, 2], [3, NAN, 4], [5, 6, 0]], "travel time b->b is nan"),
    ([[0, 1, 2], [3, 0, 4], [5, 6, -INF]], "travel time c->c is -inf"),
    ([[0, 1], [3, 0]], "travel time matrix is not square over 3 ids"),
    ([[0, 1, 2], [3, 0], [5, 6, 0]],
     "travel time matrix over 3 ids has a ragged or non-numeric row"),
], ids=["negative-first-row", "inf-before-later-negative", "diagonal-before-later-row",
        "entry-before-same-row-diagonal", "nan-diagonal", "negative-inf",
        "not-square", "ragged"])
def test_travel_time_matrix_reports_first_offence(rows, message):
    with pytest.raises(ValidationError) as excinfo:
        TravelTimeMatrix(ids=("a", "b", "c"), t=rows)
    assert str(excinfo.value) == message


def _loop_matrix_error(ids, rows):
    """The row-by-row check the vectorised one replaces; None if valid."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not math.isfinite(v) or v < 0:
                return f"travel time {ids[i]}->{ids[j]} is {v}"
        if row[i] != 0:
            return f"nonzero diagonal at {ids[i]}"
    return None


def test_travel_time_matrix_checks_match_row_loop_fuzz():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 6)
        ids = tuple(f"s{k}" for k in range(n))
        rows = [[0.0 if i == j else float(rng.randint(0, 9)) for j in range(n)]
                for i in range(n)]
        for _ in range(rng.randint(0, 3)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(
                [-1.0, -0.5, NAN, INF, -INF, 2.0, 0.0, -0.0])
        expected = _loop_matrix_error(ids, rows)
        if expected is None:
            assert TravelTimeMatrix(ids=ids, t=rows).t.tolist() == rows
        else:
            with pytest.raises(ValidationError) as excinfo:
                TravelTimeMatrix(ids=ids, t=rows)
            assert str(excinfo.value) == expected


@pytest.mark.parametrize("entry, message", [
    (True, "travel time matrix has a non-numeric entry 'a' -> 'b': True"),
    ("7", "travel time matrix has a non-numeric entry 'a' -> 'b': '7'"),
    (None, "travel time matrix has a non-numeric entry 'a' -> 'b': None"),
    ([5], "travel time matrix has a non-numeric entry 'a' -> 'b': [5]"),
    (10 ** 400, "travel time matrix has a malformed or non-numeric entry"),
], ids=["true", "numeric-text", "null", "list", "huge-int"])
def test_travel_time_matrix_takes_only_int_and_float_entries(tmp_path, entry, message):
    ids = ("a", "b", "depot")
    rows = [[0, entry, 5], [5, 0, 5], [5, 5, 0]]
    with pytest.raises(ValidationError) as excinfo:
        TravelTimeMatrix(ids=ids, t=rows)
    assert str(excinfo.value) == message
    # The same entry in travel_times.json fails the load with the same message.
    stops = {"a": {"lat": 0.1, "lng": 0.1, "zone_id": "Z1"},
             "b": {"lat": 0.2, "lng": 0.2, "zone_id": "Z2"}}
    (tmp_path / "routes.json").write_text(
        json.dumps({"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": stops}}))
    (tmp_path / "travel_times.json").write_text(
        json.dumps({"r1": {x: dict(zip(ids, row)) for x, row in zip(ids, rows)}}))
    with pytest.raises(ValidationError) as excinfo:
        ingest.load_dataset(tmp_path)
    assert str(excinfo.value) == "route r1: " + message


def test_travel_time_matrix_takes_numpy_scalar_entries():
    rows = [[np.float64(0), np.int64(5)], [np.float32(2.5), 0]]
    assert TravelTimeMatrix(ids=("a", "b"), t=rows).t.tolist() == [[0, 5], [2.5, 0]]
    with pytest.raises(ValidationError) as excinfo:
        TravelTimeMatrix(ids=("a", "b"), t=[[0, np.True_], [1, 0]])
    assert str(excinfo.value) == "travel time matrix has a non-numeric entry 'a' -> 'b': np.True_"


@pytest.mark.parametrize("t, bad", [
    (np.array([[0, 7], [1, 0]]), None),
    (np.array([[0, 7], [1, 0]], dtype=np.uint8), None),
    ([np.array([0, 7], dtype=np.float32), [1, 0]], None),
    (np.array([[0, 7.0], [1, 0]], dtype=object), None),
    (np.array([["0", "7"], ["1", "0"]]), "'a' -> 'a': np.str_('0')"),
    ([[0, 7], np.array(["1", "0"])], "'b' -> 'a': np.str_('1')"),
    (np.array([[0, True], [1, 0]], dtype=object), "'a' -> 'b': True"),
    (np.array([[False, True], [True, False]]), "'a' -> 'a': np.False_"),
    (np.array([[0, 7 + 0j], [1, 0]]), "'a' -> 'a': np.complex128(0j)"),
    (np.array([[0, 7], [1, 0]], dtype="timedelta64[m]"), "'a' -> 'a': np.timedelta64(0,'m')"),
], ids=["int", "uint", "float-row", "object-of-numbers", "str", "str-row", "object-with-true",
        "bool", "complex", "timedelta"])
def test_travel_time_matrix_takes_only_integer_and_float_arrays(t, bad):
    # An object array is checked entry by entry, as a list is; any other
    # array that is not of integer or float dtype fails on its first entry.
    if bad is None:
        assert TravelTimeMatrix(ids=("a", "b"), t=t).t.tolist() == [[0, 7], [1, 0]]
    else:
        with pytest.raises(ValidationError) as excinfo:
            TravelTimeMatrix(ids=("a", "b"), t=t)
        assert str(excinfo.value) == "travel time matrix has a non-numeric entry " + bad


def test_travel_time_matrix_rejects_a_repeated_id():
    # A Route compares only the id sets, and stop_cost would read a's last row.
    with pytest.raises(ValidationError) as excinfo:
        TravelTimeMatrix(ids=("a", "depot", "a"), t=[[0, 1, 0], [1, 0, 7], [9, 3, 0]])
    assert str(excinfo.value) == "travel time matrix has the id 'a' more than once"
    # The first id seen again is named, not the most repeated one.
    with pytest.raises(ValidationError) as excinfo:
        TravelTimeMatrix(ids=("b", "a", "b", "a", "a"), t=np.zeros((5, 5)))
    assert str(excinfo.value) == "travel time matrix has the id 'b' more than once"


def test_travel_time_matrix_is_read_only_and_compares_by_value():
    m = TravelTimeMatrix(ids=("a", "b"), t=((0, 1.5), (2, 0)))
    assert m.t.dtype == np.float64 and not m.t.flags.writeable
    assert m == TravelTimeMatrix(ids=("a", "b"), t=np.array([[0.0, 1.5], [2.0, 0.0]]))
    assert m != TravelTimeMatrix(ids=("a", "b"), t=((0, 1.5), (2.5, 0)))
    assert m != TravelTimeMatrix(ids=("b", "a"), t=((0, 1.5), (2, 0)))
