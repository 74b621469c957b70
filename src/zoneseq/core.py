"""Domain types, geometric primitives and file I/O shared by every other module.

All types here are immutable after construction and safe to share
read-only across threads. Every JSON input is read by `read_json`, and
every output is written by `write_file`.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import reprlib
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# The reserved zone id of the depot sentinel, the context of a route's first zone.
DEPOT_ZONE = "stz"

# The reserved stop id of every route's depot.
DEPOT_STOP_ID = "depot"

# The values a route's quality rating may take, as quality.json spells them.
QUALITIES = ("High", "Medium", "Low")


class ValidationError(ValueError):
    """Raised when a route, sequence or matrix fails a structural check."""


def check_each(keys: Iterable[str], check) -> dict:
    """{key: check(key)} over `keys`, or one ValidationError of every failure, joined by '; '."""
    out, errors = {}, []
    for key in keys:
        try:
            out[key] = check(key)
        except ValidationError as exc:
            errors.append(str(exc))
    if errors:
        raise ValidationError("; ".join(errors))
    return out


class Stop(NamedTuple):
    """A delivery location (or the depot) with WGS84 coordinates."""

    id: str
    lat: float
    lng: float
    zone_id: Optional[str] = None


@dataclass(frozen=True, eq=False)
class TravelTimeMatrix:
    """Dense asymmetric travel times in seconds over an ordered stop-id list.

    `t` is stored as a read-only float64 array; row i and column j belong
    to ids[i] and ids[j]. The ids are unique. Each entry of a list or tuple
    row is a real number, not a bool; an array converts as numpy does.
    """

    ids: Tuple[str, ...]
    t: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if len(set(self.ids)) < n:
            repeated = next(i for k, i in enumerate(self.ids) if i in self.ids[:k])
            raise ValidationError(f"travel time matrix has the id {repeated!r} more than once")
        for a, row in zip(self.ids, self.t if isinstance(self.t, (list, tuple)) else ()):
            for b, value in zip(self.ids, row if isinstance(row, (list, tuple)) else ()):
                # A numpy scalar is a real number; a bool is an int; float() takes "7".
                if not isinstance(value, numbers.Real) or isinstance(value, bool):
                    raise ValidationError(f"travel time matrix has a non-numeric entry "
                                          f"{a!r} -> {b!r}: {value!r}")
        try:
            t = np.array(self.t, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(
                "travel time matrix has a malformed or non-numeric entry"
                if isinstance(exc, OverflowError)  # an int too large for a float
                else f"travel time matrix over {n} ids has a ragged or non-numeric row"
            ) from None
        if n == 0 and t.size == 0:
            t = t.reshape(0, 0)
        if t.shape != (n, n):
            raise ValidationError(f"travel time matrix is not square over {n} ids")
        # Report the first offence in row order; within a row a bad entry
        # comes before a nonzero diagonal.
        bad = ~np.isfinite(t) | (t < 0)
        offending = bad.any(axis=1) | (np.diagonal(t) != 0)
        if offending.any():
            i = int(offending.argmax())
            if bad[i].any():
                j = int(bad[i].argmax())
                raise ValidationError(
                    f"travel time {self.ids[i]}->{self.ids[j]} is {float(t[i, j])}"
                )
            raise ValidationError(f"nonzero diagonal at {self.ids[i]}")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)

    def __eq__(self, other):
        if not isinstance(other, TravelTimeMatrix):
            return NotImplemented
        return self.ids == other.ids and np.array_equal(self.t, other.t)


class TravelTimeRow(NamedTuple):
    """A JSON object of numbers, as the `travel_time_row` form of read_json decodes it.

    `keys` are in file order, and `values` is their read-only float64 array.
    `ints` lists the positions of the values written as JSON integers, each
    exact in a float64, so `plain` gives back the dict json.load gives,
    value for value. The repr is that dict's, so a message that quotes an
    object of numbers where no row belongs reads the same either way.
    """

    keys: Tuple[str, ...]
    values: np.ndarray
    ints: Tuple[int, ...]

    def plain(self) -> dict:
        values = self.values.tolist()
        for i in self.ints:
            values[i] = int(values[i])
        return dict(zip(self.keys, values))

    def __repr__(self):
        return repr(self.plain())


def travel_time_row(pairs) -> Optional[TravelTimeRow]:
    """A read_json form for travel_times.json: the TravelTimeRow of an object, or None.

    A row is non-empty, its keys are unique, and every value is a JSON
    number (not true or false) that a float64 holds: a float, or an int
    that converts exactly.
    """
    if not pairs:
        return None
    keys, values = zip(*pairs)
    types = set(map(type, values))
    if not types <= {int, float} or len(set(keys)) < len(keys):
        return None
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:  # an int too large for a float
        return None
    ints = ()
    if int in types:
        ints = tuple(i for i, v in enumerate(values) if type(v) is int)
        if array[list(ints)].tolist() != [values[i] for i in ints]:  # a float64 rounds one
            return None
    array.setflags(write=False)
    return TravelTimeRow(keys, array, ints)


def stop_form() -> Callable[[list], Optional[tuple]]:
    """A fresh read_json form for routes.json, which decodes a stop into a plain tuple.

    It takes an object that is exactly {"lat": float, "lng": float,
    "zone_id": non-empty str}, keys in that order, and gives the tuple
    (None, lat, lng, zone_id). The None, for the id of the caller's Stop,
    gives it a Stop's size, so each Stop can reuse a freed tuple's memory;
    a 3-tuple shares the stop ids' size class and leaves holes. Equal zone
    ids of one read share one str. Any other object gives None.
    """
    zones: Dict[str, str] = {}

    def stop(pairs) -> Optional[tuple]:
        if len(pairs) == 3:
            (lat_key, lat), (lng_key, lng), (zone_key, zone) = pairs
            if (lat_key == "lat" and lng_key == "lng" and zone_key == "zone_id"
                    and type(lat) is float and type(lng) is float and type(zone) is str and zone):
                return None, lat, lng, zones.setdefault(zone, zone)
        return None

    return stop


def plain(value, depth=0):
    """`value` as json.load gives it, read_json's forms undone `depth` lists or dicts deep."""
    if type(value) is TravelTimeRow:
        value = value.plain()
    elif type(value) is tuple and len(value) == 4 and value[0] is None:  # stop_form's
        value = dict(zip(("lat", "lng", "zone_id"), value[1:]))
    if depth and type(value) is list:
        return [plain(v, depth - 1) for v in value]
    if depth and type(value) is dict:
        return {key: plain(v, depth - 1) for key, v in value.items()}
    return value


def _quote(value) -> str:
    """reprlib.repr of `value` as json.load gives it, for a message."""
    return reprlib.repr(plain(value, reprlib.aRepr.maxlevel))


@dataclass(frozen=True)
class StopSequence:
    """Ordered stop ids for one route; the first element is the depot."""

    route_id: str
    ids: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError(f"route {self.route_id}: duplicate ids in sequence")


@dataclass(frozen=True)
class Route:
    """A set of stops plus optional travel-time matrix and actual sequence.

    The depot is the stop under DEPOT_STOP_ID; every other stop is a
    delivery stop. A delivery stop without a zone id takes the zone of the
    nearest delivery stop given with one, by `stop_cost` (the smaller stop
    id on a tie). Every coordinate is an int or a float (not a bool), every
    zone id a str or None, and `quality` is None or one of QUALITIES. This
    is the one check of a stop's fields; load_dataset passes them as read.
    """

    route_id: str
    stops: Dict[str, Stop]
    travel_times: Optional[TravelTimeMatrix] = None
    actual: Optional[StopSequence] = None
    quality: Optional[str] = None

    def __post_init__(self):
        if self.quality not in (None, *QUALITIES):
            raise ValidationError(f"route {self.route_id}: quality {self.quality!r} is not "
                                  f"one of {', '.join(map(repr, QUALITIES))}")
        if DEPOT_STOP_ID not in self.stops:
            raise ValidationError(f"route {self.route_id}: no depot stop {DEPOT_STOP_ID!r}")
        _, lats, lngs, zones = zip(*self.stops.values())
        if not ({*map(type, lats), *map(type, lngs)} <= {int, float}
                and set(map(type, zones)) <= {str, type(None)}):
            for sid, stop in self.stops.items():
                for name, value in (("lat", stop.lat), ("lng", stop.lng)):
                    if type(value) not in (int, float):  # a bool is an int
                        raise ValidationError(
                            f"stop {sid}: {name} {_quote(value)} is not a number")
                if type(stop.zone_id) not in (str, type(None)):
                    raise ValidationError(
                        f"stop {sid}: zone id {_quote(stop.zone_id)} is not a string")
        for sid, stop in self.stops.items():
            if sid != stop.id:
                raise ValidationError(f"route {self.route_id}: key {sid} != stop id {stop.id}")
            if not -90.0 <= stop.lat <= 90.0:
                raise ValidationError(f"stop {sid}: lat {reprlib.repr(stop.lat)} out of [-90, 90]")
            if not -180.0 <= stop.lng <= 180.0:
                raise ValidationError(
                    f"stop {sid}: lng {reprlib.repr(stop.lng)} out of [-180, 180]")
            if stop.zone_id == DEPOT_ZONE:
                raise ValidationError(f"stop {sid}: zone id {DEPOT_ZONE!r} is reserved")
        if self.actual is not None:
            if set(self.actual.ids) != set(self.stops):
                raise ValidationError(
                    f"route {self.route_id}: actual sequence is not a permutation of stops"
                )
            if self.actual.ids[0] != DEPOT_STOP_ID:
                raise ValidationError(
                    f"route {self.route_id}: actual sequence does not start at the depot"
                )
        if self.travel_times is not None:
            if set(self.travel_times.ids) != set(self.stops):
                raise ValidationError(
                    f"route {self.route_id}: travel time matrix ids do not match stops"
                )
        missing = [s for s in self.delivery_stops() if not s.zone_id]
        if missing:
            zoned = sorted((s for s in self.delivery_stops() if s.zone_id), key=lambda s: s.id)
            if not zoned:
                raise ValidationError(
                    f"route {self.route_id}: no zoned stop available to impute {missing[0].id}"
                )
            if self.travel_times is None:
                # The rows of stop_cost read here, bit for bit; it is built when first read.
                cost = haversine_matrix([(s.lat, s.lng) for s in missing],
                                        [(s.lat, s.lng) for s in zoned])
            else:
                index, t = self.stop_cost
                cost = t[np.ix_([index[s.id] for s in missing], [index[s.id] for s in zoned])]
            # argmin takes the first of equal costs: the smaller stop id.
            stops = dict(self.stops)
            for stop, j in zip(missing, cost.argmin(axis=1).tolist()):
                stops[stop.id] = stop._replace(zone_id=zoned[j].zone_id)
            object.__setattr__(self, "stops", stops)

    @property
    def depot(self) -> Stop:
        return self.stops[DEPOT_STOP_ID]

    def delivery_stops(self) -> List[Stop]:
        return [s for sid, s in self.stops.items() if sid != DEPOT_STOP_ID]

    @cached_property
    def zone_stops(self) -> Dict[str, Tuple[str, ...]]:
        """Zone id -> the sorted ids of its delivery stops, in sorted zone order."""
        by_zone: Dict[str, List[str]] = {}
        for stop in sorted(self.delivery_stops(), key=lambda s: s.id):
            by_zone.setdefault(stop.zone_id, []).append(stop.id)
        return {z: tuple(by_zone[z]) for z in sorted(by_zone)}

    @cached_property
    def stop_cost(self) -> Tuple[Dict[str, int], np.ndarray]:
        """(stop id -> row, read-only cost between every two stops).

        The costs are the travel times, read as they are, or haversine
        meters over the stops in `stops` order when the route has none.
        """
        if self.travel_times is not None:
            ids, cost = self.travel_times.ids, self.travel_times.t
        else:
            ids = tuple(self.stops)
            cost = haversine_matrix([(self.stops[sid].lat, self.stops[sid].lng) for sid in ids])
            cost.setflags(write=False)
        return {sid: i for i, sid in enumerate(ids)}, cost

    @cached_property
    def geometry(self) -> np.ndarray:
        """The read-only cost of every edge between the route's points.

        Rows and columns are the `stop_cost` rows, then one median point per
        zone in `zone_stops` order. Every cost that touches a median is
        haversine.
        """
        index, stop_cost = self.stop_cost
        coords = [(self.stops[sid].lat, self.stops[sid].lng) for sid in index]
        medians = [
            representative_node(self.stops[sid] for sid in ids)
            for ids in self.zone_stops.values()
        ]
        across = haversine_matrix(coords, medians)
        cost = np.block([[stop_cost, across], [across.T, haversine_matrix(medians)]])
        cost.setflags(write=False)
        return cost


def representative_node(stops) -> Tuple[float, float]:
    """Component-wise median coordinates of a zone's stops."""
    stops = list(stops)
    if not stops:
        raise ValidationError("cannot take the median of an empty zone")
    _, lats, lngs, _ = zip(*stops)
    return statistics.median(lats), statistics.median(lngs)


def haversine_m(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Great-circle distance in meters between two (lat, lng) points."""
    lat1, lng1 = math.radians(a[0]), math.radians(a[1])
    lat2, lng2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlng = lng2 - lng1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlng / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def haversine_matrix(points, targets=None) -> np.ndarray:
    """float64 array of haversine_m(points[i], targets[j]), bit for bit.

    Without targets it is points by points, and each unordered pair is
    computed once: haversine_m is symmetric to the bit. It uses math, since
    numpy's trigonometry can differ in the last bit.
    """
    sin, asin, sqrt, diameter = math.sin, math.asin, math.sqrt, 2.0 * EARTH_RADIUS_M

    def prepared(ps):
        return [(math.radians(a), math.radians(b), math.cos(math.radians(a))) for a, b in ps]

    rows = prepared(points)
    cols = rows if targets is None else prepared(targets)
    flat = [
        diameter * asin(min(1.0, sqrt(
            sin((lat2 - lat1) / 2) ** 2 + cos1 * cos2 * sin((lng2 - lng1) / 2) ** 2
        )))
        for i, (lat1, lng1, cos1) in enumerate(rows)
        for lat2, lng2, cos2 in (cols if targets is not None else rows[i + 1:])
    ]
    if targets is not None:
        return np.array(flat).reshape(len(rows), len(cols))
    out = np.zeros((len(rows), len(rows)))
    out[np.triu_indices(len(rows), 1)] = flat
    return out + out.T


def read_json(path, what: str, form: Optional[Callable[[list], object]] = None) -> dict:
    """The JSON object in the file at `path`, called `what` in errors.

    Malformed JSON, bytes that are not UTF-8, nesting too deep to decode, a
    key twice in one object and a top level that is not an object are
    ValidationErrors naming the file; a file that cannot be read raises OSError.

    `form` is the file's decode rule, if it has one: `travel_time_row` for
    travel_times.json, a fresh `stop_form()` for routes.json. It is handed
    the (key, value) pairs of every object before any dict is built, and
    what it returns, unless None, stands for the object; every other object
    is a dict, checked for a key twice. So a travel-time row is one float64
    array and a stop one tuple, not a dict of Python objects, and the file's
    text, held as bytes and then as str while it decodes, is the largest
    thing a read holds. The top level is a dict as always; a caller gives
    any other value that may hold a form to `plain` before reading it.
    """

    def unique_keys(pairs):
        decoded = form(pairs) if form is not None else None
        if decoded is not None:
            return decoded
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise ValidationError(f"{what} {path} has the key {key!r} twice")
        return obj

    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = plain(json.load(f, object_pairs_hook=unique_keys))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{what} {path} is not UTF-8 text ({exc.reason})") from None
        except ValidationError:  # unique_keys found a key twice
            raise
        except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
            raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise ValidationError(f"{what} {path} nests too deeply to decode") from None
    if not isinstance(raw, dict):
        raise ValidationError(
            f"{what} {path} must hold a JSON object, got {type(raw).__name__}"
        )
    return raw


def write_file(path, chunks: Iterable, text: bool = False) -> None:
    """Stream `chunks` (str written as UTF-8 if `text`, else bytes) into `path`.

    They go to a temp file beside `path` that is renamed over it once
    complete, so `path` never holds a part. The file gets the mode a plain
    open() gives; the temp file is removed if any step fails. Missing
    parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") if text else open(tmp, "wb") as f:
            write = f.write  # a loop over the bound method beats writelines
            for chunk in chunks:
                write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_JSON = json.JSONEncoder(sort_keys=True, indent=1)


def write_json(path, obj) -> None:
    """`obj` as ASCII JSON with sorted keys and a one-space indent, through write_file."""
    write_file(path, _JSON.iterencode(obj), text=True)
