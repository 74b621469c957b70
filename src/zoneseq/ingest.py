"""Dataset loading and writing, and ground-truth zone sequence extraction.

Directory layout (JSON, UTF-8), field-compatible with the public Challenge
datasets:

  routes.json            route_id -> {"depot": {"lat","lng"},
                                      "stops": {stop_id: {"lat","lng","zone_id"}}}
  actual_sequences.json  route_id -> {stop_id: 0-based position}, optional;
                         positions are JSON integers, position 0 is the depot.
  travel_times.json      route_id -> {from_id: {to_id: seconds}}, optional.
  quality.json           route_id -> "High"|"Medium"|"Low", optional.

The depot is stored under the reserved stop id "depot". Only the shape of
routes.json is checked here; `core.Route` checks each stop's fields and
imputes a missing zone id, when the route is built.

`read_json` decodes each file with its form. A stop of routes.json as
`write_dataset` writes it becomes a (None, lat, lng, zone_id) tuple, equal
zone ids sharing one str; any other object is the dict json.load gives.
Each row of travel_times.json becomes a float64 array, and `load_dataset`
copies a route's rows into its `core.TravelTimeMatrix`, one read-only
float64 array. No stop or row is ever a dict of Python objects, and each
route's raw JSON is dropped once its `Route` is built. The largest thing
a load holds at once is then the text of the largest file it reads, as
bytes and then as str, with the decoded routes.json.

`write_dataset` writes each file with the bytes json.dump(sort_keys=True,
indent=1) gives, streamed one route at a time and formatted straight from
the Routes: no file is built as a dict first.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import (
    DEPOT_STOP_ID,
    Route,
    Stop,
    StopSequence,
    TravelTimeMatrix,
    TravelTimeRow,
    ValidationError,
    check_each,
    plain,
    read_json,
    stop_form,
    travel_time_row,
    write_file,
)

OPTIONAL_FILES = ("actual_sequences.json", "travel_times.json", "quality.json")

log = logging.getLogger("zoneseq")


@dataclass(frozen=True)
class Dataset:
    routes: Dict[str, Route]


def load_dataset(dir_path, costs: bool = True) -> Dataset:
    """Load and fully validate a dataset directory.

    Every route id of an optional file must be in routes.json. A caller
    that reads no stop costs passes `costs=False`: travel_times.json is then
    neither decoded nor checked, and every route has no travel times, unless
    a delivery stop has no zone id. Such a stop's zone is imputed from the
    travel times, so they are loaded as with `costs=True`.

    The routes are built in route-id order, and one ValidationError names
    every route that fails, joined by '; '. Each route's raw JSON is
    dropped once its Route is built.
    """
    dir_path = Path(dir_path)

    def read(name):
        path, start = dir_path / name, time.perf_counter()
        form = {"routes.json": stop_form(), "travel_times.json": travel_time_row}.get(name)
        raw = read_json(path, "dataset file", form=form)
        log.debug("read %s: %d bytes in %.3f s", path, path.stat().st_size,
                  time.perf_counter() - start)
        return raw

    raw_routes = read("routes.json")

    def needed(name):  # asked of an existing file only, as the zone scan takes time
        return name != "travel_times.json" or costs or not all(
            map(_every_stop_zoned, raw_routes.values())
        )

    optional = [
        read(name) if (dir_path / name).exists() and needed(name) else {}
        for name in OPTIONAL_FILES
    ]
    for name, raw in zip(OPTIONAL_FILES, optional):
        unknown = sorted(raw.keys() - raw_routes.keys())
        if unknown:
            raise ValidationError(f"dataset file {dir_path / name} has unknown route {unknown[0]}")
    actuals, matrices, qualities = optional

    def build(route_id) -> Route:
        try:
            return _build_route(
                route_id,
                raw_routes.pop(route_id),
                actuals.pop(route_id, None),
                matrices.pop(route_id, None),
                qualities.pop(route_id, None),
            )
        except ValidationError as exc:
            prefix = f"route {route_id}: "
            if str(exc).startswith(prefix):  # Route names it already
                raise
            raise ValidationError(prefix + str(exc)) from None

    routes = check_each(sorted(raw_routes), build)
    log.debug("loaded %d routes, %d travel-time entries", len(routes),
              sum(r.travel_times.t.size for r in routes.values() if r.travel_times is not None))
    return Dataset(routes=routes)


def _every_stop_zoned(body) -> bool:
    """Whether every stop of a raw route body is an object with a zone id.

    A stop decoded as stop_form's tuple has one. A body or `stops` that is
    not an object answers False, so that the load reads every file and
    reports the fault as a full load would.
    """
    body = plain(body)
    stops = body.get("stops", {}) if isinstance(body, dict) else None
    return isinstance(stops, dict) and all(
        type(s) is tuple or (isinstance(s, dict) and s.get("zone_id")) for s in stops.values()
    )


def _object(raw, what) -> dict:
    raw = plain(raw)
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(raw).__name__}")
    return raw


def _build_route(route_id, body, actual_raw, matrix_raw, quality_raw) -> Route:
    """Build one route from its JSON; load_dataset prefixes errors with the route.

    Only the shape is checked here: the body, its `stops`, each stop and the
    depot must be objects, the depot given and its id no other stop's. Each
    stop is one Stop of the values json.load gives (the depot's zone id is
    not read), and Route checks their types and ranges.
    """
    body = _object(body, "route body")
    if body.get("depot") is None:
        raise ValidationError("missing depot entry")
    depot = _object(body["depot"], f"stop {DEPOT_STOP_ID!r}")
    stops = {DEPOT_STOP_ID: Stop(DEPOT_STOP_ID, plain(depot.get("lat")), plain(depot.get("lng")))}
    for sid, s in _object(body.get("stops", {}), "'stops'").items():
        if sid == DEPOT_STOP_ID:
            raise ValidationError(f"stop id {DEPOT_STOP_ID!r} is reserved")
        if type(s) is tuple:  # stop_form's (None, lat, lng, zone_id)
            stops[sid] = Stop(sid, s[1], s[2], s[3])
        else:
            s = _object(s, f"stop {sid!r}")
            stops[sid] = Stop(sid, plain(s.get("lat")), plain(s.get("lng")),
                              plain(s.get("zone_id")))

    actual = None
    if actual_raw is not None:
        positions = _object(actual_raw, "actual sequence")
        for sid, pos in positions.items():
            if type(pos) is not int:  # true == 1 and 2.0 == 2 would pass the check below
                raise ValidationError(
                    f"actual sequence position of stop {sid!r} is not an integer: {pos!r}"
                )
        ids = tuple(sorted(positions, key=positions.__getitem__))
        if sorted(positions.values()) != list(range(len(positions))):
            raise ValidationError("actual sequence positions are not 0..n-1")
        actual = StopSequence(route_id=route_id, ids=ids)

    matrix = None if matrix_raw is None else _travel_time_matrix(matrix_raw, stops)

    return Route(
        route_id=route_id,
        stops=stops,
        travel_times=matrix,
        actual=actual,
        quality=quality_raw,
    )


def _travel_time_matrix(raw, stops) -> TravelTimeMatrix:
    """A route's TravelTimeMatrix from its travel_times.json value.

    When every row is a TravelTimeRow over exactly the matrix's ids, the
    rows are copied into one array: as they are when in id order, as
    write_dataset writes them, and by key otherwise. Any other value is
    checked as the dict of dicts json.load gives, so each fault gets the
    same message either way.
    """
    raw = _object(raw, "travel time matrix")
    ids = tuple(sorted(raw))
    t = _row_array(ids, [raw[a] for a in ids])
    if t is not None:
        return TravelTimeMatrix(ids=ids, t=t)
    raw = {a: plain(row) for a, row in raw.items()}
    try:
        entries = list(chain.from_iterable(map(raw[a].__getitem__, ids) for a in ids))
        if not set(map(type, entries)) <= {int, float}:  # float() takes true and "7"
            at = next(i for i, v in enumerate(entries) if type(v) not in (int, float))
            a, b = ids[at // len(ids)], ids[at % len(ids)]
            raise ValidationError(
                f"travel time matrix has a non-numeric entry {a!r} -> {b!r}: {entries[at]!r}"
            )
        t = np.array(entries, dtype=np.float64)
    except KeyError as exc:
        raise ValidationError(
            f"travel time matrix is not square, missing entry for {exc.args[0]!r}"
        )
    except (AttributeError, TypeError, OverflowError):
        raise ValidationError(
            "travel time matrix has a malformed or non-numeric entry"
        ) from None
    for a in ids:
        if len(raw[a]) > len(ids):  # it holds every id, so a key more
            extra = sorted(set(raw[a]).difference(ids, stops))
            if extra:
                raise ValidationError(f"travel time row {a!r} has a non-stop key {extra[0]!r}")
    return TravelTimeMatrix(ids=ids, t=t.reshape(len(ids), len(ids)))


def _row_array(ids, rows) -> Optional[np.ndarray]:
    """The rows as one n x n array if each is a TravelTimeRow over exactly `ids`, else None."""
    t = np.empty((len(ids), len(ids)))
    column = None
    for i, row in enumerate(rows):
        if type(row) is not TravelTimeRow or len(row.keys) != len(ids):
            return None
        if row.keys == ids:
            t[i] = row.values
            continue
        if column is None:
            column = {sid: j for j, sid in enumerate(ids)}
        try:  # the keys are unique, so n of them in `ids` are all of `ids`
            t[i, [column[sid] for sid in row.keys]] = row.values
        except KeyError:
            return None
    return t


def write_dataset(dataset: Dataset, dir_path) -> None:
    """Serialize a dataset to the directory layout.

    Every file holds the bytes json.dump(sort_keys=True, indent=1) gives for
    the dict of its routes, and is streamed by write_file one chunk per
    route, each formatted straight from the Route without building the
    dict. An optional file the dataset has no data for is removed, so that
    an older dataset in the directory leaves none of its files behind.
    """
    dir_path = Path(dir_path)
    ids = sorted(dataset.routes)
    routes = [dataset.routes[route_id] for route_id in ids]
    files = (
        ("routes.json", routes, _route_text),
        ("actual_sequences.json", [r.actual for r in routes], _actual_text),
        ("travel_times.json", [r.travel_times for r in routes], _travel_time_text),
        ("quality.json", [r.quality for r in routes], _value),
    )
    for name, values, text in files:
        path = dir_path / name
        if name == "routes.json" or any(v is not None for v in values):
            write_file(path, _object_chunks(ids, values, text), text=True)
        else:
            path.unlink(missing_ok=True)


def _object_chunks(keys, values, text):
    """{key: value} as json.dump(sort_keys=True, indent=1) writes it, for sorted `keys`.

    One chunk per value that is not None, `text(value)` after its key, then
    the closing brace; the object is "{}" when every value is None.
    """
    opening = "{\n "
    for key, value in zip(keys, values):
        if value is not None:
            yield opening + encode_basestring_ascii(key) + ": " + text(value)
            opening = ",\n "
    yield "{}" if opening == "{\n " else "\n}"


def _value(value) -> str:
    """A JSON scalar as the stdlib encoder writes it.

    A float takes float.__repr__ and a string is escaped to ASCII, as the
    encoder does; anything else (an int coordinate, None) goes through it.
    The encoder writes nan and inf otherwise, but a Route rejects them.
    """
    if type(value) is float:
        return float.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _route_text(route: Route) -> str:
    """A route's routes.json value at depth 1: its depot and its delivery stops by id."""
    depot = route.depot
    stops = ",\n   ".join(
        f'{encode_basestring_ascii(s.id)}: {{\n    "lat": {_value(s.lat)},\n'
        f'    "lng": {_value(s.lng)},\n    "zone_id": {_value(s.zone_id)}\n   }}'
        for s in sorted(route.delivery_stops(), key=lambda s: s.id)
    )
    return (
        f'{{\n  "depot": {{\n   "lat": {_value(depot.lat)},\n'
        f'   "lng": {_value(depot.lng)}\n  }},\n  "stops": '
        + ("{\n   " + stops + "\n  }" if stops else "{}")
        + "\n }"
    )


def _actual_text(actual: StopSequence) -> str:
    """An actual's actual_sequences.json value at depth 1: stop id -> position, by id."""
    ids = actual.ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return "{\n  " + ",\n  ".join(f"{encode_basestring_ascii(ids[i])}: {i}" for i in order) + "\n }"


def _travel_time_text(m: TravelTimeMatrix) -> str:
    """A matrix's travel_times.json value at depth 1: {from: {to: seconds}}, by id.

    Each id is escaped once, and a matrix equal to its transpose bit for
    bit (-0.0 is not 0.0) has each mirrored pair formatted once.
    """
    order = sorted(range(len(m.ids)), key=m.ids.__getitem__)
    keys = [encode_basestring_ascii(m.ids[i]) for i in order]
    t = m.t[np.ix_(order, order)]
    bits = t.view(np.uint64)
    if (bits == bits.T).all():
        upper = np.triu_indices(len(keys))
        texts = np.empty(t.shape, dtype=object)
        texts[upper] = texts[upper[::-1]] = list(map(float.__repr__, t[upper].tolist()))
    else:
        texts = np.array([list(map(float.__repr__, row)) for row in t.tolist()], dtype=object)
    entries = np.array([key + ": " for key in keys], dtype=object) + texts
    rows = ",\n  ".join(
        key + ": {\n   " + ",\n   ".join(row) + "\n  }"
        for key, row in zip(keys, entries.tolist())
    )
    return "{\n  " + rows + "\n }"


def zsgt(route: Route) -> Tuple[str, ...]:
    """Approximate ground-truth zone sequence (ZSgt) of a route with an actual.

    The actual's delivery stops fall into maximal runs of one zone id. Each
    zone keeps its longest run (the earlier one on a tie), and the zones
    follow the order of their kept runs, so the collapse is lossy.
    """
    if route.actual is None:
        raise ValidationError(f"route {route.route_id}: no actual sequence")
    zones = (route.stops[sid].zone_id for sid in route.actual.ids if sid != DEPOT_STOP_ID)
    kept: Dict[str, Tuple[int, int]] = {}  # zone -> (stops, position) of its longest run
    for position, (zone, run) in enumerate(groupby(zones)):
        stops = sum(1 for _ in run)
        if zone not in kept or stops > kept[zone][0]:
            kept[zone] = (stops, position)
    if not kept:
        raise ValidationError(f"route {route.route_id}: no zone runs to collapse")
    return tuple(sorted(kept, key=lambda z: kept[z][1]))


def training_corpus(dataset: Dataset, include_low: bool = False) -> List[Tuple[str, ...]]:
    """ZSgt sequences of all routes with actuals, excluding Low quality by default.

    A route without delivery stops has no zone sequence: it is left out, and
    one warning on the ``zoneseq`` logger names every such route. An empty
    corpus is a ValidationError that names the routes left out, if any.
    """
    corpus, low, skipped = [], [], []
    for route_id in sorted(dataset.routes):
        route = dataset.routes[route_id]
        if route.actual is None:
            continue
        if not include_low and route.quality == "Low":
            low.append(route_id)
        elif not route.delivery_stops():
            skipped.append(route_id)
        else:
            corpus.append(zsgt(route))
    if skipped:
        log.warning(
            "skipped %d routes without delivery stops: %s", len(skipped), ", ".join(skipped)
        )
    if not corpus:
        reasons = [f"routes {', '.join(skipped)} have no delivery stops"] if skipped else []
        if low:
            reasons.append(f"Low quality routes {', '.join(low)} are left out;"
                           " --include-low keeps them")
        if not reasons:
            raise ValidationError("dataset has no routes with actual sequences to train on")
        raise ValidationError("dataset has no routes to train on: " + "; ".join(reasons))
    return corpus
