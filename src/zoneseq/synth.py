"""Seeded synthetic dataset generator with planted zone-order patterns.

Routes sample an ordered zone template; with probability pattern_strength
each adjacent template pair keeps its order, otherwise it is swapped.
Zone ids look like "C-17.3D" so every tokenizer component carries signal.
Stops form isotropic Gaussian clusters around each zone's center, and
actual sequences traverse zones in the chosen order with nearest-neighbour
stop order inside each zone. Everything is driven by one PRNG stream, so a
fixed seed reproduces the dataset byte for byte.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass, fields
from typing import Dict, List, Tuple

from .core import (
    DEPOT_STOP_ID,
    Route,
    Stop,
    StopSequence,
    TravelTimeMatrix,
    ValidationError,
    haversine_m,
    haversine_matrix,
)
from .ingest import Dataset

# haversine meters -> seconds at a nominal driving speed
_SPEED_M_PER_S = 8.0

# What a config value must be, by the type of the field's default.
_KINDS = {bool: ("true or false", {bool}), int: ("an integer", {int}),
          float: ("a number", {int, float})}


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 42
    n_train_routes: int = 200
    n_eval_routes: int = 50
    zones_per_route: Tuple[int, int] = (25, 35)
    stops_per_zone: Tuple[int, int] = (2, 4)
    n_zone_templates: int = 4
    pattern_strength: float = 0.95
    geo_bbox: Tuple[float, float, float, float] = (47.0, -122.4, 47.3, -122.0)
    cluster_sigma_deg: float = 0.0015
    with_travel_times: bool = True

    def __post_init__(self):
        def require(key, ok, rule):
            if not ok:
                raise ValidationError(
                    f"synth config key {key!r} must be {rule}, got {getattr(self, key)!r}"
                )

        for f in fields(self):
            value, default = getattr(self, f.name), f.default
            if isinstance(default, tuple):
                each, kinds = _KINDS[type(default[0])]
                ok = isinstance(value, (list, tuple)) and len(value) == len(default)
                require(f.name, ok and all(type(v) in kinds for v in value),
                        f"a list of {len(default)} values, each {each}")
                object.__setattr__(self, f.name, tuple(value))
            else:
                rule, kinds = _KINDS[type(default)]
                require(f.name, type(value) in kinds, rule)
        for key in ("n_train_routes", "n_eval_routes"):
            require(key, getattr(self, key) >= 0, "at least 0")
        for key in ("zones_per_route", "stops_per_zone"):
            lo, hi = getattr(self, key)
            require(key, 1 <= lo <= hi, "a range [lo, hi] with 1 <= lo <= hi")
        require("n_zone_templates", self.n_zone_templates >= 1, "at least 1")
        require("pattern_strength", 0.0 <= self.pattern_strength <= 1.0, "in [0, 1]")
        lat0, lng0, lat1, lng1 = self.geo_bbox
        require(
            "geo_bbox",
            -90 <= lat0 <= lat1 <= 90 and -180 <= lng0 <= lng1 <= 180,
            "[lat_lo, lng_lo, lat_hi, lng_hi] with lat in [-90, 90], lng in "
            "[-180, 180] and lo <= hi",
        )
        sigma = self.cluster_sigma_deg
        require("cluster_sigma_deg", math.isfinite(sigma) and sigma >= 0, "a finite number >= 0")


def _make_templates(cfg: SynthConfig, rng: random.Random):
    """One ordered zone-id list per template, plus a center per zone id."""
    lat0, lng0, lat1, lng1 = cfg.geo_bbox
    templates: List[List[str]] = []
    centers: Dict[str, Tuple[float, float]] = {}
    max_zones = cfg.zones_per_route[1]
    for t in range(cfg.n_zone_templates):
        letter = string.ascii_uppercase[t % 26]
        ids = []
        for i in range(max_zones):
            suffix = rng.choice(string.ascii_uppercase)
            ids.append(f"{letter}-{i // 10}.{i % 10}{suffix}")
        # Visit order is a shuffle of the id order, so alphabetical sorting
        # does not accidentally reproduce the planted pattern.
        rng.shuffle(ids)
        templates.append(ids)
        for zid in ids:
            if zid not in centers:
                centers[zid] = (
                    rng.uniform(lat0, lat1),
                    rng.uniform(lng0, lng1),
                )
    return templates, centers


def _route(cfg, rng, route_id, templates, centers, depot) -> Route:
    template = templates[rng.randrange(len(templates))]
    n_zones = rng.randint(*cfg.zones_per_route)
    order = list(template[:n_zones])
    for i in range(len(order) - 1):
        if rng.random() >= cfg.pattern_strength:
            order[i], order[i + 1] = order[i + 1], order[i]

    stops: Dict[str, Stop] = {
        DEPOT_STOP_ID: Stop(DEPOT_STOP_ID, depot[0], depot[1])
    }
    by_zone: Dict[str, List[str]] = {}
    idx = 0
    for zid in order:
        clat, clng = centers[zid]
        n_stops = rng.randint(*cfg.stops_per_zone)
        by_zone[zid] = []
        for _ in range(n_stops):
            sid = f"s{idx:04d}"
            idx += 1
            stops[sid] = Stop(
                sid,
                min(90.0, max(-90.0, rng.gauss(clat, cfg.cluster_sigma_deg))),
                min(180.0, max(-180.0, rng.gauss(clng, cfg.cluster_sigma_deg))),
                zone_id=zid,
            )
            by_zone[zid].append(sid)

    # Actual: zones in the chosen order, nearest-neighbour inside each zone.
    ids = [DEPOT_STOP_ID]
    for zid in order:
        pending = set(by_zone[zid])
        while pending:
            prev = stops[ids[-1]]
            nxt = min(
                pending,
                key=lambda s: (
                    haversine_m((prev.lat, prev.lng), (stops[s].lat, stops[s].lng)),
                    s,
                ),
            )
            ids.append(nxt)
            pending.remove(nxt)
    actual = StopSequence(route_id=route_id, ids=tuple(ids))

    matrix = None
    if cfg.with_travel_times:
        all_ids = tuple(sorted(stops))
        coords = [(stops[sid].lat, stops[sid].lng) for sid in all_ids]
        matrix = TravelTimeMatrix(ids=all_ids, t=haversine_matrix(coords) / _SPEED_M_PER_S)

    quality = "High" if rng.random() < 0.5 else "Medium"
    return Route(
        route_id=route_id,
        stops=stops,
        travel_times=matrix,
        actual=actual,
        quality=quality,
    )


def generate(cfg: SynthConfig) -> Tuple[Dataset, Dataset]:
    """Generate (train, eval) datasets from one sequential PRNG stream."""
    rng = random.Random(cfg.seed)
    templates, centers = _make_templates(cfg, rng)
    lat0, lng0, lat1, lng1 = cfg.geo_bbox
    depot = ((lat0 + lat1) / 2.0, (lng0 + lng1) / 2.0)

    train_routes = {}
    for i in range(cfg.n_train_routes):
        rid = f"train_{i:05d}"
        train_routes[rid] = _route(cfg, rng, rid, templates, centers, depot)
    eval_routes = {}
    for i in range(cfg.n_eval_routes):
        rid = f"eval_{i:05d}"
        eval_routes[rid] = _route(cfg, rng, rid, templates, centers, depot)
    return (
        Dataset(routes=train_routes),
        Dataset(routes=eval_routes),
    )
