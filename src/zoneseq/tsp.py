"""Per-zone stop ordering via an augmented asymmetric TSP.

Each zone's instance contains its own stops, one representative (median)
node per downstream zone, the preceding zone's last stop and the depot.
Tours come from nearest-neighbour construction improved by Or-opt segment
relocation and direction-preserving 3-opt segment exchange; plain 2-opt is
avoided because segment reversal changes cost under asymmetric matrices.

An external TSPLIB solver (e.g. a Lin-Kernighan binary) can be plugged in;
its tours flow through the same rotation/filter post-processing.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import subprocess
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .core import (
    Route,
    StopSequence,
    ValidationError,
    ZoneSequence,
    distance,
    haversine_m,
)


class NodeTag(Enum):
    ZONE_STOP = "ZoneStop"
    REPRESENTATIVE = "Representative"
    LAST_STOP = "LastStop"
    DEPOT = "Depot"


@dataclass(frozen=True)
class ZoneTspInstance:
    """Augmented node set for one zone of a route."""

    node_ids: Tuple[str, ...]
    tags: Tuple[NodeTag, ...]
    cost: Tuple[Tuple[float, ...], ...]
    start_index: int

    def __post_init__(self):
        n = len(self.node_ids)
        if len(self.tags) != n or len(self.cost) != n:
            raise ValidationError("instance arrays disagree on node count")
        if self.tags.count(NodeTag.ZONE_STOP) < 1:
            raise ValidationError("instance has no zone stops")

    @property
    def n(self) -> int:
        return len(self.node_ids)


def representative_node(stops) -> Tuple[float, float]:
    """Component-wise median coordinates of a zone's stops."""
    stops = list(stops)
    if not stops:
        raise ValidationError("cannot take the median of an empty zone")
    return (
        statistics.median(s.lat for s in stops),
        statistics.median(s.lng for s in stops),
    )


def build_instance(
    route: Route,
    zone_order: ZoneSequence,
    k: int,
    prev_last_stop: Optional[str] = None,
) -> ZoneTspInstance:
    """Assemble the augmented ATSP instance for zone index k of zone_order.

    Representative nodes are synthetic points without matrix entries, so
    every edge touching one is haversine; stop-to-stop edges use the
    route's normal distance.
    """
    if not 0 <= k < len(zone_order.zones):
        raise ValidationError(f"zone index {k} out of range for {zone_order.zones}")
    zone = zone_order.zones[k]
    zone_stops = sorted(
        (s for s in route.delivery_stops() if s.zone_id == zone), key=lambda s: s.id
    )
    if not zone_stops:
        raise ValidationError(f"route {route.route_id}: zone {zone} has no stops")

    depot = route.depot
    node_ids: List[str] = [s.id for s in zone_stops]
    tags: List[NodeTag] = [NodeTag.ZONE_STOP] * len(zone_stops)
    coords: List[Tuple[float, float]] = [(s.lat, s.lng) for s in zone_stops]
    is_stop: List[bool] = [True] * len(zone_stops)

    for later in zone_order.zones[k + 1:]:
        later_stops = [s for s in route.delivery_stops() if s.zone_id == later]
        node_ids.append(f"rn:{later}")
        tags.append(NodeTag.REPRESENTATIVE)
        coords.append(representative_node(later_stops))
        is_stop.append(False)

    if k == 0 or prev_last_stop is None or prev_last_stop == depot.id:
        # First zone: the depot doubles as the preceding last stop.
        start_index = len(node_ids)
        node_ids.append(depot.id)
        tags.append(NodeTag.DEPOT)
        coords.append((depot.lat, depot.lng))
        is_stop.append(True)
    else:
        ls = route.stops[prev_last_stop]
        start_index = len(node_ids)
        node_ids.append(ls.id)
        tags.append(NodeTag.LAST_STOP)
        coords.append((ls.lat, ls.lng))
        is_stop.append(True)
        node_ids.append(depot.id)
        tags.append(NodeTag.DEPOT)
        coords.append((depot.lat, depot.lng))
        is_stop.append(True)

    n = len(node_ids)
    cost = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if is_stop[i] and is_stop[j]:
                cost[i][j] = distance(route, node_ids[i], node_ids[j])
            else:
                cost[i][j] = haversine_m(coords[i], coords[j])
    return ZoneTspInstance(
        node_ids=tuple(node_ids),
        tags=tuple(tags),
        cost=tuple(tuple(row) for row in cost),
        start_index=start_index,
    )


# -- local search ------------------------------------------------------------


def tour_cost(cost: Sequence[Sequence[float]], tour: Sequence[int]) -> float:
    n = len(tour)
    return sum(cost[tour[i]][tour[(i + 1) % n]] for i in range(n))


def nearest_neighbor_tour(cost, start: int) -> List[int]:
    n = len(cost)
    tour = [start]
    unvisited = set(range(n)) - {start}
    while unvisited:
        cur = tour[-1]
        tour.append(min(unvisited, key=lambda j: (cost[cur][j], j)))
        unvisited.remove(tour[-1])
    return tour


_GAIN_EPS = 1e-9


def _or_opt_pass(cost: np.ndarray, tour: List[int], budget: List[int]) -> bool:
    """Relocate segments of length 1-3 without reversal (asymmetric-safe)."""
    n = len(tour)
    improved = False
    for seg_len in (1, 2, 3):
        if seg_len >= n - 1:
            break
        i = 0
        while i + seg_len <= n and budget[0] > 0:
            seg = tour[i:i + seg_len]
            pred = tour[i - 1]  # wraps for i = 0
            succ = tour[(i + seg_len) % n]
            removed = cost[pred, seg[0]] + cost[seg[-1], succ] - cost[pred, succ]
            rest = tour[:i] + tour[i + seg_len:]
            rest_a = np.asarray(rest)
            rest_b = np.roll(rest_a, -1)
            added = cost[rest_a, seg[0]] + cost[seg[-1], rest_b] - cost[rest_a, rest_b]
            gains = removed - added
            gains[rest.index(pred)] = 0.0  # reinserting into the same slot
            p = int(np.argmax(gains))
            if gains[p] > _GAIN_EPS:
                tour[:] = rest[: p + 1] + seg + rest[p + 1:]
                improved = True
                budget[0] -= 1
                i = 0
                continue
            i += 1
    return improved


def _three_opt_pass(cost: np.ndarray, tour: List[int], budget: List[int]) -> bool:
    """Direction-preserving 3-opt: swap the two segments between three cuts.

    Cuts after positions i < j < k split the tour into A B C D (D possibly
    empty); reconnection A C B D keeps every segment's direction, so it is
    valid under asymmetric costs.
    """
    n = len(tour)
    improved = False
    restart = True
    while restart and budget[0] > 0:
        restart = False
        tv = np.asarray(tour)
        nxt = np.roll(tv, -1)
        for i in range(n - 2):
            a, b = tour[i], tour[i + 1]
            for j in range(i + 1, n - 1):
                c, d = tour[j], tour[j + 1]
                base = cost[a, d] - cost[a, b] - cost[c, d]
                e = tv[j + 1:]
                f = nxt[j + 1:]
                gains = -(base + cost[e, b] + cost[c, f] - cost[e, f])
                kk = int(np.argmax(gains))
                if gains[kk] > _GAIN_EPS:
                    k = j + 1 + kk
                    tour[:] = (
                        tour[: i + 1]
                        + tour[j + 1: k + 1]
                        + tour[i + 1: j + 1]
                        + tour[k + 1:]
                    )
                    improved = True
                    budget[0] -= 1
                    restart = True
                    break
            if restart:
                break
    return improved


def _improve(cost: np.ndarray, tour: List[int], budget: List[int]) -> List[int]:
    while budget[0] > 0:
        any_move = _or_opt_pass(cost, tour, budget)
        any_move = _three_opt_pass(cost, tour, budget) or any_move
        if not any_move:
            break
    return tour


def solve_atsp(instance: ZoneTspInstance) -> List[int]:
    """Closed-tour heuristic: nearest neighbour + Or-opt + 3-opt exchange.

    Multi-start over all construction nodes for small instances (closed
    tours are rotation invariant, so the forced ls start is recovered by
    rotation afterwards). Deterministic given the instance; accepted moves
    are capped at 50 * n to bound per-route latency.
    """
    cost = np.asarray(instance.cost, dtype=float)
    n = instance.n
    if n < 2:
        raise ValidationError("ATSP instance needs at least 2 nodes")
    budget = [50 * n]
    starts = [instance.start_index]
    if n <= 12:
        starts += [i for i in range(n) if i != instance.start_index]
    best_tour, best_cost = None, math.inf
    for start in starts:
        tour = _improve(cost, nearest_neighbor_tour(cost, start), budget)
        c = tour_cost(cost, tour)
        if c < best_cost - 1e-12:
            best_tour, best_cost = tour, c
        if budget[0] <= 0:
            break
    return best_tour


def order_zone_stops(instance: ZoneTspInstance, tour: Sequence[int]) -> List[str]:
    """Rotate the tour to start at ls, drop every non-zone-stop node."""
    if sorted(tour) != list(range(instance.n)):
        raise ValidationError("tour is not a permutation of instance nodes")
    at = tour.index(instance.start_index)
    rotated = list(tour[at:]) + list(tour[:at])
    return [
        instance.node_ids[i]
        for i in rotated
        if instance.tags[i] is NodeTag.ZONE_STOP
    ]


def sequence_stops(
    route: Route,
    zone_order: ZoneSequence,
    external_solver: Optional[str] = None,
) -> StopSequence:
    """Order all stops of a route given a zone order; depot comes first.

    Solves one augmented ATSP per zone, threading each zone's last stop
    into the next instance as its fixed start.
    """
    route_zones = set(route.zones())
    if set(zone_order.zones) != route_zones:
        missing = route_zones - set(zone_order.zones)
        raise ValidationError(
            f"route {route.route_id}: zone order missing zones {sorted(missing)}"
        )
    ids: List[str] = [route.depot.id]
    prev_last = route.depot.id
    for k in range(len(zone_order.zones)):
        instance = build_instance(route, zone_order, k, prev_last)
        if external_solver:
            tour = solve_atsp_external(instance, external_solver)
        else:
            tour = solve_atsp(instance)
        ordered = order_zone_stops(instance, tour)
        ids.extend(ordered)
        prev_last = ordered[-1]
    return StopSequence(route_id=route.route_id, ids=tuple(ids))


# -- TSPLIB adapter ----------------------------------------------------------


def write_tsplib_atsp(instance: ZoneTspInstance, name: str = "zone") -> bytes:
    """Explicit full-matrix ATSP file; weights are round-half-even(cost*1000)."""
    lines = [
        f"NAME: {name}",
        "TYPE: ATSP",
        f"DIMENSION: {instance.n}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    for row in instance.cost:
        lines.append(" ".join(str(round(v * 1000)) for v in row))
    lines.append("EOF")
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_tsplib_atsp(data: bytes) -> List[List[int]]:
    """Read back the integer weight matrix of an explicit ATSP file."""
    lines = data.decode("ascii").splitlines()
    dim = None
    weights: List[int] = []
    in_section = False
    for line in lines:
        line = line.strip()
        if line.startswith("DIMENSION"):
            dim = int(line.split(":")[1])
        elif line == "EDGE_WEIGHT_SECTION":
            in_section = True
        elif line == "EOF":
            break
        elif in_section:
            weights.extend(int(tok) for tok in line.split())
    if dim is None or len(weights) != dim * dim:
        raise ValidationError("malformed TSPLIB ATSP file")
    return [weights[i * dim:(i + 1) * dim] for i in range(dim)]


def parse_tsplib_tour(data: bytes, n: int) -> List[int]:
    """Parse a TSPLIB TOUR_SECTION (1-based node ids, -1 terminator)."""
    tour: List[int] = []
    in_section = False
    for line in data.decode("ascii").splitlines():
        line = line.strip()
        if line == "TOUR_SECTION":
            in_section = True
            continue
        if not in_section:
            continue
        for tok in line.split():
            v = int(tok)
            if v == -1:
                in_section = False
                break
            tour.append(v - 1)
    if sorted(tour) != list(range(n)):
        raise ValidationError("tour file is not a permutation of the instance nodes")
    return tour


def solve_atsp_external(instance: ZoneTspInstance, solver_path: str) -> List[int]:
    """Run an LKH-style solver: parameter file in, TSPLIB tour file out."""
    with tempfile.TemporaryDirectory(prefix="zoneseq_atsp_") as tmp:
        tmp = Path(tmp)
        problem = tmp / "problem.atsp"
        tour_file = tmp / "problem.tour"
        par = tmp / "problem.par"
        problem.write_bytes(write_tsplib_atsp(instance))
        par.write_text(
            f"PROBLEM_FILE = {problem}\n"
            f"TOUR_FILE = {tour_file}\n"
            "RUNS = 1\n"
            "SEED = 1\n"
        )
        subprocess.run(
            [solver_path, str(par)],
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return parse_tsplib_tour(tour_file.read_bytes(), instance.n)
