"""Per-zone stop ordering via an augmented asymmetric TSP.

Each zone's instance contains its own stops, one representative (median)
node per downstream zone, the preceding zone's last stop and the depot.
Tours come from nearest-neighbour construction improved by Or-opt segment
relocation and direction-preserving 3-opt segment exchange; plain 2-opt is
avoided because segment reversal changes cost under asymmetric matrices.

Each local-search scan scores all of its candidate moves in one numpy
evaluation and then applies the move a first-improvement loop would: the
first segment start i (Or-opt) or cut pair (i, j), by i then j (3-opt),
whose best gain exceeds the epsilon, at the first slot p or third cut k
with that gain. After each move the scan restarts from the beginning.

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

# Most 3-opt gains scored in one numpy evaluation: (n - 2)^3 for a tour of
# n nodes, so tours up to 66 nodes take one block (2 MB of float64).
_BLOCK_ELEMENTS = 1 << 18


def _or_opt_pass(cost: np.ndarray, tour: List[int], budget: List[int]) -> bool:
    """Relocate segments of length 1-3 without reversal (asymmetric-safe).

    For each length, a scan scores moving the segment that starts at tour
    position i to after slot p of the rest of the tour, for every (i, p) in
    one numpy evaluation. It applies the first i whose best gain exceeds
    _GAIN_EPS, at the first p with that gain, and restarts from i = 0.
    """
    n = len(tour)
    improved = False
    for seg_len in (1, 2, 3):
        if seg_len >= n - 1:
            break
        m = n - seg_len  # nodes left outside the segment
        starts = np.arange(m + 1)
        slots = np.arange(m)
        # Slot p of the rest is tour position p, or p + seg_len past the segment.
        here = slots + seg_len * (slots >= starts[:, None])
        after = here[:, (slots + 1) % m]
        pred_slot = (starts - 1) % m  # reinserting there leaves the tour as is
        while budget[0] > 0:
            t = np.asarray(tour)
            first, last = t[:m + 1], t[seg_len - 1:]
            pred, succ = t[starts - 1], t[(starts + seg_len) % n]
            removed = cost[pred, first] + cost[last, succ] - cost[pred, succ]
            a, b = t[here], t[after]
            added = cost[a, first[:, None]] + cost[last[:, None], b] - cost[a, b]
            gains = removed[:, None] - added
            gains[starts, pred_slot] = 0.0
            hits = np.flatnonzero(gains.max(axis=1) > _GAIN_EPS)
            if not hits.size:
                break
            i = int(hits[0])
            p = int(np.argmax(gains[i]))
            seg = tour[i:i + seg_len]
            rest = tour[:i] + tour[i + seg_len:]
            tour[:] = rest[: p + 1] + seg + rest[p + 1:]
            improved = True
            budget[0] -= 1
    return improved


def _three_opt_pass(cost: np.ndarray, tour: List[int], budget: List[int]) -> bool:
    """Direction-preserving 3-opt: swap the two segments between three cuts.

    Cuts after positions i < j < k split the tour into A B C D (D possibly
    empty); reconnection A C B D keeps every segment's direction, so it is
    valid under asymmetric costs. A scan scores every cut triple in one
    numpy evaluation (blocks of i for long tours). It applies the first
    (i, j), by i then j, whose best gain exceeds _GAIN_EPS, at the first k
    with that gain, and restarts from i = 0.
    """
    n = len(tour)
    if n < 3:
        return False
    # i, j and k each take w values: 0..n-3, 1..n-2 and 2..n-1. Offset that
    # way, both j <= i and k <= j mean "column index below row index".
    w = n - 2
    below = np.tri(w, w, -1, dtype=bool)
    rows = max(1, _BLOCK_ELEMENTS // (w * w))
    improved = False
    while budget[0] > 0:
        t = np.asarray(tour)
        q = cost[t[:, None], np.roll(t, -1)]  # q[x, y]: tour[x] -> tour[y + 1]
        arc = q.diagonal()
        # With a b = tour[i, i+1], c d = tour[j, j+1], e f = tour[k, k+1]:
        base = q[:w, 1:w + 1] - arc[:w, None] - arc[1:w + 1]  # ad - ab - cd, (i, j)
        eb = q[2:, :w].T  # (i, k)
        cf = q[1:w + 1, 2:]  # (j, k)
        ef = arc[2:]  # (k,)
        move = None
        for i0 in range(0, w, rows):
            g = base[i0:i0 + rows, :, None] + eb[i0:i0 + rows, None, :]
            g += cf
            g -= ef
            np.negative(g, out=g)
            np.copyto(g, -np.inf, where=below)
            best = g.max(axis=2)
            best[below[i0:i0 + rows]] = -np.inf
            hits = np.flatnonzero(best > _GAIN_EPS)
            if hits.size:
                bi, jj = divmod(int(hits[0]), w)
                move = (i0 + bi, jj + 1, int(np.argmax(g[bi, jj])) + 2)
                break
        if move is None:
            break
        i, j, k = move
        tour[:] = tour[: i + 1] + tour[j + 1: k + 1] + tour[i + 1: j + 1] + tour[k + 1:]
        improved = True
        budget[0] -= 1
    return improved


def _improve(cost: np.ndarray, tour: List[int], budget: List[int]) -> List[int]:
    while budget[0] > 0:
        any_move = _or_opt_pass(cost, tour, budget)
        any_move = _three_opt_pass(cost, tour, budget) or any_move
        if not any_move:
            break
    return tour


def solve_atsp(instance: ZoneTspInstance, stats: Optional[dict] = None) -> List[int]:
    """Closed-tour heuristic: nearest neighbour + Or-opt + 3-opt exchange.

    Multi-start over all construction nodes for small instances (closed
    tours are rotation invariant, so the forced ls start is recovered by
    rotation afterwards). Deterministic given the instance; accepted moves
    are capped at 50 * n to bound per-route latency. The optional `stats`
    dict receives `moves` (accepted moves over all starts), `starts`
    (constructions run) and `budget_exhausted` (the cap ended the search).
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
    for run, start in enumerate(starts, 1):
        tour = _improve(cost, nearest_neighbor_tour(cost, start), budget)
        c = tour_cost(cost, tour)
        if c < best_cost - 1e-12:
            best_tour, best_cost = tour, c
        if budget[0] <= 0:
            break
    if stats is not None:
        stats["moves"] = 50 * n - budget[0]
        stats["starts"] = run
        stats["budget_exhausted"] = budget[0] <= 0
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
