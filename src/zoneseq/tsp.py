"""Per-zone stop ordering via an augmented asymmetric TSP.

Each zone's instance has its own stops first, then one representative
(median) node per downstream zone, the preceding zone's last stop and the
depot, in that order. The tour starts at the last stop (the depot in the
first zone); the zone's stops are read off it in tour order.
Tours come from nearest-neighbour construction improved by Or-opt segment
relocation and direction-preserving 3-opt segment exchange; plain 2-opt is
avoided because segment reversal changes cost under asymmetric matrices.

Each local-search scan (`_or_opt_scan`, `_three_opt_scan`) scores all of
its candidate moves in one numpy evaluation and applies the one move a
first-improvement loop would: the first segment start i (Or-opt) or cut
pair (i, j), by i then j (3-opt), whose best gain exceeds the epsilon, at
the first slot p or third cut k with that gain. `_improve` is the one
loop: the passes (Or-opt of 1, 2 and 3 nodes, then 3-opt) take turns,
each scanning until a scan fails or the move budget is spent, and the
search stops once every pass has failed on the current tour. A scan
depends only on the costs and the tour, so a pass is not run again on a
tour it has already failed on.

An external TSPLIB solver (e.g. a Lin-Kernighan binary) can be plugged in;
its tours flow through the same rotation/filter post-processing. Each of
its runs is killed, with every process it started, after
EXTERNAL_SOLVER_TIMEOUT_S seconds.
"""

from __future__ import annotations

import math
import os
import reprlib
import signal
import subprocess
import tempfile
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import cycle
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Route, StopSequence, ValidationError

EXTERNAL_SOLVER_TIMEOUT_S = 60  # seconds per instance: one zone's stops and a few extra nodes


@dataclass(frozen=True)
class ZoneTspInstance:
    """One zone's ATSP, its node roles given by position.

    Nodes 0..len(stop_ids)-1 are the zone's stops, in `stop_ids` order; any
    later nodes are not stops (`build_instance` puts the representatives,
    the last stop and the depot there). The tour starts at `start_index`.
    """

    stop_ids: Tuple[str, ...]
    cost: np.ndarray  # stored as a read-only n x n float64 array
    start_index: int

    def __post_init__(self):
        cost = np.array(self.cost, dtype=np.float64)
        if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
            raise ValidationError(f"instance cost of shape {cost.shape} is not square")
        n = len(cost)
        if not 1 <= len(self.stop_ids) <= n:
            raise ValidationError(f"instance has {len(self.stop_ids)} zone stops for {n} nodes")
        if not 0 <= self.start_index < n:
            raise ValidationError(f"instance start {self.start_index} is not one of {n} nodes")
        cost.setflags(write=False)
        object.__setattr__(self, "cost", cost)

    @property
    def n(self) -> int:
        return len(self.cost)


def build_instance(
    route: Route,
    zone_order: Sequence[str],
    k: int,
    prev_last_stop: Optional[str] = None,
) -> ZoneTspInstance:
    """Assemble the augmented ATSP instance for zone index k of zone_order.

    `sequence_stops` has checked `zone_order`. Its costs are a slice of the
    route's geometry (`Route.geometry`).
    """
    zone_stops = route.zone_stops
    stops, later = zone_stops[zone_order[k]], zone_order[k + 1:]
    depot = route.depot.id
    if k == 0 or prev_last_stop is None or prev_last_stop == depot:
        ends = (depot,)  # first zone: the depot doubles as the preceding last stop
    else:
        ends = (prev_last_stop, depot)
    index, _ = route.stop_cost
    median_row = {z: len(index) + i for i, z in enumerate(zone_stops)}
    at = [index[s] for s in stops] + [median_row[z] for z in later]
    start_index = len(at)
    at += [index[s] for s in ends]
    cost = route.geometry[np.ix_(at, at)]
    return ZoneTspInstance(stop_ids=stops, cost=cost, start_index=start_index)


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


# Or-opt index grids of tours up to this many nodes are kept for reuse:
# about 4 MB at most, over every such n and segment length. A longer tour
# builds its grids for each search, where they cost little next to its scans.
_GRID_CACHE_NODES = 64


def _or_opt_grid(n: int, seg_len: int) -> Tuple[np.ndarray, ...]:
    """Read-only index arrays of an Or-opt scan of `seg_len`-node segments.

    Segment starts i, the tour positions of their predecessors and
    successors, the tour positions before and after each slot p of the rest
    (one row per i), and the slot of each start's predecessor.
    """
    m = n - seg_len  # nodes left outside the segment
    starts = np.arange(m + 1)
    slots = np.arange(m)
    # Slot p of the rest is tour position p, or p + seg_len past the segment.
    here = slots + seg_len * (slots >= starts[:, None])
    after = here[:, (slots + 1) % m]
    pred_slot = (starts - 1) % m  # reinserting there leaves the tour as is
    grid = (starts, starts - 1, (starts + seg_len) % n, here, after, pred_slot)
    for a in grid:
        a.setflags(write=False)
    return grid


_cached_or_opt_grid = lru_cache(maxsize=None)(_or_opt_grid)


def _or_opt_scan(seg_len: int, grid: Tuple[np.ndarray, ...], cost: np.ndarray,
                 tour: List[int]) -> bool:
    """Relocate a segment of `seg_len` nodes without reversal (asymmetric-safe).

    Scores moving the segment that starts at tour position i to after slot
    p of the rest of the tour, for every (i, p) in one numpy evaluation
    over `grid` (`_or_opt_grid`). Applies the first i whose best gain
    exceeds _GAIN_EPS, at the first p with that gain; returns whether it moved.
    """
    m = len(tour) - seg_len  # nodes left outside the segment
    starts, pred_at, succ_at, here, after, pred_slot = grid
    t = np.asarray(tour)
    first, last = t[:m + 1], t[seg_len - 1:]
    pred, succ = t[pred_at], t[succ_at]
    removed = cost[pred, first] + cost[last, succ] - cost[pred, succ]
    a, b = t[here], t[after]
    added = cost[a, first[:, None]] + cost[last[:, None], b] - cost[a, b]
    gains = removed[:, None] - added
    gains[starts, pred_slot] = 0.0
    hits = np.flatnonzero(gains.max(axis=1) > _GAIN_EPS)
    if not hits.size:
        return False
    i = int(hits[0])
    p = int(np.argmax(gains[i]))
    seg = tour[i:i + seg_len]
    rest = tour[:i] + tour[i + seg_len:]
    tour[:] = rest[: p + 1] + seg + rest[p + 1:]
    return True


def _three_opt_scan(below: np.ndarray, cost: np.ndarray, tour: List[int]) -> bool:
    """Direction-preserving 3-opt: swap the two segments between three cuts.

    Cuts after positions i < j < k split the tour into A B C D (D possibly
    empty); reconnection A C B D keeps every segment's direction, so it is
    valid under asymmetric costs. Scores every cut triple in one numpy
    evaluation (blocks of i for long tours). Applies the first (i, j), by i
    then j, whose best gain exceeds _GAIN_EPS, at the first k with that
    gain; returns whether it moved. Needs n >= 3 and `below` the
    (n - 2)-square strictly-below-diagonal mask.
    """
    # i, j and k each take w values: 0..n-3, 1..n-2 and 2..n-1. Offset that
    # way, both j <= i and k <= j mean "column index below row index".
    w = len(below)
    rows = max(1, _BLOCK_ELEMENTS // (w * w))
    t = np.asarray(tour)
    q = cost[t[:, None], np.asarray(tour[1:] + tour[:1])]  # q[x, y]: tour[x] -> tour[y + 1]
    arc = q.diagonal()
    # With a b = tour[i, i+1], c d = tour[j, j+1], e f = tour[k, k+1]:
    base = q[:w, 1:w + 1] - arc[:w, None] - arc[1:w + 1]  # ad - ab - cd, (i, j)
    eb = q[2:, :w].T  # (i, k)
    cf = q[1:w + 1, 2:]  # (j, k)
    ef = arc[2:]  # (k,)
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
            i, j, k = i0 + bi, jj + 1, int(np.argmax(g[bi, jj])) + 2
            tour[:] = tour[: i + 1] + tour[j + 1: k + 1] + tour[i + 1: j + 1] + tour[k + 1:]
            return True
    return False


def _improve(cost: np.ndarray, tour: List[int], budget: List[int]) -> int:
    """Run the passes in turn, from Or-opt of 1, 2, 3 nodes to 3-opt, until none can move.

    Improves `tour` in place and returns the number of scans. A pass scans
    until a scan finds no move, taking one unit of `budget` per move, so
    it leaves the tour with a failed scan on it. A scan depends only on
    (cost, tour): the pass would fail again until another pass moves. So
    the search stops once every pass has failed on the current tour (the
    last pass that moved, then each of the others in turn), or when the
    budget is spent.
    """
    n = len(tour)
    grid = _cached_or_opt_grid if n <= _GRID_CACHE_NODES else _or_opt_grid
    passes = [partial(_or_opt_scan, seg_len, grid(n, seg_len))
              for seg_len in (1, 2, 3) if seg_len < n - 1]
    if n >= 3:
        passes.append(partial(_three_opt_scan, np.tri(n - 2, n - 2, -1, dtype=bool)))
    scans = 0
    failed = 0  # passes in a row, the last one run included, that failed on this tour
    for scan in cycle(passes):
        if failed == len(passes) or budget[0] <= 0:
            break
        failed += 1
        while budget[0] > 0:
            scans += 1
            if not scan(cost, tour):
                break
            budget[0] -= 1
            failed = 1
    return scans


def solve_atsp(instance: ZoneTspInstance, stats: Optional[dict] = None) -> List[int]:
    """Closed-tour heuristic: nearest neighbour + Or-opt + 3-opt exchange.

    Multi-start over all construction nodes for small instances (closed
    tours are rotation invariant, so the forced ls start is recovered by
    rotation afterwards). Deterministic given the instance; accepted moves
    are capped at 50 * n to bound per-route latency. The optional `stats`
    dict receives `moves` (accepted moves over all starts), `starts`
    (constructions run), `scans` (numpy scan evaluations, failed ones
    included) and `budget_exhausted` (the cap ended the search).
    """
    cost = instance.cost
    n = instance.n
    if n < 2:
        raise ValidationError("ATSP instance needs at least 2 nodes")
    rows = cost.tolist()  # Python floats index faster than numpy scalars
    budget, scans = [50 * n], 0
    starts = [instance.start_index]
    if n <= 12:
        starts += [i for i in range(n) if i != instance.start_index]
    best_tour, best_cost = None, math.inf
    for run, start in enumerate(starts, 1):
        tour = nearest_neighbor_tour(rows, start)
        scans += _improve(cost, tour, budget)
        c = tour_cost(rows, tour)
        if c < best_cost - 1e-12:
            best_tour, best_cost = tour, c
        if budget[0] <= 0:
            break
    if stats is not None:
        stats["moves"] = 50 * n - budget[0]
        stats["starts"] = run
        stats["scans"] = scans
        stats["budget_exhausted"] = budget[0] <= 0
    return best_tour


def order_zone_stops(instance: ZoneTspInstance, tour: Sequence[int]) -> List[str]:
    """The zone's stops in tour order, read from the start node on."""
    if sorted(tour) != list(range(instance.n)):
        raise ValidationError("tour is not a permutation of instance nodes")
    at = tour.index(instance.start_index)
    stops = instance.stop_ids
    return [stops[i] for i in tour[at:] + tour[:at] if i < len(stops)]


def sequence_stops(
    route: Route,
    zone_order: Sequence[str],
    external_solver: Optional[str] = None,
) -> StopSequence:
    """Order all stops of a route given a zone order; depot comes first.

    The zone order must hold each of the route's zones once. Solves one
    augmented ATSP per zone, threading each zone's last stop into the next
    instance as its fixed start.
    """
    route_zones, ordered_zones = set(route.zone_stops), set(zone_order)
    missing, unknown = route_zones - ordered_zones, ordered_zones - route_zones
    if missing:
        raise ValidationError(
            f"route {route.route_id}: zone order missing zones {sorted(missing)}"
        )
    if unknown:
        raise ValidationError(
            f"route {route.route_id}: zone order has zones not in the route {sorted(unknown)}"
        )
    if len(ordered_zones) != len(zone_order):
        raise ValidationError(f"route {route.route_id}: zone order repeats a zone")
    ids: List[str] = [route.depot.id]
    prev_last = route.depot.id
    for k in range(len(zone_order)):
        instance = build_instance(route, zone_order, k, prev_last)
        if external_solver:
            try:
                tour = solve_atsp_external(instance, external_solver)
            except ValidationError as exc:  # a bad tour file
                raise ValidationError(
                    f"route {route.route_id}: zone {zone_order[k]}: {exc}"
                ) from None
        else:
            tour = solve_atsp(instance)
        ordered = order_zone_stops(instance, tour)
        ids.extend(ordered)
        prev_last = ordered[-1]
    return StopSequence(route_id=route.route_id, ids=tuple(ids))


# -- TSPLIB adapter ----------------------------------------------------------


def write_tsplib_atsp(instance: ZoneTspInstance) -> bytes:
    """Explicit full-matrix ATSP file; weights are round-half-even(cost*1000)."""
    lines = [
        "NAME: zone",
        "TYPE: ATSP",
        f"DIMENSION: {instance.n}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    for row in instance.cost.tolist():
        lines.append(" ".join(str(round(v * 1000)) for v in row))
    lines.append("EOF")
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_tsplib_tour(data: bytes, n: int) -> List[int]:
    """Parse a TSPLIB TOUR_SECTION (1-based node ids, -1 terminator)."""
    tour: List[int] = []
    in_section = False
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise ValidationError("tour file is not ASCII text") from None
    for line in text.splitlines():
        line = line.strip()
        if line == "TOUR_SECTION":
            in_section = True
            continue
        if not in_section:
            continue
        for tok in line.split():
            try:
                v = int(tok)
            except ValueError:
                raise ValidationError(
                    f"tour file has a non-integer node {reprlib.repr(tok)}"
                ) from None
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
        # In its own session, the solver and whatever it starts form one
        # process group to kill. That session does not see a terminal's ^C.
        proc = subprocess.Popen(
            [solver_path, str(par)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            status = proc.wait(timeout=EXTERNAL_SOLVER_TIMEOUT_S)
        except BaseException as exc:  # the time limit, or an interrupt
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise OSError(
                    f"external solver {solver_path} timed out after "
                    f"{EXTERNAL_SOLVER_TIMEOUT_S} s"
                ) from None
            raise
        if status != 0:
            raise OSError(f"external solver {solver_path} exited with status {status}")
        return parse_tsplib_tour(tour_file.read_bytes(), instance.n)
