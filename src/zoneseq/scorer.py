"""Route dissimilarity scoring: sequence deviation x ERP per unit edit.

This reconstructs the Challenge-style score from its documented pieces:
sequence deviation (an adjacency-based permutation distance) multiplied by
edit-distance-with-real-penalty over the max-normalized travel-time
matrix, divided by the number of costed edits. It is structured so a
verified port of the official evaluator can replace these functions
without touching callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import Route, StopKind, StopSequence, ValidationError, haversine_m
from .ingest import Dataset


@dataclass(frozen=True)
class RouteScore:
    route_id: str
    sd: float
    erp_cost: float
    erp_edits: int
    score: float


@dataclass(frozen=True)
class ScoreReport:
    per_route: Tuple[RouteScore, ...]
    mean_score: float

    def to_json_dict(self) -> dict:
        return {
            "mean_score": self.mean_score,
            "routes": {
                r.route_id: {
                    "sd": r.sd,
                    "erp_cost": r.erp_cost,
                    "erp_edits": r.erp_edits,
                    "score": r.score,
                }
                for r in self.per_route
            },
        }


def sequence_deviation(actual: Sequence[str], submitted: Sequence[str]) -> float:
    """Adjacency-gap permutation distance, depot excluded by the caller.

    With r_i the submitted position of actual's i-th stop:
    SD = 2 / (n (n - 1)) * sum_i (|r_i - r_{i-1}| - 1).
    """
    n = len(actual)
    if n < 2:
        raise ValidationError("sequence deviation needs at least 2 stops")
    if set(actual) != set(submitted) or len(set(actual)) != n or len(submitted) != n:
        raise ValidationError("actual and submitted are not permutations of the same stops")
    pos = {sid: i for i, sid in enumerate(submitted)}
    r = [pos[sid] for sid in actual]
    total = sum(abs(r[i] - r[i - 1]) - 1 for i in range(1, n))
    return 2.0 * total / (n * (n - 1))


def erp(
    actual: Sequence[str],
    submitted: Sequence[str],
    dist: Callable[[str, str], float],
    gap_ref: str,
) -> Tuple[float, int]:
    """Edit distance with real penalty between two stop sequences.

    `dist` must already be normalized (see normalized_dist). Gaps are
    charged by distance to `gap_ref` (the depot). Returns (cost, edits)
    where edits counts the non-zero-cost operations on one optimal path;
    ties during backtracking prefer matches.
    """
    n, m = len(actual), len(submitted)
    gap_a = [dist(sid, gap_ref) for sid in actual]
    gap_b = [dist(sid, gap_ref) for sid in submitted]
    D = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        D[i][0] = D[i - 1][0] + gap_a[i - 1]
    for j in range(1, m + 1):
        D[0][j] = D[0][j - 1] + gap_b[j - 1]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            D[i][j] = min(
                D[i - 1][j - 1] + dist(actual[i - 1], submitted[j - 1]),
                D[i - 1][j] + gap_a[i - 1],
                D[i][j - 1] + gap_b[j - 1],
            )
    # Backtrack one optimal path, diagonal first.
    edits = 0
    i, j = n, m
    eps = 1e-12
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            step = dist(actual[i - 1], submitted[j - 1])
            if abs(D[i][j] - (D[i - 1][j - 1] + step)) <= eps:
                if step > eps:
                    edits += 1
                i, j = i - 1, j - 1
                continue
        if i > 0 and abs(D[i][j] - (D[i - 1][j] + gap_a[i - 1])) <= eps:
            if gap_a[i - 1] > eps:
                edits += 1
            i -= 1
            continue
        if gap_b[j - 1] > eps:
            edits += 1
        j -= 1
    return D[n][m], edits


def normalized_dist(route: Route) -> Callable[[str, str], float]:
    """Travel-time lookup normalized by the matrix maximum.

    Falls back to a haversine-derived matrix when the route carries no
    travel times, as the erp error message instructs.
    """
    stops = route.stops
    if route.travel_times is not None:
        lookup = route.travel_times.lookup
    else:
        def lookup(a: str, b: str) -> float:
            sa, sb = stops[a], stops[b]
            return haversine_m((sa.lat, sa.lng), (sb.lat, sb.lng))

    ids = list(stops)
    max_entry = max(
        (lookup(a, b) for a in ids for b in ids if a != b), default=0.0
    )
    if max_entry <= 0:
        return lambda a, b: 0.0
    return lambda a, b: lookup(a, b) / max_entry


def route_score(route: Route, submitted: StopSequence) -> RouteScore:
    """SD * ERP cost / ERP edits for one route (0 when there are no edits)."""
    if route.actual is None:
        raise ValidationError(f"route {route.route_id}: no actual sequence to score against")
    depot_id = route.depot.id
    actual_ids = [sid for sid in route.actual.ids if sid != depot_id]
    submitted_ids = [sid for sid in submitted.ids if sid != depot_id]
    sd = sequence_deviation(actual_ids, submitted_ids)
    dist = normalized_dist(route)
    cost, edits = erp(actual_ids, submitted_ids, dist, depot_id)
    score = 0.0 if edits == 0 else sd * cost / edits
    return RouteScore(
        route_id=route.route_id, sd=sd, erp_cost=cost, erp_edits=edits, score=score
    )


def dataset_score(
    dataset: Dataset, submissions: Dict[str, StopSequence]
) -> ScoreReport:
    """Unweighted mean route score over every route that has an actual."""
    per_route: List[RouteScore] = []
    for route_id in sorted(dataset.routes):
        route = dataset.routes[route_id]
        if route.actual is None:
            continue
        if route_id not in submissions:
            raise ValidationError(f"missing submission for route {route_id}")
        per_route.append(route_score(route, submissions[route_id]))
    mean = sum(r.score for r in per_route) / len(per_route) if per_route else 0.0
    return ScoreReport(per_route=tuple(per_route), mean_score=mean)
