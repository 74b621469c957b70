"""Route dissimilarity scoring: sequence deviation x ERP per unit edit.

This reconstructs the Challenge-style score from its documented pieces:
sequence deviation (an adjacency-based permutation distance) multiplied by
edit-distance-with-real-penalty over the max-normalized travel-time
matrix, divided by the number of costed edits. It is structured so a
verified port of the official evaluator can replace these functions
without touching callers.

A route with 0 or 1 delivery stops has only one valid submission, the
identity, so it scores sd = 0, erp_cost = 0, erp_edits = 0 and score = 0.

Each route is scored on one dense matrix: its travel times (or haversine
meters between all stops) divided by the maximum entry. ERP fills its
dynamic-programming table one anti-diagonal at a time with numpy.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .core import Route, StopSequence, ValidationError, check_each
from .ingest import Dataset


def sequence_deviation(actual: Sequence[str], submitted: Sequence[str]) -> float:
    """Adjacency-gap permutation distance, depot excluded by the caller.

    With r_i the submitted position of actual's i-th stop:
    SD = 2 / (n (n - 1)) * sum_i (|r_i - r_{i-1}| - 1), and 0 for n <= 1.
    """
    n = len(actual)
    if set(actual) != set(submitted) or len(set(actual)) != n or len(submitted) != n:
        raise ValidationError("actual and submitted are not permutations of the same stops")
    if n < 2:
        return 0.0
    pos = {sid: i for i, sid in enumerate(submitted)}
    r = [pos[sid] for sid in actual]
    total = sum(abs(r[i] - r[i - 1]) - 1 for i in range(1, n))
    return 2.0 * total / (n * (n - 1))


def erp(cost: np.ndarray, gap_a: np.ndarray, gap_b: np.ndarray) -> Tuple[float, int]:
    """Edit distance with real penalty between two stop sequences, as (cost, edits).

    `cost[i, j]` is the normalized, finite cost between the actual's i-th
    and the submission's j-th stop. A gap costs the stop's distance to the
    depot: `gap_a[i]` for the actual's i-th stop, `gap_b[j]` for the
    submission's j-th. `edits` counts the nonzero-cost steps of one optimal
    path, found by backtracking with matches preferred on ties.

    D[i][0] and D[0][j] are running sums of gap_a and gap_b from 0.0, and
    D[i][j] = min(D[i-1][j-1] + cost[i-1][j-1], D[i-1][j] + gap_a[i-1],
    D[i][j-1] + gap_b[j-1]). The cells of one anti-diagonal i + j = d
    depend only on the two diagonals before it; in the flattened table they
    lie m apart, so each diagonal is a few strided-slice numpy operations.
    """
    n, m = cost.shape
    width = m + 1
    D = np.empty((n + 1, width))
    D[:, 0] = np.cumsum(np.concatenate(([0.0], gap_a)))
    D[0, :] = np.cumsum(np.concatenate(([0.0], gap_b)))
    D[1:, 1:] = cost  # each cell holds its step cost until its diagonal is filled
    if n and m:
        flat = D.reshape(-1)
        gap_b_rev = gap_b[::-1]
        for d in range(2, n + m + 1):
            i0, i1 = max(1, d - m), min(n, d - 1)
            lo, hi = i0 * m + d, i1 * m + d + 1  # flat index of (i, d - i) is i*m + d
            best = flat[lo - width - 1:hi - width - 1:m] + flat[lo:hi:m]
            np.minimum(best, flat[lo - width:hi - width:m] + gap_a[i0 - 1:i1], out=best)
            np.minimum(
                best, flat[lo - 1:hi - 1:m] + gap_b_rev[m - d + i0:m - d + i1 + 1], out=best
            )
            flat[lo:hi:m] = best
    # Backtrack one optimal path, diagonal first.
    edits = 0
    i, j = n, m
    eps = 1e-12
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            step = cost[i - 1, j - 1]
            if abs(D[i, j] - (D[i - 1, j - 1] + step)) <= eps:
                if step > eps:
                    edits += 1
                i, j = i - 1, j - 1
                continue
        if i > 0 and abs(D[i, j] - (D[i - 1, j] + gap_a[i - 1])) <= eps:
            if gap_a[i - 1] > eps:
                edits += 1
            i -= 1
            continue
        if gap_b[j - 1] > eps:
            edits += 1
        j -= 1
    return float(D[n, m]), edits


def route_score(route: Route, submitted: StopSequence) -> dict:
    """The route's report entry {"sd", "erp_cost", "erp_edits", "score"}.

    The score is SD * ERP cost / ERP edits, and 0 when there are no edits.
    """
    if route.actual is None:
        raise ValidationError(f"route {route.route_id}: no actual sequence to score against")
    depot_id = route.depot.id
    if not submitted.ids or submitted.ids[0] != depot_id:
        raise ValidationError(
            f"route {route.route_id}: submission must start at the depot {depot_id!r}"
        )
    actual_ids = [sid for sid in route.actual.ids if sid != depot_id]
    submitted_ids = list(submitted.ids[1:])
    try:
        sd = sequence_deviation(actual_ids, submitted_ids)
    except ValidationError as exc:
        raise ValidationError(f"route {route.route_id}: {exc}") from None
    index, dist = route.stop_cost
    max_entry = dist.max()
    dist = dist / max_entry if max_entry > 0 else np.zeros_like(dist)
    rows = [index[sid] for sid in actual_ids]
    cols = [index[sid] for sid in submitted_ids]
    gaps = dist[:, index[depot_id]]
    cost, edits = erp(dist[np.ix_(rows, cols)], gaps[rows], gaps[cols])
    score = 0.0 if edits == 0 else sd * cost / edits
    return {"sd": sd, "erp_cost": cost, "erp_edits": edits, "score": score}


def dataset_score(dataset: Dataset, submissions: Dict[str, StopSequence]) -> dict:
    """The report `evaluate` writes: {"mean_score": m, "routes": {route_id: entry}}.

    Every route with an actual is scored, and m is the unweighted mean of
    their scores. An error names every route at fault: those the dataset or
    the submission lacks, before any is scored, then those that fail to score.
    """
    unknown = sorted(set(submissions) - set(dataset.routes))
    if unknown:
        raise ValidationError(f"submission has routes not in the dataset: {unknown}")
    scored = [rid for rid in sorted(dataset.routes) if dataset.routes[rid].actual is not None]
    missing = [rid for rid in scored if rid not in submissions]
    if missing:
        raise ValidationError(f"submission lacks routes of the dataset: {missing}")
    routes = check_each(scored, lambda rid: route_score(dataset.routes[rid], submissions[rid]))
    mean = sum(entry["score"] for entry in routes.values()) / len(routes) if routes else 0.0
    return {"mean_score": mean, "routes": routes}
