"""Zone sequencing by one-step lookahead over a greedy PPM baseline policy.

Each lookahead candidate is scored by its immediate conditional probability
plus the reward-to-go of the greedy completion that follows it. All sliding
windows cross the prefix/completion boundary, so the objective stays
additive over one whole sequence and the classic rollout improvement
guarantee applies. Ties break lexicographically on zone id everywhere,
which makes runs reproducible.

The search runs on zone indices of a route compiled once into a
``CompiledRoute``: zones are numbered in id order, so the first
maximum of a probability list over a sorted index list is also the
lexicographically smallest zone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .core import ValidationError
from .ppm import CompiledRoute, PpmModel


def _greedy(route: CompiledRoute, seq: List[int], remaining: List[int], total: float) -> float:
    """`total` plus the reward of the greedy completion of index sequence `seq`.

    The completion repeatedly appends the most probable zone of sorted
    `remaining`; its sliding-window probabilities are added in sequence order.
    """
    seq, remaining = list(seq), list(remaining)
    while remaining:
        vec = route.probs(seq)
        best = max(remaining, key=vec.__getitem__)
        total += vec[best]
        seq.append(best)
        remaining.remove(best)
    return total


def _lookahead(route: CompiledRoute, seq: List[int], remaining: List[int]) -> int:
    """Index in sorted `remaining` maximising immediate reward + greedy reward-to-go."""
    vec = route.probs(seq)
    best_zone, best_score = None, None
    for zone in remaining:
        rest = [z for z in remaining if z != zone]
        score = _greedy(route, seq + [zone], rest, vec[zone])
        if best_score is None or score > best_score:
            best_zone, best_score = zone, score
    return best_zone


def rollout_sequence(
    model: PpmModel,
    route_id: str,
    zones: Sequence[str],
    stats: Optional[dict] = None,
) -> Tuple[str, ...]:
    """Sequence a full zone set by repeated one-step lookahead.

    Pure function of (model, zones). The optional `stats` dict receives
    "prob_calls", the number of probability-list reads (one per context a
    greedy or lookahead step looks up), and "contexts", the number of
    distinct contexts whose list was computed, which is the PPM work done.
    """
    if not zones:
        raise ValidationError(f"route {route_id}: empty zone set")
    route = CompiledRoute(model, zones)
    seq = [route.sentinel]
    remaining = list(range(len(route.zones)))
    while remaining:
        zone = _lookahead(route, seq, remaining)
        seq.append(zone)
        remaining.remove(zone)
    if stats is not None:
        stats["prob_calls"] = route.reads
        stats["contexts"] = route.contexts
    return tuple(route.zones[i] for i in seq[1:])
