"""Zone sequencing by one-step lookahead over a greedy PPM baseline policy.

Each lookahead candidate is scored by its immediate conditional probability
plus the reward-to-go of the greedy completion that follows it. All sliding
windows cross the prefix/completion boundary, so the objective stays
additive over one whole sequence and the classic rollout improvement
guarantee applies. Ties break lexicographically on zone id everywhere,
which makes runs reproducible.

The search runs on zone indices of a route compiled once by
``PpmModel.compile_route``: zones are numbered in id order, so the first
maximum of a probability list over a sorted index list is also the
lexicographically smallest zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .core import ValidationError, ZoneSequence
from .ppm import CompiledRoute, PpmModel


@dataclass(frozen=True)
class RolloutState:
    """Partial zone sequence (prefix) plus the set of unvisited zones."""

    prefix: Tuple[str, ...]
    remaining: FrozenSet[str]

    def __post_init__(self):
        if set(self.prefix) & self.remaining:
            raise ValidationError("prefix and remaining overlap")


def _greedy(
    route: CompiledRoute, seq: List[int], remaining: List[int], total: float = 0.0
) -> Tuple[List[int], float]:
    """Greedy completion of index sequence `seq` over sorted `remaining`.

    Returns the appended indices and `total` plus their sliding-window
    probabilities, added in sequence order.
    """
    seq, remaining = list(seq), list(remaining)
    out: List[int] = []
    while remaining:
        vec = route.probs(seq)
        best = max(remaining, key=vec.__getitem__)
        total += vec[best]
        out.append(best)
        seq.append(best)
        remaining.remove(best)
    return out, total


def _lookahead(route: CompiledRoute, seq: List[int], remaining: List[int]) -> int:
    """Index in sorted `remaining` maximising immediate reward + greedy reward-to-go."""
    vec = route.probs(seq)
    best_zone, best_score = None, None
    for zone in remaining:
        rest = [z for z in remaining if z != zone]
        _, score = _greedy(route, seq + [zone], rest, vec[zone])
        if best_score is None or score > best_score:
            best_zone, best_score = zone, score
    return best_zone


def greedy_completion(model: PpmModel, state: RolloutState) -> List[str]:
    """Greedy baseline policy: repeatedly take the most probable next zone.

    Returns only the appended zones, not the prefix.
    """
    route = model.compile_route(state.prefix + tuple(state.remaining))
    index = {z: i for i, z in enumerate(route.zones)}
    seq = [route.sentinel] + [index[z] for z in state.prefix]
    out, _ = _greedy(route, seq, sorted(index[z] for z in state.remaining))
    return [route.zones[i] for i in out]


def rollout_sequence(
    model: PpmModel,
    route_id: str,
    zones: Sequence[str],
    stats: Optional[dict] = None,
) -> ZoneSequence:
    """Sequence a full zone set by repeated one-step lookahead.

    Pure function of (model, zones). The optional `stats` dict receives
    "prob_calls", the number of probability-list reads (one per context a
    greedy or lookahead step looks up), and "contexts", the number of
    distinct contexts whose list was computed, which is the PPM work done.
    """
    if not zones:
        raise ValidationError(f"route {route_id}: empty zone set")
    route = model.compile_route(zones)
    seq = [route.sentinel]
    remaining = list(range(len(route.zones)))
    while remaining:
        zone = _lookahead(route, seq, remaining)
        seq.append(zone)
        remaining.remove(zone)
    if stats is not None:
        stats["prob_calls"] = route.reads
        stats["contexts"] = route.contexts
    return ZoneSequence(route_id=route_id, zones=tuple(route.zones[i] for i in seq[1:]))
