import itertools
import random

import pytest

from zoneseq.core import Route, Stop, StopKind, StopSequence, TravelTimeMatrix


def make_route(route_id="r1", stops=None, depot=(0.0, 0.0), actual=None,
               travel_times=None, quality=None):
    """Build a Route from (id, lat, lng, zone) tuples; depot id is 'depot'."""
    stop_map = {"depot": Stop("depot", depot[0], depot[1], kind=StopKind.DEPOT)}
    for sid, lat, lng, zone in stops or []:
        stop_map[sid] = Stop(sid, lat, lng, zone_id=zone)
    seq = None
    if actual is not None:
        seq = StopSequence(route_id=route_id, ids=tuple(actual))
    matrix = None
    if travel_times is not None:
        ids = tuple(sorted(stop_map))
        matrix = TravelTimeMatrix(
            ids=ids,
            t=tuple(tuple(float(travel_times[a][b]) for b in ids) for a in ids),
        )
    return Route(route_id=route_id, stops=stop_map, travel_times=matrix,
                 actual=seq, quality=quality)


def random_corpus(rng: random.Random, n_seqs=6, max_len=8, vocab=None):
    """Random zone-id sequences (with possible repeats) for model fuzzing."""
    vocab = vocab or [
        f"{letter}-{i}.{i}{suffix}"
        for letter in "ABC" for i in range(3) for suffix in "XY"
    ]
    corpus = []
    for _ in range(n_seqs):
        length = rng.randint(1, max_len)
        corpus.append([rng.choice(vocab) for _ in range(length)])
    return corpus


def patterned_instance(rng: random.Random, n_zones: int, strength=None):
    """A (corpus, zone set) pair with a planted order followed with
    probability `strength` per adjacent pair (random strength if None)."""
    if strength is None:
        strength = rng.random()
    zones = [
        f"{letter}-{rng.randint(0, 9)}.{rng.randint(0, 9)}{rng.choice('XYZ')}"
        for letter in "ABCDEFGHIJKLMNO"[:n_zones]
    ]
    template = zones[:]
    rng.shuffle(template)
    corpus = []
    for _ in range(rng.randint(3, 10)):
        seq = template[:]
        for i in range(len(seq) - 1):
            if rng.random() > strength:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
        corpus.append(seq)
    return corpus, sorted(zones)


def exhaustive_best_reward(model, zones, sentinel="stz"):
    """Max seq_reward over all zone orders, via DFS with shared prob cache."""
    cache = {}
    K = model.max_order
    best = [float("-inf")]

    def dfs(prefix, remaining, acc):
        if not remaining:
            if acc > best[0]:
                best[0] = acc
            return
        ctx = ([sentinel] + prefix)[-K:]
        for z in remaining:
            dfs(prefix + [z], remaining - {z},
                acc + model.prob(ctx, z, cache=cache))

    dfs([], frozenset(zones), 0.0)
    return best[0]


def oracle_greedy_completion(model, prefix, remaining, sentinel="stz", cache=None):
    """Reference greedy base policy built only on `model.prob`."""
    cache = {} if cache is None else cache
    seq = [sentinel] + list(prefix)
    remaining = set(remaining)
    out = []
    K = model.max_order
    while remaining:
        ctx = seq[-K:]
        best = min(remaining, key=lambda z: (-model.prob(ctx, z, cache=cache), z))
        out.append(best)
        seq.append(best)
        remaining.remove(best)
    return out


def oracle_next_zone(model, prefix, remaining, sentinel="stz", cache=None):
    """Reference one-step lookahead built only on `model.prob`."""
    cache = {} if cache is None else cache
    K = model.max_order
    best_zone, best_score = None, None
    for zone in sorted(remaining):
        completion = oracle_greedy_completion(
            model, list(prefix) + [zone], set(remaining) - {zone}, sentinel, cache)
        seq = [sentinel] + list(prefix)
        score = 0.0
        for z in [zone] + completion:
            score += model.prob(seq[-K:], z, cache=cache)
            seq.append(z)
        if best_score is None or score > best_score:
            best_zone, best_score = zone, score
    return best_zone


def oracle_rollout_sequence(model, zones, sentinel="stz"):
    """Reference rollout zone order (a tuple) built only on `model.prob`."""
    cache = {}
    prefix, remaining = [], set(zones)
    while remaining:
        zone = oracle_next_zone(model, prefix, remaining, sentinel, cache)
        prefix.append(zone)
        remaining.remove(zone)
    return tuple(prefix)


def brute_force_atsp(cost, start=0):
    """Optimal closed-tour cost by enumerating all (n-1)! tours."""
    n = len(cost)
    others = [i for i in range(n) if i != start]
    best = float("inf")
    for perm in itertools.permutations(others):
        tour = (start,) + perm
        c = sum(cost[tour[i]][tour[(i + 1) % n]] for i in range(n))
        if c < best:
            best = c
    return best
