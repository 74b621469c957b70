import itertools
import random
import time
from pathlib import Path
from typing import List

import numpy as np
import pytest

from zoneseq import synth
from zoneseq.core import (
    DEPOT_STOP_ID,
    DEPOT_ZONE,
    Route,
    Stop,
    StopSequence,
    TravelTimeMatrix,
    ValidationError,
    haversine_m,
    representative_node,
)
from zoneseq.ppm import (
    DEFAULT_ORDER,
    DEFAULT_WEIGHTS,
    N_COMPONENTS,
    CompiledRoute,
    PpmModel,
    tokenize_zone,
)
from zoneseq.scorer import sequence_deviation
from zoneseq.tsp import ZoneTspInstance


def make_route(route_id="r1", stops=None, depot=(0.0, 0.0), actual=None,
               travel_times=None, quality=None):
    """Build a Route from (id, lat, lng, zone) tuples; depot id is 'depot'."""
    stop_map = {"depot": Stop("depot", depot[0], depot[1])}
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


def still_running(pids, within=2.0):
    """The processes of `pids` still running after waiting up to `within` s.

    A killed process that its new parent has not reaped yet (state Z)
    counts as gone.
    """
    def running(pid):
        try:
            stat_line = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat_line.rsplit(")", 1)[1].split()[0] != "Z"

    deadline = time.monotonic() + within
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if running(pid)]


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


def zone_templates(cfg):
    """The planted per-template zone visit orders of a synth config.

    Re-derives them from the seed exactly as `synth.generate` does, so
    tests can check generated routes against the planted patterns.
    """
    templates, _ = synth._make_templates(cfg, random.Random(cfg.seed))
    return templates


def oracle_component_prob(model, k, context, token):
    """Reference PPM-D walk: the escape chain rebuilt and re-summed per call."""
    ctx = tuple(context[-model.max_order:]) if model.max_order else ()
    tables = model.counts[k]
    acc = 1.0
    for start in range(len(ctx) + 1):
        table = tables.get(ctx[start:])
        if not table:
            continue
        t = sum(table.values())
        c = table.get(token, 0)
        if c > 0:
            return acc * (2 * c - 1) / (2 * t)
        acc *= len(table) / (2 * t)
    return acc / (len(model.vocab[k]) + 1)


def oracle_prob(model, context, candidate):
    """Reference blend of `oracle_component_prob`, in `PpmModel.prob`'s order."""
    ctx_comp = [tokenize_zone(z) for z in context[-model.max_order:]]
    cand_comp = tokenize_zone(candidate)
    p = 0.0
    for k, w in enumerate(model.weights):
        if w == 0.0:
            continue
        p += w * oracle_component_prob(model, k, [c[k] for c in ctx_comp], cand_comp[k])
    return p


# Reference training: one table update per (position, order, component), the
# loop that `zoneseq.ppm.train` replaces with one count per distinct window.


def oracle_train(corpus, max_order=DEFAULT_ORDER, weights=DEFAULT_WEIGHTS,
                 sentinel=DEPOT_ZONE):
    """Count-train the four component models position by position."""
    counts = [{} for _ in range(N_COMPONENTS)]
    vocab = [set() for _ in range(N_COMPONENTS)]
    for items in corpus:
        zones = ([sentinel] if sentinel else []) + list(items)
        streams = [tokenize_zone(z) for z in zones]
        start = 1 if sentinel else 0
        for k in range(N_COMPONENTS):
            stream = [comp[k] for comp in streams]
            if len(stream) > start:  # a stream with no target counts no token
                vocab[k].update(stream)
            tables = counts[k]
            for i in range(start, len(stream)):
                target = stream[i]
                for order in range(0, min(max_order, i) + 1):
                    ctx = tuple(stream[i - order:i])
                    table = tables.setdefault(ctx, {})
                    table[target] = table.get(target, 0) + 1
    model = PpmModel(max_order=max_order, weights=tuple(weights), counts=counts)
    model.vocab = vocab  # the reference: built from the streams, not from the counts
    return model


def oracle_seq_reward(model, zones, sentinel=DEPOT_ZONE):
    """Sum of `model.prob` over a sequence's sliding windows, after `sentinel` if any."""
    full = ([sentinel] if sentinel else []) + list(zones)
    start = 1 if sentinel else 0
    return sum(
        model.prob(full[max(0, i - model.max_order):i], full[i]) for i in range(start, len(full))
    )


def oracle_zone_runs(route, actual):
    """Reference zone runs as [zone, stop count] pairs: the run so far
    rebuilt for every stop."""
    runs = []
    for sid in actual.ids:
        if sid == DEPOT_STOP_ID:
            continue
        zone = route.stops[sid].zone_id
        if runs and runs[-1][0] == zone:
            runs[-1] = [zone, runs[-1][1] + 1]
        else:
            runs.append([zone, 1])
    return runs


def oracle_zsgt(route):
    """Reference ZSgt: per zone the run with the most stops (the earliest of
    equal runs), the kept runs in actual order."""
    runs = oracle_zone_runs(route, route.actual)
    kept = {}
    for position, (zone, stops) in enumerate(runs):
        if zone not in kept or stops > runs[kept[zone]][1]:
            kept[zone] = position
    return tuple(runs[p][0] for p in sorted(kept.values()))


def exhaustive_best_reward(model, zones):
    """Max sequence reward over all zone orders, by DFS over one compiled route.

    Each prefix reads its probability list once; the lists equal
    `model.prob` bit for bit, so each order sums what `oracle_seq_reward`
    does, in the same order.
    """
    route = CompiledRoute(model, zones)
    best = float("-inf")

    def dfs(seq, remaining, acc):
        nonlocal best
        if not remaining:
            best = max(best, acc)
            return
        probs = route.probs(seq)
        for i, z in enumerate(remaining):
            dfs(seq + [z], remaining[:i] + remaining[i + 1:], acc + probs[z])

    dfs([route.sentinel], list(range(len(route.zones))), 0.0)
    return best


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


# Reference local search: the per-(i, j) / per-segment loop form that
# `zoneseq.tsp` evaluates in one numpy expression per scan.

ORACLE_GAIN_EPS = 1e-9


def oracle_or_opt_pass(cost: np.ndarray, tour: List[int], budget: List[int]) -> bool:
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
            if gains[p] > ORACLE_GAIN_EPS:
                tour[:] = rest[: p + 1] + seg + rest[p + 1:]
                improved = True
                budget[0] -= 1
                i = 0
                continue
            i += 1
    return improved


def oracle_three_opt_pass(cost: np.ndarray, tour: List[int], budget: List[int]) -> bool:
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
                if gains[kk] > ORACLE_GAIN_EPS:
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


def oracle_improve(cost: np.ndarray, tour: List[int], budget: List[int]) -> List[int]:
    while budget[0] > 0:
        any_move = oracle_or_opt_pass(cost, tour, budget)
        any_move = oracle_three_opt_pass(cost, tour, budget) or any_move
        if not any_move:
            break
    return tour


# Reference scorer: the per-cell loop form of ERP and the per-pair
# normalization that `zoneseq.scorer` computes over one dense matrix.


def erp_arrays(actual, submitted, dist, gap_ref):
    """`scorer.erp`'s arrays for two stop sequences under a cost callable: the
    substitution costs, then each sequence's gap costs, charged by `dist` to
    `gap_ref` (the depot)."""
    cost = np.array([[dist(a, b) for b in submitted] for a in actual], dtype=np.float64)
    gap_a, gap_b = (
        np.array([dist(sid, gap_ref) for sid in ids], dtype=np.float64)
        for ids in (actual, submitted)
    )
    return cost.reshape(len(actual), len(submitted)), gap_a, gap_b


def oracle_erp(actual, submitted, dist, gap_ref):
    """Edit distance with real penalty between two stop sequences.

    `dist` must already be normalized (see oracle_normalized_dist). Gaps are
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


def oracle_normalized_dist(route):
    """Per-pair travel-time (or haversine) lookup divided by the maximum."""
    stops = route.stops
    if route.travel_times is not None:
        tt, index = route.travel_times, route.stop_cost[0]

        def lookup(a, b):
            return float(tt.t[index[a], index[b]])
    else:
        def lookup(a, b):
            sa, sb = stops[a], stops[b]
            return haversine_m((sa.lat, sa.lng), (sb.lat, sb.lng))

    ids = list(stops)
    max_entry = max(
        (lookup(a, b) for a in ids for b in ids if a != b), default=0.0
    )
    if max_entry <= 0:
        return lambda a, b: 0.0
    return lambda a, b: lookup(a, b) / max_entry


def oracle_route_score(route, submitted):
    """(sd, erp_cost, erp_edits, score) of a valid submission, loop form."""
    depot_id = route.depot.id
    actual_ids = [sid for sid in route.actual.ids if sid != depot_id]
    submitted_ids = list(submitted.ids[1:])
    sd = sequence_deviation(actual_ids, submitted_ids)
    cost, edits = oracle_erp(
        actual_ids, submitted_ids, oracle_normalized_dist(route), depot_id
    )
    return sd, cost, edits, 0.0 if edits == 0 else sd * cost / edits


# Reference instance builder: the per-zone rescan and per-pair cost loop
# that `zoneseq.tsp.build_instance` replaces with a slice of Route.geometry.


def oracle_build_instance(route, zone_order, k, prev_last_stop=None):
    """Assemble the augmented ATSP instance for zone index k of zone_order.

    Representative nodes are synthetic points without matrix entries, so
    every edge touching one is haversine; stop-to-stop edges use the
    route's travel times, or haversine when it has none.
    """
    zone = zone_order[k]
    zone_stops = sorted(
        (s for s in route.delivery_stops() if s.zone_id == zone), key=lambda s: s.id
    )
    if not zone_stops:
        raise ValidationError(f"route {route.route_id}: zone {zone} has no stops")

    depot = route.depot
    node_ids = [s.id for s in zone_stops]  # None for a representative node
    coords = [(s.lat, s.lng) for s in zone_stops]

    for later in zone_order[k + 1:]:
        later_stops = [s for s in route.delivery_stops() if s.zone_id == later]
        node_ids.append(None)
        coords.append(representative_node(later_stops))

    if k == 0 or prev_last_stop is None or prev_last_stop == depot.id:
        # First zone: the depot doubles as the preceding last stop.
        start_index = len(node_ids)
        node_ids.append(depot.id)
        coords.append((depot.lat, depot.lng))
    else:
        ls = route.stops[prev_last_stop]
        start_index = len(node_ids)
        node_ids.append(ls.id)
        coords.append((ls.lat, ls.lng))
        node_ids.append(depot.id)
        coords.append((depot.lat, depot.lng))

    n = len(node_ids)
    is_stop = [nid is not None for nid in node_ids]
    travel = None
    if route.travel_times is not None:
        # One slice of the travel times holds every stop-to-stop edge; the
        # rows and columns of representative nodes (index 0) are never read.
        index = route.stop_cost[0]
        at = [index[nid] if stop else 0 for nid, stop in zip(node_ids, is_stop)]
        travel = route.travel_times.t[np.ix_(at, at)].tolist()
    cost = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if travel is not None and is_stop[i] and is_stop[j]:
                cost[i][j] = travel[i][j]
            else:
                cost[i][j] = haversine_m(coords[i], coords[j])
    return ZoneTspInstance(
        stop_ids=tuple(s.id for s in zone_stops),
        cost=tuple(tuple(row) for row in cost),
        start_index=start_index,
    )
