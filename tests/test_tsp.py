import os
import random
import signal
import stat
import sys
from typing import List

import numpy as np
import pytest

from zoneseq import tsp
from zoneseq.core import Stop, ValidationError, representative_node
from zoneseq.tsp import (
    ZoneTspInstance,
    build_instance,
    nearest_neighbor_tour,
    order_zone_stops,
    parse_tsplib_tour,
    sequence_stops,
    solve_atsp,
    solve_atsp_external,
    tour_cost,
    write_tsplib_atsp,
)
from conftest import (
    brute_force_atsp,
    make_route,
    oracle_build_instance,
    oracle_improve,
    oracle_three_opt_pass,
    still_running,
)


def raw_instance(cost, start=0, stops=None):
    """An instance whose first `stops` nodes (default: all but the last) are stops n0, n1, ..."""
    stops = len(cost) - 1 if stops is None else stops
    return ZoneTspInstance(
        stop_ids=tuple(f"n{i}" for i in range(stops)),
        cost=tuple(tuple(float(v) for v in row) for row in cost),
        start_index=start,
    )


def random_cost(rng, n):
    return [[0.0 if i == j else rng.uniform(1, 100) for j in range(n)]
            for i in range(n)]


# -- representative node -----------------------------------------------------


def test_representative_single_stop():
    s = Stop("a", 3.0, 4.0, zone_id="Z")
    assert representative_node([s]) == (3.0, 4.0)


def test_representative_odd_median():
    stops = [Stop(f"s{i}", lat, 0.0, zone_id="Z") for i, lat in enumerate([1, 2, 9])]
    assert representative_node(stops)[0] == 2


def test_representative_even_mean_of_middles():
    stops = [Stop(f"s{i}", lat, 0.0, zone_id="Z") for i, lat in enumerate([1, 3])]
    assert representative_node(stops)[0] == 2


def test_representative_empty_errors():
    with pytest.raises(ValidationError):
        representative_node([])


# -- instance construction ---------------------------------------------------


def three_zone_route():
    stops = []
    for zi, zone in enumerate(["ZA", "ZB", "ZC"]):
        for si in range(4 if zone == "ZB" else 2):
            stops.append((f"{zone}_s{si}", 0.01 * zi + 0.001 * si, 0.01 * zi, zone))
    return make_route(stops=stops, depot=(0.0, -0.01))


def test_build_instance_last_zone_node_count():
    route = three_zone_route()
    order = ("ZA", "ZB", "ZC")
    inst = build_instance(route, order, 2, prev_last_stop="ZB_s0")
    # 2 zone stops + ls + depot, no downstream representatives
    assert inst.n == 4
    assert inst.stop_ids == ("ZC_s0", "ZC_s1")
    assert inst.start_index == 2


def test_build_instance_fig4_shape():
    # current zone has 4 stops, one prev-zone stop, two downstream
    # representatives, plus the depot: 8 nodes
    route = three_zone_route()
    order = ("ZB", "ZA", "ZC")
    inst = build_instance(route, order, 0, prev_last_stop=None)
    # first zone: depot doubles as ls -> 4 stops + 2 reps + depot = 7
    assert inst.n == 7
    stops = [(f"ZB_s{i}", 0.01 + 0.001 * i, 0.01, "ZB") for i in range(4)]
    stops += [("ZA_s0", 0.0, 0.0, "ZA"), ("ZC_s0", 0.02, 0.02, "ZC"),
              ("ZD_s0", 0.03, 0.03, "ZD")]
    route4 = make_route(stops=stops, depot=(0.0, -0.01))
    order2 = ("ZA", "ZB", "ZC", "ZD")
    inst2 = build_instance(route4, order2, 1, prev_last_stop="ZA_s0")
    # 4 zone stops, 2 representatives, then ls (the start) and the depot
    assert inst2.n == 8
    assert inst2.stop_ids == tuple(f"ZB_s{i}" for i in range(4))
    assert inst2.start_index == 6
    index, _ = route4.stop_cost
    assert inst2.cost[6, 0] == route4.geometry[index["ZA_s0"], index["ZB_s0"]]


def test_build_instance_first_zone_depot_once():
    route = three_zone_route()
    order = ("ZA", "ZB", "ZC")
    inst = build_instance(route, order, 0)
    # 2 zone stops, 2 representatives, then the depot alone as the start
    assert inst.n == 5
    assert inst.stop_ids == ("ZA_s0", "ZA_s1")
    assert inst.start_index == 4


@pytest.mark.parametrize("stops, start, message", [
    (1, 2, "start 2 is not one of 2 nodes"),
    (1, -1, "start -1 is not one of 2 nodes"),
    (0, 0, "0 zone stops for 2 nodes"),
    (3, 0, "3 zone stops for 2 nodes"),
], ids=["start-n", "start-minus-1", "no-stops", "more-stops-than-nodes"])
def test_instance_rejects_a_layout_outside_its_nodes(stops, start, message):
    with pytest.raises(ValidationError, match=message):
        raw_instance([[0, 1], [2, 0]], start=start, stops=stops)


@pytest.mark.parametrize("cost", [[[0, 1, 2], [3, 0, 4]], [0, 1], 7],
                         ids=["not-square", "1-d", "0-d"])
def test_instance_rejects_a_cost_that_is_not_square(cost):
    with pytest.raises(ValidationError, match="is not square"):
        ZoneTspInstance(stop_ids=("a",), cost=cost, start_index=0)


def fuzz_route(rng):
    """A route of 1-12 zones with 1-6 stops each, with or without travel times.

    Coordinates are global (lat within 89, lng within 179) or clustered,
    and some of them repeat; returns the route and a random zone order.
    """
    spread = rng.choice([0.01, 1.0, 180.0])
    points = []

    def point():
        if points and rng.random() < 0.2:
            return rng.choice(points)
        lat = max(-89.0, min(89.0, rng.uniform(-spread, spread) / 2))
        points.append((lat, max(-179.0, min(179.0, rng.uniform(-spread, spread)))))
        return points[-1]

    zones = [f"Z{i}.{rng.randint(0, 9)}" for i in range(rng.randint(1, 12))]
    stops = [(f"s{rng.randrange(10**6):06d}-{z}-{si}", *point(), z)
             for z in zones for si in range(rng.randint(1, 6))]
    travel_times = None
    if rng.random() < 0.5:
        ids = [s[0] for s in stops] + ["depot"]
        travel_times = {a: {b: 0 if a == b else rng.choice([rng.randint(0, 9),
                                                            rng.uniform(0, 1e4)])
                            for b in ids} for a in ids}
    route = make_route(stops=stops, depot=point(), travel_times=travel_times)
    rng.shuffle(zones)
    return route, tuple(zones)


def test_build_instance_matches_oracle_fuzz():
    rng = random.Random(9)
    for case in range(300):
        route, order = fuzz_route(rng)
        for k, zone in enumerate(order):
            prev_last = None
            if k > 0 and rng.random() < 0.8:
                prev_last = rng.choice(route.zone_stops[order[k - 1]])
            elif rng.random() < 0.5:
                prev_last = "depot"
            got = build_instance(route, order, k, prev_last)
            want = oracle_build_instance(route, order, k, prev_last)
            assert got.stop_ids == want.stop_ids, (case, k)
            assert got.start_index == want.start_index
            assert got.cost.tobytes() == want.cost.tobytes(), (case, k)
            assert not got.cost.flags.writeable


# -- solver ------------------------------------------------------------------


def test_solve_two_nodes():
    inst = raw_instance([[0, 5], [3, 0]])
    tour = solve_atsp(inst)
    assert sorted(tour) == [0, 1]


def test_solve_three_nodes_picks_cheaper_direction():
    # directed triangle: 0->1->2->0 costs 6, 0->2->1->0 costs 30
    cost = [[0, 1, 10], [10, 0, 2], [3, 10, 0]]
    inst = raw_instance(cost)
    tour = solve_atsp(inst)
    assert tour_cost(cost, tour) == 6


def test_solver_within_5pct_of_brute_force():
    rng = random.Random(0)
    hits, trials = 0, 60
    for _ in range(trials):
        n = rng.randint(4, 8)
        cost = random_cost(rng, n)
        inst = raw_instance(cost)
        got = tour_cost(cost, solve_atsp(inst))
        best = brute_force_atsp(cost)
        assert got >= best - 1e-9
        if got <= best * 1.05:
            hits += 1
    assert hits >= 0.95 * trials


def test_solver_never_worse_than_nearest_neighbor():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(3, 15)
        cost = random_cost(rng, n)
        inst = raw_instance(cost)
        nn = tour_cost(cost, nearest_neighbor_tour(cost, 0))
        assert tour_cost(cost, solve_atsp(inst)) <= nn + 1e-9


def fuzz_cost(rng, n, case):
    """Cost matrices in four families, by case mod 4: scaled floats;
    small-range integers, so many gains tie; integers times 1e-9, so gains
    land on the epsilon; small integers with some infinite (forbidden) arcs,
    so some gains are inf - inf."""
    family = case % 4
    if family == 0:
        scale = rng.choice([1e-3, 1.0, 1e4])
        return np.array([[0.0 if i == j else rng.uniform(1, 100) * scale
                          for j in range(n)] for i in range(n)])
    hi = rng.choice([1, 2, 5])
    cost = np.array([[0 if i == j else rng.randint(0, hi) for j in range(n)]
                     for i in range(n)], dtype=float)
    if family == 2:
        cost *= 1e-9
    elif family == 3:
        cost[np.array([[rng.random() < 0.1 for _ in range(n)] for _ in range(n)])] = np.inf
        np.fill_diagonal(cost, 0.0)
    return cost


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_local_search_matches_loop_oracle_fuzz(monkeypatch):
    # Every start node up to the multi-start size, one random start above
    # it; a quarter of the instances split the 3-opt scan into small blocks,
    # and every other one builds its Or-opt grids instead of reusing them.
    rng = random.Random(4)
    for case in range(1000):
        n = rng.randint(2, 40)
        cost = fuzz_cost(rng, n, case)
        budget = rng.choice([*range(1, 11), 50 * n])
        block = rng.choice([1, 7, 100]) if rng.random() < 0.25 else 1 << 18
        monkeypatch.setattr(tsp, "_BLOCK_ELEMENTS", block)
        monkeypatch.setattr(tsp, "_GRID_CACHE_NODES", 64 if case % 2 else 0)
        starts = range(n) if n <= 12 else [rng.randrange(n)]
        for start in starts:
            tour = nearest_neighbor_tour(cost, start)
            want_budget, got_budget = [budget], [budget]
            want = oracle_improve(cost, list(tour), want_budget)
            got = list(tour)
            tsp._improve(cost, got, got_budget)
            assert (got, got_budget) == (want, want_budget), (case, n, start, budget)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("block", [1, 7, 100, tsp._BLOCK_ELEMENTS])
def test_three_opt_scan_takes_the_oracle_move_fuzz(monkeypatch, block):
    # One scan against one move of the loop oracle, on random tours and on
    # tours the oracle search has made locally optimal, where neither moves.
    monkeypatch.setattr(tsp, "_BLOCK_ELEMENTS", block)
    rng = random.Random(13)
    moved_flags = set()
    for case in range(300):
        n = rng.randint(3, 20)
        cost = fuzz_cost(rng, n, case)
        tour = rng.sample(range(n), n)
        if case // 4 % 2:  # half the cases of each cost family
            oracle_improve(cost, tour, [50 * n])
        want, got = list(tour), list(tour)
        moved = oracle_three_opt_pass(cost, want, [1])
        below = np.tri(n - 2, n - 2, -1, dtype=bool)
        assert (tsp._three_opt_scan(below, cost, got), got) == (moved, want), (case, tour)
        moved_flags.add(moved)
    assert moved_flags == {True, False}


def oracle_solve_counts(cost, start_index):
    """(moves, starts) of solve_atsp's multi-start loop run on oracle_improve."""
    n = len(cost)
    budget = [50 * n]
    starts = [start_index] + ([i for i in range(n) if i != start_index] if n <= 12 else [])
    for runs, start in enumerate(starts, 1):
        oracle_improve(cost, nearest_neighbor_tour(cost, start), budget)
        if budget[0] <= 0:
            break
    return 50 * n - budget[0], runs


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_solve_atsp_stats_match_oracle_counts():
    rng = random.Random(6)
    for case, n in enumerate([2, 3, 5, 8, 12, 13, 20, 31, 40]):
        cost = fuzz_cost(rng, n, case)
        start = rng.randrange(n)
        stats = {}
        solve_atsp(raw_instance(cost.tolist(), start=start), stats=stats)
        moves, starts = oracle_solve_counts(cost, start)
        scans = stats.pop("scans")
        assert stats == {"moves": moves, "starts": starts, "budget_exhausted": False}
        # A scan finds each move, and each start ends once every pass (Or-opt
        # of each segment length below n - 1, and 3-opt) has failed a scan.
        passes = min(3, max(0, n - 2)) + (n >= 3)
        assert scans >= moves + passes * starts


def test_solve_atsp_stats_flag_exhausted_budget(monkeypatch):
    def spend_whole_budget(cost, tour, budget):
        budget[0] = 0
        return 0

    monkeypatch.setattr(tsp, "_improve", spend_whole_budget)
    stats = {}
    solve_atsp(raw_instance(random_cost(random.Random(7), 4)), stats=stats)
    assert stats == {"moves": 200, "starts": 1, "scans": 0, "budget_exhausted": True}


# -- tour post-processing ----------------------------------------------------


def test_order_zone_stops_filters_and_rotates():
    # 2 stops, a representative, the last stop (the start) and the depot
    inst = raw_instance([[0] * 5] * 5, start=3, stops=2)
    assert order_zone_stops(inst, [3, 1, 4, 2, 0]) == ["n1", "n0"]
    # rotation: same cyclic tour starting elsewhere gives the same answer
    assert order_zone_stops(inst, [2, 0, 3, 1, 4]) == ["n1", "n0"]


def test_order_zone_stops_single_stop():
    inst = raw_instance([[0, 1], [1, 0]], start=1)
    assert order_zone_stops(inst, [0, 1]) == ["n0"]


def test_order_zone_stops_rejects_bad_tour():
    inst = raw_instance([[0, 1], [1, 0]])
    with pytest.raises(ValidationError):
        order_zone_stops(inst, [0, 0])


def test_sequence_stops_one_zone_one_stop():
    route = make_route(stops=[("a", 0.01, 0.01, "Z")])
    seq = sequence_stops(route, ("Z",))
    assert seq.ids == ("depot", "a")


def test_sequence_stops_concatenates_zone_orders():
    route = three_zone_route()
    order = ("ZA", "ZB", "ZC")
    seq = sequence_stops(route, order)
    assert seq.ids[0] == "depot"
    zones_in_order = [route.stops[sid].zone_id for sid in seq.ids[1:]]
    # zone blocks appear contiguously in the requested order
    assert zones_in_order == (["ZA"] * 2 + ["ZB"] * 4 + ["ZC"] * 2)


def test_sequence_stops_permutation_fuzz():
    rng = random.Random(2)
    for _ in range(20):
        stops = []
        zones = [f"Z{i}" for i in range(rng.randint(1, 5))]
        for zi, z in enumerate(zones):
            for si in range(rng.randint(1, 4)):
                stops.append((f"{z}_s{si}",
                              rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), z))
        route = make_route(stops=stops)
        order = tuple(sorted(zones, key=lambda _: rng.random()))
        seq = sequence_stops(route, order)
        assert sorted(seq.ids) == sorted(route.stops)
        assert seq.ids[0] == "depot"


def test_sequence_stops_missing_zone_errors():
    route = three_zone_route()
    with pytest.raises(ValidationError, match=r"route r1: zone order missing zones \['ZC'\]"):
        sequence_stops(route, ("ZA", "ZB"))
    with pytest.raises(ValidationError,
                       match=r"route r1: zone order has zones not in the route \['ZD'\]"):
        sequence_stops(route, ("ZA", "ZB", "ZC", "ZD"))
    with pytest.raises(ValidationError, match=r"route r1: zone order repeats a zone"):
        sequence_stops(route, ("ZA", "ZB", "ZC", "ZA"))


# -- TSPLIB adapter ----------------------------------------------------------


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


def test_tsplib_two_node_file():
    inst = raw_instance([[0, 1.5], [2.5, 0]])
    data = write_tsplib_atsp(inst)
    lines = data.decode().strip().split("\n")
    assert len(lines) == 9
    assert "TYPE: ATSP" in lines
    assert "DIMENSION: 2" in lines
    assert lines[-1] == "EOF"


def test_tsplib_round_half_even():
    inst = raw_instance([[0, 1.2345], [0.0005, 0]])
    matrix = parse_tsplib_atsp(write_tsplib_atsp(inst))
    assert matrix[0][1] == 1234  # 1234.5 rounds half-even to 1234
    assert matrix[1][0] == 0  # 0.5 rounds half-even to 0


def test_tsplib_roundtrip():
    rng = random.Random(3)
    cost = random_cost(rng, 5)
    inst = raw_instance(cost)
    matrix = parse_tsplib_atsp(write_tsplib_atsp(inst))
    assert matrix == [[round(v * 1000) for v in row] for row in cost]


def test_parse_tour_file():
    data = b"NAME: t\nTYPE: TOUR\nDIMENSION: 3\nTOUR_SECTION\n2\n3\n1\n-1\nEOF\n"
    assert parse_tsplib_tour(data, 3) == [1, 2, 0]
    with pytest.raises(ValidationError, match="non-integer node 'x2'"):
        parse_tsplib_tour(b"TOUR_SECTION\n1\nx2\n-1\n", 2)
    with pytest.raises(ValidationError, match="not ASCII"):
        parse_tsplib_tour(b"TOUR_SECTION\n1\n\xff2\n-1\n", 2)


def test_external_solver_adapter(tmp_path):
    # stub solver: reads the parameter file, emits a trivial tour
    stub = tmp_path / "fake_lkh.py"
    stub.write_text(
        "#!" + sys.executable + "\n"
        "import sys\n"
        "params = dict(line.split(' = ') for line in "
        "open(sys.argv[1]).read().strip().splitlines())\n"
        "dim = 0\n"
        "for line in open(params['PROBLEM_FILE']):\n"
        "    if line.startswith('DIMENSION'):\n"
        "        dim = int(line.split(':')[1])\n"
        "with open(params['TOUR_FILE'], 'w') as f:\n"
        "    f.write('TOUR_SECTION\\n')\n"
        "    for i in range(dim, 0, -1):\n"
        "        f.write(f'{i}\\n')\n"
        "    f.write('-1\\n')\n"
    )
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    inst = raw_instance([[0, 1, 2], [3, 0, 4], [5, 6, 0]], start=2)
    tour = solve_atsp_external(inst, str(stub))
    assert tour == [2, 1, 0]
    # identical post-processing path as the built-in solver
    assert order_zone_stops(inst, tour) == ["n1", "n0"]


def test_external_solver_interrupted_is_killed_with_what_it_started(tmp_path):
    # The solver runs in a session of its own, which a terminal's ^C does not
    # reach, so an exception during the wait must kill its process group.
    children = tmp_path / "children"
    wrapper = tmp_path / "slow_wrapper.sh"
    wrapper.write_text(f"#!/bin/sh\nsleep 30 & echo $! >> {children}; wait\n")
    wrapper.chmod(0o755)

    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(Interrupted):
            solve_atsp_external(raw_instance([[0, 1], [2, 0]]), str(wrapper))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    started = [int(pid) for pid in children.read_text().split()]
    assert len(started) == 1 and still_running(started) == []
