import random

import pytest

from zoneseq import scorer
from zoneseq.core import StopSequence, ValidationError
from zoneseq.ingest import Dataset
from zoneseq.scorer import (
    dataset_score,
    erp,
    route_score,
    sequence_deviation,
)
from conftest import (
    erp_arrays,
    make_route,
    oracle_erp,
    oracle_normalized_dist,
    oracle_route_score,
)


# -- sequence deviation ------------------------------------------------------


def test_sd_identity_is_zero():
    assert sequence_deviation(["a", "b", "c"], ["a", "b", "c"]) == 0.0


def test_sd_three_stop_swap():
    assert sequence_deviation(["a", "b", "c"], ["a", "c", "b"]) == pytest.approx(1 / 3)


def test_sd_four_stop_double_swap():
    assert sequence_deviation(["a", "b", "c", "d"],
                              ["b", "a", "d", "c"]) == pytest.approx(1 / 3)


def test_sd_of_zero_or_one_stop_is_zero():
    assert sequence_deviation([], []) == 0.0
    assert sequence_deviation(["a"], ["a"]) == 0.0
    with pytest.raises(ValidationError):
        sequence_deviation(["a"], ["b"])


def test_sd_rejects_unequal_sets():
    with pytest.raises(ValidationError):
        sequence_deviation(["a", "b"], ["a", "c"])


def test_sd_bounded_below_two():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 30)
        ids = [f"s{i}" for i in range(n)]
        sub = ids[:]
        rng.shuffle(sub)
        sd = sequence_deviation(ids, sub)
        assert 0.0 <= sd < 2.0


def test_sd_invariant_under_relabeling():
    rng = random.Random(1)
    ids = [f"s{i}" for i in range(8)]
    sub = ids[:]
    rng.shuffle(sub)
    base = sequence_deviation(ids, sub)
    mapping = {sid: f"x{i}" for i, sid in enumerate(ids)}
    assert sequence_deviation([mapping[s] for s in ids],
                              [mapping[s] for s in sub]) == base


# -- ERP ---------------------------------------------------------------------


HAND_MATRIX = {
    # depot d, stops a and b; asymmetric on purpose
    "d": {"d": 0.0, "a": 4.0, "b": 8.0},
    "a": {"d": 4.0, "a": 0.0, "b": 10.0},
    "b": {"d": 6.0, "a": 2.0, "b": 0.0},
}


def hand_dist(x, y):
    return HAND_MATRIX[x][y] / 10.0  # max entry is 10


def test_erp_identity():
    cost, edits = erp(*erp_arrays(["a", "b"], ["a", "b"], hand_dist, "d"))
    assert cost == 0.0 and edits == 0


def test_erp_hand_filled_dp_table():
    # actual [a,b] vs submitted [b,a]. Normalized: d(a,b)=1.0, d(b,a)=0.2,
    # gap(a)=0.4, gap(b)=0.6. Hand-filled 3x3 table (rows i over actual,
    # cols j over submitted):
    #        j=0    b      a
    #  i=0   0.0   0.6    1.0
    #  a     0.4   1.0    0.6
    #  b     1.0   0.4    0.8
    # D[1][1] = min(0+1.0, 0.6+0.4, 0.4+0.6)           = 1.0
    # D[1][2] = min(0.6+d(a,a)=0.6, 1.0+0.4, 1.0+0.4)  = 0.6
    # D[2][1] = min(0.4+d(b,b)=0.4, 1.0+0.6, 1.0+0.6)  = 0.4
    # D[2][2] = min(1.0+0.2, 0.6+0.6, 0.4+0.4)         = 0.8
    cost, edits = erp(*erp_arrays(["a", "b"], ["b", "a"], hand_dist, "d"))
    assert cost == pytest.approx(0.8)
    # optimal path: gap(a) 0.4 -> match(b,b) 0.0 -> gap(a) 0.4: two costed ops
    assert edits == 2


def test_erp_asymmetric_matrix_no_crash():
    cost_ab, _ = erp(*erp_arrays(["a", "b"], ["b", "a"], hand_dist, "d"))
    cost_ba, _ = erp(*erp_arrays(["b", "a"], ["a", "b"], hand_dist, "d"))
    assert cost_ab >= 0 and cost_ba >= 0


def test_erp_matches_recursive_oracle():
    # independent oracle: plain recursion over the three edit operations
    def oracle(A, B):
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def rec(i, j):
            if i == 0 and j == 0:
                return 0.0
            best = float("inf")
            if i > 0 and j > 0:
                best = rec(i - 1, j - 1) + hand_dist(A[i - 1], B[j - 1])
            if i > 0:
                best = min(best, rec(i - 1, j) + hand_dist(A[i - 1], "d"))
            if j > 0:
                best = min(best, rec(i, j - 1) + hand_dist(B[j - 1], "d"))
            return best

        return rec(len(A), len(B))

    for A, B in [(("a", "b"), ("b", "a")), (("a", "b"), ("a", "b")),
                 (("b", "a"), ("a", "b"))]:
        cost, _ = erp(*erp_arrays(list(A), list(B), hand_dist, "d"))
        assert cost == pytest.approx(oracle(A, B))


def test_erp_matches_loop_oracle_fuzz():
    rng = random.Random(20240)
    draws = [
        lambda: float(rng.randint(0, 3)),  # small integers: sums tie in the backtrack
        lambda: rng.randint(0, 4) * 5e-13,  # differences straddle the 1e-12 epsilon
        rng.random,  # sums that depend on the order of addition
        lambda: 0.0,  # all-zero matrix
    ]
    unequal = 0
    for case in range(1000):
        draw, zero_gaps = draws[case % 4], case % 3 == 0
        n, m = rng.randint(0, 40), rng.randint(0, 40)
        unequal += n != m
        ids = ["g"] + [f"s{k}" for k in range(rng.randint(max(n, m, 1), 45))]
        costs = {a: {b: 0.0 if zero_gaps and b == "g" else draw() for b in ids}
                 for a in ids}
        actual = rng.sample(ids[1:], n)
        submitted = rng.sample(ids[1:], m)
        dist = lambda a, b: costs[a][b]
        assert erp(*erp_arrays(actual, submitted, dist, "g")) == oracle_erp(
            actual, submitted, dist, "g"
        ), (case, n, m)
    assert unequal >= 900


def test_route_score_matches_loop_oracle():
    rng = random.Random(7)
    for case in range(200):
        n = rng.randint(0, 25)
        stops = [(f"s{k}", rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), "Z")
                 for k in range(n)]
        ids = ["depot"] + [s[0] for s in stops]
        travel = None
        if case % 2:
            travel = {a: {b: 0 if a == b else rng.randint(1, 6) for b in ids}
                      for a in ids}
        route = make_route(stops=stops, actual=ids, travel_times=travel)
        order = ids[1:]
        rng.shuffle(order)
        submitted = StopSequence("r1", tuple(["depot"] + order))
        rs = route_score(route, submitted)
        assert (rs["sd"], rs["erp_cost"], rs["erp_edits"], rs["score"]) == oracle_route_score(
            route, submitted
        ), case


# -- route and dataset scores ------------------------------------------------


def scored_route(route_id="r1"):
    tt = {a: {b: HAND_MATRIX[a][b] for b in "dab"} for a in "dab"}
    tt = {("depot" if a == "d" else a): {("depot" if b == "d" else b): v
                                         for b, v in row.items()}
          for a, row in tt.items()}
    return make_route(route_id=route_id,
                      stops=[("a", 0.0, 0.1, "Z"), ("b", 0.0, 0.2, "Z")],
                      actual=["depot", "a", "b"], travel_times=tt)


def test_route_score_identity_zero():
    route = scored_route()
    rs = route_score(route, route.actual)
    assert rs["score"] == 0.0 and rs["sd"] == 0.0 and rs["erp_edits"] == 0


def test_route_score_composes_components():
    route = scored_route()
    submitted = StopSequence("r1", ("depot", "b", "a"))
    rs = route_score(route, submitted)
    sd = sequence_deviation(["a", "b"], ["b", "a"])
    dist = oracle_normalized_dist(route)
    cost, edits = erp(*erp_arrays(["a", "b"], ["b", "a"], dist, "depot"))
    assert rs["score"] == pytest.approx(sd * cost / edits)


def test_route_score_haversine_fallback():
    route = make_route(stops=[("a", 0.0, 0.1, "Z"), ("b", 0.0, 0.2, "Z"),
                              ("c", 0.0, 0.3, "Z")],
                       actual=["depot", "a", "b", "c"])
    rs = route_score(route, StopSequence("r1", ("depot", "a", "c", "b")))
    assert rs["score"] > 0.0
    assert "geometry" not in route.__dict__  # scoring needs no median rows


def test_one_swap_beats_random_shuffle_mostly():
    rng = random.Random(2)
    wins, trials = 0, 100
    for _ in range(trials):
        n = rng.randint(6, 14)
        stops = [(f"s{i}", rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), "Z")
                 for i in range(n)]
        ids = [s[0] for s in stops]
        route = make_route(stops=stops, actual=["depot"] + ids)
        swap = ids[:]
        i = rng.randrange(n - 1)
        swap[i], swap[i + 1] = swap[i + 1], swap[i]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        s_swap = route_score(route, StopSequence("r1", tuple(["depot"] + swap)))
        s_rand = route_score(route, StopSequence("r1", tuple(["depot"] + shuffled)))
        if s_swap["score"] <= s_rand["score"]:
            wins += 1
    assert wins >= 0.95 * trials


def test_dataset_score_identity_and_mean():
    r1, r2 = scored_route("r1"), scored_route("r2")
    ds = Dataset(routes={"r1": r1, "r2": r2})
    report = dataset_score(ds, {"r1": r1.actual, "r2": r2.actual})
    assert report["mean_score"] == 0.0
    sub = {"r1": r1.actual, "r2": StopSequence("r2", ("depot", "b", "a"))}
    report = dataset_score(ds, sub)
    expected = route_score(r2, sub["r2"])["score"] / 2
    assert report["mean_score"] == pytest.approx(expected)


def test_dataset_score_missing_submission_names_route():
    r1 = scored_route("r1")
    ds = Dataset(routes={"r1": r1})
    with pytest.raises(ValidationError, match="r1"):
        dataset_score(ds, {})
    # Every missing route is named, before any route is scored: r1's
    # submission does not start at the depot.
    r2, r3 = scored_route("r2"), scored_route("r3")
    ds = Dataset(routes={"r1": r1, "r2": r2, "r3": r3})
    bad = StopSequence("r1", ("a", "depot", "b"))
    with pytest.raises(ValidationError, match=r"\['r2', 'r3'\]"):
        dataset_score(ds, {"r1": bad})
