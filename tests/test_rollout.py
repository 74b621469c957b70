import itertools
import random

import pytest

from zoneseq.core import ValidationError
from zoneseq.ppm import CompiledRoute, train
from zoneseq.rollout import rollout_sequence
from conftest import (
    exhaustive_best_reward,
    oracle_greedy_completion,
    oracle_prob,
    oracle_rollout_sequence,
    oracle_seq_reward,
    patterned_instance,
    random_corpus,
)


def random_model(rng, vocab=None):
    return train(random_corpus(rng, n_seqs=rng.randint(2, 8), vocab=vocab),
                 max_order=5)


def test_next_zone_matches_brute_force_lookahead():
    # the next zone from the empty prefix is rollout_sequence's first zone
    rng = random.Random(2)
    for _ in range(20):
        m = random_model(rng)
        zones = sorted(
            rng.sample(["A-1.1X", "B-2.2Y", "C-0.0Z", "D-1.0W", "E-3.3V"], 3)
        )
        # oracle: evaluate g + J-tilde for each candidate directly
        best, best_score = None, None
        for u in zones:
            completion = oracle_greedy_completion(m, [u], set(zones) - {u})
            seq = [u] + completion
            cache = {}
            acc, ctx = 0.0, ["stz"]
            for z in seq:
                acc += m.prob(ctx[-m.max_order:], z, cache=cache)
                ctx.append(z)
            if best_score is None or acc > best_score:
                best, best_score = u, acc
        assert rollout_sequence(m, "r", zones)[0] == best


def test_rollout_single_zone():
    m = train([["A", "B"]])
    assert rollout_sequence(m, "r", ["Q-1.1Z"]) == ("Q-1.1Z",)


def test_rollout_empty_errors():
    m = train([["A"]])
    with pytest.raises(ValidationError):
        rollout_sequence(m, "r", [])


def test_rollout_two_zones_matches_enumeration():
    m = train([["A", "B"], ["A", "B"], ["A", "C"]])
    out = rollout_sequence(m, "r", ["A", "B"])
    rewards = {
        order: oracle_seq_reward(m, order)
        for order in itertools.permutations(["A", "B"])
    }
    assert out == max(sorted(rewards), key=lambda o: rewards[o])


def test_rollout_output_is_permutation_fuzz():
    rng = random.Random(4)
    for _ in range(200):
        m = random_model(rng)
        n = rng.randint(1, 8)
        zones = [f"{c}-{rng.randint(0,3)}.{rng.randint(0,3)}Q"
                 for c in "ABCDEFGH"[:n]]
        zones = list(dict.fromkeys(zones))
        out = rollout_sequence(m, "r", zones)
        assert sorted(out) == sorted(zones)


def test_rollout_improves_on_greedy():
    rng = random.Random(5)
    for _ in range(200):
        m = random_model(rng)
        n = rng.randint(2, 12)
        zones = {f"{c}-{rng.randint(0,9)}.{rng.randint(0,9)}X"
                 for c in "ABCDEFGHIJKL"[:n]}
        out = rollout_sequence(m, "r", zones)
        greedy = oracle_greedy_completion(m, [], zones)
        assert oracle_seq_reward(m, out) >= oracle_seq_reward(m, greedy) - 1e-12


def test_rollout_near_exhaustive_optimum():
    # instances drawn from the method's input regime: models trained on
    # sequences that follow a planted order with varying fidelity
    rng = random.Random(6)
    hits, trials = 0, 30
    for _ in range(trials):
        corpus, zones = patterned_instance(rng, rng.randint(3, 6))
        m = train(corpus)
        out = rollout_sequence(m, "r", zones)
        best = exhaustive_best_reward(m, zones)
        if oracle_seq_reward(m, out) >= 0.95 * best:
            hits += 1
    assert hits >= 0.9 * trials


def test_prob_call_counter_bounded():
    rng = random.Random(7)
    for _ in range(20):
        m = random_model(rng)
        n = rng.randint(3, 15)
        zones = {f"{c}-{rng.randint(0,9)}.{rng.randint(0,9)}X"
                 for c in "ABCDEFGHIJKLMNO"[:n]}
        stats = {}
        rollout_sequence(m, "r", zones, stats=stats)
        n = len(zones)
        assert stats["prob_calls"] <= 3 * n ** 3 + 10
        assert 1 <= stats["contexts"] <= stats["prob_calls"]


def test_rollout_deterministic():
    rng = random.Random(8)
    m = random_model(rng)
    zones = {"A-1.1X", "B-2.2Y", "C-0.0Z", "D-1.0W", "E-3.3V"}
    outs = {rollout_sequence(m, "r", zones) for _ in range(20)}
    assert len(outs) == 1


@pytest.fixture
def recorded_reads(monkeypatch):
    """Zone-id context -> (route zones, list) for every list rollout reads."""
    read = {}
    compiled_probs = CompiledRoute.probs

    def recording_probs(route, seq):
        probs = compiled_probs(route, seq)
        ids = route.zones + ("stz",)
        read[tuple(ids[i] for i in seq)[-route._order:]] = (route.zones, probs)
        return probs

    monkeypatch.setattr(CompiledRoute, "probs", recording_probs)
    return read


def _fuzz_model(rng):
    """A model of order 1-6 whose weights may zero some components, or None."""
    raw = [rng.choice([0, 0, 1, 2, 3]) for _ in range(4)]
    raw[rng.randrange(4)] = rng.randint(1, 3)
    weights = tuple(w / sum(raw) for w in raw)
    if abs(sum(weights) - 1.0) > 1e-12:
        return None
    order = rng.randint(1, 6)
    return train(random_corpus(rng, n_seqs=rng.randint(2, 8)), max_order=order,
                 weights=weights)


def _fuzz_zones(rng):
    n = rng.randint(1, 15)
    return {f"{c}-{rng.randint(0, 3)}.{rng.randint(0, 3)}{rng.choice('XYQ')}"
            for c in "ABCDEFGHIJKLMNO"[:n]}


def _assert_rollout_matches_oracles(m, zones, read):
    read.clear()
    assert rollout_sequence(m, "r", zones) == oracle_rollout_sequence(m, zones)
    assert read
    for ctx, (route_zones, probs) in read.items():
        assert route_zones == tuple(sorted(zones))
        assert [oracle_prob(m, list(ctx), z) for z in route_zones] == probs


def test_rollout_matches_prob_oracle_fuzz(recorded_reads):
    # orders 1-6, weights with zero components, zone ids partly or wholly
    # unseen in training, 1-15 zones; the oracle uses only PpmModel.prob and
    # the exactness check only oracle_prob, which rebuilds each chain per call
    rng = random.Random(9)
    for _ in range(200):
        m = _fuzz_model(rng)
        if m is not None:
            _assert_rollout_matches_oracles(m, _fuzz_zones(rng), recorded_reads)


def test_rollout_matches_prob_oracle_across_routes_fuzz(recorded_reads):
    # Each model sequences 2-3 zone sets in turn, so its suffix and chain
    # memos carry over from route to route and from PpmModel.prob.
    rng = random.Random(14)
    for _ in range(60):
        m = _fuzz_model(rng)
        for _ in range(rng.randint(2, 3) if m is not None else 0):
            _assert_rollout_matches_oracles(m, _fuzz_zones(rng), recorded_reads)
