"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them as they complete). Criterion 8 is conditional on a locally present
Challenge-layout dataset (ZONESEQ_CHALLENGE_DIR)."""

import json
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from zoneseq import cli, ingest, ppm, rollout, scorer, synth, tsp
from zoneseq.ppm import train
from zoneseq.rollout import rollout_sequence
from zoneseq.synth import SynthConfig
from conftest import (
    brute_force_atsp,
    erp_arrays,
    exhaustive_best_reward,
    oracle_greedy_completion,
    oracle_seq_reward,
    patterned_instance,
    random_corpus,
)
from test_tsp import random_cost, raw_instance


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_ppm_oracle_fixtures():
    t0 = time.perf_counter()
    m = train([["A", "B", "A", "B", "A"]], max_order=1,
              weights=(1.0, 0.0, 0.0, 0.0), sentinel=None)
    ok = abs(m.prob(["A"], "B") - 3 / 4) <= 1e-12
    ok &= abs(m.prob(["A"], "C") - 1 / 60) <= 1e-12
    rng = random.Random(42)
    for _ in range(1000):
        fuzz = train(random_corpus(rng, n_seqs=rng.randint(1, 3), max_len=5),
                     max_order=rng.randint(1, 5))
        for k in range(4):
            for table in fuzz.counts[k].values():
                t = sum(table.values())
                total = sum(Fraction(2 * c - 1, 2 * t) for c in table.values())
                ok &= total + Fraction(len(table), 2 * t) == 1
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(1, "ppm oracle fixtures", ok and elapsed < 1.0,
           f"(elapsed {elapsed:.2f}s)")


def test_criterion_2_rollout_improvement_and_near_optimality():
    t0 = time.perf_counter()
    rng = random.Random(42)
    ok = True
    for i in range(1000):
        if i % 2 == 0:
            model = train(random_corpus(rng, n_seqs=rng.randint(2, 6)))
            n = rng.randint(2, 15)
            zones = {f"{c}-{rng.randint(0, 9)}.{rng.randint(0, 9)}X"
                     for c in "ABCDEFGHIJKLMNO"[:n]}
        else:
            corpus, zone_list = patterned_instance(rng, rng.randint(2, 15))
            model = train(corpus)
            zones = set(zone_list)
        out = rollout_sequence(model, "r", zones)
        greedy = oracle_greedy_completion(model, [], zones)
        if oracle_seq_reward(model, out) < oracle_seq_reward(model, greedy) - 1e-12:
            ok = False
            break
    hits = 0
    for _ in range(200):
        corpus, zones = patterned_instance(rng, rng.randint(3, 8))
        model = train(corpus)
        out = rollout_sequence(model, "r", zones)
        best = exhaustive_best_reward(model, zones)
        if oracle_seq_reward(model, out) >= 0.95 * best:
            hits += 1
    elapsed = time.perf_counter() - t0
    report(2, "rollout improvement",
           ok and hits >= 180 and elapsed < 120,
           f"(near-optimal {hits}/200, elapsed {elapsed:.1f}s)")


def test_criterion_3_atsp_quality():
    t0 = time.perf_counter()
    rng = random.Random(42)
    hits, never_worse = 0, True
    for _ in range(500):
        n = rng.randint(4, 8)
        cost = random_cost(rng, n)
        inst = raw_instance(cost)
        got = tsp.tour_cost(cost, tsp.solve_atsp(inst))
        nn = tsp.tour_cost(cost, tsp.nearest_neighbor_tour(cost, 0))
        best = brute_force_atsp(cost)
        never_worse &= got <= nn + 1e-9
        never_worse &= got >= best - 1e-9
        if got <= 1.05 * best:
            hits += 1
    elapsed = time.perf_counter() - t0
    report(3, "atsp quality",
           hits >= 475 and never_worse and elapsed < 120,
           f"(within 5%: {hits}/500, elapsed {elapsed:.1f}s)")


def test_criterion_4_scorer_fixtures():
    ok = scorer.sequence_deviation(["a", "b", "c"], ["a", "b", "c"]) == 0.0
    ok &= abs(scorer.sequence_deviation(["a", "b", "c"], ["a", "c", "b"]) - 1 / 3) < 1e-15
    ok &= abs(scorer.sequence_deviation(["a", "b", "c", "d"],
                                        ["b", "a", "d", "c"]) - 1 / 3) < 1e-15
    matrix = {"d": {"d": 0.0, "a": 4.0, "b": 8.0},
              "a": {"d": 4.0, "a": 0.0, "b": 10.0},
              "b": {"d": 6.0, "a": 2.0, "b": 0.0}}
    dist = lambda x, y: matrix[x][y] / 10.0
    ok &= scorer.erp(*erp_arrays(["a", "b"], ["a", "b"], dist, "d")) == (0.0, 0)
    cost, edits = scorer.erp(*erp_arrays(["a", "b"], ["b", "a"], dist, "d"))
    ok &= abs(cost - 0.8) < 1e-12 and edits == 2
    report(4, "scorer fixtures", ok)


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    cfg = SynthConfig(seed=42, n_train_routes=200, n_eval_routes=50,
                      zones_per_route=(25, 35), pattern_strength=0.95)
    train_ds, eval_ds = synth.generate(cfg)
    data = base / "data"
    ingest.write_dataset(train_ds, data / "train")
    ingest.write_dataset(eval_ds, data / "eval")
    settings = {"order": 5, "weights": (0.25,) * 4, "seed": 42,
                "external_solver": None}
    t0 = time.perf_counter()
    scores1 = cli.run_bench(data, base / "run1", settings)
    elapsed = time.perf_counter() - t0
    scores2 = cli.run_bench(data, base / "run2", settings)
    return base, scores1, scores2, elapsed


def test_criterion_5_end_to_end_bench(bench_runs):
    _, scores, _, elapsed = bench_runs
    ok = scores["method"] < scores["alphabetical"]
    ok &= scores["zsgt_oracle"] <= scores["method"]
    report(5, "end-to-end synthetic bench",
           ok and elapsed < 600,
           f"(oracle {scores['zsgt_oracle']:.4f} <= method "
           f"{scores['method']:.4f} < alpha {scores['alphabetical']:.4f}, "
           f"elapsed {elapsed:.0f}s)")


def test_criterion_6_throughput():
    cfg = SynthConfig(seed=42, n_train_routes=60, n_eval_routes=1,
                      zones_per_route=(30, 30), stops_per_zone=(6, 7),
                      n_zone_templates=2)
    train_ds, eval_ds = synth.generate(cfg)
    model = train(ingest.training_corpus(train_ds))
    route = next(iter(eval_ds.routes.values()))
    assert len(route.stops) >= 180
    t0 = time.perf_counter()
    zorder = rollout_sequence(model, route.route_id, list(route.zone_stops))
    tsp.sequence_stops(route, zorder)
    seq_elapsed = time.perf_counter() - t0

    corpus = ingest.training_corpus(train_ds)
    corpus = (corpus * (6000 // len(corpus) + 1))[:6000]
    t0 = time.perf_counter()
    train(corpus)
    train_elapsed = time.perf_counter() - t0
    report(6, "throughput",
           seq_elapsed <= 2.0 and train_elapsed <= 10.0,
           f"(route {seq_elapsed:.2f}s <= 2s, training {train_elapsed:.2f}s <= 10s)")


def test_criterion_7_determinism(bench_runs):
    base, _, _, _ = bench_runs
    ok = True
    for name in ("submission_method.json", "report_method.json",
                 "submission_alphabetical.json", "report_alphabetical.json",
                 "submission_zsgt_oracle.json", "report_zsgt_oracle.json"):
        ok &= (base / "run1" / name).read_bytes() == \
            (base / "run2" / name).read_bytes()
    report(7, "determinism across runs", ok)


def test_criterion_8_challenge_dataset_conditional(tmp_path):
    data_dir = os.environ.get("ZONESEQ_CHALLENGE_DIR")
    if not data_dir or not (Path(data_dir) / "routes.json").exists():
        print("ACCEPTANCE 8 [challenge self-evaluation]: SKIP "
              "(set ZONESEQ_CHALLENGE_DIR to a Challenge-layout dataset)")
        pytest.skip("Challenge dataset not present")
    dataset = ingest.load_dataset(data_dir)
    model = train(ingest.training_corpus(dataset))
    submissions = {}
    for rid in sorted(dataset.routes):
        route = dataset.routes[rid]
        if route.actual is None:
            continue
        zorder = rollout_sequence(model, rid, list(route.zone_stops))
        submissions[rid] = tsp.sequence_stops(route, zorder)
    rep = scorer.dataset_score(dataset, submissions)
    report(8, "challenge self-evaluation", rep["mean_score"] <= 0.06,
           f"(score {rep['mean_score']:.4f})")
