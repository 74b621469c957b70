import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CONFIG
from zoneseq import ppm
from zoneseq.cli import main
from zoneseq.core import ValidationError
from zoneseq.ingest import load_dataset
from zoneseq.ppm import EMPTY_TOKEN, CompiledRoute, PpmModel, tokenize_zone, train
from zoneseq.rollout import rollout_sequence
from conftest import (
    oracle_component_prob,
    oracle_prob,
    oracle_seq_reward,
    oracle_train,
    random_corpus,
)


def test_tokenize_dashed_decimal_id():
    assert tokenize_zone("C-17.3D") == ("C-17.3D", "C", "17", "3D")


def test_tokenize_single_token():
    assert tokenize_zone("stz") == ("stz", "stz", EMPTY_TOKEN, EMPTY_TOKEN)


def test_tokenize_another_dashed_id():
    t = tokenize_zone("A-1.2D")
    assert tuple(t) == ("A-1.2D", "A", "1", "2D")


def test_tokenize_discards_extra_runs():
    assert tuple(tokenize_zone("a.b.c.d.e")) == ("a.b.c.d.e", "a", "b", "c")


def test_tokenize_empty_errors():
    with pytest.raises(ValidationError):
        tokenize_zone("")


# -- training ----------------------------------------------------------------


def test_train_hand_counts():
    m = train([("A", "B")], max_order=1)
    c0 = m.counts[0]
    assert c0[("stz",)] == {"A": 1}
    assert c0[("A",)] == {"B": 1}
    assert c0[()] == {"A": 1, "B": 1}


def test_train_additivity():
    seq = ("A", "B", "C")
    m1 = train([seq], max_order=2)
    m2 = train([seq, seq], max_order=2)
    for k in range(4):
        for ctx, table in m1.counts[k].items():
            for tok, c in table.items():
                assert m2.counts[k][ctx][tok] == 2 * c


def test_train_rejects_empty_corpus():
    with pytest.raises(ValidationError):
        train([])


def test_train_deterministic():
    rng = random.Random(1)
    corpus = random_corpus(rng, n_seqs=10)
    a = train(corpus)
    b = train(corpus)
    assert a.counts == b.counts and a.vocab == b.vocab


def _fuzz_corpus(rng):
    """Random sequences, as lists or tuples, plus empty and
    one-zone lists. Some corpora hold only those, so W can be 0; short ids
    share the sentinel's empty tokens, and bare lists may hold "stz" itself."""
    vocab = ["A-0.0X", "A-1.1Y", "B-0.1X", "B", "C-2", "stz"]
    corpus = []
    for seq in random_corpus(rng, n_seqs=rng.randint(1, 6), max_len=rng.choice([2, 5, 9])):
        if len(set(seq)) == len(seq) and "stz" not in seq and rng.random() < 0.5:
            corpus.append(tuple(seq))
        else:
            corpus.append(seq)
    corpus += [[] for _ in range(rng.randint(0, 2))]
    corpus += [[rng.choice(vocab)] for _ in range(rng.randint(0, 2))]
    corpus += [[rng.choice(vocab) for _ in range(rng.randint(2, 4))]
               for _ in range(rng.randint(0, 1))]
    shape = rng.random()
    if shape < 0.1:
        corpus = [[] for _ in corpus]
    elif shape < 0.2:
        corpus = [[rng.choice(vocab)] for _ in corpus]
    rng.shuffle(corpus)
    return corpus


def test_train_matches_oracle_fuzz(tmp_path):
    # Order 65535 must cost what the longest sequence allows: padding every
    # stream to 65535 tokens would not fit under a 512 MiB address-space cap.
    script = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from zoneseq.ppm import train\n"
        "train([['A-%d.1X' % i for i in range(30)]] * 3, 65535)\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60,
                   env={"PYTHONPATH": str(Path(ppm.__file__).parents[1])})
    rng = random.Random(12)
    for trial in range(400):
        corpus = _fuzz_corpus(rng)
        for order in (1, 2, 3, 5, 8, 65535):
            for sentinel in ("stz", None):
                got = train(corpus, max_order=order, sentinel=sentinel)
                want = oracle_train(corpus, max_order=order, sentinel=sentinel)
                assert got.counts == want.counts, (corpus, order, sentinel)
                assert got.vocab == want.vocab, (corpus, order, sentinel)
                if trial % 20 == 0:
                    got.save(tmp_path / "got.zppm")
                    want.save(tmp_path / "want.zppm")
                    assert (tmp_path / "got.zppm").read_bytes() == \
                        (tmp_path / "want.zppm").read_bytes()


# -- probabilities -----------------------------------------------------------


@pytest.fixture
def single_component_model():
    # corpus [A,B,A,B,A], no sentinel, K=1, weight on component 0 only
    return train([["A", "B", "A", "B", "A"]], max_order=1,
                 weights=(1.0, 0.0, 0.0, 0.0), sentinel=None)


def test_ppmd_seen_symbol(single_component_model):
    # context A: successors {B:2}, so (2c-1)/(2t) with c=t=2
    assert single_component_model.prob(["A"], "B") == pytest.approx(3 / 4, abs=1e-12)


def test_ppmd_escape_chain(single_component_model):
    # escape(1/4) * escape(2/10) * uniform over |V|+1 = 3
    assert single_component_model.prob(["A"], "C") == pytest.approx(1 / 60, abs=1e-12)


def test_prob_strictly_positive(single_component_model):
    for ctx in ([], ["A"], ["Q"], ["A", "B"]):
        for cand in ("A", "B", "C", "weird-9.9Z"):
            assert single_component_model.prob(ctx, cand) > 0.0


def test_per_context_normalization_fuzzed():
    # PPM-D identity: sum over seen tokens of (2c-1)/(2t) plus escape d/(2t)
    # equals 1 exactly, for every context of every component.
    rng = random.Random(7)
    for _ in range(200):
        corpus = random_corpus(rng, n_seqs=rng.randint(1, 5))
        m = train(corpus, max_order=rng.randint(1, 5))
        from fractions import Fraction
        for k in range(4):
            for ctx, table in m.counts[k].items():
                t = sum(table.values())
                d = len(table)
                total = sum(Fraction(2 * c - 1, 2 * t) for c in table.values())
                assert total + Fraction(d, 2 * t) == 1


def test_total_mass_bounded(single_component_model):
    # Without exclusion the first-hit decoding measure over the vocabulary
    # plus one unseen-class slot is at most 1 (mass shadowed by higher
    # orders is lost, never duplicated).
    m = single_component_model
    total = m.prob(["A"], "A") + m.prob(["A"], "B")
    unseen = m.prob(["A"], "C")
    assert 0.0 < total + unseen <= 1.0 + 1e-12


def test_one_hot_weight_uses_only_that_component():
    corpus = [["A-1.2D", "B-1.2D", "A-1.2D"]]
    m = train(corpus, max_order=2, weights=(0.0, 1.0, 0.0, 0.0))
    # candidates differing only outside component 1 score identically
    p1 = m.prob(["A-1.2D"], "B-9.9X")
    p2 = m.prob(["A-7.7Q"], "B-1.2D")
    assert p1 == pytest.approx(p2, abs=1e-15)


def test_prob_deterministic():
    rng = random.Random(2)
    corpus = random_corpus(rng)
    m = train(corpus)
    vals = {m.prob(["A-1.1X"], "B-2.2Y") for _ in range(50)}
    assert len(vals) == 1


# -- sequence reward ---------------------------------------------------------


def test_seq_reward_toy_value(single_component_model):
    m = single_component_model
    # the terms of the reward of [A, B]: P(A|[]) = (2*3-1)/(2*5) and P(B|[A]) = 3/4
    assert m.prob([], "A") == pytest.approx(0.5)
    assert m.prob(["A"], "B") == pytest.approx(0.75)
    assert oracle_seq_reward(m, ["A", "B"], sentinel=None) == pytest.approx(0.5 + 0.75)


# -- serialization -----------------------------------------------------------


def test_model_roundtrip(tmp_path):
    rng = random.Random(4)
    for corpus in (random_corpus(rng), [[]]):
        m = train(corpus, max_order=3, weights=(0.4, 0.3, 0.2, 0.1))
        path = tmp_path / "m.zppm"
        m.save(path)
        m2 = PpmModel.load(path)
        assert m2.max_order == m.max_order
        assert m2.weights == pytest.approx(m.weights)
        assert m2.counts == m.counts
        assert m2.vocab == m.vocab
        for zone in ("A", *m.vocab[0]):
            assert m2.prob([], zone) == m.prob([], zone)


def test_model_file_deterministic(tmp_path):
    rng = random.Random(4)
    corpus = random_corpus(rng)
    p1, p2 = tmp_path / "a.zppm", tmp_path / "b.zppm"
    train(corpus).save(p1)
    train(corpus).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.zppm"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValidationError, match="ZPPM"):
        PpmModel.load(p)


def test_load_rejects_truncated_file(tmp_path):
    rng = random.Random(4)
    good = tmp_path / "good.zppm"
    train(random_corpus(rng), max_order=3).save(good)
    raw = good.read_bytes()
    for size in (6, 40, 200, len(raw) - 1):
        p = tmp_path / f"cut{size}.zppm"
        p.write_bytes(raw[:size])
        with pytest.raises(ValidationError, match=f"cut{size}.zppm.*truncated"):
            PpmModel.load(p)


def test_load_rejects_trailing_bytes(tmp_path):
    rng = random.Random(4)
    p = tmp_path / "long.zppm"
    train(random_corpus(rng), max_order=3).save(p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(ValidationError, match="long.zppm.*trailing"):
        PpmModel.load(p)


def test_model_file_byte_flips_and_truncations_load_or_name_the_file(tmp_path):
    # The golden run's model: every mutant either loads and sequences an
    # eval route's zones, or is a ValidationError naming the file.
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(dict(CONFIG, with_travel_times=False)))
    data, good = tmp_path / "data", tmp_path / "model.zppm"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--dataset", str(data / "train"), "--model", str(good)]) == 0
    eval_routes = load_dataset(data / "eval").routes
    zones = list(eval_routes[min(eval_routes)].zone_stops)
    raw = good.read_bytes()
    rng = random.Random(13)
    mutants = []
    for _ in range(400):
        flipped = bytearray(raw)
        flipped[rng.randrange(len(raw))] ^= rng.randrange(1, 256)
        mutants.append(bytes(flipped))
    mutants += [raw[:rng.randrange(len(raw))] for _ in range(100)]
    path = tmp_path / "mutant.zppm"
    loaded = 0
    for mutant in mutants:
        path.write_bytes(mutant)
        try:
            model = PpmModel.load(path)
        except ValidationError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            continue
        assert sorted(rollout_sequence(model, "r", zones)) == sorted(zones)
        loaded += 1
    assert 0 < loaded < len(mutants)


def test_weights_must_sum_to_one():
    with pytest.raises(ValidationError):
        train([["A"]], weights=(0.5, 0.5, 0.5, 0.5))


@pytest.mark.parametrize("max_order", [0, 65536])
def test_train_rejects_order_outside_u16_range(max_order):
    # The model file stores max_order as a u16.
    with pytest.raises(ValidationError, match="max_order"):
        train([("A", "B")], max_order=max_order)


@pytest.mark.parametrize("zone, shown", [("Z" * 70_000, "'" + "Z" * 12 + "..." + "Z" * 13 + "'"),
                                         ("\ud800", "'\\ud800'")],
                         ids=["over-65535-bytes", "surrogate"])
def test_save_rejects_a_token_the_file_cannot_hold(tmp_path, zone, shown):
    path = tmp_path / "m.zppm"
    with pytest.raises(ValidationError) as excinfo:
        train([("A", zone)], max_order=1).save(path)
    assert str(excinfo.value) == f"component 0 token {shown} cannot be stored in a model file"
    assert not path.exists()


def test_model_rejects_nan_weights():
    with pytest.raises(ValidationError, match="do not sum to 1"):
        PpmModel(max_order=1, weights=(float("nan"), 0.25, 0.25, 0.25),
                 counts=[{} for _ in range(4)])


@pytest.mark.parametrize("max_order", [0, 65536])
def test_model_rejects_order_outside_u16_range(max_order):
    with pytest.raises(ValidationError, match=f"max_order must be in 1..65535, got {max_order}"):
        PpmModel(max_order=max_order, weights=(0.25, 0.25, 0.25, 0.25),
                 counts=[{} for _ in range(4)])


@pytest.mark.parametrize("count, words", [
    (0, "a zero"),
    (-2, "a non-positive-integer -2"),
    (1.5, "a non-positive-integer 1.5"),
    (True, "a non-positive-integer True"),
], ids=["zero", "negative", "float", "bool"])
def test_model_rejects_a_count_that_is_not_a_positive_int(count, words):
    counts = [{(): {"A": 1}} for _ in range(4)]
    counts[2] = {(): {"B": 3}, ("B",): {"A": count}}
    with pytest.raises(ValidationError) as info:
        PpmModel(max_order=1, weights=(0.25, 0.25, 0.25, 0.25), counts=counts)
    assert str(info.value) == f"component 2 context ('B',) has {words} count for 'A'"


@pytest.mark.parametrize("n_tables", [3, 5])
def test_model_rejects_wrong_count_table_count(n_tables):
    with pytest.raises(ValidationError, match=f"expected 4 count tables, got {n_tables}"):
        PpmModel(max_order=1, weights=(0.25, 0.25, 0.25, 0.25),
                 counts=[{} for _ in range(n_tables)])


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.2, 0.2, 0.2, 0.2, 0.2)])
def test_model_rejects_wrong_weight_count(weights):
    with pytest.raises(ValidationError, match=f"got {len(weights)}"):
        train([["A"]], weights=weights)


# -- one escape chain --------------------------------------------------------


def test_chain_paths_match_oracle_fuzz():
    # orders 1-6, zero-weight components, tokens unseen in training, contexts
    # shorter than the order and the empty context; exact float equality
    rng = random.Random(23)
    for _ in range(150):
        raw = [rng.choice([0, 0, 1, 2, 3]) for _ in range(4)]
        raw[rng.randrange(4)] = rng.randint(1, 3)
        weights = tuple(w / sum(raw) for w in raw)
        if abs(sum(weights) - 1.0) > 1e-12:
            continue
        order = rng.randint(1, 6)
        m = train(random_corpus(rng, n_seqs=rng.randint(1, 8)),
                  max_order=order, weights=weights)
        zones = {f"{c}-{rng.randint(0, 3)}.{rng.randint(0, 3)}{rng.choice('XYQ')}"
                 for c in "ABCDEFG"[:rng.randint(1, 7)]}
        route = CompiledRoute(m, zones)
        ids = route.zones + ("stz",)
        seqs = [[]] + [[rng.randrange(len(ids)) for _ in range(rng.randint(1, order + 2))]
                       for _ in range(15)]
        for seq in seqs:
            ctx = [ids[i] for i in seq]
            expected = [oracle_prob(m, ctx, z) for z in route.zones]
            assert route.probs(seq) == expected
            assert [m.prob(ctx, z) for z in route.zones] == expected
            for k in range(4):
                tokens = [tokenize_zone(z)[k] for z in ctx]
                for z in ids:
                    token = tokenize_zone(z)[k]
                    assert m.component_prob(k, tokens, token) == \
                        oracle_component_prob(m, k, tokens, token)


def test_compiled_routes_share_no_route_state(tmp_path):
    # Routes compiled from one model share its escape chains. Read in turns,
    # each must answer as a route compiled on a model of its own does.
    rng = random.Random(31)
    m = train(random_corpus(rng, n_seqs=8), max_order=3)
    path = tmp_path / "m.zppm"
    m.save(path)
    zone_sets = [["A-0.0X", "B-1.1Y", "C-2.2X", "Q-9.9Q"], ["A-1.1Y", "B-0.0X", "C-2.2Y"]]
    shared = [CompiledRoute(m, zones) for zones in zone_sets]
    alone = [CompiledRoute(PpmModel.load(path), zones) for zones in zone_sets]
    for _ in range(300):
        i = rng.randrange(len(zone_sets))
        seq = [rng.randrange(len(zone_sets[i]) + 1) for _ in range(rng.randint(0, 4))]
        assert shared[i].probs(seq) == alone[i].probs(seq)
