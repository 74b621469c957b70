"""Metamorphic contract tests: inputs that mean the same give the same bytes.

The golden tests pin the bytes of one dataset. These check that an
equivalent rewrite of a dataset's files gives the bytes of the original:
its JSON key order and layout, a route split off from its batch, and stop
ids renamed in a way that keeps their sorted order.

Not an invariance: scaling every travel time changes the submission, since
`Route.geometry` adds stop-to-stop travel times to haversine metres on every
edge that touches a zone median.
"""

import hashlib
import json
import random
import re

import pytest

from zoneseq.cli import main

TINY = {
    "seed": 11,
    "n_train_routes": 5,
    "n_eval_routes": 2,
    "zones_per_route": [3, 4],
    "stops_per_zone": [1, 3],
    "n_zone_templates": 2,
}

# Three eval routes, so that a batch of them runs in a pool of two workers.
THREE_EVAL = {
    "seed": 23,
    "n_train_routes": 5,
    "n_eval_routes": 3,
    "zones_per_route": [3, 4],
    "stops_per_zone": [1, 3],
    "n_zone_templates": 2,
}

SPLIT_FILES = ("routes.json", "actual_sequences.json", "travel_times.json", "quality.json")


def _shuffled(value, rng):
    """`value` with the keys of every object in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {key: _shuffled(child, rng) for key, child in items}
    if isinstance(value, list):
        return [_shuffled(child, rng) for child in value]
    return value


def _synth(tmp_path, config):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    data = tmp_path / "data"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(data)]) == 0
    return data


def _sequence(split, model, out):
    assert main(["sequence", "--dataset", str(split), "--model", str(model),
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _outputs(tmp_path, data):
    """sha256 of the model, submission and report that `data` gives."""
    model, sub, rep = tmp_path / "model.zppm", tmp_path / "sub.json", tmp_path / "rep.json"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    _sequence(data / "eval", model, sub)
    assert main(["evaluate", "--dataset", str(data / "eval"), "--submission", str(sub),
                 "--out", str(rep)]) == 0
    return [hashlib.sha256(path.read_bytes()).hexdigest() for path in (model, sub, rep)]


@pytest.mark.parametrize("blank", [False, True], ids=["zoned", "one-zone-blank"])
def test_key_order_and_layout_do_not_change_the_bytes(tmp_path, monkeypatch, blank):
    # With a blank zone id, train reads the travel times to impute it;
    # without one, it reads none of them.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    data = _synth(tmp_path, TINY)
    if blank:
        path = data / "train" / "routes.json"
        routes = json.loads(path.read_text())
        rid = sorted(routes)[0]
        routes[rid]["stops"][sorted(routes[rid]["stops"])[0]]["zone_id"] = ""
        path.write_text(json.dumps(routes, indent=1))
    expected = _outputs(tmp_path / "intact", data)

    rng = random.Random(5)
    for split in ("train", "eval"):
        for name in SPLIT_FILES:
            path = data / split / name
            doc = _shuffled(json.loads(path.read_text()), rng)
            path.write_text(json.dumps(doc, separators=(",", ":")))
    assert _outputs(tmp_path / "rewritten", data) == expected


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["pool", "one-cpu"])
def test_a_route_sequenced_alone_gets_its_batch_order(tmp_path, monkeypatch, cpus):
    # The batch runs in a pool of two forked workers, or in this process;
    # a split of one route always runs in this process.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus, raising=False)
    data = _synth(tmp_path, THREE_EVAL)
    model = tmp_path / "model.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    batch = _sequence(data / "eval", model, tmp_path / "batch.json")
    assert len(batch) == 3
    for rid in sorted(batch):
        alone = tmp_path / rid
        alone.mkdir()
        for name in SPLIT_FILES:
            doc = json.loads((data / "eval" / name).read_text())
            (alone / name).write_text(json.dumps({rid: doc[rid]}))
        assert _sequence(alone, model, tmp_path / f"{rid}.json") == {rid: batch[rid]}


def _relabel(value, rename):
    """`value` with every object key that `rename` holds renamed."""
    if isinstance(value, dict):
        return {rename.get(key, key): _relabel(child, rename) for key, child in value.items()}
    return value


def test_relabelling_stop_ids_in_sorted_order_relabels_the_submission(tmp_path, monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    data = _synth(tmp_path, THREE_EVAL)
    expected = _outputs(tmp_path / "intact", data)
    submission = json.loads((tmp_path / "intact" / "sub.json").read_text())

    # sNNNN -> t(7 NNNN + 3), five digits: every id keeps its place in the
    # sorted order, and the depot sorts first either way.
    stop_ids = {sid for ids in submission.values() for sid in ids} - {"depot"}
    assert all(re.fullmatch(r"s\d{4}", sid) for sid in stop_ids)
    rename = {sid: f"t{7 * int(sid[1:]) + 3:05d}" for sid in stop_ids}
    assert sorted(rename, key=rename.get) == sorted(rename)
    for name in SPLIT_FILES:
        path = data / "eval" / name
        path.write_text(json.dumps(_relabel(json.loads(path.read_text()), rename)))

    relabelled = _outputs(tmp_path / "relabelled", data)
    assert json.loads((tmp_path / "relabelled" / "sub.json").read_text()) == {
        rid: [rename.get(sid, sid) for sid in ids] for rid, ids in submission.items()
    }
    assert relabelled[0] == expected[0]  # the model: train reads no eval file
    assert relabelled[2] == expected[2]  # the report
