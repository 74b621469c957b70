"""Metamorphic contract tests: inputs that mean the same give the same bytes.

The golden tests pin the bytes of one dataset. These check that an
equivalent rewrite of a dataset's files gives the bytes of the original.

Not an invariance: scaling every travel time changes the submission, since
`Route.geometry` adds stop-to-stop travel times to haversine metres on every
edge that touches a zone median.
"""

import hashlib
import json
import random

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


def _outputs(tmp_path, data):
    """sha256 of the model, submission and report that `data` gives."""
    model, sub, rep = tmp_path / "model.zppm", tmp_path / "sub.json", tmp_path / "rep.json"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    assert main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                 "--out", str(sub)]) == 0
    assert main(["evaluate", "--dataset", str(data / "eval"), "--submission", str(sub),
                 "--out", str(rep)]) == 0
    return [hashlib.sha256(path.read_bytes()).hexdigest() for path in (model, sub, rep)]


@pytest.mark.parametrize("blank", [False, True], ids=["zoned", "one-zone-blank"])
def test_key_order_and_layout_do_not_change_the_bytes(tmp_path, monkeypatch, blank):
    # With a blank zone id, train reads the travel times to impute it;
    # without one, it reads none of them.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(TINY))
    data = tmp_path / "data"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(data)]) == 0
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
