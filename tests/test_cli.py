import copy
import itertools
import json
import logging
import multiprocessing
import os
import random
import re
import shutil
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from test_golden import GOLDEN, _run_pipeline
from zoneseq import cli, ingest, ppm, rollout, synth, tsp
from zoneseq.cli import main
from zoneseq.core import ValidationError
from conftest import still_running


SMALL_SYNTH = {
    "n_train_routes": 12, "n_eval_routes": 3,
    "zones_per_route": [4, 6], "stops_per_zone": [1, 3],
    "n_zone_templates": 2,
}


def _synth(tmp_path, **overrides):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(dict(SMALL_SYNTH, **overrides)))
    data = tmp_path / "data"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(data)]) == 0
    return data


@pytest.fixture
def synth_dirs(tmp_path):
    return tmp_path, _synth(tmp_path)


def test_synth_train_sequence_evaluate_roundtrip(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    model = tmp_path / "m.zppm"
    sub = tmp_path / "sub.json"
    rep = tmp_path / "rep.json"
    assert main(["train", "--dataset", str(data / "train"),
                 "--model", str(model)]) == 0
    assert model.exists()
    assert main(["sequence", "--dataset", str(data / "eval"),
                 "--model", str(model), "--out", str(sub),
                 "--per-route-timing"]) == 0
    out = capsys.readouterr().out
    routes = json.loads((data / "eval" / "routes.json").read_text())
    timing = [line.split() for line in out.splitlines() if "zone_sequencing_ms=" in line]
    assert [fields[0] for fields in timing] == sorted(routes)
    assert all(re.fullmatch(r"zone_sequencing_ms=\d+\.\d", fields[1])
               and re.fullmatch(r"stop_sorting_ms=\d+\.\d", fields[2]) for fields in timing)
    submission = json.loads(sub.read_text())
    assert set(submission) == set(routes)
    for rid, ids in submission.items():
        assert ids[0] == "depot"
        assert sorted(ids) == sorted(list(routes[rid]["stops"]) + ["depot"])
    assert main(["evaluate", "--dataset", str(data / "eval"),
                 "--submission", str(sub), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert set(report) == {"mean_score", "routes"}
    for body in report["routes"].values():
        assert set(body) == {"sd", "erp_cost", "erp_edits", "score"}


def test_train_reloads_equal(synth_dirs):
    tmp_path, data = synth_dirs
    m1, m2 = tmp_path / "m1.zppm", tmp_path / "m2.zppm"
    main(["train", "--dataset", str(data / "train"), "--model", str(m1)])
    main(["train", "--dataset", str(data / "train"), "--model", str(m2)])
    assert m1.read_bytes() == m2.read_bytes()


def test_evaluate_identity_submission_scores_zero(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    actuals = json.loads((data / "eval" / "actual_sequences.json").read_text())
    sub = tmp_path / "identity.json"
    sub.write_text(json.dumps({
        rid: [s for s, _ in sorted(pos.items(), key=lambda kv: kv[1])]
        for rid, pos in actuals.items()
    }))
    rep = tmp_path / "rep.json"
    assert main(["evaluate", "--dataset", str(data / "eval"),
                 "--submission", str(sub), "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["mean_score"] == 0.0


def _identity_submission(data):
    actuals = json.loads((data / "eval" / "actual_sequences.json").read_text())
    return {rid: [s for s, _ in sorted(pos.items(), key=lambda kv: kv[1])]
            for rid, pos in actuals.items()}


def _replace_route(value):
    def edit(sub, rid):
        sub[rid] = value(sub[rid])
        return sub
    return edit


# (edit, names the file, names the route): shape errors come from reading
# the file, depot and permutation errors from scoring the route.
@pytest.mark.parametrize("edit, names_file, names_route", [
    (lambda sub, rid: [], True, False),
    (_replace_route(lambda ids: 5), True, True),
    (_replace_route(lambda ids: "".join(ids)), True, True),
    (_replace_route(lambda ids: ids[:-1] + [7]), True, True),
    (_replace_route(lambda ids: ids[1:]), False, True),
    (_replace_route(lambda ids: ids[1:] + ids[:1]), False, True),
    (_replace_route(lambda ids: ids[:-1] + ["not-a-stop"]), False, True),
], ids=["top-level-list", "route-int", "route-string", "non-string-stop",
        "no-depot", "depot-last", "not-a-permutation"])
def test_malformed_submission_exits_1_naming_route(
        synth_dirs, capsys, edit, names_file, names_route):
    tmp_path, data = synth_dirs
    sub = _identity_submission(data)
    rid = sorted(sub)[1]
    path = tmp_path / "bad_sub.json"
    path.write_text(json.dumps(edit(sub, rid)))
    code = main(["evaluate", "--dataset", str(data / "eval"),
                 "--submission", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "validation error:" in err
    assert (str(path) in err) == names_file
    assert (f"route {rid}:" in err) == names_route


def test_submission_with_unknown_route_exits_1(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    sub = _identity_submission(data)
    sub["no-such-route"] = sub[sorted(sub)[0]]
    path = tmp_path / "extra_sub.json"
    path.write_text(json.dumps(sub))
    code = main(["evaluate", "--dataset", str(data / "eval"),
                 "--submission", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "no-such-route" in capsys.readouterr().err


def test_empty_dataset_train_exits_1(tmp_path):
    (tmp_path / "routes.json").write_text("{}")
    code = main(["train", "--dataset", str(tmp_path),
                 "--model", str(tmp_path / "m.zppm")])
    assert code == 1


def test_missing_dataset_exits_2(tmp_path):
    code = main(["train", "--dataset", str(tmp_path / "nope"),
                 "--model", str(tmp_path / "m.zppm")])
    assert code == 2


def test_bad_weights_exits_3(tmp_path):
    (tmp_path / "routes.json").write_text("{}")
    code = main(["train", "--dataset", str(tmp_path),
                 "--model", str(tmp_path / "m.zppm"),
                 "--weights", "1,1,1,1"])
    assert code == 3


def test_sequence_truncated_model_exits_1(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(data / "train"),
                 "--model", str(model)]) == 0
    model.write_bytes(model.read_bytes()[:200])
    code = main(["sequence", "--dataset", str(data / "eval"),
                 "--model", str(model), "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert "validation error:" in capsys.readouterr().err


def _zero_table(model):
    table = model.counts[0][()]
    for token in table:
        table[token] = 0


def _zero_one_count(model):
    table = model.counts[0][()]
    table[min(table)] = 0


def _order_zero(model):
    model.max_order = 0


@pytest.mark.parametrize("edit, message", [
    (_zero_table, "has a zero count"),
    (_zero_one_count, "has a zero count"),
    (_order_zero, "max_order must be in 1..65535, got 0"),
], ids=["zero-table", "one-zero-count", "order-0"])
def test_sequence_model_train_could_not_write_exits_1(synth_dirs, capsys, edit, message):
    # An all-zero table divided by zero in the escape chain; a single zero
    # count made probabilities that no longer sum to 1.
    tmp_path, data = synth_dirs
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    m = ppm.PpmModel.load(model)
    edit(m)
    m.save(model)
    out = tmp_path / "s.json"
    code = main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {model}: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_evaluate_stop_without_lng_exits_1(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    routes_path = data / "eval" / "routes.json"
    routes = json.loads(routes_path.read_text())
    rid = sorted(routes)[0]
    sid = sorted(routes[rid]["stops"])[0]
    del routes[rid]["stops"][sid]["lng"]
    routes_path.write_text(json.dumps(routes))
    code = main(["evaluate", "--dataset", str(data / "eval"),
                 "--submission", str(tmp_path / "unused.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and rid in err and sid in err


def test_evaluate_stops_list_exits_1(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    routes_path = data / "eval" / "routes.json"
    routes = json.loads(routes_path.read_text())
    rid = sorted(routes)[0]
    routes[rid]["stops"] = []
    routes_path.write_text(json.dumps(routes))
    code = main(["evaluate", "--dataset", str(data / "eval"),
                 "--submission", str(tmp_path / "unused.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and rid in err


def test_evaluate_huge_travel_time_exits_1(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    travel_path = data / "eval" / "travel_times.json"
    travel = json.loads(travel_path.read_text())
    rid = sorted(travel)[1]
    travel[rid]["depot"][sorted(travel[rid]["depot"])[0]] = 10 ** 400
    travel_path.write_text(json.dumps(travel))
    code = main(["evaluate", "--dataset", str(data / "eval"),
                 "--submission", str(tmp_path / "unused.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"validation error: route {rid}: travel time matrix" in err


def test_train_and_bench_do_not_read_the_travel_times_of_a_zoned_split(tmp_path,
                                                                       monkeypatch):
    # Every stop has a zone id, so training reads no cost: a travel time
    # file that is not JSON fails neither command, nor changes the model.
    data = _synth(tmp_path, n_train_routes=4, n_eval_routes=2, zones_per_route=[2, 3],
                  stops_per_zone=[1, 2], n_zone_templates=1)
    intact = tmp_path / "intact.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(intact)]) == 0
    travel = data / "train" / "travel_times.json"
    travel.write_text("{not json")
    read, read_json = [], ingest.read_json

    def recorded(path, what, **kwargs):
        read.append(Path(path))
        return read_json(path, what, **kwargs)

    monkeypatch.setattr(ingest, "read_json", recorded)
    model, bench = tmp_path / "m.zppm", tmp_path / "bench"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    assert main(["bench", "--dataset", str(data), "--out", str(bench)]) == 0
    assert model.read_bytes() == intact.read_bytes() == (bench / "model.zppm").read_bytes()
    assert travel not in read and data / "eval" / "travel_times.json" in read


def test_train_imputes_a_zone_by_the_travel_times(tmp_path):
    # Stop x is nearest to zone A as the crow flies, but to zone B by travel
    # time; the zone it takes decides the one training sequence, (A, B).
    split = tmp_path / "train"
    split.mkdir()
    coords = {"a1": (0.0, 0.010), "b1": (0.0, 0.020), "x": (0.0, 0.0101), "a2": (0.0, 0.011)}
    zones = {"a1": "A", "b1": "B", "x": "", "a2": "A"}
    ids = ["depot", *coords]
    times = {a: {b: 0 if a == b else 1 if (a, b) == ("x", "b1") else 100 for b in ids}
             for a in ids}
    files = {
        "routes.json": {"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {
            sid: {"lat": lat, "lng": lng, "zone_id": zones[sid]}
            for sid, (lat, lng) in coords.items()}}},
        "actual_sequences.json": {"r1": {sid: i for i, sid in enumerate(ids)}},
        "travel_times.json": {"r1": times},
    }
    for name, obj in files.items():
        (split / name).write_text(json.dumps(obj))
    full = tmp_path / "full.zppm"
    ppm.train(ingest.training_corpus(ingest.load_dataset(split, costs=True))).save(full)
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(split), "--model", str(model)]) == 0
    assert model.read_bytes() == full.read_bytes()
    (split / "travel_times.json").unlink()  # haversine gives x zone A: (B, A)
    assert main(["train", "--dataset", str(split), "--model", str(model)]) == 0
    assert model.read_bytes() != full.read_bytes()


def test_sequence_corrupt_travel_times_exits_1(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    travel = data / "eval" / "travel_times.json"
    travel.write_text("{not json")
    out = tmp_path / "sub.json"
    code = main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"validation error: dataset file {travel} ")
    assert not out.exists()


def _keep_stops(split_dir, rid, keep):
    """Cut route `rid` down to the first `keep` delivery stops of its actual."""
    names = ("routes.json", "actual_sequences.json", "travel_times.json")
    routes, actuals, travel = (json.loads((split_dir / n).read_text()) for n in names)
    kept = sorted(actuals[rid], key=actuals[rid].get)[: keep + 1]  # depot first
    routes[rid]["stops"] = {s: routes[rid]["stops"][s] for s in kept[1:]}
    actuals[rid] = {s: i for i, s in enumerate(kept)}
    travel[rid] = {a: {b: travel[rid][a][b] for b in kept} for a in kept}
    for name, obj in zip(names, (routes, actuals, travel)):
        (split_dir / name).write_text(json.dumps(obj))
    return kept


@pytest.mark.parametrize("keep", [0, 1])
def test_route_with_zero_or_one_stop_sequences_and_scores_zero(synth_dirs, keep):
    tmp_path, data = synth_dirs
    model, sub, rep = (tmp_path / n for n in ("m.zppm", "sub.json", "rep.json"))
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    args = ["--dataset", str(data / "eval")]
    assert main(["sequence", *args, "--model", str(model), "--out", str(sub)]) == 0
    assert main(["evaluate", *args, "--submission", str(sub), "--out", str(rep)]) == 0
    before = json.loads(rep.read_text())["routes"]

    rid = sorted(before)[1]
    kept = _keep_stops(data / "eval", rid, keep)
    assert main(["sequence", *args, "--model", str(model), "--out", str(sub)]) == 0
    assert json.loads(sub.read_text())[rid] == kept
    assert main(["evaluate", *args, "--submission", str(sub), "--out", str(rep)]) == 0
    after = json.loads(rep.read_text())["routes"]
    assert after[rid] == {"sd": 0.0, "erp_cost": 0.0, "erp_edits": 0, "score": 0.0}
    del before[rid], after[rid]
    assert after == before


def test_train_skips_route_without_stops_and_warns(synth_dirs, caplog):
    tmp_path, data = synth_dirs
    train = data / "train"
    rid = sorted(json.loads((train / "routes.json").read_text()))[2]
    _keep_stops(train, rid, 0)
    with caplog.at_level(logging.WARNING, logger="zoneseq"):
        assert main(["train", "--dataset", str(train),
                     "--model", str(tmp_path / "m1.zppm")]) == 0
    assert f"skipped 1 routes without delivery stops: {rid}" in caplog.text

    for name in ("routes.json", "actual_sequences.json", "travel_times.json",
                 "quality.json"):
        body = json.loads((train / name).read_text())
        del body[rid]
        (train / name).write_text(json.dumps(body))
    assert main(["train", "--dataset", str(train),
                 "--model", str(tmp_path / "m2.zppm")]) == 0
    assert (tmp_path / "m1.zppm").read_bytes() == (tmp_path / "m2.zppm").read_bytes()


def test_train_integer_zone_id_exits_1(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    routes_path = data / "train" / "routes.json"
    routes = json.loads(routes_path.read_text())
    rid = sorted(routes)[0]
    sid = sorted(routes[rid]["stops"])[0]
    routes[rid]["stops"][sid]["zone_id"] = 5
    routes_path.write_text(json.dumps(routes))
    code = main(["train", "--dataset", str(data / "train"),
                 "--model", str(tmp_path / "m.zppm")])
    assert code == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and rid in err and sid in err


def test_train_zone_id_the_model_file_cannot_hold_exits_1(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    routes_path = data / "train" / "routes.json"
    routes = json.loads(routes_path.read_text())
    for body in routes.values():
        body["stops"][sorted(body["stops"])[0]]["zone_id"] = "Z" * 70_000
    routes_path.write_text(json.dumps(routes))
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: component 0 token 'ZZZ")
    assert "Traceback" not in err and not model.exists()


def test_train_lowercase_quality_exits_1(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    routes = json.loads((data / "train" / "routes.json").read_text())
    rid = sorted(routes)[0]
    (data / "train" / "quality.json").write_text(json.dumps({rid: "high"}))
    code = main(["train", "--dataset", str(data / "train"),
                 "--model", str(tmp_path / "m.zppm")])
    assert code == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and rid in err and "'High'" in err


def test_threads_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sequence", "--dataset", "d", "--model", "m.zppm",
              "--out", "s.json", "--threads", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_missing_submission_route_exits_1(synth_dirs, tmp_path):
    _, data = synth_dirs
    sub = tmp_path / "empty_sub.json"
    sub.write_text("{}")
    code = main(["evaluate", "--dataset", str(data / "eval"),
                 "--submission", str(sub), "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_config_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 2, "log_level": "INFO",
                               "external_solver": "solver.sh"}))
    parser = cli.build_parser()
    argv = ["bench", "--dataset", "d", "--out", "o", "--config", str(cfg)]

    monkeypatch.setenv("ZSEQ_ORDER", "4")
    monkeypatch.setenv("ZSEQ_LOG_LEVEL", "ERROR")
    settings = cli._load_settings(parser.parse_args(argv + ["--order", "3"]))
    assert settings["order"] == 3                        # flag beats env
    assert settings["log_level"] == logging.ERROR        # env beats config file
    assert settings["external_solver"] == "solver.sh"    # config file beats default
    settings = cli._load_settings(parser.parse_args(argv[:-2]))
    assert settings["external_solver"] is None           # default


# The flags that set a setting read by some command, and one that was removed.
_SETTING_FLAGS = {"--order", "--weights", "--external-solver", "--seed"}
_REQUIRED = {
    "train": ["--dataset", "d", "--model", "m"],
    "sequence": ["--dataset", "d", "--model", "m", "--out", "o"],
    "evaluate": ["--dataset", "d", "--submission", "s", "--out", "o"],
    "synth": ["--out", "o"],
    "bench": ["--dataset", "d", "--out", "o"],
}


@pytest.mark.parametrize("command, reads", [
    ("train", {"--order", "--weights"}),
    ("sequence", {"--external-solver"}),
    ("evaluate", set()),
    ("synth", set()),
    ("bench", {"--order", "--weights", "--external-solver"}),
], ids=["train", "sequence", "evaluate", "synth", "bench"])
def test_command_takes_only_the_settings_it_reads(capsys, command, reads):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed & (_SETTING_FLAGS | {"--config", "--log-level"}) == \
        reads | {"--config", "--log-level"}
    for flag in sorted(_SETTING_FLAGS - reads):
        with pytest.raises(SystemExit) as excinfo:
            main([command, *_REQUIRED[command], flag, "1"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_settings_a_command_does_not_read_do_not_fail_it(synth_dirs, monkeypatch):
    tmp_path, data = synth_dirs
    model, sub = tmp_path / "m.zppm", tmp_path / "sub.json"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    monkeypatch.setenv("ZSEQ_ORDER", "abc")
    monkeypatch.setenv("ZSEQ_WEIGHTS", "x")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 3, "weights": [1, 0, 0, 0]}))
    config = ["--config", str(cfg)]
    assert main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                 "--out", str(sub), *config]) == 0
    assert main(["evaluate", "--dataset", str(data / "eval"), "--submission", str(sub),
                 "--out", str(tmp_path / "rep.json"), *config]) == 0
    assert main(["synth", "--synth-config", str(tmp_path / "synth.json"),
                 "--out", str(tmp_path / "data2"), *config]) == 0


def test_bench_prints_table_and_is_deterministic(synth_dirs, capsys):
    tmp_path, data = synth_dirs
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(["bench", "--dataset", str(data), "--out", str(out1)]) == 0
    assert main(["bench", "--dataset", str(data), "--out", str(out2)]) == 0
    out = capsys.readouterr().out
    assert "alphabetical" in out and "zsgt_oracle" in out
    for name in ("submission_method.json", "report_method.json",
                 "submission_alphabetical.json", "submission_zsgt_oracle.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _one_route_dataset(path):
    path.mkdir(parents=True, exist_ok=True)
    (path / "routes.json").write_text(json.dumps({"r1": {
        "depot": {"lat": 0.0, "lng": 0.0},
        "stops": {"a": {"lat": 0.1, "lng": 0.1, "zone_id": "A-1.1A"}}}}))
    (path / "actual_sequences.json").write_text(json.dumps({"r1": {"depot": 0, "a": 1}}))
    return path


@pytest.mark.parametrize("command", ["train", "bench"])
def test_train_and_bench_reject_a_split_without_actuals_alike(tmp_path, capsys, command):
    data, out = tmp_path / "data", tmp_path / "out"
    _one_route_dataset(data / "train")
    (data / "train" / "actual_sequences.json").unlink()
    _one_route_dataset(data / "eval")
    argv = {"train": ["train", "--dataset", str(data / "train"), "--model", str(out)],
            "bench": ["bench", "--dataset", str(data), "--out", str(out)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "validation error: dataset has no routes with actual sequences to train on\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "bench"])
def test_train_and_bench_name_the_low_routes_of_an_all_low_split(tmp_path, capsys, command):
    data, out = tmp_path / "data", tmp_path / "out"
    _one_route_dataset(data / "train")
    (data / "train" / "quality.json").write_text(json.dumps({"r1": "Low"}))
    _one_route_dataset(data / "eval")
    argv = {"train": ["train", "--dataset", str(data / "train"), "--model", str(out)],
            "bench": ["bench", "--dataset", str(data), "--out", str(out)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "validation error: dataset has no routes to train on: Low quality routes r1"
        " are left out; --include-low keeps them\n"
    )
    assert not out.exists()
    assert main(argv + ["--include-low"]) == 0


def test_bench_names_every_eval_route_without_an_actual_and_writes_nothing(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    _one_route_dataset(data / "train")
    _one_route_dataset(data / "eval")
    stop = {"lat": 0.1, "lng": 0.1, "zone_id": "Z1"}
    (data / "eval" / "routes.json").write_text(json.dumps({
        "r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {"a": stop}},
        "r2": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {"a": stop}},
        "r3": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {}},  # nothing to order or score
        "r4": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {"a": stop}},
    }))
    assert main(["bench", "--dataset", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "validation error: route r2: no actual sequence; route r4: no actual sequence\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "bench"])
def test_train_and_bench_name_the_routes_without_delivery_stops(tmp_path, capsys, caplog,
                                                                command):
    data, out = tmp_path / "data", tmp_path / "out"
    (data / "train").mkdir(parents=True)
    (data / "train" / "routes.json").write_text(json.dumps(
        {"r1": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {}}}))
    (data / "train" / "actual_sequences.json").write_text(json.dumps({"r1": {"depot": 0}}))
    _one_route_dataset(data / "eval")
    argv = {"train": ["train", "--dataset", str(data / "train"), "--model", str(out)],
            "bench": ["bench", "--dataset", str(data), "--out", str(out)]}[command]
    with caplog.at_level(logging.WARNING, logger="zoneseq"):
        assert main(argv) == 1
    assert capsys.readouterr().err == (
        "validation error: dataset has no routes to train on: routes r1 have no delivery stops\n"
    )
    assert "skipped 1 routes without delivery stops: r1" in caplog.text
    assert not out.exists()


def _three_eval_routes(path):
    """A tiny eval split: eval_0000i has the stops a and b, visited in that order."""
    path.mkdir(parents=True)
    routes = {
        f"eval_0000{i}": {"depot": {"lat": 0.0, "lng": 0.0}, "stops": {
            "a": {"lat": 0.1, "lng": 0.1 * i, "zone_id": "A-1.1A"},
            "b": {"lat": 0.2, "lng": 0.2, "zone_id": "A-1.2A"}}}
        for i in range(3)
    }
    (path / "routes.json").write_text(json.dumps(routes))
    (path / "actual_sequences.json").write_text(json.dumps(
        {rid: {"depot": 0, "a": 1, "b": 2} for rid in routes}))
    return path


@pytest.mark.parametrize("bad, message", [
    ({"eval_00000": ["a", "depot", "b"], "eval_00002": ["depot", "a"]},
     "route eval_00000: submission must start at the depot 'depot';"
     " route eval_00002: actual and submitted are not permutations of the same stops"),
    ({"eval_00000": ["depot", "a", "a"], "eval_00001": ["depot", "b", "b"]},
     "route eval_00000: duplicate ids in sequence; route eval_00001: duplicate ids in sequence"),
    ({"eval_00000": 5, "eval_00002": ["depot", "b", "b"]},
     "submission {path}: route eval_00000: expected a list of stop id strings;"
     " route eval_00002: duplicate ids in sequence"),
], ids=["score", "duplicate", "shape-and-duplicate"])
def test_evaluate_names_every_bad_route(tmp_path, capsys, bad, message):
    data = _three_eval_routes(tmp_path / "eval")
    sub, rep = tmp_path / "sub.json", tmp_path / "rep.json"
    sub.write_text(json.dumps(dict(
        {f"eval_0000{i}": ["depot", "a", "b"] for i in range(3)}, **bad)))
    code = main(["evaluate", "--dataset", str(data), "--submission", str(sub),
                 "--out", str(rep)])
    assert code == 1
    assert capsys.readouterr().err == f"validation error: {message.format(path=sub)}\n"
    assert not rep.exists()


@pytest.mark.parametrize("command, env, config, message", [
    ("train", {"ZSEQ_ORDER": "abc"}, None, "order must be an integer, got 'abc'"),
    ("train", {"ZSEQ_ORDER": "70000"}, None, "order must be in 1..65535, got 70000"),
    ("train", {"ZSEQ_WEIGHTS": "a,b,c,d"}, None, "component weights 'a,b,c,d' are not numbers"),
    ("train", {"ZSEQ_WEIGHTS": "nan,0.25,0.25,0.25"}, None, "do not sum to 1"),
    ("train", {"ZSEQ_WEIGHTS": "2,-1,0,0"}, None, "component weights must be non-negative"),
    ("train", {"ZSEQ_LOG_LEVEL": "bogus"}, None, "unknown log level 'bogus'"),
    ("train", {}, [{"order": 2}], "must hold a JSON object, got list"),
    ("train", {}, {"order": 2.5}, "order must be an integer, got 2.5"),
    ("train", {}, {"order": True}, "order must be an integer, got True"),
    ("train", {}, {"seed": 7}, "has an unknown key 'seed'"),
    ("train", {}, {"weights": [True, False, False, False]},
     "component weights [True, False, False, False] are not numbers"),
    ("train", {}, {"weights": ["0.25"] * 4}, "component weights ['0.25', "),
    ("sequence", {}, {"external_solver": 5}, "external_solver must be a string or null, got 5"),
], ids=["order-text", "order-over-u16", "weights-text", "weights-nan", "weights-negative",
        "log-level", "config-list", "config-float-order", "config-bool-order",
        "config-unknown-key", "config-bool-weights", "config-text-weights", "solver-int"])
def test_bad_settings_exit_3_before_training(tmp_path, monkeypatch, capsys,
                                             command, env, config, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    model, out = tmp_path / "m.zppm", tmp_path / "sub.json"
    argv = [command, "--dataset", str(_one_route_dataset(tmp_path / "d")),
            "--model", str(model)]
    if command == "sequence":
        argv += ["--out", str(out)]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not model.exists() and not out.exists()


@pytest.mark.parametrize("config, key", [
    ([], None),
    ({"zones_per_route": 5}, "zones_per_route"),
    ({"zones_per_route": [2, 3, 4]}, "zones_per_route"),
    ({"geo_bbox": [0, 0, "1", 1]}, "geo_bbox"),
    ({"n_train_routes": "x"}, "n_train_routes"),
    ({"n_eval_routes": 2.0}, "n_eval_routes"),
    ({"pattern_strength": True}, "pattern_strength"),
    ({"with_travel_times": 1}, "with_travel_times"),
    ({"no_such_key": 1}, "no_such_key"),
    ({"seed": True}, "seed"),
    ({"zones_per_route": [5, 2]}, "zones_per_route"),
    ({"stops_per_zone": [0, 2]}, "stops_per_zone"),
    ({"pattern_strength": float("nan")}, "pattern_strength"),
    ({"n_zone_templates": 0}, "n_zone_templates"),
    ({"geo_bbox": [95, 0, 96, 1]}, "geo_bbox"),
    ({"geo_bbox": [0, 170, 1, 181]}, "geo_bbox"),
    ({"geo_bbox": [1, 0, 0, 1]}, "geo_bbox"),
    ({"n_train_routes": -5}, "n_train_routes"),
    ({"n_eval_routes": -1}, "n_eval_routes"),
    ({"cluster_sigma_deg": -0.1}, "cluster_sigma_deg"),
], ids=["list", "zones-int", "zones-three", "bbox-text", "routes-text", "routes-float",
        "strength-bool", "travel-times-int", "unknown-key", "seed-bool",
        "zones-reversed", "stops-zero", "strength-nan", "templates-zero", "bbox-lat",
        "bbox-lng", "bbox-reversed", "train-negative", "eval-negative", "sigma-negative"])
def test_bad_synth_config_exits_3_naming_key(tmp_path, capsys, config, key):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    code = main(["synth", "--synth-config", str(cfg), "--out", str(tmp_path / "data")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: synth config ")
    assert repr(key) in err if key else "must hold a JSON object, got list" in err
    assert not (tmp_path / "data").exists()
    if key in synth.SynthConfig.__dataclass_fields__:  # the config checks itself
        with pytest.raises(ValidationError, match=repr(key)):
            synth.SynthConfig(**config)


def test_failing_external_solver_exits_2_naming_it(synth_dirs, monkeypatch, capsys):
    tmp_path, data = synth_dirs
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    for status, fault in ((3, "exited with status 3"), (0, "wrote no tour file")):
        solver = tmp_path / f"solver_exiting_{status}.sh"
        solver.write_text(f"#!/bin/sh\nexit {status}\n")
        solver.chmod(0o755)
        for cpus in ({0}, {0, 1}):  # in-process, then in a pool of two workers
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            code = main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                         "--out", str(tmp_path / "sub.json"), "--external-solver", str(solver)])
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"I/O error: external solver {solver} {fault}\n"
            assert not (tmp_path / "sub.json").exists()


def test_external_solver_past_its_time_limit_exits_2_naming_it(synth_dirs, monkeypatch,
                                                               capsys):
    tmp_path, data = synth_dirs
    pids, children = tmp_path / "pids", tmp_path / "children"
    solver = tmp_path / "slow_solver.sh"
    solver.write_text(f"#!/bin/sh\necho $$ >> {pids}\nexec sleep 30\n")
    # A wrapper that does not exec: its sleep is a child of the solver process.
    wrapper = tmp_path / "slow_wrapper.sh"
    wrapper.write_text(f"#!/bin/sh\nsleep 30 & echo $! >> {children}; wait\n")
    for script in (solver, wrapper):
        script.chmod(0o755)
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    monkeypatch.setattr(tsp, "EXTERNAL_SOLVER_TIMEOUT_S", 0.2)
    for script, cpus in itertools.product((solver, wrapper), ({0}, {0, 1})):
        # in-process, then in a pool of two workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        code = main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                     "--out", str(tmp_path / "sub.json"), "--external-solver", str(script)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"I/O error: external solver {script} timed out after 0.2 s\n"
        assert not (tmp_path / "sub.json").exists()
        assert multiprocessing.active_children() == []
    for pid in map(int, pids.read_text().split()):  # every solver was killed
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    started = [int(pid) for pid in children.read_text().split()]
    assert started and still_running(started) == []  # and so was all they started


def test_bad_external_solver_tour_exits_1_naming_route_and_zone(tmp_path, monkeypatch,
                                                                capsys):
    data, model, (first, _) = _two_eval_routes(tmp_path)
    solver = tmp_path / "bad_tour_solver.sh"
    solver.write_text("#!/bin/sh\n"
                      "tour=$(sed -n 's/^TOUR_FILE = //p' \"$1\")\n"
                      "printf 'TOUR_SECTION\\n1\\nx2\\n-1\\n' > \"$tour\"\n")
    solver.chmod(0o755)
    route = ingest.load_dataset(data / "eval").routes[first]
    zone = rollout.rollout_sequence(ppm.PpmModel.load(model), first, list(route.zone_stops))[0]
    for cpus in ({0}, {0, 1}):  # in-process, then in a pool of two workers
        _cpus(monkeypatch, cpus)
        out = tmp_path / "sub.json"
        code = main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                     "--out", str(out), "--external-solver", str(solver)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"validation error: route {first}: zone {zone}: "
            "tour file has a non-integer node 'x2'\n"
        )
        assert not out.exists()


# -- the route pool ------------------------------------------------------------


def _cpus(monkeypatch, cpus):
    """Make the worker count see an affinity mask of `cpus`."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def _two_eval_routes(tmp_path):
    data = _synth(tmp_path, n_eval_routes=2)
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    return data, model, sorted(json.loads((data / "eval" / "routes.json").read_text()))


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    _cpus(monkeypatch, set(range(64)))
    assert [cli._worker_count(n) for n in (0, 1, 2, 6, 64, 100)] == [1, 1, 2, 6, 64, 64]
    _cpus(monkeypatch, {3})
    assert cli._worker_count(50) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._worker_count(50) == 1


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "pool"])
def test_pool_and_in_process_give_the_golden_bytes(tmp_path, monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    assert _run_pipeline(tmp_path, True) == GOLDEN[True]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "pool"])
def test_failure_names_the_first_failing_route_in_route_id_order(
        tmp_path, monkeypatch, capsys, cpus):
    data, model, (first, second) = _two_eval_routes(tmp_path)

    def fail(route, zone_order, external_solver=None):
        if route.route_id == first:
            time.sleep(0.2)  # in the pool, the second route fails first
        raise ValidationError(f"route {route.route_id}: injected failure")

    monkeypatch.setattr(tsp, "sequence_stops", fail)  # forked workers inherit it
    _cpus(monkeypatch, cpus)
    out = tmp_path / "sub.json"
    code = main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"validation error: route {first}: injected failure\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_a_dead_worker_exits_4_naming_the_routes_it_left_undone(tmp_path, monkeypatch, capsys):
    # Three routes on two workers: the worker given the first route kills
    # itself, as the OOM killer would, while the other is still on the
    # second route and the third waits.
    data = _synth(tmp_path, n_eval_routes=3)
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    rids = sorted(json.loads((data / "eval" / "routes.json").read_text()))
    sequence_stops = tsp.sequence_stops

    def die_on_first(route, zone_order, external_solver=None):
        if route.route_id == rids[0]:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(5)  # the broken pool ends this worker first
        return sequence_stops(route, zone_order, external_solver=external_solver)

    monkeypatch.setattr(tsp, "sequence_stops", die_on_first)  # forked workers inherit it
    _cpus(monkeypatch, {0, 1})
    out = tmp_path / "sub.json"
    start = time.monotonic()
    code = main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                 "--out", str(out)])
    assert code == cli.EXIT_WORKER == 4
    assert capsys.readouterr().err == (
        f"worker error: a pool worker died; routes not sequenced: {', '.join(rids)}\n")
    assert time.monotonic() - start < 5
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_sigterm_stops_the_workers_and_their_solvers(tmp_path, signum):
    # Three routes on two workers, so one route waits for a worker.
    data = _synth(tmp_path, n_eval_routes=3)
    model = tmp_path / "m.zppm"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    pids, out, err = tmp_path / "pids", tmp_path / "sub.json", tmp_path / "stderr"
    # Each solver run records its pid, its parent's (a pool worker) and its child's.
    solver = tmp_path / "slow_solver.sh"
    solver.write_text(f"#!/bin/sh\nsleep 30 & echo $$ $PPID $! >> {pids}; wait\n")
    solver.chmod(0o755)
    # Two workers whatever the host's affinity mask.
    run = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
           "from zoneseq.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    # In a session of its own, as a terminal starts a command: a ^C there
    # reaches the whole process group, the pool workers included.
    with open(err, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-c", run, "sequence", "--dataset", str(data / "eval"),
             "--model", str(model), "--out", str(out), "--external-solver", str(solver)],
            stdout=subprocess.DEVNULL, stderr=stderr, env=env, start_new_session=True)

    def recorded():
        return [line.split() for line in pids.read_text().splitlines()] if pids.exists() else []

    try:
        deadline = time.monotonic() + 60
        while len(recorded()) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        before = recorded()
        if signum == signal.SIGINT:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        code = proc.wait(timeout=20)
        assert len({worker for _, worker, _ in before} - {str(proc.pid)}) == 2
        assert recorded() == before  # no solver started after the signal
        assert still_running([int(pid) for pid in pids.read_text().split()], within=5) == []
        assert code == 128 + signum
        assert "Traceback" not in err.read_text()
        assert not out.exists()
    finally:  # leave nothing running, whatever failed
        for pid in {int(pid) for pid in pids.read_text().split()} if pids.exists() else ():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


BAD_JSON = {
    "truncated": b"{",
    "not-utf8": b"\xff\xfe{}",
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
    "not-an-object": b"[]",
    "duplicate-key": b'{"r1": {"a": 1, "b": 2, "a": 3}}',
    "missing": None,
}


@pytest.mark.parametrize("defect", list(BAD_JSON))
@pytest.mark.parametrize("kind, code", [
    ("dataset", 1), ("submission", 1), ("config", 3), ("synth-config", 3),
])
def test_bad_input_file_exits_naming_it(tmp_path, capsys, kind, code, defect):
    good = _one_route_dataset(tmp_path / "good")
    bad = tmp_path / "bad" / "routes.json"
    out = tmp_path / "out"
    argv = {
        "dataset": ["train", "--dataset", str(bad.parent), "--model", str(out)],
        "submission": ["evaluate", "--dataset", str(good), "--submission", str(bad),
                       "--out", str(out)],
        "config": ["train", "--dataset", str(good), "--model", str(out), "--config", str(bad)],
        "synth-config": ["synth", "--synth-config", str(bad), "--out", str(out)],
    }[kind]
    if BAD_JSON[defect] is None:
        code = 2
    else:
        bad.parent.mkdir()
        bad.write_bytes(BAD_JSON[defect])
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith({1: "validation error: ", 2: "I/O error: ", 3: "config error: "}[code])
    assert str(bad) in err and "Traceback" not in err
    if defect == "duplicate-key":
        assert err.endswith(f"{bad} has the key 'a' twice\n")
    assert not out.exists()


# -- JSON mutation fuzz --------------------------------------------------------

RESERVED_IDS = ("depot", "stz")  # the depot's stop id and zone sentinel
# A value of each JSON type, reserved ids among the strings.
FUZZ_VALUES = (None, True, False, 0, -1, 2.5, "", "x", *RESERVED_IDS, [], ["depot"], {},
               {"stz": 1})


def _json_nodes(value, path=()):
    """(path, value) for every value in a JSON document, the root first."""
    yield path, value
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _json_nodes(child, path + (key,))


def _mutate(doc, rng):
    """(description, copy of `doc` with one edit): a value swapped for one of
    another type, a key deleted or added, or a key or string made a reserved id."""
    doc = copy.deepcopy(doc)
    nodes = list(_json_nodes(doc))
    at = dict(nodes)  # path -> value
    dicts = [(path, node) for path, node in nodes if isinstance(node, dict)]
    strings = [(path, node) for path, node in nodes if path and isinstance(node, str)]
    keys = [(path, key) for path, node in dicts for key in node]
    kind = rng.choice(["type", "delete", "add", "reserved"])
    if kind == "type":
        path, old = rng.choice(nodes)
        new = rng.choice([v for v in FUZZ_VALUES if type(v) is not type(old)])
        if not path:
            return f"root -> {new!r}", new
        at[path[:-1]][path[-1]] = new
        return f"{path} -> {new!r}", doc
    if kind == "delete" and keys:
        path, key = rng.choice(keys)
        del at[path][key]
        return f"del {path + (key,)}", doc
    if kind == "reserved" and (keys or strings):
        new = rng.choice(RESERVED_IDS)
        path, old = rng.choice(keys + strings)
        if (path, old) in keys:  # rename the key
            at[path][new] = at[path].pop(old)
            return f"key {path + (old,)} -> {new!r}", doc
        at[path[:-1]][path[-1]] = new
        return f"{path} -> {new!r}", doc
    path, node = rng.choice(dicts) if dicts else ((), None)
    if node is None:
        return "root -> {}", {}
    key = rng.choice([*RESERVED_IDS, "extra", *node])
    node[key] = rng.choice(FUZZ_VALUES)
    return f"set {path + (key,)}", doc


def test_json_mutations_exit_cleanly_and_write_nothing_on_failure(tmp_path, monkeypatch,
                                                                  capsys):
    # Each input file the commands read, mutated, through each command that reads it.
    small = {"n_train_routes": 3, "n_eval_routes": 2, "zones_per_route": [2, 3],
             "stops_per_zone": [1, 2], "n_zone_templates": 1}
    data = _synth(tmp_path, **small) / "eval"
    model, sub = tmp_path / "m.zppm", tmp_path / "sub.json"
    assert main(["train", "--dataset", str(data), "--model", str(model)]) == 0
    assert main(["sequence", "--dataset", str(data), "--model", str(model),
                 "--out", str(sub)]) == 0
    settings = {"order": 3, "weights": [0.25] * 4, "external_solver": None,
                "log_level": "WARNING"}
    synth_config = dict(SMALL_SYNTH, **small, seed=3, with_travel_times=True)
    good = {name: json.loads((data / name).read_text())
            for name in ("routes.json", "actual_sequences.json", "quality.json",
                         "travel_times.json")}
    good.update({"submission": json.loads(sub.read_text()), "config": settings,
                 "synth-config": synth_config})
    _cpus(monkeypatch, {0})  # in-process: the same checks, without a pool per run
    rng = random.Random(14)
    for case in range(280):
        target = sorted(good)[case % len(good)]
        what, doc = _mutate(good[target], rng)
        case_dir = tmp_path / f"case{case}"
        dataset = case_dir / "data"
        dataset.mkdir(parents=True)
        for name in good:
            if name.endswith(".json"):
                (dataset / name).write_text(json.dumps(doc if name == target else good[name]))
        for name in ("submission", "config", "synth-config"):
            (case_dir / name).write_text(json.dumps(doc if name == target else good[name]))
        out = case_dir / "out"
        d, m, c = str(dataset), str(model), ["--config", str(case_dir / "config")]
        runs = {
            "train": ["train", "--dataset", d, "--model", str(out)] + c,
            "sequence": ["sequence", "--dataset", d, "--model", m, "--out", str(out)] + c,
            "evaluate": ["evaluate", "--dataset", d, "--submission",
                         str(case_dir / "submission"), "--out", str(out)] + c,
            "synth": ["synth", "--synth-config", str(case_dir / "synth-config"),
                      "--out", str(out)],
        }
        commands = {"submission": ["evaluate"], "synth-config": ["synth"]}.get(
            target, ["train", "sequence", "evaluate"])
        for command in commands:
            label = f"case {case}: {target} {what}: {command}"
            code = main(runs[command])
            printed = capsys.readouterr()
            assert code in (0, 1, 2, 3), label
            assert "Traceback" not in printed.out + printed.err, label
            if code:
                assert not out.exists(), label
            elif out.is_dir():
                shutil.rmtree(out)
            else:
                out.unlink()


def test_synth_replaces_a_dataset_already_in_out(tmp_path):
    _synth(tmp_path)
    data = _synth(tmp_path, seed=5, with_travel_times=False)
    assert sorted(p.name for p in (data / "train").iterdir()) == [
        "actual_sequences.json", "quality.json", "routes.json"]
    assert main(["train", "--dataset", str(data / "train"),
                 "--model", str(tmp_path / "m.zppm")]) == 0


def test_failed_write_leaves_the_previous_file(synth_dirs, monkeypatch):
    tmp_path, data = synth_dirs
    model, sub = tmp_path / "m.zppm", tmp_path / "sub.json"
    train = ["train", "--dataset", str(data / "train"), "--model", str(model)]
    sequence = ["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                "--out", str(sub)]
    assert main(train) == 0 and main(sequence) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    encode = json.JSONEncoder.iterencode

    def encode_then_fail(self, obj, *args, **kwargs):
        yield from itertools.islice(encode(self, obj, *args, **kwargs), 100)
        raise RuntimeError("encoder failed midway")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", encode_then_fail)
    with pytest.raises(RuntimeError, match="midway"):
        main(sequence)

    # The dataset files do not go through the JSON encoder: fail their own
    # producer once the first route's chunk is written.
    monkeypatch.undo()
    chunks = ingest._object_chunks

    def chunks_then_fail(*args):
        yield from itertools.islice(chunks(*args), 1)
        raise RuntimeError("producer failed after one route")

    monkeypatch.setattr(ingest, "_object_chunks", chunks_then_fail)
    with pytest.raises(RuntimeError, match="after one route"):
        main(["synth", "--synth-config", str(tmp_path / "synth.json"), "--out", str(data)])
    routes = data / "train" / "routes.json"
    assert routes.read_bytes() == before[routes]
    assert not list(tmp_path.rglob("*.tmp"))

    def fail_replace(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", fail_replace)
    assert main(train) == 2
    after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert after == before


def test_outputs_get_the_mode_of_a_plain_open(tmp_path):
    umask = os.umask(0o022)
    try:
        data = _synth(tmp_path)
        model = tmp_path / "m.zppm"
        assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
        assert main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                     "--out", str(tmp_path / "sub.json")]) == 0
        assert main(["evaluate", "--dataset", str(data / "eval"),
                     "--submission", str(tmp_path / "sub.json"),
                     "--out", str(tmp_path / "rep.json")]) == 0
        assert main(["bench", "--dataset", str(data), "--out", str(tmp_path / "b")]) == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(umask)
    modes = {p.relative_to(tmp_path): stat.S_IMODE(p.stat().st_mode)
             for p in tmp_path.rglob("*") if p.is_file()}
    assert len(modes) == 2 + 8 + 3 + 7  # synth.json and plain, datasets, outputs, bench
    assert set(modes.values()) == {modes[Path("plain")]}
