import json
import os

import pytest

from zoneseq import cli
from zoneseq.cli import main


@pytest.fixture
def synth_dirs(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({
        "n_train_routes": 12, "n_eval_routes": 3,
        "zones_per_route": [4, 6], "stops_per_zone": [1, 3],
        "n_zone_templates": 2,
    }))
    data = tmp_path / "data"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(data)]) == 0
    return tmp_path, data


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
    assert "zone_sequencing_ms=" in out and "stop_sorting_ms=" in out
    submission = json.loads(sub.read_text())
    routes = json.loads((data / "eval" / "routes.json").read_text())
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
    cfg.write_text(json.dumps({"order": 2, "seed": 7}))

    class Args:
        config = str(cfg)
        order = None
        weights = None
        seed = 3
        external_solver = None
        log_level = None

    monkeypatch.setenv("ZSEQ_ORDER", "4")
    settings = cli._load_settings(Args())
    assert settings["order"] == 4        # env beats config file
    assert settings["seed"] == 3         # flag beats everything
    monkeypatch.delenv("ZSEQ_ORDER")
    settings = cli._load_settings(Args())
    assert settings["order"] == 2        # config file beats default
    assert settings["external_solver"] is None  # default


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
