"""perfbench/tracing.py still finds the functions it wraps.

The benchmark's traced run replaces module and class attributes of zoneseq
by name, so renaming or re-signing one of them breaks it without failing
any other test here. The file spans are checked for every command, the
corpus and training spans and counters for `train`, the scorer's spans and
counters for `evaluate`, and the route stages for a `sequence` run pinned
to one CPU.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zoneseq.ingest import load_dataset

ROOT = Path(__file__).resolve().parents[1]


def test_traced_commands_record_their_file_spans(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({
        "n_train_routes": 4, "n_eval_routes": 2, "zones_per_route": [3, 4],
        "stops_per_zone": [1, 2], "n_zone_templates": 2,
    }))
    data, model, sub = tmp_path / "data", tmp_path / "m.zppm", tmp_path / "sub.json"
    commands = [
        ["synth", "--synth-config", cfg, "--out", data],
        ["train", "--dataset", data / "train", "--model", model],
        ["sequence", "--dataset", data / "eval", "--model", model, "--out", sub],
        ["evaluate", "--dataset", data / "eval", "--submission", sub,
         "--out", tmp_path / "rep.json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pin = getattr(os, "sched_setaffinity", None)  # absent on macOS and Windows

    def one_cpu():
        # The route stages run in this process only: a pool worker's spans are lost.
        pin(0, {min(os.sched_getaffinity(0))})

    results, spans = {}, {}
    for argv in commands:
        trace = tmp_path / f"{argv[0]}.trace.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(trace), "--",
             *map(str, argv)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=one_cpu if pin and argv[0] == "sequence" else None,
        )
        assert proc.returncode == 0, proc.stderr
        result = results[argv[0]] = json.loads(trace.read_text())
        assert result["exit"] == 0
        spans[argv[0]] = {span[0] for span in result["spans"]}
    assert "ingest.write_dataset" in spans["synth"]
    assert {"ingest.load_dataset", "ingest.training_corpus", "ppm.train",
            "ppm.save"} <= spans["train"]
    trained = results["train"]["counts"]
    assert trained["ppm.train_sequences"] == 4  # every training route of the config
    assert trained["ppm.contexts"] > 0
    assert {"ingest.load_dataset", "ppm.load"} <= spans["sequence"]
    assert {"ingest.load_dataset", "scorer.dataset_score",
            "scorer.route_score"} <= spans["evaluate"]
    routes = load_dataset(data / "eval").routes.values()
    scored = results["evaluate"]["counts"]
    assert scored["scorer.routes"] == len(routes) == 2
    assert scored["scorer.erp_cells"] > 0
    if pin is None:
        pytest.skip("sequence cannot be pinned to one CPU, so its route spans are not kept")
    assert {"rollout.rollout_sequence", "tsp.sequence_stops", "tsp.build_instance",
            "tsp.solve_atsp"} <= spans["sequence"]
    counts = results["sequence"]["counts"]
    assert counts["rollout.routes"] == 2
    assert counts["tsp.instances"] == sum(len(route.zone_stops) for route in routes)
