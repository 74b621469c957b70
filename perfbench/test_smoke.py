"""Smoke test of the benchmark at tiny sizes (about 20 s in all).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def table(lines):
    rows = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "{")):
            rows[parts[0]] = (parts[1], parts[2])
    return rows


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_prints_every_metric(workload):
    lines, result = bench(workload, trace=1)
    rows = table(lines)
    for name, unit in run.END_TO_END.items():
        assert rows[name][1] == unit, name
    assert rows["failed_ratio"] == ("0", "ratio")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.PER_LAYER[name]
        assert isinstance(metric["value"], (int, float)), name


def test_untraced_result_has_end_to_end_metrics():
    _, result = bench("stops-heavy", trace=0)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_program_exits_nonzero(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in ("run.py", "tracing.py"):
        (bench_dir / f).write_bytes((HERE / f).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zones-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    pct, value = run.tail(range(1, 41))
    assert (pct, value) == (75.0, 30)
    assert sum(1 for v in range(1, 41) if v > value) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_self_time_subtracts_direct_children():
    spans = [["root", 0.0, 10.0, None, "c"], ["a", 1.0, 4.0, 0, "r1"],
             ["b", 2.0, 3.0, 1, "r1"], ["c", 5.0, 9.0, 0, "r2"]]
    assert run.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
