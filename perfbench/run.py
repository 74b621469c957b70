"""zoneseq benchmark: one workload through the CLI, timed per command.

    python3 perfbench/run.py --workload zones-heavy --seed 42 --seconds 30 --trace 0

Generates the workload's dataset with ``zoneseq synth`` (several times, for
the set-up time), then repeats ``zoneseq train``, ``sequence`` and
``evaluate`` for about ``--seconds`` seconds. Every command is a child
process of this one, started one at a time with default settings, no
``--config``/``--threads`` flag and no ``ZSEQ_*`` variable in its
environment. The outputs are checked after every cycle: exit codes, each
submitted route a depot-first permutation of its stops, a complete report,
and sha256 digests of model, submission and report that must not change
between cycles or between runs of one seed on the same source tree.

Wall times are scaled by the host's current speed, measured with a fixed
loop around every command, because the host's speed drifts by up to 1.7x.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` each cycle is run once plain and
once under ``perfbench/tracing.py``, and the JSON holds the per-layer
metrics taken from the spans. The lines before it are a table of every
metric with its unit and a JSON record of the run's environment, digests,
raw wall times and loop times. See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 42
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # every child is killed after this much of the run

# The host's speed changes by up to 1.7x for tens of seconds at a time (the
# core is shared), so a run's wall times move together with it. Every wall
# time is scaled by REF_NOMINAL_S / the reference loop's time measured just
# before and after the command; see README.md, "Timing on a shared host".
REF_ITERATIONS = 300_000
REF_NOMINAL_S = 0.0125

# Route shapes follow the workload descriptions in perfbench/README.md, with
# fixed zone counts and pattern_strength 1.0 so that the routes of one seed
# differ little in cost and score (the README gives the measurements).
WORKLOADS = {
    "zones-heavy": {
        "why": "criterion-5 route shape (30 zones, 2-4 stops each): rollout does most of sequence",
        "synth": {
            "n_train_routes": 30,
            "n_eval_routes": 6,
            "zones_per_route": [30, 30],
            "stops_per_zone": [2, 4],
            "pattern_strength": 1.0,
            "with_travel_times": True,
        },
    },
    "stops-heavy": {
        "why": "7 zones of 15-25 stops: tsp does most of sequence and rollout is bypassed",
        "synth": {
            "n_train_routes": 24,
            "n_eval_routes": 32,
            "zones_per_route": [7, 7],
            "stops_per_zone": [15, 25],
            "pattern_strength": 1.0,
            "with_travel_times": True,
        },
    },
    "train-heavy": {
        "why": "1000 training routes of 30 zones, no travel times: ppm write side, a large model, haversine",
        "synth": {
            "n_train_routes": 1000,
            "n_eval_routes": 6,
            "zones_per_route": [30, 30],
            "stops_per_zone": [3, 3],
            "pattern_strength": 1.0,
            "n_zone_templates": 26,
            "with_travel_times": False,
        },
    },
}

# Smoke-test sizes: same shapes, a few routes each.
TINY_SYNTH = {
    "zones-heavy": {"n_train_routes": 6, "n_eval_routes": 2, "zones_per_route": [6, 6]},
    "stops-heavy": {"n_train_routes": 4, "n_eval_routes": 2, "stops_per_zone": [4, 6]},
    "train-heavy": {"n_train_routes": 30, "n_eval_routes": 2, "zones_per_route": [6, 6]},
}

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "sequence_routes_per_s": "routes/s",
    "evaluate_routes_per_s": "routes/s",
    "peak_rss_mb": "MB",
    "mean_score": "score",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "cli.startup_s": "s",
    "cli.train.self_s": "s",
    "cli.sequence.self_s": "s",
    "cli.evaluate.self_s": "s",
    "synth.generate_s": "s",
    "synth.routes": "count",
    "ingest.load_s": "s",
    "ingest.load_calls": "count",
    "ingest.routes_loaded": "count",
    "ingest.matrix_entries": "count",
    "ingest.write_s": "s",
    "ingest.zsgt_s": "s",
    "ingest.load_share_of_train": "ratio",
    "ppm.train_s": "s",
    "ppm.train_sequences": "count",
    "ppm.contexts": "count",
    "ppm.model_bytes": "bytes",
    "ppm.save_s": "s",
    "ppm.load_s": "s",
    "ppm.prob_calls": "count",
    "ppm.component_prob_calls": "count",
    "ppm.prob_cache_hit_ratio": "ratio",
    "ppm.train_share_of_train": "ratio",
    "rollout.busy_s": "s",
    "rollout.routes": "count",
    "rollout.zones": "count",
    "rollout.route_ms_p50": "ms",
    "rollout.route_ms_tail": "ms",
    "rollout.route_tail_pct": "%",
    "rollout.share_of_sequence": "ratio",
    "tsp.busy_s": "s",
    "tsp.build_s": "s",
    "tsp.solve_s": "s",
    "tsp.instances": "count",
    "tsp.nodes": "count",
    "tsp.route_ms_p50": "ms",
    "tsp.route_ms_tail": "ms",
    "tsp.route_tail_pct": "%",
    "tsp.tour_cost_sum": "cost",
    "tsp.share_of_sequence": "ratio",
    "scorer.busy_s": "s",
    "scorer.routes": "count",
    "scorer.route_ms_p50": "ms",
    "scorer.erp_cells": "count",
    "scorer.share_of_evaluate": "ratio",
    "trace.synth_overhead_s": "s",
    "trace.train_overhead_s": "s",
    "trace.sequence_overhead_s": "s",
    "trace.evaluate_overhead_s": "s",
}

CYCLE_COMMANDS = ("train", "sequence", "evaluate")
OUTPUTS = {"train": "model.zppm", "sequence": "submission.json", "evaluate": "report.json"}
# Runs of each command per plain cycle. The host's speed drifts over seconds,
# so the short commands are sampled more than once per cycle.
REPEATS = {"train": 2, "sequence": 1, "evaluate": 2}


# -- child processes ----------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZSEQ_")}
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def reference_s() -> float:
    """Median time of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(REF_ITERATIONS):
            total += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Starts zoneseq commands one at a time and records wall, RSS and exit.

    ``wall_s`` is the measured wall time and ``norm_s`` the same scaled to
    the reference speed, using the reference loop run around the command.
    """

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.n = 0
        self.ref_s = reference_s()

    def run(self, argv, trace_out=None) -> dict:
        if trace_out is None:
            cmd = [sys.executable, "-m", "zoneseq.cli", *map(str, argv)]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(trace_out), "--"]
            cmd += list(map(str, argv))
        self.n += 1
        log = self.work / f"{self.n:03d}-{argv[0]}"
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = Path(f"{log}.err").read_text(errors="replace")[-2000:]
            print(f"zoneseq {argv[0]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        before, self.ref_s = self.ref_s, reference_s()
        ref = (before + self.ref_s) / 2
        return {
            "wall_s": wall,
            "norm_s": wall * REF_NOMINAL_S / ref,
            "ref_s": ref,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
        }


# -- output checks -------------------------------------------------------------


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    try:
        h.update(path.read_bytes())
    except OSError:
        return "missing"
    return h.hexdigest()


def sha256_tree(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def load_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def check_cycle(eval_routes: dict, submission, report) -> set:
    """Route ids whose submission or report entry is wrong."""
    if not isinstance(submission, dict) or set(submission) - set(eval_routes):
        return set(eval_routes)
    bad = set()
    for rid, body in eval_routes.items():
        ids = submission.get(rid)
        expected = {"depot", *body["stops"]}
        if (
            not isinstance(ids, list)
            or not ids
            or ids[0] != "depot"
            or len(ids) != len(expected)
            or set(ids) != expected
        ):
            bad.add(rid)
    routes = report.get("routes") if isinstance(report, dict) else None
    mean = report.get("mean_score") if isinstance(report, dict) else None
    if not isinstance(routes, dict) or not _finite(mean):
        return set(eval_routes)
    scores = []
    for rid in eval_routes:
        score = (routes.get(rid) or {}).get("score")
        if not _finite(score) or score < 0:
            bad.add(rid)
        else:
            scores.append(score)
    if len(scores) == len(eval_routes) and not math.isclose(
        mean, sum(scores) / len(scores), rel_tol=1e-9, abs_tol=1e-15
    ):
        return set(eval_routes)
    return bad


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# -- trace analysis ------------------------------------------------------------


def self_times(spans) -> list:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def tail(values) -> tuple:
    """(percentile, value): the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    reported as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    # Nearest rank r leaves n - r samples above it; r = n - 10 leaves ten.
    return 100.0 * (n - 10) / n, xs[n - 11]


def layer_metrics(traces: dict, walls: dict) -> dict:
    """Per-layer metrics of one traced cycle plus its traced synth.

    ``traces`` maps command -> trace JSON written by tracing.py, ``walls``
    maps command -> traced child wall time.
    """
    m = {}
    busy = {}  # (command, span name) -> summed self time
    dur = {}  # (command, span name) -> list of span durations
    for cmd, trace in traces.items():
        spans = trace["spans"]
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            busy[cmd, name] = busy.get((cmd, name), 0.0) + own
            dur.setdefault((cmd, name), []).append(end - start)

    def total(cmd, *names):
        return sum(busy.get((cmd, n), 0.0) for n in names)

    def count(cmd, name):
        return traces[cmd]["counts"].get(name, 0)

    m["cli.startup_s"] = statistics.median(
        walls[c] - dur[c, "cli." + c][0] for c in CYCLE_COMMANDS
    )
    for c in CYCLE_COMMANDS:
        m[f"cli.{c}.self_s"] = busy[c, "cli." + c]
    m["synth.generate_s"] = total("synth", "synth.generate")
    m["synth.routes"] = count("synth", "synth.routes")
    m["ingest.load_s"] = sum(total(c, "ingest.load_dataset") for c in CYCLE_COMMANDS)
    for key in ("load_calls", "routes_loaded", "matrix_entries"):
        m["ingest." + key] = sum(count(c, "ingest." + key) for c in CYCLE_COMMANDS)
    m["ingest.write_s"] = total("synth", "ingest.write_dataset")
    m["ingest.zsgt_s"] = total("train", "ingest.training_corpus")
    m["ingest.load_share_of_train"] = total("train", "ingest.load_dataset") / walls["train"]
    m["ppm.train_s"] = total("train", "ppm.train")
    m["ppm.train_sequences"] = count("train", "ppm.train_sequences")
    m["ppm.contexts"] = count("train", "ppm.contexts")
    m["ppm.model_bytes"] = count("train", "ppm.model_bytes")
    m["ppm.save_s"] = total("train", "ppm.save")
    m["ppm.load_s"] = total("sequence", "ppm.load")
    calls = count("sequence", "ppm.prob_calls")
    m["ppm.prob_calls"] = calls
    m["ppm.component_prob_calls"] = count("sequence", "ppm.component_prob_calls")
    m["ppm.prob_cache_hit_ratio"] = count("sequence", "ppm.prob_cache_hits") / max(calls, 1)
    m["ppm.train_share_of_train"] = m["ppm.train_s"] / walls["train"]

    def per_route(layer, name):
        ms = [1000.0 * d for d in dur.get(("sequence", name), [])] or [0.0]
        pct, value = tail(ms)
        m[layer + ".route_ms_p50"] = statistics.median(ms)
        m[layer + ".route_ms_tail"] = value
        m[layer + ".route_tail_pct"] = pct

    m["rollout.busy_s"] = total("sequence", "rollout.rollout_sequence")
    m["rollout.routes"] = count("sequence", "rollout.routes")
    m["rollout.zones"] = count("sequence", "rollout.zones")
    per_route("rollout", "rollout.rollout_sequence")
    m["rollout.share_of_sequence"] = m["rollout.busy_s"] / walls["sequence"]
    m["tsp.busy_s"] = total(
        "sequence", "tsp.sequence_stops", "tsp.build_instance", "tsp.solve_atsp"
    )
    m["tsp.build_s"] = sum(dur.get(("sequence", "tsp.build_instance"), []))
    m["tsp.solve_s"] = sum(dur.get(("sequence", "tsp.solve_atsp"), []))
    m["tsp.instances"] = count("sequence", "tsp.instances")
    m["tsp.nodes"] = count("sequence", "tsp.nodes")
    per_route("tsp", "tsp.sequence_stops")
    m["tsp.tour_cost_sum"] = traces["sequence"]["tour_cost_sum"]
    m["tsp.share_of_sequence"] = m["tsp.busy_s"] / walls["sequence"]
    m["scorer.busy_s"] = total("evaluate", "scorer.dataset_score", "scorer.route_score")
    m["scorer.routes"] = count("evaluate", "scorer.routes")
    m["scorer.route_ms_p50"] = statistics.median(
        [1000.0 * d for d in dur.get(("evaluate", "scorer.route_score"), [])] or [0.0]
    )
    m["scorer.erp_cells"] = count("evaluate", "scorer.erp_cells")
    m["scorer.share_of_evaluate"] = m["scorer.busy_s"] / walls["evaluate"]
    return m


# -- one benchmark run ---------------------------------------------------------


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "loadavg_1m": os.getloadavg()[0],
    }


def synth_config(workload: str, seed: int, tiny: bool) -> dict:
    cfg = dict(WORKLOADS[workload]["synth"], seed=seed)
    if tiny:
        cfg.update(TINY_SYNTH[workload])
    return cfg


def source_digest() -> str:
    """Digest of the program's sources and of this file (which fixes the inputs)."""
    h = hashlib.sha256()
    for f in [*sorted(SRC.rglob("*.py")), HERE / "run.py"]:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def remembered_digests(key: str, digests: dict) -> dict:
    """Digests stored by an earlier run of this key, storing ours if none."""
    path = WORK / "digests.json"
    known = load_json(path) or {}
    if key not in known:
        known[key] = digests
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
        os.replace(tmp, path)
    return known[key]


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    started = time.monotonic()
    env_info = environment()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench(workload, seed, seconds, trace, tiny, work, started, env_info)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(workload, seed, seconds, trace, tiny, work, started, env_info) -> dict:
    runner = Runner(work, started + RUN_LIMIT_S)
    cfg_path = work / "synth.json"
    cfg_path.write_text(json.dumps(synth_config(workload, seed, tiny), sort_keys=True))
    # Compile the package once so no timed child pays for writing bytecode.
    runner.run(["--help"])

    setups = []  # (result, dataset digest)
    traces = {}
    for i in range(2 if trace else SETUP_REPEATS):
        out = work / f"data{i}"
        trace_out = work / f"synth{i}.trace.json" if trace and i == 1 else None
        res = runner.run(["synth", "--synth-config", cfg_path, "--out", out], trace_out)
        setups.append((res, sha256_tree(out) if res["exit"] == 0 else "failed"))
        if trace_out is not None:
            traces["synth"] = load_json(trace_out)
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)
    data = work / "data0"
    eval_routes = load_json(data / "eval" / "routes.json") or {}
    n_eval = max(len(eval_routes), 1)

    cycles = []
    t_loop = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            cycles.append(_cycle(runner, data, work / f"cycle{len(cycles)}", traced, eval_routes))
        last = time.perf_counter() - t_iter
        # At least two cycles (with tracing, one plain and one traced), so that
        # no plain timing rests on a single sample.
        if len(cycles) >= 2 and time.perf_counter() - t_loop + last > seconds:
            break

    # -- correctness -----------------------------------------------------
    first = cycles[0]["digests"]
    failed_routes = 0
    for c in cycles:
        exits = [r["exit"] for rs in c["results"].values() for r in rs]
        if any(exits) or c["digests"] != first:
            failed_routes += len(eval_routes)
        else:
            failed_routes += len(c["bad_routes"])
    digests = dict(first, dataset=setups[0][1])
    setup_ok = all(res["exit"] == 0 and d == setups[0][1] for res, d in setups)
    key = f"{workload}|{seed}|{'tiny' if tiny else 'full'}|{source_digest()}"
    stable = setup_ok and remembered_digests(key, digests) == digests
    attempted = len(eval_routes) * len(cycles) or 1
    if not stable or not eval_routes:
        failed_routes = attempted

    # -- metrics ---------------------------------------------------------
    plain = [c for c in cycles if not c["traced"]]
    runs = {cmd: [r for c in plain for r in c["results"][cmd]] for cmd in CYCLE_COMMANDS}
    runs["synth"] = [res for res, _ in setups[: 1 if trace else None]]
    med = {cmd: statistics.median(r["norm_s"] for r in rs) for cmd, rs in runs.items()}
    raw = {cmd: statistics.median(r["wall_s"] for r in rs) for cmd, rs in runs.items()}
    report = plain[0]["report"]
    e2e = {
        "setup_s": med["synth"],
        "train_s": med["train"],
        "sequence_routes_per_s": n_eval / med["sequence"],
        "evaluate_routes_per_s": n_eval / med["evaluate"],
        "peak_rss_mb": max(r["rss_mb"] for cmd in CYCLE_COMMANDS for r in runs[cmd]),
        "mean_score": (report or {}).get("mean_score"),
        "ok_ratio": 1.0 - failed_routes / attempted,
    }
    unscaled = {
        "setup_s": raw["synth"],
        "train_s": raw["train"],
        "sequence_routes_per_s": n_eval / raw["sequence"],
        "evaluate_routes_per_s": n_eval / raw["evaluate"],
    }
    layers = {}
    traced_cycles = [c for c in cycles if c["traced"] and c["traces"] is not None]
    if trace and traced_cycles and traces.get("synth"):
        per_cycle = [
            layer_metrics(
                dict(c["traces"], synth=traces["synth"]),
                {cmd: c["results"][cmd][0]["wall_s"] for cmd in CYCLE_COMMANDS},
            )
            for c in traced_cycles
        ]
        layers = {k: statistics.median(d[k] for d in per_cycle) for k in per_cycle[0]}
        for cmd in CYCLE_COMMANDS:
            traced = statistics.median(c["results"][cmd][0]["norm_s"] for c in traced_cycles)
            layers[f"trace.{cmd}_overhead_s"] = traced - med[cmd]
        layers["trace.synth_overhead_s"] = setups[1][0]["norm_s"] - setups[0][0]["norm_s"]
    elif trace:
        failed_routes = attempted

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cycles": len(cycles),
        "eval_routes": len(eval_routes),
        "attempted": attempted,
        "failed": failed_routes,
        "failed_ratio": failed_routes / attempted,
        "digests": digests,
        "walls": {cmd: [r["wall_s"] for r in rs] for cmd, rs in runs.items()},
        "ref_s": {cmd: [r["ref_s"] for r in rs] for cmd, rs in runs.items()},
        "environment": env_info,
        "end_to_end": e2e,
        "unscaled": unscaled,
        "per_layer": layers,
    }


def _cycle(runner: Runner, data: Path, out: Path, traced: bool, eval_routes: dict) -> dict:
    """Train, sequence and evaluate; a plain cycle repeats the short commands."""
    out.mkdir()
    files = {cmd: out / name for cmd, name in OUTPUTS.items()}
    argvs = {
        "train": ["train", "--dataset", data / "train", "--model", files["train"]],
        "sequence": [
            "sequence", "--dataset", data / "eval", "--model", files["train"],
            "--out", files["sequence"],
        ],
        "evaluate": [
            "evaluate", "--dataset", data / "eval", "--submission", files["sequence"],
            "--out", files["evaluate"],
        ],
    }
    results, digests, traces = {}, {}, {}
    for cmd, argv in argvs.items():
        trace_out = out / f"{cmd}.trace.json" if traced else None
        seen = set()
        for _ in range(1 if traced else REPEATS[cmd]):
            results.setdefault(cmd, []).append(runner.run(argv, trace_out))
            seen.add(sha256_file(files[cmd]))
        digests[OUTPUTS[cmd]] = seen.pop() if len(seen) == 1 else "differs between repeats"
        if traced:
            traces[cmd] = load_json(trace_out)
    submission, report = load_json(files["sequence"]), load_json(files["evaluate"])
    cycle = {
        "traced": traced,
        "results": results,
        "traces": traces if traced and all(traces.values()) else None,
        "report": report,
        "digests": digests,
        "bad_routes": check_cycle(eval_routes, submission, report),
    }
    shutil.rmtree(out, ignore_errors=True)
    return cycle


# -- output --------------------------------------------------------------------


def result_line(run: dict) -> dict:
    metrics = run["per_layer"] if run["trace"] else run["end_to_end"]
    units = PER_LAYER if run["trace"] else END_TO_END
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }


def print_table(run: dict) -> None:
    print(f"# zoneseq benchmark: workload={run['workload']} seed={run['seed']} "
          f"cycles={run['cycles']} eval_routes={run['eval_routes']}")
    rows = [(k, run["end_to_end"][k], u) for k, u in END_TO_END.items()]
    rows.append(("failed_ratio", run["failed_ratio"], "ratio"))
    rows += [("unscaled." + k, v, END_TO_END[k]) for k, v in run["unscaled"].items()]
    if run["trace"]:
        rows += [(k, run["per_layer"].get(k), u) for k, u in PER_LAYER.items()]
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<30} {shown:>14} {unit}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure cycles for about this long (at least two cycles)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zoneseq" / "cli.py").is_file():
        print(f"zoneseq sources not found under {SRC}", file=sys.stderr)
        return 2
    run = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print_table(run)
    print(json.dumps({"run": {k: run[k] for k in (
        "workload", "seed", "trace", "cycles", "eval_routes", "digests", "walls", "ref_s",
        "environment")}},
        sort_keys=True))
    print(json.dumps(result_line(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
