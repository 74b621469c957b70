"""Byte contract: synth -> train -> sequence -> evaluate outputs are pinned.

The digests below were recorded from the pipeline before the scorer and the
travel-time matrix moved to dense numpy arrays. A change that alters any of
these bytes must update the constants and say why in CHANGES.md.
"""

import hashlib
import json
import os
import random

import pytest

from zoneseq import ingest, rollout, tsp
from zoneseq.cli import main

CONFIG = {
    "seed": 42,
    "n_train_routes": 10,
    "n_eval_routes": 4,
    "zones_per_route": [5, 8],
    "stops_per_zone": [2, 5],
    "n_zone_templates": 2,
    "pattern_strength": 0.8,
}

# Files that do not depend on the travel times: the stops, actuals, quality
# and the model trained on them.
COMMON = {
    "data/eval/actual_sequences.json":
        "d8be36eba3be5d1bac2bf888ad97633f1df4c89828266667dfd18c2a62d7d56f",
    "data/eval/quality.json":
        "01c5ad06e0d7cc0ad0d0065998e17a55ef3d396bbe731403a4d7cc2e8c067fef",
    "data/eval/routes.json":
        "249daedf35a4e4513a8dd947717464fee5d4cd74d713abe6e26e918299dfc752",
    "data/train/actual_sequences.json":
        "52228b14bdaf6798a899f39f4656f2c12d9ac3a4669bf8f9c325f75c00ab5e3e",
    "data/train/quality.json":
        "a52fe98be822e16ab8273fd18cac10791dd29490219c1556895dc745e3bc9cbc",
    "data/train/routes.json":
        "4f1410a2f283961c96a2cf1ce4743a974b4f2680cd15a24f71ef51dbbf6752e2",
    "model.zppm":
        "a8da8beed4424ba6d27a58fb049f126fb511b292f44f93b2e2982c42df50549e",
}

GOLDEN = {
    True: dict(
        COMMON,
        **{
            "data/eval/travel_times.json":
                "f8086f1af819ab1bc99118139f26a9c01f2347fc676d73d91769de02398eb517",
            "data/train/travel_times.json":
                "288535f3081e85479ec01a6ec9535a2c86d4615e166c3394bde94f9a1c273c03",
            "report.json":
                "d9357b2fa6067de0de6744b8e8dbac3c3e7f09d2127d2b379bbcf66f1a30b306",
            "submission.json":
                "75a6210f55681c0a72882ea4b603a6b386323f96eaa6606b0794fa2ffa3fcb3c",
        },
    ),
    False: dict(
        COMMON,
        **{
            "report.json":
                "c31ebbc52136a45e29c2cef26f4b14182ce397af7771641ec082828ec982f723",
            "submission.json":
                "12697580a1650a0cf2832a0abef018f24e3b416188d2bc70767bb69d4b4e388d",
        },
    ),
}


def _run_pipeline(tmp_path, with_travel_times):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(dict(CONFIG, with_travel_times=with_travel_times)))
    data, model = tmp_path / "data", tmp_path / "model.zppm"
    sub, rep = tmp_path / "submission.json", tmp_path / "report.json"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    assert main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                 "--out", str(sub)]) == 0
    assert main(["evaluate", "--dataset", str(data / "eval"), "--submission", str(sub),
                 "--out", str(rep)]) == 0
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p != cfg)
    return {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


@pytest.mark.parametrize("with_travel_times", [True, False],
                         ids=["travel-times", "haversine"])
def test_pipeline_bytes_match_golden_digests(tmp_path, with_travel_times):
    assert _run_pipeline(tmp_path, with_travel_times) == GOLDEN[with_travel_times]


# The deterministic work of the travel-time run, summed over its eval routes:
# rollout's probability-list reads and computed contexts, and the ATSP
# search's accepted moves, multi-start constructions, numpy scans and
# budget-capped instances. Unlike timings, these do not vary with the host.
WORK = {"prob_calls": 447, "contexts": 344, "moves": 850, "starts": 227,
        "scans": 1784, "budget_exhausted": 0}


def test_pipeline_work_counters_match_golden(tmp_path, monkeypatch):
    totals = dict.fromkeys(WORK, 0)

    def counted(fn):
        def wrapper(*args, **kwargs):
            stats = {}
            result = fn(*args, stats=stats, **kwargs)
            for key, value in stats.items():
                totals[key] += value
            return result
        return wrapper

    # One CPU: `sequence` runs its routes in this process, where the counts land.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(rollout, "rollout_sequence", counted(rollout.rollout_sequence))
    monkeypatch.setattr(tsp, "solve_atsp", counted(tsp.solve_atsp))
    _run_pipeline(tmp_path, with_travel_times=True)
    assert totals == WORK


def _run_blanked_pipeline(tmp_path, with_travel_times):
    """A synth dataset with ~30% of its zone ids blanked (null or ""), loaded
    and written back, then trained on, sequenced and evaluated.

    The zone ids of the written dataset are the imputed ones. The clusters
    are wide enough to overlap, so that a blank stop's nearest zoned stop is
    often in another zone, and the travel times are rounded to whole minutes,
    so that they make ties and rank stops unlike haversine.
    """
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(dict(CONFIG, with_travel_times=with_travel_times,
                                   cluster_sigma_deg=0.02)))
    assert main(["synth", "--synth-config", str(cfg), "--out", str(tmp_path / "raw")]) == 0
    rng = random.Random(30)
    for split in ("train", "eval"):
        raw = tmp_path / "raw" / split
        routes = json.loads((raw / "routes.json").read_text())
        for rid in sorted(routes):
            for sid in sorted(routes[rid]["stops"]):
                if rng.random() < 0.3:
                    routes[rid]["stops"][sid]["zone_id"] = rng.choice([None, ""])
        (raw / "routes.json").write_text(json.dumps(routes))
        if with_travel_times:
            times = json.loads((raw / "travel_times.json").read_text())
            for rows in times.values():
                for row in rows.values():
                    row.update((to, 60 * round(t / 60)) for to, t in row.items())
            (raw / "travel_times.json").write_text(json.dumps(times))
        ingest.write_dataset(ingest.load_dataset(raw), tmp_path / "data" / split)
    data, model = tmp_path / "data", tmp_path / "model.zppm"
    sub, rep = tmp_path / "submission.json", tmp_path / "report.json"
    assert main(["train", "--dataset", str(data / "train"), "--model", str(model)]) == 0
    assert main(["sequence", "--dataset", str(data / "eval"), "--model", str(model),
                 "--out", str(sub)]) == 0
    assert main(["evaluate", "--dataset", str(data / "eval"), "--submission", str(sub),
                 "--out", str(rep)]) == 0
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("data/train/routes.json", "data/eval/routes.json", "model.zppm",
                     "submission.json", "report.json")
    }


# The digests of _run_blanked_pipeline, recorded when the zone imputation
# lived in `ingest`: a change to the imputation rule changes them.
BLANKED = {
    True: {
        "data/train/routes.json":
            "b5a4f1beba5d461ab64e45aa6d6fcea367baf00396b4c47d19bb342a1eb9c634",
        "data/eval/routes.json":
            "3751428e89c21bbd8c9cd3776e804ddfdadac9718fb8298ee959c976778c442b",
        "model.zppm":
            "7730b2733022efdd93e533de380381ef68bc29fa3152796944262b107c4384dd",
        "submission.json":
            "b25ec2abdaf0036859a5da0d13bc3f024897233f7766a4e7d37e95664184053f",
        "report.json":
            "b45f665954ce6bc25f2c12161443adc038cbfcdf07e53fc1dc12fd14f062e5ea",
    },
    False: {
        "data/train/routes.json":
            "558a71ec6d3fd679495eb8ee3fd45ee5a223f02c649fd99dabcf18e220cca8df",
        "data/eval/routes.json":
            "e18500796c818680a28c8f7f6a2bbd17b1a3336cf7a36dd93bbc4baa9c4b2967",
        "model.zppm":
            "7730b2733022efdd93e533de380381ef68bc29fa3152796944262b107c4384dd",
        "submission.json":
            "8018a9844c99bbf72daca02a5d1205ae8b0b5849a704fe4148ac8ed928241eef",
        "report.json":
            "3cda1baf15a4bb63cc9b4ef6914ecdd6ab48c747ecdcdcf36dbe9d1fc2db1455",
    },
}


@pytest.mark.parametrize("with_travel_times", [True, False],
                         ids=["travel-times", "haversine"])
def test_imputed_zone_bytes_match_golden_digests(tmp_path, with_travel_times):
    assert _run_blanked_pipeline(tmp_path, with_travel_times) == BLANKED[with_travel_times]
