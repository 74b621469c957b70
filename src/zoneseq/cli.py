"""Batch CLI: zoneseq train | sequence | evaluate | synth | bench.

Configuration precedence for shared knobs: CLI flag > ZSEQ_* environment
variable > JSON config file (--config) > built-in default. All randomness
flows from --seed (default 42). Exit codes: 0 success, 1 validation,
2 I/O, 3 configuration.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import ingest, ppm, rollout, scorer, synth, tsp
from .core import StopSequence, ValidationError, ZoneSequence

log = logging.getLogger("zoneseq")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_CONFIG = 3

DEFAULTS = {
    "order": ppm.DEFAULT_ORDER,
    "weights": "0.25,0.25,0.25,0.25",
    "seed": 42,
    "external_solver": None,
    "log_level": "WARNING",
}


class ConfigError(ValueError):
    pass


def resolve_setting(name: str, flag_value, config_file: Optional[dict]):
    """flag > env (ZSEQ_<NAME>) > config file > default."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(f"ZSEQ_{name.upper()}")
    if env is not None:
        return env
    if config_file and name in config_file:
        return config_file[name]
    return DEFAULTS[name]


def _parse_weights(raw) -> tuple:
    if isinstance(raw, (list, tuple)):
        vals = [float(v) for v in raw]
    else:
        vals = [float(v) for v in str(raw).split(",")]
    if len(vals) != 4:
        raise ConfigError(f"expected 4 component weights, got {len(vals)}")
    if abs(sum(vals) - 1.0) > 1e-12:
        raise ConfigError(f"component weights {vals} do not sum to 1")
    return tuple(vals)


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=1).encode("utf-8"))


def _load_settings(args) -> dict:
    config_file = None
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as f:
            config_file = json.load(f)
    settings = {}
    for name in DEFAULTS:
        settings[name] = resolve_setting(name, getattr(args, name, None), config_file)
    settings["order"] = int(settings["order"])
    settings["seed"] = int(settings["seed"])
    settings["weights"] = _parse_weights(settings["weights"])
    logging.basicConfig(level=str(settings["log_level"]).upper())
    return settings


# -- commands ----------------------------------------------------------------


def cmd_train(args) -> int:
    settings = _load_settings(args)
    dataset = ingest.load_dataset(args.dataset, ingest.Split.TRAIN)
    corpus = ingest.training_corpus(dataset, include_low=args.include_low)
    if not corpus:
        raise ValidationError("dataset has no routes with actual sequences to train on")
    t0 = time.perf_counter()
    model = ppm.train(corpus, max_order=settings["order"], weights=settings["weights"])
    elapsed = time.perf_counter() - t0
    model.save(args.model)
    print(f"trained on {len(corpus)} zone sequences in {elapsed:.2f}s -> {args.model}")
    return EXIT_OK


def _rollout_zone_order(model):
    return lambda route: rollout.rollout_sequence(model, route.route_id, route.zones())


def _alphabetical_zone_order(route) -> ZoneSequence:
    return ZoneSequence(route_id=route.route_id, zones=tuple(sorted(route.zones())))


def _sequence_routes(dataset, zone_order, external_solver) -> tuple:
    """Order the stops of every route, in route-id order.

    `zone_order(route)` supplies each route's zone order. Returns the
    submission {route_id: StopSequence} and {route_id: (zone_ms, stop_ms)}.
    """
    submission: Dict[str, StopSequence] = {}
    timings: Dict[str, Tuple[float, float]] = {}
    for rid in sorted(dataset.routes):
        route = dataset.routes[rid]
        t0 = time.perf_counter()
        zorder = zone_order(route)
        t1 = time.perf_counter()
        submission[rid] = tsp.sequence_stops(route, zorder, external_solver=external_solver)
        t2 = time.perf_counter()
        timings[rid] = ((t1 - t0) * 1000.0, (t2 - t1) * 1000.0)
    return submission, timings


def _submission_json(submission: Dict[str, StopSequence]) -> dict:
    return {rid: list(seq.ids) for rid, seq in submission.items()}


def cmd_sequence(args) -> int:
    settings = _load_settings(args)
    dataset = ingest.load_dataset(args.dataset, ingest.Split.EVAL)
    model = ppm.PpmModel.load(args.model)
    submission, timings = _sequence_routes(
        dataset, _rollout_zone_order(model), settings["external_solver"]
    )
    _atomic_write_json(Path(args.out), _submission_json(submission))
    if args.per_route_timing:
        for rid, (zone_ms, stop_ms) in timings.items():
            print(f"{rid} zone_sequencing_ms={zone_ms:.1f} stop_sorting_ms={stop_ms:.1f}")
    print(f"sequenced {len(submission)} routes -> {args.out}")
    return EXIT_OK


def load_submission(path) -> Dict[str, StopSequence]:
    """Read {route_id: [stop ids]}; any other JSON shape is a ValidationError."""
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValidationError(
            f"submission {path}: expected a JSON object of route id -> stop ids, "
            f"got {type(raw).__name__}"
        )
    for rid, ids in raw.items():
        if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
            raise ValidationError(
                f"submission {path}: route {rid}: expected a list of stop id strings"
            )
    return {
        rid: StopSequence(route_id=rid, ids=tuple(ids)) for rid, ids in raw.items()
    }


def cmd_evaluate(args) -> int:
    _load_settings(args)
    dataset = ingest.load_dataset(args.dataset, ingest.Split.EVAL)
    submissions = load_submission(args.submission)
    report = scorer.dataset_score(dataset, submissions)
    _atomic_write_json(Path(args.out), report.to_json_dict())
    print(f"mean score: {report.mean_score:.6f} over {len(report.per_route)} routes")
    return EXIT_OK


def cmd_synth(args) -> int:
    settings = _load_settings(args)
    cfg_kwargs = {}
    if args.synth_config:
        with open(args.synth_config, "r", encoding="utf-8") as f:
            cfg_kwargs = json.load(f)
    cfg_kwargs.setdefault("seed", settings["seed"])
    for key in ("zones_per_route", "stops_per_zone", "geo_bbox"):
        if key in cfg_kwargs:
            cfg_kwargs[key] = tuple(cfg_kwargs[key])
    try:
        cfg = synth.SynthConfig(**cfg_kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad synth config: {exc}")
    train_ds, eval_ds = synth.generate(cfg)
    out = Path(args.out)
    ingest.write_dataset(train_ds, out / "train")
    ingest.write_dataset(eval_ds, out / "eval")
    print(
        f"wrote {len(train_ds.routes)} train / {len(eval_ds.routes)} eval routes -> {out}"
    )
    return EXIT_OK


def run_bench(dataset_dir, out_dir, settings, include_low=False) -> Dict[str, float]:
    """Train + sequence + evaluate the method against two reference baselines.

    Returns {"method": score, "alphabetical": score, "zsgt_oracle": score}
    and leaves submissions/reports under out_dir.
    """
    dataset_dir = Path(dataset_dir)
    out_dir = Path(out_dir)
    train_ds = ingest.load_dataset(dataset_dir / "train", ingest.Split.TRAIN)
    eval_ds = ingest.load_dataset(dataset_dir / "eval", ingest.Split.EVAL)
    corpus = ingest.training_corpus(train_ds, include_low=include_low)
    model = ppm.train(corpus, max_order=settings["order"], weights=settings["weights"])
    model_path = out_dir / "model.zppm"
    out_dir.mkdir(parents=True, exist_ok=True)
    model.save(model_path)

    zone_orders = {
        "method": _rollout_zone_order(model),
        "alphabetical": _alphabetical_zone_order,
        "zsgt_oracle": ingest.zsgt,
    }
    scores = {}
    for kind, zone_order in zone_orders.items():
        submission, _ = _sequence_routes(eval_ds, zone_order, settings["external_solver"])
        _atomic_write_json(out_dir / f"submission_{kind}.json", _submission_json(submission))
        report = scorer.dataset_score(eval_ds, submission)
        _atomic_write_json(out_dir / f"report_{kind}.json", report.to_json_dict())
        scores[kind] = report.mean_score
    return scores


def cmd_bench(args) -> int:
    settings = _load_settings(args)
    scores = run_bench(args.dataset, args.out, settings, include_low=args.include_low)
    print(f"{'variant':<14} {'mean score':>12}")
    for kind in ("zsgt_oracle", "method", "alphabetical"):
        print(f"{kind:<14} {scores[kind]:>12.6f}")
    return EXIT_OK


# -- entry point -------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--order", type=int, help="PPM max context order K")
    p.add_argument("--weights", help="four component weights, comma separated")
    p.add_argument("--seed", type=int, help="global random seed")
    p.add_argument("--external-solver", dest="external_solver", help="LKH-style binary")
    p.add_argument("--log-level", dest="log_level", help="logging level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zoneseq",
        description="Learn driver zone-visit patterns and sequence delivery routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the zone-sequence model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--include-low", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sequence", help="produce stop sequences for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-route-timing", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("evaluate", help="score a submission against actuals")
    p.add_argument("--dataset", required=True)
    p.add_argument("--submission", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--synth-config", help="JSON file of generator settings")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="compare the method against baselines")
    p.add_argument("--dataset", required=True, help="dir with train/ and eval/")
    p.add_argument("--out", required=True)
    p.add_argument("--include-low", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
