"""Batch CLI: zoneseq train | sequence | evaluate | synth | bench.

Each command takes --config, --log-level and the flags of the settings it
reads: `train` order and weights, `sequence` external_solver, `bench` all
three. A setting resolves as CLI flag > ZSEQ_* environment variable > JSON
config file (--config) > built-in default. The synthetic generator's seed
is the --synth-config key `seed` (default 42). Exit codes: 0 success,
1 validation, 2 I/O, 3 configuration, 4 a pool worker died. A JSON input
that is malformed, not UTF-8, too deep or not an object exits 1 naming the
file, or 3 for --config and --synth-config. Every output is written
atomically.

`sequence` and `bench` sequence routes in a pool of forked processes, one
per CPU in the process's affinity mask and at most one per route; with one
CPU or one route they run in-process. `taskset -c 0 zoneseq sequence ...`
runs them in-process. The outputs are the same either way. A worker that
dies, as one the OOM killer ends does, fails the command with exit 4,
naming every route that was running or not yet done; the submission being
sequenced, and its report, are not written.

A ^C (SIGINT) or a SIGTERM ends a command as an exit with status 130 or
143 (128 + the signal) and no traceback: temporary files are removed, an
external solver's processes are killed, pool workers stop without starting
another route, and no output is written.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import ingest, ppm, rollout, scorer, synth, tsp
from .core import StopSequence, ValidationError, check_each, read_json, write_json

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_WORKER = 4


class ConfigError(ValueError):
    pass


class WorkerDied(RuntimeError):
    """A pool worker process ended before it returned the result of every route."""


def _as_config(fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValidationError it raises turned into a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None


def _parse_int(name: str, raw) -> int:
    """An integer setting: a JSON integer, or its decimal text from a flag or env."""
    try:
        if isinstance(raw, (int, str)) and not isinstance(raw, bool):
            return int(raw)
    except ValueError:
        pass
    raise ConfigError(f"{name} must be an integer, got {raw!r}")


def _parse_weights(raw) -> tuple:
    """A list of JSON numbers, or their comma-separated text from a flag or env."""
    try:
        if not isinstance(raw, (list, tuple)):
            return tuple(float(v) for v in str(raw).split(","))
        if all(type(v) in (int, float) for v in raw):  # float() takes true and "0.5"
            return tuple(float(v) for v in raw)
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"component weights {raw!r} are not numbers")


def _parse_external_solver(raw) -> Optional[str]:
    if raw is not None and not isinstance(raw, str):
        raise ConfigError(f"external_solver must be a string or null, got {raw!r}")
    return raw


def _parse_log_level(raw) -> int:
    level = logging.getLevelName(str(raw).upper())
    if not isinstance(level, int):
        raise ConfigError(f"unknown log level {raw!r}")
    return level


# Each setting's (default, parser, flag help). A value resolves as its flag,
# else ZSEQ_<NAME>, else the --config key, else the default, then is parsed.
_SETTINGS = {
    "order": (
        ppm.DEFAULT_ORDER,
        lambda raw: _as_config(ppm.check_order, _parse_int("order", raw)),
        "PPM max context order K",
    ),
    "weights": (
        ppm.DEFAULT_WEIGHTS,
        lambda raw: _as_config(ppm.check_weights, _parse_weights(raw)),
        "four component weights, comma separated",
    ),
    "external_solver": (None, _parse_external_solver, "LKH-style binary"),
    "log_level": ("WARNING", _parse_log_level, "logging level"),
}


def _load_settings(args) -> dict:
    """The checked settings whose flags the command's parser defines.

    The --config file may hold any setting's key, as it is shared by every
    command; a key that names no setting is a ConfigError.
    """
    config_file = {}
    if args.config:
        config_file = _as_config(read_json, args.config, "config file")
        for key in config_file:
            if key not in _SETTINGS:
                raise ConfigError(f"config file {args.config} has an unknown key {key!r}")
    settings = {}
    for name, (default, parse, _) in _SETTINGS.items():
        if hasattr(args, name):
            raw = getattr(args, name)
            if raw is None:
                raw = os.environ.get(f"ZSEQ_{name.upper()}")
            settings[name] = parse(config_file.get(name, default) if raw is None else raw)
    logging.basicConfig(level=settings["log_level"])
    return settings


# -- commands ----------------------------------------------------------------


def _train(dataset, model_path, settings, include_low):
    """Train on `dataset`'s ZSgt corpus and save the model: (model, corpus size, seconds)."""
    corpus = ingest.training_corpus(dataset, include_low=include_low)
    t0 = time.perf_counter()
    model = ppm.train(corpus, max_order=settings["order"], weights=settings["weights"])
    elapsed = time.perf_counter() - t0
    model.save(model_path)
    return model, len(corpus), elapsed


def cmd_train(args, settings) -> int:
    dataset = ingest.load_dataset(args.dataset, costs=False)
    _, n, elapsed = _train(dataset, args.model, settings, args.include_low)
    print(f"trained on {n} zone sequences in {elapsed:.2f}s -> {args.model}")
    return EXIT_OK


def _rollout_zone_order(model):
    return lambda route: rollout.rollout_sequence(model, route.route_id, list(route.zone_stops))


def _alphabetical_zone_order(route) -> Tuple[str, ...]:
    return tuple(route.zone_stops)


def _sequence_route(
    route, zone_order, external_solver
) -> Tuple[str, StopSequence, Tuple[float, float]]:
    """(route id, StopSequence, (zone_ms, stop_ms)) for one route.

    `zone_order(route)` supplies the zone order. A route without delivery
    stops gets the sequence ["depot"].
    """
    rid = route.route_id
    if not route.delivery_stops():
        return rid, StopSequence(route_id=rid, ids=(route.depot.id,)), (0.0, 0.0)
    t0 = time.perf_counter()
    zorder = zone_order(route)
    t1 = time.perf_counter()
    stops = tsp.sequence_stops(route, zorder, external_solver=external_solver)
    t2 = time.perf_counter()
    return rid, stops, ((t1 - t0) * 1000.0, (t2 - t1) * 1000.0)


def _worker_count(n_routes: int) -> int:
    """One process per CPU in this process's affinity mask, at most one per route."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    cpus = len(affinity(0)) if affinity else 1
    return max(1, min(cpus, n_routes))


def _handle_stop_signals(handler) -> dict:
    """Install `handler` for SIGINT and SIGTERM; returns the handlers it replaced."""
    return {sig: signal.signal(sig, handler) for sig in (signal.SIGINT, signal.SIGTERM)}


def _exit_on_signal(signum, frame):
    """SIGINT or SIGTERM as a SystemExit, so that every `finally` and clean-up runs."""
    # Later ones do nothing, so the clean-up finishes. (With SIG_IGN, one
    # already pending would be reported on stderr as "ignored due to race".)
    _handle_stop_signals(lambda signum, frame: None)
    raise SystemExit(128 + signum)


_worker_job = None  # set in each pool worker by _start_worker


def _start_worker(job) -> None:
    global _worker_job
    _worker_job = job
    _handle_stop_signals(_stop_worker)


def _stop_worker(signum, frame):
    """SIGINT or SIGTERM in a pool worker: fail the running route and every later one."""
    global _worker_job
    _worker_job = lambda rid: _exit_on_signal(signum, None)
    _exit_on_signal(signum, frame)


def _run_worker_job(rid: str) -> tuple:
    return _worker_job(rid)


def _sequence_routes(dataset, zone_order, external_solver) -> tuple:
    """Order the stops of every route, in route-id order.

    Routes run in a pool of `_worker_count` forked processes, or in this
    process when that is 1. Workers inherit the dataset and `zone_order`
    (with its model) through fork, so only route ids and results are
    pickled. Results are read in route-id order: a failure raises the error
    of the first failing route, as a loop over the routes would, and a dead
    worker one WorkerDied naming the routes left without a result. Returns
    the submission {route_id: StopSequence} and {route_id: (zone_ms, stop_ms)}.
    """
    rids = sorted(dataset.routes)

    def job(rid):
        return _sequence_route(dataset.routes[rid], zone_order, external_solver)

    workers = _worker_count(len(rids))
    if workers == 1:
        results = [job(rid) for rid in rids]
    else:
        # Imported here, as they add about 10 ms to the start-up of every command.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        # Under fork the initializer's arguments are inherited, not pickled.
        # On an error, leaving the block cancels the routes not yet started and
        # waits for the running ones; no worker is killed, since a worker
        # killed while sending its result can leave a pool's queue locked.
        # On a ^C or SIGTERM (a SystemExit, see main) each worker gets a
        # SIGTERM too, which fails its running route and every later one.
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, fork, _start_worker, (job,)) as pool:
            futures = [pool.submit(_run_worker_job, rid) for rid in rids]
            try:
                results = [future.result() for future in futures]
            except BrokenProcessPool:
                wait(futures)  # a broken pool fails every route it has not finished
                lost = [rid for rid, future in zip(rids, futures)
                        if isinstance(future.exception(), BrokenProcessPool)]
                raise WorkerDied(f"a pool worker died; routes not sequenced: "
                                 f"{', '.join(lost)}") from None
            except SystemExit:
                for worker in multiprocessing.active_children():
                    worker.terminate()
                raise
            finally:  # cancel the routes not yet started; leaving the block waits for the rest
                for future in futures:
                    future.cancel()
    submission = {rid: stops for rid, stops, _ in results}
    timings = {rid: ms for rid, _, ms in results}
    return submission, timings


def _submission_json(submission: Dict[str, StopSequence]) -> dict:
    return {rid: list(seq.ids) for rid, seq in submission.items()}


def cmd_sequence(args, settings) -> int:
    dataset = ingest.load_dataset(args.dataset)
    model = ppm.PpmModel.load(args.model)
    submission, timings = _sequence_routes(
        dataset, _rollout_zone_order(model), settings["external_solver"]
    )
    write_json(args.out, _submission_json(submission))
    if args.per_route_timing:
        for rid, (zone_ms, stop_ms) in timings.items():
            print(f"{rid} zone_sequencing_ms={zone_ms:.1f} stop_sorting_ms={stop_ms:.1f}")
    print(f"sequenced {len(submission)} routes -> {args.out}")
    return EXIT_OK


def load_submission(path) -> Dict[str, StopSequence]:
    """Read {route_id: [stop ids]}; any other JSON shape is a ValidationError naming each route."""
    raw = read_json(path, "submission")

    def sequence(rid):
        ids = raw[rid]
        if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
            raise ValidationError(
                f"submission {path}: route {rid}: expected a list of stop id strings"
            )
        return StopSequence(route_id=rid, ids=tuple(ids))

    return check_each(sorted(raw), sequence)


def cmd_evaluate(args, settings) -> int:
    dataset = ingest.load_dataset(args.dataset)
    submissions = load_submission(args.submission)
    report = scorer.dataset_score(dataset, submissions)
    write_json(args.out, report)
    print(f"mean score: {report['mean_score']:.6f} over {len(report['routes'])} routes")
    return EXIT_OK


def _synth_config(path) -> synth.SynthConfig:
    """The defaults overridden by the JSON object in `path`."""
    raw = _as_config(read_json, path, "synth config") if path else {}
    for key in raw:
        if key not in synth.SynthConfig.__dataclass_fields__:
            raise ConfigError(f"synth config has an unknown key {key!r}")
    return _as_config(synth.SynthConfig, **raw)


def cmd_synth(args, settings) -> int:
    cfg = _synth_config(args.synth_config)
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
    train_ds = ingest.load_dataset(dataset_dir / "train", costs=False)
    eval_ds = ingest.load_dataset(dataset_dir / "eval")
    # Taken before anything is written, so an eval route without an actual is named at once.
    oracle = check_each(
        [rid for rid, route in sorted(eval_ds.routes.items()) if route.delivery_stops()],
        lambda rid: ingest.zsgt(eval_ds.routes[rid]),
    )
    model, _, _ = _train(train_ds, out_dir / "model.zppm", settings, include_low)

    zone_orders = {
        "method": _rollout_zone_order(model),
        "alphabetical": _alphabetical_zone_order,
        "zsgt_oracle": lambda route: oracle[route.route_id],
    }
    scores = {}
    for kind, zone_order in zone_orders.items():
        submission, _ = _sequence_routes(eval_ds, zone_order, settings["external_solver"])
        write_json(out_dir / f"submission_{kind}.json", _submission_json(submission))
        report = scorer.dataset_score(eval_ds, submission)
        write_json(out_dir / f"report_{kind}.json", report)
        scores[kind] = report["mean_score"]
    return scores


def cmd_bench(args, settings) -> int:
    scores = run_bench(args.dataset, args.out, settings, include_low=args.include_low)
    print(f"{'variant':<14} {'mean score':>12}")
    for kind in ("zsgt_oracle", "method", "alphabetical"):
        print(f"{kind:<14} {scores[kind]:>12.6f}")
    return EXIT_OK


# -- entry point -------------------------------------------------------------


def _add_settings(p, *names):
    """--config, --log-level and a flag for each setting in `names`."""
    p.add_argument("--config", help="JSON config file")
    for name in names + ("log_level",):
        p.add_argument("--" + name.replace("_", "-"), dest=name, help=_SETTINGS[name][2])


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
    _add_settings(p, "order", "weights")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sequence", help="produce stop sequences for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-route-timing", action="store_true")
    _add_settings(p, "external_solver")
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("evaluate", help="score a submission against actuals")
    p.add_argument("--dataset", required=True)
    p.add_argument("--submission", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--synth-config", help="JSON file of generator settings")
    p.add_argument("--out", required=True)
    _add_settings(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="compare the method against baselines")
    p.add_argument("--dataset", required=True, help="dir with train/ and eval/")
    p.add_argument("--out", required=True)
    p.add_argument("--include-low", action="store_true")
    _add_settings(p, "order", "weights", "external_solver")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    previous = _handle_stop_signals(_exit_on_signal)
    try:
        return args.func(args, _load_settings(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WorkerDied as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


if __name__ == "__main__":
    sys.exit(main())
