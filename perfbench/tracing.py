"""Child-process bootstrap for the traced benchmark run.

    python3 perfbench/tracing.py TRACE_OUT -- ZONESEQ_ARGS...

Installs span wrappers on the public functions of each zoneseq module, runs
``zoneseq.cli.main(ZONESEQ_ARGS)`` under a root span named after the
command, and writes the spans and counters to TRACE_OUT as JSON when the
command returns. The program itself is not modified: every caller in it
reaches these functions through a module attribute, a module global or a
class attribute, so replacing those attributes catches each layer boundary.

A span is ``[name, start, end, parent, trace_id]``. Times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, shared with the parent).
``parent`` is the index of the enclosing span or None for the root. Spans
of one route carry its route id as trace id; other spans inherit the id of
their parent, and the root carries the command name. Counters are gathered
after a wrapped call returns, outside its span. ``PpmModel.prob`` and
``PpmModel.component_prob`` are counted but not timed, because they run
over a hundred thousand times per route.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.tours = []  # (cost matrix, tour) pairs, costed after the command
        self._stack = []
        self._tallies = {}  # counter name -> function reading it once at exit

    def wrap(self, fn, name, trace_id=None, observe=None):
        """Return ``fn`` timed as span ``name``.

        ``trace_id(*args, **kwargs)`` names the span's trace; by default it
        inherits the parent's. ``observe(result, *args, **kwargs)`` runs after
        the span has ended, to update counters.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if trace_id is not None:
                tid = trace_id(*args, **kwargs)
            else:
                tid = spans[parent][4] if parent is not None else None
            record = [name, 0.0, 0.0, parent, tid]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return traced

    def count_component_prob(self, fn):
        """Count ``PpmModel.component_prob`` calls, at the least cost per call."""
        calls = itertools.count()
        self._tallies["ppm.component_prob_calls"] = lambda: next(calls)

        @functools.wraps(fn)
        def counted(self_, k, context, token):
            next(calls)
            return fn(self_, k, context, token)

        return counted

    def count_prob(self, fn):
        """Count ``PpmModel.prob`` calls and the ones its memo dict answered.

        A computed answer always adds one entry to the memo, so the misses of
        one memo are its final size. Rollout uses one memo per route, so a
        memo is complete once the next one is first seen.
        """
        calls, uncached = itertools.count(), itertools.count()
        current, finished = [{}], [0]  # the memo in use; misses of earlier ones

        @functools.wraps(fn)
        def counted(self_, context, candidate, cache=None):
            next(calls)
            if cache is None:
                next(uncached)
            elif cache is not current[0]:
                finished[0] += len(current[0])
                current[0] = cache
            return fn(self_, context, candidate, cache)

        def read():
            n = next(calls)
            self.counts["ppm.prob_calls"] = n
            return n - next(uncached) - finished[0] - len(current[0])

        self._tallies["ppm.prob_cache_hits"] = read
        return counted

    def dump(self, path, command, exit_code):
        from zoneseq import tsp

        # Each tally reads an itertools.count by advancing it, so read once.
        for name, read in self._tallies.items():
            self.counts[name] = read()

        tour_cost_sum = sum(tsp.tour_cost(cost, tour) for cost, tour in self.tours)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "command": command,
                    "exit": exit_code,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "tour_cost_sum": tour_cost_sum,
                },
                f,
            )


def install(tracer: Tracer) -> None:
    """Replace the layer-boundary attributes of every zoneseq module."""
    from zoneseq import ingest, ppm, rollout, scorer, synth, tsp

    counts = tracer.counts

    def add(name, value):
        counts[name] += value

    def on_generate(result, cfg):
        add("synth.routes", sum(len(ds.routes) for ds in result))

    def on_load(dataset, *args, **kwargs):
        add("ingest.load_calls", 1)
        add("ingest.routes_loaded", len(dataset.routes))
        add(
            "ingest.matrix_entries",
            sum(
                len(r.travel_times.ids) ** 2
                for r in dataset.routes.values()
                if r.travel_times is not None
            ),
        )

    def on_train(model, corpus, *args, **kwargs):
        add("ppm.train_sequences", len(corpus))
        add("ppm.contexts", sum(len(tables) for tables in model.counts))

    def on_model_file(result, model_or_cls, path):
        counts["ppm.model_bytes"] = os.path.getsize(path)

    def on_rollout(result, model, route_id, zones, *args, **kwargs):
        add("rollout.routes", 1)
        add("rollout.zones", len(zones))

    def on_instance(instance, *args, **kwargs):
        add("tsp.instances", 1)
        add("tsp.nodes", instance.n)

    def on_solve(tour, instance, *args, **kwargs):
        tracer.tours.append((instance.cost, tuple(tour)))

    def on_route_score(result, route, submitted):
        depot = route.depot.id
        n = sum(1 for sid in route.actual.ids if sid != depot)
        m = sum(1 for sid in submitted.ids if sid != depot)
        add("scorer.routes", 1)
        add("scorer.erp_cells", (n + 1) * (m + 1))

    def by_route(route, *args, **kwargs):
        return route.route_id

    def by_route_id(model, route_id, *args, **kwargs):
        return route_id

    wrap = tracer.wrap
    synth.generate = wrap(synth.generate, "synth.generate", observe=on_generate)
    ingest.load_dataset = wrap(ingest.load_dataset, "ingest.load_dataset", observe=on_load)
    ingest.write_dataset = wrap(ingest.write_dataset, "ingest.write_dataset")
    ingest.training_corpus = wrap(ingest.training_corpus, "ingest.training_corpus")
    ppm.train = wrap(ppm.train, "ppm.train", observe=on_train)
    model_cls = ppm.PpmModel
    model_cls.save = wrap(model_cls.save, "ppm.save", observe=on_model_file)
    model_cls.load = classmethod(
        wrap(model_cls.load.__func__, "ppm.load", observe=on_model_file)
    )
    model_cls.prob = tracer.count_prob(model_cls.prob)
    model_cls.component_prob = tracer.count_component_prob(model_cls.component_prob)
    rollout.rollout_sequence = wrap(
        rollout.rollout_sequence,
        "rollout.rollout_sequence",
        trace_id=by_route_id,
        observe=on_rollout,
    )
    tsp.sequence_stops = wrap(tsp.sequence_stops, "tsp.sequence_stops", trace_id=by_route)
    tsp.build_instance = wrap(tsp.build_instance, "tsp.build_instance", observe=on_instance)
    tsp.solve_atsp = wrap(tsp.solve_atsp, "tsp.solve_atsp", observe=on_solve)
    scorer.dataset_score = wrap(scorer.dataset_score, "scorer.dataset_score")
    scorer.route_score = wrap(
        scorer.route_score, "scorer.route_score", trace_id=by_route, observe=on_route_score
    )


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py TRACE_OUT -- ZONESEQ_ARGS...", file=sys.stderr)
        return 2
    out, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from zoneseq import cli

    command = cli_argv[0]
    root = tracer.wrap(cli.main, "cli." + command, trace_id=lambda argv: command)
    code = 1
    try:
        code = root(cli_argv)
    finally:
        tracer.dump(out, command, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
