"""The traced run: where an op's time goes, layer by layer.

End-to-end numbers come from untraced runs (``harness.run_window``).
This module is the separate traced run.  It

1. reads what live traffic shows from outside (a shorter window of the
   real workload: reply payloads, ``/metrics``, ``/proc``);
2. for a fixed sample of the workload's ops, runs each op *one call*
   in-process, untraced (``Engine.from_source`` + ``query`` for the
   library workload, ``QueryService.query`` / ``update`` for the served
   ones), then replays it *stage by stage* through the public functions
   the one call is made of, each wrapped in a span, and checks that the
   staged answers and inference counts equal the one-call ones — so the
   stages time the same program;
3. adds probes no op tree can hold (OLDT on the same goals, snapshot
   dump/load, database copy, the maintenance engine, the worker pool).

Spans are recorded from this file only, around calls into each layer;
spans inside ``src/`` are a later change.  A layer's self time is its
span minus its child spans.  Spans stay in memory and are written to
``results/trace-<workload>.json`` when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

from repro import Engine
from repro.analysis.safety import require_safe
from repro.analysis.stratify import stratify
from repro.core.prepare import prepare_query
from repro.core.snapshot import dump_database, load_database
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.rules import Program
from repro.datalog.terms import Constant
from repro.datalog.unify import match_atom
from repro.engine.counters import EvaluationStats
from repro.engine.incremental import IncrementalEngine
from repro.engine.prepared import compile_fixpoint, run_fixpoint
from repro.engine.stratified import stratified_fixpoint
from repro.facts.database import Database
from repro.serve import PooledService, QueryService
from repro.transform.adorn import adorn_program
from repro.transform.alexander import alexander_transform_adorned
from repro.transform.sips import left_to_right

import harness

TRACED_WINDOW_SHARE = 0.4  # of --seconds, for the metrics read off live traffic
QUICK_SAMPLE = 20
PROBE_REPEATS = 5
POOL_PROBE_OPS = 24
THREADED_REPLAY_OPS = 100  # per client, against a threaded server

# The share each span's self time is counted under.
_LAYER_OF = {
    "datalog": "datalog", "analysis": "analysis", "transform": "transform",
    "facts": "facts", "core": "core", "serve": "serve",
    "engine.compile": "engine_compile", "engine.fixpoint": "engine_fixpoint",
    "engine.lower_strata": "engine_fixpoint",
}
SHARES = ("datalog", "analysis", "transform", "engine_compile", "engine_fixpoint",
          "facts", "core", "serve")
STAT_FIELDS = ("inferences", "attempts", "facts_derived", "iterations")

# Every per-layer metric: (name, unit, better).  BENCHMARK.json lists the
# same names.  Times are at reference machine speed (see harness) unless
# the name says raw; 0 means the workload never enters that layer.
PER_LAYER = (
    ("datalog.parse_ms_per_op", "ms", "lower"),
    ("datalog.parse_rules_per_s", "1/s", "higher"),
    ("analysis.safety_stratify_ms_per_op", "ms", "lower"),
    ("transform.adorn_ms_per_op", "ms", "lower"),
    ("transform.rewrite_ms_per_op", "ms", "lower"),
    ("transform.rules_out_per_rule_in", "ratio", "lower"),
    ("engine.compile_ms_per_op", "ms", "lower"),
    ("engine.lower_strata_ms_per_op", "ms", "lower"),
    ("engine.fixpoint_ms_per_op", "ms", "lower"),
    ("engine.fixpoint_us_per_inference", "us", "lower"),
    ("engine.inferences_per_op", "count", "lower"),
    ("engine.attempts_per_op", "count", "lower"),
    ("engine.useful_ratio", "ratio", "higher"),
    ("engine.facts_derived_per_op", "count", "lower"),
    ("engine.iterations_per_op", "count", "lower"),
    ("engine.maintain_remove_ms", "ms", "lower"),
    ("engine.maintain_add_ms", "ms", "lower"),
    ("engine.maintain_attempts_per_delete", "count", "lower"),
    ("engine.maintained_lookup_ms", "ms", "lower"),
    ("facts.db_copy_ms", "ms", "lower"),
    ("facts.load_rows_per_s", "1/s", "higher"),
    ("core.prepare_ms", "ms", "lower"),
    ("core.execute_overhead_ms", "ms", "lower"),
    ("core.snapshot_dump_ms", "ms", "lower"),
    ("core.snapshot_load_ms", "ms", "lower"),
    ("core.snapshot_bytes_per_row", "bytes", "lower"),
    ("serve.http_overhead_ms", "ms", "lower"),
    ("serve.service_overhead_ms", "ms", "lower"),
    ("serve.pool_dispatch_overhead_ms", "ms", "lower"),
    ("serve.pool_scaling_vs_threaded", "ratio", "higher"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.cache_drops_per_update", "count", "lower"),
    ("serve.response_bytes_per_op", "bytes", "lower"),
    ("serve.server_cpu_s_per_op", "s", "lower"),
    ("serve.worker_busy_share", "ratio", "higher"),
    ("serve.update_p50_ms", "ms", "lower"),
    ("serve.update_p90_ms", "ms", "lower"),
    ("serve.update_elapsed_ms", "ms", "lower"),
    ("serve.client_retries", "count", "lower"),
    ("topdown.oldt_ms_per_goal", "ms", "lower"),
    ("topdown.oldt_inferences_per_goal", "count", "lower"),
    ("topdown.alexander_over_oldt_inferences", "ratio", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "higher"),
    ("obs.machine_slowdown", "ratio", "lower"),
    ("client.op_tail_ms", "ms", "lower"),
    ("client.op_tail_percentile", "%", "higher"),
    ("client.op_max_ms", "ms", "lower"),
    ("client.samples", "count", "higher"),
    ("client.cpu_share", "ratio", "lower"),
    ("client.raw_op_p50_ms", "ms", "lower"),
    ("client.raw_op_p90_ms", "ms", "lower"),
    ("client.raw_ops_per_s", "1/s", "higher"),
) + tuple((f"share.{name}", "ratio", "lower") for name in SHARES)


class Tracer:
    """In-memory spans: name, start, end, parent span, op id."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name, "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, function, *args, **kwargs):
        with self.span(name):
            return function(*args, **kwargs)

    def self_seconds(self, slowdown: dict) -> dict:
        """Self time per span name at reference speed, summed over the
        spans of the ops in *slowdown* (op id -> machine slowdown)."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        totals: dict = {}
        for span, seconds in zip(self.spans, own):
            if span["op"] in slowdown:
                totals[span["name"]] = (
                    totals.get(span["name"], 0.0) + seconds / slowdown[span["op"]]
                )
        return totals


def layer_of(span_name: str) -> "str | None":
    return _LAYER_OF.get(span_name) or _LAYER_OF.get(span_name.split(".")[0])


def _median_seconds(function, repeats: int = PROBE_REPEATS) -> float:
    """Median time of *function*, at reference speed."""
    times = []
    slow = harness.slowdown_now(9)
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        times.append(time.perf_counter() - started)
    return 2 * statistics.median(times) / (slow + harness.slowdown_now(9))


# --- the staged pipeline -----------------------------------------------------

def staged_prepare(tracer: Tracer, program: Program, goal: Atom, working: Database):
    """``prepare_query``'s transform pipeline, one public call per span.

    Returns ``(fixpoint, base, transformed, lower-strata stats)``.
    """
    rules = program.without_facts()
    strata = tracer.call("analysis.stratify", stratify, rules).strata
    index = next(
        i for i, stratum in enumerate(strata) if goal.predicate in stratum.idb_predicates
    )
    lower = Program(tuple(rule for stratum in strata[:index] for rule in stratum.rules))
    stats = EvaluationStats()
    if lower.proper_rules:
        working, _ = tracer.call(
            "engine.lower_strata", stratified_fixpoint, lower, working, stats
        )
    target = strata[index]
    edb = frozenset((program.predicates | working.predicates()) - target.idb_predicates)
    adorned = tracer.call("transform.adorn", adorn_program, target, goal, left_to_right, edb)
    transformed = tracer.call("transform.rewrite", alexander_transform_adorned, adorned)
    fixpoint = tracer.call("engine.compile", compile_fixpoint, transformed.program, working)
    return fixpoint, working, transformed, stats


def seed_facts(transformed, goal: Atom) -> tuple:
    """The call facts that start *goal*: its constants, in argument order."""
    bound = tuple(arg for arg in goal.args if isinstance(arg, Constant))
    return tuple(Atom(seed.predicate, bound) for seed in transformed.seeds)


def staged_execute(tracer: Tracer, fixpoint, base, transformed, goal: Atom,
                   stats: EvaluationStats) -> tuple:
    """Seed the call fact, run the compiled fixpoint, read the goal's
    answers back in the product's order (sorted by ``repr`` of the row)."""
    completed, _ = tracer.call(
        "engine.fixpoint", run_fixpoint, fixpoint, base, stats=stats,
        extra_facts=seed_facts(transformed, goal),
    )
    with tracer.span("core.answers"):
        pattern = Atom(transformed.goal.predicate, goal.args)
        unique = {
            atom.ground_key(): Atom(goal.predicate, atom.args)
            for atom in completed.atoms(pattern.predicate)
            if match_atom(pattern, atom) is not None
        }
        return tuple(unique[key] for key in sorted(unique, key=repr))


def _rows(atoms) -> frozenset:
    return frozenset(atom.ground_key() for atom in atoms)


class Replay:
    """What replaying the sample observed, op by op."""

    def __init__(self):
        self.tracer = Tracer()
        self.slowdown: dict = {}  # query op id -> machine slowdown around it
        self.one_call_seconds: dict = {}  # op id -> untraced one-call time
        self.stats = dict.fromkeys(STAT_FIELDS, 0)  # one-call counters, query ops
        self.staged_inferences = 0
        self.attempted = 0
        self.failed = 0

    def record(self, op_id, op, slow_before, seconds, one_call_rows, one_call_stats,
               staged_rows, staged_inferences) -> None:
        self.attempted += 1
        self.slowdown[op_id] = (slow_before + harness.slowdown_now(5)) / 2
        self.one_call_seconds[op_id] = seconds
        for name in STAT_FIELDS:
            self.stats[name] += one_call_stats[name]
        self.staged_inferences += staged_inferences
        same = (
            one_call_rows == op.expect
            and staged_rows == one_call_rows
            and staged_inferences == one_call_stats["inferences"]
        )
        self.failed += not same


def replay_library(inputs, sample) -> Replay:
    """``cold-rulebase``: every op pays the whole chain, so every op is staged whole."""
    replay = Replay()
    tracer = replay.tracer
    sources = {dataset.name: dataset.text for dataset in inputs.datasets}
    for op_id, op in enumerate(sample):
        text = sources[op.dataset]
        slow = harness.slowdown_now(5)
        started = time.perf_counter()
        result = Engine.from_source(text).query(op.goal)
        seconds = time.perf_counter() - started
        tracer.op = op_id
        with tracer.span("op"):
            program = tracer.call("datalog.parse_program", parse_program, text)
            goal = tracer.call("datalog.parse_query", parse_query, op.goal)
            tracer.call("analysis.require_safe", require_safe, program)
            with tracer.span("facts.load"):
                working = Database()
                working.add_atoms(program.facts)
            fixpoint, base, transformed, stats = staged_prepare(
                tracer, program, goal, working
            )
            answers = staged_execute(tracer, fixpoint, base, transformed, goal, stats)
        replay.record(
            op_id, op, slow, seconds, result.answer_rows, result.stats.as_dict(),
            _rows(answers), stats.inferences,
        )
    return replay


def _in_process_service(inputs) -> QueryService:
    service = QueryService()
    for dataset in inputs.datasets:
        service.load(dataset.name, dataset.text)
    for op in inputs.warm:
        service.query(op.dataset, op.goal, **dict(op.options))
    return service


def _cached_shape(service: QueryService, dataset: str, goal: Atom, mode: str):
    return next(
        prepared for _, prepared in service.cache.entries_for(dataset)
        if prepared.mode == mode and prepared.compatible(goal)
    )


def replay_served(inputs, sample) -> Replay:
    """Served workloads, against an in-process ``QueryService`` (HTTP and
    the pool are measured from live traffic and probes instead)."""
    replay = Replay()
    tracer = replay.tracer
    service = _in_process_service(inputs)
    for op_id, op in enumerate(sample):
        tracer.op = op_id
        if op.kind == "update":
            # An update cannot be applied twice: its one call is its span.
            with tracer.span("op"), tracer.span("serve.update"):
                reply = service.update(op.dataset, add=op.add, remove=op.remove)
            replay.attempted += 1
            replay.failed += reply["added"] + reply["removed"] != 1
            continue
        options = dict(op.options)
        slow = harness.slowdown_now(5)
        started = time.perf_counter()
        payload = service.query(op.dataset, op.goal, **options)
        seconds = time.perf_counter() - started
        stats = EvaluationStats()
        with tracer.span("op"):
            goal = tracer.call("datalog.parse_query", parse_query, op.goal)
            if options.get("maintain"):
                tracer.call("serve.lookup", service.prepare, op.dataset, op.goal, **options)
                shape = _cached_shape(service, op.dataset, goal, "maintained")
                answers = tracer.call("core.execute", shape.execute, goal).answers
            elif payload["cache_hit"]:
                tracer.call("serve.lookup", service.prepare, op.dataset, op.goal)
                shape = _cached_shape(service, op.dataset, goal, "transform")
                answers = staged_execute(
                    tracer, shape.fixpoint, shape.base, shape.transformed, goal, stats
                )
            else:
                # The one call re-prepared (an update dropped the shape):
                # stage the same preparation from the dataset it used.
                dataset = service.dataset(op.dataset)
                working = tracer.call("facts.copy", dataset.database.copy)
                fixpoint, base, transformed, _ = staged_prepare(
                    tracer, dataset.program, goal, working
                )
                answers = staged_execute(tracer, fixpoint, base, transformed, goal, stats)
            with tracer.span("serve.render"):
                body = dict(payload, answers=QueryService.render_answers(answers))
                json.dumps(body, sort_keys=True).encode("utf-8")
        replay.record(
            op_id, op, slow, seconds, harness.rows_of(payload), payload["stats"],
            _rows(answers), stats.inferences,
        )
    return replay


# --- what live traffic shows -------------------------------------------------

def _served_counters(client) -> int:
    counters = client.metrics()["metrics"]["counters"]
    return int(counters.get("serve.queries", 0)) + int(counters.get("serve.updates", 0))


def observe_live(running, seconds: float) -> tuple[dict, harness.Window]:
    """A short window of the real workload; metrics seen from outside."""
    served = running.server is not None
    before = _served_counters(running.client) if served else 0
    window = harness.run_window(
        running, seconds, keep=harness.reply_facts if served else None
    )
    handled = _served_counters(running.client) - before if served else 0
    samples = window.samples
    queries = [s for s in samples if s.kind == "query"]
    updates = [s for s in samples if s.kind == "update"]
    latencies = harness.latencies_ms(window, queries)
    reference_wall = window.reference_wall
    raw = harness.end_to_end(window, raw=True)
    # The furthest tail the sample supports, capped at p99.
    tail = min(0.99, max(0.5, 1.0 - harness.MIN_BEYOND / len(latencies)))
    metrics = {
        "client.op_tail_ms": harness.percentile(latencies, tail),
        "client.op_tail_percentile": tail * 100.0,
        "client.op_max_ms": max(latencies),
        "client.samples": float(len(samples)),
        "client.cpu_share": window.client_cpu / window.wall,
        "client.raw_op_p50_ms": raw["op_p50_ms"],
        "client.raw_op_p90_ms": raw["op_p90_ms"],
        "client.raw_ops_per_s": raw["ops_per_s"],
        "obs.machine_slowdown": window.wall / reference_wall,
        "live.ops_per_s": sum(s.ok for s in samples) / reference_wall,
    }
    if served:

        def server_side_ms(chosen) -> list:
            return [
                s.seen["elapsed_ms"] / window.speed.slowdown((s.start + s.end) / 2)
                for s in chosen if s.ok
            ]

        update_ms = harness.latencies_ms(window, updates)
        metrics["live.outside_service_ms"] = statistics.fmean(latencies) - statistics.fmean(
            server_side_ms(queries)
        )
        metrics.update({
            "serve.http_overhead_ms": statistics.median(latencies)
            - statistics.median(server_side_ms(queries)),
            "serve.cache_hit_ratio": sum(
                bool(s.seen["cache_hit"]) for s in queries if s.ok
            ) / len(queries),
            "serve.response_bytes_per_op": statistics.fmean(
                s.seen["bytes"] for s in samples if s.ok
            ),
            "serve.server_cpu_s_per_op": (
                window.server_cpu * reference_wall / window.wall / len(samples)
            ),
            "serve.worker_busy_share": window.server_cpu / (window.wall * window.processes),
            "serve.client_retries": float(max(0, handled - len(samples))),
            "serve.update_p50_ms": harness.percentile(update_ms, 0.5) if updates else 0.0,
            "serve.update_p90_ms": harness.percentile(update_ms, 0.9) if updates else 0.0,
            "serve.update_elapsed_ms": (
                statistics.median(server_side_ms(updates)) if updates else 0.0
            ),
            "serve.cache_drops_per_update": statistics.fmean(
                s.seen["dropped"] for s in updates if s.ok
            ) if updates else 0.0,
        })
    return metrics, window


# --- probes ------------------------------------------------------------------

def probe_datasets(inputs) -> dict:
    """Parse, load, copy and snapshot every dataset of the workload."""
    statements = rows = size = 0
    parse = load = copy = dump = restore = 0.0
    for dataset in inputs.datasets:
        statements += dataset.rules + dataset.rows
        rows += dataset.rows
        parse += _median_seconds(lambda: parse_program(dataset.text))
        facts = parse_program(dataset.text).facts
        database = Database()

        def load_facts():
            Database().add_atoms(facts)

        load += _median_seconds(load_facts)
        database.add_atoms(facts)
        copy += _median_seconds(database.copy)
        dump += _median_seconds(lambda: dump_database(database))
        blob = dump_database(database)
        size += len(blob)
        restore += _median_seconds(lambda: load_database(blob))
    count = len(inputs.datasets)
    return {
        "datalog.parse_rules_per_s": statements / parse,
        "facts.load_rows_per_s": rows / load,
        "facts.db_copy_ms": copy / count * 1e3,
        "core.snapshot_dump_ms": dump / count * 1e3,
        "core.snapshot_load_ms": restore / count * 1e3,
        "core.snapshot_bytes_per_row": size / rows,
    }


def probe_shapes(inputs) -> dict:
    """Per distinct default-strategy shape: ``prepare_query``, the gap
    between ``PreparedQuery.execute`` and its ``run_fixpoint``, the gap
    between ``QueryService.query`` and ``execute``, and OLDT on the same
    goal (Theorem 2's constant: Alexander inferences over OLDT's)."""
    sources = {dataset.name: dataset.text for dataset in inputs.datasets}
    rules = {dataset.name: dataset.rules for dataset in inputs.datasets}
    service = QueryService()
    prepare = overhead = service_gap = oldt_seconds = 0.0
    oldt = alexander = rewritten = rules_in = 0
    shapes = [op for op in inputs.warm if not op.options]
    for op in shapes:
        engine = Engine.from_source(sources[op.dataset])
        goal = parse_query(op.goal)
        prepare += _median_seconds(
            lambda: prepare_query(engine.program, goal, engine.database)
        )
        shape = prepare_query(engine.program, goal, engine.database)
        seeds = seed_facts(shape.transformed, goal)
        execute = _median_seconds(lambda: shape.execute(goal))
        overhead += execute - _median_seconds(
            lambda: run_fixpoint(shape.fixpoint, shape.base, extra_facts=seeds)
        )
        if op.dataset not in {info["name"] for info in service.datasets()}:
            service.load(op.dataset, sources[op.dataset])
        service.query(op.dataset, op.goal)
        service_gap += _median_seconds(lambda: service.query(op.dataset, op.goal)) - execute
        rewritten += len(shape.transformed.program.proper_rules)
        rules_in += rules[op.dataset]
        oldt_seconds += _median_seconds(lambda: engine.query(goal, strategy="oldt"), 3)
        oldt += engine.query(goal, strategy="oldt").stats.inferences
        alexander += engine.query(goal).stats.inferences
    count = len(shapes)
    return {
        "core.prepare_ms": prepare / count * 1e3,
        "core.execute_overhead_ms": overhead / count * 1e3,
        "serve.service_overhead_ms": service_gap / count * 1e3,
        "transform.rules_out_per_rule_in": rewritten / rules_in,
        "topdown.oldt_ms_per_goal": oldt_seconds / count * 1e3,
        "topdown.oldt_inferences_per_goal": oldt / count,
        "topdown.alexander_over_oldt_inferences": alexander / oldt,
    }


def probe_maintenance(inputs, sample) -> dict:
    """The sample's update stream on a bare DRed engine, plus lookups in
    its maintained model.  Zero for workloads without updates."""
    names = ("engine.maintain_remove_ms", "engine.maintain_add_ms",
             "engine.maintain_attempts_per_delete", "engine.maintained_lookup_ms")
    updates = [op for op in sample if op.kind == "update"]
    if not updates:
        return dict.fromkeys(names, 0.0)
    parsed = parse_program(inputs.datasets[0].text)
    database = Database()
    database.add_atoms(parsed.facts)
    engine = IncrementalEngine(parsed.without_facts(), database, maintenance="dred")
    remove, add, attempts = [], [], []
    slow = harness.slowdown_now()
    for op in updates:
        before = engine.stats.attempts
        started = time.perf_counter()
        if op.remove:
            engine.remove_many(op.remove)
            remove.append(time.perf_counter() - started)
            attempts.append(engine.stats.attempts - before)
        else:
            engine.add_many(op.add)
            add.append(time.perf_counter() - started)
    slow = (slow + harness.slowdown_now()) / 2
    lookups = [op.goal for op in sample if dict(op.options).get("maintain")][:20]
    lookup = [_median_seconds(lambda: engine.query(goal), 3) for goal in lookups]
    return dict(zip(names, (
        statistics.median(remove) * 1e3 / slow, statistics.median(add) * 1e3 / slow,
        statistics.fmean(attempts), statistics.median(lookup) * 1e3,
    )))


def probe_pool(inputs, sample, live_ops_per_s: float, quick: bool) -> dict:
    """Pooled workloads only: what the pool's dispatch costs one caller,
    and what the pool buys over the threaded server on the same ops."""
    names = ("serve.pool_dispatch_overhead_ms", "serve.pool_scaling_vs_threaded")
    if not inputs.server_args or "--processes" not in inputs.server_args:
        return dict.fromkeys(names, 0.0)
    ops = [op for op in sample if op.kind == "query"][:4 if quick else POOL_PROBE_OPS]
    plain = _in_process_service(inputs)
    pooled = PooledService(processes=2)
    try:
        for dataset in inputs.datasets:
            pooled.load(dataset.name, dataset.text)
        for op in inputs.warm * 4:  # round-robin: reach both workers
            pooled.query(op.dataset, op.goal)
        gaps = []
        for op in ops:
            through_pool = _median_seconds(lambda: pooled.query(op.dataset, op.goal), 3)
            direct = _median_seconds(lambda: plain.query(op.dataset, op.goal), 3)
            gaps.append(through_pool - direct)
    finally:
        pooled.close()
    threaded = harness.start(replace(inputs, server_args=()))
    try:
        window = harness.run_window(
            threaded, 600.0, max_ops=10 if quick else THREADED_REPLAY_OPS
        )
    finally:
        threaded.stop()
    threaded_rate = sum(s.ok for s in window.samples) / window.reference_wall
    return dict(zip(names, (statistics.median(gaps) * 1e3, live_ops_per_s / threaded_rate)))


# --- the traced run ----------------------------------------------------------

def run_traced(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    running = harness.set_up(workload, seed)
    try:
        live, window = observe_live(running, seconds * TRACED_WINDOW_SHARE)
    finally:
        running.stop()
    inputs = running.inputs
    sample = inputs.sample[:QUICK_SAMPLE] if quick else inputs.sample
    served = inputs.server_args is not None
    replay = replay_served(inputs, sample) if served else replay_library(inputs, sample)

    slowdown = replay.slowdown
    count = len(slowdown)
    own = replay.tracer.self_seconds(slowdown)
    one_call = sum(
        seconds / slowdown[op_id] for op_id, seconds in replay.one_call_seconds.items()
    )
    staged = sum(
        (span["end"] - span["start"]) / slowdown[span["op"]]
        for span in replay.tracer.spans
        if span["name"] == "op" and span["op"] in slowdown
    )

    def per_op_ms(*names) -> float:
        return sum(own.get(name, 0.0) for name in names) / count * 1e3

    by_layer = dict.fromkeys(SHARES, 0.0)
    for name, seconds_ in own.items():
        if layer_of(name):
            by_layer[layer_of(name)] += seconds_ / count
    # Served, the whole op is the in-process one call plus what live
    # traffic spends outside the service (round trip minus the payload's
    # elapsed_ms: HTTP, pool dispatch, waiting for a worker); whatever
    # the staged calls do not cover is repro.serve's own time.  The live
    # round trip itself is no denominator: a loaded server and an
    # unloaded replay do not run the same op at the same speed.  In the
    # library the whole op is the staged op; glue between stages is core.
    if served:
        whole = one_call / count + live["live.outside_service_ms"] / 1e3
        by_layer["serve"] = whole - sum(v for k, v in by_layer.items() if k != "serve")
    else:
        whole = staged / count
        by_layer["core"] += own["op"] / count
    fixpoint_seconds = own.get("engine.fixpoint", 0.0) + own.get("engine.lower_strata", 0.0)

    metrics = {name: value for name, value in live.items() if not name.startswith("live.")}
    metrics.update({
        "datalog.parse_ms_per_op": per_op_ms("datalog.parse_program", "datalog.parse_query"),
        "analysis.safety_stratify_ms_per_op": per_op_ms(
            "analysis.require_safe", "analysis.stratify"
        ),
        "transform.adorn_ms_per_op": per_op_ms("transform.adorn"),
        "transform.rewrite_ms_per_op": per_op_ms("transform.rewrite"),
        "engine.compile_ms_per_op": per_op_ms("engine.compile"),
        "engine.lower_strata_ms_per_op": per_op_ms("engine.lower_strata"),
        "engine.fixpoint_ms_per_op": per_op_ms("engine.fixpoint"),
        "engine.fixpoint_us_per_inference": (
            fixpoint_seconds / replay.staged_inferences * 1e6
            if replay.staged_inferences else 0.0
        ),
        "engine.useful_ratio": (
            replay.stats["inferences"] / replay.stats["attempts"]
            if replay.stats["attempts"] else 0.0
        ),
        "obs.trace_overhead_ratio": one_call / staged,
    })
    for name in STAT_FIELDS:
        metrics[f"engine.{name}_per_op"] = replay.stats[name] / count
    for name in SHARES:
        metrics[f"share.{name}"] = by_layer[name] / whole
    metrics.update(probe_datasets(inputs))
    metrics.update(probe_shapes(inputs))
    metrics.update(probe_maintenance(inputs, sample))
    metrics.update(probe_pool(inputs, sample, live["live.ops_per_s"], quick))
    for name, _, _ in PER_LAYER:
        if not served and name.startswith("serve."):
            metrics[name] = 0.0  # the library workload never enters repro.serve

    harness.write_result(f"trace-{workload}.json", {
        "env": harness.environment(seed, seconds),
        "workload": workload,
        "sample_ops": len(sample),
        "spans": replay.tracer.spans,
        "self_ms_per_op": {name: value / count * 1e3 for name, value in sorted(own.items())},
        "share_of_op": {name: by_layer[name] / whole for name in SHARES},
        "metrics": metrics,
    })
    live_failed = sum(not s.ok for s in window.samples)
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": len(window.samples) + replay.attempted,
        "failed": live_failed + replay.failed,
        "degraded": [],
    }
