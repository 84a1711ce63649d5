"""Parallel bottom-up evaluation: component-parallel scheduling and
hash-partitioned semi-naive fixpoints.

The condensation (:func:`repro.engine.scheduler.build_schedule`) already
exposes an Alexander/magic-transformed program as a DAG of components;
the serial scc scheduler walks that DAG one component at a time.  This
module adds ``scheduler="parallel"``, which exploits the DAG twice over:

* **Component-parallel scheduling** — a coordinator thread submits every
  component whose dependencies are all closed to one shared
  :class:`~concurrent.futures.ThreadPoolExecutor`; independent branches
  of the condensation evaluate concurrently.  Each relation is written
  by exactly *one* component, every IDB relation is created before the
  parallel phase starts, and workers only read relations of closed
  components (plus the frozen EDB) — so workers never contend on writes,
  and the lazy index/statistics builds concurrent readers may trigger
  are benign build-then-assign races.
* **Partition-parallel fixpoints** — inside one large recursive SCC, a
  delta variant whose *planned* body puts the delta literal outermost
  partitions cleanly: delta rows are hash-sharded on the planner-chosen
  join key (a stable CRC32, not the salted builtin ``hash``), each shard
  enumerates its slice of the round on a pool worker, and the
  coordinator merges candidate rows in shard order.  Because the delta
  literal drives the outer loop, the shards partition the round's
  enumeration space exactly: ``inferences``, ``attempts``, and the
  derived fact sets are bit-identical to the serial round.  Variants
  with the delta literal deeper in the body run serially (sharding them
  would duplicate the outer scans and the attempt counts).

**Determinism contract** (pinned by
``tests/test_parallel_differential.py`` against the serial ``scc``
oracle): derived fact sets, ``inferences``, ``attempts``,
``facts_derived``, and ``iterations`` are bit-identical to ``scc`` at
every worker count.  Component-parallel runs additionally preserve
per-relation insertion order (one writer per relation, identical round
discipline); a hash-partitioned round inserts the same fact *set* in
shard order rather than serial enumeration order, which is deterministic
run-to-run but may differ from serial.  With ``workers=1`` everything —
order included — is byte-identical to ``scc``.

**Budgets** are honoured through :meth:`Checkpoint.worker_view`: each
worker polls a view sharing the parent's clock and trip gate, so the
whole evaluation trips at most once; the coordinator stops submitting,
drains in-flight workers (they notice the gate within one attempt),
merges their counters, and re-raises the stored error — the partial
database keeps the scc prefix property (closed components complete, the
tripped component partially derived, unstarted components untouched).

**Metrics** route through per-worker registries
(:func:`repro.obs.thread_metrics`) merged into the parent in schedule
order, so ``parallel.*`` and the usual ``seminaive.*`` counters stay
deterministic; with metrics disabled no per-worker registry is built.
"""

from __future__ import annotations

import os
import zlib
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import nullcontext

from ..datalog.rules import Program
from ..errors import BudgetExceededError
from ..facts.database import Database
from ..facts.relation import Relation, StampedView
from ..obs import Metrics, get_metrics, thread_metrics
from .budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from .columnar import DEFAULT_STORAGE, as_storage
from .counters import EvaluationStats
from .kernel import DEFAULT_EXECUTOR, compile_executors, head_rows
from .matching import CompiledRule, compile_rule
from .scheduler import (
    Component,
    Schedule,
    _component_seminaive,
    _observe_schedule,
    _single_pass,
    build_schedule,
    component_planner,
)

__all__ = [
    "PARTITION_MIN_ROWS",
    "resolve_workers",
    "component_dependencies",
    "parallel_seminaive_fixpoint",
    "parallel_naive_fixpoint",
    "run_compiled_parallel",
]

# A delta smaller than this is not worth sharding: the per-shard spawn
# and merge overhead exceeds the enumeration it would offload.  Kept
# deliberately low so correctness suites exercise the partitioned path
# on small programs; the component-parallel layer is the first-order win
# on production-sized condensations either way.
PARTITION_MIN_ROWS = 4


def resolve_workers(workers: "int | None") -> int:
    """Validate a ``workers=`` argument (``None`` = one per CPU core)."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    return workers


def component_dependencies(
    program: Program, components: "tuple[Component, ...]"
) -> list[set[int]]:
    """Component-level dependency sets: ``deps[i]`` holds the indices of
    the components that must close before component *i* may start.

    An index ``j`` is in ``deps[i]`` iff some rule of component *i* reads
    a predicate derived by component *j* — exactly the edges of the
    condensation, recovered from the predicate-level
    :attr:`~repro.analysis.dependency.DependencyGraph.predecessors` map.
    EDB predicates have no owning component and impose no ordering.
    """
    owner: dict[str, int] = {}
    for index, component in enumerate(components):
        for predicate in component.derived:
            owner[predicate] = index
    predecessors = program.dependency_graph.predecessors
    deps: list[set[int]] = []
    for index, component in enumerate(components):
        wanted: set[int] = set()
        for predicate in component.derived:
            for body_predicate in predecessors.get(predicate, frozenset()):
                owning = owner.get(body_predicate)
                if owning is not None and owning != index:
                    wanted.add(owning)
        deps.append(wanted)
    return deps


# --- partition-parallel helpers ----------------------------------------------


def _shard_column(compiled: CompiledRule) -> "int | None":
    """The planner-chosen join-key column of the outermost body literal:
    the first column binding a variable a later literal joins on, falling
    back to the first bound column (``None`` = hash the whole row)."""
    first = compiled.body[0]
    later_vars = set()
    for literal in compiled.body[1:]:
        later_vars.update(var for _, var in literal.binders)
        later_vars.update(var for _, var in literal.filters)
    for column, var in first.binders:
        if var in later_vars:
            return column
    return first.binders[0][0] if first.binders else None


def _shard_of(row: tuple, column: "int | None", shards: int) -> int:
    """A stable shard index for *row* (CRC32 of the join key's repr —
    the builtin ``hash`` is salted per process and would make shard
    assignment, and hence merge order, irreproducible)."""
    key = row[column] if column is not None else row
    return zlib.crc32(repr(key).encode("utf-8", "backslashreplace")) % shards


def _map_on_pool(pool: "ThreadPoolExecutor | None", tasks: list) -> list:
    """Run *tasks* (argless callables), results in task order.

    The first task runs inline on the caller; the rest are submitted to
    *pool* and, if the pool never gets to start one (every slot occupied
    by ancestors of this very call), it is cancelled and run inline too.
    Nested fan-out — shard tasks submitted from a component worker that
    itself occupies a pool slot — therefore cannot deadlock, and a
    one-worker pool degrades to plain serial execution.
    """
    if pool is None or len(tasks) <= 1:
        return [task() for task in tasks]
    futures = [pool.submit(task) for task in tasks[1:]]
    results = [tasks[0]()]
    for future, task in zip(futures, tasks[1:]):
        if future.cancel():
            results.append(task())
        else:
            results.append(future.result())
    return results


def _partitioned_seminaive(
    component: Component,
    executors,
    working: Database,
    arities,
    stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
    obs,
    pool: "ThreadPoolExecutor | None",
    workers: int,
) -> int:
    """Local semi-naive fixpoint of one recursive component with
    hash-partitioned delta rounds.

    Identical round discipline to
    :func:`repro.engine.scheduler._component_seminaive`; the only change
    is *who enumerates* a shardable delta variant.  Returns local rounds.
    """
    from .seminaive import _RoundView, _variant_positions

    derived = component.derived
    relations = {predicate: working.relation(predicate) for predicate in derived}

    # The delta agenda, as in the serial scheduler, with each variant's
    # shardability decided up front: only position-0 variants partition
    # the enumeration space exactly (see module docstring).
    old: dict[str, StampedView] = {}
    agenda_map: dict[str, list] = {}
    for compiled, kernel in executors:
        target = working.relation(compiled.head_predicate)
        for position in _variant_positions(compiled, derived):
            view = _RoundView(working, position, None, old, derived)
            shard_column = _shard_column(compiled) if position == 0 else None
            agenda_map.setdefault(
                compiled.body[position].predicate, []
            ).append((compiled, kernel, target, view, position, shard_column))
    agenda = tuple(
        (predicate, tuple(agenda_map[predicate]))
        for predicate in sorted(agenda_map)
    )

    # --- local round 0: one application against the full database -------
    if checkpoint is not None:
        checkpoint.check_round()
    stats.iterations += 1
    delta: dict[str, Relation] = {
        predicate: working.spawn(predicate, arities[predicate])
        for predicate in derived
    }
    stamp = 1

    def full_view(position: int, predicate: str):
        try:
            return working.relation(predicate)
        except KeyError:
            return None

    with obs.timer("round"):
        for compiled, kernel in executors:
            target = relations[compiled.head_predicate]
            bucket = delta[compiled.head_predicate]
            for row in head_rows(
                compiled, kernel, full_view, stats, checkpoint, batch=True
            ):
                stats.inferences += 1
                if row not in target:
                    bucket.add(row)
        for predicate in derived:
            relation = relations[predicate]
            relation.mark_round(stamp)
            for row in delta[predicate]:
                if relation.add(row):
                    stats.facts_derived += 1
    if obs.enabled:
        obs.observe(
            "seminaive.delta_rows",
            sum(len(delta[predicate]) for predicate in derived),
        )

    # --- local delta rounds ---------------------------------------------
    rounds = 1
    while any(delta[predicate] for predicate in derived):
        if checkpoint is not None:
            checkpoint.check_round()
        stats.iterations += 1
        rounds += 1
        skipped = 0
        with obs.timer("round"):
            for predicate in derived:
                old[predicate] = relations[predicate].rows_before(stamp)
            new_delta: dict[str, Relation] = {
                predicate: working.spawn(predicate, arities[predicate])
                for predicate in derived
            }
            for predicate, entries in agenda:
                delta_relation = delta[predicate]
                if not delta_relation:
                    skipped += len(entries)
                    continue
                for compiled, kernel, target, round_view, position, column in entries:
                    bucket = new_delta[compiled.head_predicate]
                    if (
                        position == 0
                        and workers > 1
                        and len(delta_relation) >= PARTITION_MIN_ROWS
                    ):
                        _partitioned_variant(
                            compiled, kernel, target, bucket, delta_relation,
                            column, working, old, derived, stats, checkpoint,
                            obs, pool, workers,
                        )
                    else:
                        round_view.delta_relation = delta_relation
                        for row in head_rows(
                            compiled, kernel, round_view, stats, checkpoint,
                            batch=True,
                        ):
                            stats.inferences += 1
                            if row not in target:
                                bucket.add(row)
            stamp += 1
            for predicate in derived:
                relation = relations[predicate]
                relation.mark_round(stamp)
                for row in new_delta[predicate]:
                    if relation.add(row):
                        stats.facts_derived += 1
        if obs.enabled:
            obs.incr("seminaive.stamped_rounds")
            if skipped:
                obs.incr("scheduler.agenda_skipped", skipped)
            obs.observe(
                "seminaive.delta_rows",
                sum(len(new_delta[predicate]) for predicate in derived),
            )
        delta = new_delta
    return rounds


def _partitioned_variant(
    compiled: CompiledRule,
    kernel,
    target: Relation,
    bucket: Relation,
    delta_relation: Relation,
    shard_column: "int | None",
    working: Database,
    old,
    derived,
    stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
    obs,
    pool: "ThreadPoolExecutor | None",
    workers: int,
) -> None:
    """One delta variant's round, hash-sharded across pool workers.

    Shards carry their own stats record and checkpoint view; candidate
    rows come back per shard and the coordinator — this thread — does
    all relation mutation, merging in shard-index order.
    """
    from .seminaive import _RoundView

    shards = min(workers, len(delta_relation))
    shard_relations = [
        working.spawn(delta_relation.name, delta_relation.arity)
        for _ in range(shards)
    ]
    for row in delta_relation:
        shard_relations[_shard_of(row, shard_column, shards)].add(row)

    position = 0
    enabled = obs.enabled

    def make_task(shard_relation):
        def task():
            shard_stats = EvaluationStats()
            shard_check = (
                checkpoint.worker_view(shard_stats)
                if checkpoint is not None
                else None
            )
            shard_metrics = Metrics() if enabled else None
            view = _RoundView(working, position, shard_relation, old, derived)
            rows: list[tuple] = []
            error = None
            context = (
                thread_metrics(shard_metrics)
                if shard_metrics is not None
                else nullcontext()
            )
            try:
                with context:
                    for row in head_rows(
                        compiled, kernel, view, shard_stats, shard_check,
                        batch=True,
                    ):
                        shard_stats.inferences += 1
                        rows.append(row)
            except BudgetExceededError as exc:
                error = exc
            return rows, shard_stats, shard_metrics, error

        return task

    tasks = [
        make_task(shard_relation)
        for shard_relation in shard_relations
        if shard_relation
    ]
    results = _map_on_pool(pool, tasks)

    error = None
    for rows, shard_stats, shard_metrics, shard_error in results:
        stats.merge(shard_stats)
        if shard_metrics is not None:
            obs.merge(shard_metrics)
        if shard_error is not None and error is None:
            error = shard_error
    if enabled:
        obs.incr("parallel.partition.variants")
        obs.observe("parallel.partition.shards", len(tasks))
    if error is not None:
        raise error
    for rows, _, _, _ in results:
        for row in rows:
            if row not in target:
                bucket.add(row)


# --- component-parallel coordinator -------------------------------------------


class _WorkerResult:
    """What one component worker hands back to the coordinator."""

    __slots__ = ("index", "stats", "metrics", "rounds", "error")

    def __init__(self, index, stats, metrics, rounds, error):
        self.index = index
        self.stats = stats
        self.metrics = metrics
        self.rounds = rounds
        self.error = error


def _component_naive(
    executors, working: Database, stats, checkpoint, obs
) -> int:
    """Local naive fixpoint of one recursive component (mirrors the
    recursive branch of
    :func:`repro.engine.scheduler.scc_naive_fixpoint`)."""
    from .naive import apply_rules_once

    compiled_rules = [compiled for compiled, _ in executors]
    kernels = [kernel for _, kernel in executors]
    rounds = 0
    changed = True
    while changed:
        if checkpoint is not None:
            checkpoint.check_round()
        stats.iterations += 1
        rounds += 1
        changed = False
        new_rows = 0
        with obs.timer("round"):
            for predicate, row in apply_rules_once(
                compiled_rules, working, stats, checkpoint, kernels
            ):
                if working.add(predicate, row):
                    stats.facts_derived += 1
                    new_rows += 1
                    changed = True
        if obs.enabled:
            obs.observe("naive.delta_rows", new_rows)
    return rounds


def _run_schedule(
    program: Program,
    components: "tuple[Component, ...]",
    compile_component,
    working: Database,
    arities,
    stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
    obs,
    workers: int,
    naive: bool,
) -> None:
    """The coordinator pump: run *components* on a worker pool,
    dependencies first, merging worker stats and metrics back.

    Worker stats merge into *stats* as components complete (the counters
    are order-independent sums); worker metric registries merge at the
    end in schedule order, so order-sensitive fields stay deterministic.
    On a budget trip the pump stops submitting, drains in-flight workers,
    merges what they did, and re-raises the gate's single stored error.
    """
    deps = component_dependencies(program, components)
    dependents: dict[int, list[int]] = {}
    for index, wanted in enumerate(deps):
        for dep in wanted:
            dependents.setdefault(dep, []).append(index)
    remaining = {index: set(wanted) for index, wanted in enumerate(deps) if wanted}
    queue = deque(
        index for index in range(len(components)) if index not in remaining
    )

    def run_component(index: int) -> _WorkerResult:
        component = components[index]
        worker_stats = EvaluationStats()
        worker_check = (
            checkpoint.worker_view(worker_stats)
            if checkpoint is not None
            else None
        )
        worker_metrics = Metrics() if obs.enabled else None
        rounds = None
        error = None
        context = (
            thread_metrics(worker_metrics)
            if worker_metrics is not None
            else nullcontext()
        )
        try:
            with context:
                worker_obs = worker_metrics if worker_metrics is not None else obs
                executors = compile_component(index, component)
                if not component.recursive:
                    if worker_check is not None:
                        worker_check.check_round()
                    worker_stats.iterations += 1
                    with worker_obs.timer("round"):
                        _single_pass(
                            executors, working, worker_stats, worker_check
                        )
                elif naive:
                    rounds = _component_naive(
                        executors, working, worker_stats, worker_check,
                        worker_obs,
                    )
                elif workers > 1:
                    rounds = _partitioned_seminaive(
                        component, executors, working, arities, worker_stats,
                        worker_check, worker_obs, pool, workers,
                    )
                else:
                    rounds = _component_seminaive(
                        component, executors, working, arities, worker_stats,
                        worker_check, worker_obs,
                    )
        except BudgetExceededError as exc:
            error = exc
        return _WorkerResult(index, worker_stats, worker_metrics, rounds, error)

    results: dict[int, _WorkerResult] = {}
    inflight: dict = {}
    failed: "BudgetExceededError | None" = None
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-parallel"
    ) as pool:
        while queue or inflight:
            while queue and failed is None:
                index = queue.popleft()
                inflight[pool.submit(run_component, index)] = index
                if obs.enabled:
                    obs.observe("parallel.inflight", len(inflight))
            if not inflight:
                break
            done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                index = inflight.pop(future)
                result = future.result()
                results[index] = result
                stats.merge(result.stats)
                if result.error is not None and failed is None:
                    failed = result.error
                for dependent in dependents.get(index, ()):
                    pending = remaining.get(dependent)
                    if pending is not None:
                        pending.discard(index)
                        if not pending:
                            del remaining[dependent]
                            queue.append(dependent)
    if obs.enabled:
        for index in sorted(results):
            result = results[index]
            if result.metrics is not None:
                obs.merge(result.metrics)
                obs.incr("parallel.worker_merges")
            if result.rounds is not None:
                obs.observe("scheduler.component_rounds", result.rounds)
        obs.observe("parallel.workers", workers)
        obs.observe("parallel.components", len(components))
    if failed is not None:
        tripped = checkpoint.tripped if checkpoint is not None else None
        raise tripped if tripped is not None else failed


# --- entry points -------------------------------------------------------------


def parallel_seminaive_fixpoint(
    program: Program,
    database: "Database | None" = None,
    stats: "EvaluationStats | None" = None,
    planner=None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
    executor: str = DEFAULT_EXECUTOR,
    storage: str = DEFAULT_STORAGE,
    workers: "int | None" = None,
) -> tuple[Database, EvaluationStats]:
    """Component- and partition-parallel semi-naive evaluation (see the
    module docstring).  Called through
    :func:`repro.engine.seminaive.seminaive_fixpoint` with
    ``scheduler="parallel"``; the serial ``scc`` mode is the differential
    oracle."""
    stats = stats if stats is not None else EvaluationStats()
    workers = resolve_workers(workers)
    obs = get_metrics()
    working = as_storage(database, storage)
    working.add_atoms(program.facts)
    arities = program.arities
    for predicate in program.idb_predicates:
        working.relation(predicate, arities[predicate])
    schedule = build_schedule(program)
    checkpoint = ensure_checkpoint(budget, stats)
    if checkpoint is not None:
        checkpoint.bind(working)
    _observe_schedule(obs, schedule)
    interner = getattr(working, "interner", None)

    def compile_component(index: int, component: Component):
        # Planned when the component's dependencies are closed, so the
        # planner reads the same materialised statistics as serial scc.
        active_planner = component_planner(planner, working, component)
        compiled_rules = [
            compile_rule(rule, active_planner) for rule in component.rules
        ]
        return compile_executors(compiled_rules, executor, interner)

    with obs.timer("seminaive"):
        _run_schedule(
            program, schedule.components, compile_component, working, arities,
            stats, checkpoint, obs, workers, naive=False,
        )
    if obs.enabled:
        obs.incr("seminaive.runs")
        obs.incr("parallel.runs")
        obs.observe("seminaive.iterations", stats.iterations)
    return working, stats


def parallel_naive_fixpoint(
    program: Program,
    database: "Database | None" = None,
    stats: "EvaluationStats | None" = None,
    planner=None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
    executor: str = DEFAULT_EXECUTOR,
    storage: str = DEFAULT_STORAGE,
    workers: "int | None" = None,
) -> tuple[Database, EvaluationStats]:
    """Component-parallel naive evaluation: independent components run
    concurrently, each recursive component iterating its own local naive
    fixpoint (no delta exists to partition).  Called through
    :func:`repro.engine.naive.naive_fixpoint` with
    ``scheduler="parallel"``."""
    stats = stats if stats is not None else EvaluationStats()
    workers = resolve_workers(workers)
    obs = get_metrics()
    working = as_storage(database, storage)
    working.add_atoms(program.facts)
    arities = program.arities
    for predicate in program.idb_predicates:
        working.relation(predicate, arities[predicate])
    schedule = build_schedule(program)
    checkpoint = ensure_checkpoint(budget, stats)
    if checkpoint is not None:
        checkpoint.bind(working)
    _observe_schedule(obs, schedule)
    interner = getattr(working, "interner", None)

    def compile_component(index: int, component: Component):
        active_planner = component_planner(planner, working, component)
        compiled_rules = [
            compile_rule(rule, active_planner) for rule in component.rules
        ]
        return compile_executors(compiled_rules, executor, interner)

    with obs.timer("naive"):
        _run_schedule(
            program, schedule.components, compile_component, working, arities,
            stats, checkpoint, obs, workers, naive=True,
        )
    if obs.enabled:
        obs.incr("naive.runs")
        obs.incr("parallel.runs")
        obs.observe("naive.iterations", stats.iterations)
    return working, stats


def run_compiled_parallel(
    compiled,
    working: Database,
    stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
    workers: "int | None" = None,
) -> None:
    """Drive a :class:`repro.engine.prepared.CompiledFixpoint` compiled
    with ``scheduler="parallel"`` — the run half of the prepared-query
    split.  *working* must already hold every derived relation; the
    per-component executors were compiled (and planned) up front, exactly
    as in the prepared scc mode."""
    workers = resolve_workers(workers)
    obs = get_metrics()
    components = tuple(cc.component for cc in compiled.components)
    executor_table = {
        index: cc.executors for index, cc in enumerate(compiled.components)
    }
    _observe_schedule(obs, Schedule(components))

    def compile_component(index: int, component: Component):
        return executor_table[index]

    arities = compiled.program.arities
    with obs.timer("seminaive"):
        _run_schedule(
            compiled.program, components, compile_component, working, arities,
            stats, checkpoint, obs, workers, naive=False,
        )
    if obs.enabled:
        obs.incr("seminaive.runs")
        obs.incr("parallel.runs")
        obs.observe("seminaive.iterations", stats.iterations)
