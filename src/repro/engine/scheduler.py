"""SCC-scheduled fixpoint evaluation: component-wise rounds with a delta
agenda.

Alexander/magic-transformed programs are exactly the workloads where one
monolithic fixpoint loop wastes the most work: the transformation
shatters the program into many ``call_*``/``ans_*``/continuation
predicates whose dependency structure is mostly a long chain of small
components, yet a global semi-naive loop re-visits every rule's delta
variants on every round.  This module condenses the program via
:class:`repro.analysis.dependency.DependencyGraph` into strongly
connected components in topological (dependencies-first) order and
evaluates them one at a time:

* a **non-recursive** component (a single predicate outside every cycle)
  needs exactly one rule application — its body predicates are complete
  by the time it is reached;
* a **recursive** component runs a *local* semi-naive fixpoint in which
  only same-component predicates count as "derived".  Lower-component
  IDB relations are complete, so they are read as plain full relations:
  rules get fewer delta variants, probes hit the concrete
  :class:`~repro.facts.relation.Relation` fast paths instead of stamped
  views, and — when a planner spec is passed — the *materialised*
  statistics of lower components feed the join planner, extending the
  per-stratum argument :mod:`repro.engine.stratified` already makes.

Inside each local fixpoint, the per-round ``for rule: for position:``
sweep is replaced by a precomputed **delta agenda** — an index from each
same-component delta predicate to the ``(rule, kernel, position)``
variants it can fire — so a round touches only the rules a non-empty
delta can actually feed; everything else is skipped wholesale (counted
by ``scheduler.agenda_skipped``).

The scheduler changes *when* instantiations are enumerated, never *which*
ones: every rule-body instantiation that holds in the final model is
enumerated exactly once under both schedulers, so derived fact sets,
``facts_derived``, and ``inferences`` are identical to the global loop
(pinned by ``tests/test_scheduler_differential.py``; the global loop is
kept as the differential oracle, mirroring the ``executor=`` convention).
``iterations`` counts evaluation passes — one per non-recursive
component plus one per local round of each recursive component — and is
**not** comparable 1:1 to global round counts.

Budget semantics are preserved: one
:class:`~repro.engine.budget.Checkpoint` spans all components, checked at
every component boundary and local round.  A trip yields a sound partial
database with a *prefix property*: components earlier in the
condensation order are fully closed, the tripped component is partially
derived, later components are untouched — every fact present is
derivable (the iteration is inflationary).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.rules import Program, Rule
from ..facts.database import Database
from ..facts.relation import Relation, StampedView
from ..obs import get_metrics
from .budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from .counters import EvaluationStats
from .kernel import DEFAULT_EXECUTOR, compile_executors, head_rows
from .matching import compile_rule
from .planner import JoinPlanner

__all__ = [
    "SCHEDULERS",
    "DEFAULT_SCHEDULER",
    "PARALLEL_REMOVED",
    "resolve_scheduler",
    "Component",
    "Schedule",
    "build_schedule",
    "component_planner",
    "scc_seminaive_fixpoint",
    "scc_naive_fixpoint",
]

SCHEDULERS = ("scc", "global")

DEFAULT_SCHEDULER = "scc"

PARALLEL_REMOVED = (
    "scheduler='parallel' was removed; use 'scc' (same answers and "
    "counts) or `serve --processes N` for multi-core"
)


def resolve_scheduler(scheduler: str) -> str:
    """Validate a ``scheduler=`` argument (every bottom-up engine accepts
    one)."""
    if scheduler not in SCHEDULERS:
        if scheduler == "parallel":
            raise ValueError(PARALLEL_REMOVED)
        raise ValueError(
            f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}"
        )
    return scheduler


@dataclass(frozen=True)
class Component:
    """One rule-bearing SCC of the program's dependency graph.

    Attributes:
        predicates: all predicates of the SCC (for rule-bearing
            components this equals ``derived`` — an EDB predicate has no
            defining rule, hence no incoming dependency edge, hence
            cannot sit on a cycle with an IDB predicate).
        derived: the component's IDB predicates — the "derived" set of
            its local fixpoint.
        recursive: True iff the component is a genuine cycle (more than
            one member, or a single self-dependent predicate).
        rules: the program rules whose head lies in the component, in
            program order.
    """

    predicates: frozenset[str]
    derived: frozenset[str]
    recursive: bool
    rules: tuple[Rule, ...]


@dataclass(frozen=True)
class Schedule:
    """The program's rule-bearing components, dependencies first."""

    components: tuple[Component, ...]

    @property
    def recursive_count(self) -> int:
        return sum(1 for component in self.components if component.recursive)


def build_schedule(program: Program) -> Schedule:
    """Condense *program* into evaluation order.

    Components are :meth:`DependencyGraph.condensation_order` filtered to
    those defining at least one rule (pure-EDB singletons have nothing to
    evaluate); every proper rule lands in exactly one component — the one
    holding its head predicate — in program order.
    """
    graph = program.dependency_graph
    scc_of = graph.scc_of
    rules_of: dict[frozenset[str], list[Rule]] = {}  # SCC -> rules, program order
    for rule in program.proper_rules:
        rules_of.setdefault(scc_of[rule.head.predicate], []).append(rule)
    idb = program.idb_predicates
    successors = graph.successors
    components: list[Component] = []
    for scc in graph.condensation_order():
        rules = rules_of.get(scc)
        if rules is None:
            continue
        if len(scc) > 1:
            recursive = True
        else:
            (predicate,) = scc
            recursive = predicate in successors[predicate]
        components.append(Component(scc, scc & idb, recursive, tuple(rules)))
    return Schedule(tuple(components))


def component_planner(
    planner: "JoinPlanner | str | bool | None",
    database: Database,
    component: Component,
) -> JoinPlanner | None:
    """Resolve a planner spec for one component's compilation.

    Mirrors :func:`repro.engine.planner.resolve_planner`, but the
    ``unknown`` set shrinks to the component's own predicates: everything
    in lower components is materialised by the time the component is
    planned, so the planner reads their *real* statistics instead of the
    small-IDB default.  A caller-supplied :class:`JoinPlanner` instance
    is used unchanged for every component (its configuration is the
    caller's business).
    """
    if planner is None or planner is False:
        return None
    if isinstance(planner, JoinPlanner):
        return planner
    if planner is True or planner == "greedy":
        return JoinPlanner(database, unknown=component.derived)
    raise ValueError(
        f"unknown planner {planner!r}; use None, 'greedy', or a JoinPlanner"
    )


def _full_view(database: Database):
    """A RelationView reading every position from *database*."""

    def view(position: int, predicate: str) -> Relation | None:
        try:
            return database.relation(predicate)
        except KeyError:
            return None

    return view


def _observe_schedule(obs, schedule: Schedule) -> None:
    if obs.enabled:
        obs.observe("scheduler.components", len(schedule.components))
        obs.observe("scheduler.recursive_components", schedule.recursive_count)


def _single_pass(
    executors,
    working: Database,
    stats: EvaluationStats,
    checkpoint: Checkpoint | None,
) -> None:
    """One rule application for a non-recursive component.

    The component's single predicate never occurs in its own rule bodies
    (that would make it recursive), so inserting heads directly as they
    are enumerated is equivalent to the collect-then-merge discipline.
    """
    view = _full_view(working)
    for compiled, kernel in executors:
        target = working.relation(compiled.head_predicate)
        for row in head_rows(compiled, kernel, view, stats, checkpoint):
            stats.inferences += 1
            if target.add(row):
                stats.facts_derived += 1


def _component_seminaive(
    component: Component,
    executors,
    working: Database,
    arities,
    stats: EvaluationStats,
    checkpoint: Checkpoint | None,
    obs,
) -> int:
    """Local semi-naive fixpoint of one recursive component.

    Identical round discipline to the global loop
    (:func:`repro.engine.seminaive.seminaive_fixpoint`), restricted to
    ``component.derived``; lower-component predicates read full concrete
    relations at every position.  Returns the number of local rounds.
    """
    from .seminaive import _RoundView, _variant_positions

    derived = component.derived
    relations = {predicate: working.relation(predicate) for predicate in derived}

    # The delta agenda: delta predicate -> the (rule, kernel, position)
    # variants a non-empty delta of that predicate can fire.  Computed
    # once; rounds iterate only the agenda buckets with work to do.  Each
    # entry carries its head relation and a reusable round view — rounds
    # update the view's delta/old bindings in place instead of
    # re-allocating per variant per round.
    old: dict[str, StampedView] = {}
    agenda_map: dict[str, list] = {}
    for compiled, kernel in executors:
        target = working.relation(compiled.head_predicate)
        for position in _variant_positions(compiled, derived):
            view = _RoundView(working, position, None, old, derived)
            agenda_map.setdefault(
                compiled.body[position].predicate, []
            ).append((compiled, kernel, target, view))
    agenda = tuple(
        (predicate, tuple(agenda_map[predicate]))
        for predicate in sorted(agenda_map)
    )

    # --- local round 0: one application against the full database -------
    if checkpoint is not None:
        checkpoint.check_round()
    stats.iterations += 1
    delta: dict[str, Relation] = {
        predicate: Relation(predicate, arities[predicate])
        for predicate in derived
    }
    stamp = 1
    view = _full_view(working)
    with obs.timer("round"):
        for compiled, kernel in executors:
            target = relations[compiled.head_predicate]
            bucket = delta[compiled.head_predicate]
            for row in head_rows(compiled, kernel, view, stats, checkpoint):
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
                predicate: Relation(predicate, arities[predicate])
                for predicate in derived
            }
            for predicate, entries in agenda:
                delta_relation = delta[predicate]
                if not delta_relation:
                    skipped += len(entries)
                    continue
                for compiled, kernel, target, round_view in entries:
                    round_view.delta_relation = delta_relation
                    bucket = new_delta[compiled.head_predicate]
                    for row in head_rows(
                        compiled, kernel, round_view, stats, checkpoint
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


def scc_seminaive_fixpoint(
    program: Program,
    database: Database | None = None,
    stats: EvaluationStats | None = None,
    planner: "JoinPlanner | str | None" = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
    executor: str = DEFAULT_EXECUTOR,
) -> tuple[Database, EvaluationStats]:
    """Component-wise semi-naive evaluation of *program* (see module
    docstring).  Called through
    :func:`repro.engine.seminaive.seminaive_fixpoint` with
    ``scheduler="scc"`` (the default)."""
    stats = stats if stats is not None else EvaluationStats()
    obs = get_metrics()
    working = database.copy() if database is not None else Database()
    working.add_atoms(program.facts)
    arities = program.arities
    for predicate in program.idb_predicates:
        working.relation(predicate, arities[predicate])
    schedule = build_schedule(program)
    checkpoint = ensure_checkpoint(budget, stats)
    if checkpoint is not None:
        checkpoint.bind(working)
    _observe_schedule(obs, schedule)
    with obs.timer("seminaive"):
        for component in schedule.components:
            active_planner = component_planner(planner, working, component)
            compiled_rules = [
                compile_rule(rule, active_planner) for rule in component.rules
            ]
            executors = compile_executors(compiled_rules, executor)
            if not component.recursive:
                if checkpoint is not None:
                    checkpoint.check_round()
                stats.iterations += 1
                with obs.timer("round"):
                    _single_pass(executors, working, stats, checkpoint)
            else:
                rounds = _component_seminaive(
                    component, executors, working, arities, stats,
                    checkpoint, obs,
                )
                if obs.enabled:
                    obs.observe("scheduler.component_rounds", rounds)
    if obs.enabled:
        obs.incr("seminaive.runs")
        obs.observe("seminaive.iterations", stats.iterations)
    return working, stats


def scc_naive_fixpoint(
    program: Program,
    database: Database | None = None,
    stats: EvaluationStats | None = None,
    planner: "JoinPlanner | str | None" = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
    executor: str = DEFAULT_EXECUTOR,
) -> tuple[Database, EvaluationStats]:
    """Component-wise naive evaluation: non-recursive components get one
    pass, recursive components iterate their own rules to a local
    fixpoint.  Called through
    :func:`repro.engine.naive.naive_fixpoint` with ``scheduler="scc"``."""
    from .naive import apply_rules_once

    stats = stats if stats is not None else EvaluationStats()
    obs = get_metrics()
    working = database.copy() if database is not None else Database()
    working.add_atoms(program.facts)
    arities = program.arities
    for predicate in program.idb_predicates:
        working.relation(predicate, arities[predicate])
    schedule = build_schedule(program)
    checkpoint = ensure_checkpoint(budget, stats)
    if checkpoint is not None:
        checkpoint.bind(working)
    _observe_schedule(obs, schedule)
    with obs.timer("naive"):
        for component in schedule.components:
            active_planner = component_planner(planner, working, component)
            compiled_rules = [
                compile_rule(rule, active_planner) for rule in component.rules
            ]
            executors = compile_executors(compiled_rules, executor)
            kernels = [kernel for _, kernel in executors]
            if not component.recursive:
                if checkpoint is not None:
                    checkpoint.check_round()
                stats.iterations += 1
                with obs.timer("round"):
                    _single_pass(executors, working, stats, checkpoint)
                continue
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
            if obs.enabled:
                obs.observe("scheduler.component_rounds", rounds)
    if obs.enabled:
        obs.incr("naive.runs")
        obs.observe("naive.iterations", stats.iterations)
    return working, stats
