"""Semi-naive (differential) bottom-up fixpoint evaluation.

This is the engine the Alexander method is designed for: the transformed
program is evaluated by the standard delta discipline so that no rule body
instantiation is recomputed in later rounds.

The implementation follows the classical formulation (Balbin &
Ramamohanarao; Abiteboul–Hull–Vianu §13.1).  For each rule and each body
position *j* holding a derived (IDB) predicate, a *delta variant* is
evaluated each round with:

* positions ``i < j``  reading the **full** current relation,
* position  ``j``      reading the **delta** of the previous round,
* positions ``i > j``  reading the **old** relation (full minus delta),

which enumerates exactly the new instantiations — each joint instantiation
of derived literals is produced at exactly one variant (the one whose
delta position is the *first* literal instantiated by a previous-round
fact).

The "old" view is **zero-copy**: a round collects its new heads in plain
dicts and merges each non-empty one with one
:meth:`repro.facts.relation.Relation.merge` call, which stamps its rows
with the round; the same dict, adopted, is the next round's delta.  Old
reads are one :meth:`~repro.facts.relation.Relation.rows_before` view
per predicate whose cutoff advances each round.  A round therefore
allocates nothing for a predicate whose delta is empty and inserts each
new fact once: per-round overhead is O(|delta|), not O(|full|).

Negative literals read the full view: within a stratum they only mention
relations completed by earlier strata, so their contents never change
during the fixpoint (enforced by :mod:`repro.engine.stratified`).

Evaluation is SCC-scheduled (:mod:`repro.engine.scheduler`): the program
is condensed into dependency components, each non-recursive component
gets one rule pass, and each recursive component runs the delta
discipline above *locally*, with only its own predicates counting as
derived.  Lower-component IDB relations are complete by then, so they
are read as plain full relations: rules get fewer delta variants, and
probes hit the concrete :class:`~repro.facts.relation.Relation` fast
paths.  Inside a local fixpoint the per-round ``for rule: for
position:`` sweep is replaced by a precomputed **delta agenda** — an
index from each delta predicate to the ``(kernel, position)`` variants
it can fire — so a round touches only the rules a non-empty delta can
feed (the rest are counted by ``scheduler.agenda_skipped``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from ..datalog.rules import Program
from ..facts.database import Database
from ..facts.relation import Relation, StampedView
from ..obs import get_metrics
from .budget import Checkpoint, EvaluationBudget
from .counters import EvaluationStats
from .kernel import RuleKernel, compile_kernel
from .matching import CompiledRule, compile_rule
from .planner import JoinPlanner
from .scheduler import (
    Component,
    build_schedule,
    component_planner,
    full_view,
    observe_schedule,
    single_pass,
    start_run,
)

__all__ = ["seminaive_fixpoint", "run_components", "merge_round"]


def _variant_positions(compiled: CompiledRule, derived: frozenset[str]) -> list[int]:
    """Body positions holding a positive literal of a derived predicate."""
    return [
        index
        for index, literal in enumerate(compiled.body)
        if literal.positive and literal.predicate in derived
    ]


class _RoundView:
    """The three-way full/delta/old relation view for one delta variant."""

    __slots__ = ("database", "delta_position", "delta_relation", "old", "derived")

    def __init__(
        self,
        database: Database,
        delta_position: int,
        delta_relation: Relation,
        old: Mapping[str, StampedView],
        derived: frozenset[str],
    ):
        self.database = database
        self.delta_position = delta_position
        self.delta_relation = delta_relation
        self.old = old
        self.derived = derived

    def __call__(self, position: int, predicate: str):
        if position == self.delta_position:
            return self.delta_relation
        if position > self.delta_position and predicate in self.derived:
            return self.old.get(predicate)
        try:
            return self.database.relation(predicate)
        except KeyError:
            return None


def seminaive_fixpoint(
    program: Program,
    database: Database | None = None,
    stats: EvaluationStats | None = None,
    planner: "JoinPlanner | str | None" = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
) -> tuple[Database, EvaluationStats]:
    """Evaluate *program* to fixpoint with the semi-naive delta discipline.

    Args:
        program: rules to evaluate; embedded ground facts are loaded too.
        database: extensional facts; copied, never mutated.
        stats: optional counter record to accumulate into.
        planner: optional join planner (``"greedy"`` or a
            :class:`repro.engine.planner.JoinPlanner`); rule bodies are
            compiled in its cost-based order, each component planned
            against the relation statistics after the components below
            it materialised.  Delta variants are built over the
            *planned* body positions, so the discipline's exactly-once
            guarantee is unaffected.
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            (or an already-running checkpoint, for nested evaluation);
            checked at every component boundary and local round and
            inside match loops.  Exhaustion raises
            :class:`repro.errors.BudgetExceededError` carrying the
            partial database, whose facts are a sound prefix of the full
            model (the iteration is inflationary): components earlier in
            the schedule are closed, the tripped one is partial, later
            ones are untouched.

    Returns:
        The completed database and the statistics record.
    """
    stats = stats if stats is not None else EvaluationStats()
    working, checkpoint = start_run(program, database, stats, budget)
    schedule = build_schedule(program)
    observe_schedule(get_metrics(), schedule.components)

    def compiled():
        # Lazily, so each component plans against the materialised
        # relations of the components below it.
        for component in schedule.components:
            active = component_planner(planner, working, component)
            yield component, [
                compile_kernel(compile_rule(rule, active))
                for rule in component.rules
            ]

    run_components(compiled(), working, stats, checkpoint)
    return working, stats


def run_components(
    components: Iterable[tuple[Component, Sequence[RuleKernel]]],
    working: Database,
    stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> None:
    """Close each ``(component, kernels)`` in turn, in schedule order.

    This is the run half of the compile/run split: a prepared query
    (:mod:`repro.engine.prepared`) passes its precompiled components and
    runs them repeatedly against fresh working databases with zero
    recompilation.  *working* is mutated in place and must already hold
    every derived relation (:func:`~repro.engine.scheduler.start_run`).
    """
    obs = get_metrics()
    with obs.timer("seminaive"):
        for component, kernels in components:
            if not component.recursive:
                if checkpoint is not None:
                    checkpoint.check_round()
                stats.iterations += 1
                with obs.timer("round"):
                    single_pass(kernels, working, stats, checkpoint)
            else:
                rounds = _component_seminaive(
                    component, kernels, working, stats, checkpoint, obs,
                )
                if obs.enabled:
                    obs.observe("scheduler.component_rounds", rounds)
    if obs.enabled:
        obs.incr("seminaive.runs")
        obs.observe("seminaive.iterations", stats.iterations)


def _component_seminaive(
    component: Component,
    kernels: Sequence[RuleKernel],
    working: Database,
    stats: EvaluationStats,
    checkpoint: Checkpoint | None,
    obs,
) -> int:
    """Local semi-naive fixpoint of one recursive component, restricted
    to ``component.derived``; lower-component predicates read full
    concrete relations at every position.  Returns the number of local
    rounds.
    """
    derived = component.derived
    relations = {predicate: working.relation(predicate) for predicate in derived}
    # One old view per predicate; each delta round advances its cutoff.
    old = {predicate: relations[predicate].rows_before(0) for predicate in derived}

    # The delta agenda: delta predicate -> the (kernel, position)
    # variants a non-empty delta of that predicate can fire.  Computed
    # once; rounds iterate only the agenda buckets with work to do.  Each
    # entry's round view is reused: rounds rebind its delta in place.
    agenda_map: dict[str, list] = {}
    for kernel in kernels:
        compiled = kernel.compiled
        for position in _variant_positions(compiled, derived):
            view = _RoundView(working, position, None, old, derived)
            agenda_map.setdefault(
                compiled.body[position].predicate, []
            ).append((kernel, view))
    agenda = tuple(
        (predicate, tuple(agenda_map[predicate]))
        for predicate in sorted(agenda_map)
    )

    # --- local round 0: one application against the full database -------
    # Facts are merged only at the round boundary; merging mid-round
    # would let later rules consume this round's facts and then
    # recompute the same instantiation from the delta in round 1.
    if checkpoint is not None:
        checkpoint.check_round()
    stats.iterations += 1
    # Rows merged at the end of round k carry stamp k+1; the "old" view
    # of round k+1 is then exactly the rows stamped <= k, read through a
    # zero-copy rows_before() filter.
    stamp = 1
    view = full_view(working)
    heads: dict[str, dict] = {}
    with obs.timer("round"):
        for kernel in kernels:
            _collect(kernel, view, relations, heads, stats, checkpoint)
        delta = merge_round(heads, relations.__getitem__, stamp, stats)
    if obs.enabled:
        obs.observe("seminaive.delta_rows", sum(map(len, delta.values())))

    # --- local delta rounds (an empty delta is absent: it costs nothing) -
    rounds = 1
    while delta:
        if checkpoint is not None:
            checkpoint.check_round()
        stats.iterations += 1
        rounds += 1
        skipped = 0
        with obs.timer("round"):
            for old_view in old.values():
                old_view.cutoff = stamp
            heads = {}
            for predicate, entries in agenda:
                delta_relation = delta.get(predicate)
                if delta_relation is None:
                    skipped += len(entries)
                    continue
                for kernel, round_view in entries:
                    round_view.delta_relation = delta_relation
                    _collect(kernel, round_view, relations, heads, stats, checkpoint)
            # Merge after the round so all variants of the round read a
            # consistent full view.
            stamp += 1
            delta = merge_round(heads, relations.__getitem__, stamp, stats)
        if obs.enabled:
            obs.incr("seminaive.stamped_rounds")
            if skipped:
                obs.incr("scheduler.agenda_skipped", skipped)
            obs.observe("seminaive.delta_rows", sum(map(len, delta.values())))
    return rounds


def _collect(kernel, view, relations, heads, stats, checkpoint) -> None:
    """Run *kernel* once, collecting the heads not yet in the full
    relation into ``heads[predicate]``, a ``{row: None}`` dict."""
    predicate = kernel.head_predicate
    target = relations[predicate]
    bucket = heads.get(predicate)
    if bucket is None:
        bucket = heads[predicate] = {}
    for row in kernel.run(view, stats, checkpoint):
        stats.inferences += 1
        if row not in target:
            bucket[row] = None


def merge_round(
    heads: Mapping[str, dict], relation_of: Callable[[str], Relation],
    stamp: int, stats: EvaluationStats,
) -> dict[str, Relation]:
    """Merge each non-empty ``{row: None}`` dict of *heads* into its
    relation at *stamp*, charging ``facts_derived`` per new row; returns
    the next delta, those same dicts adopted, by predicate."""
    delta = {}
    for predicate, rows in heads.items():
        if rows:
            relation = relation_of(predicate)
            stats.facts_derived += relation.merge(rows, stamp)
            delta[predicate] = Relation.adopt(predicate, relation.arity, rows)
    return delta
