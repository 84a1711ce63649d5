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
position:`` sweep is replaced by a **delta agenda** — an index from
each delta predicate to the ``(kernel, position)`` variants it can fire,
built in the pass that lowers the component's rules
(:func:`lower_component`) — so a round touches only the rules a
non-empty delta can feed (the rest are counted by
``scheduler.agenda_skipped``).

Each delta variant's :data:`~repro.engine.matching.RelationView` is
**bound once per component**: a dict from every body position its
kernel reads to that position's relation — full, old, or the delta —
whose ``get`` the kernel calls, so resolving a position costs no Python
call.  A round only re-points the delta position.  A run whose lead
relation (:class:`~repro.engine.matching.CompiledRule`) has no rows is
skipped: it would probe no row, charge nothing and derive nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from ..datalog.rules import Program
from ..facts.database import Database
from ..facts.relation import Relation
from ..obs import get_metrics
from .budget import Checkpoint, EvaluationBudget
from .counters import EvaluationStats
from .kernel import RuleKernel, compile_kernel
from .matching import CompiledRule, compile_rule
from .scheduler import (
    Component,
    build_schedule,
    full_view,
    observe_schedule,
    single_pass,
    start_run,
)

__all__ = [
    "CompiledComponent",
    "lower_component",
    "merge_round",
    "run_components",
    "run_schedule",
    "seminaive_fixpoint",
]


class CompiledComponent(NamedTuple):
    """One schedule component with its rules compiled and lowered.

    Attributes:
        component: the schedule component.
        kernels: its rules' kernels, in rule order.
        agenda: a recursive component's delta agenda, ``(predicate,
            ((kernel, position), ...))`` sorted by predicate: every
            body position that reads a same-component predicate
            positively is one delta variant, fired when that
            predicate's delta is non-empty.  Empty for a non-recursive
            component.
    """

    component: Component
    kernels: tuple[RuleKernel, ...]
    agenda: tuple = ()


def lower_component(
    component: Component, compiled_rules: Iterable[CompiledRule]
) -> CompiledComponent:
    """*component* with *compiled_rules* (its rules, in order) lowered to
    kernels, and its delta agenda built in the same pass."""
    kernels = []
    variants: dict[str, list] = {}
    recursive = component.recursive
    derived = component.derived
    for compiled in compiled_rules:
        kernel = compile_kernel(compiled)
        kernels.append(kernel)
        if recursive:
            for position, predicate, positive in compiled.reads:
                if positive and predicate in derived:
                    variants.setdefault(predicate, []).append((kernel, position))
    agenda = tuple(
        (predicate, tuple(variants[predicate])) for predicate in sorted(variants)
    )
    return CompiledComponent(component, tuple(kernels), agenda)


def seminaive_fixpoint(
    program: Program,
    database: Database | None = None,
    stats: EvaluationStats | None = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
) -> tuple[Database, EvaluationStats]:
    """Evaluate *program* to fixpoint with the semi-naive delta discipline.

    Args:
        program: rules to evaluate; embedded ground facts are loaded too.
        database: extensional facts; copied, never mutated.
        stats: optional counter record to accumulate into.
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
    run_schedule(build_schedule(program).components, working, stats, checkpoint)
    return working, stats


def run_schedule(
    components: Sequence[Component],
    working: Database,
    stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> None:
    """Lower and close *components*, dependencies first, over *working*.

    Each component is lowered (:func:`lower_component`) when it is
    reached and run (:func:`run_components`).
    *working* must already hold every derived relation
    (:func:`~repro.engine.scheduler.start_run`).
    """
    observe_schedule(get_metrics(), components)

    def lowered():
        for component in components:
            yield lower_component(
                component, [compile_rule(rule) for rule in component.rules]
            )

    run_components(lowered(), working, stats, checkpoint)


def run_components(
    components: Iterable[CompiledComponent],
    working: Database,
    stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> None:
    """Close each lowered component in turn, in schedule order.

    This is the run half of the compile/run split: a prepared query
    (:mod:`repro.engine.prepared`) passes its precompiled components and
    runs them repeatedly against fresh working databases with zero
    recompilation.  *working* is mutated in place and must already hold
    every derived relation (:func:`~repro.engine.scheduler.start_run`).
    """
    obs = get_metrics()
    with obs.timer("seminaive"):
        for lowered in components:
            if not lowered.component.recursive:
                if checkpoint is not None:
                    checkpoint.check_round()
                stats.iterations += 1
                with obs.timer("round"):
                    single_pass(lowered.kernels, working, stats, checkpoint)
            else:
                rounds = _component_seminaive(
                    lowered, working, stats, checkpoint, obs,
                )
                if obs.enabled:
                    obs.observe("scheduler.component_rounds", rounds)
    if obs.enabled:
        obs.incr("seminaive.runs")
        obs.observe("seminaive.iterations", stats.iterations)


def _component_seminaive(
    lowered: CompiledComponent,
    working: Database,
    stats: EvaluationStats,
    checkpoint: Checkpoint | None,
    obs,
) -> int:
    """Local semi-naive fixpoint of one recursive component, restricted
    to its derived predicates; lower-component predicates read full
    concrete relations at every position.  Returns the number of local
    rounds.
    """
    derived = lowered.component.derived
    get = working.get
    relations = {predicate: get(predicate) for predicate in derived}
    # One old view per predicate; each delta round advances its cutoff.
    old = {predicate: relations[predicate].rows_before(0) for predicate in derived}

    # Round 0 reads every position in full.  Each delta variant is bound
    # once: a dict from each position its kernel reads to the full
    # relation before its delta position and the old view at later
    # same-component positions; rounds re-point only the delta position.
    view = full_view(working)
    agenda = []
    for predicate, variants in lowered.agenda:
        entries = []
        for kernel, delta_position in variants:
            compiled = kernel.compiled
            reads = {}
            for position, name, _ in compiled.reads:
                if position > delta_position and name in derived:
                    reads[position] = old[name]
                else:
                    reads[position] = get(name)
            # The lead reads a full relation, unless it is the delta.
            lead = compiled.lead
            if lead is not None and compiled.shape[1][0][0] == delta_position:
                lead = None
            entries.append((
                kernel.run, reads, delta_position, lead,
                kernel.head_predicate, relations[kernel.head_predicate].contains,
            ))
        agenda.append((predicate, entries))

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
    heads: dict[str, dict] = {}
    with obs.timer("round"):
        for kernel in lowered.kernels:
            lead = kernel.compiled.lead
            if lead is not None and not get(lead):
                continue
            head = kernel.head_predicate
            known = relations[head].contains
            bucket = heads.get(head)
            if bucket is None:
                bucket = heads[head] = {}
            for row in kernel.run(view, stats, checkpoint):
                stats.inferences += 1
                if not known(row):
                    bucket[row] = None
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
                for run, reads, delta_position, lead, head, known in entries:
                    reads[delta_position] = delta_relation
                    if lead is not None and not get(lead):
                        continue
                    bucket = heads.get(head)
                    if bucket is None:
                        bucket = heads[head] = {}
                    for row in run(reads.get, stats, checkpoint):
                        stats.inferences += 1
                        if not known(row):
                            bucket[row] = None
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
