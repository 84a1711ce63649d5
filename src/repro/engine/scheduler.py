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
  rules get fewer delta variants, and probes hit the concrete
  :class:`~repro.facts.relation.Relation` fast paths instead of stamped
  views.

Inside each local fixpoint, the per-round ``for rule: for position:``
sweep is replaced by a precomputed **delta agenda** — an index from each
same-component delta predicate to the ``(rule, kernel, position)``
variants it can fire — so a round touches only the rules a non-empty
delta can actually feed; everything else is skipped wholesale (counted
by ``scheduler.agenda_skipped``).

The scheduler changes *when* instantiations are enumerated, never *which*
ones: every rule-body instantiation that holds in the final model is
enumerated exactly once, so ``inferences`` equals the number of
rule-body matches over the final model and ``facts_derived`` the number
of derived rows (pinned against the interpreted reference evaluator,
:func:`repro.engine.reference.reference_model`, by
``tests/test_reference.py``).  ``iterations`` counts evaluation passes —
one per non-recursive component plus one per local round of each
recursive component.

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
from typing import Iterable, NamedTuple, Sequence

from ..datalog.atoms import Atom
from ..datalog.rules import Program, Rule
from ..facts.database import Database
from ..facts.relation import Relation
from .budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from .counters import EvaluationStats
from .matching import _record

__all__ = [
    "Component",
    "Schedule",
    "build_schedule",
]


class Component(NamedTuple):
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
        scc = scc_of[rule.head.predicate]
        rules = rules_of.get(scc)
        if rules is None:
            rules_of[scc] = [rule]
        else:
            rules.append(rule)
    components: list[Component] = []
    for scc in graph.condensation_order():
        rules = rules_of.get(scc)
        if rules is None:
            continue
        if len(scc) > 1:
            recursive = True
        else:
            (predicate,) = scc
            recursive = graph.has_edge(predicate, predicate)
        # Every member of a rule-bearing SCC heads a rule: it is derived.
        components.append(_record(Component, (scc, scc, recursive, tuple(rules))))
    return Schedule(tuple(components))


def full_view(database: Database):
    """A RelationView reading every position from *database*."""
    get = database.get

    def view(position: int, predicate: str) -> Relation | None:
        return get(predicate)

    return view


def start_run(
    program: Program,
    database: Database | None,
    stats: EvaluationStats,
    budget: "EvaluationBudget | Checkpoint | None",
    extra_facts: Iterable[Atom] = (),
) -> tuple[Database, "Checkpoint | None"]:
    """The working copy a fixpoint run mutates, and its checkpoint.

    The copy holds *database*, the program's embedded facts, *extra_facts*
    and an empty relation per IDB predicate (so negative literals over
    IDB predicates probe an empty relation rather than "unknown"); the
    checkpoint, if any, is bound to it.
    """
    working = database.copy() if database is not None else Database()
    working.add_atoms(program.facts)
    working.add_atoms(extra_facts)
    arities = program.arities
    for predicate in program.idb_predicates:
        working.relation(predicate, arities[predicate])
    checkpoint = ensure_checkpoint(budget, stats)
    if checkpoint is not None:
        checkpoint.bind(working)
    return working, checkpoint


def observe_schedule(obs, components: Sequence[Component]) -> None:
    if obs.enabled:
        obs.observe("scheduler.components", len(components))
        obs.observe(
            "scheduler.recursive_components",
            sum(1 for component in components if component.recursive),
        )


def single_pass(
    kernels,
    working: Database,
    stats: EvaluationStats,
    checkpoint: Checkpoint | None,
) -> None:
    """One rule application for a non-recursive component.

    The component's single predicate never occurs in its own rule bodies
    (that would make it recursive), so inserting heads directly as they
    are enumerated is equivalent to the collect-then-merge discipline.
    A kernel whose lead relation (:class:`~repro.engine.matching.CompiledRule`)
    has no rows is not run: it would probe nothing.
    """
    get = working.get
    view = full_view(working)
    for kernel in kernels:
        lead = kernel.compiled.lead
        if lead is not None and not get(lead):
            continue
        target = get(kernel.head_predicate)
        for row in kernel.run(view, stats, checkpoint):
            stats.inferences += 1
            if target.add(row):
                stats.facts_derived += 1
