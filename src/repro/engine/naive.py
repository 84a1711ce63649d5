"""Naive bottom-up fixpoint evaluation.

The textbook T_P iteration: every rule is re-evaluated against the whole
database each round until a round derives nothing new.  Kept primarily as
the correctness oracle and the A2-ablation baseline for the semi-naive
engine; all production paths use :mod:`repro.engine.seminaive`.

Negation is *not* handled here (a run of a single stratum must be
negation-free or have its negative literals refer only to relations that
are already complete); :mod:`repro.engine.stratified` layers strata on top
of either fixpoint engine.
"""

from __future__ import annotations

from typing import Sequence

from ..datalog.rules import Program
from ..facts.database import Database
from ..facts.relation import Relation
from ..obs import get_metrics
from .budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from .counters import EvaluationStats
from .kernel import DEFAULT_EXECUTOR, RuleKernel, compile_executors, head_rows
from .matching import CompiledRule, compile_rule
from .planner import JoinPlanner, resolve_planner
from .scheduler import DEFAULT_SCHEDULER, resolve_scheduler

__all__ = ["naive_fixpoint", "apply_rules_once"]


def _full_view(database: Database):
    """A RelationView reading every position from *database*."""

    def view(position: int, predicate: str) -> Relation | None:
        try:
            return database.relation(predicate)
        except KeyError:
            return None

    return view


def apply_rules_once(
    compiled_rules: Sequence[CompiledRule],
    database: Database,
    stats: EvaluationStats,
    checkpoint: Checkpoint | None = None,
    kernels: Sequence[RuleKernel | None] | None = None,
) -> list[tuple[str, tuple]]:
    """One T_P application: all head tuples derivable in a single step.

    Facts are *collected*, not inserted, so the caller controls whether the
    application is inflationary (naive engine) or not (tests that check the
    operator itself).

    Args:
        kernels: optional pre-compiled rule kernels parallel to
            *compiled_rules* (see :mod:`repro.engine.kernel`); positions
            holding ``None`` fall back to the interpreted matcher.
    """
    view = _full_view(database)
    produced: list[tuple[str, tuple]] = []
    for index, compiled in enumerate(compiled_rules):
        kernel = kernels[index] if kernels is not None else None
        for row in head_rows(compiled, kernel, view, stats, checkpoint):
            stats.inferences += 1
            produced.append((compiled.head_predicate, row))
    return produced


def naive_fixpoint(
    program: Program,
    database: Database | None = None,
    stats: EvaluationStats | None = None,
    planner: "JoinPlanner | str | None" = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
    executor: str = DEFAULT_EXECUTOR,
    scheduler: str = DEFAULT_SCHEDULER,
) -> tuple[Database, EvaluationStats]:
    """Evaluate *program* to fixpoint naively.

    Args:
        program: rules to evaluate; embedded ground facts are loaded too.
        database: extensional facts; copied, never mutated.
        stats: optional counter record to accumulate into.
        planner: optional join planner (``"greedy"`` or a
            :class:`repro.engine.planner.JoinPlanner`); rule bodies are
            compiled in its cost-based order instead of textual order.
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            (or an already-running checkpoint, for nested evaluation);
            exhaustion raises
            :class:`repro.errors.BudgetExceededError` carrying the
            partial database.
        executor: ``"kernel"`` (default) runs rule bodies as compiled
            slot kernels (:mod:`repro.engine.kernel`); ``"interpreted"``
            uses the recursive matcher.  The derived fact set and every
            counter are identical either way.
        scheduler: ``"scc"`` (default) evaluates dependency components
            in order, iterating only recursive components to a local
            fixpoint (:mod:`repro.engine.scheduler`); ``"global"`` runs
            the monolithic loop below.  The derived fact set is
            identical either way, but naive evaluation re-enumerates
            the whole database each round, so ``inferences``/
            ``attempts``/``iterations`` legitimately differ between
            schedulers (unlike semi-naive, where they match).

    Returns:
        The completed database (EDB plus all derived IDB facts) and the
        statistics record.
    """
    if resolve_scheduler(scheduler) == "scc":
        from .scheduler import scc_naive_fixpoint

        return scc_naive_fixpoint(
            program, database, stats, planner=planner, budget=budget,
            executor=executor,
        )
    stats = stats if stats is not None else EvaluationStats()
    working = database.copy() if database is not None else Database()
    working.add_atoms(program.facts)
    # Ensure every IDB predicate has a (possibly empty) relation, so
    # negative literals over IDB predicates probe an empty relation rather
    # than "unknown".
    for rule in program.proper_rules:
        working.relation(rule.head.predicate, rule.head.arity)
    active_planner = resolve_planner(planner, working, program)
    compiled_rules = [
        compile_rule(rule, active_planner) for rule in program.proper_rules
    ]
    executors = compile_executors(compiled_rules, executor)
    kernels = [kernel for _, kernel in executors]
    checkpoint = ensure_checkpoint(budget, stats)
    if checkpoint is not None:
        checkpoint.bind(working)
    obs = get_metrics()
    with obs.timer("naive"):
        changed = True
        while changed:
            if checkpoint is not None:
                checkpoint.check_round()
            stats.iterations += 1
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
        obs.incr("naive.runs")
        obs.observe("naive.iterations", stats.iterations)
    return working, stats
