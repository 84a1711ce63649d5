"""Naive bottom-up fixpoint evaluation.

The textbook T_P iteration, per dependency component: every rule is
re-evaluated against the whole database each round until a round derives
nothing new.  Kept as the A2-ablation baseline for the semi-naive engine;
all production paths use :mod:`repro.engine.seminaive`, and the
interpreted correctness oracle is :mod:`repro.engine.reference`.

Negative literals read the full relation: the component schedule closes
every component a rule negates before the rule's own, so on a
stratifiable program each negated relation is complete when it is read
(:mod:`repro.engine.stratified` refuses any other program).
"""

from __future__ import annotations

from typing import Sequence

from ..datalog.rules import Program
from ..facts.database import Database
from ..obs import get_metrics
from .budget import Checkpoint, EvaluationBudget
from .counters import EvaluationStats
from .kernel import RuleKernel, compile_kernel
from .matching import compile_rule
from .scheduler import (
    build_schedule,
    full_view,
    observe_schedule,
    single_pass,
    start_run,
)

__all__ = ["naive_fixpoint", "apply_rules_once"]


def apply_rules_once(
    kernels: Sequence[RuleKernel],
    database: Database,
    stats: EvaluationStats,
    checkpoint: Checkpoint | None = None,
) -> list[tuple[str, tuple]]:
    """One T_P application: all head tuples derivable in a single step.

    Facts are *collected*, not inserted, so the caller controls whether the
    application is inflationary (naive engine) or not (tests that check the
    operator itself).
    """
    view = full_view(database)
    produced: list[tuple[str, tuple]] = []
    for kernel in kernels:
        for row in kernel.run(view, stats, checkpoint):
            stats.inferences += 1
            produced.append((kernel.head_predicate, row))
    return produced


def naive_fixpoint(
    program: Program,
    database: Database | None = None,
    stats: EvaluationStats | None = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
) -> tuple[Database, EvaluationStats]:
    """Evaluate *program* to fixpoint naively, component by component.

    Dependency components (:mod:`repro.engine.scheduler`) are closed in
    order: a non-recursive component gets one pass, a recursive one
    re-applies its own rules until a round derives nothing new.

    Args:
        program: rules to evaluate; embedded ground facts are loaded too.
        database: extensional facts; copied, never mutated.
        stats: optional counter record to accumulate into.
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            (or an already-running checkpoint, for nested evaluation);
            exhaustion raises
            :class:`repro.errors.BudgetExceededError` carrying the
            partial database.

    Returns:
        The completed database (EDB plus all derived IDB facts) and the
        statistics record.
    """
    stats = stats if stats is not None else EvaluationStats()
    obs = get_metrics()
    working, checkpoint = start_run(program, database, stats, budget)
    schedule = build_schedule(program)
    observe_schedule(obs, schedule.components)
    with obs.timer("naive"):
        for component in schedule.components:
            kernels = [compile_kernel(compile_rule(rule)) for rule in component.rules]
            if not component.recursive:
                if checkpoint is not None:
                    checkpoint.check_round()
                stats.iterations += 1
                with obs.timer("round"):
                    single_pass(kernels, working, stats, checkpoint)
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
                        kernels, working, stats, checkpoint
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
