"""Stratified bottom-up evaluation with negation.

A stratifiable program (:mod:`repro.analysis.stratify`) is evaluated by
one fixpoint — semi-naive by default — over all its rules.  The SCC
schedule (:mod:`repro.engine.scheduler`) closes every component before
any component that reads it, and a negative literal never reads its own
component, so each negated relation is complete before it is probed and
negation-as-failure is sound (this is the perfect-model semantics of
Apt–Blair–Walker / Van Gelder): the run derives, and counts, what
evaluating the strata one after another would.
"""

from __future__ import annotations

from ..analysis.stratify import stratify
from ..datalog.rules import Program
from ..facts.database import Database
from .budget import Checkpoint, EvaluationBudget
from .counters import EvaluationStats
from .naive import naive_fixpoint
from .seminaive import seminaive_fixpoint

__all__ = ["stratified_fixpoint"]


def stratified_fixpoint(
    program: Program,
    database: Database | None = None,
    stats: EvaluationStats | None = None,
    engine: str = "seminaive",
    budget: "EvaluationBudget | Checkpoint | None" = None,
) -> tuple[Database, EvaluationStats]:
    """Evaluate a stratifiable program.

    Args:
        program: rules (may use negation); embedded facts are loaded.
        database: extensional facts; copied, never mutated.
        stats: optional counter record to accumulate into.
        engine: ``"seminaive"`` (default) or ``"naive"`` — the fixpoint
            engine (the A2 ablation flips this).
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            (or an already-running checkpoint) spanning the whole run.

    Returns:
        The completed database and statistics.

    Raises:
        StratificationError: when the program is not stratifiable.
    """
    stratify(program)
    fixpoint = seminaive_fixpoint if engine == "seminaive" else naive_fixpoint
    return fixpoint(program, database, stats, budget=budget)
