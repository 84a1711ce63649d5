"""Stratified bottom-up evaluation with negation.

The program is split into strata (:mod:`repro.analysis.stratify`); each
stratum is evaluated to fixpoint — semi-naive by default — against the
database completed by all lower strata.  Within a stratum, every negative
literal refers to a lower stratum's predicate, so its relation is already
complete and negation-as-failure is sound (this is the perfect-model
semantics of Apt–Blair–Walker / Van Gelder).
"""

from __future__ import annotations

from typing import Callable

from ..datalog.rules import Program
from ..facts.database import Database
from ..obs import get_metrics
from .budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from .counters import EvaluationStats
from .kernel import DEFAULT_EXECUTOR
from .naive import naive_fixpoint
from .scheduler import DEFAULT_SCHEDULER
from .seminaive import seminaive_fixpoint

__all__ = ["stratified_fixpoint"]

# A fixpoint engine: (program, database, stats) -> (database, stats).
FixpointEngine = Callable[
    [Program, Database, EvaluationStats], tuple[Database, EvaluationStats]
]


def stratified_fixpoint(
    program: Program,
    database: Database | None = None,
    stats: EvaluationStats | None = None,
    engine: str = "seminaive",
    planner: "str | None" = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
    executor: str = DEFAULT_EXECUTOR,
    scheduler: str = DEFAULT_SCHEDULER,
) -> tuple[Database, EvaluationStats]:
    """Evaluate a stratifiable program, stratum by stratum.

    Args:
        program: rules (may use negation); embedded facts are loaded.
        database: extensional facts; copied, never mutated.
        stats: optional counter record to accumulate into.
        engine: ``"seminaive"`` (default) or ``"naive"`` — the per-stratum
            fixpoint engine (the A2 ablation flips this).
        planner: optional join-planner spec forwarded to each per-stratum
            fixpoint; passed as a *spec* (e.g. ``"greedy"``) so every
            stratum plans against the database completed by the strata
            below it — lower-stratum IDB relations are then materialised
            and their real statistics inform the plan.
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            (or an already-running checkpoint).  One checkpoint spans all
            strata — the clock and counters accumulate across the whole
            stratified run, not per stratum.
        executor: forwarded to every per-stratum fixpoint (``"kernel"``
            default, ``"interpreted"`` for the oracle matcher).
        scheduler: forwarded to every per-stratum fixpoint (``"scc"``
            default — each stratum is further condensed into dependency
            components; ``"global"`` for the monolithic oracle loop).

    Returns:
        The completed database and statistics.

    Raises:
        StratificationError: when the program is not stratifiable.
    """
    from ..analysis.stratify import stratify

    stats = stats if stats is not None else EvaluationStats()
    obs = get_metrics()
    fixpoint = seminaive_fixpoint if engine == "seminaive" else naive_fixpoint
    working = database.copy() if database is not None else Database()
    working.add_atoms(program.facts)
    stratification = stratify(program)
    checkpoint = ensure_checkpoint(budget, stats)
    with obs.timer("stratified"):
        for index, stratum in enumerate(stratification.strata):
            with obs.timer(f"stratum{index}"):
                working, _ = fixpoint(
                    stratum,
                    working,
                    stats,
                    planner=planner,
                    budget=checkpoint,
                    executor=executor,
                    scheduler=scheduler,
                )
    if obs.enabled:
        obs.observe("stratified.strata", len(stratification.strata))
    return working, stats
