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

The "old" view is **zero-copy**: every merged row carries an insertion
stamp (:meth:`repro.facts.relation.Relation.mark_round`), and old reads
are :meth:`~repro.facts.relation.Relation.rows_before` views that filter
probes by stamp.  Earlier versions rebuilt an ``old`` snapshot relation
per IDB predicate per round — O(|full|) work that grew with the model,
not the delta, undercutting the "no recomputation" property the delta
discipline exists for.  Per-round overhead is now O(|delta|).

Negative literals read the full view: within a stratum they only mention
relations completed by earlier strata, so their contents never change
during the fixpoint (enforced by :mod:`repro.engine.stratified`).
"""

from __future__ import annotations

from typing import Mapping

from ..datalog.rules import Program
from ..facts.database import Database
from ..facts.relation import Relation, StampedView
from ..obs import get_metrics
from .budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from .columnar import DEFAULT_STORAGE, as_storage
from .counters import EvaluationStats
from .kernel import DEFAULT_EXECUTOR, compile_executors, head_rows
from .matching import CompiledRule, compile_rule
from .planner import JoinPlanner, resolve_planner
from .scheduler import DEFAULT_SCHEDULER, resolve_scheduler

__all__ = ["seminaive_fixpoint", "run_global_rounds"]


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
    executor: str = DEFAULT_EXECUTOR,
    scheduler: str = DEFAULT_SCHEDULER,
    storage: str = DEFAULT_STORAGE,
) -> tuple[Database, EvaluationStats]:
    """Evaluate *program* to fixpoint with the semi-naive delta discipline.

    Args:
        program: rules to evaluate; embedded ground facts are loaded too.
        database: extensional facts; copied, never mutated.
        stats: optional counter record to accumulate into.
        planner: optional join planner (``"greedy"`` or a
            :class:`repro.engine.planner.JoinPlanner`); rule bodies are
            compiled in its cost-based order.  Delta variants are built
            over the *planned* body positions, so the discipline's
            exactly-once guarantee is unaffected.
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            (or an already-running checkpoint, for nested evaluation);
            checked at every round boundary and inside match loops.
            Exhaustion raises
            :class:`repro.errors.BudgetExceededError` carrying the
            partial database, whose facts are a sound prefix of the full
            model (the iteration is inflationary).
        executor: ``"kernel"`` (default) runs rule bodies as compiled
            slot kernels (:mod:`repro.engine.kernel`); ``"interpreted"``
            uses the recursive matcher.  Fact sets and counters are
            identical either way.
        scheduler: ``"scc"`` (default) evaluates the program
            component-by-component in dependency order with local
            fixpoints and a delta agenda
            (:mod:`repro.engine.scheduler`); ``"global"`` runs the
            single monolithic loop below, kept as the differential
            oracle.  Fact sets, ``facts_derived``, and ``inferences``
            are identical in both modes; ``iterations`` counts local
            component passes under scc and global rounds otherwise, so
            those are not comparable 1:1.
        storage: ``"tuples"`` (default) keeps facts as tuples of raw
            values; ``"columnar"`` interns constants and evaluates over
            the dictionary-encoded columnar backend with batch kernels
            (:mod:`repro.engine.columnar`).  Fact sets, counters,
            enumeration order, and budget-trip points are identical
            either way (the tuple backend is the differential oracle).
            Columnar storage requires ``executor="kernel"``.

    Returns:
        The completed database and the statistics record.
    """
    if resolve_scheduler(scheduler) == "scc":
        from .scheduler import scc_seminaive_fixpoint

        return scc_seminaive_fixpoint(
            program, database, stats, planner=planner, budget=budget,
            executor=executor, storage=storage,
        )
    stats = stats if stats is not None else EvaluationStats()
    working = as_storage(database, storage)
    working.add_atoms(program.facts)
    derived = program.idb_predicates
    arities = program.arities
    for predicate in derived:
        working.relation(predicate, arities[predicate])
    active_planner = resolve_planner(planner, working, program)
    compiled_rules = [
        compile_rule(rule, active_planner) for rule in program.proper_rules
    ]
    executors = compile_executors(
        compiled_rules, executor, getattr(working, "interner", None)
    )
    # Variant positions are a static property of the compiled body;
    # compute them once rather than per rule per round.
    variants = [
        (compiled, kernel, _variant_positions(compiled, derived))
        for compiled, kernel in executors
    ]
    checkpoint = ensure_checkpoint(budget, stats)
    if checkpoint is not None:
        checkpoint.bind(working)
    run_global_rounds(
        executors, variants, derived, arities, working, stats, checkpoint
    )
    return working, stats


def run_global_rounds(
    executors,
    variants,
    derived: frozenset[str],
    arities: Mapping[str, int],
    working: Database,
    stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> None:
    """The global-loop round discipline over already-compiled rules.

    This is the run half of the compile/run split: everything
    query-shape-specific (planning, rule compilation, kernel lowering,
    variant positions) happened before this call, so a prepared query
    (:mod:`repro.engine.prepared`) can execute it repeatedly against
    fresh working databases with zero recompilation.  *working* is
    mutated in place and must already hold every derived relation.
    """
    obs = get_metrics()

    def full_view(position: int, predicate: str) -> Relation | None:
        try:
            return working.relation(predicate)
        except KeyError:
            return None

    with obs.timer("seminaive"):
        # --- round 0: one T_P application on the initial database ----------
        # Facts are merged only at the round boundary; merging mid-round
        # would let later rules consume this round's facts and then
        # recompute the same instantiation from the delta in round 1.
        if checkpoint is not None:
            checkpoint.check_round()
        stats.iterations += 1
        # Deltas are spawned from the working database so they share its
        # storage backend (columnar deltas for a columnar working set).
        delta: dict[str, Relation] = {
            predicate: working.spawn(predicate, arities[predicate])
            for predicate in derived
        }
        # Rows merged at the end of round k carry stamp k+1; the "old"
        # view of round k+1 is then exactly the rows stamped <= k, read
        # through a zero-copy rows_before() filter.
        stamp = 1
        with obs.timer("round"):
            for compiled, kernel in executors:
                target = working.relation(compiled.head_predicate)
                for row in head_rows(
                    compiled, kernel, full_view, stats, checkpoint, batch=True
                ):
                    stats.inferences += 1
                    if row not in target:
                        delta[compiled.head_predicate].add(row)
            for predicate in derived:
                working.relation(predicate).mark_round(stamp)
                for row in delta[predicate]:
                    if working.add(predicate, row):
                        stats.facts_derived += 1
        if obs.enabled:
            obs.observe(
                "seminaive.delta_rows",
                sum(len(delta[predicate]) for predicate in derived),
            )

        # --- delta rounds ---------------------------------------------------
        while any(delta[predicate] for predicate in derived):
            if checkpoint is not None:
                checkpoint.check_round()
            stats.iterations += 1
            with obs.timer("round"):
                # old = full minus current delta (the state before the last
                # merge): a stamped view per IDB predicate, O(1) to build.
                old: dict[str, StampedView] = {
                    predicate: working.relation(predicate).rows_before(stamp)
                    for predicate in derived
                }
                new_delta: dict[str, Relation] = {
                    predicate: working.spawn(predicate, arities[predicate])
                    for predicate in derived
                }
                for compiled, kernel, positions in variants:
                    for position in positions:
                        literal = compiled.body[position]
                        delta_relation = delta[literal.predicate]
                        if not delta_relation:
                            continue
                        view = _RoundView(working, position, delta_relation, old, derived)
                        target = working.relation(compiled.head_predicate)
                        for row in head_rows(
                            compiled, kernel, view, stats, checkpoint,
                            batch=True,
                        ):
                            stats.inferences += 1
                            if row not in target:
                                new_delta[compiled.head_predicate].add(row)
                # Merge after the round so all variants of the round read a
                # consistent full view.
                stamp += 1
                for predicate in derived:
                    working.relation(predicate).mark_round(stamp)
                    for row in new_delta[predicate]:
                        if working.add(predicate, row):
                            stats.facts_derived += 1
            if obs.enabled:
                obs.incr("seminaive.stamped_rounds")
                obs.observe(
                    "seminaive.delta_rows",
                    sum(len(new_delta[predicate]) for predicate in derived),
                )
            delta = new_delta
    if obs.enabled:
        obs.incr("seminaive.runs")
        obs.observe("seminaive.iterations", stats.iterations)
