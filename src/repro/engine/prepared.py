"""Precompiled fixpoints: plan and compile once, evaluate many times.

Every bottom-up entry point in the library re-resolves its planner,
re-compiles its rules, and re-lowers them to kernels on every call.  For
a one-shot CLI evaluation that is invisible; for a long-lived query
service answering the same query shape thousands of times it is pure
overhead — and it is exactly the overhead the Alexander/magic family
makes worth eliminating, because a transformed program is query-shape
specific and expensive to rebuild.

This module splits evaluation into its two natural halves:

* :func:`compile_fixpoint` does everything that depends only on the
  *rules* (and, for cost-based planning, on the base relation
  statistics): scheduling (:func:`repro.engine.scheduler.build_schedule`),
  join planning, rule compilation, and kernel lowering.  The result is an
  immutable :class:`CompiledFixpoint`.
* :func:`run_fixpoint` evaluates a :class:`CompiledFixpoint` against a
  database — any number of times, each run with its own working copy,
  :class:`~repro.engine.counters.EvaluationStats`, and budget
  checkpoint.  Nothing is re-planned or re-compiled.

The run discipline is byte-for-byte the one-shot engines' own: the scc
mode drives :func:`repro.engine.scheduler._single_pass` /
``_component_seminaive`` and the global mode drives
:func:`repro.engine.seminaive.run_global_rounds`, so derived fact sets
and counters are identical to calling
:func:`~repro.engine.seminaive.seminaive_fixpoint` directly (pinned by
``tests/test_prepare.py``).  One deliberate difference: with a planner
spec, the one-shot scc path plans each component against the relation
statistics *after* lower components materialised, while a compiled
fixpoint plans every component up front against base statistics only
(the IDB sizes are unknowable before the first run).  Plans may differ;
answers never do.

``extra_facts`` is how prepared queries inject their per-request seed
facts (the magic/call seed carrying the query's bound constants) without
recompiling anything: seeds are plain ground atoms, and embedding them
as body-less rules — as :meth:`TransformedProgram.evaluation_program`
does — is equivalent to loading them into the working database first.

:func:`record_footprint` and :func:`footprint_touches` are how a
prepared shape decides whether a base-fact update can change a completed
run: the footprint is every probe key the run's base-predicate
occurrences could have issued, and an update that matches none of them
leaves the run — answers and counters — exactly as it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..datalog.atoms import Atom
from ..datalog.rules import Program
from ..facts.database import Database
from ..obs import get_metrics
from .budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from .counters import EvaluationStats
from .kernel import DEFAULT_EXECUTOR, RuleKernel, compile_executors, head_rows, resolve_executor
from .matching import CompiledRule, compile_rule
from .planner import resolve_planner
from .scheduler import (
    DEFAULT_SCHEDULER,
    Component,
    _component_seminaive,
    _full_view,
    _observe_schedule,
    _single_pass,
    build_schedule,
    component_planner,
    resolve_scheduler,
)
from .seminaive import _variant_positions, run_global_rounds

__all__ = [
    "CompiledComponent",
    "CompiledFixpoint",
    "compile_fixpoint",
    "footprint_touches",
    "record_footprint",
    "run_fixpoint",
]


@dataclass(frozen=True)
class CompiledComponent:
    """One schedule component with its rules compiled and lowered."""

    component: Component
    executors: tuple[tuple[CompiledRule, "RuleKernel | None"], ...]


@dataclass(frozen=True)
class CompiledFixpoint:
    """A program's evaluation plan, compiled once for repeated runs.

    Attributes:
        program: the source rules (facts, if any, are loaded per run).
        executor: ``"kernel"`` or ``"interpreted"`` (fixed at compile).
        scheduler: ``"scc"`` or ``"global"`` (fixed at compile).
        components: the compiled schedule (scc mode; empty otherwise).
        executors: the compiled rule list (global mode; empty otherwise).
        variants: per-executor delta-variant positions (global mode).
    """

    program: Program
    executor: str
    scheduler: str
    components: tuple[CompiledComponent, ...] = ()
    executors: tuple[tuple[CompiledRule, "RuleKernel | None"], ...] = ()
    variants: tuple[tuple, ...] = ()

    @property
    def rule_count(self) -> int:
        return len(self.program.proper_rules)

    @property
    def pairs(self) -> list[tuple[CompiledRule, "RuleKernel | None"]]:
        """Every compiled rule with its kernel, whatever the scheduler."""
        if self.scheduler == "global":
            return list(self.executors)
        return [pair for cc in self.components for pair in cc.executors]

    @property
    def kernel_count(self) -> int:
        return sum(1 for _, kernel in self.pairs if kernel is not None)


def compile_fixpoint(
    program: Program,
    database: "Database | None" = None,
    planner=None,
    executor: str = DEFAULT_EXECUTOR,
    scheduler: str = DEFAULT_SCHEDULER,
) -> CompiledFixpoint:
    """Compile *program* for repeated semi-naive evaluation.

    Args:
        program: rules to compile; embedded facts are kept on the
            returned object and loaded afresh by every run.
        database: base facts used *only* for planner statistics (when a
            planner spec is given); never mutated, never retained.
        planner: optional join-planner spec (``"greedy"``).  Plans are
            cut against *database*'s base statistics with every IDB
            predicate unknown — see the module docstring for how this
            differs from the interleaved one-shot scc planning.
        executor: ``"kernel"`` (default) or ``"interpreted"``.
        scheduler: ``"scc"`` (default) or ``"global"``.
    """
    resolve_executor(executor)
    mode = resolve_scheduler(scheduler)
    obs = get_metrics()
    # Planner statistics read the base facts as every run will see them
    # at round zero: database plus the program's embedded facts.  Without
    # a planner nothing reads them, and the copy is skipped.
    stats_db = Database()
    if planner is not None and planner is not False:
        if database is not None:
            stats_db = database.copy()
        stats_db.add_atoms(program.facts)
    with obs.timer("compile_fixpoint"):
        if mode != "global":
            components = []
            for component in build_schedule(program).components:
                active = component_planner(planner, stats_db, component)
                compiled_rules = [
                    compile_rule(rule, active) for rule in component.rules
                ]
                components.append(
                    CompiledComponent(
                        component,
                        tuple(compile_executors(compiled_rules, executor)),
                    )
                )
            compiled = CompiledFixpoint(
                program=program,
                executor=executor,
                scheduler=mode,
                components=tuple(components),
            )
        else:
            active = resolve_planner(planner, stats_db, program)
            compiled_rules = [
                compile_rule(rule, active) for rule in program.proper_rules
            ]
            executors = tuple(compile_executors(compiled_rules, executor))
            derived = program.idb_predicates
            variants = tuple(
                (pair[0], pair[1], _variant_positions(pair[0], derived))
                for pair in executors
            )
            compiled = CompiledFixpoint(
                program=program,
                executor=executor,
                scheduler=mode,
                executors=executors,
                variants=variants,
            )
    if obs.enabled:
        obs.incr("prepare.fixpoints_compiled")
        # The canonical "compilation actually ran" counter the
        # cross-process shape registry drives to zero on its hit path
        # (snapshot rehydration re-lowers kernels but never comes here).
        obs.incr("prepare.compiles")
    return compiled


def run_fixpoint(
    compiled: CompiledFixpoint,
    database: "Database | None" = None,
    stats: "EvaluationStats | None" = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
    extra_facts: Iterable[Atom] = (),
) -> tuple[Database, EvaluationStats]:
    """Evaluate *compiled* to fixpoint against *database*.

    Args:
        compiled: a :func:`compile_fixpoint` result; reusable across any
            number of concurrent runs (it is immutable — all run state
            lives in this call's working copy).
        database: base facts; copied, never mutated.
        stats: optional counter record to accumulate into.
        budget: optional budget or running checkpoint; exhaustion raises
            :class:`repro.errors.BudgetExceededError` carrying the sound
            partial working database, exactly like the one-shot engines.
        extra_facts: ground atoms loaded into the working copy before
            evaluation — the prepared-query seed channel.

    Returns:
        The completed working database and the statistics record.
    """
    stats = stats if stats is not None else EvaluationStats()
    obs = get_metrics()
    program = compiled.program
    working = database.copy() if database is not None else Database()
    working.add_atoms(program.facts)
    working.add_atoms(extra_facts)
    arities = program.arities
    for predicate in program.idb_predicates:
        working.relation(predicate, arities[predicate])
    checkpoint = ensure_checkpoint(budget, stats)
    if checkpoint is not None:
        checkpoint.bind(working)

    if compiled.scheduler == "global":
        run_global_rounds(
            compiled.executors,
            compiled.variants,
            program.idb_predicates,
            arities,
            working,
            stats,
            checkpoint,
        )
        return working, stats

    schedule_components = compiled.components
    _observe_schedule(
        obs,
        _ScheduleView(tuple(cc.component for cc in schedule_components)),
    )
    with obs.timer("seminaive"):
        for cc in schedule_components:
            if not cc.component.recursive:
                if checkpoint is not None:
                    checkpoint.check_round()
                stats.iterations += 1
                with obs.timer("round"):
                    _single_pass(cc.executors, working, stats, checkpoint)
            else:
                rounds = _component_seminaive(
                    cc.component, cc.executors, working, arities, stats,
                    checkpoint, obs,
                )
                if obs.enabled:
                    obs.observe("scheduler.component_rounds", rounds)
    if obs.enabled:
        obs.incr("seminaive.runs")
        obs.observe("seminaive.iterations", stats.iterations)
    return working, stats


class _ProbeRecorder:
    """A relation with no rows that records the key of every probe made
    of it: the bound columns' values — one raw value for one column, a
    tuple otherwise, ``()`` for a full scan.  Rule executors reach it
    through ``lookup`` and ``in`` only (the generated kernels fall back
    to ``lookup`` for a relation without ``scan`` / ``probe_plan``)."""

    __slots__ = ("arity", "columns", "keys")

    def __init__(self, arity: int):
        self.arity = arity
        self.columns: tuple[int, ...] = ()  # fixed per body position
        self.keys: set = set()

    def lookup(self, bound: Mapping[int, object]) -> tuple:
        self.columns = columns = tuple(sorted(bound))
        values = tuple([bound[column] for column in columns])
        self.keys.add(values[0] if len(values) == 1 else values)
        return ()

    def __contains__(self, row: tuple) -> bool:
        self.lookup(dict(enumerate(row)))
        return False


def record_footprint(
    compiled: CompiledFixpoint, completed: Database, predicates: frozenset[str]
) -> dict:
    """The probe keys a run of *compiled* issued against *predicates*:
    ``{(predicate, columns): frozenset of keys}`` (see
    :class:`_ProbeRecorder`).

    Each body occurrence of one of *predicates* has its rule run once
    over *completed*, the run's final database, with a recorder at that
    position and the full relations elsewhere.  Every binding that
    reached the occurrence during the run came from rows the final
    database holds (evaluation is inflationary, and negated literals of
    a compiled stratum name lower or base relations, which a run never
    changes), so the recorded keys cover every probe the run made there.
    """
    footprint: dict = {}
    full = _full_view(completed)
    scratch = EvaluationStats()
    for rule, kernel in compiled.pairs if predicates else ():
        for position, literal in enumerate(rule.body):
            if literal.builtin or literal.predicate not in predicates:
                continue
            recorder = _ProbeRecorder(literal.source.atom.arity)

            def view(at: int, predicate: str, position=position, recorder=recorder):
                return recorder if at == position else full(at, predicate)

            for _ in head_rows(rule, kernel, view, scratch):
                pass
            if recorder.keys:
                slot = (literal.predicate, recorder.columns)
                footprint[slot] = footprint.get(slot, frozenset()) | recorder.keys
    return footprint


def footprint_touches(footprint: dict, changed: Mapping[str, "Iterable[tuple]"]) -> bool:
    """True iff some changed row — *changed* maps a predicate to raw rows
    added or removed — matches a key of *footprint*."""
    for (predicate, columns), keys in footprint.items():
        rows = changed.get(predicate, ())
        if len(columns) == 1:
            column = columns[0]
            if any(row[column] in keys for row in rows):
                return True
        elif any(tuple([row[c] for c in columns]) in keys for row in rows):
            return True
    return False


@dataclass(frozen=True)
class _ScheduleView:
    """Just enough of a :class:`~repro.engine.scheduler.Schedule` for
    :func:`~repro.engine.scheduler._observe_schedule`."""

    components: tuple[Component, ...]

    @property
    def recursive_count(self) -> int:
        return sum(1 for component in self.components if component.recursive)
