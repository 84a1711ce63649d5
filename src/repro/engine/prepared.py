"""Precompiled fixpoints: compile once, evaluate many times.

Every bottom-up entry point in the library re-compiles its rules and
re-lowers them to kernels on every call.  For
a one-shot CLI evaluation that is invisible; for a long-lived query
service answering the same query shape thousands of times it is pure
overhead — and it is exactly the overhead the Alexander/magic family
makes worth eliminating, because a transformed program is query-shape
specific and expensive to rebuild.

This module splits evaluation into its two natural halves:

* :func:`compile_fixpoint` does everything that depends only on the
  *rules*: scheduling (:func:`repro.engine.scheduler.build_schedule`),
  rule compilation, and kernel lowering.  The result is an immutable
  :class:`CompiledFixpoint`.
* :func:`run_fixpoint` evaluates a :class:`CompiledFixpoint` against a
  database — any number of times, each run with its own working copy,
  :class:`~repro.engine.counters.EvaluationStats`, and budget
  checkpoint.  Nothing is re-compiled.

The run discipline is byte-for-byte the one-shot engine's own: both
drive :func:`repro.engine.seminaive.run_components`, so derived fact
sets and counters are identical to calling
:func:`~repro.engine.seminaive.seminaive_fixpoint` directly (pinned by
``tests/test_prepare.py``).

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
from .budget import Checkpoint, EvaluationBudget
from .counters import EvaluationStats
from .kernel import RuleKernel
from .matching import compile_rule
from .scheduler import build_schedule, full_view, observe_schedule, start_run
from .seminaive import CompiledComponent, lower_component, run_components

__all__ = [
    "CompiledComponent",
    "CompiledFixpoint",
    "compile_fixpoint",
    "footprint_touches",
    "record_footprint",
    "run_fixpoint",
]


@dataclass(frozen=True)
class CompiledFixpoint:
    """A program's evaluation plan, compiled once for repeated runs.

    Attributes:
        program: the source rules (facts, if any, are loaded per run).
        components: the compiled schedule, dependencies first.
    """

    program: Program
    components: tuple[CompiledComponent, ...]

    @property
    def rule_count(self) -> int:
        return len(self.program.proper_rules)

    @property
    def kernels(self) -> list[RuleKernel]:
        """Every rule's kernel, in schedule order."""
        return [kernel for cc in self.components for kernel in cc.kernels]

    @property
    def kernel_count(self) -> int:
        return len(self.kernels)


def compile_fixpoint(
    program: Program, database: "Database | None" = None
) -> CompiledFixpoint:
    """Compile *program* for repeated semi-naive evaluation.

    Args:
        program: rules to compile; embedded facts are kept on the
            returned object and loaded afresh by every run.
        database: unused.  Accepted, positionally too, for callers that
            still pass the base facts.
    """
    obs = get_metrics()
    with obs.timer("compile_fixpoint"):
        compiled = CompiledFixpoint(program, tuple(
            lower_component(
                component, [compile_rule(rule) for rule in component.rules]
            )
            for component in build_schedule(program).components
        ))
    if obs.enabled:
        obs.incr("prepare.fixpoints_compiled")
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
    program = compiled.program
    working, checkpoint = start_run(program, database, stats, budget, extra_facts)
    components = compiled.components
    observe_schedule(get_metrics(), [cc.component for cc in components])
    run_components(components, working, stats, checkpoint)
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
    full = full_view(completed)
    scratch = EvaluationStats()
    for kernel in compiled.kernels if predicates else ():
        ordered = kernel.compiled.ordered
        for position, name, _ in kernel.compiled.reads:
            if name not in predicates:
                continue
            recorder = _ProbeRecorder(ordered[position].atom.arity)

            def view(at: int, predicate: str, position=position, recorder=recorder):
                return recorder if at == position else full(at, predicate)

            for _ in kernel.run(view, scratch, None):
                pass
            if recorder.keys:
                slot = (name, recorder.columns)
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
