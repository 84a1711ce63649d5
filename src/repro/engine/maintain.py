"""Incremental view maintenance: DRed, the deletion fast path.

:class:`repro.engine.incremental.IncrementalEngine` materialises a
positive program's fixpoint and patches it under fact insertion by
continuing the semi-naive iteration from a seed delta.  This module holds
the machinery that makes *deletion* incremental too — DRed (delete and
re-derive, Gupta–Mumick–Subrahmanian / Staudt–Jarke), driven through the
same compiled rule kernels as the insertion path: over-delete the whole
cone reachable from the deleted facts (anything with *some* lost
derivation), then re-derive survivors: each rule's *guarded* executor —
the rule behind a leading literal on its own head atom, which reads the
over-deleted facts — runs once over the surviving database and yields
exactly the candidates with a one-step derivation; those are re-inserted
and propagated forward with the ordinary semi-naive continuation.  Sound
and complete for any negation-free program, recursion included — which
an Alexander-rewritten recursive program always is, through its
``call_*``/``ans_*`` predicates.

Delta-first join order
----------------------
A round costs what its delta costs only if the join starts from the
delta.  Every rule is therefore compiled once per engine into one
executor per positive body position (:class:`MaintainedRule`): the rule
with that literal first (:func:`~repro.engine.matching.delta_first`),
so ``tc(X,Y) :- edge(X,Z), tc(Z,Y)`` with ``tc`` in the delta probes
``edge`` by ``Z`` instead of scanning it.  The views below still answer
in the rule's *fixpoint* body positions — each executor carries the map
back — so the delta discipline is unchanged by the join order.

Deletion enumeration — the inverse delta discipline
---------------------------------------------------
Insertion enumerates each *new* instantiation once by reading the delta
at one position, full at earlier positions, and pre-delta at later ones.
Deletion mirrors it: at round *k* with deletion delta ``D_k`` (facts
leaving the database this round, still physically present while the
round enumerates), position *j* reads ``D_k``, positions *i < j* read
the survivors ``working − D_k`` (a :class:`SubtractView`), and positions
*i > j* read ``working`` unchanged.  An instantiation is therefore
enumerated at exactly one (round, position): the round its first fact is
deleted, at the first position holding such a fact — the same
exactly-once guarantee the insertion discipline gives, inverted.

``EvaluationStats`` semantics (documented contract): maintenance
operations charge ``inferences`` for every *enumerated derivation
event* — new instantiations on insert, lost instantiations on delete —
``attempts`` per probed row and per test as always, ``iterations`` per
delta round (insert rounds, cascade rounds, and re-derivation rounds
each count), and ``facts_derived`` for every fact entering the working
database (including DRed re-insertions).  The re-derivation check
charges ``attempts`` only.  Inferences, iterations, facts derived and
fact sets do not depend on join order; ``attempts`` does, and counts the
probes of the delta-first executors.  Fact sets are bit-identical to the
full-recompute oracle; the counters measure the *maintenance* work,
which is the whole point of the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..engine.budget import Checkpoint
from ..errors import ProgramError
from ..facts.database import Database
from ..facts.relation import Relation
from ..obs import get_metrics
from .counters import EvaluationStats
from .kernel import RuleKernel, compile_kernel
from .matching import CompiledRule, delta_first
from .seminaive import merge_round

__all__ = [
    "MAINTENANCE_MODES",
    "DEFAULT_MAINTENANCE",
    "resolve_maintenance",
    "MaintainedRule",
    "compile_maintenance",
    "SubtractView",
    "propagate",
    "delete_dred",
]

# "dred" is the maintenance algorithm; "recompute" rebuilds the fixpoint
# on every delete and is the bit-identity oracle the tests compare it to.
MAINTENANCE_MODES = ("dred", "recompute")
DEFAULT_MAINTENANCE = "dred"

Fact = tuple[str, tuple]
# (kernel, origin): origin[i] is the fixpoint body position of the
# kernel's position i (-1: the guard literal).
Executor = tuple[RuleKernel, tuple[int, ...]]


def resolve_maintenance(mode: str) -> str:
    """Validate a ``maintenance=`` argument."""
    if mode not in MAINTENANCE_MODES:
        raise ProgramError(
            f"unknown maintenance mode {mode!r}: use 'dred' (the default; "
            "counting was removed) or 'recompute' (the test oracle)"
        )
    return mode


@dataclass(frozen=True, slots=True)
class MaintainedRule:
    """One rule as the maintenance passes run it.

    Attributes:
        compiled: the rule in its fixpoint body order; every view answers
            in these positions, whatever order an executor joins in.
        kernel: its generated executor.
        deltas: ``(position, predicate, executor)`` per positive body
            position: what runs when that position reads the delta.
        guarded: what DRed's re-derivation runs.
    """

    compiled: CompiledRule
    kernel: RuleKernel
    deltas: tuple[tuple[int, str, Executor], ...]
    guarded: Executor


def compile_maintenance(
    compiled_rules: Sequence[CompiledRule],
) -> list[MaintainedRule]:
    """Each rule with its delta-first and guarded executors.

    A position whose literal already leads the body runs the rule's own
    executor; every other positive position, and the guard, get their
    own (see :func:`~repro.engine.matching.delta_first`).
    """
    rules = []
    for compiled in compiled_rules:
        kernel = compile_kernel(compiled)
        own = (kernel, tuple(range(len(compiled.body))))
        positions = [i for i, literal in enumerate(compiled.body) if not literal.is_test]
        deltas = tuple(
            (i, compiled.body[i].predicate,
             own if i == positions[0] else _lower(*delta_first(compiled, i)))
            for i in positions
        )
        rules.append(MaintainedRule(compiled, kernel, deltas, _lower(*delta_first(compiled))))
    return rules


def _lower(variant: CompiledRule, origin: tuple[int, ...]) -> Executor:
    return compile_kernel(variant), origin


class SubtractView:
    """A relation minus an in-flight deletion delta, zero-copy.

    Deletion rounds enumerate lost instantiations *before* physically
    removing the delta rows, so "the survivors" is the stored relation
    filtered against the (small) delta set.  Supports exactly the
    surface the per-row executors touch: :meth:`lookup` for probes and
    ``in`` for fully bound literals and negative tests.
    """

    __slots__ = ("_relation", "_excluded")

    def __init__(self, relation: Relation, excluded: "set[tuple]"):
        self._relation = relation
        self._excluded = excluded

    @property
    def arity(self) -> int:
        return self._relation.arity

    def lookup(self, bound: Mapping[int, object]) -> Iterator[tuple]:
        excluded = self._excluded
        for row in self._relation.lookup(bound):
            if row not in excluded:
                yield row

    def __contains__(self, row: tuple) -> bool:
        return row not in self._excluded and row in self._relation

    def __iter__(self) -> Iterator[tuple]:
        return self.lookup({})

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"SubtractView({self._relation!r} - {len(self._excluded)} rows)"


def propagate(
    working: Database,
    rules: "list[MaintainedRule]",
    arities: Mapping[str, int],
    delta: dict[str, Relation],
    stamp: int,
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
    new_facts: "set | None" = None,
) -> None:
    """Continue the semi-naive iteration from *delta* until fixpoint.

    The single insertion loop behind ``add``, ``add_many`` and DRed's
    re-derivation: *delta* rows are already merged into *working* and
    stamped at *stamp* (so ``rows_before(stamp)`` is the pre-delta
    state), and each round enumerates exactly the instantiations using
    at least one current-delta fact.  When *new_facts* is given, every
    fact entering *working* is recorded in it as ``(predicate, row)``.
    """
    while delta:
        if checkpoint is not None:
            checkpoint.check_round()
        op_stats.iterations += 1
        # old = working minus current delta, per delta predicate: a
        # zero-copy stamped view (the current delta is exactly the rows
        # merged at the current stamp).
        old = {
            predicate: working.relation(predicate).rows_before(stamp)
            for predicate in delta
        }
        heads: dict[str, dict] = {}
        for head_pred, head_row in _delta_heads(
            working, rules, delta, {}, old, op_stats, checkpoint
        ):
            relation = working.relation(head_pred, arities.get(head_pred))
            if head_row in relation:
                continue
            bucket = heads.get(head_pred)
            if bucket is None:
                bucket = heads[head_pred] = {}
            bucket[head_row] = None
        stamp += 1
        delta = merge_round(heads, working.relation, stamp, op_stats)
        if new_facts is not None:
            for predicate, rows in heads.items():
                new_facts.update((predicate, row) for row in rows)


def _delta_heads(
    working: Database,
    rules: "list[MaintainedRule]",
    delta: dict[str, Relation],
    earlier: Mapping[str, object],
    later: Mapping[str, object],
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> Iterator[Fact]:
    """The head of every instantiation with a *delta* fact at some body
    position, once per (instantiation, position), each charged one
    ``inferences`` event.  That position reads the delta; a position
    before it reads *earlier*'s relation for its predicate, one after it
    *later*'s, and *working*'s where they name none."""
    for rule in rules:
        for position, name, (kernel, origin) in rule.deltas:
            delta_relation = delta.get(name)
            if delta_relation is None:
                continue

            def view(pos: int, predicate: str) -> "Relation | None":
                pos = origin[pos]
                if pos == position:
                    return delta_relation
                chosen = (earlier if pos < position else later).get(predicate)
                if chosen is not None:
                    return chosen
                try:
                    return working.relation(predicate)
                except KeyError:
                    return None

            for head_row in kernel.run(view, op_stats, checkpoint):
                op_stats.inferences += 1
                yield kernel.head_predicate, head_row


def _lost_heads(
    working: Database,
    rules: "list[MaintainedRule]",
    delta: dict[str, set],
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> Iterator[Fact]:
    """The head of every derivation lost to this deletion round.

    *delta* holds the rows leaving the database this round, still
    physically present in *working*; positions before the delta's read
    the survivors.  Each lost instantiation is enumerated exactly once
    (see the module docstring).
    """
    spawned = {}
    for predicate, rows in delta.items():
        bucket = spawned[predicate] = Relation(
            predicate, working.relation(predicate).arity
        )
        bucket.add_all(rows)
    # One survivors view per deleted-from predicate for the whole round:
    # a view must hand out the same relation every time it is asked.
    survivors = {
        predicate: SubtractView(working.relation(predicate), rows)
        for predicate, rows in delta.items()
    }
    return _delta_heads(
        working, rules, spawned, survivors, {}, op_stats, checkpoint
    )


def _rederivable(
    working: Database,
    rules: "list[MaintainedRule]",
    candidates: list[Fact],
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> set[Fact]:
    """The *candidates* some rule derives in one step from *working*.

    One run per rule of its guarded executor, whose leading literal reads
    the candidates of the rule's head predicate: the run yields a
    candidate once per derivation, and nothing else.  Charges
    ``attempts`` only.
    """
    guards: dict[str, Relation] = {}
    for predicate, row in candidates:
        guard = guards.get(predicate)
        if guard is None:
            guard = guards[predicate] = Relation(predicate, len(row))
        guard.add(row)
    derivable: set[Fact] = set()
    for rule in rules:
        predicate = rule.compiled.head_predicate
        guard = guards.get(predicate)
        if guard is None:
            continue
        kernel, origin = rule.guarded

        def view(pos: int, name: str) -> "Relation | None":
            if origin[pos] < 0:
                return guard
            try:
                return working.relation(name)
            except KeyError:
                return None

        for row in kernel.run(view, op_stats, checkpoint):
            derivable.add((predicate, row))
    return derivable


def delete_dred(
    working: Database,
    rules: "list[MaintainedRule]",
    arities: Mapping[str, int],
    seeds: dict[str, set],
    asserted: "set[Fact]",
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> tuple[set[Fact], set[Fact]]:
    """DRed deletion: over-delete the cone, re-derive the survivors.

    *seeds* are base facts (rows currently present) losing their
    extensional support; *asserted* facts carry external support and are
    never over-deleted.  Returns ``(removed, restored)``: every fact
    physically removed during over-deletion and every fact the
    re-derivation pass brought back — the net deletion is their
    difference.
    """
    removed: set[Fact] = set()
    candidates: list[Fact] = []
    delta = {p: set(rows) for p, rows in seeds.items() if rows}
    while delta:
        if checkpoint is not None:
            checkpoint.check_round()
        op_stats.iterations += 1
        lost = set(_lost_heads(working, rules, delta, op_stats, checkpoint))
        for predicate, rows in delta.items():
            relation = working.relation(predicate)
            for row in rows:
                relation.discard(row)
                removed.add((predicate, row))
        new_delta: dict[str, set] = {}
        for predicate, row in lost:
            if (predicate, row) in removed or (predicate, row) in asserted:
                continue
            new_delta.setdefault(predicate, set()).add(row)
            candidates.append((predicate, row))
        delta = new_delta
    restored: set[Fact] = set()
    if candidates:
        # Re-derivation, seeded from the boundary: an over-deleted fact
        # survives iff some rule body holds entirely in the surviving
        # database; survivors re-enter as one batched delta and the
        # ordinary semi-naive continuation restores everything reachable
        # from them.
        derivable = _rederivable(working, rules, candidates, op_stats, checkpoint)
        rederive: dict[str, dict] = {}
        for predicate, row in candidates:
            if (predicate, row) in derivable:
                rederive.setdefault(predicate, {})[row] = None
        if rederive:
            # Every candidate was over-deleted, so each survivor is new.
            stamp = 1 + max(
                (relation.round for relation in working.relations()),
                default=0,
            )
            delta2 = merge_round(rederive, working.relation, stamp, op_stats)
            for predicate, rows in rederive.items():
                restored.update((predicate, row) for row in rows)
            propagate(
                working, rules, arities, delta2, stamp, op_stats,
                checkpoint, new_facts=restored,
            )
    obs = get_metrics()
    if obs.enabled:
        obs.incr("maintain.dred.deletions")
        obs.incr("maintain.dred.overdeleted", len(removed))
        obs.incr("maintain.dred.rederived", len(restored))
    return removed, restored
