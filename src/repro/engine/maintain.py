"""Incremental view maintenance: counting and DRed deletion fast paths.

:class:`repro.engine.incremental.IncrementalEngine` materialises a
positive program's fixpoint and patches it under fact insertion by
continuing the semi-naive iteration from a seed delta.  This module holds
the machinery that makes *deletion* incremental too — the two textbook
algorithms, both driven through the same compiled rule kernels as the
insertion path:

* **counting** (Gupta–Mumick–Subrahmanian) — every fact carries its
  derivation count: the number of distinct rule-body instantiations that
  derive it, plus one *external* support when the fact was asserted
  directly (EDB facts, or IDB facts inserted through ``add``).  The
  semi-naive delta discipline enumerates each body instantiation exactly
  once, so counts fall out of the ordinary insertion loop for free.  A
  deletion enumerates exactly the instantiations *lost* (those using at
  least one deleted fact, via the inverse delta discipline below),
  decrements their heads, and cascades only where a count reaches zero.
  Exact for **non-recursive** programs; with recursion, cyclically
  supported facts keep positive counts, so recursive programs are
  rejected at engine construction.
* **DRed** (delete and re-derive, Gupta–Mumick–Subrahmanian / Staudt–
  Jarke) — over-delete the whole cone reachable from the deleted facts
  (anything with *some* lost derivation), then re-derive survivors: each
  over-deleted fact is checked for a one-step derivation from the
  surviving database (a backward head-bound probe), and the facts that
  pass are re-inserted and propagated forward with the ordinary
  semi-naive continuation.  Sound and complete for any negation-free
  program, recursion included.

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

Deletion passes stay on the per-row kernel path (:class:`SubtractView`
is not a columnar relation, so the batch executor declines and
:func:`~repro.engine.kernel.head_rows` falls back); the insertion and
re-derivation propagation uses the batch path whenever no budget
checkpoint governs the operation, exactly like ``add``.

``EvaluationStats`` semantics (documented contract): maintenance
operations charge ``inferences`` for every *enumerated derivation
event* — new instantiations on insert, lost instantiations on delete —
``attempts`` per probed row as always, ``iterations`` per delta round
(insert rounds, cascade rounds, and re-derivation rounds each count),
and ``facts_derived`` for every fact entering the working database
(including DRed re-insertions).  Fact sets are bit-identical to the
full-recompute oracle; the counters measure the *maintenance* work,
which is the whole point of the fast path.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..engine.budget import Checkpoint
from ..errors import ProgramError
from ..facts.database import Database
from ..facts.relation import Relation
from ..obs import get_metrics
from .counters import EvaluationStats
from .kernel import RuleKernel, head_rows
from .matching import CompiledRule

__all__ = [
    "MAINTENANCE_MODES",
    "DEFAULT_MAINTENANCE",
    "resolve_maintenance",
    "SubtractView",
    "propagate",
    "delete_counting",
    "delete_dred",
]

MAINTENANCE_MODES = ("recompute", "counting", "dred")
DEFAULT_MAINTENANCE = "recompute"

Executors = "list[tuple[CompiledRule, RuleKernel | None]]"
EncodedFact = tuple[str, tuple]


def resolve_maintenance(mode: str) -> str:
    """Validate a ``maintenance=`` argument."""
    if mode not in MAINTENANCE_MODES:
        raise ProgramError(
            f"unknown maintenance mode {mode!r}; choose from "
            f"{MAINTENANCE_MODES}"
        )
    return mode


class SubtractView:
    """A relation minus an in-flight deletion delta, zero-copy.

    Deletion rounds enumerate lost instantiations *before* physically
    removing the delta rows, so "the survivors" is the stored relation
    filtered against the (small) delta set.  Supports exactly the
    surface the per-row executors touch: :meth:`lookup` for probes and
    ``in`` for negative tests.
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
    executors: "list[tuple[CompiledRule, RuleKernel | None]]",
    arities: dict[str, int],
    delta: dict[str, Relation],
    stamp: int,
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
    counts: "dict[str, dict[tuple, int]] | None" = None,
    new_facts: "set | None" = None,
    decode: bool = True,
) -> None:
    """Continue the semi-naive iteration from *delta* until fixpoint.

    The single insertion loop behind ``add``, ``add_many``, the counting
    build, and DRed's re-derivation: *delta* rows are already merged into
    *working* and stamped at *stamp* (so ``rows_before(stamp)`` is the
    pre-delta state), and each round enumerates exactly the
    instantiations using at least one current-delta fact.

    Args:
        counts: when given (counting mode), every enumerated derivation
            increments its head fact's count — including derivations of
            facts already present, which gain support without rejoining
            the delta.
        new_facts: when given, every fact entering *working* is recorded
            as ``(predicate, row)`` — decoded to raw values when
            *decode*, in the backend's native row space otherwise.
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
        new_delta: dict[str, Relation] = {}
        for compiled, kernel in executors:
            positions = [
                index
                for index, literal in enumerate(compiled.body)
                if literal.positive and literal.predicate in delta
            ]
            for position in positions:
                delta_relation = delta[compiled.body[position].predicate]

                def view(pos: int, predicate: str) -> "Relation | None":
                    if pos == position:
                        return delta_relation
                    if pos > position and predicate in old:
                        return old[predicate]
                    try:
                        return working.relation(predicate)
                    except KeyError:
                        return None

                # batch=True is sound: heads land in new_delta buckets,
                # so the working set is unchanged while a batch
                # enumerates.
                for head_row in head_rows(
                    compiled, kernel, view, op_stats, checkpoint,
                    batch=True,
                ):
                    op_stats.inferences += 1
                    head_pred = compiled.head_predicate
                    if counts is not None:
                        table = counts.setdefault(head_pred, {})
                        table[head_row] = table.get(head_row, 0) + 1
                    relation = working.relation(
                        head_pred, arities.get(head_pred)
                    )
                    if head_row in relation:
                        continue
                    bucket = new_delta.setdefault(
                        head_pred,
                        working.spawn(head_pred, len(head_row)),
                    )
                    bucket.add(head_row)
        stamp += 1
        for predicate, bucket in new_delta.items():
            target = working.relation(predicate, arities.get(predicate))
            target.mark_round(stamp)
            for new_row in bucket:
                if working.add(predicate, new_row):
                    op_stats.facts_derived += 1
                    if new_facts is not None:
                        new_facts.add(
                            (
                                predicate,
                                working.decode_row(new_row)
                                if decode
                                else new_row,
                            )
                        )
        delta = {p: r for p, r in new_delta.items() if r}


def _lost_heads(
    working: Database,
    executors: "list[tuple[CompiledRule, RuleKernel | None]]",
    delta: dict[str, Relation],
    excluded: dict[str, set],
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> Iterator[EncodedFact]:
    """Enumerate the head of every derivation lost to this deletion round.

    *delta* holds the facts leaving the database this round (still
    physically present in *working*); *excluded* is the same row sets for
    the :class:`SubtractView` filters.  Each lost instantiation is
    enumerated exactly once (see the module docstring), charged one
    ``inferences`` event.
    """
    # One survivors view per deleted-from predicate for the whole round:
    # a view must hand out the same relation every time it is asked.
    survivors = {
        predicate: SubtractView(working.relation(predicate), rows)
        for predicate, rows in excluded.items()
    }
    for compiled, kernel in executors:
        positions = [
            index
            for index, literal in enumerate(compiled.body)
            if literal.positive and literal.predicate in delta
        ]
        for position in positions:
            delta_relation = delta[compiled.body[position].predicate]

            def view(pos: int, predicate: str) -> "Relation | None":
                if pos == position:
                    return delta_relation
                if pos < position and predicate in survivors:
                    return survivors[predicate]
                try:
                    return working.relation(predicate)
                except KeyError:
                    return None

            # Deletions stay on the per-row path: SubtractView is not a
            # columnar relation, so batch mode would decline anyway.
            for head_row in head_rows(
                compiled, kernel, view, op_stats, checkpoint
            ):
                op_stats.inferences += 1
                yield compiled.head_predicate, head_row


def _spawn_delta(
    working: Database, rows_by_predicate: dict[str, set]
) -> dict[str, Relation]:
    """Backend-matched scratch relations holding the deletion rows."""
    delta: dict[str, Relation] = {}
    for predicate, rows in rows_by_predicate.items():
        relation = working.relation(predicate)
        bucket = working.spawn(predicate, relation.arity)
        for row in rows:
            bucket.add(row)
        delta[predicate] = bucket
    return delta


def delete_counting(
    working: Database,
    executors: "list[tuple[CompiledRule, RuleKernel | None]]",
    counts: dict[str, dict[tuple, int]],
    seeds: dict[str, set],
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> set[EncodedFact]:
    """Counting-mode deletion: decrement, cascade where support hits zero.

    *seeds* are base facts (rows currently present) whose external
    support is being withdrawn; their count entries are discarded with
    them.  Returns every ``(predicate, row)`` removed from *working*,
    seeds included, in the backend's native row space.
    """
    removed: set[EncodedFact] = set()
    delta = {p: set(rows) for p, rows in seeds.items() if rows}
    while delta:
        if checkpoint is not None:
            checkpoint.check_round()
        op_stats.iterations += 1
        decrements: dict[EncodedFact, int] = {}
        spawned = _spawn_delta(working, delta)
        for head in _lost_heads(
            working, executors, spawned, delta, op_stats, checkpoint
        ):
            decrements[head] = decrements.get(head, 0) + 1
        # The round's enumeration is done: physically remove the delta.
        for predicate, rows in delta.items():
            relation = working.relation(predicate)
            table = counts.get(predicate)
            for row in rows:
                relation.discard(row)
                if table is not None:
                    table.pop(row, None)
                removed.add((predicate, row))
        new_delta: dict[str, set] = {}
        for (predicate, row), lost in decrements.items():
            table = counts.get(predicate)
            if table is None:
                continue
            current = table.get(row)
            if current is None:
                # Already removed (this round's delta or an earlier one).
                continue
            current -= lost
            if current <= 0:
                table[row] = 0
                new_delta.setdefault(predicate, set()).add(row)
            else:
                table[row] = current
        delta = new_delta
    obs = get_metrics()
    if obs.enabled:
        obs.incr("maintain.counting.deletions")
        obs.incr("maintain.counting.removed", len(removed))
    return removed


def _builtin_holds(
    working: Database, literal, binding: dict, op_stats: EvaluationStats
) -> bool:
    """Evaluate a built-in test on raw values (slots decode per backend)."""
    from ..datalog.builtins import evaluate_builtin

    op_stats.attempts += 1
    arity = len(literal.source.args)
    values: list = [None] * arity
    for column, value in literal.constants:
        values[column] = value
    bound = [
        (column, binding[var])
        for column, var in literal.binders + literal.filters
    ]
    if bound:
        decoded = working.decode_row(tuple(value for _, value in bound))
        for (column, _), raw in zip(bound, decoded):
            values[column] = raw
    holds = evaluate_builtin(literal.predicate, tuple(values))
    return holds if literal.positive else not holds


def _body_holds(
    working: Database,
    compiled: CompiledRule,
    index: int,
    binding: dict,
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> bool:
    """True iff the body from *index* on has a match in *working*.

    The backward half of DRed's re-derivation check: a boolean
    index-nested-loop walk in the backend's native row space, with the
    head variables pre-bound by the candidate fact.  Charges one
    ``attempts`` per probed row and per test, mirroring the forward
    matchers.
    """
    if index == len(compiled.body):
        return True
    literal = compiled.body[index]
    if literal.builtin:
        if not _builtin_holds(working, literal, binding, op_stats):
            return False
        return _body_holds(
            working, compiled, index + 1, binding, op_stats, checkpoint
        )
    try:
        relation = working.relation(literal.predicate)
    except KeyError:
        relation = None
    if not literal.positive:
        # Unreachable for the negation-free engine, kept for safety: a
        # fully bound absence check, exactly like the forward matchers.
        op_stats.attempts += 1
        if relation is not None:
            encoded_consts = (
                working.encode_row(
                    tuple(value for _, value in literal.constants)
                )
                if literal.constants
                else ()
            )
            row: dict[int, object] = {
                column: encoded
                for (column, _), encoded in zip(
                    literal.constants, encoded_consts
                )
            }
            for column, var in literal.binders + literal.filters:
                row[column] = binding[var]
            probe = tuple(row[column] for column in range(relation.arity))
            if probe in relation:
                return False
        return _body_holds(
            working, compiled, index + 1, binding, op_stats, checkpoint
        )
    if relation is None:
        return False
    bound: dict[int, object] = {}
    if literal.constants:
        encoded_consts = working.encode_row(
            tuple(value for _, value in literal.constants)
        )
        for (column, _), encoded in zip(literal.constants, encoded_consts):
            bound[column] = encoded
    unbound: list = []
    for column, var in literal.binders:
        if var in binding:
            bound[column] = binding[var]
        else:
            unbound.append((column, var))
    for row in relation.lookup(bound):
        op_stats.attempts += 1
        if checkpoint is not None:
            checkpoint.poll()
        extended = dict(binding)
        for column, var in unbound:
            extended[var] = row[column]
        ok = True
        for column, var in literal.filters:
            if extended.get(var) != row[column]:
                ok = False
                break
        if ok and _body_holds(
            working, compiled, index + 1, extended, op_stats, checkpoint
        ):
            return True
    return False


def _derivable(
    working: Database,
    executors: "list[tuple[CompiledRule, RuleKernel | None]]",
    predicate: str,
    row: tuple,
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> bool:
    """One-step derivability of ``predicate(row)`` from *working*.

    The boundary check seeding DRed's re-derivation: the candidate's
    values pre-bind each rule's head variables, so the body walk is a
    head-bound probe proportional to the candidate's support, not the
    model.
    """
    for compiled, _kernel in executors:
        if compiled.head_predicate != predicate:
            continue
        binding: dict = {}
        consts = [
            (column, payload)
            for column, (kind, payload) in enumerate(compiled.head_pattern)
            if kind == "c"
        ]
        ok = True
        if consts:
            encoded = working.encode_row(
                tuple(payload for _, payload in consts)
            )
            for (column, _), value in zip(consts, encoded):
                if row[column] != value:
                    ok = False
                    break
        if not ok:
            continue
        for column, (kind, payload) in enumerate(compiled.head_pattern):
            if kind != "v":
                continue
            current = binding.get(payload, _MISSING)
            if current is _MISSING:
                binding[payload] = row[column]
            elif current != row[column]:
                ok = False
                break
        if not ok:
            continue
        if _body_holds(working, compiled, 0, binding, op_stats, checkpoint):
            return True
    return False


_MISSING = object()


def delete_dred(
    working: Database,
    executors: "list[tuple[CompiledRule, RuleKernel | None]]",
    arities: dict[str, int],
    seeds: dict[str, set],
    asserted: "set[EncodedFact]",
    op_stats: EvaluationStats,
    checkpoint: "Checkpoint | None",
) -> tuple[set[EncodedFact], set[EncodedFact]]:
    """DRed deletion: over-delete the cone, re-derive the survivors.

    *seeds* are base facts (rows currently present) losing their
    extensional support; *asserted* facts carry external support and are
    never over-deleted.  Returns ``(removed, restored)`` in the backend's
    native row space: every fact physically removed during over-deletion
    and every fact the re-derivation pass brought back — the net deletion
    is their difference.
    """
    removed: set[EncodedFact] = set()
    candidates: list[EncodedFact] = []
    delta = {p: set(rows) for p, rows in seeds.items() if rows}
    while delta:
        if checkpoint is not None:
            checkpoint.check_round()
        op_stats.iterations += 1
        lost: set[EncodedFact] = set()
        spawned = _spawn_delta(working, delta)
        for head in _lost_heads(
            working, executors, spawned, delta, op_stats, checkpoint
        ):
            lost.add(head)
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
    restored: set[EncodedFact] = set()
    if candidates:
        # Re-derivation, seeded from the boundary: an over-deleted fact
        # survives iff some rule body holds entirely in the surviving
        # database; survivors re-enter as one batched delta and the
        # ordinary semi-naive continuation restores everything reachable
        # from them.
        rederive: dict[str, list] = {}
        for predicate, row in candidates:
            if _derivable(
                working, executors, predicate, row, op_stats, checkpoint
            ):
                rederive.setdefault(predicate, []).append(row)
        if rederive:
            stamp = 1 + max(
                (relation.round for relation in working.relations()),
                default=0,
            )
            delta2: dict[str, Relation] = {}
            for predicate, rows in rederive.items():
                target = working.relation(predicate, arities.get(predicate))
                target.mark_round(stamp)
                bucket = working.spawn(predicate, target.arity)
                for row in rows:
                    if working.add(predicate, row):
                        op_stats.facts_derived += 1
                        restored.add((predicate, row))
                        bucket.add(row)
                if bucket:
                    delta2[predicate] = bucket
            reinserted: set = set()
            propagate(
                working, executors, arities, delta2, stamp, op_stats,
                checkpoint, new_facts=reinserted, decode=False,
            )
            restored |= reinserted
    obs = get_metrics()
    if obs.enabled:
        obs.incr("maintain.dred.deletions")
        obs.incr("maintain.dred.overdeleted", len(removed))
        obs.incr("maintain.dred.rederived", len(restored))
    return removed, restored
