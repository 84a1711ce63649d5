"""Incremental maintenance of the derived database under fact churn.

:class:`IncrementalEngine` keeps a program's fixpoint materialised and
patches it as base facts come and go.  Insertion continues the semi-naive
iteration from a seed delta (sound for any negation-free program by
monotonicity); all inserted rows of one :meth:`add_many` call seed a
*single* delta, so a batch costs one fixpoint continuation, not one per
fact.  Deletion has three modes, selected at construction:

* ``maintenance="recompute"`` (default) — discard the base rows and
  rebuild the fixpoint from the remaining base facts.  Always correct
  and always the slow path; the other two modes are required to be
  **bit-identical** to it (same decoded fact sets after every
  operation), which makes it the differential oracle the maintenance
  test suite pins against.
* ``maintenance="counting"`` — per-fact derivation counts; a delete
  decrements exactly the lost derivations and cascades only where a
  count reaches zero.  Exact for non-recursive programs only, so
  recursive programs are rejected at construction (use DRed instead).
* ``maintenance="dred"`` — delete-and-re-derive: over-delete the
  affected cone, then re-derive survivors from the boundary.  Sound for
  any negation-free program, recursion included.

The algorithms live in :mod:`repro.engine.maintain`; this module owns
the engine state (the working database, the compiled executors, the
count tables, the asserted-fact ledger, and the poison flag).

Every operation runs under the per-operation
:class:`~repro.engine.budget.EvaluationBudget`/``Checkpoint`` protocol.
Any exception escaping mid-mutation — a budget trip, a backend error, an
interrupt — leaves the materialisation inconsistent, so the engine
records it: subsequent calls raise :class:`ProgramError` until
:meth:`rebuild` restores a consistent state.

Asserted IDB facts (facts of derived predicates present in the initial
database or inserted through :meth:`add`) carry *external* support: they
survive any deletion cascade, and every mode — including the recompute
oracle — re-seeds them on rebuild.

Restricted to negation-free programs: an insertion can only *grow* a
positive program's model, which is what makes the delta continuation
sound, and the deletion algorithms assume the same monotone setting.
Stratified programs with negation are rejected at construction.
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.atoms import Atom
from ..datalog.parser import parse_query
from ..datalog.rules import Program
from ..errors import BudgetExceededError, ProgramError
from ..facts.database import Database
from ..facts.relation import Relation
from ..obs import get_metrics
from .budget import EvaluationBudget, ensure_checkpoint
from .counters import EvaluationStats
from .kernel import DEFAULT_EXECUTOR, head_rows
from .maintain import (
    DEFAULT_MAINTENANCE,
    MaintainedRule,
    compile_maintenance,
    delete_counting,
    delete_dred,
    propagate,
    resolve_maintenance,
)
from .matching import compile_rule
from .planner import JoinPlanner
from .scheduler import build_schedule
from .seminaive import seminaive_fixpoint

__all__ = ["IncrementalEngine"]

Fact = tuple[str, tuple]

_UNSET = object()

_POISONED_MESSAGE = (
    "IncrementalEngine is poisoned: an interrupted mutation left the "
    "materialisation inconsistent; call rebuild() before further use"
)


class IncrementalEngine:
    """A continuously materialised fixpoint over a positive program.

    Args:
        program: a negation-free program; embedded facts are loaded.
        database: extensional facts; copied, never mutated.
        planner: optional join-planner spec (e.g. ``"greedy"``).  The
            initial materialisation plans as usual; the delta-continuation
            rules are then compiled against the *materialised* database,
            so IDB statistics are real sizes rather than unknowns.
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            applied *per operation*: the initial materialisation and each
            subsequent mutation gets a fresh checkpoint (a long-lived
            engine should not die because its lifetime clock ran out).
            On a trip mid-mutation the engine's materialisation is
            inconsistent — the error carries the partial database, the
            engine flags itself :attr:`poisoned` (as it does for *any*
            exception interrupting a mutation), and every call except
            :meth:`rebuild` raises until the state is rebuilt.
        executor: ``"kernel"`` (default) or ``"interpreted"``; applies to
            the initial materialisation, every delta continuation, and
            every deletion pass.
        maintenance: deletion strategy — ``"recompute"`` (default, the
            differential oracle), ``"counting"`` (non-recursive programs
            only), or ``"dred"``.  See :mod:`repro.engine.maintain`.
    """

    def __init__(
        self,
        program: Program,
        database: Database | None = None,
        planner: "JoinPlanner | str | None" = None,
        budget: "EvaluationBudget | None" = None,
        executor: str = DEFAULT_EXECUTOR,
        maintenance: str = DEFAULT_MAINTENANCE,
    ):
        for rule in program.proper_rules:
            for literal in rule.body:
                if literal.negative:
                    raise ProgramError(
                        "IncrementalEngine requires a negation-free "
                        f"program; offending rule: {rule}"
                    )
        self._maintenance = resolve_maintenance(maintenance)
        self._program = program.without_facts()
        if maintenance == "counting":
            recursive = [
                predicate
                for component in build_schedule(self._program).components
                if component.recursive
                for predicate in sorted(component.predicates)
            ]
            if recursive:
                raise ProgramError(
                    "counting maintenance is exact for non-recursive "
                    f"programs only (recursive: {', '.join(recursive)}); "
                    "use maintenance='dred'"
                )
        self._planner_spec = planner
        self._budget = budget
        self._executor = executor
        self._poisoned = False
        self.stats = EvaluationStats()
        self._counts: "dict[str, dict[tuple, int]] | None" = (
            {} if maintenance == "counting" else None
        )
        initial = database.copy() if database is not None else Database()
        initial.add_atoms(program.facts)
        # Asserted IDB facts carry external support across every rebuild.
        idb = self._program.idb_predicates
        self._asserted: set[Fact] = {
            (relation.name, row)
            for relation in initial.relations()
            if relation.name in idb
            for row in relation
        }
        self._materialise(initial, self.stats)

    def _materialise(self, base: Database, op_stats: EvaluationStats) -> None:
        """The model of *base* built anew and the executors compiled
        for it."""
        if self._maintenance == "counting":
            self._counting_build(base, op_stats)
        else:
            self._working, _ = seminaive_fixpoint(
                self._program,
                base,
                op_stats,
                planner=self._planner_spec,
                budget=self._budget,
                executor=self._executor,
            )
        self._rules = self._compile_for(self._working)

    def _rematerialise(self) -> None:
        """:meth:`_materialise` the current base facts, poisoning the
        engine if that fails part way."""
        op_stats = EvaluationStats()
        try:
            self._materialise(self._base_database(), op_stats)
        except BaseException:
            # A failed build may have replaced part of the state; stay
            # (or become) poisoned rather than reporting a usable engine.
            self._poisoned = True
            raise
        finally:
            self.stats.merge(op_stats)

    def _counting_build(
        self, initial: Database, op_stats: EvaluationStats
    ) -> None:
        """Materialise from scratch while recording derivation counts.

        The build *is* an insertion: every base fact enters as one big
        seed delta over an empty working database, and the ordinary
        semi-naive continuation (counting every enumerated derivation)
        runs it to fixpoint — so the counts are exact by the same
        exactly-once argument that makes :meth:`add_many` sound.
        """
        working = initial.restrict(())
        counts: dict[str, dict[tuple, int]] = {}
        arities = dict(self._program.arities)
        checkpoint = ensure_checkpoint(self._budget, op_stats)
        if checkpoint is not None:
            checkpoint.bind(working)
        # Seeds stamped at round 1 over empty relations, so round 1's
        # pre-delta views are empty, exactly like a first insertion.
        seeds: dict[str, Relation] = {}
        for relation in initial.relations():
            if not len(relation):
                continue
            arities.setdefault(relation.name, relation.arity)
            target = working.relation(relation.name, relation.arity)
            target.mark_round(1)
            bucket = Relation(relation.name, relation.arity)
            table = counts.setdefault(relation.name, {})
            for row in relation:
                target.add(row)
                bucket.add(row)
                table[row] = 1  # external support
            seeds[relation.name] = bucket
        # Rules without a positive relation literal (constant heads
        # guarded by built-ins only) never join a delta; fire them once.
        rules = self._compile_for(working)
        for rule in rules:
            compiled, kernel = rule.compiled, rule.kernel
            if any(
                literal.positive and not literal.builtin
                for literal in compiled.body
            ):
                continue

            def view(pos: int, predicate: str) -> "Relation | None":
                try:
                    return working.relation(predicate)
                except KeyError:
                    return None

            for head_row in head_rows(compiled, kernel, view, op_stats, checkpoint):
                op_stats.inferences += 1
                head_pred = compiled.head_predicate
                table = counts.setdefault(head_pred, {})
                table[head_row] = table.get(head_row, 0) + 1
                target = working.relation(head_pred, arities.get(head_pred))
                if head_row not in target:
                    if target.round < 1:
                        target.mark_round(1)
                    target.add(head_row)
                    op_stats.facts_derived += 1
                    bucket = seeds.setdefault(
                        head_pred, Relation(head_pred, len(head_row))
                    )
                    bucket.add(head_row)
        self._working = working
        self._counts = counts
        propagate(
            working, rules, arities,
            {p: bucket for p, bucket in seeds.items() if bucket},
            1, op_stats, checkpoint, counts=counts,
        )

    def _compile_for(self, working: Database) -> list[MaintainedRule]:
        """The maintenance executors, planned against *working*: the
        materialised database, or the counting build's still empty one.
        With a planner spec there is no ``unknown`` set: once
        materialised, every IDB relation has its real cardinality."""
        spec = self._planner_spec
        if isinstance(spec, JoinPlanner):
            active: JoinPlanner | None = spec
        elif spec is None or spec is False:
            active = None
        else:
            active = JoinPlanner(working)
        compiled = [
            compile_rule(rule, active) for rule in self._program.proper_rules
        ]
        return compile_maintenance(compiled, self._executor)

    def _ensure_usable(self) -> None:
        if self._poisoned:
            raise ProgramError(_POISONED_MESSAGE)

    # --- read access ------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The materialised database (EDB plus all derived facts)."""
        return self._working

    @property
    def maintenance(self) -> str:
        """The deletion strategy this engine was built with."""
        return self._maintenance

    @property
    def poisoned(self) -> bool:
        """True after an interrupted mutation (budget trip or any other
        mid-flight exception) left the materialisation inconsistent;
        cleared by :meth:`rebuild`."""
        return self._poisoned

    def holds(self, atom: Atom | str) -> bool:
        self._ensure_usable()
        if isinstance(atom, str):
            atom = parse_query(atom)
        return self._working.has_fact(atom)

    def query(self, goal: Atom | str) -> list[Atom]:
        """Matching facts straight out of the materialisation (no work)."""
        self._ensure_usable()
        if isinstance(goal, str):
            goal = parse_query(goal)
        return sorted(self._working.match(goal), key=str)

    def support(self, atom: Atom | str) -> int | None:
        """Counting mode: a fact's maintained support (external +
        derivation count); ``None`` in other modes or when absent."""
        if self._counts is None:
            return None
        if isinstance(atom, str):
            atom = parse_query(atom)
        table = self._counts.get(atom.predicate)
        if not table:
            return None
        return table.get(atom.ground_key())

    # --- mutation ---------------------------------------------------------------
    def add(self, atom: Atom | str) -> frozenset[Fact]:
        """Insert one fact; returns every fact that became newly derivable
        (including the inserted one), empty when it was already present."""
        return self.add_many([atom])

    def add_many(self, atoms: Iterable[Atom | str]) -> frozenset[Fact]:
        """Insert several facts as *one* batched seed delta.

        All genuinely new rows enter the working database stamped at the
        same round and seed a single semi-naive continuation, so a batch
        of *n* facts costs one fixpoint, not *n* — with identical
        resulting fact sets, since the continuation is insensitive to how
        the seed delta is sliced.  Returns the union of the new
        derivations (inserted facts included).
        """
        self._ensure_usable()
        parsed = [
            parse_query(atom) if isinstance(atom, str) else atom
            for atom in atoms
        ]
        if not parsed:
            return frozenset()
        # Stamp this operation past everything already materialised, so
        # rows_before(stamp) sees exactly the pre-add state.  Inserted
        # rows are stamped, excluding them from round 1's old views.
        stamp = 1 + max(
            (relation.round for relation in self._working.relations()),
            default=0,
        )
        idb = self._program.idb_predicates
        arities = dict(self._program.arities)
        new_facts: set[Fact] = set()
        seeds: dict[str, Relation] = {}
        marked: set[str] = set()
        for atom in parsed:
            arities.setdefault(atom.predicate, atom.arity)
            relation = self._working.relation(atom.predicate, atom.arity)
            if atom.predicate not in marked:
                relation.mark_round(stamp)
                marked.add(atom.predicate)
            row = atom.ground_key()
            if (
                atom.predicate in idb
                and (atom.predicate, row) not in self._asserted
            ):
                # External support: survives any deletion cascade and is
                # re-seeded by every rebuild.  Recorded even when the row
                # is already derivable — support is a property of the
                # assertion, not of who got there first — so counting
                # mode bumps the count before the presence check below
                # can skip the row.  Re-assertions are no-ops (the
                # ledger is a set), so the bump happens exactly once.
                self._asserted.add((atom.predicate, row))
                if self._counts is not None:
                    table = self._counts.setdefault(atom.predicate, {})
                    table[row] = table.get(row, 0) + 1
            if not self._working.add(atom.predicate, row):
                continue
            new_facts.add((atom.predicate, row))
            if self._counts is not None and atom.predicate not in idb:
                self._counts.setdefault(atom.predicate, {})[row] = 1
            bucket = seeds.setdefault(
                atom.predicate,
                Relation(atom.predicate, atom.arity),
            )
            bucket.add(row)
        if not seeds:
            return frozenset()
        # Per-operation governance: the checkpoint monitors a fresh
        # counter record (merged into the lifetime stats afterwards, trip
        # or not), so each call gets the budget's full allowance rather
        # than dying on work a previous operation already spent.
        op_stats = EvaluationStats()
        checkpoint = ensure_checkpoint(self._budget, op_stats)
        if checkpoint is not None:
            checkpoint.bind(self._working)
        try:
            propagate(
                self._working, self._rules, arities, seeds, stamp,
                op_stats, checkpoint, counts=self._counts,
                new_facts=new_facts,
            )
        except BaseException:
            # Not just budget trips: any exception escaping mid-propagate
            # (backend error, interrupt) leaves the materialisation
            # inconsistent.
            self._poisoned = True
            raise
        finally:
            self.stats.merge(op_stats)
        obs = get_metrics()
        if obs.enabled:
            obs.incr("maintain.inserts", len(parsed))
            obs.incr("maintain.insert_batches")
        return frozenset(new_facts)

    def remove(self, atom: Atom | str) -> bool:
        """Delete one base fact; returns True iff it was stored.

        Deleting a derived (IDB) fact is refused.  The deletion strategy
        is the engine's ``maintenance`` mode: counting and DRed patch the
        materialisation incrementally; recompute rebuilds the fixpoint
        from the remaining base facts and is the bit-identity oracle the
        fast paths are tested against.
        """
        return bool(self.remove_many([atom]))

    def remove_many(self, atoms: Iterable[Atom | str]) -> frozenset[Fact]:
        """Delete several base facts as one batched operation.

        Returns the removed base facts (raw values); facts not currently
        stored are ignored.  Derived consequences disappear according to
        the maintenance mode, bit-identically across all three.
        """
        self._ensure_usable()
        parsed = [
            parse_query(atom) if isinstance(atom, str) else atom
            for atom in atoms
        ]
        idb = self._program.idb_predicates
        for atom in parsed:
            if atom.predicate in idb:
                raise ProgramError(
                    f"cannot remove derived fact {atom}; remove base facts "
                    "only"
                )
        removed: set[Fact] = set()
        seeds: dict[str, set] = {}
        for atom in parsed:
            if atom.predicate not in self._working:
                continue
            row = atom.ground_key()
            if row not in self._working.relation(atom.predicate):
                continue
            if (atom.predicate, row) in removed:
                continue
            removed.add((atom.predicate, row))
            seeds.setdefault(atom.predicate, set()).add(row)
        if not seeds:
            return frozenset()
        obs = get_metrics()
        if obs.enabled:
            obs.incr("maintain.removes", sum(len(r) for r in seeds.values()))
        if self._maintenance == "recompute":
            self._remove_recompute(seeds)
            return frozenset(removed)
        op_stats = EvaluationStats()
        checkpoint = ensure_checkpoint(self._budget, op_stats)
        if checkpoint is not None:
            checkpoint.bind(self._working)
        arities = dict(self._program.arities)
        try:
            if self._maintenance == "counting":
                assert self._counts is not None
                delete_counting(
                    self._working, self._rules, self._counts, seeds,
                    op_stats, checkpoint,
                )
            else:
                delete_dred(
                    self._working, self._rules, arities, seeds,
                    self._asserted, op_stats, checkpoint,
                )
        except BaseException:
            self._poisoned = True
            raise
        finally:
            self.stats.merge(op_stats)
        return frozenset(removed)

    def _remove_recompute(self, seeds: dict[str, set]) -> None:
        """The oracle path: discard the rows, rebuild the fixpoint."""
        for predicate, rows in seeds.items():
            relation = self._working.relation(predicate)
            for row in rows:
                relation.discard(row)
        self._rematerialise()

    def _base_database(self) -> Database:
        """Current base facts: EDB relations plus asserted IDB facts."""
        base = self._working.restrict(
            self._working.predicates() - self._program.idb_predicates
        )
        for predicate, row in self._asserted:
            base.relation(predicate, len(row)).add(row)
        return base

    def rebuild(self, budget: "EvaluationBudget | None | object" = _UNSET) -> None:
        """Re-materialise from the current base facts; clears poisoning.

        Base facts are whatever the EDB relations hold right now plus
        the asserted IDB ledger — so mutations applied before a budget
        trip stay applied (an interrupted ``add`` completes, an
        interrupted ``remove`` finishes removing).

        Args:
            budget: when given, replaces the engine's per-operation
                budget before rebuilding — the usual move after a trip,
                since the allowance that killed the mutation would kill
                the rebuild too.  ``None`` removes the budget.
        """
        if budget is not _UNSET:
            self._budget = budget  # type: ignore[assignment]
        self._rematerialise()
        self._poisoned = False
        obs = get_metrics()
        if obs.enabled:
            obs.incr("maintain.rebuilds")
