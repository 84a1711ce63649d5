"""Incremental maintenance of the derived database under fact churn.

:class:`IncrementalEngine` keeps a program's fixpoint materialised and
patches it as base facts come and go.  Insertion continues the semi-naive
iteration from a seed delta (sound for any negation-free program by
monotonicity); all inserted rows of one :meth:`add_many` call seed a
*single* delta, so a batch costs one fixpoint continuation, not one per
fact.  Deletion runs DRed, delete-and-re-derive: over-delete the
affected cone, then re-derive survivors from the boundary.  Sound for
any negation-free program, recursion included.

``maintenance="recompute"`` instead discards the base rows and rebuilds
the fixpoint from the remaining base facts.  It is always correct and
always slow: it is the **bit-identity oracle** DRed is checked against
(same decoded fact sets after every operation) by
``tests/test_maintenance_differential.py`` and the F5 streaming bench,
not a mode to serve with.

The algorithm lives in :mod:`repro.engine.maintain`; this module owns
the engine state (the working database, the compiled kernels, the
asserted-fact ledger, and the poison flag).

Every operation runs under the per-operation
:class:`~repro.engine.budget.EvaluationBudget`/``Checkpoint`` protocol.
Any exception escaping mid-mutation — a budget trip, a backend error, an
interrupt — leaves the materialisation inconsistent, so the engine
records it: subsequent calls raise :class:`ProgramError` until
:meth:`rebuild` restores a consistent state.

Asserted IDB facts (facts of derived predicates present in the initial
database or inserted through :meth:`add`) carry *external* support: they
survive any deletion cascade, and every rebuild — including the
recompute oracle's — re-seeds them.

Restricted to negation-free programs: an insertion can only *grow* a
positive program's model, which is what makes the delta continuation
sound, and DRed assumes the same monotone setting.
Stratified programs with negation are rejected at construction.
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.atoms import Atom
from ..datalog.parser import parse_query
from ..datalog.rules import Program
from ..errors import ProgramError
from ..facts.database import Database
from ..facts.relation import Relation
from ..obs import get_metrics
from .budget import EvaluationBudget, ensure_checkpoint
from .counters import EvaluationStats
from .maintain import (
    DEFAULT_MAINTENANCE,
    compile_maintenance,
    delete_dred,
    propagate,
    resolve_maintenance,
)
from .matching import compile_rule
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
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            applied *per operation*: the initial materialisation and each
            subsequent mutation gets a fresh checkpoint (a long-lived
            engine should not die because its lifetime clock ran out).
            On a trip mid-mutation the engine's materialisation is
            inconsistent — the error carries the partial database, the
            engine flags itself :attr:`poisoned` (as it does for *any*
            exception interrupting a mutation), and every call except
            :meth:`rebuild` raises until the state is rebuilt.
        maintenance: ``"dred"`` (default; see
            :mod:`repro.engine.maintain`) or ``"recompute"``, the
            rebuild-on-delete oracle the tests check DRed against.
    """

    def __init__(
        self,
        program: Program,
        database: Database | None = None,
        budget: "EvaluationBudget | None" = None,
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
        self._budget = budget
        self._poisoned = False
        self.stats = EvaluationStats()
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
        self._working, _ = seminaive_fixpoint(
            self._program, base, op_stats, budget=self._budget
        )
        self._rules = compile_maintenance(
            [compile_rule(rule) for rule in self._program.proper_rules]
        )

    def _rematerialise(self) -> None:
        """:meth:`_materialise` the current base facts, poisoning the
        engine if that fails part way.  Counted as ``maintain.rebuilds``:
        every :meth:`rebuild` and every recompute-mode delete."""
        obs = get_metrics()
        if obs.enabled:
            obs.incr("maintain.rebuilds")
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

    # --- mutation ---------------------------------------------------------------
    def _checked(self, atoms: Iterable[Atom | str]) -> list[Atom]:
        """*atoms* parsed, each checked to be ground and of its
        predicate's arity — the stored relation's, else the program's,
        else the batch's first use — before the batch touches anything,
        so a rejected batch leaves the engine exactly as it was."""
        arities = dict(self._program.arities)
        arities.update(
            (relation.name, relation.arity)
            for relation in self._working.relations()
        )
        parsed = []
        for atom in atoms:
            if isinstance(atom, str):
                atom = parse_query(atom)
            if not atom.is_ground():
                raise ProgramError(f"facts must be ground, got {atom}")
            arity = arities.setdefault(atom.predicate, atom.arity)
            if atom.arity != arity:
                raise ProgramError(
                    f"{atom} has arity {atom.arity}, but {atom.predicate} "
                    f"has arity {arity}"
                )
            parsed.append(atom)
        return parsed

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
        derivations (inserted facts included).  A non-ground or
        wrong-arity atom rejects the whole batch with
        :class:`ProgramError` before anything changes.
        """
        self._ensure_usable()
        parsed = self._checked(atoms)
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
        new_facts: set[Fact] = set()
        heads: dict[str, dict] = {}
        for atom in parsed:
            relation = self._working.relation(atom.predicate, atom.arity)
            rows = heads.setdefault(atom.predicate, {})
            row = atom.ground_key()
            if atom.predicate in idb:
                # External support: survives any deletion cascade and is
                # re-seeded by every rebuild.  Recorded even when the row
                # is already derivable — support is a property of the
                # assertion, not of who got there first.
                self._asserted.add((atom.predicate, row))
            if row in relation or row in rows:
                continue
            rows[row] = None
            new_facts.add((atom.predicate, row))
        # One merge per predicate; a predicate whose atoms were all
        # present is still marked, like every relation the batch touched.
        seeds: dict[str, Relation] = {}
        for predicate, rows in heads.items():
            relation = self._working.relation(predicate)
            relation.merge(rows, stamp)
            if rows:
                seeds[predicate] = Relation.adopt(predicate, relation.arity, rows)
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
                self._working, self._rules, self._program.arities, seeds,
                stamp, op_stats, checkpoint, new_facts=new_facts,
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

        Deleting a derived (IDB) fact is refused.  DRed patches the
        materialisation incrementally; the recompute oracle rebuilds the
        fixpoint from the remaining base facts.
        """
        return bool(self.remove_many([atom]))

    def remove_many(self, atoms: Iterable[Atom | str]) -> frozenset[Fact]:
        """Delete several base facts as one batched operation.

        Returns the removed base facts (raw values); facts not currently
        stored are ignored.  A derived, non-ground or wrong-arity atom
        rejects the whole batch with :class:`ProgramError` before
        anything changes.
        """
        self._ensure_usable()
        parsed = self._checked(atoms)
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
        try:
            delete_dred(
                self._working, self._rules, self._program.arities, seeds,
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
