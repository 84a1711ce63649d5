"""The top-level facade: load a program once, query it many ways.

This is the entry point a downstream user sees first::

    from repro import Engine

    engine = Engine.from_source('''
        par(a,b). par(b,c).
        anc(X,Y) :- par(X,Y).
        anc(X,Y) :- par(X,Z), anc(Z,Y).
    ''')
    result = engine.query("anc(a, X)?")            # Alexander by default
    result.answers                                  # (anc(a,b), anc(a,c))
    result.stats.inferences

    engine.query("anc(a, X)?", strategy="oldt")    # same answers, tabled
    engine.explain("anc(a, X)?")                   # strategy shoot-out
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..analysis.safety import require_safe
from ..datalog.atoms import Atom
from ..datalog.parser import parse_query
from ..datalog.rules import Program
from ..facts.database import Database
from ..facts.io import check_arities, load_source
from ..transform.sips import Sips, named_sips
from .strategy import QueryResult, available_strategies, run_strategy

__all__ = ["Engine"]

DEFAULT_STRATEGY = "alexander"


class Engine:
    """A loaded program + database, queryable under any strategy."""

    def __init__(
        self,
        program: Program,
        database: Database | None = None,
        check_safety: bool = True,
    ):
        """Wrap *program* and *database*.

        Args:
            program: rules (embedded ground facts are moved into the
                database).
            database: extensional facts; the engine keeps its own copy.
            check_safety: validate range restriction up front (recommended;
                unsafe rules would fail later with poorer messages).

        Raises:
            ProgramError: when a predicate is used with two arities across
                the rules, the embedded facts and *database*.
        """
        if check_safety:
            require_safe(program)
        database = database.copy() if database is not None else Database()
        check_arities(program, database)
        database.add_atoms(program.facts)
        self._database = database
        self._program = program.without_facts()

    # --- constructors --------------------------------------------------------
    @classmethod
    def from_source(cls, text: str, check_safety: bool = True) -> "Engine":
        """Build an engine from Datalog source text.

        The facts go straight into relation rows (:func:`repro.facts.io.load_source`,
        which also checks every predicate's arity), and the engine keeps
        that database itself rather than a copy.
        """
        rules, database = load_source(text)
        engine = cls(rules, check_safety=check_safety)
        engine._database = database  # the loaded rows themselves, not a copy
        return engine

    @classmethod
    def from_file(cls, path, check_safety: bool = True) -> "Engine":
        """Build an engine from a ``.dl`` file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_source(handle.read(), check_safety=check_safety)

    # --- accessors ------------------------------------------------------------
    @property
    def program(self) -> Program:
        return self._program

    @property
    def database(self) -> Database:
        return self._database

    def add_fact(self, atom: Atom | str) -> bool:
        """Insert one ground fact (atom or source text); True iff new."""
        if isinstance(atom, str):
            atom = parse_query(atom)
        return self._database.add_atom(atom)

    def add_facts(self, atoms: Iterable[Atom]) -> int:
        return self._database.add_atoms(atoms)

    def remove_fact(self, atom: Atom | str) -> bool:
        """Remove one ground fact (atom or source text); True iff stored.

        Removes from the engine's extensional database only — future
        queries see the change; previously prepared queries do not
        (their bases are snapshots).  For a continuously materialised
        model that absorbs deletions incrementally, see
        :meth:`incremental`.
        """
        if isinstance(atom, str):
            atom = parse_query(atom)
        if atom.predicate not in self._database:
            return False
        relation = self._database.relation(atom.predicate)
        return relation.discard(atom.ground_key())

    def incremental(self, planner: "str | None" = None, budget=None):
        """A continuously materialised view of this engine's program.

        Returns an :class:`repro.engine.incremental.IncrementalEngine`
        snapshot of the current program + database whose ``add_many`` /
        ``remove_many`` patch the materialised model in place, deletions
        by DRed (see :mod:`repro.engine.maintain` and
        ``docs/MAINTENANCE.md``).  Negation-free programs only.
        """
        from ..engine.incremental import IncrementalEngine

        return IncrementalEngine(
            self._program, self._database, planner=planner, budget=budget
        )

    # --- querying ----------------------------------------------------------------
    def query(
        self,
        goal: Atom | str,
        strategy: str = DEFAULT_STRATEGY,
        sips: "Sips | str | None" = None,
        planner: "str | None" = None,
        budget=None,
    ) -> QueryResult:
        """Evaluate *goal* under *strategy*.

        Args:
            goal: a query atom or its source text (``"anc(a, X)?"``).
            strategy: one of :func:`available_strategies`.
            sips: optional SIPS name or function for the transformation
                strategies.
            planner: optional join-planner spec (``"greedy"``) enabling
                cost-based body ordering; answers are identical, only
                the join work changes (see ``docs/ARCHITECTURE.md``).
            budget: optional :class:`repro.engine.budget.EvaluationBudget`
                bounding the evaluation; exhaustion raises
                :class:`repro.errors.BudgetExceededError` carrying the
                partial result computed so far.
        """
        if isinstance(goal, str):
            goal = parse_query(goal)
        if isinstance(sips, str):
            sips = named_sips(sips)
        return run_strategy(
            strategy,
            self._program,
            goal,
            self._database,
            sips,
            planner=planner,
            budget=budget,
        )

    def prepare(
        self,
        goal: Atom | str,
        strategy: str = DEFAULT_STRATEGY,
        sips: "Sips | str | None" = None,
        planner: "str | None" = None,
        budget=None,
        maintain: "str | None" = None,
    ):
        """Prepare *goal*'s shape for repeated execution.

        Runs the shape-dependent pipeline (stratify, transform, plan,
        compile) once and returns a
        :class:`repro.core.prepare.PreparedQuery` whose
        :meth:`~repro.core.prepare.PreparedQuery.execute` answers any
        goal with the same predicate and adornment — different constants
        included — without repeating any of that work.  Raises
        :class:`repro.errors.UnpreparableStrategyError` for the
        tuple-at-a-time strategies (``sld``, ``oldt``, ``qsqr``).

        The prepared query snapshots the engine's current database;
        facts added afterwards are not visible to it.  Pass
        ``maintain="dred"`` (the only accepted value; materialised
        strategies only) for a maintained shape whose
        :meth:`~repro.core.prepare.PreparedQuery.apply_update` patches
        the materialisation in place instead (``docs/MAINTENANCE.md``).
        """
        from .prepare import prepare_query

        return prepare_query(
            self._program,
            goal,
            self._database,
            strategy=strategy,
            sips=sips,
            planner=planner,
            budget=budget,
            maintain=maintain,
        )

    def ask(
        self,
        goal: Atom | str,
        strategy: str = DEFAULT_STRATEGY,
        budget=None,
    ) -> bool:
        """True iff *goal* has at least one answer."""
        return bool(self.query(goal, strategy, budget=budget).answers)

    def why(self, goal: Atom | str) -> str:
        """A proof tree for a ground goal, rendered as indented ASCII.

        Runs one semi-naive evaluation and reads the goal's proof off the
        round stamps it leaves on the model, searching only the facts the
        proof needs (:mod:`repro.engine.provenance`).  Returns a "not
        derivable" message when the goal does not hold.

        Raises:
            ValueError: when *goal* is not ground.
        """
        from ..engine.provenance import format_proof, traced_fixpoint

        if isinstance(goal, str):
            goal = parse_query(goal)
        if not goal.is_ground():
            raise ValueError(f"why() needs a ground goal, got {goal}")
        traced = traced_fixpoint(self._program, self._database)
        proof = traced.proof(goal)
        if proof is None:
            return f"{goal} is not derivable"
        return format_proof(proof)

    def explain(
        self,
        goal: Atom | str,
        strategies: Iterable[str] | None = None,
        budget=None,
    ) -> Mapping[str, QueryResult]:
        """Run *goal* under several strategies and return all results.

        The results are keyed by strategy name; callers typically compare
        ``stats.inferences`` across them (the library's whole point).
        A *budget* applies to each strategy run independently.
        """
        chosen = tuple(strategies) if strategies is not None else (
            "seminaive",
            "magic",
            "supplementary",
            "alexander",
            "oldt",
            "qsqr",
        )
        return {name: self.query(goal, name, budget=budget) for name in chosen}

    @staticmethod
    def strategies() -> tuple[str, ...]:
        return available_strategies()
