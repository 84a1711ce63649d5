"""OLDT resolution: top-down evaluation with tabulation (Tamaki & Sato 1986).

This engine is the comparator of Seki's theorems: the Alexander-transformed
program, evaluated bottom-up, must generate exactly the *calls* (tabled
subgoals) and *answers* (table entries) that OLDT generates, with inference
counts of the same order.

Implementation: a worklist ("SLG-lite") rendering of OLDT's search forest.

* Each distinct call pattern — up to variable renaming (*variant-based*
  tabling, as in the original OLDT) — owns a :class:`_Table` with its
  answer list and its registered consumers.
* A :class:`_Process` is a partially resolved clause: the instantiated
  answer template plus the remaining body literals.  Substitutions are
  applied eagerly, so no environment threading is needed.
* Selecting a **tabled** literal (one defined by program rules) registers
  the process as a consumer of the subgoal's table and replays existing
  answers; selecting an **extensional** literal resolves inline against
  the database (OLDT's treatment of base relations, mirrored by the
  Alexander transformation, which leaves EDB literals untransformed).
* Negative literals must be ground when selected and are decided by a
  *nested, completed* OLDT evaluation — sound for stratified programs,
  where the nested subquery cannot depend on any in-flight table.

Counter semantics (matching docs/THEORY.md "Metrics"):

* ``inferences``  — successful program-clause resolutions, EDB fact
  resolutions, and answer-clause resolutions (answer replay).
* ``calls``       — tables created (distinct call patterns).
* ``facts_derived`` — distinct answers added across all tables.
* ``answers``     — answers of the query's own table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datalog.atoms import Atom, Literal
from ..datalog.builtins import evaluate_builtin, is_builtin
from ..datalog.rules import Program
from ..datalog.terms import Constant
from ..datalog.unify import subsumes, unify_atoms, variant_key
from ..engine.budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from ..engine.counters import EvaluationStats
from ..errors import EvaluationError
from ..facts.database import Database
from ..obs import get_metrics

__all__ = ["OLDTEngine", "oldt_query"]

DEFAULT_MAX_STEPS = 10_000_000


@dataclass
class _Table:
    """The solution table of one call pattern."""

    call: Atom                      # canonical call atom (as first encountered)
    key: tuple                      # variant key of `call`
    answers: list[Atom] = field(default_factory=list)
    answer_keys: set[tuple] = field(default_factory=set)
    consumers: list["_Process"] = field(default_factory=list)

    def add_answer(self, answer: Atom) -> bool:
        key = variant_key(answer)
        if key in self.answer_keys:
            return False
        self.answer_keys.add(key)
        self.answers.append(answer)
        return True


@dataclass
class _Process:
    """A partially resolved clause contributing answers to *table*.

    ``template`` is the (instantiated) head of the table's call: when
    ``goals`` is exhausted the template is the answer.  When the process is
    suspended as a consumer, ``replayed`` records how many of the table's
    answers it has already consumed.
    """

    table: _Table
    template: Atom
    goals: tuple[Literal, ...]
    watch: "_Table | None" = None
    replayed: int = 0


class OLDTEngine:
    """A variant-based OLDT engine over a program and a database."""

    def __init__(
        self,
        program: Program,
        database: Database | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        tabling: str = "variant",
        planner: "object | None" = None,
        budget: "EvaluationBudget | Checkpoint | None" = None,
    ):
        """Args:
            tabling: ``"variant"`` (Tamaki–Sato's original: one table per
                call pattern up to renaming — the mode Seki's
                correspondence is exact for) or ``"subsumption"`` (a new
                call is answered by any existing table whose call pattern
                subsumes it, creating fewer tables at the cost of
                filtering more general answers).
            planner: optional join-planner spec (e.g. ``"greedy"`` or a
                :class:`repro.engine.planner.JoinPlanner`).  Clause bodies
                are ordered by
                :meth:`~repro.engine.planner.JoinPlanner.order_clause_goals`,
                which only permutes runs of consecutive extensional
                literals — tabled calls and tests are boundaries, so the
                generated call patterns and answers are unchanged.
            budget: optional :class:`repro.engine.budget.EvaluationBudget`
                (or a running checkpoint, shared with nested negation
                evaluations).  ``max_iterations`` bounds scheduler steps,
                ``max_facts`` table answers; a trip's partial database
                holds every (ground) answer tabled so far — all genuinely
                derivable, so the prefix is sound.
        """
        if tabling not in ("variant", "subsumption"):
            raise ValueError(
                f"tabling must be 'variant' or 'subsumption', got {tabling!r}"
            )
        self._program = program
        self._database = database.copy() if database is not None else Database()
        self._database.add_atoms(program.facts)
        self._max_steps = max_steps
        self._tabling = tabling
        from ..engine.planner import resolve_planner

        self._planner = resolve_planner(planner, self._database, program)
        self._tables: dict[tuple, _Table] = {}
        self._worklist: list[_Process] = []
        # Ground negation-as-failure results (stratified => stable).
        self._negation_cache: dict[tuple, bool] = {}
        self.stats = EvaluationStats()
        self._budget = budget
        self._checkpoint: Checkpoint | None = None

    # --- public API -----------------------------------------------------------
    def query(self, goal: Atom) -> list[Atom]:
        """All answers to *goal* (instances of the goal atom)."""
        if self._checkpoint is None:
            self._checkpoint = ensure_checkpoint(self._budget, self.stats)
            # A nested negation evaluation shares its parent's checkpoint;
            # only the outermost engine (which created it) points the
            # partial result at its own tables.
            if self._checkpoint is not None and not isinstance(
                self._budget, Checkpoint
            ):
                self._checkpoint.bind(self._partial_database)
        obs = get_metrics()
        with obs.timer("oldt"):
            table = self._get_or_create_table(goal)
            self._run()
        if obs.enabled:
            obs.observe("oldt.tables", len(self._tables))
            obs.observe(
                "oldt.table_answers",
                sum(len(t.answers) for t in self._tables.values()),
            )
            obs.observe("oldt.scheduler_steps", self.stats.iterations)
        if table.key == variant_key(goal):
            answers = list(table.answers)
        else:
            # Subsumption mode handed us a more general table: keep only
            # the answers that are instances of the goal.
            answers = []
            seen: set[tuple] = set()
            for answer in table.answers:
                unifier = unify_atoms(goal, answer)
                if unifier is None:
                    continue
                instance = unifier.apply_atom(goal)
                key = variant_key(instance)
                if key not in seen:
                    seen.add(key)
                    answers.append(instance)
        self.stats.answers = len(answers)
        return answers

    def _partial_database(self) -> Database:
        """Every ground answer tabled so far, as a database (trip payload)."""
        partial = Database()
        for table in self._tables.values():
            for answer in table.answers:
                if answer.is_ground():
                    partial.add_atom(answer)
        return partial

    @property
    def tables(self) -> dict[tuple, "_Table"]:
        """The completed solution tables (read-only use by the
        correspondence checker)."""
        return self._tables

    def call_patterns(self) -> list[Atom]:
        """The canonical call atom of every table, in creation order."""
        return [table.call for table in self._tables.values()]

    def all_answers(self) -> dict[tuple, list[Atom]]:
        """Answers per table key."""
        return {key: list(table.answers) for key, table in self._tables.items()}

    # --- tabling ----------------------------------------------------------------
    def _is_tabled(self, predicate: str) -> bool:
        return predicate in self._program.idb_predicates

    def _get_or_create_table(self, call: Atom) -> _Table:
        key = variant_key(call)
        table = self._tables.get(key)
        if table is not None:
            return table
        if self._tabling == "subsumption":
            # Reuse any table whose call pattern covers this call; answer
            # unification in the consumer filters out the excess.
            for candidate in self._tables.values():
                if (
                    candidate.call.predicate == call.predicate
                    and subsumes(candidate.call, call) is not None
                ):
                    return candidate
        table = _Table(call=call, key=key)
        self._tables[key] = table
        self.stats.calls += 1
        # Seed generator processes: program clauses whose head unifies with
        # the canonical call, plus database facts of the same predicate
        # (unit clauses).
        for row in self._database.rows(call.predicate) if call.predicate in self._database else ():
            self.stats.attempts += 1
            fact = Atom(call.predicate, tuple(Constant(value) for value in row))
            unifier = unify_atoms(call, fact)
            if unifier is not None:
                self._charge_step()
                self._enqueue(_Process(table, unifier.apply_atom(call), ()))
        from ..engine.matching import order_body

        for rule in self._program.rules_for(call.predicate):
            self.stats.attempts += 1
            fresh = rule.rename_apart()
            unifier = unify_atoms(call, fresh.head)
            if unifier is None:
                continue
            self._charge_step()
            template = unifier.apply_atom(call)
            # Bodies are normalised so test literals (negation, built-ins)
            # come after the literals that bind them — the order the
            # adornment pass uses too, keeping call patterns aligned.
            if self._planner is not None:
                ordered = self._planner.order_clause_goals(
                    fresh.body, fresh, tabled=self._program.idb_predicates
                )
            else:
                ordered = order_body(fresh.body, fresh)
            goals = tuple(unifier.apply_literal(lit) for lit in ordered)
            self._enqueue(_Process(table, template, goals))
        return table

    def _enqueue(self, process: _Process) -> None:
        self._worklist.append(process)

    def _charge_step(self) -> None:
        self.stats.inferences += 1
        if self.stats.inferences > self._max_steps:
            raise EvaluationError(
                f"OLDT exceeded {self._max_steps} resolution steps"
            )

    # --- scheduler --------------------------------------------------------------
    def _run(self) -> None:
        checkpoint = self._checkpoint
        while self._worklist:
            if checkpoint is not None:
                checkpoint.check_round()
            self.stats.iterations += 1
            process = self._worklist.pop()
            self._step(process)

    def _step(self, process: _Process) -> None:
        if not process.goals:
            self._emit_answer(process.table, process.template)
            return
        selected, rest = process.goals[0], process.goals[1:]
        if is_builtin(selected.predicate):
            self._step_builtin(process, selected, rest)
            return
        if selected.negative:
            self._step_negative(process, selected, rest)
            return
        if self._is_tabled(selected.predicate):
            self._step_tabled(process, selected.atom, rest)
        else:
            self._step_extensional(process, selected.atom, rest)

    def _emit_answer(self, table: _Table, answer: Atom) -> None:
        if not table.add_answer(answer):
            return
        self.stats.facts_derived += 1
        # Resume every consumer; each tracks its own replay cursor into the
        # table's (append-only) answer list.
        for consumer in table.consumers:
            self._replay(consumer)

    def _step_tabled(self, process: _Process, call: Atom, rest: tuple[Literal, ...]) -> None:
        table = self._get_or_create_table(call)
        consumer = _Process(
            table=process.table,
            template=process.template,
            goals=(Literal(call),) + rest,
            watch=table,
        )
        table.consumers.append(consumer)
        self._replay(consumer)

    def _replay(self, consumer: _Process) -> None:
        """Resolve *consumer*'s selected literal against unseen answers of
        the table it watches."""
        call = consumer.goals[0].atom
        rest = consumer.goals[1:]
        answers = consumer.watch.answers
        while consumer.replayed < len(answers):
            answer = answers[consumer.replayed]
            consumer.replayed += 1
            self.stats.attempts += 1
            if self._checkpoint is not None:
                self._checkpoint.poll()
            unifier = unify_atoms(call, answer)
            if unifier is None:
                continue
            self._charge_step()
            self._enqueue(
                _Process(
                    table=consumer.table,
                    template=unifier.apply_atom(consumer.template),
                    goals=tuple(unifier.apply_literal(lit) for lit in rest),
                )
            )

    def _step_extensional(
        self, process: _Process, atom: Atom, rest: tuple[Literal, ...]
    ) -> None:
        if atom.predicate not in self._database:
            return
        relation = self._database.relation(atom.predicate)
        bound: dict[int, object] = {
            column: arg.value
            for column, arg in enumerate(atom.args)
            if isinstance(arg, Constant)
        }
        for row in relation.lookup(bound):
            self.stats.attempts += 1
            if self._checkpoint is not None:
                self._checkpoint.poll()
            fact = Atom(atom.predicate, tuple(Constant(value) for value in row))
            unifier = unify_atoms(atom, fact)
            if unifier is None:
                continue
            self._charge_step()
            self._enqueue(
                _Process(
                    table=process.table,
                    template=unifier.apply_atom(process.template),
                    goals=tuple(unifier.apply_literal(lit) for lit in rest),
                )
            )

    def _step_builtin(
        self, process: _Process, literal: Literal, rest: tuple[Literal, ...]
    ) -> None:
        atom = literal.atom
        if not atom.is_ground():
            raise EvaluationError(
                f"builtin literal {literal} selected before its variables "
                "were bound; reorder the rule body"
            )
        holds = evaluate_builtin(atom.predicate, atom.ground_key())
        self._charge_step()
        if holds == literal.positive:
            self._enqueue(
                _Process(table=process.table, template=process.template, goals=rest)
            )

    def _step_negative(
        self, process: _Process, literal: Literal, rest: tuple[Literal, ...]
    ) -> None:
        atom = literal.atom
        if not atom.is_ground():
            raise EvaluationError(
                f"negation-as-failure selected non-ground literal {literal}"
            )
        cache_key = (atom.predicate, atom.ground_key())
        holds = self._negation_cache.get(cache_key)
        if holds is None:
            nested = OLDTEngine(
                self._program,
                self._database,
                self._max_steps,
                planner=self._planner,
                budget=self._checkpoint,
            )
            holds = not nested.query(atom)
            self.stats.merge(nested.stats)
            self._negation_cache[cache_key] = holds
        self._charge_step()
        if holds:
            self._enqueue(
                _Process(table=process.table, template=process.template, goals=rest)
            )


def oldt_query(
    program: Program,
    goal: Atom,
    database: Database | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    planner: "object | None" = None,
    budget: "EvaluationBudget | None" = None,
) -> tuple[list[Atom], EvaluationStats]:
    """Convenience wrapper: run one OLDT query and return answers + stats."""
    engine = OLDTEngine(
        program, database, max_steps=max_steps, planner=planner, budget=budget
    )
    answers = engine.query(goal)
    return answers, engine.stats
