"""QSQR: Query/Subquery evaluation, recursive variant (Vieille 1986/87).

QSQR is the other classical top-down, set-oriented memoing method the
1980s literature compares with the Alexander method and magic sets.  The
implementation here follows the standard recursive formulation:

* For each *adorned* predicate occurrence (a predicate plus a bound/free
  pattern for its arguments) the engine keeps a global **answer table**
  and, per outer round, a memo of the **input tuples** already processed.
* Processing an input tuple pushes bindings through the rule bodies left
  to right, recursing into IDB literals and joining against their answer
  tables.
* Because a recursive call may consume an answer table that is still
  growing, the whole procedure is repeated until no round adds an answer
  (the classical QSQR outer iteration).

Negative literals must be ground when reached and are decided by a nested,
fresh QSQR evaluation run to completion — sound for stratified programs.

Counters: ``calls`` counts distinct (predicate, adornment, input-tuple)
subqueries over the whole run; ``inferences`` counts successful joins of an
environment with a database row or a tabled answer; ``facts_derived``
counts distinct answers across all tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..datalog.atoms import Atom
from ..datalog.builtins import evaluate_builtin, is_builtin
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Variable
from ..engine.budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from ..engine.counters import EvaluationStats
from ..errors import EvaluationError
from ..facts.database import Database
from ..facts.relation import Relation
from ..obs import get_metrics

__all__ = ["QSQREngine", "qsqr_query"]

_Env = dict  # Variable -> constant value


def _adornment_of(atom: Atom, env: Mapping[Variable, object]) -> str:
    """The bound/free pattern of *atom* under *env* ('b'/'f' per argument)."""
    pattern = []
    for arg in atom.args:
        if isinstance(arg, Constant) or (isinstance(arg, Variable) and arg in env):
            pattern.append("b")
        else:
            pattern.append("f")
    return "".join(pattern)


class QSQREngine:
    """Recursive Query/Subquery evaluation over a program and database."""

    def __init__(
        self,
        program: Program,
        database: Database | None = None,
        budget: "EvaluationBudget | Checkpoint | None" = None,
    ):
        """Args:
            budget: optional :class:`repro.engine.budget.EvaluationBudget`
                (or a running checkpoint, shared with nested negation
                evaluations).  ``max_iterations`` bounds outer QSQR
                rounds, ``max_facts`` tabled answers; a trip's partial
                database holds every answer tabled so far (all genuinely
                derivable — the tables only ever accumulate sound
                answers).
        """
        self._program = program
        self._database = database.copy() if database is not None else Database()
        self._database.add_atoms(program.facts)
        arities = program.arities
        self._answers: dict[str, Relation] = {
            predicate: Relation(predicate, arities[predicate])
            for predicate in program.idb_predicates
        }
        # Per-round memo of processed subqueries; reset by the outer loop.
        self._round_seen: set[tuple] = set()
        # Global registry of distinct subqueries, for the `calls` counter.
        self._all_calls: set[tuple] = set()
        # Ground negation-as-failure results (stratified => stable).
        self._negation_cache: dict[tuple, bool] = {}
        self.stats = EvaluationStats()
        self._budget = budget
        self._checkpoint: Checkpoint | None = None

    def _partial_database(self) -> Database:
        """Every answer tabled so far, as a database (trip payload)."""
        partial = Database()
        for relation in self._answers.values():
            target = partial.relation(relation.name, relation.arity)
            target.add_all(relation.rows())
        return partial

    def _table_size(self) -> int:
        """Total answers across tables — the outer loop's progress measure.

        (Deliberately not ``stats.facts_derived``: nested negation
        evaluations merge their stats in, which would look like progress
        forever.)
        """
        return sum(len(relation) for relation in self._answers.values())

    # --- public API --------------------------------------------------------------
    def query(self, goal: Atom) -> list[Atom]:
        """All answers to *goal*, as ground instances of the goal atom."""
        if goal.predicate not in self._program.idb_predicates:
            return self._edb_answers(goal)
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
        before = -1
        with obs.timer("qsqr"):
            while before != self._table_size():
                if self._checkpoint is not None:
                    self._checkpoint.check_round()
                before = self._table_size()
                self.stats.iterations += 1
                self._round_seen.clear()
                with obs.timer("round"):
                    self._subquery(goal, {})
                if obs.enabled:
                    obs.observe("qsqr.round_new_answers", self._table_size() - before)
        if obs.enabled:
            obs.observe("qsqr.calls", len(self._all_calls))
            obs.observe("qsqr.table_answers", self._table_size())
        answers = []
        for env in self._join_idb(goal, {}, charge=False):
            answers.append(self._instantiate(goal, env))
        unique: dict[tuple, Atom] = {}
        for answer in answers:
            unique[answer.ground_key()] = answer
        result = list(unique.values())
        self.stats.answers = len(result)
        return result

    def answer_table(self, predicate: str) -> frozenset[tuple]:
        """The accumulated answer tuples of an IDB predicate."""
        relation = self._answers.get(predicate)
        return relation.rows() if relation is not None else frozenset()

    def call_count(self) -> int:
        return len(self._all_calls)

    # --- core recursion ------------------------------------------------------------
    def _subquery(self, atom: Atom, env: _Env) -> None:
        """Process the subquery for *atom* under *env* (an IDB literal)."""
        adornment = _adornment_of(atom, env)
        input_tuple = tuple(
            self._value_of(arg, env)
            for arg, flag in zip(atom.args, adornment)
            if flag == "b"
        )
        key = (atom.predicate, adornment, input_tuple)
        if key in self._round_seen:
            return
        self._round_seen.add(key)
        if key not in self._all_calls:
            self._all_calls.add(key)
            self.stats.calls += 1
        for rule in self._program.rules_for(atom.predicate):
            self._process_rule(rule, atom, env)

    def _process_rule(self, rule: Rule, call: Atom, env: _Env) -> None:
        fresh = rule.rename_apart()
        head_env: _Env = {}
        # Unify the call (under env) with the fresh head, argument-wise.
        consistent = True
        for call_arg, head_arg in zip(call.args, fresh.head.args):
            value = self._value_of(call_arg, env)
            if isinstance(head_arg, Constant):
                if value is not None and value != head_arg.value:
                    consistent = False
                    break
            else:
                if value is not None:
                    bound = head_env.get(head_arg)
                    if bound is None:
                        head_env[head_arg] = value
                    elif bound != value:
                        consistent = False
                        break
        if not consistent:
            return
        envs: list[_Env] = [head_env]
        from ..engine.matching import order_body

        for literal in order_body(fresh.body, fresh):
            if not envs:
                return
            if is_builtin(literal.predicate):
                envs = [
                    e
                    for e in envs
                    if self._builtin_holds(literal, e)
                ]
            elif literal.negative:
                envs = [e for e in envs if self._negation_holds(literal.atom, e)]
            elif literal.predicate in self._program.idb_predicates:
                next_envs: list[_Env] = []
                for e in envs:
                    self._subquery(literal.atom, e)
                    next_envs.extend(self._join_idb(literal.atom, e))
                envs = next_envs
            else:
                next_envs = []
                for e in envs:
                    next_envs.extend(self._join_edb(literal.atom, e))
                envs = next_envs
        for e in envs:
            answer = tuple(self._value_of(arg, e) for arg in fresh.head.args)
            if any(value is None for value in answer):
                raise EvaluationError(f"unsafe rule produced non-ground answer: {rule}")
            if self._answers[rule.head.predicate].add(answer):
                self.stats.facts_derived += 1

    # --- joins -------------------------------------------------------------------
    def _join_rows(
        self, atom: Atom, env: _Env, rows: Iterable[tuple], charge: bool = True
    ) -> Iterable[_Env]:
        for row in rows:
            if charge:
                self.stats.attempts += 1
                if self._checkpoint is not None:
                    self._checkpoint.poll()
            extended = dict(env)
            consistent = True
            for arg, value in zip(atom.args, row):
                if isinstance(arg, Constant):
                    if arg.value != value:
                        consistent = False
                        break
                else:
                    bound = extended.get(arg)
                    if bound is None:
                        extended[arg] = value
                    elif bound != value:
                        consistent = False
                        break
            if consistent:
                if charge:
                    self.stats.inferences += 1
                yield extended

    def _bound_columns(self, atom: Atom, env: _Env) -> dict[int, object]:
        bound: dict[int, object] = {}
        for column, arg in enumerate(atom.args):
            value = self._value_of(arg, env)
            if value is not None:
                bound[column] = value
        return bound

    def _join_edb(self, atom: Atom, env: _Env) -> Iterable[_Env]:
        if atom.predicate not in self._database:
            return ()
        relation = self._database.relation(atom.predicate)
        return self._join_rows(atom, env, relation.lookup(self._bound_columns(atom, env)))

    def _join_idb(self, atom: Atom, env: _Env, charge: bool = True) -> Iterable[_Env]:
        relation = self._answers.get(atom.predicate)
        if relation is None:
            return ()
        return self._join_rows(
            atom, env, relation.lookup(self._bound_columns(atom, env)), charge
        )

    def _builtin_holds(self, literal, env: _Env) -> bool:
        values = [self._value_of(arg, env) for arg in literal.args]
        if any(value is None for value in values):
            raise EvaluationError(
                f"builtin literal {literal} reached before its variables "
                "were bound"
            )
        self.stats.attempts += 1
        holds = evaluate_builtin(literal.predicate, tuple(values))
        return holds == literal.positive

    def _negation_holds(self, atom: Atom, env: _Env) -> bool:
        values = [self._value_of(arg, env) for arg in atom.args]
        if any(value is None for value in values):
            raise EvaluationError(
                f"negation-as-failure reached non-ground literal not {atom}"
            )
        self.stats.attempts += 1
        probe = tuple(values)
        if atom.predicate in self._program.idb_predicates:
            cache_key = (atom.predicate, probe)
            cached = self._negation_cache.get(cache_key)
            if cached is not None:
                return cached
            nested = QSQREngine(
                self._program,
                self._database,
                budget=self._checkpoint,
            )
            ground = Atom(atom.predicate, tuple(Constant(v) for v in probe))
            result = nested.query(ground)
            self.stats.merge(nested.stats)
            holds = not result
            self._negation_cache[cache_key] = holds
            return holds
        if atom.predicate not in self._database:
            return True
        return probe not in self._database.relation(atom.predicate)

    # --- helpers -----------------------------------------------------------------
    @staticmethod
    def _value_of(arg, env: _Env):
        if isinstance(arg, Constant):
            return arg.value
        return env.get(arg)

    def _instantiate(self, atom: Atom, env: _Env) -> Atom:
        return Atom(
            atom.predicate,
            tuple(Constant(self._value_of(arg, env)) for arg in atom.args),
        )

    def _edb_answers(self, goal: Atom) -> list[Atom]:
        answers = [self._instantiate(goal, env) for env in self._join_edb(goal, {})]
        self.stats.answers = len(answers)
        return answers


def qsqr_query(
    program: Program,
    goal: Atom,
    database: Database | None = None,
    budget: "EvaluationBudget | None" = None,
) -> tuple[list[Atom], EvaluationStats]:
    """Convenience wrapper: run one QSQR query and return answers + stats."""
    engine = QSQREngine(program, database, budget=budget)
    answers = engine.query(goal)
    return answers, engine.stats
