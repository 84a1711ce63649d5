"""The unified query-strategy interface.

Every evaluation method in the library — bottom-up, top-down, and
transformation-based — is exposed as a *strategy*: a function taking
``(program, query, database, budget)`` and returning a
:class:`QueryResult` whose ``answers`` are ground instances of the
original query atom and whose ``stats`` use the shared counter semantics.
The benchmark harness and the CLI enumerate strategies through
:func:`available_strategies` / :func:`run_strategy`.  Every strategy
joins a rule body in textual order (tests at their earliest bound
point), the order the SIPS gave the rewriting.

Transformation strategies follow the *structured* pipeline for stratified
negation: only the query predicate's stratum is rewritten, with the
predicates of the strata below it counting as extensional, and one
semi-naive fixpoint evaluates the lower strata's rules and the rewritten
stratum together.  Its SCC schedule closes every lower component before
the rewritten rules read it, so this derives, and counts, exactly what
materialising the lower strata first and then running the rewritten
stratum would.  For negation-free programs everything sits in one
stratum, so the whole program is rewritten — the classical setting of
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Mapping

from ..analysis.stratify import stratify
from ..datalog.atoms import Atom, Literal
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Variable
from ..engine.budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from ..engine.counters import EvaluationStats
from ..engine.scheduler import build_schedule
from ..engine.seminaive import run_schedule
from ..engine.stratified import stratified_fixpoint
from ..errors import ReproError, TransformError
from ..facts.database import Database
from ..topdown.oldt import OLDTEngine
from ..topdown.qsqr import QSQREngine
from ..topdown.sld import SLDEngine
from ..transform.adorn import query_adornment
from ..transform.alexander import alexander_templates
from ..transform.common import TransformedProgram, prefixed_name
from ..transform.magic import magic_sets
from ..transform.sips import Sips, left_to_right
from ..transform.supplementary import supplementary_magic_sets

__all__ = ["QueryResult", "available_strategies", "run_strategy"]


class _Answers:
    """The ``answers`` field of :class:`QueryResult`.

    A constructor given ``answers=None`` and ``rendered`` builds the
    atoms from the rendered rows on first read, so a caller that only
    renders (the serving layer, on a call-table hit) never makes one.
    """

    def __get__(self, result, owner=None):
        if result is None:
            raise AttributeError("answers")  # a required field: no default
        answers = result.__dict__["_answers"]
        if answers is None:
            predicate = result.query.predicate
            answers = tuple(
                Atom(predicate, tuple(map(Constant, row)))
                for row in result.rendered[0]
            )
            result.__dict__["_answers"] = answers
        return answers

    def __set__(self, result, answers) -> None:
        result.__dict__["_answers"] = answers


@dataclass
class QueryResult:
    """The outcome of evaluating one query under one strategy.

    Attributes:
        strategy: strategy name.
        query: the original query atom.
        answers: ground instances of the query atom, deduplicated, in a
            deterministic (sorted) order.  Built lazily from ``rendered``
            when the constructor was given ``None``.
        stats: the shared counter record.
        transformed: the transformed program, when one was built.
        call_summary: for strategies with a call concept, a zero-argument
            callable producing ``(calls, answer_facts)`` from the
            evaluation's final state.  It runs once, on first access of
            either property below — the serving layer never reads them,
            so a served query never pays for the summary.
        table_hit: True when a prepared shape answered from its table of
            completed calls instead of evaluating (informational: not
            part of equality, every other field is what a fresh run
            returns).
        rendered: ``(rows, texts)`` — each answer's value tuple and its
            ``str(atom)`` source text, in answer order — when a prepared
            transform shape already holds them; the serving layer
            renders replies from these (not part of equality).
        answers_json: on a call-table hit, the JSON text of the reply's
            ``answers`` object for these rows and texts, kept with the
            table entry (:meth:`repro.core.prepare.CallTable.answers_json`);
            the serving layer splices it into the reply (not part of
            equality).

    ``calls`` is the set of generated subqueries as ``(predicate,
    adornment, bound-args)`` triples and ``answer_facts`` all derived
    answers per ``(predicate, adornment)``; both are empty for strategies
    without a call concept.
    """

    strategy: str
    query: Atom
    answers: tuple[Atom, ...] = _Answers()
    stats: EvaluationStats
    transformed: TransformedProgram | None = None
    call_summary: "Callable[[], tuple] | None" = field(
        default=None, repr=False, compare=False
    )
    table_hit: bool = field(default=False, repr=False, compare=False)
    rendered: "tuple[tuple[tuple, ...], tuple[str, ...]] | None" = field(
        default=None, repr=False, compare=False
    )
    answers_json: "str | None" = field(default=None, repr=False, compare=False)

    @property
    def answer_rows(self) -> frozenset[tuple]:
        """Answers as plain value tuples (order = query argument order)."""
        return frozenset(atom.ground_key() for atom in self.answers)

    @cached_property
    def _summary(self) -> tuple:
        if self.call_summary is None:
            return frozenset(), {}
        return self.call_summary()

    @property
    def calls(self) -> frozenset[tuple]:
        return self._summary[0]

    @property
    def answer_facts(self) -> Mapping[tuple[str, str], frozenset[tuple]]:
        return self._summary[1]


def check_goal_arity(
    goal: Atom, program: "Program | None", database: "Database | None"
) -> None:
    """Raise :class:`ReproError` when *program* (else *database*) knows
    *goal*'s predicate with another arity: every query entry point checks
    here, so no strategy answers such a goal its own way."""
    known = program.arities.get(goal.predicate) if program is not None else None
    if known is None and database is not None:
        known = database.arity_of(goal.predicate)
    if known is not None and known != goal.arity:
        raise ReproError(
            f"goal {goal} has arity {goal.arity}, but {goal.predicate} "
            f"has arity {known}"
        )


def _bridge_stored_facts(
    program: Program, database: "Database | None"
) -> tuple[Program, "Database | None"]:
    """*program* and *database* with no stored fact of a derived predicate.

    A rewriting renames the derived predicates it rewrites, and QSQ-R
    resolves derived goals against rules only, so a fact of a derived
    ``p`` stored in *database* or embedded in *program* would go unseen.
    Each such ``p`` gets a fresh base predicate ``stored__p`` holding
    those facts and one bridge rule ``p(X0, ...) :- stored__p(X0, ...)``,
    so every strategy evaluates the same program.  Returns the arguments
    themselves when there is nothing to move.
    """
    idb = program.idb_predicates
    held = {atom.predicate for atom in program.facts if atom.predicate in idb}
    present = database.predicates() if database is not None else frozenset()
    held.update(p for p in present & idb if len(database.relation(p)))
    if not held:
        return program, database
    stored = {
        p: prefixed_name("stored", p, program.predicates | present)
        for p in sorted(held)
    }
    rules = [
        Rule(Atom(stored[rule.head.predicate], rule.head.args))
        if not rule.body and rule.head.predicate in stored else rule
        for rule in program.rules
    ]
    for p, name in stored.items():
        args = tuple(Variable(f"X{i}") for i in range(program.arities[p]))
        rules.append(Rule(Atom(p, args), (Literal(Atom(name, args)),)))
    if database is not None:
        moved = database.restrict(present - stored.keys())
        for p, name in stored.items():
            if p in database:
                relation = database.relation(p)
                moved.relation(name, relation.arity).add_all(relation)
        database = moved
    return Program(tuple(rules)), database


def _sorted_answers(query: Atom, atoms) -> tuple[Atom, ...]:
    unique: dict[tuple, Atom] = {}
    for atom in atoms:
        unique[atom.ground_key()] = Atom(query.predicate, atom.args)
    return tuple(
        unique[key] for key in sorted(unique, key=repr)
    )


def _bottom_up(engine: str):
    def run(
        program: Program,
        query: Atom,
        database: Database | None,
        budget=None,
    ) -> QueryResult:
        stats = EvaluationStats()
        completed, _ = stratified_fixpoint(
            program, database, stats, engine=engine, budget=budget
        )
        answers = _sorted_answers(query, completed.match(query))
        stats.answers = len(answers)
        return QueryResult(
            strategy=engine, query=query, answers=answers, stats=stats
        )

    return run


def _sld(
    program: Program,
    query: Atom,
    database: Database | None,
    budget=None,
) -> QueryResult:
    engine = SLDEngine(program, database, budget=budget)
    answers = _sorted_answers(query, engine.query(query))
    return QueryResult(
        strategy="sld", query=query, answers=answers, stats=engine.stats
    )


def _oldt(
    program: Program,
    query: Atom,
    database: Database | None,
    budget=None,
) -> QueryResult:
    engine = OLDTEngine(program, database, budget=budget)
    raw = engine.query(query)
    answers = _sorted_answers(query, raw)
    return QueryResult(
        strategy="oldt",
        query=query,
        answers=answers,
        stats=engine.stats,
        call_summary=partial(_oldt_call_summary, engine),
    )


def _oldt_call_summary(engine: OLDTEngine):
    """Summarise OLDT tables as (pred, adornment, bound-args) call triples
    and per-(pred, adornment) answer tuple sets."""
    calls: set[tuple] = set()
    answer_facts: dict[tuple[str, str], set[tuple]] = {}
    for table in engine.tables.values():
        call = table.call
        adornment = query_adornment(call)
        bound = tuple(
            arg.value
            for arg, flag in zip(call.args, adornment)
            if flag == "b"
        )
        calls.add((call.predicate, adornment, bound))
        bucket = answer_facts.setdefault((call.predicate, adornment), set())
        for answer in table.answers:
            bucket.add(answer.ground_key())
    return (
        frozenset(calls),
        {key: frozenset(rows) for key, rows in answer_facts.items()},
    )


def _qsqr(
    program: Program,
    query: Atom,
    database: Database | None,
    budget=None,
) -> QueryResult:
    engine = QSQREngine(program, database, budget=budget)
    answers = _sorted_answers(query, engine.query(query))
    return QueryResult(
        strategy="qsqr", query=query, answers=answers, stats=engine.stats
    )


def _transform_strategy(name: str, transform, sips: Sips = left_to_right):
    def run(
        program: Program,
        query: Atom,
        database: Database | None,
        budget=None,
    ) -> QueryResult:
        stats = EvaluationStats()
        # One checkpoint spans the whole pipeline, so a wall-clock budget
        # covers the rewriting as well as the fixpoint.
        checkpoint = ensure_checkpoint(budget, stats)
        working = database.copy() if database is not None else Database()
        working.add_atoms(program.facts)
        rules_only = program.without_facts()

        if query.predicate not in rules_only.idb_predicates:
            # Purely extensional query: answer by lookup.
            answers = _sorted_answers(query, working.match(query))
            stats.answers = len(answers)
            return QueryResult(
                strategy=name, query=query, answers=answers, stats=stats
            )

        # Structured pipeline: rewrite the query predicate's stratum with
        # the strata below it as EDB.  stratify() refuses a program with
        # no stratification and picks the stratum.
        stratification = stratify(rules_only)
        query_stratum = None
        for index, stratum in enumerate(stratification.strata):
            if query.predicate in stratum.idb_predicates:
                query_stratum = index
                break
        if query_stratum is None:
            raise TransformError(
                f"query predicate {query.predicate} not defined in any stratum"
            )
        target = stratification.strata[query_stratum]
        # The program's predicates are its rules' (the graph stratify()
        # read) and its facts' (already in *working*).
        graph = rules_only.dependency_graph
        edb = frozenset((graph.nodes | working.predicates()) - target.idb_predicates)
        transformed = transform(target, query, sips, edb)
        # One fixpoint over the lower strata and the rewritten stratum,
        # run on *working* itself.  The lower strata's components come
        # from the condensation stratify() read, and close before the
        # rewritten stratum's, so the run evaluates the very components
        # the stratum-by-stratum run would, in a dependency order: every
        # count is the same, and a budget trip leaves a sound prefix.
        numbers = stratification.stratum_of
        bound = numbers[query.predicate]
        arities = rules_only.arities
        components = []
        for component in build_schedule(rules_only).components:
            if numbers[component.rules[0].head.predicate] < bound:
                components.append(component)
                for predicate in component.derived:
                    working.relation(predicate, arities[predicate])
        components += build_schedule(transformed.program).components
        for rule in transformed.program.rules:
            working.relation(rule.head.predicate, len(rule.head.args))
        working.add_atoms(transformed.seeds)
        if checkpoint is not None:
            checkpoint.bind(working)
        run_schedule(components, working, stats, checkpoint)
        completed = working

        answers = _sorted_answers(query, completed.match(transformed.goal))
        stats.answers = len(answers)
        return QueryResult(
            strategy=name,
            query=query,
            answers=answers,
            stats=stats,
            transformed=transformed,
            call_summary=partial(_transform_call_summary, transformed, completed),
        )

    return run


def _transform_call_summary(
    transformed: TransformedProgram, completed: Database
):
    """Summarise call/magic facts and answer facts of a transformed run."""
    calls: set[tuple] = set()
    for call_pred, (predicate, adornment) in transformed.call_predicates.items():
        for row in completed.rows(call_pred):
            calls.add((predicate, adornment, row))
    answer_facts: dict[tuple[str, str], frozenset[tuple]] = {}
    for ans_pred, (predicate, adornment) in transformed.answer_predicates.items():
        answer_facts[(predicate, adornment)] = completed.rows(ans_pred)
    return frozenset(calls), answer_facts


_STRATEGIES: dict[
    str,
    Callable[
        [Program, Atom, "Database | None", object], QueryResult
    ],
] = {
    "naive": _bottom_up("naive"),
    "seminaive": _bottom_up("seminaive"),
    "sld": _sld,
    "oldt": _oldt,
    "qsqr": _qsqr,
    "magic": _transform_strategy("magic", magic_sets),
    "supplementary": _transform_strategy("supplementary", supplementary_magic_sets),
    "alexander": _transform_strategy("alexander", alexander_templates),
}


def available_strategies() -> tuple[str, ...]:
    """The names accepted by :func:`run_strategy`, in canonical order."""
    return tuple(_STRATEGIES)


def run_strategy(
    name: str,
    program: Program,
    query: Atom,
    database: Database | None = None,
    sips: Sips | None = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
) -> QueryResult:
    """Evaluate *query* on *program* + *database* under strategy *name*.

    Args:
        sips: optional SIPS override, honoured by the transformation
            strategies only (A1 ablation).
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            bounding the evaluation; every strategy honours it.  Passing a
            running :class:`~repro.engine.budget.Checkpoint` instead makes
            several strategy runs share one wall clock (the CI bench gate
            does this to bound its whole check suite).
    """
    if name not in _STRATEGIES:
        raise ReproError(
            f"unknown strategy {name!r}; choose from {available_strategies()}"
        )
    check_goal_arity(query, program, database)
    program, database = _bridge_stored_facts(program, database)
    if sips is not None and name in ("magic", "supplementary", "alexander"):
        transform = {
            "magic": magic_sets,
            "supplementary": supplementary_magic_sets,
            "alexander": alexander_templates,
        }[name]
        return _transform_strategy(name, transform, sips)(
            program, query, database, budget,
        )
    return _STRATEGIES[name](program, query, database, budget)
