"""Fuzzing with randomly generated *programs* (not just databases).

Hypothesis builds small, safe, negation-free Datalog programs with random
recursion structure, random databases, and random queries; every strategy
must agree on the answers and the Alexander/OLDT correspondence must hold.
This is the widest net in the suite: it regularly exercises mutual
recursion, multiple adornments, zero-binding queries, and rules whose
bodies mention the same predicate twice.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compare import check_correspondence
from repro.core.strategy import run_strategy
from repro.datalog.atoms import Atom, Literal
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable
from repro.facts.database import Database

VARS = [Variable(name) for name in ("X", "Y", "Z")]
IDB = ["p0", "p1"]
EDB = ["e0", "e1"]
CONSTANTS = list(range(4))


DISTINCT_PAIRS = [
    (VARS[0], VARS[1]),
    (VARS[1], VARS[0]),
    (VARS[0], VARS[2]),
    (VARS[2], VARS[0]),
    (VARS[1], VARS[2]),
    (VARS[2], VARS[1]),
]


@st.composite
def rules(draw, rectified=False):
    """One safe rule: head variables are forced into the body.

    Args:
        rectified: restrict body literals to distinct-variable argument
            pairs.  Repeated variables inside a call (``p(Y, Y)``) create
            variant call patterns that positional adornments cannot
            express, so the *exact* Alexander/OLDT call correspondence is
            only claimed for rectified programs (the classical
            rectification condition); answers agree either way.
    """
    head_pred = draw(st.sampled_from(IDB))
    head_vars = (VARS[0], VARS[1])
    body = []
    for _ in range(draw(st.integers(1, 3))):
        predicate = draw(st.sampled_from(IDB + EDB))
        if rectified:
            args = draw(st.sampled_from(DISTINCT_PAIRS))
        else:
            args = tuple(
                draw(st.sampled_from(VARS)) for _ in range(2)
            )
        body.append(Literal(Atom(predicate, args)))
    body_vars = {v for lit in body for v in lit.variables()}
    # Guarantee range restriction: bind any missing head variable via an
    # extra EDB literal.
    missing = [v for v in head_vars if v not in body_vars]
    if missing:
        body.append(Literal(Atom(EDB[0], (head_vars[0], head_vars[1]))))
    return Rule(Atom(head_pred, head_vars), tuple(body))


@st.composite
def programs(draw, rectified=False):
    rule_list = draw(
        st.lists(rules(rectified=rectified), min_size=1, max_size=5)
    )
    # Ensure the query predicate p0 is defined.
    if not any(rule.head.predicate == "p0" for rule in rule_list):
        rule_list.append(
            Rule(
                Atom("p0", (VARS[0], VARS[1])),
                (Literal(Atom(EDB[0], (VARS[0], VARS[1]))),),
            )
        )
    return Program(rule_list)


@st.composite
def databases(draw):
    database = Database()
    for predicate in EDB:
        database.relation(predicate, 2)
        for _ in range(draw(st.integers(0, 6))):
            row = (
                draw(st.sampled_from(CONSTANTS)),
                draw(st.sampled_from(CONSTANTS)),
            )
            database.add(predicate, row)
    return database


@st.composite
def queries(draw):
    shape = draw(st.sampled_from(["bf", "ff", "bb"]))
    first = (
        Constant(draw(st.sampled_from(CONSTANTS)))
        if shape[0] == "b"
        else Variable("Q1")
    )
    second = (
        Constant(draw(st.sampled_from(CONSTANTS)))
        if shape[1] == "b"
        else Variable("Q2")
    )
    return Atom("p0", (first, second))


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(programs(), databases(), queries())
def test_all_strategies_agree_on_random_programs(program, database, query):
    reference = None
    for name in ("seminaive", "oldt", "qsqr", "magic", "supplementary", "alexander"):
        result = run_strategy(name, program, query, database)
        if reference is None:
            reference = result.answer_rows
        else:
            assert result.answer_rows == reference, (name, str(program))


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(programs(rectified=True), databases(), queries())
def test_exact_correspondence_on_rectified_programs(program, database, query):
    correspondence = check_correspondence(program, query, database)
    assert correspondence.exact, (correspondence.summary(), str(program))


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(programs(), databases(), queries())
def test_answers_agree_even_with_repeated_variables(program, database, query):
    # Unrectified programs may contain calls like p(Y, Y); OLDT tables
    # them as a finer variant pattern than any positional adornment, so
    # the call (and per-adornment answer) sets can legitimately differ —
    # but the answers to the query itself never do.
    correspondence = check_correspondence(program, query, database)
    assert (
        correspondence.alexander_result.answer_rows
        == correspondence.oldt_result.answer_rows
    ), (correspondence.summary(), str(program))


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(programs(), databases(), queries())
def test_optimizer_preserves_answers_on_random_programs(
    program, database, query
):
    from repro.transform.alexander import alexander_templates
    from repro.transform.optimize import optimize_program
    from repro.engine.seminaive import seminaive_fixpoint

    transformed = alexander_templates(program, query)
    plain_db, _ = seminaive_fixpoint(
        transformed.evaluation_program(), database
    )
    optimized = optimize_program(
        transformed.evaluation_program(), transformed.goal
    )
    optimized_db, _ = seminaive_fixpoint(optimized, database)
    goal = transformed.goal.predicate
    assert plain_db.rows(goal) == optimized_db.rows(goal), str(program)


@settings(max_examples=100, deadline=None)
@given(programs(), databases(), queries())
def test_printed_programs_reparse_identically(program, database, query):
    # The printer and the scanner are inverses on everything the library
    # itself prints: rules, the facts of a database, a query.
    from repro.datalog.parser import parse_program, parse_query

    assert parse_program(str(program)) == program
    facts = Program(Rule(atom) for atom in database.all_atoms())
    assert parse_program(str(facts)) == facts
    assert parse_query(f"{query}?") == query
