"""The one source loader (``repro.facts.io.load_source``) and the arity
check every load entry point makes with it."""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.cli import main
from repro.core.strategy import available_strategies
from repro.datalog.parser import parse_program, parse_source
from repro.errors import ParseError, ProgramError, ReproError
from repro.facts import Database, load_facts, load_source
from repro.serve.service import QueryService

# --- the loader equals parse_program + add_atoms --------------------------------

ARITIES = {"p": 2, "q": 1, "r": 0, "anc": 2}
CONSTANTS = [
    "a", "b", "c_1", "zed", "0", "7", "-3", "42",
    '"x y"', '"q\\"uote"', '"back\\\\slash"', '"a\\nb"', '"a"', '"7"',
]
RULES = [
    "anc(X, Y) :- p(X, Y).",
    "anc(X, Y) :- p(X, Z), anc(Z, Y).",
    "q(X) :- anc(X, Y), not r.",
    "q(X) :- p(X, Y), X != Y.",
    "r :- q(a).",
    "q(Y) :- anc(_, Y).",
]
SEPARATORS = [" ", "\n", "\n  ", "\t", " % a comment, with (tokens).\n", "\n# p(a, b).\n"]


@st.composite
def facts(draw):
    predicate = draw(st.sampled_from(sorted(ARITIES)))
    arity = ARITIES[predicate]
    if not arity:
        return f"{predicate}."
    args = draw(st.lists(st.sampled_from(CONSTANTS), min_size=arity, max_size=arity))
    return f"{predicate}({', '.join(args)})."


@st.composite
def sources(draw):
    statements = draw(
        st.lists(st.one_of(facts(), facts(), st.sampled_from(RULES)), max_size=14)
    )
    text = ""
    for statement in statements:
        text += draw(st.sampled_from(SEPARATORS)) + statement
    return text


def reference(text):
    """The path every load entry point took before the loader."""
    program = parse_program(text)
    database = Database()
    database.add_atoms(program.facts)
    return program.without_facts(), database


def layout(database):
    """Relations and rows, in their stored order."""
    return [(rel.name, rel.arity, list(rel)) for rel in database.relations()]


def failure(call, text):
    try:
        call(text)
    except (ReproError, ValueError) as error:
        return type(error), str(error), getattr(error, "line", None), getattr(error, "column", None)
    return None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sources())
def test_loader_equals_parse_program_plus_add_atoms(text):
    rules, database = load_source(text)
    expected_rules, expected_database = reference(text)
    assert rules == expected_rules
    assert layout(database) == layout(expected_database)
    goal = "anc(X, Y)?"
    if "not" not in text:  # a cycle through negation refuses on both paths
        loaded = Engine.from_source(text).query(goal)
        staged = Engine(parse_program(text)).query(goal)
        assert loaded.answers == staged.answers
        assert loaded.stats == staged.stats


MUTATIONS = ["(", ")", ",", ".", ":-", '"', "?", "X", "_", "1", "\n", "%", "not ", "!", "²"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sources(), st.integers(min_value=0), st.sampled_from(MUTATIONS), st.booleans())
def test_malformed_text_fails_the_same_way(text, where, junk, truncate):
    where %= len(text) + 1
    text = text[:where] if truncate else text[:where] + junk + text[where:]
    expected = failure(reference, text)
    got = failure(load_source, text)
    if expected is not None and expected[0] is not ValueError:
        assert got == expected
    elif got is not None:
        # The one new refusal: one predicate used with two arities.
        assert got[0] is ProgramError and "used with arities" in got[1]
        assert _arity_clash(parse_program(text))
    else:
        assert load_source(text)[0] == reference(text)[0]


def _arity_clash(program):
    seen = {}
    for rule in program:
        for atom in (rule.head, *(literal.atom for literal in rule.body)):
            if seen.setdefault(atom.predicate, atom.arity) != atom.arity:
                return True
    return False


def test_rows_keep_text_order_and_the_first_of_duplicates():
    _, database = load_source('p(b, 1). p(a, -2). r. p(b, 1). r. q("b").')
    assert layout(database) == [
        ("p", 2, [("b", 1), ("a", -2)]),
        ("r", 0, [()]),
        ("q", 1, [("b",)]),
    ]


def test_a_statement_that_is_not_a_ground_fact_stays_a_rule():
    rules, rows = parse_source("p(a) :- q(a). s(X) :- p(X). p(a). t. u(X).")
    assert [str(rule) for rule in rules] == ["p(a) :- q(a).", "s(X) :- p(X).", "u(X)."]
    assert rows == {"p": [("a",)], "t": [()]}


@pytest.mark.parametrize("text", ["not(a).", "P(a).", '"p"(a).', "p(a)?", "p(a", "p(a,)."])
def test_a_malformed_fact_fails_in_the_rule_production(text):
    with pytest.raises(ParseError) as expected:
        parse_program(text)
    with pytest.raises(ParseError) as got:
        parse_source(text)
    assert str(got.value) == str(expected.value)


def test_a_non_ground_fact_is_refused_as_before():
    with pytest.raises(ProgramError, match="non-ground head"):
        load_source("p(X).")
    with pytest.raises(ProgramError, match="non-ground head"):
        load_facts(io.StringIO("p(X)."))


def test_extending_appends_rules_and_rows():
    program, database = load_source("p(a, b). q(X) :- p(X, Y).")
    program, database = load_source("p(c, d). r :- q(c).", program, database)
    assert [str(rule) for rule in program] == ["q(X) :- p(X, Y).", "r :- q(c)."]
    assert layout(database) == [("p", 2, [("a", "b"), ("c", "d")])]


# --- one arity per predicate, at every load entry point ---------------------------

CLASHES = [
    ("p(a, b). q(X) :- p(X).", "p", 1, 2),
    ("p(a). q(X) :- p(X, Y).", "p", 2, 1),
    ("p(a). p(a, b).", "p", 1, 2),
    ("q(X) :- p(X). r(X) :- p(X, X).", "p", 1, 2),
]


def _message(predicate, first, second):
    return f"predicate {predicate} used with arities {first} and {second}"


@pytest.mark.parametrize("text, predicate, first, second", CLASHES)
def test_from_source_refuses_a_clash(text, predicate, first, second):
    with pytest.raises(ProgramError) as caught:
        Engine.from_source(text)
    assert str(caught.value) == _message(predicate, first, second)


@pytest.mark.parametrize("strategy", available_strategies())
def test_no_strategy_answers_over_a_clashing_database(strategy):
    # At the parent, alexander and seminaive answered q(a) and oldt ().
    database = Database()
    database.add("p", ("a", "b"))
    with pytest.raises(ProgramError, match=_message("p", 1, 2)):
        Engine(parse_program("q(X) :- p(X)."), database).query("q(X)?", strategy=strategy)
    with pytest.raises(ProgramError, match=_message("p", 1, 2)):
        Engine.from_source("p(a, b). q(X) :- p(X).").query("q(X)?", strategy=strategy)


def test_an_engine_refuses_embedded_facts_that_clash():
    program = parse_program("p(a). p(a, b). q(X) :- p(X).")
    with pytest.raises(ProgramError, match=_message("p", 1, 2)):
        Engine(program)


@pytest.mark.parametrize("text, predicate, first, second", CLASHES)
def test_a_fresh_service_load_refuses_a_clash(text, predicate, first, second):
    service = QueryService()
    with pytest.raises(ProgramError) as caught:
        service.load("d", text)
    assert str(caught.value) == _message(predicate, first, second)
    with pytest.raises(ProgramError, match=_message("p", 1, 2)):
        service.load("d", "q(X) :- p(X).", "p(a, b).")
    assert service.datasets() == []


def test_an_extending_service_load_refuses_a_clash_and_keeps_the_dataset():
    service = QueryService()
    service.load("d", "q(X) :- p(X).", "p(a).")
    before = service.query("d", "q(X)?")["answers"]
    with pytest.raises(ProgramError, match=_message("p", 1, 2)):
        service.load("d", facts_text="p(a, b).", extend=True)
    with pytest.raises(ProgramError, match=_message("p", 1, 2)):
        service.load("d", "r(X) :- p(X, X).", extend=True)
    assert service.query("d", "q(X)?")["answers"] == before


def test_load_facts_refuses_a_clash_and_inserts_nothing():
    database = Database()
    database.add("p", ("a",))
    with pytest.raises(ProgramError, match=_message("p", 1, 2)):
        load_facts(io.StringIO("q(z). p(a, b)."), into=database)
    assert layout(database) == [("p", 1, [("a",)])]
    with pytest.raises(ProgramError, match=_message("p", 1, 2)):
        load_facts(io.StringIO("p(a). p(a, b)."))


def test_the_cli_prints_error_and_exits_2(tmp_path, capsys):
    rules = tmp_path / "rules.dl"
    rules.write_text("p(a, b).\nq(X) :- p(X).\n")
    assert main(["query", str(rules), "q(X)?"]) == 2
    assert capsys.readouterr().err == f"error: {_message('p', 1, 2)}\n"
    rules.write_text("q(X) :- p(X).\n")
    facts_file = tmp_path / "facts.dl"
    facts_file.write_text("p(a, b).\n")
    assert main(["query", str(rules), "q(X)?", "--facts", str(facts_file)]) == 2
    assert capsys.readouterr().err == f"error: {_message('p', 1, 2)}\n"
