"""`Database.match` — the index-probed answer extraction — against the
scan-and-``match_atom`` idiom it replaced.

The scan is kept here as the reference: every stored fact of the
pattern's predicate, filtered by one-way matching.  The probe must yield
the same atoms in the same (enumeration) order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import match_atom
from repro.facts.database import Database


def scan_and_match(database, pattern):
    return [
        atom
        for atom in database.atoms(pattern.predicate)
        if match_atom(pattern, atom) is not None
    ]


# A small domain so constants repeat across columns and rows; "zz" and 99
# are never stored, 1/True/1.0 collide as dict keys.
STORED = st.sampled_from(["a", "b", "c", 0, 1, 2, True, 1.0])
NEVER_STORED = st.sampled_from(["zz", 99])
VARIABLES = st.sampled_from([Variable("X"), Variable("Y"), Variable("Z")])
TERMS = st.one_of(
    STORED.map(Constant), NEVER_STORED.map(Constant), VARIABLES, VARIABLES
)


@st.composite
def relation_and_patterns(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*[STORED] * arity)
    rows = draw(st.lists(row, max_size=12))
    removed = draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    pattern_arity = st.sampled_from([arity, arity, arity, arity + 1])
    patterns = draw(
        st.lists(
            pattern_arity.flatmap(
                lambda n: st.tuples(*[TERMS] * n).map(lambda args: Atom("p", args))
            ),
            min_size=1,
            max_size=6,
        )
    )
    return arity, rows, removed, patterns


def build(arity, rows, removed):
    database = Database()
    database.relation("p", arity)
    for row in rows:
        database.add_atom(Atom("p", tuple(Constant(value) for value in row)))
    for row in removed:
        database.relation("p").discard(row)
    return database


@settings(max_examples=150, deadline=None)
@given(relation_and_patterns())
def test_match_equals_scan_and_match(case):
    arity, rows, removed, patterns = case
    database = build(arity, rows, removed)
    for pattern in patterns:
        # Twice: the first probe builds the column index, the second
        # reads the one kept up to date since.
        assert list(database.match(pattern)) == scan_and_match(
            database, pattern
        ), pattern
        assert list(database.match(pattern)) == scan_and_match(
            database, pattern
        ), pattern


@settings(max_examples=60, deadline=None)
@given(relation_and_patterns(), st.lists(st.tuples(STORED, STORED), max_size=6))
def test_probed_indexes_follow_later_mutations(case, later):
    """An index built by one match is maintained by add/discard after it."""
    arity, rows, removed, patterns = case
    database = build(arity, rows, removed)
    for pattern in patterns:
        list(database.match(pattern))  # materialise the probed indexes
    relation = database.relation("p")
    for index, values in enumerate(later):
        row = (values * arity)[:arity]
        if index % 2:
            relation.discard(row)
        else:
            database.add_atom(Atom("p", tuple(map(Constant, row))))
    for pattern in patterns:
        assert list(database.match(pattern)) == scan_and_match(
            database, pattern
        ), pattern


def test_unknown_predicate_and_arity_mismatch_yield_nothing():
    database = Database()
    database.add_atom(Atom("p", (Constant("a"), Constant("b"))))
    assert list(database.match(Atom("q", (Variable("X"),)))) == []
    assert list(database.match(Atom("p", (Variable("X"),)))) == []
    assert list(database.match(Atom("p", (Constant("a"),)))) == []


def test_repeated_variable_is_checked_per_hit():
    database = Database()
    for left, right in [("a", "a"), ("a", "b"), ("b", "b")]:
        database.add_atom(Atom("p", (Constant(left), Constant(right))))
    same = Atom("p", (Variable("X"), Variable("X")))
    assert [str(atom) for atom in database.match(same)] == [
        "p(a, a)", "p(b, b)"
    ]
