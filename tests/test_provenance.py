"""Tests for provenance tracking and proof-tree reconstruction.

Proofs are read off the round stamps of one semi-naive run, so every
proof is checked against the reference evaluator
(:func:`repro.engine.reference.reference_model`): each internal node is an
instance of its rule over facts of the reference model, each leaf is an
input fact or a true built-in, and no fact repeats on a root-to-leaf path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.datalog.atoms import Atom, Literal
from repro.datalog.builtins import evaluate_builtin, is_builtin
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.matching import compile_rule
from repro.engine.provenance import format_proof, traced_fixpoint
from repro.engine.reference import reference_model
from repro.engine.stratified import stratified_fixpoint
from repro.errors import StratificationError
from repro.facts.database import Database

ANCESTOR = """
    par(a,b). par(b,c). par(c,d).
    anc(X,Y) :- par(X,Y).
    anc(X,Y) :- par(X,Z), anc(Z,Y).
"""


class TestTracedFixpoint:
    def test_same_facts_as_untraced_evaluation(self):
        program = parse_program(ANCESTOR)
        traced = traced_fixpoint(program)
        plain, _ = stratified_fixpoint(program)
        assert traced.database.rows("anc") == plain.rows("anc")

    def test_edb_fact_has_leaf_proof(self):
        traced = traced_fixpoint(parse_program(ANCESTOR))
        proof = traced.proof(parse_query("par(a, b)"))
        assert proof is not None and proof.is_leaf

    def test_base_case_proof(self):
        traced = traced_fixpoint(parse_program(ANCESTOR))
        proof = traced.proof(parse_query("anc(a, b)"))
        assert proof.rule is not None
        assert len(proof.children) == 1
        assert proof.children[0].fact == ("par", ("a", "b"))

    def test_recursive_proof_depth(self):
        traced = traced_fixpoint(parse_program(ANCESTOR))
        proof = traced.proof(parse_query("anc(a, d)"))
        # anc(a,d) <- par(a,b), anc(b,d) <- par(b,c), anc(c,d) <- par(c,d)
        assert proof.depth() == 4
        assert proof.size() == 6

    def test_underivable_fact_has_no_proof(self):
        traced = traced_fixpoint(parse_program(ANCESTOR))
        assert traced.proof(parse_query("anc(d, a)")) is None

    def test_proofs_are_well_founded(self):
        # Cyclic data: the first derivation of each fact must not loop.
        program = parse_program(
            """
            par(a,b). par(b,a).
            anc(X,Y) :- par(X,Y).
            anc(X,Y) :- par(X,Z), anc(Z,Y).
            """
        )
        traced = traced_fixpoint(program)
        for atom in traced.database.atoms("anc"):
            proof = traced.proof(atom)
            assert proof is not None
            assert proof.depth() <= 10  # finite, small

    def test_every_derived_fact_has_a_derivation(self):
        program = parse_program(ANCESTOR)
        traced = traced_fixpoint(program)
        for atom in traced.database.atoms("anc"):
            assert traced.derivation_of(atom) is not None

    def test_negation_recorded_as_naf_leaf(self):
        program = parse_program(
            """
            person(ann). person(bob). smoker(bob).
            healthy(X) :- person(X), not smoker(X).
            """
        )
        traced = traced_fixpoint(program)
        proof = traced.proof(parse_query("healthy(ann)"))
        assert proof.negative == (("smoker", ("ann",)),)

    def test_stratified_proof_spans_strata(self):
        program = parse_program(
            """
            e(a,b).
            node(a). node(b).
            r(X,Y) :- e(X,Y).
            unreach(X,Y) :- node(X), node(Y), not r(X,Y).
            """
        )
        traced = traced_fixpoint(program)
        proof = traced.proof(parse_query("unreach(b, a)"))
        assert proof is not None
        assert ("r", ("b", "a")) in proof.negative


class TestFormatProof:
    def test_rendering_structure(self):
        traced = traced_fixpoint(parse_program(ANCESTOR))
        text = format_proof(traced.proof(parse_query("anc(a, c)")))
        lines = text.splitlines()
        assert lines[0].startswith("anc(a, c)")
        assert "[rule:" in lines[0]
        assert any("[fact]" in line for line in lines)
        # Indentation deepens.
        assert lines[1].startswith("  ")

    def test_naf_rendered_as_absent(self):
        program = parse_program(
            """
            person(ann). smoker(bob). person(bob).
            healthy(X) :- person(X), not smoker(X).
            """
        )
        traced = traced_fixpoint(program)
        text = format_proof(traced.proof(parse_query("healthy(ann)")))
        assert "not smoker(ann)   [absent]" in text


class TestEngineWhy:
    def test_why_returns_tree(self):
        engine = Engine.from_source(ANCESTOR)
        text = engine.why("anc(a, d)")
        assert "par(c, d)" in text

    def test_why_not_derivable(self):
        engine = Engine.from_source(ANCESTOR)
        assert "not derivable" in engine.why("anc(d, a)")

    def test_why_rejects_open_goal(self):
        engine = Engine.from_source(ANCESTOR)
        with pytest.raises(ValueError):
            engine.why("anc(a, X)?")


# --- proofs checked against the reference model -------------------------------
def _bind(atom: Atom, fact, binding: dict) -> None:
    predicate, row = fact
    assert (atom.predicate, len(atom.args)) == (predicate, len(row))
    for arg, value in zip(atom.args, row):
        if isinstance(arg, Constant):
            assert arg.value == value
        else:
            assert binding.setdefault(arg, value) == value


def _holds(fact, model: Database) -> bool:
    predicate, row = fact
    if is_builtin(predicate):
        return evaluate_builtin(predicate, row)
    return predicate in model and row in model.relation(predicate)


def check_proof(node, model: Database, asserted: set, path: frozenset = frozenset()) -> None:
    """*node* is a valid, well-founded proof over the reference *model*."""
    assert node.fact not in path, f"{node.fact} repeats on its own proof path"
    assert _holds(node.fact, model)
    if node.is_leaf:
        assert node.fact in asserted or is_builtin(node.fact[0])
        assert node.children == [] and node.negative == ()
        return
    binding: dict = {}
    _bind(node.rule.head, node.fact, binding)
    children = iter(node.children)
    negatives = iter(node.negative)
    for literal in compile_rule(node.rule).body:  # Derivation's body order
        if literal.positive:
            _bind(literal.source.atom, next(children).fact, binding)
        else:
            fact = next(negatives)
            _bind(literal.source.atom, fact, binding)
            assert not _holds(fact, model), f"negated {fact} holds"
    assert next(children, None) is None and next(negatives, None) is None
    for child in node.children:
        check_proof(child, model, asserted, path | {node.fact})


def asserted_facts(program: Program, database: Database | None = None) -> set:
    facts = {(atom.predicate, atom.ground_key()) for atom in program.facts}
    if database is not None:
        facts |= {(atom.predicate, atom.ground_key()) for atom in database.all_atoms()}
    return facts


def check_all_proofs(program: Program, database: Database | None = None):
    reference = reference_model(program, database)
    traced = traced_fixpoint(program, database)
    assert traced.database == reference.model
    assert traced.stats.inferences == reference.inferences
    assert traced.stats.facts_derived == reference.facts_derived
    asserted = asserted_facts(program, database)
    for atom in reference.model.all_atoms():
        proof = traced.proof(atom)
        assert proof is not None, atom
        check_proof(proof, reference.model, asserted)
        fact = (atom.predicate, atom.ground_key())
        assert proof.is_leaf == (fact in asserted)
    return traced


# Random stratified programs: p0/p1 recurse (linearly, non-linearly and
# mutually) over e0/e1; p2 may also negate them, one stratum up.  The
# databases may assert IDB facts, which must stay leaves.
VARS = [Variable(name) for name in ("X", "Y", "Z")]
CONSTANTS = list(range(4))


@st.composite
def rules(draw):
    head = draw(st.sampled_from(["p0", "p1", "p2"]))
    # IDB predicates weigh double: recursion over cyclic data is the point.
    readable = ["e0", "e1", "p0", "p1", "p0", "p1"] + (["p2"] if head == "p2" else [])
    body = []
    for _ in range(draw(st.integers(1, 3))):
        args = (draw(st.sampled_from(VARS)), draw(st.sampled_from(VARS)))
        body.append(Literal(Atom(draw(st.sampled_from(readable)), args)))
    bound = sorted({var for literal in body for var in literal.variables()}, key=str)
    body += [Literal(Atom("e0", (var, VARS[0]))) for var in VARS[:2] if var not in bound]
    bound = sorted(set(bound) | set(VARS[:2]), key=str)
    if draw(st.booleans()):
        negated = draw(st.sampled_from(["e0", "e1"] + (["p0", "p1"] if head == "p2" else [])))
        args = (draw(st.sampled_from(bound)), draw(st.sampled_from(bound)))
        body.append(Literal(Atom(negated, args), positive=False))
    if draw(st.booleans()):
        builtin = draw(st.sampled_from(["neq", "lt", "leq"]))
        args = (draw(st.sampled_from(bound)), draw(st.sampled_from(bound)))
        body.append(Literal(Atom(builtin, args)))
    return Rule(Atom(head, (VARS[0], VARS[1])), tuple(body))


@st.composite
def databases(draw):
    database = Database()
    for predicate, most in (("e0", 8), ("e1", 6), ("p0", 2)):
        database.relation(predicate, 2)
        for _ in range(draw(st.integers(0, most))):
            row = (draw(st.sampled_from(CONSTANTS)), draw(st.sampled_from(CONSTANTS)))
            database.add(predicate, row)
    return database


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(rules(), min_size=1, max_size=5), databases())
def test_models_counts_and_proofs_match_the_reference(rule_list, database):
    check_all_proofs(Program(rule_list), database)


class TestStampCutoff:
    def test_mutual_recursion_across_a_two_predicate_component(self):
        program = parse_program(
            """
            zero(0). succ(0,1). succ(1,2). succ(2,3). succ(3,4). succ(4,5). succ(5,6).
            even(Y) :- odd(X), succ(X, Y).
            odd(Y) :- even(X), succ(X, Y).
            even(X) :- zero(X).
            """
        )
        traced = check_all_proofs(program)
        proof = traced.proof(parse_query("even(6)"))
        assert proof.depth() == 8
        node, names = proof, []
        while not node.is_leaf:
            names.append(node.fact[0])
            node = node.children[0]
        assert names == ["even", "odd"] * 3 + ["even"]

    def test_nonlinear_closure_on_a_cycle_takes_the_earliest_round(self):
        # The recursive rule comes first: read without the stamp cutoff,
        # t(a, b) would "derive" itself from t(a, b), t(b, b).
        program = parse_program(
            """
            e(a,b). e(b,c). e(c,a).
            t(X,Y) :- t(X,Z), t(Z,Y).
            t(X,Y) :- e(X,Y).
            """
        )
        traced = check_all_proofs(program)
        order = {"a": 0, "b": 1, "c": 2}
        for atom in traced.database.atoms("t"):
            source, target = (order[arg.value] for arg in atom.args)
            path_length = (target - source) % 3 or 3
            # A path of length L is first derived in round ceil(log2 L).
            expected = {1: 2, 2: 3, 3: 4}[path_length]
            assert traced.proof(atom).depth() == expected, atom

    def test_negation_reads_a_completed_lower_stratum(self):
        program = parse_program(
            """
            node(a). node(b). node(c). e(a,b). e(b,c).
            r(X,Y) :- e(X,Y).
            r(X,Y) :- r(X,Z), e(Z,Y).
            unreach(X,Y) :- node(X), node(Y), not r(X,Y).
            """
        )
        traced = check_all_proofs(program)
        proof = traced.proof(parse_query("unreach(c, a)"))
        assert proof.negative == (("r", ("c", "a")),)
        assert traced.proof(parse_query("unreach(a, c)")) is None

    def test_an_asserted_idb_fact_stays_a_leaf(self):
        program = parse_program(ANCESTOR + "anc(a, c).")
        database = Database()
        database.add("anc", ("b", "d"))
        traced = check_all_proofs(program, database)
        for goal in ("anc(a, c)", "anc(b, d)"):
            atom = parse_query(goal)
            assert traced.proof(atom).is_leaf
            assert traced.derivation_of(atom) is None
        assert traced.proof(parse_query("anc(a, d)")).rule is not None

    def test_a_non_stratifiable_program_is_refused(self):
        program = parse_program("move(a,b). move(b,a). win(X) :- move(X,Y), not win(Y).")
        with pytest.raises(StratificationError):
            traced_fixpoint(program)

    def test_proofs_hold_on_the_stratified_workloads(self):
        from repro.workloads import programs as scenarios

        for scenario in (
            scenarios.ancestor(n=8),
            scenarios.same_generation(),
            scenarios.nonlinear_tc(n=8),
            scenarios.unreachable(),
            scenarios.bill_of_materials(),
            scenarios.bounded_reachability(),
        ):
            check_all_proofs(scenario.program, scenario.database)
