"""``Engine.query`` equals the staged Alexander pipeline, count for count.

The end-to-end benchmark's traced run replays each query stage by stage
through the library's public calls: ``stratify`` → ``stratified_fixpoint``
over the strata below the goal's → ``adorn_program`` (left-to-right SIPS)
→ ``alexander_transform_adorned`` → ``compile_fixpoint`` →
``run_fixpoint`` with the goal's call fact as ``extra_facts``.  It refuses
an op whose staged answers or inferences differ from the one call's.
This pins the same identity here, on every stratified workload scenario
with two strata or more and on random stratified programs with negation:
the same answers and the same ``inferences``, ``attempts``,
``facts_derived`` and ``iterations``.  A ``query`` that derives less
(say, only the lower-strata predicates the goal reaches) fails it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.stratify import stratify
from repro.core.engine import Engine
from repro.datalog.atoms import Atom, Literal
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import match_atom
from repro.engine.counters import EvaluationStats
from repro.engine.prepared import compile_fixpoint, run_fixpoint
from repro.engine.stratified import stratified_fixpoint
from repro.errors import StratificationError
from repro.facts.database import Database
from repro.transform.adorn import adorn_program
from repro.transform.alexander import alexander_transform_adorned
from repro.transform.sips import left_to_right
from repro.workloads import programs as scenarios

from .test_fuzz_programs import CONSTANTS, VARS, databases, programs

COUNTS = ("inferences", "attempts", "facts_derived", "iterations")


def staged(program: Program, goal: Atom, database: "Database | None"):
    """The goal's answer rows and counters, stage by stage."""
    working = database.copy() if database is not None else Database()
    working.add_atoms(program.facts)
    strata = stratify(program.without_facts()).strata
    index = next(i for i, s in enumerate(strata) if goal.predicate in s.idb_predicates)
    lower = Program(tuple(rule for stratum in strata[:index] for rule in stratum.rules))
    stats = EvaluationStats()
    if lower.proper_rules:
        working, _ = stratified_fixpoint(lower, working, stats)
    target = strata[index]
    edb = frozenset((program.predicates | working.predicates()) - target.idb_predicates)
    transformed = alexander_transform_adorned(
        adorn_program(target, goal, left_to_right, edb)
    )
    fixpoint = compile_fixpoint(transformed.program, working)
    bound = tuple(arg for arg in goal.args if isinstance(arg, Constant))
    seeds = tuple(Atom(seed.predicate, bound) for seed in transformed.seeds)
    completed, _ = run_fixpoint(fixpoint, working, stats=stats, extra_facts=seeds)
    pattern = Atom(transformed.goal.predicate, goal.args)
    rows = {
        atom.ground_key()
        for atom in completed.atoms(pattern.predicate)
        if match_atom(pattern, atom) is not None
    }
    return rows, stats


def assert_identity(program: Program, goal: Atom, database: "Database | None") -> None:
    result = Engine(program, database).query(goal)
    rows, stats = staged(program, goal, database)
    assert result.answer_rows == rows, (str(program), goal)
    for name in COUNTS:
        assert getattr(result.stats, name) == getattr(stats, name), (name, str(program), goal)


def _stratified_scenarios():
    built = [
        scenarios.ancestor(n=10),
        scenarios.same_generation(depth=3),
        scenarios.nonlinear_tc(n=8),
        scenarios.unreachable(n=10, edge_probability=0.25),
        scenarios.bill_of_materials(depth=3),
        scenarios.bounded_reachability(n=10),
        scenarios.win_game(n=6),
    ]
    for scenario in built:
        try:
            strata = stratify(scenario.program.without_facts()).strata
        except StratificationError:
            continue
        if len(strata) >= 2:
            yield from ((scenario, goal) for goal in scenario.queries)


CASES = list(_stratified_scenarios())


def test_the_scenarios_cover_the_stratified_workloads():
    # unreachable (reachability, then its negation) and bill of materials.
    assert len({scenario.name for scenario, _ in CASES}) >= 2


@pytest.mark.parametrize(
    "scenario, goal", CASES, ids=[f"{s.name}:{g}" for s, g in CASES]
)
def test_workload_scenarios(scenario, goal):
    assert_identity(scenario.program, goal, scenario.database)


PAIRS = [(x, y) for x in VARS for y in VARS]


# Random stratified programs: a negation-free lower layer over p0/p1 (the
# fuzz suite's programs and databases), and q0 one stratum up, reading
# that layer and itself and negating at least one of p0/p1.
@st.composite
def upper_rules(draw):
    head = Atom("q0", (VARS[0], VARS[1]))
    rules = []
    for index in range(draw(st.integers(1, 3))):
        readable = ["e0", "e1", "p0", "p1"] + (["q0"] if index else [])
        body = [
            Literal(Atom(draw(st.sampled_from(readable)), draw(st.sampled_from(PAIRS))))
            for _ in range(draw(st.integers(1, 2)))
        ]
        bound = {var for literal in body for var in literal.variables()}
        body += [Literal(Atom("e0", (var, var))) for var in VARS[:2] if var not in bound]
        if index == 0 or draw(st.booleans()):
            negated = draw(st.sampled_from(["p0", "p1"]))
            args = (draw(st.sampled_from(VARS[:2])), draw(st.sampled_from(VARS[:2])))
            body.append(Literal(Atom(negated, args), positive=False))
        rules.append(Rule(head, tuple(body)))
    return rules


@st.composite
def goals(draw):
    args = tuple(
        Constant(draw(st.sampled_from(CONSTANTS))) if draw(st.booleans()) else Variable(f"Q{i}")
        for i in range(2)
    )
    return Atom("q0", args)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(), upper_rules(), databases(), goals())
def test_random_stratified_programs_with_negation(lower, upper, database, goal):
    program = Program(lower.rules + tuple(upper))
    assert len(stratify(program).strata) >= 2
    assert_identity(program, goal, database)
