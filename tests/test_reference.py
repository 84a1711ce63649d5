"""Every bottom-up fixpoint checked against the one reference evaluator.

:func:`repro.engine.reference.reference_model` is the definition with
nothing optimised: naive, global T_P per stratum, interpreted matcher.
The engines schedule components, run generated kernels and a delta
discipline; none of that may change the model.  Semi-naive must also
report exactly the reference's counts: ``inferences`` is the number of
rule-body matches over the final model (each instantiation is
enumerated once) and ``facts_derived`` the number of derived rows.

Programs are seeded random ones (the generator below, shared with other
suites) and the Alexander, magic and supplementary rewritings of the
:mod:`repro.workloads` programs.
"""

import random

import pytest

from repro.analysis.stratify import stratify
from repro.core.strategy import run_strategy
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program
from repro.engine.budget import EvaluationBudget
from repro.engine.counters import EvaluationStats
from repro.engine.incremental import IncrementalEngine
from repro.engine.naive import naive_fixpoint
from repro.engine.reference import reference_model
from repro.engine.seminaive import seminaive_fixpoint
from repro.engine.stratified import stratified_fixpoint
from repro.engine.wellfounded import alternating_fixpoint
from repro.errors import BudgetExceededError
from repro.transform.alexander import alexander_templates
from repro.transform.magic import magic_sets
from repro.transform.sips import left_to_right
from repro.transform.supplementary import supplementary_magic_sets
from repro.workloads import programs as scenarios

SEEDS = list(range(8))

CONSTANTS = [f"c{i}" for i in range(5)]
VARS = ["X", "Y", "Z"]
EDB = ["e0", "e1"]
IDB = ["p0", "p1"]


def random_source(seed: int, negation: bool = True) -> str:
    """A safe, stratified random program with embedded facts.

    Negation (when enabled) only ever targets EDB predicates, so the
    program is always stratifiable and the well-founded model is total.
    """
    rng = random.Random(seed)
    lines = []
    for predicate in EDB:
        for _ in range(rng.randint(4, 10)):
            args = rng.choices(CONSTANTS, k=2)
            lines.append(f"{predicate}({args[0]}, {args[1]}).")
    for _ in range(rng.randint(3, 6)):
        head_pred = rng.choice(IDB)
        body = []
        bound = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(EDB + IDB if body else EDB)
            args = [
                rng.choice(VARS)
                if rng.random() < 0.8
                else rng.choice(CONSTANTS)
                for _ in range(2)
            ]
            body.append(f"{pred}({args[0]}, {args[1]})")
            bound.extend(arg for arg in args if arg in VARS)
        if negation and bound and rng.random() < 0.4:
            args = rng.choices(bound + CONSTANTS[:1], k=2)
            body.append(f"not {rng.choice(EDB)}({args[0]}, {args[1]})")
        if bound and rng.random() < 0.3:
            left, right = rng.choice(bound), rng.choice(bound + CONSTANTS[:1])
            body.append(f"{left} != {right}")
        head_args = rng.choices(bound if bound else CONSTANTS, k=2)
        lines.append(f"{head_pred}({head_args[0]}, {head_args[1]}) :- "
                     f"{', '.join(body)}.")
    return "\n".join(lines)


def _facts(database) -> dict[str, frozenset]:
    """Non-empty relations by name (engines may pre-create empty ones)."""
    return {
        relation.name: relation.rows()
        for relation in database.relations()
        if len(relation)
    }


def _assert_matches(fixpoint, program, database=None, counts=True):
    stats = EvaluationStats()
    model, _ = fixpoint(program, database, stats)
    reference = reference_model(program, database)
    assert _facts(model) == _facts(reference.model), fixpoint.__name__
    if counts:
        assert (stats.inferences, stats.facts_derived) == (
            reference.inferences, reference.facts_derived
        ), fixpoint.__name__
    return model


# --- seeded random programs ---------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_naive_matches_reference(seed):
    # Naive rounds re-enumerate, so only the model is comparable.
    _assert_matches(naive_fixpoint, parse_program(random_source(seed)), counts=False)


@pytest.mark.parametrize("seed", SEEDS)
def test_seminaive_matches_reference(seed):
    _assert_matches(seminaive_fixpoint, parse_program(random_source(seed)))


@pytest.mark.parametrize("seed", SEEDS)
def test_stratified_matches_reference(seed):
    _assert_matches(stratified_fixpoint, parse_program(random_source(seed)))


@pytest.mark.parametrize("seed", SEEDS)
def test_wellfounded_matches_reference(seed):
    # The random programs are stratified: the well-founded model is the
    # stratified one, with nothing undefined.
    program = parse_program(random_source(seed))
    model = alternating_fixpoint(program)
    assert _facts(model.true) == _facts(reference_model(program).model)
    assert model.undefined == frozenset()


@pytest.mark.parametrize("seed", SEEDS)
def test_wellfounded_counts_match_reference(seed):
    # Negation only reads EDB relations, so every Γ call closes to the
    # reference model and adds each derived row once.  The alternation
    # stops after two rounds (four Γ calls), or after one when nothing
    # is derived; Γ's naive-style rounds make ``inferences`` incomparable.
    program = parse_program(random_source(seed))
    model = alternating_fixpoint(program)
    reference = reference_model(program)
    assert model.stats.facts_derived == 4 * reference.facts_derived


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_matches_reference(seed):
    program = parse_program(random_source(seed, negation=False))
    insertions = [f"e0({a}, {b})" for a in CONSTANTS[:3] for b in CONSTANTS[:3]]
    engine = IncrementalEngine(program)
    for atom in insertions:
        engine.add(atom)
    grown = Program(
        program.rules
        + parse_program("".join(f"{atom}.\n" for atom in insertions)).rules
    )
    assert _facts(engine.database) == _facts(reference_model(grown).model)
    assert engine._program == program.without_facts()


# --- rewritings of the workload programs -----------------------------------------

WORKLOADS = {
    "ancestor-right": lambda: scenarios.ancestor(n=8),
    "ancestor-left-cycle": lambda: scenarios.ancestor(graph="cycle", variant="left", n=6),
    "ancestor-double": lambda: scenarios.ancestor(variant="double", n=6),
    "nonlinear-tc": lambda: scenarios.nonlinear_tc(graph="cycle", n=5),
    "same-generation": lambda: scenarios.same_generation(depth=3),
    "unreachable": lambda: scenarios.unreachable(),
    "bill-of-materials": lambda: scenarios.bill_of_materials(depth=3),
    "bounded-reachability": lambda: scenarios.bounded_reachability(),
}
REWRITINGS = {
    "alexander": alexander_templates,
    "magic": magic_sets,
    "supplementary": supplementary_magic_sets,
}


def _rewritten(scenario, query, rewrite):
    """The rewritten stratum of *query* and the base it runs over: the
    lower strata's reference model (as the strategies evaluate it)."""
    strata = stratify(scenario.program).strata
    index = next(
        i for i, stratum in enumerate(strata)
        if query.predicate in stratum.idb_predicates
    )
    lower = Program(tuple(rule for stratum in strata[:index] for rule in stratum.rules))
    base = reference_model(lower, scenario.database).model
    target = strata[index]
    edb = frozenset(
        (scenario.program.predicates | base.predicates()) - target.idb_predicates
    )
    return rewrite(target, query, left_to_right, edb), base


@pytest.mark.parametrize("strategy", sorted(REWRITINGS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rewritings_match_reference(workload, strategy):
    scenario = WORKLOADS[workload]()
    plain = reference_model(scenario.program, scenario.database).model
    for query in scenario.queries:
        transformed, base = _rewritten(scenario, query, REWRITINGS[strategy])
        model = _assert_matches(
            seminaive_fixpoint, transformed.evaluation_program(), base
        )
        expected = sorted(atom.ground_key() for atom in plain.match(query))
        got = sorted(atom.ground_key() for atom in model.match(transformed.goal))
        assert got == expected, str(query)
        served = run_strategy(strategy, scenario.program, query, scenario.database)
        assert sorted(served.answer_rows) == expected, str(query)


def test_reference_counts_one_match_per_instantiation():
    # p(a,c) has two derivations: both are inferences, one row is derived.
    program = parse_program(
        "e(a, b). e(b, c). e(a, d). e(d, c).\n"
        "p(X, Z) :- e(X, Y), e(Y, Z).\n"
    )
    reference = reference_model(program)
    assert reference.model.rows("p") == {("a", "c")}
    assert (reference.inferences, reference.facts_derived) == (2, 1)
    assert reference_model(program, reference.model).facts_derived == 0


# --- budget trips ----------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize(
    "budget_kwargs",
    [
        {"max_facts": 5},
        {"max_iterations": 2},
        {"max_attempts": 40},
        {"wall_clock_seconds": 1e-9},
    ],
    ids=lambda kwargs: next(iter(kwargs)),
)
def test_budget_trip_is_sound(seed, budget_kwargs):
    """A tripped run yields a partial database ⊆ the reference model."""
    program = parse_program(random_source(seed))
    full_facts = _facts(reference_model(program).model)
    for fixpoint in (seminaive_fixpoint, stratified_fixpoint):
        try:
            fixpoint(program, budget=EvaluationBudget(**budget_kwargs))
        except BudgetExceededError as error:
            assert error.partial is not None
            for name, rows in _facts(error.partial).items():
                assert rows <= full_facts.get(name, frozenset()), name
        # Small seeds may finish inside a generous limit — completing is
        # a legitimate outcome for every limit except the ~zero clock.
        else:
            assert "wall_clock_seconds" not in budget_kwargs
