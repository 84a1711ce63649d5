"""The cold path's components are the combined program's, in a dependency order.

A transform-strategy query runs one fixpoint over the lower strata's
rules and the rewritten goal stratum.  It takes the lower strata's
components from the condensation of the source rules that ``stratify``
read, and condenses only the rewritten stratum anew.  That must give
exactly the components — predicates, recursive flags and rules in
order — that ``build_schedule`` finds in the combined program, each
after every component it reads.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.stratify import stratify
from repro.core import strategy
from repro.core.engine import Engine
from repro.datalog.rules import Program
from repro.engine.scheduler import build_schedule

from .test_fuzz_programs import databases, programs
from .test_staged_identity import CASES, goals, upper_rules


def cold_components(monkeypatch, program, goal, database):
    """The components the cold path runs, and its query result."""
    seen = []
    run_schedule = strategy.run_schedule

    def recording(components, *args):
        seen.append(list(components))
        return run_schedule(components, *args)

    monkeypatch.setattr(strategy, "run_schedule", recording)
    result = Engine(program, database).query(goal)
    monkeypatch.undo()
    (components,) = seen
    return components, result


def combined_program(program, goal, transformed) -> Program:
    """The lower strata's rules and the rewritten stratum, as one program."""
    strata = stratify(program.without_facts()).strata
    index = next(i for i, s in enumerate(strata) if goal.predicate in s.idb_predicates)
    lower = tuple(rule for stratum in strata[:index] for rule in stratum.rules)
    return Program(lower + transformed.evaluation_program().rules)


def assert_dependency_order(components) -> None:
    placed = {}
    for index, component in enumerate(components):
        for predicate in component.predicates:
            placed[predicate] = index
    for index, component in enumerate(components):
        for rule in component.rules:
            for literal in rule.body:
                assert placed.get(literal.predicate, -1) <= index, (literal, component)


def assert_same_schedule(monkeypatch, program, goal, database) -> None:
    components, result = cold_components(monkeypatch, program, goal, database)
    combined = build_schedule(combined_program(program, goal, result.transformed))
    assert Counter(components) == Counter(combined.components)
    assert_dependency_order(components)


@pytest.mark.parametrize("scenario, goal", CASES, ids=[f"{s.name}:{g}" for s, g in CASES])
def test_workload_scenarios(monkeypatch, scenario, goal):
    assert_same_schedule(monkeypatch, scenario.program, goal, scenario.database)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(programs(), upper_rules(), databases(), goals())
def test_random_stratified_programs_with_negation(monkeypatch, lower, upper, database, goal):
    program = Program(lower.rules + tuple(upper))
    assert len(stratify(program).strata) >= 2
    assert_same_schedule(monkeypatch, program, goal, database)


def test_a_misordered_schedule_fails_the_check():
    # The order check is not vacuous: reversing a real schedule breaks it.
    scenario, goal = next((s, g) for s, g in CASES if s.name.startswith("unreachable"))
    components = list(build_schedule(scenario.program.without_facts()).components)
    assert len(components) >= 2
    with pytest.raises(AssertionError):
        assert_dependency_order(components[::-1])
