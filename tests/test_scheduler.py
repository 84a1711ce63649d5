"""Tests for SCC-scheduled fixpoint evaluation (repro.engine.scheduler).

The reference suite (tests/test_reference.py) pins the models and counts
on random programs; this file pins the scheduler's *structure*: the
schedule itself, the obs metrics, and budget prefix soundness.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analysis.dependency import DependencyGraph
from repro.analysis.stratify import stratify
from repro.core.compare import check_correspondence
from repro.core.engine import Engine
from repro.core.strategy import run_strategy
from repro.datalog.parser import parse_program, parse_query
from repro.engine.budget import EvaluationBudget
from repro.engine.counters import EvaluationStats
from repro.engine.scheduler import Component, build_schedule
from repro.engine.seminaive import seminaive_fixpoint
from repro.errors import BudgetExceededError
from repro.obs import collect
from repro.transform.alexander import alexander_templates
from repro.workloads import ancestor
from repro.workloads import programs as scenarios

STRATIFIED = parse_program(
    """
    e(a,b). e(b,c). e(c,d). n(d).
    reach(X,Y) :- e(X,Y).
    reach(X,Y) :- e(X,Z), reach(Z,Y).
    sink(X) :- n(X), not reach(X, a).
    report(X) :- sink(X).
    """
)


def _alexander_program(n=16):
    scenario = ancestor(graph="chain", n=n)
    result = run_strategy(
        "alexander", scenario.program, scenario.query(0), scenario.database
    )
    working = scenario.database.copy()
    working.add_atoms(scenario.program.facts)
    return result.transformed.evaluation_program(), working


def _facts(database):
    return {
        relation.name: relation.rows() for relation in database.relations()
    }


class TestBuildSchedule:
    def test_components_are_rule_bearing_only(self):
        schedule = build_schedule(STRATIFIED)
        for component in schedule.components:
            assert component.derived == component.predicates
            assert component.rules

    def test_every_rule_lands_in_its_head_component(self):
        schedule = build_schedule(STRATIFIED)
        scheduled = [
            rule for component in schedule.components for rule in component.rules
        ]
        assert sorted(scheduled, key=repr) == sorted(
            STRATIFIED.proper_rules, key=repr
        )
        for component in schedule.components:
            for rule in component.rules:
                assert rule.head.predicate in component.derived

    def test_dependency_order_and_recursion_flags(self):
        schedule = build_schedule(STRATIFIED)
        names = [
            tuple(sorted(component.predicates))
            for component in schedule.components
        ]
        assert names == [("reach",), ("sink",), ("report",)]
        assert [c.recursive for c in schedule.components] == [
            True,
            False,
            False,
        ]
        assert schedule.recursive_count == 1

    def test_alexander_program_shatters_into_many_components(self):
        program, _ = _alexander_program()
        schedule = build_schedule(program)
        # The transformation's point: several small components (the
        # call/continuation chain separate from the answer chain) —
        # exactly the shape component scheduling exploits.
        assert len(schedule.components) >= 2
        assert schedule.recursive_count >= 1
        assert all(
            len(component.predicates) <= 3 for component in schedule.components
        )


# --- the schedule is pinned ---------------------------------------------------
# Rule order inside a component decides enumeration order and therefore
# ``attempts``; component order decides what is materialised when.

MIXED = parse_program(
    """
    top(X,Y) :- b1(X,Y).
    odd(X) :- succ(Y,X), even(Y).
    b1(X,Y) :- x0(X,Z), b0(Z,Y).
    b0(X,Y) :- x0(X,Y).
    top(X,Y) :- e0(X,Y).
    even(X) :- zero(X).
    b0(X,Y) :- b0(X,Z), b1(Z,Y).
    x0(X,Y) :- a1(X,Y), not a0(X,Y).
    a1(X,Y) :- e1(X,Z), a1(Z,Y).
    even(X) :- succ(Y,X), odd(Y).
    a1(X,Y) :- e1(X,Y).
    a0(X,Y) :- e0(X,Z), e2(Z,Y).
    """
)


def _filtering_schedule(program):
    """The schedule as it was built before rules were grouped in one pass:
    one scan of every rule per component."""
    graph = DependencyGraph(program)
    components = []
    for scc in graph.condensation_order():
        derived = scc & program.idb_predicates
        if derived:
            rules = tuple(
                rule for rule in program.proper_rules
                if rule.head.predicate in derived
            )
            recursive = len(scc) > 1 or scc <= graph.successors[min(scc)]
            components.append(Component(scc, derived, recursive, rules))
    return tuple(components)


def _benchmark_rulebases():
    """The 13 generated rule bases of the ``cold-rulebase`` workload."""
    path = Path(__file__).resolve().parent.parent / "benchmarks/e2e/rulebases.py"
    spec = importlib.util.spec_from_file_location("e2e_rulebases", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.generate_suite(1)


def _with_transformed(program, goal):
    """*program*'s rules, and the Alexander rewriting of the goal's stratum."""
    rules = program.without_facts()
    target = next(
        stratum for stratum in stratify(rules).strata
        if goal.predicate in stratum.idb_predicates
    )
    edb = frozenset(program.predicates - target.idb_predicates)
    transformed = alexander_templates(target, goal, edb_predicates=edb)
    return [rules, transformed.evaluation_program()]


def _pinned_programs():
    programs = [MIXED, STRATIFIED]
    for base in _benchmark_rulebases():
        programs += _with_transformed(
            parse_program(base.text), parse_query(base.goal_text)
        )
    for scenario in (
        scenarios.ancestor(n=12),
        scenarios.ancestor(variant="left", n=12),
        scenarios.ancestor(variant="double", n=12),
        scenarios.nonlinear_tc(graph="cycle", n=8),
        scenarios.same_generation(depth=3),
        scenarios.unreachable(),
        scenarios.bill_of_materials(depth=3),
        scenarios.bounded_reachability(),
    ):
        programs += _with_transformed(scenario.program, scenario.query())
    programs.append(scenarios.win_game().program)  # unstratified: rules only
    return programs


class TestScheduleIsPinned:
    def test_component_and_rule_order_of_a_fixed_program(self):
        index = {rule: number for number, rule in enumerate(MIXED.rules)}
        assert [
            (sorted(c.predicates), c.recursive, [index[rule] for rule in c.rules])
            for c in build_schedule(MIXED).components
        ] == [
            (["even", "odd"], True, [1, 5, 9]),
            (["a1"], True, [8, 10]),
            (["a0"], False, [11]),
            (["x0"], False, [7]),
            (["b0", "b1"], True, [2, 3, 6]),
            (["top"], False, [0, 4]),
        ]

    def test_same_components_and_rule_order_as_per_component_filtering(self):
        programs = _pinned_programs()
        assert len(programs) == 2 + 2 * 13 + 2 * 8 + 1
        for program in programs:
            assert build_schedule(program).components == _filtering_schedule(program)

    def test_one_dependency_graph_per_program(self, monkeypatch):
        analysed = []
        construct = DependencyGraph.__init__

        def counting(graph, program):
            analysed.append(program)
            construct(graph, program)

        monkeypatch.setattr(DependencyGraph, "__init__", counting)
        base = _benchmark_rulebases()[4]
        result = Engine.from_source(base.text).query(base.goal_text)
        assert result.answers
        # One program, the lower stratum plus the rewritten goal stratum,
        # is scheduled; nothing is analysed twice, whether compared by
        # identity or by rules.
        assert len(analysed) == len(set(analysed)) == 1
        program = parse_program(base.text)
        assert program.dependency_graph is program.dependency_graph
        build_schedule(program), build_schedule(program), stratify(program)
        assert analysed.count(program) == 1


class TestSchedulerMetrics:
    def test_scc_emits_scheduler_and_seminaive_parity_metrics(self):
        program, base = _alexander_program()
        with collect() as metrics:
            seminaive_fixpoint(program, base)
        counters = metrics.counters
        histograms = metrics.histograms
        assert histograms["scheduler.components"].count == 1
        assert histograms["scheduler.recursive_components"].count == 1
        assert histograms["scheduler.component_rounds"].count >= 1
        # The global loop's obs surface stays intact under scc.
        assert counters["seminaive.runs"] == 1
        assert counters["seminaive.stamped_rounds"] >= 1
        assert histograms["seminaive.delta_rows"].count >= 1
        assert histograms["seminaive.iterations"].count == 1
        assert any(path.endswith("seminaive") for path in metrics.timers)
        assert any(path.endswith("round") for path in metrics.timers)

    def test_agenda_skips_rules_with_empty_deltas(self):
        # Two mutually recursive predicates fed by disjoint EDB: once q's
        # delta drains, its agenda bucket is skipped while p continues.
        program = parse_program(
            """
            e(a,b). e(b,c). e(c,d). e(d,e). e(e,f). f(a,b).
            p(X,Y) :- e(X,Y).
            p(X,Y) :- e(X,Z), p(Z,Y).
            q(X,Y) :- f(X,Y), p(X,Y).
            p(X,Y) :- q(X,Y).
            """
        )
        with collect() as metrics:
            seminaive_fixpoint(program)
        assert metrics.counters.get("scheduler.agenda_skipped", 0) > 0


class TestBudgetPrefixProperty:
    def test_trip_yields_sound_prefix_of_components(self):
        program, base = _alexander_program(n=24)
        full, _ = seminaive_fixpoint(program, base)
        full_facts = _facts(full)
        with pytest.raises(BudgetExceededError) as excinfo:
            seminaive_fixpoint(
                program,
                base,
                budget=EvaluationBudget(max_facts=20),
            )
        partial = excinfo.value.partial
        assert partial is not None
        partial_facts = _facts(partial)
        # Soundness: every derived fact belongs to the full model.
        for name, rows in partial_facts.items():
            assert rows <= full_facts.get(name, frozenset()), name
        # Prefix property: components before the tripped one are fully
        # closed; components after it are untouched (empty IDB).
        schedule = build_schedule(program)
        complete = [
            all(
                partial_facts.get(p, frozenset()) == full_facts.get(p, frozenset())
                for p in component.derived
            )
            for component in schedule.components
        ]
        untouched = [
            all(not partial_facts.get(p, frozenset()) for p in component.derived)
            for component in schedule.components
        ]
        tripped = complete.index(False) if False in complete else len(complete)
        assert all(complete[:tripped])
        assert all(untouched[tripped + 1 :])

    def test_one_checkpoint_spans_all_components(self):
        # The facts counter accumulates across components: a limit larger
        # than any single component's yield but smaller than the total
        # still trips.  (A per-component budget would never fire here.)
        program, base = _alexander_program(n=24)
        stats = EvaluationStats()
        full, _ = seminaive_fixpoint(program, base, stats)
        full_facts = _facts(full)
        schedule = build_schedule(program)
        per_component = [
            sum(len(full_facts.get(p, ())) for p in component.derived)
            for component in schedule.components
        ]
        limit = stats.facts_derived - 1
        assert limit > max(per_component)
        with pytest.raises(BudgetExceededError) as excinfo:
            seminaive_fixpoint(
                program,
                base,
                budget=EvaluationBudget(max_facts=limit),
            )
        assert excinfo.value.limit == "facts"


class TestPlumbing:
    def test_correspondence_is_exact(self):
        scenario = ancestor(graph="chain", n=12)
        corr = check_correspondence(
            scenario.program, scenario.query(0), scenario.database
        )
        assert corr.exact
