"""Tests for the completed-call table of a prepared transform shape
(:class:`repro.core.prepare.CallTable`).

The contract: whether ``PreparedQuery.execute`` evaluates a goal or
finds it in the table, the caller cannot tell from the result — answers,
their order, every counter, ``.calls`` and ``.answer_facts`` equal a
fresh :meth:`repro.core.engine.Engine.query` of the same goal.  A fresh
evaluation is the only oracle used here.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core import prepare as prepare_module
from repro.core.engine import Engine
from repro.core.prepare import TRANSFORM_STRATEGIES, CallTable, prepare_query
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.terms import Constant, Variable
from repro.engine.budget import EvaluationBudget
from repro.engine.counters import EvaluationStats
from repro.errors import BudgetExceededError, ReproError
from repro.facts.database import Database
from repro.obs import collect

STRATEGIES = sorted(TRANSFORM_STRATEGIES)

SCENARIOS = (
    workloads.ancestor(graph="chain", variant="right", n=8),
    workloads.ancestor(graph="cycle", variant="left", n=6),
    workloads.nonlinear_tc(graph="chain", n=7),
    workloads.same_generation(depth=3),
    workloads.bill_of_materials(depth=3),
)


def _constants(scenario) -> list:
    """The goal constants to draw from: every value of the database,
    plus one no fact mentions (a goal with no answers)."""
    database = scenario.database
    values = {
        value
        for predicate in database.predicates()
        for row in database.rows(predicate)
        for value in row
    }
    return sorted(values, key=repr) + [987654]


def _rebound(template: Atom, value, names) -> Atom:
    """*template* with its constants replaced by *value* and its
    variables renamed through *names*."""
    fresh = iter(names)
    return Atom(
        template.predicate,
        tuple(
            Constant(value) if isinstance(arg, Constant)
            else Variable(next(fresh))
            for arg in template.args
        ),
    )


def assert_same_as_fresh(result, fresh, prepared):
    """A direct query also pays for the strata below the goal's, which a
    shape materialises once (``prepare_stats``): the two add up."""
    assert result.answers == fresh.answers  # a tuple: order included
    whole = prepared.prepare_stats.copy().merge(result.stats)
    assert whole.as_dict() == fresh.stats.as_dict()
    assert result.calls == fresh.calls
    assert result.answer_facts == fresh.answer_facts
    assert result.strategy == fresh.strategy
    assert result.query == fresh.query
    assert result.transformed is not None


ANCESTOR_SOURCE = """
par(1, 2). par(2, 3). par(3, 4). par(4, 5). par(5, 6).
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
"""
ANCESTOR = parse_program(ANCESTOR_SOURCE)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario=st.sampled_from(SCENARIOS),
    strategy=st.sampled_from(STRATEGIES),
    draws=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(["X", "Y", "Who"])),
        min_size=2, max_size=8,
    ),
)
def test_every_execution_equals_a_fresh_query(scenario, strategy, draws):
    """Random goal sequences with repeats, hit or miss alike."""
    engine = Engine(scenario.program, scenario.database)
    template = scenario.query(0)
    prepared = engine.prepare(template, strategy=strategy)
    constants = _constants(scenario)
    seen = set()
    for index, name in draws:
        value = constants[index * 7 % len(constants)]
        goal = _rebound(template, value, [name, name + "2"])
        result = prepared.execute(goal)
        assert result.table_hit == (value in seen)
        seen.add(value)
        assert_same_as_fresh(
            result, engine.query(goal, strategy=strategy), prepared
        )
    assert prepared.table.size()[0] == len(seen)


def test_mutating_returned_stats_does_not_leak_into_the_next_hit():
    prepared = prepare_query(ANCESTOR, "anc(2, X)?")
    expected = prepared.execute().stats.as_dict()
    for _ in range(3):  # the miss's own record, then two hits' copies
        result = prepared.execute()
        assert result.stats.as_dict() == expected
        result.stats.inferences += 1000
        result.stats.answers = -1


class TestVariantKeying:
    def test_renamed_variables_share_an_entry(self):
        prepared = prepare_query(ANCESTOR, "anc(5, X)?")
        first = prepared.execute("anc(5, X)?")
        second = prepared.execute("anc(5, Y)?")
        assert (first.table_hit, second.table_hit) == (False, True)
        assert prepared.table.size()[0] == 1
        assert second.query == parse_query("anc(5, Y)?")
        assert second.answers == first.answers

    def test_different_constants_are_different_calls(self):
        prepared = prepare_query(ANCESTOR, "anc(5, X)?")
        prepared.execute("anc(5, X)?")
        assert not prepared.execute("anc(4, X)?").table_hit
        assert prepared.table.size()[0] == 2

    def test_repeated_variables_are_not_a_renaming(self):
        program = parse_program(
            "e(1, 1). e(1, 2). e(2, 2). e(2, 1). p(X, Y) :- e(X, Y)."
        )
        engine = Engine(program)
        prepared = engine.prepare("p(X, Y)?")
        for text in ("p(X, X)?", "p(X, Y)?", "p(A, A)?", "p(B, A)?"):
            assert_same_as_fresh(
                prepared.execute(text), engine.query(text), prepared
            )
        assert prepared.table.size()[0] == 2
        assert CallTable.key(parse_query("p(X, X)?")) != CallTable.key(
            parse_query("p(X, Y)?")
        )

    def test_other_modes_keep_no_table(self):
        prepared = prepare_query(ANCESTOR, "anc(1, X)?", strategy="seminaive")
        assert not prepared.execute().table_hit
        assert not prepared.execute().table_hit
        assert prepared.table.size() == (0, 0)


class TestBudgets:
    BUDGET = dict(max_attempts=6)

    def _trip(self, prepared):
        with pytest.raises(BudgetExceededError) as trip:
            prepared.execute(budget=EvaluationBudget(**self.BUDGET))
        return trip.value

    def test_a_tripped_run_stores_nothing(self):
        prepared = prepare_query(ANCESTOR, "anc(1, X)?")
        self._trip(prepared)
        assert prepared.table.size() == (0, 0)
        assert not prepared.execute().table_hit

    def test_a_budgeted_run_after_a_stored_hit_still_trips_the_same(self):
        cold = self._trip(prepare_query(ANCESTOR, "anc(1, X)?"))
        prepared = prepare_query(ANCESTOR, "anc(1, X)?")
        prepared.execute()
        assert prepared.execute().table_hit
        warm = self._trip(prepared)
        assert warm.limit == cold.limit
        assert warm.stats.as_dict() == cold.stats.as_dict()
        assert prepared.partial_answers(warm.partial) == (
            prepared.partial_answers(cold.partial)
        )

    def test_a_budgeted_run_that_completes_fills_the_table(self):
        prepared = prepare_query(ANCESTOR, "anc(1, X)?")
        roomy = prepared.execute(budget=EvaluationBudget(max_attempts=10**6))
        assert not roomy.table_hit
        assert prepared.execute().table_hit
        # ... and with a budget it evaluates again instead of reading it.
        assert not prepared.execute(
            budget=EvaluationBudget(max_attempts=10**6)
        ).table_hit


class TestEviction:
    def test_rows_stay_bounded_over_ten_thousand_distinct_goals(
        self, monkeypatch
    ):
        bound = 200
        monkeypatch.setattr(prepare_module, "CALL_TABLE_MAX_ROWS", bound)
        scenario = workloads.ancestor(graph="chain", variant="right", n=40)
        engine = Engine(scenario.program, scenario.database)
        prepared = engine.prepare("anc(0, X)?")
        with collect() as metrics:
            for k in range(10_000):  # 0..39 have answers, the rest none
                prepared.execute(f"anc({k}, X)?")
                entries, rows = prepared.table.size()
                assert rows + entries <= bound
            counters = dict(metrics.counters)
        entries, rows = prepared.table.size()
        assert entries == bound and rows == 0  # the last 200, all empty
        assert counters["prepare.table_misses"] == 10_000
        assert counters["prepare.table_evictions"] == 10_000 - bound
        assert counters.get("prepare.table_hits", 0) == 0
        # An evicted goal is evaluated again, and correctly.
        evicted = prepared.execute("anc(3, X)?")
        assert not evicted.table_hit
        assert_same_as_fresh(evicted, engine.query("anc(3, X)?"), prepared)
        assert prepared.execute("anc(3, X)?").table_hit

    def test_least_recently_used_goes_first(self, monkeypatch):
        prepared = prepare_query(ANCESTOR, "anc(1, X)?")
        # anc(4, X) has 2 answers, anc(5, X) 1, anc(6, X) none.
        monkeypatch.setattr(prepare_module, "CALL_TABLE_MAX_ROWS", 5)
        prepared.execute("anc(4, X)?")  # 2 rows + 1 entry
        prepared.execute("anc(5, X)?")  # 1 row + 1 entry: 5 in all
        assert prepared.execute("anc(4, X)?").table_hit  # 5 is now oldest
        prepared.execute("anc(6, X)?")  # 1 entry more: evicts anc(5, X)
        assert prepared.table.size() == (2, 2)
        assert prepared.execute("anc(4, X)?").table_hit
        assert not prepared.execute("anc(5, X)?").table_hit

    def test_an_answer_set_larger_than_the_table_is_not_stored(
        self, monkeypatch
    ):
        monkeypatch.setattr(prepare_module, "CALL_TABLE_MAX_ROWS", 3)
        prepared = prepare_query(ANCESTOR, "anc(1, X)?")
        prepared.execute("anc(6, X)?")
        assert len(prepared.execute("anc(1, X)?").answers) == 5
        assert prepared.table.size() == (1, 0)  # anc(6, X) survived


def test_eight_threads_one_shape_overlapping_goals():
    scenario = workloads.nonlinear_tc(graph="chain", n=10)
    engine = Engine(scenario.program, scenario.database)
    template = scenario.query(0)
    prepared = engine.prepare(template)
    goals = [_rebound(template, k, ["X"]) for k in range(10)]
    oracle = {goal: engine.query(goal) for goal in goals}
    failures: list = []

    def client(offset: int) -> None:
        try:
            for step in range(60):
                goal = goals[(offset + step * (offset + 1)) % len(goals)]
                result, fresh = prepared.execute(goal), oracle[goal]
                assert result.answers == fresh.answers
                assert result.stats.as_dict() == fresh.stats.as_dict()
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    entries, rows = prepared.table.size()
    assert entries == len(goals)
    assert rows == sum(len(fresh.answers) for fresh in oracle.values())


class TestPatch:
    def test_patchable_is_the_base_predicates_the_stratum_reads(self):
        program = parse_program(
            "p(1, 2). q(2). r(2, 3).\n"
            "low(X) :- q(X).\n"
            "top(X, Y) :- p(X, Z), not low(Z), r(Z, Y).\n"
            "top(X, Y) :- p(X, Y), lt(X, Y)."
        )
        for strategy in STRATEGIES:
            shape = prepare_query(program, "top(1, X)?", strategy=strategy)
            # low is materialised into the base: not a base predicate.
            assert shape.patchable == frozenset({"p", "r"})
        shape = prepare_query(program, "top(1, X)?", strategy="seminaive")
        assert shape.patchable is None
        with pytest.raises(ReproError, match="cannot be patched"):
            shape.patch(Database(), {})

    def test_a_run_a_patch_overtook_does_not_store(self):
        table = CallTable()
        started = table.generation
        assert table.invalidate({"par": [(1, 2)]}) == (0, 0)
        table.put((1, 0), ((2,),), ("anc(1, 2)",), EvaluationStats(), {}, started)
        assert table.size() == (0, 0)
        table.put(
            (1, 0), ((2,),), ("anc(1, 2)",), EvaluationStats(), {}, table.generation
        )
        assert table.size() == (1, 1)

    def test_a_kept_entry_equals_a_fresh_preparation(self):
        prepared = prepare_query(ANCESTOR, "anc(1, X)?")
        for k in (1, 4):
            prepared.execute(f"anc({k}, X)?")
        patched = parse_program(ANCESTOR_SOURCE + "par(3, 9).")
        database = Database.from_program(patched)
        # anc(4, X) probed par(4, _), par(5, _), par(6, _): kept.
        assert prepared.patch(database, {"par": [(3, 9)]}) == (1, 1)
        fresh = prepare_query(patched, "anc(1, X)?")
        for k in (1, 4):
            result = prepared.execute(f"anc({k}, X)?")
            assert result.table_hit == (k == 4)
            expected = fresh.execute(f"anc({k}, X)?")
            assert result.answers == expected.answers
            assert result.stats.as_dict() == expected.stats.as_dict()

