"""Tests for prepared queries (repro.core.prepare + repro.engine.prepared).

The contract under test: preparing once and executing many times is
indistinguishable from running the full pipeline per query — identical
answers for every strategy, identical counters on the
default configuration — while the execute path does zero transform /
plan / compile work.
"""

import pytest

from repro.core.engine import Engine
from repro.core.prepare import (
    MATERIALISED_STRATEGIES,
    TRANSFORM_STRATEGIES,
    UNPREPARABLE_STRATEGIES,
    prepare_query,
    prepared_cache_key,
    program_fingerprint,
)
from repro.core.strategy import available_strategies, run_strategy
from repro.datalog.parser import parse_program, parse_query
from repro.engine.budget import EvaluationBudget
from repro.engine.prepared import compile_fixpoint, run_fixpoint
from repro.errors import (
    BudgetExceededError,
    ReproError,
    UnpreparableStrategyError,
)
from repro.obs import collect

ANCESTOR = """
edge(a, b). edge(b, c). edge(c, d). edge(d, e).
anc(X, Y) :- edge(X, Y).
anc(X, Y) :- edge(X, Z), anc(Z, Y).
"""

NEGATION = """
link(a, b). link(b, c). link(c, a). link(a, d).
node(a). node(b). node(c). node(d). node(e).
reach(X) :- link(a, X).
reach(X) :- reach(Y), link(Y, X).
unreached(X) :- node(X), not reach(X).
"""

PREPARABLE = sorted(TRANSFORM_STRATEGIES | MATERIALISED_STRATEGIES)


@pytest.fixture
def ancestor_program():
    return parse_program(ANCESTOR)


class TestCompiledFixpoint:
    """The engine-level compile/run split underneath prepared queries."""

    def test_run_matches_one_shot_seminaive(self, ancestor_program):
        from repro.engine.seminaive import seminaive_fixpoint

        direct_db, direct_stats = seminaive_fixpoint(ancestor_program)
        compiled = compile_fixpoint(ancestor_program)
        run_db, run_stats = run_fixpoint(compiled)
        assert run_db == direct_db
        assert run_stats.inferences == direct_stats.inferences
        assert run_stats.facts_derived == direct_stats.facts_derived

    def test_repeated_runs_are_independent(self, ancestor_program):
        compiled = compile_fixpoint(ancestor_program)
        first_db, first = run_fixpoint(compiled)
        second_db, second = run_fixpoint(compiled)
        assert first_db == second_db
        assert first.inferences == second.inferences

    def test_extra_facts_equal_embedded_seeds(self):
        rules = parse_program("anc(X, Y) :- edge(X, Y).")
        seed = parse_query("edge(a, b)")
        with_seed = parse_program("edge(a, b). anc(X, Y) :- edge(X, Y).")
        embedded_db, _ = run_fixpoint(compile_fixpoint(with_seed))
        injected_db, _ = run_fixpoint(
            compile_fixpoint(rules), extra_facts=[seed]
        )
        assert embedded_db == injected_db

    def test_budget_trips_with_sound_partial(self, ancestor_program):
        compiled = compile_fixpoint(ancestor_program)
        full_db, _ = run_fixpoint(compiled)
        with pytest.raises(BudgetExceededError) as trip:
            run_fixpoint(compiled, budget=EvaluationBudget(max_facts=2))
        partial = trip.value.partial
        assert partial is not None
        assert partial.rows("anc") <= full_db.rows("anc")


class TestPrepareExecuteParity:
    @pytest.mark.parametrize("strategy", PREPARABLE)
    def test_answers_match_direct(self, ancestor_program, strategy):
        goal = parse_query("anc(a, X)?")
        direct = run_strategy(strategy, ancestor_program, goal)
        prepared = prepare_query(ancestor_program, goal, strategy=strategy)
        result = prepared.execute(goal)
        assert result.answers == direct.answers
        assert result.strategy == direct.strategy
        assert result.calls == direct.calls
        assert result.answer_facts == direct.answer_facts

    @pytest.mark.parametrize("strategy", sorted(TRANSFORM_STRATEGIES))
    def test_transform_counters_match_direct(self, ancestor_program, strategy):
        goal = parse_query("anc(a, X)?")
        direct = run_strategy(strategy, ancestor_program, goal)
        result = prepare_query(
            ancestor_program, goal, strategy=strategy
        ).execute(goal)
        assert result.stats.inferences == direct.stats.inferences
        assert result.stats.facts_derived == direct.stats.facts_derived

    @pytest.mark.parametrize("strategy", PREPARABLE)
    def test_rebinding_constants_matches_direct(self, ancestor_program, strategy):
        prepared = prepare_query(
            ancestor_program, "anc(a, X)?", strategy=strategy
        )
        for constant in ("a", "b", "c", "d", "e"):
            goal = parse_query(f"anc({constant}, X)?")
            direct = run_strategy(strategy, ancestor_program, goal)
            assert prepared.execute(goal).answers == direct.answers

    @pytest.mark.parametrize("strategy", sorted(TRANSFORM_STRATEGIES))
    def test_stratified_negation(self, strategy):
        program = parse_program(NEGATION)
        goal = parse_query("unreached(X)?")
        direct = run_strategy(strategy, program, goal)
        prepared = prepare_query(program, goal, strategy=strategy)
        assert prepared.mode == "transform"
        assert prepared.execute().answers == direct.answers

    def test_edb_goal_is_materialised_lookup(self, ancestor_program):
        goal = parse_query("edge(a, X)?")
        prepared = prepare_query(ancestor_program, goal, strategy="alexander")
        assert prepared.mode == "materialised"
        direct = run_strategy("alexander", ancestor_program, goal)
        assert prepared.execute().answers == direct.answers

    def test_materialised_mode_serves_any_goal_shape(self, ancestor_program):
        prepared = prepare_query(
            ancestor_program, "anc(a, X)?", strategy="seminaive"
        )
        assert prepared.mode == "materialised"
        # Different adornment entirely — fine for a materialised model.
        open_goal = parse_query("anc(X, Y)?")
        direct = run_strategy("seminaive", ancestor_program, open_goal)
        assert prepared.execute(open_goal).answers == direct.answers

    def test_materialised_mode_serves_any_predicate(self, ancestor_program):
        # The cache key for materialised strategies is */* — every goal
        # on the program shares one entry — so the shape must accept
        # goals over *other* predicates too, answering them by lookup.
        prepared = prepare_query(
            ancestor_program, "anc(a, X)?", strategy="seminaive"
        )
        other = parse_query("edge(a, X)?")
        assert prepared.compatible(other)
        direct = run_strategy("seminaive", ancestor_program, other)
        assert prepared.execute(other).answers == direct.answers


class TestExecuteDoesNoPipelineWork:
    def test_pipeline_counters_flat_across_executions(self, ancestor_program):
        with collect() as metrics:
            prepared = prepare_query(
                ancestor_program, "anc(a, X)?", strategy="alexander"
            )
            after_prepare = dict(metrics.counters)
            prepared.execute("anc(b, X)?")
            prepared.execute("anc(c, X)?")
            after_execute = dict(metrics.counters)
        for counter in (
            "transform.rewritings",
            "prepare.builds",
            "prepare.fixpoints_compiled",
            "kernel.rules_compiled",
        ):
            assert after_execute.get(counter, 0) == after_prepare.get(counter, 0)
        assert after_execute["prepare.executions"] == 2

    def test_transform_observed_once_per_rewriting(self, ancestor_program):
        with collect() as metrics:
            run_strategy(
                "alexander", ancestor_program, parse_query("anc(a, X)?")
            )
            assert metrics.counters["transform.rewritings"] == 1
            assert metrics.counters["transform.alexander"] == 1


class TestCompatibilityAndErrors:
    @pytest.mark.parametrize("strategy", sorted(UNPREPARABLE_STRATEGIES))
    def test_top_down_strategies_unpreparable(self, ancestor_program, strategy):
        with pytest.raises(UnpreparableStrategyError):
            prepare_query(ancestor_program, "anc(a, X)?", strategy=strategy)
        assert strategy in available_strategies()

    def test_unknown_strategy_rejected(self, ancestor_program):
        with pytest.raises(ReproError, match="unknown strategy"):
            prepare_query(ancestor_program, "anc(a, X)?", strategy="nope")

    def test_wrong_predicate_rejected(self, ancestor_program):
        prepared = prepare_query(ancestor_program, "anc(a, X)?")
        with pytest.raises(ReproError, match="does not fit"):
            prepared.execute("edge(a, X)?")

    def test_wrong_adornment_rejected(self, ancestor_program):
        prepared = prepare_query(ancestor_program, "anc(a, X)?")
        assert not prepared.compatible(parse_query("anc(X, Y)?"))
        with pytest.raises(ReproError, match="does not fit"):
            prepared.execute("anc(X, Y)?")

    @pytest.mark.parametrize("strategy", ["alexander", "magic", "seminaive"])
    def test_prepare_rejects_a_mismatched_arity(self, ancestor_program, strategy):
        with pytest.raises(ReproError, match="has arity 1, but anc has arity 2"):
            prepare_query(ancestor_program, "anc(a)?", strategy=strategy)

    @pytest.mark.parametrize("maintain", [None, "dred"])
    def test_whole_model_shapes_reject_a_mismatched_arity(self, maintain):
        # Materialised and maintained shapes answer every goal from one
        # shape, so execute() checks the goal, not prepare_query().
        program = parse_program("tc(X,Y) :- edge(X,Y). edge(1,2).")
        prepared = prepare_query(
            program, "tc(1, X)?", strategy="seminaive", maintain=maintain
        )
        for goal in ("tc(1)?", "edge(1)?", "tc(1, 2, 3)?"):
            with pytest.raises(ReproError, match="has arity"):
                prepared.execute(goal)
        assert [str(a) for a in prepared.execute("edge(1, X)?").answers] == [
            "edge(1, 2)"
        ]

    def test_budget_trip_yields_sound_partial_answers(self, ancestor_program):
        prepared = prepare_query(ancestor_program, "anc(a, X)?")
        full = set(prepared.execute().answers)
        with pytest.raises(BudgetExceededError) as trip:
            prepared.execute(budget=EvaluationBudget(max_attempts=2))
        partial = prepared.partial_answers(trip.value.partial)
        assert set(partial) <= full


class TestCacheKey:
    def test_same_shape_shares_a_key(self, ancestor_program):
        key_a = prepared_cache_key(
            ancestor_program, parse_query("anc(a, X)?"), "alexander"
        )
        key_b = prepared_cache_key(
            ancestor_program, parse_query("anc(b, X)?"), "alexander"
        )
        assert key_a == key_b

    def test_different_adornment_differs(self, ancestor_program):
        bound = prepared_cache_key(
            ancestor_program, parse_query("anc(a, X)?"), "alexander"
        )
        free = prepared_cache_key(
            ancestor_program, parse_query("anc(X, Y)?"), "alexander"
        )
        assert bound != free

    def test_config_axes_differ(self, ancestor_program):
        goal = parse_query("anc(a, X)?")
        base = prepared_cache_key(ancestor_program, goal, "alexander")
        assert base != prepared_cache_key(ancestor_program, goal, "magic")
        assert base != prepared_cache_key(
            ancestor_program, goal, "alexander", sips="most_bound_first"
        )
        assert base != prepared_cache_key(
            ancestor_program, goal, "alexander", maintain="dred"
        )

    def test_materialised_strategies_ignore_the_goal(self, ancestor_program):
        key_bound = prepared_cache_key(
            ancestor_program, parse_query("anc(a, X)?"), "seminaive"
        )
        key_open = prepared_cache_key(
            ancestor_program, parse_query("anc(X, Y)?"), "seminaive"
        )
        assert key_bound == key_open

    def test_program_fingerprint_tracks_rules(self, ancestor_program):
        assert program_fingerprint(ancestor_program) == program_fingerprint(
            parse_program(ANCESTOR)
        )
        assert program_fingerprint(ancestor_program) != program_fingerprint(
            parse_program(ANCESTOR + "\nanc(X, X) :- edge(X, Y).")
        )


class TestEnginePrepare:
    def test_engine_prepare_matches_engine_query(self):
        engine = Engine(parse_program(ANCESTOR))
        direct = engine.query("anc(a, X)?")
        prepared = engine.prepare("anc(a, X)?")
        assert prepared.execute().answers == direct.answers

    def test_engine_prepare_snapshots_the_database(self):
        engine = Engine(parse_program(ANCESTOR))
        prepared = engine.prepare("anc(a, X)?")
        before = prepared.execute().answers
        engine.add_fact("edge(e, f)")
        assert prepared.execute().answers == before
        assert len(engine.query("anc(a, X)?").answers) == len(before) + 1
