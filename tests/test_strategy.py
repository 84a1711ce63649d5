"""Cross-strategy agreement tests: every evaluation method must return the
same answers on the same (program, query, database) triple.

This suite is the library's backbone: the paper's comparisons are only
meaningful because all strategies are interchangeable on answers.
"""

import pytest

from repro.core.strategy import available_strategies, run_strategy
from repro.datalog.parser import parse_program, parse_query
from repro.errors import ReproError
from repro.facts.database import Database
from repro.transform.sips import most_bound_first
from repro.workloads import ancestor, bill_of_materials, same_generation, unreachable

ALL = ("naive", "seminaive", "sld", "oldt", "qsqr", "magic", "supplementary", "alexander")
# SLD diverges on cyclic data; exclude it there.
TERMINATING = tuple(s for s in ALL if s != "sld")


def answers_for(strategies, program, query, database):
    results = {}
    for name in strategies:
        results[name] = run_strategy(name, program, query, database)
    return results


def assert_agreement(results):
    reference_name, reference = next(iter(results.items()))
    for name, result in results.items():
        assert result.answer_rows == reference.answer_rows, (
            f"{name} disagrees with {reference_name}"
        )


class TestAgreementMatrix:
    @pytest.mark.parametrize(
        "query_text", ["anc(0, X)?", "anc(X, 5)?", "anc(X, Y)?", "anc(0, 5)?"]
    )
    def test_ancestor_chain(self, query_text):
        scenario = ancestor(graph="chain", n=8)
        query = parse_query(query_text)
        results = answers_for(ALL, scenario.program, query, scenario.database)
        assert_agreement(results)

    @pytest.mark.parametrize("variant", ["right", "left", "nonlinear", "double"])
    def test_ancestor_variants_on_tree(self, variant):
        scenario = ancestor(graph="tree", variant=variant, depth=3, branching=2)
        query = scenario.query(0)
        results = answers_for(
            TERMINATING, scenario.program, query, scenario.database
        )
        assert_agreement(results)

    def test_ancestor_cycle(self):
        scenario = ancestor(graph="cycle", n=7)
        results = answers_for(
            TERMINATING, scenario.program, scenario.query(0), scenario.database
        )
        assert_agreement(results)
        assert len(next(iter(results.values())).answers) == 7

    def test_same_generation(self):
        scenario = same_generation(depth=3, branching=2)
        for index in range(2):
            results = answers_for(
                TERMINATING,
                scenario.program,
                scenario.query(index),
                scenario.database,
            )
            assert_agreement(results)

    def test_stratified_negation_scenarios(self):
        for scenario in (
            unreachable(n=6, edge_probability=0.25, seed=7),
            bill_of_materials(depth=3, branching=2),
        ):
            for index in range(len(scenario.queries)):
                results = answers_for(
                    TERMINATING,
                    scenario.program,
                    scenario.query(index),
                    scenario.database,
                )
                assert_agreement(results)

    def test_mutual_recursion(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(Y) :- succ(X,Y), odd(X).
            odd(Y) :- succ(X,Y), even(X).
            """
        )
        database = Database()
        database.add("zero", (0,))
        for i in range(8):
            database.add("succ", (i, i + 1))
        results = answers_for(
            TERMINATING, program, parse_query("even(8)?"), database
        )
        assert_agreement(results)
        assert len(next(iter(results.values())).answers) == 1


class TestStrategyLayer:
    def test_available_strategies_names(self):
        assert set(available_strategies()) == set(ALL)

    def test_unknown_strategy_rejected(self, ancestor_full):
        program, database, query, _ = ancestor_full
        with pytest.raises(ReproError):
            run_strategy("wishful", program, query, database)

    def test_answers_are_instances_of_the_query(self, ancestor_full):
        program, database, query, _ = ancestor_full
        result = run_strategy("alexander", program, query, database)
        for atom in result.answers:
            assert atom.predicate == "anc"
            assert atom.args[0].value == "a"

    def test_answers_sorted_deterministically(self, ancestor_full):
        program, database, query, _ = ancestor_full
        first = run_strategy("alexander", program, query, database)
        second = run_strategy("alexander", program, query, database)
        assert [str(a) for a in first.answers] == [str(a) for a in second.answers]

    def test_edb_query_short_circuits(self, ancestor_full):
        program, database, _, _ = ancestor_full
        result = run_strategy(
            "alexander", program, parse_query("par(a, X)?"), database
        )
        assert [str(a) for a in result.answers] == ["par(a, b)"]
        assert result.stats.inferences == 0

    def test_sips_override_changes_counts_not_answers(self):
        program = parse_program(
            """
            p(X,Y) :- e(X,Z), f(Y), g(Z,Y).
            """
        )
        database = Database()
        for i in range(4):
            database.add("e", (0, i))
            database.add("f", (i,))
            database.add("g", (i, (i + 1) % 4))
        query = parse_query("p(0, Y)?")
        default = run_strategy("alexander", program, query, database)
        reordered = run_strategy(
            "alexander", program, query, database, sips=most_bound_first
        )
        assert default.answer_rows == reordered.answer_rows
        assert default.stats.inferences != reordered.stats.inferences

    def test_calls_populated_for_transform_strategies(self, ancestor_full):
        program, database, query, _ = ancestor_full
        result = run_strategy("alexander", program, query, database)
        assert result.calls
        assert all(len(entry) == 3 for entry in result.calls)

    def test_query_stats_answers_field(self, ancestor_full):
        program, database, query, _ = ancestor_full
        for name in ALL:
            result = run_strategy(name, program, query, database)
            assert result.stats.answers == len(result.answers)


class TestGoalArity:
    """A goal whose arity does not match the program is one client error,
    the same under every strategy (it used to be a prefix match under
    QSQ-R, an ``IndexError``, a rejected adornment or no answers)."""

    SOURCE = "tc(X,Y) :- edge(X,Y). edge(1,2)."

    @pytest.mark.parametrize("strategy", ALL)
    @pytest.mark.parametrize(
        "goal, arity",
        [("tc(1)?", 1), ("edge(1)?", 1), ("tc(1, 2, 3)?", 3)],
    )
    def test_mismatched_arity_is_a_repro_error(self, strategy, goal, arity):
        program = parse_program(self.SOURCE)
        with pytest.raises(ReproError, match=f"has arity {arity}, but .* has arity 2"):
            run_strategy(strategy, program, parse_query(goal))

    @pytest.mark.parametrize("strategy", ALL)
    def test_arity_known_from_the_database_only(self, strategy):
        database = Database()
        database.add("edge", (1, 2))
        program = parse_program("tc(X,Y) :- edge(X,Y).")
        with pytest.raises(ReproError, match="has arity 2"):
            run_strategy(strategy, program, parse_query("edge(1)?"), database)
        result = run_strategy(strategy, program, parse_query("edge(1, Y)?"), database)
        assert result.answer_rows == {(1, 2)}
