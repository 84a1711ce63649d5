"""Tests for the Alexander/OLDT correspondence checker — the paper's
Theorem 1 run as an executable property over the workload suite."""

import pytest

from repro.core.compare import check_correspondence
from repro.core.prepare import prepare_query
from repro.core.strategy import _transform_call_summary, run_strategy
from repro.datalog.parser import parse_program, parse_query
from repro.engine.seminaive import seminaive_fixpoint
from repro.facts.database import Database
from repro.workloads import ancestor, same_generation


class TestCorrespondenceExactness:
    @pytest.mark.parametrize(
        "graph, params",
        [
            ("chain", {"n": 10}),
            ("cycle", {"n": 8}),
            ("tree", {"depth": 3, "branching": 2}),
            ("random", {"n": 9, "edge_probability": 0.25, "seed": 3}),
            ("grid", {"width": 3, "height": 3}),
        ],
    )
    def test_ancestor_bound_query(self, graph, params):
        scenario = ancestor(graph=graph, **params)
        correspondence = check_correspondence(
            scenario.program, scenario.query(0), scenario.database
        )
        assert correspondence.exact, correspondence.summary()

    @pytest.mark.parametrize("variant", ["right", "left", "nonlinear", "double"])
    def test_ancestor_variants(self, variant):
        scenario = ancestor(graph="chain", variant=variant, n=8)
        correspondence = check_correspondence(
            scenario.program, scenario.query(0), scenario.database
        )
        assert correspondence.exact, correspondence.summary()

    def test_open_query(self):
        scenario = ancestor(graph="chain", n=8)
        correspondence = check_correspondence(
            scenario.program, scenario.query(1), scenario.database
        )
        assert correspondence.exact, correspondence.summary()

    def test_fully_bound_query(self):
        scenario = ancestor(graph="chain", n=8)
        correspondence = check_correspondence(
            scenario.program, parse_query("anc(0, 5)?"), scenario.database
        )
        assert correspondence.exact, correspondence.summary()

    def test_same_generation(self):
        scenario = same_generation(depth=3, branching=2)
        correspondence = check_correspondence(
            scenario.program, scenario.query(0), scenario.database
        )
        assert correspondence.exact, correspondence.summary()

    def test_mutual_recursion_two_adornments(self):
        program = parse_program(
            """
            p(X,Y) :- e(X,Y).
            p(X,Y) :- q(Y,X).
            q(X,Y) :- p(X,Y).
            q(X,Y) :- e(X,Y).
            """
        )
        database = Database()
        for pair in [(0, 1), (1, 2), (2, 0)]:
            database.add("e", pair)
        correspondence = check_correspondence(
            program, parse_query("p(0, Y)?"), database
        )
        assert correspondence.exact, correspondence.summary()


class TestCorrespondenceMetrics:
    def test_inference_ratio_is_bounded_constant(self):
        # Theorem 2's practical form: the ratio stays within a small
        # constant band across sizes.
        ratios = []
        for n in (8, 16, 32, 64):
            scenario = ancestor(graph="chain", n=n)
            correspondence = check_correspondence(
                scenario.program, scenario.query(0), scenario.database
            )
            assert correspondence.exact
            ratios.append(correspondence.inference_ratio)
        assert all(0.25 <= ratio <= 4.0 for ratio in ratios), ratios
        # ... and does not drift with n (no asymptotic gap).
        assert max(ratios) / min(ratios) < 1.5, ratios

    def test_calls_equal_oldt_tables(self):
        scenario = ancestor(graph="tree", depth=3, branching=2)
        correspondence = check_correspondence(
            scenario.program, scenario.query(0), scenario.database
        )
        assert correspondence.exact
        assert len(correspondence.calls_matched) == (
            correspondence.oldt_stats.calls
        )

    def test_answers_equal_oldt_table_answers(self):
        scenario = ancestor(graph="chain", n=10)
        correspondence = check_correspondence(
            scenario.program, scenario.query(0), scenario.database
        )
        assert len(correspondence.answers_matched) == (
            correspondence.oldt_stats.facts_derived
        )

    def test_summary_mentions_exactness(self):
        scenario = ancestor(graph="chain", n=6)
        correspondence = check_correspondence(
            scenario.program, scenario.query(0), scenario.database
        )
        assert "exact: True" in correspondence.summary()

    def test_empty_database_still_exact(self):
        scenario = ancestor(graph="chain", n=2)
        empty = Database()
        empty.relation("par", 2)
        correspondence = check_correspondence(
            scenario.program, scenario.query(0), empty
        )
        assert correspondence.exact
        # One call (the seed), zero answers.
        assert len(correspondence.calls_matched) == 1
        assert len(correspondence.answers_matched) == 0


LAZY_SUMMARY_SCENARIOS = [
    (ancestor(graph="chain", n=24), "anc(0, X)?"),
    (ancestor(graph="chain", n=12), "anc(X, Y)?"),
    (ancestor(graph="cycle", n=16), "anc(0, X)?"),
    (ancestor(graph="chain", variant="nonlinear", n=12), "anc(0, X)?"),
    (same_generation(depth=4, branching=2), None),
]


class TestLazyCallSummary:
    """``QueryResult.calls`` / ``answer_facts`` are read from the
    completed database on first access; the values must be the ones the
    summary yields when computed eagerly, on the direct and the prepared
    path alike."""

    @staticmethod
    def _eager(result, database):
        completed, _ = seminaive_fixpoint(
            result.transformed.evaluation_program(), database
        )
        return _transform_call_summary(result.transformed, completed)

    @pytest.mark.parametrize("scenario, query_text", LAZY_SUMMARY_SCENARIOS)
    @pytest.mark.parametrize("path", ["direct", "prepared"])
    def test_lazy_values_equal_eager_ones(self, scenario, query_text, path):
        query = parse_query(query_text) if query_text else scenario.query(0)
        if path == "direct":
            result = run_strategy(
                "alexander", scenario.program, query, scenario.database
            )
        else:
            result = prepare_query(
                scenario.program, query, scenario.database
            ).execute(query)
        assert "_summary" not in vars(result)  # nothing computed yet
        calls, answer_facts = self._eager(result, scenario.database)
        assert result.calls == calls and calls
        assert dict(result.answer_facts) == answer_facts
        assert result.calls is result.calls  # computed once, then kept

    def test_strategies_without_calls_report_empty_summaries(self):
        scenario = ancestor(graph="chain", n=6)
        result = run_strategy(
            "seminaive", scenario.program, scenario.query(0), scenario.database
        )
        assert result.calls == frozenset()
        assert result.answer_facts == {}
