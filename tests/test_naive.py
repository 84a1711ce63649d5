"""Unit tests for the naive fixpoint engine."""


from repro.datalog.parser import parse_program
from repro.engine.counters import EvaluationStats
from repro.engine.kernel import compile_kernel
from repro.engine.naive import apply_rules_once, naive_fixpoint
from repro.engine.matching import compile_rule


class TestNaiveFixpoint:
    def test_transitive_closure_on_chain(self, ancestor_program, chain_database):
        completed, stats = naive_fixpoint(ancestor_program, chain_database)
        assert completed.rows("anc") == {
            ("a", "b"), ("a", "c"), ("a", "d"),
            ("b", "c"), ("b", "d"), ("c", "d"),
        }
        assert stats.facts_derived == 6
        assert stats.iterations >= 3

    def test_embedded_facts_are_loaded(self):
        program = parse_program("e(a,b). p(X,Y) :- e(X,Y).")
        completed, _ = naive_fixpoint(program)
        assert completed.rows("p") == {("a", "b")}

    def test_input_database_is_not_mutated(self, ancestor_program, chain_database):
        before = chain_database.rows("par")
        naive_fixpoint(ancestor_program, chain_database)
        assert chain_database.rows("par") == before
        assert "anc" not in chain_database

    def test_empty_database_terminates(self, ancestor_program):
        completed, stats = naive_fixpoint(ancestor_program)
        assert completed.rows("anc") == frozenset()
        assert stats.facts_derived == 0

    def test_cyclic_data_terminates(self):
        program = parse_program(
            """
            e(a,b). e(b,a).
            tc(X,Y) :- e(X,Y).
            tc(X,Y) :- e(X,Z), tc(Z,Y).
            """
        )
        completed, _ = naive_fixpoint(program)
        assert completed.rows("tc") == {
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")
        }

    def test_idb_relations_exist_even_when_empty(self):
        program = parse_program("p(X) :- missing(X).")
        completed, _ = naive_fixpoint(program)
        assert completed.rows("p") == frozenset()
        assert "p" in completed

    def test_inferences_count_rederivations(self, ancestor_program, chain_database):
        _, stats = naive_fixpoint(ancestor_program, chain_database)
        # Naive recomputes everything each round, so inferences strictly
        # exceed the number of distinct facts.
        assert stats.inferences > stats.facts_derived

    def test_stats_accumulate_into_caller_record(self, ancestor_program, chain_database):
        stats = EvaluationStats(inferences=100)
        naive_fixpoint(ancestor_program, chain_database, stats)
        assert stats.inferences > 100


class TestApplyRulesOnce:
    def test_single_step_produces_only_immediate_consequences(
        self, ancestor_program, chain_database
    ):
        kernels = [compile_kernel(compile_rule(r)) for r in ancestor_program.proper_rules]
        database = chain_database.copy()
        database.relation("anc", 2)
        stats = EvaluationStats()
        produced = apply_rules_once(kernels, database, stats)
        assert {row for _, row in produced} == {
            ("a", "b"), ("b", "c"), ("c", "d")
        }

    def test_does_not_mutate_database(self, ancestor_program, chain_database):
        kernels = [compile_kernel(compile_rule(r)) for r in ancestor_program.proper_rules]
        database = chain_database.copy()
        database.relation("anc", 2)
        apply_rules_once(kernels, database, EvaluationStats())
        assert database.rows("anc") == frozenset()
