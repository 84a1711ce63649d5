"""Unit tests for the rule-kernel compiler (repro.engine.kernel)."""

import pytest

from repro.datalog.parser import parse_program
from repro.engine.counters import EvaluationStats
from repro.engine.kernel import RuleKernel, compile_kernel
from repro.engine.matching import compile_rule, compile_rule_ordered, match_body
from repro.errors import SafetyError
from repro.facts.database import Database
from repro.obs import collect


def _kernel(source: str, index: int = 0) -> RuleKernel:
    program = parse_program(source)
    return compile_kernel(compile_rule(program.proper_rules[index], None))


def _view(database: Database):
    def view(position, predicate):
        try:
            return database.relation(predicate)
        except KeyError:
            return None

    return view


class TestCompilation:
    # A level is (position, constant columns, bound probe, writes, checks,
    # tests); a test is (position, builtin, positive, slot template).
    def test_slot_numbering_follows_first_occurrence(self):
        kernel = _kernel("p(X, Y) :- e(X, Z), e(Z, Y).")
        prelude, (first, second), head = kernel.shape
        assert prelude == ()
        assert first == (0, (), (), ((0, 0), (1, 1)), (), ())  # X=0, Z=1
        assert second == (1, (), ((0, 1),), ((1, 2),), (), ())  # Z bound, Y=2
        assert head == (0, 2)
        assert kernel.arguments == ("e", "e")

    def test_constants_become_const_probe(self):
        kernel = _kernel("p(X) :- e(a, X).")
        (level,) = kernel.shape[1]
        assert level[1] == (0,) and level[3] == ((1, 0),)
        assert kernel.arguments == ("e", "a")

    def test_repeated_variable_becomes_check(self):
        kernel = _kernel("p(X) :- e(X, X).")
        (level,) = kernel.shape[1]
        assert level[3] == ((0, 0),)
        assert level[4] == ((1, 0),)

    def test_constant_head_argument(self):
        kernel = _kernel("p(a, X) :- e(X).")
        assert kernel.shape[2] == (None, 0)
        assert kernel.arguments == ("e", "a")

    def test_negative_literal_becomes_trailing_test(self):
        kernel = _kernel("p(X) :- e(X), not q(X).")
        (level,) = kernel.shape[1]
        assert level[0] == 0 and kernel.arguments[0] == "e"
        (test,) = level[5]
        assert test == (1, False, False, (0,))
        assert kernel.arguments == ("e", "q")

    def test_builtin_becomes_trailing_test(self):
        kernel = _kernel("p(X, Y) :- e(X, Y), X < Y.")
        (level,) = kernel.shape[1]
        (test,) = level[5]
        assert test == (1, True, True, (0, 1))
        assert kernel.arguments == ("e", "lt")

    def test_unbound_test_variable_is_rejected(self):
        rule = parse_program("p(X) :- e(X), not q(X).").proper_rules[0]
        positive, negative = rule.body
        with pytest.raises(SafetyError):
            compile_rule_ordered(rule, (negative, positive))

    def test_obs_counters(self):
        program = parse_program("p(X, Y) :- e(X, Z), e(Z, Y).")
        compiled = compile_rule(program.proper_rules[0], None)
        with collect() as metrics:
            compile_kernel(compiled)
        assert metrics.counters["kernel.rules_compiled"] == 1
        assert metrics.histograms["kernel.slots"].last == 3


class TestExecution:
    SOURCE = """
        e(a, b). e(b, c). e(c, d). q(c).
        p(X, Y) :- e(X, Y).
        p(X, Y) :- e(X, Z), p(Z, Y).
        r(X) :- p(a, X), not q(X).
    """

    def _program(self):
        program = parse_program(self.SOURCE)
        database = Database()
        database.add_atoms(program.facts)
        # Matching probes IDB relations too: make sure they exist.
        database.relation("p", 2)
        database.relation("q", 1)
        return program.without_facts(), database

    def test_kernel_matches_interpreted_rows_and_stats(self):
        program, database = self._program()
        database.add("p", ("b", "c"))
        database.add("p", ("c", "d"))
        for rule in program.proper_rules:
            compiled = compile_rule(rule, None)
            kernel = compile_kernel(compiled)
            kernel_stats = EvaluationStats()
            interp_stats = EvaluationStats()
            kernel_rows = list(
                kernel.run(_view(database), kernel_stats, None)
            )
            interp_rows = [
                compiled.head_tuple(binding)
                for binding in match_body(compiled, _view(database), interp_stats)
            ]
            assert kernel_rows == interp_rows
            assert kernel_stats.as_dict() == interp_stats.as_dict()

    def test_missing_relation_yields_nothing(self):
        kernel = _kernel("p(X) :- zz(X).")
        rows = list(kernel.run(_view(Database()), EvaluationStats(), None))
        assert rows == []

