"""Unit tests for the rule-kernel compiler (repro.engine.kernel)."""

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.terms import Variable
from repro.engine.counters import EvaluationStats
from repro.engine.kernel import RuleKernel, compile_kernel
from repro.engine.matching import CompiledLiteral, compile_rule, match_body
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
    def test_slot_numbering_follows_first_occurrence(self):
        kernel = _kernel("p(X, Y) :- e(X, Z), e(Z, Y).")
        assert kernel.slot_count == 3  # X=0, Z=1, Y=2
        first, second = (scan for scan, _ in kernel.levels)
        assert first.writes == ((0, 0), (1, 1))
        assert first.bound_probe == ()
        assert second.bound_probe == ((0, 1),)  # Z already bound
        assert second.writes == ((1, 2),)
        assert kernel.head == ((False, 0), (False, 2))

    def test_constants_become_const_probe(self):
        kernel = _kernel("p(X) :- e(a, X).")
        (scan, _), = kernel.levels
        assert scan.const_probe == ((0, "a"),)
        assert scan.writes == ((1, 0),)

    def test_repeated_variable_becomes_check(self):
        kernel = _kernel("p(X) :- e(X, X).")
        (scan, _), = kernel.levels
        assert scan.writes == ((0, 0),)
        assert scan.checks == ((1, 0),)

    def test_constant_head_argument(self):
        kernel = _kernel("p(a, X) :- e(X).")
        assert kernel.head == ((True, "a"), (False, 0))

    def test_negative_literal_becomes_trailing_test(self):
        kernel = _kernel("p(X) :- e(X), not q(X).")
        (scan, tests), = kernel.levels
        assert scan.predicate == "e"
        (test,) = tests
        assert test.predicate == "q"
        assert not test.positive and not test.builtin
        assert test.values == ((False, 0),)

    def test_builtin_becomes_trailing_test(self):
        kernel = _kernel("p(X, Y) :- e(X, Y), X < Y.")
        (scan, tests), = kernel.levels
        (test,) = tests
        assert test.builtin and test.predicate == "lt"
        assert test.values == ((False, 0), (False, 1))

    def test_unbound_test_variable_is_rejected(self):
        program = parse_program("p(X) :- e(X), not q(X).")
        compiled = compile_rule(program.proper_rules[0], None)
        source = compiled.body[1].source
        broken = CompiledLiteral(
            predicate="q",
            positive=False,
            constants=(),
            binders=((0, Variable("Unbound")),),
            filters=(),
            source=source,
        )
        object.__setattr__(compiled, "body", (compiled.body[0], broken))
        with pytest.raises(SafetyError):
            compile_kernel(compiled)

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

