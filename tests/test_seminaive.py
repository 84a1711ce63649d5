"""Unit and property tests for the semi-naive engine.

The two load-bearing properties:

1. semi-naive computes exactly the naive fixpoint (same facts);
2. semi-naive never repeats an inference: its successful-inference count
   equals the number of *distinct* rule-body instantiations, so on
   duplicate-free programs it equals the facts derived... more precisely
   it is bounded by the naive count and, for the linear-chain workload,
   equals facts_derived exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_program
from repro.engine import seminaive
from repro.engine.counters import EvaluationStats
from repro.engine.naive import naive_fixpoint
from repro.engine.reference import reference_model
from repro.engine.scheduler import build_schedule
from repro.engine.seminaive import seminaive_fixpoint
from repro.facts.database import Database
from repro.transform.alexander import alexander_templates
from repro.workloads import graphs
from repro.workloads import programs as scenarios

from .test_reference import _facts, _rewritten


def edges_database(edges, predicate="par"):
    database = Database()
    for u, v in edges:
        database.add(predicate, (u, v))
    database.relation(predicate, 2)
    return database


class TestSemiNaive:
    def test_matches_naive_on_chain(self, ancestor_program, chain_database):
        naive_db, _ = naive_fixpoint(ancestor_program, chain_database)
        semi_db, _ = seminaive_fixpoint(ancestor_program, chain_database)
        assert naive_db.rows("anc") == semi_db.rows("anc")

    def test_no_repeated_inference_on_right_linear_chain(self):
        program = parse_program(
            """
            anc(X,Y) :- par(X,Y).
            anc(X,Y) :- par(X,Z), anc(Z,Y).
            """
        )
        database = edges_database(graphs.chain(10))
        _, stats = seminaive_fixpoint(program, database)
        # On a simple chain every derivation is distinct: one inference
        # per derived fact.
        assert stats.inferences == stats.facts_derived

    def test_fewer_inferences_than_naive(self):
        program = parse_program(
            """
            anc(X,Y) :- par(X,Y).
            anc(X,Y) :- par(X,Z), anc(Z,Y).
            """
        )
        database = edges_database(graphs.chain(12))
        _, naive_stats = naive_fixpoint(program, database)
        _, semi_stats = seminaive_fixpoint(program, database)
        assert semi_stats.inferences < naive_stats.inferences
        assert semi_stats.facts_derived == naive_stats.facts_derived

    def test_nonlinear_rule_uses_two_delta_variants(self):
        program = parse_program(
            """
            tc(X,Y) :- e(X,Y).
            tc(X,Y) :- tc(X,Z), tc(Z,Y).
            """
        )
        database = edges_database(graphs.chain(8), "e")
        naive_db, _ = naive_fixpoint(program, database)
        semi_db, stats = seminaive_fixpoint(program, database)
        assert naive_db.rows("tc") == semi_db.rows("tc")
        assert stats.facts_derived == len(semi_db.rows("tc"))

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
        for i in range(6):
            database.add("succ", (i, i + 1))
        completed, _ = seminaive_fixpoint(program, database)
        assert completed.rows("even") == {(0,), (2,), (4,), (6,)}
        assert completed.rows("odd") == {(1,), (3,), (5,)}

    def test_embedded_idb_facts_are_respected(self):
        # A ground fact for an IDB predicate must behave as a unit clause.
        program = parse_program(
            """
            anc(z, q).
            anc(X,Y) :- par(X,Y).
            anc(X,Y) :- par(X,Z), anc(Z,Y).
            par(a, z).
            """
        )
        completed, _ = seminaive_fixpoint(program)
        assert ("z", "q") in completed.rows("anc")
        assert ("a", "q") in completed.rows("anc")

    def test_cyclic_graph_terminates(self):
        program = parse_program(
            """
            tc(X,Y) :- e(X,Y).
            tc(X,Y) :- e(X,Z), tc(Z,Y).
            """
        )
        database = edges_database(graphs.cycle(6), "e")
        completed, stats = seminaive_fixpoint(program, database)
        assert len(completed.rows("tc")) == 36
        assert stats.facts_derived == 36

    def test_input_database_not_mutated(self, ancestor_program, chain_database):
        before = chain_database.rows("par")
        seminaive_fixpoint(ancestor_program, chain_database)
        assert chain_database.rows("par") == before


# --- property: semi-naive == naive on random graphs ---------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=25
)

PROGRAMS = [
    """
    tc(X,Y) :- e(X,Y).
    tc(X,Y) :- e(X,Z), tc(Z,Y).
    """,
    """
    tc(X,Y) :- e(X,Y).
    tc(X,Y) :- tc(X,Z), tc(Z,Y).
    """,
    """
    tc(X,Y) :- e(X,Y).
    tc(X,Y) :- tc(X,Z), e(Z,Y).
    """,
]


@settings(max_examples=30, deadline=None)
@given(edge_lists, st.integers(0, len(PROGRAMS) - 1))
def test_seminaive_equals_naive_on_random_graphs(edges, program_index):
    program = parse_program(PROGRAMS[program_index])
    database = edges_database(edges, "e")
    naive_db, naive_stats = naive_fixpoint(program, database)
    semi_db, semi_stats = seminaive_fixpoint(program, database)
    assert naive_db.rows("tc") == semi_db.rows("tc")
    assert semi_stats.facts_derived == naive_stats.facts_derived
    assert semi_stats.inferences <= naive_stats.inferences


# --- round discipline: advancing old views, skipped empty deltas ------------

def _mutual():
    # a and b feed each other; their deltas alternate round by round,
    # and the last rule reads a after the b delta (an old-view position).
    program = parse_program(
        """
        a(X,Y) :- e(X,Y).
        b(X,Y) :- a(X,Z), e(Z,Y).
        a(X,Y) :- b(X,Z), a(Z,Y).
        """
    )
    return program, edges_database(graphs.chain(9), "e")


def _alexander_nonlinear_tc():
    # Calls depend on answers in the rewriting of a non-linear rule, so
    # its call/cont/ans predicates form one component whose deltas empty
    # at different rounds.
    scenario = scenarios.nonlinear_tc(graph="cycle", n=5)
    transformed, base = _rewritten(
        scenario, scenario.queries[0], alexander_templates
    )
    return transformed.evaluation_program(), base


@pytest.mark.parametrize(
    "case", [_mutual, _alexander_nonlinear_tc], ids=["mutual", "alexander-tc"]
)
def test_old_view_is_full_minus_the_current_delta(monkeypatch, case):
    """At every delta round, every variant's delta position reads the
    round's (non-empty) delta and every later derived position reads the
    full relation minus that predicate's current delta."""
    program, database = case()
    derived_of = {
        predicate: component.derived
        for component in build_schedule(program).components
        for predicate in component.derived
    }
    live: dict = {}  # the delta relations the current round reads
    current: dict[str, frozenset] = {}
    round_deltas: list[frozenset] = []
    checked = []
    runs: list = []
    merge_round = seminaive.merge_round
    compile_kernel = seminaive.compile_kernel
    start_run = seminaive.start_run

    def recording_start(*args):
        working, checkpoint = start_run(*args)
        runs.append(working)
        return working, checkpoint

    def recording_merge(heads, relation_of, stamp, stats):
        delta = merge_round(heads, relation_of, stamp, stats)
        live.clear()
        live.update(delta)
        current.clear()
        current.update((p, frozenset(rows)) for p, rows in delta.items())
        round_deltas.append(frozenset(delta))
        return delta

    def recording_compile(compiled):
        kernel = compile_kernel(compiled)
        derived = derived_of[kernel.head_predicate]

        def run(view, stats, checkpoint):
            # The view is a pure function of its arguments for the whole
            # run, so asking every read position first changes nothing.
            reads = [
                (position, predicate, view(position, predicate))
                for position, predicate, positive in compiled.reads if positive
            ]
            deltas = [
                position for position, predicate, relation in reads
                if relation is live.get(predicate)
            ]
            if deltas:  # a delta variant in a delta round
                (delta_position,) = deltas
                for position, predicate, relation in reads:
                    if position == delta_position:
                        assert relation and frozenset(relation) == current[predicate]
                    elif position > delta_position and predicate in derived:
                        full = frozenset(runs[-1].relation(predicate))
                        assert frozenset(relation) == full - current.get(predicate, frozenset())
                        checked.append(predicate)
            return kernel.run(view, stats, checkpoint)

        return kernel._replace(run=run)

    monkeypatch.setattr(seminaive, "start_run", recording_start)
    monkeypatch.setattr(seminaive, "merge_round", recording_merge)
    monkeypatch.setattr(seminaive, "compile_kernel", recording_compile)
    stats = EvaluationStats()
    model, _ = seminaive_fixpoint(program, database, stats)
    assert checked
    derived_sets = {keys for keys in round_deltas if keys}
    assert len(derived_sets) > 1, "every round had the same non-empty deltas"
    reference = reference_model(program, database)
    assert _facts(model) == _facts(reference.model)
    assert (stats.inferences, stats.facts_derived) == (
        reference.inferences, reference.facts_derived
    )
