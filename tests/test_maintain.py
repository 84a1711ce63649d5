"""Unit tests for the maintenance subsystem: DRed, asserted facts,
batched insert deltas, rejected batches, and the poisoned-engine
protocol."""

import pytest

from repro.core.engine import Engine
from repro.datalog.parser import parse_program
from repro.engine.budget import EvaluationBudget
from repro.engine.incremental import IncrementalEngine
from repro.errors import BudgetExceededError, ProgramError
from repro.obs import Metrics, collect, get_metrics, set_metrics

from .test_maintenance_differential import _facts

TC = parse_program(
    "path(X, Y) :- edge(X, Y)."
    "path(X, Z) :- edge(X, Y), path(Y, Z)."
)

UNION = parse_program(
    "t(X, Y) :- e(X, Y)."
    "t(X, Y) :- f(X, Y)."
    "u(X, Y) :- t(X, Y), g(Y)."
    "e(a, b). f(a, b). g(b)."
)


# --- asserted facts and alternate derivations -------------------------------
def test_alternate_derivation_survives():
    """A fact with two derivations survives the loss of one of them —
    naive cascading would delete it."""
    engine = IncrementalEngine(UNION)
    assert engine.remove("e(a, b)")
    assert engine.holds("t(a, b)")
    assert engine.holds("u(a, b)")
    assert engine.remove("f(a, b)")
    assert not engine.holds("t(a, b)")
    assert not engine.holds("u(a, b)")


def test_asserted_fact_already_derivable_survives():
    """Asserting an IDB fact that is *already* derivable still records
    its external support, so deleting the deriving base fact leaves the
    asserted fact in place — as the recompute oracle does."""
    source = "p(a). q(X) :- p(X)."
    results = {}
    for mode in ("recompute", "dred"):
        engine = IncrementalEngine(parse_program(source), maintenance=mode)
        assert engine.holds("q(a)")
        assert engine.add("q(a)") == frozenset()  # already derivable
        engine.remove("p(a)")
        assert engine.holds("q(a)"), mode
        assert not engine.holds("p(a)")
        results[mode] = _facts(engine.database)
    assert results["dred"] == results["recompute"]


def test_reasserting_idb_fact_is_idempotent():
    """A re-assertion is a no-op: the fact keeps its one external
    support and outlives its only derivation."""
    engine = IncrementalEngine(parse_program("p(a). q(X) :- p(X)."))
    engine.add("q(a)")
    assert engine.add("q(a)") == frozenset()
    assert engine._asserted == {("q", ("a",))}
    engine.remove("p(a)")
    assert engine.holds("q(a)")
    assert _facts(engine.database) == {"q": frozenset({("a",)})}


def test_removed_facts_report_base_rows_only():
    engine = IncrementalEngine(UNION)
    removed = engine.remove_many(["e(a, b)", "e(absent, row)"])
    assert removed == frozenset({("e", ("a", "b"))})
    assert engine.remove_many(["e(a, b)"]) == frozenset()


def test_dred_is_the_default_and_counting_is_rejected():
    assert IncrementalEngine(UNION).maintenance == "dred"
    assert Engine(UNION).incremental().maintenance == "dred"
    with pytest.raises(ProgramError, match="'dred'"):
        IncrementalEngine(UNION, maintenance="counting")


# --- DRed -------------------------------------------------------------------
def test_dred_handles_cyclic_support():
    """The DRed killer case: facts supporting each other around a cycle
    must all die when the external support goes — derivation counting
    would leave them alive."""
    engine = IncrementalEngine(TC, maintenance="dred")
    engine.add_many(["edge(a, b)", "edge(b, c)", "edge(c, a)"])
    assert engine.holds("path(a, a)")
    assert engine.remove("edge(c, a)")
    assert not engine.holds("path(a, a)")
    assert not engine.holds("path(c, b)")
    assert engine.holds("path(a, c)")


def test_dred_rederives_surviving_cone():
    """Over-deleted facts with an alternate derivation come back."""
    engine = IncrementalEngine(TC, maintenance="dred")
    engine.add_many(
        ["edge(a, b)", "edge(b, c)", "edge(a, c)", "edge(c, d)"]
    )
    assert engine.remove("edge(b, c)")
    # path(a, c) and path(a, d) survive via the edge(a, c) shortcut.
    assert engine.holds("path(a, c)")
    assert engine.holds("path(a, d)")
    assert not engine.holds("path(b, c)")
    assert not engine.holds("path(b, d)")


def test_dred_asserted_idb_fact_survives_cascade():
    engine = IncrementalEngine(TC, maintenance="dred")
    engine.add_many(["edge(a, b)", "path(b, z)"])
    assert engine.holds("path(a, z)")
    assert engine.remove("edge(a, b)")
    # The asserted path(b, z) has external support; its consequence via
    # edge(a, b) is gone.
    assert engine.holds("path(b, z)")
    assert not engine.holds("path(a, z)")


def test_remove_refuses_idb_in_every_mode():
    for mode in ("recompute", "dred"):
        engine = IncrementalEngine(TC, maintenance=mode)
        engine.add("edge(a, b)")
        with pytest.raises(ProgramError, match="remove base facts only"):
            engine.remove("path(a, b)")


# --- batched insert deltas (satellite regression) ---------------------------
def test_add_many_batches_one_continuation():
    """All rows of one add_many seed a single delta: identical fact sets,
    strictly fewer iterations than fact-at-a-time insertion."""
    batch = [f"edge(c{i}, c{i + 1})" for i in range(5)]
    batched = IncrementalEngine(TC)
    looped = IncrementalEngine(TC)
    got = batched.add_many(batch)
    expected = frozenset().union(*(looped.add(atom) for atom in batch))
    assert got == expected
    assert _facts(batched.database) == _facts(looped.database)
    assert batched.stats.iterations < looped.stats.iterations


def test_add_many_ignores_duplicates_and_empties():
    engine = IncrementalEngine(TC)
    assert engine.add_many([]) == frozenset()
    first = engine.add_many(["edge(a, b)", "edge(a, b)"])
    assert ("edge", ("a", "b")) in first
    assert engine.add_many(["edge(a, b)"]) == frozenset()


# --- poisoned-engine protocol (satellite bugfix) ----------------------------
def _tripped_engine() -> IncrementalEngine:
    engine = IncrementalEngine(
        TC,
        budget=EvaluationBudget(max_iterations=3),
        maintenance="dred",
    )
    with pytest.raises(BudgetExceededError):
        engine.add_many([f"edge(c{i}, c{i + 1})" for i in range(12)])
    return engine


def test_budget_trip_poisons_engine():
    engine = _tripped_engine()
    assert engine.poisoned
    for call in (
        lambda: engine.add("edge(x, y)"),
        lambda: engine.add_many(["edge(x, y)"]),
        lambda: engine.remove("edge(c0, c1)"),
        lambda: engine.remove_many(["edge(c0, c1)"]),
        lambda: engine.query("path(X, Y)"),
        lambda: engine.holds("edge(c0, c1)"),
    ):
        with pytest.raises(ProgramError, match="poisoned"):
            call()


def test_rebuild_clears_poisoning_and_completes_the_mutation():
    engine = _tripped_engine()
    engine.rebuild(budget=None)
    assert not engine.poisoned
    # The interrupted insertion's base rows stayed; the rebuild completes
    # their consequences — same state as an untripped engine.
    oracle = IncrementalEngine(TC)
    oracle.add_many([f"edge(c{i}, c{i + 1})" for i in range(12)])
    assert _facts(engine.database) == _facts(oracle.database)
    assert engine.holds("path(c0, c11)")
    assert engine.add("edge(z, c0)")  # usable again


def test_any_exception_mid_mutation_poisons_engine(monkeypatch):
    """Not just budget trips: a backend error (or interrupt) escaping a
    mutation leaves the materialisation inconsistent and must poison."""
    from repro.engine import incremental

    def boom(*args, **kwargs):
        raise RuntimeError("backend exploded")

    engine = IncrementalEngine(TC, maintenance="dred")
    engine.add("edge(a, b)")
    with monkeypatch.context() as patch:
        patch.setattr(incremental, "propagate", boom)
        with pytest.raises(RuntimeError, match="backend exploded"):
            engine.add("edge(b, c)")
    assert engine.poisoned
    with pytest.raises(ProgramError, match="poisoned"):
        engine.holds("edge(a, b)")

    other = IncrementalEngine(TC, maintenance="dred")
    other.add("edge(a, b)")
    monkeypatch.setattr(incremental, "delete_dred", boom)
    with pytest.raises(RuntimeError, match="backend exploded"):
        other.remove("edge(a, b)")
    assert other.poisoned


def test_failed_rebuild_stays_poisoned(monkeypatch):
    from repro.engine import incremental

    engine = _tripped_engine()
    monkeypatch.setattr(
        incremental,
        "seminaive_fixpoint",
        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("rebuild died")),
    )
    with pytest.raises(RuntimeError, match="rebuild died"):
        engine.rebuild(budget=None)
    assert engine.poisoned


def test_rebuild_on_healthy_engine_is_idempotent():
    engine = IncrementalEngine(UNION)
    before = _facts(engine.database)
    engine.rebuild()
    assert _facts(engine.database) == before
    assert engine.remove("e(a, b)")
    assert engine.holds("t(a, b)")


# --- observability ----------------------------------------------------------
def test_maintain_counters_are_recorded():
    metrics = Metrics()
    previous = get_metrics()
    set_metrics(metrics)
    try:
        union = IncrementalEngine(UNION)
        union.add_many(["e(p, q)", "f(p, q)"])
        union.remove("e(p, q)")
        dred = IncrementalEngine(TC, maintenance="dred")
        dred.add_many(["edge(a, b)", "edge(b, c)"])
        dred.remove("edge(a, b)")
        dred.rebuild()
    finally:
        set_metrics(previous)
    counters = metrics.counters
    assert counters["maintain.insert_batches"] == 2
    assert counters["maintain.inserts"] == 4
    assert counters["maintain.removes"] == 2
    assert counters["maintain.dred.deletions"] == 2
    assert counters["maintain.dred.overdeleted"] >= 1
    assert counters["maintain.rebuilds"] == 1


def test_rebuilds_count_every_rebuild_and_recompute_delete():
    """``maintain.rebuilds`` counts full rebuilds: each ``rebuild()`` and
    each recompute-mode delete, never the initial build."""
    with collect() as metrics:
        engine = IncrementalEngine(TC, maintenance="recompute")
        engine.add_many(["edge(a, b)", "edge(b, c)", "edge(c, d)"])
        assert metrics.counters.get("maintain.rebuilds", 0) == 0
        engine.remove("edge(a, b)")
        engine.remove("edge(b, c)")
        engine.rebuild()
    assert metrics.counters["maintain.removes"] == 2
    assert metrics.counters["maintain.rebuilds"] == 3


# --- rejected batches leave the engine unchanged ------------------------------
RECURSIVE = "e(1,2). e(2,3). tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y)."


def _state(engine: IncrementalEngine):
    return set(engine._asserted), _facts(engine.database), engine.poisoned


@pytest.mark.parametrize(
    "call,atoms,match",
    [
        ("add_many", ["tc(7,8)", "tc(9)"], r"tc\(9\) has arity 1, but tc has arity 2"),
        ("add_many", ["tc(4,5)", "e(Y,1)"], r"must be ground, got e\(Y, 1\)"),
        ("add_many", ["e(5,6)", "fresh(1)", "fresh(1,2)"], r"fresh has arity 1"),
        ("remove_many", ["e(X, 2)"], r"must be ground, got e\(X, 2\)"),
        ("remove_many", ["e(1,2)", "e(2)"], r"e\(2\) has arity 1, but e has arity 2"),
    ],
    ids=["add-arity", "add-nonground", "add-batch-arity", "remove-nonground",
         "remove-arity"],
)
def test_rejected_batch_changes_nothing(call, atoms, match):
    engine = IncrementalEngine(parse_program(RECURSIVE))
    before = _state(engine)
    with pytest.raises(ProgramError, match=match):
        getattr(engine, call)(atoms)
    assert _state(engine) == before
    engine.rebuild()
    assert _state(engine) == before
    assert not engine.holds("tc(7,8)")
    assert not engine.holds("tc(4,5)")
