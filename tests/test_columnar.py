"""Unit tests for the columnar relation backend (repro.engine.columnar).

These pin the backend's own mechanics — columns, postings, round stamps,
the batch protocol, conversion — method for method against the tuple
backend's contract.  End-to-end bit-identity across the engines lives in
``tests/test_storage_differential.py``.
"""

import random

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant
from repro.datalog.intern import ConstantInterner
from repro.engine.columnar import (
    DEFAULT_STORAGE,
    STORAGES,
    ColumnarDatabase,
    ColumnarPrefix,
    ColumnarRelation,
    as_storage,
    relation_types,
    resolve_storage,
)
from repro.facts.database import Database
from repro.facts.relation import Relation
from repro.obs import collect


def _atom(predicate, *values):
    return Atom(predicate, tuple(Constant(value) for value in values))


def _relation(rows=()):
    interner = ConstantInterner()
    relation = ColumnarRelation("r", 2, interner)
    for row in rows:
        relation.add(interner.intern_row(row))
    return relation, interner


def _parallel_pair(rows):
    """The same raw rows loaded into both backends."""
    tuple_rel = Relation("r", 2, rows)
    col_rel, interner = _relation(rows)
    return tuple_rel, col_rel, interner


class TestResolveStorage:
    def test_defaults(self):
        assert DEFAULT_STORAGE == "tuples"
        assert set(STORAGES) == {"tuples", "columnar"}
        assert resolve_storage("columnar") == "columnar"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown storage"):
            resolve_storage("arrow")

    def test_relation_types_cover_both_backends(self):
        assert Relation in relation_types()
        assert ColumnarRelation in relation_types()


class TestColumnarRelation:
    def test_add_is_idempotent_and_ordered(self):
        relation, interner = _relation()
        first = interner.intern_row(("a", "b"))
        second = interner.intern_row(("b", "c"))
        assert relation.add(first)
        assert not relation.add(first)
        assert relation.add(second)
        assert list(relation) == [first, second]
        assert len(relation) == 2 and bool(relation)
        assert relation.rows() == frozenset({first, second})

    def test_arity_mismatch_rejected(self):
        relation, _ = _relation()
        with pytest.raises(ValueError, match="length 3"):
            relation.add((0, 1, 2))

    def test_reinsertion_after_discard_moves_to_the_end(self):
        """Dict-backed insertion order: matches the tuple backend."""
        rows = [("a", "b"), ("b", "c"), ("c", "d")]
        tuple_rel, col_rel, interner = _parallel_pair(rows)
        for rel, key in ((tuple_rel, rows[0]), (col_rel, interner.intern_row(rows[0]))):
            assert rel.discard(key)
            assert not rel.discard(key)
            rel.add(key)
        assert [interner.extern_row(r) for r in col_rel] == list(tuple_rel)

    def test_probe_and_lookup_match_tuple_backend(self):
        rng = random.Random(11)
        rows = [
            (f"c{rng.randint(0, 4)}", f"c{rng.randint(0, 4)}")
            for _ in range(40)
        ]
        tuple_rel, col_rel, interner = _parallel_pair(rows)
        for bound in (
            {}, {0: "c1"}, {1: "c3"}, {0: "c2", 1: "c0"}, {1: "nope"},
        ):
            encoded = {
                column: interner.intern(value)
                for column, value in bound.items()
            }
            expected = list(tuple_rel.lookup(bound))
            got = [
                interner.extern_row(r) for r in col_rel.lookup(encoded)
            ]
            assert got == expected
            assert col_rel.count(encoded) == tuple_rel.count(bound)

    def test_statistics_match_tuple_backend(self):
        rows = [("a", "b"), ("a", "c"), ("b", "c")]
        tuple_rel, col_rel, interner = _parallel_pair(rows)
        assert col_rel.statistics() == tuple_rel.statistics()
        for column in (0, 1):
            assert (
                col_rel.distinct_count(column)
                == tuple_rel.distinct_count(column)
            )
            for value in ("a", "b", "c", "never-seen"):
                assert col_rel.postings_size(
                    column, value
                ) == tuple_rel.postings_size(column, value)
        with pytest.raises(IndexError):
            col_rel.distinct_count(2)

    def test_discard_maintains_postings_and_distinct(self):
        relation, interner = _relation([("a", "b"), ("a", "c")])
        relation.postings(0)  # materialise
        assert relation.distinct_count(0) == 1
        relation.discard(interner.intern_row(("a", "b")))
        assert relation.distinct_count(0) == 1
        assert relation.count({0: interner.intern("a")}) == 1
        relation.discard(interner.intern_row(("a", "c")))
        assert relation.distinct_count(0) == 0
        assert list(relation.lookup({0: interner.intern("a")})) == []

    def test_round_stamps_and_prefix_views(self):
        relation, interner = _relation([("a", "b")])
        relation.mark_round(1)
        late = interner.intern_row(("b", "c"))
        relation.add(late)
        early = interner.intern_row(("a", "b"))
        assert relation.stamp_of(early) == 0
        assert relation.stamp_of(late) == 1
        view = relation.rows_before(1)
        assert isinstance(view, ColumnarPrefix)
        assert early in view and late not in view
        assert list(view) == [early]
        assert len(view) == 1 and bool(view)
        assert view.rows() == frozenset({early})
        assert view.boundary() == relation.stamp_boundary(1) == 1
        assert list(view.lookup({0: interner.intern("a")})) == [early]
        assert list(view.lookup({0: interner.intern("b")})) == []

    def test_batch_protocol_block_reads(self):
        relation, interner = _relation([("a", "b"), ("b", "c"), ("c", "d")])
        live = relation.live_indices()
        assert live == [0, 1, 2]
        # Identity-cached fast path: whole column in one tolist.
        assert relation.column_block(0, live) == [
            interner.intern(v) for v in ("a", "b", "c")
        ]
        # Generic path: arbitrary index subsets.
        assert relation.column_block(1, [2, 0]) == [
            interner.intern("d"), interner.intern("b"),
        ]
        postings = relation.postings(0)
        assert postings[interner.intern("b")] == [1]
        # After a discard the fast path must not resurrect dead cells.
        relation.discard(interner.intern_row(("b", "c")))
        live = relation.live_indices()
        assert live == [0, 2]
        assert relation.column_block(0, live) == [
            interner.intern("a"), interner.intern("c"),
        ]

    def test_copy_resets_stamps_and_keeps_version(self):
        relation, interner = _relation([("a", "b")])
        relation.mark_round(2)
        relation.add(interner.intern_row(("b", "c")))
        clone = relation.copy()
        assert clone == relation
        assert clone.interner is interner
        assert clone.version == relation.version
        for row in clone:
            assert clone.stamp_of(row) == 0
        assert clone.live_indices() == [0, 1]

    def test_clear(self):
        relation, _ = _relation([("a", "b")])
        relation.mark_round(3)
        relation.clear()
        assert len(relation) == 0 and not relation
        assert relation.round == 0
        assert relation.scan() == ()


# --- round-stamp monotonicity (columnar twin of test_relation.py) ----------
class TestColumnarMarkRoundGuard:
    def test_mark_round_rejects_regression(self):
        relation, _ = _relation()
        relation.mark_round(2)
        with pytest.raises(ValueError, match="must not decrease"):
            relation.mark_round(1)
        relation.mark_round(2)
        relation.mark_round(3)


class TestColumnarDatabase:
    def test_atom_boundary_is_raw(self):
        database = ColumnarDatabase()
        database.add_atom(_atom("e", "a", "b"))
        assert database.has_fact(_atom("e", "a", "b"))
        assert not database.has_fact(_atom("e", "b", "a"))
        assert [
            (atom.predicate, atom.ground_key())
            for atom in database.atoms("e")
        ] == [("e", ("a", "b"))]

    def test_has_fact_on_unseen_constant_does_not_grow_the_interner(self):
        database = ColumnarDatabase()
        database.add_atom(_atom("e", "a", "b"))
        before = len(database.interner)
        assert not database.has_fact(_atom("e", "a", "zzz"))
        assert len(database.interner) == before

    def test_spawn_matches_backend(self):
        database = ColumnarDatabase()
        spawned = database.spawn("delta", 2)
        assert isinstance(spawned, ColumnarRelation)
        assert spawned.interner is database.interner
        assert isinstance(Database().spawn("delta", 2), Relation)

    def test_relation_arity_checks(self):
        database = ColumnarDatabase()
        database.relation("e", 2)
        with pytest.raises(ValueError, match="arity"):
            database.relation("e", 3)
        with pytest.raises(KeyError):
            database.relation("unknown")

    def test_merge_across_interners_translates(self):
        left = ColumnarDatabase()
        left.add_atom(_atom("e", "x", "a"))
        right = ColumnarDatabase()  # different interner, different ids
        right.add_atom(_atom("e", "a", "x"))
        assert left.merge(right) == 1
        assert left.has_fact(_atom("e", "a", "x"))
        assert left.merge(right) == 0
        assert left != right
        same = left.copy()
        assert left.merge(same) == 0  # same interner: fast path
        assert left == same


class TestAsStorage:
    def test_none_yields_empty_backend(self):
        assert isinstance(as_storage(None, "tuples"), Database)
        empty = as_storage(None, "columnar")
        assert isinstance(empty, ColumnarDatabase)
        assert not list(empty.relations())

    def test_round_trip_preserves_order_and_versions(self):
        source = Database()
        relation = source.relation("e", 2)
        relation.add(("b", "c"))
        relation.add(("a", "b"))
        columnar = as_storage(source, "columnar")
        assert isinstance(columnar, ColumnarDatabase)
        assert columnar.relation("e").version == relation.version
        back = as_storage(columnar, "tuples")
        assert list(back.relation("e")) == [("b", "c"), ("a", "b")]
        assert back == source

    def test_same_backend_degenerates_to_copy(self):
        source = ColumnarDatabase()
        source.add_atom(_atom("e", "a", "b"))
        copy = as_storage(source, "columnar")
        assert copy.interner is source.interner
        assert copy == source

    def test_reencoding_against_a_foreign_interner(self):
        source = ColumnarDatabase()
        source.add_atom(_atom("e", "b", "a"))
        target_interner = ConstantInterner()
        target_interner.intern("a")  # force different id assignment
        converted = as_storage(source, "columnar", interner=target_interner)
        assert converted.interner is target_interner
        assert converted.has_fact(_atom("e", "b", "a"))
        assert converted == source  # raw-space equality across interners

    def test_conversion_metrics(self):
        source = Database()
        source.relation("e", 2).add(("a", "b"))
        source.relation("e", 2).add(("b", "c"))
        with collect() as metrics:
            as_storage(source, "columnar")
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["storage.convert"] == 1
        assert snapshot["counters"]["storage.converted_rows"] == 2
