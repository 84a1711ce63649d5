"""Unit and property tests for repro.facts.relation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facts.relation import Relation, StampedView


class TestRelationBasics:
    def test_add_reports_novelty(self):
        relation = Relation("p", 2)
        assert relation.add(("a", "b"))
        assert not relation.add(("a", "b"))

    def test_add_rejects_wrong_arity(self):
        relation = Relation("p", 2)
        with pytest.raises(ValueError):
            relation.add(("a",))

    def test_len_contains_iter(self):
        relation = Relation("p", 1, [("a",), ("b",)])
        assert len(relation) == 2
        assert ("a",) in relation
        assert sorted(relation) == [("a",), ("b",)]

    def test_bool(self):
        assert not Relation("p", 1)
        assert Relation("p", 1, [("a",)])

    def test_add_all_counts_new_only(self):
        relation = Relation("p", 1, [("a",)])
        assert relation.add_all([("a",), ("b",), ("c",)]) == 2

    def test_rows_snapshot_is_immutable_copy(self):
        relation = Relation("p", 1, [("a",)])
        snapshot = relation.rows()
        relation.add(("b",))
        assert snapshot == frozenset({("a",)})

    def test_zero_arity_relation(self):
        relation = Relation("seed", 0)
        assert relation.add(())
        assert () in relation
        assert not relation.add(())

    def test_discard(self):
        relation = Relation("p", 1, [("a",)])
        assert relation.discard(("a",))
        assert not relation.discard(("a",))
        assert len(relation) == 0

    def test_clear(self):
        relation = Relation("p", 1, [("a",)])
        relation.clear()
        assert len(relation) == 0

    def test_copy_is_independent(self):
        relation = Relation("p", 1, [("a",)])
        clone = relation.copy()
        clone.add(("b",))
        assert len(relation) == 1 and len(clone) == 2

    def test_copy_preserves_version(self):
        # A copy holds the same tuples: it must not look *older* than
        # its source.
        relation = Relation("p", 1)
        relation.add(("a",))
        relation.add(("b",))
        assert relation.version > 0
        clone = relation.copy()
        assert clone.version == relation.version
        clone.add(("c",))
        assert clone.version > relation.version

    def test_equality(self):
        assert Relation("p", 1, [("a",)]) == Relation("p", 1, [("a",)])
        assert Relation("p", 1, [("a",)]) != Relation("p", 1, [("b",)])
        assert Relation("p", 1) != Relation("q", 1)


class TestLookup:
    def setup_method(self):
        self.relation = Relation(
            "e", 2, [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")]
        )

    def test_unbound_scan(self):
        assert len(list(self.relation.lookup({}))) == 4

    def test_single_column(self):
        assert sorted(self.relation.lookup({0: "a"})) == [("a", "b"), ("a", "c")]

    def test_two_columns(self):
        assert list(self.relation.lookup({0: "a", 1: "c"})) == [("a", "c")]

    def test_missing_value(self):
        assert list(self.relation.lookup({0: "zz"})) == []

    def test_index_stays_fresh_after_insert(self):
        list(self.relation.lookup({0: "a"}))  # force index build
        self.relation.add(("a", "z"))
        assert ("a", "z") in set(self.relation.lookup({0: "a"}))

    def test_index_rebuilt_after_discard(self):
        list(self.relation.lookup({0: "a"}))
        self.relation.discard(("a", "b"))
        assert sorted(self.relation.lookup({0: "a"})) == [("a", "c")]

    def test_count(self):
        assert self.relation.count() == 4
        assert self.relation.count({0: "a"}) == 2

    def test_unbound_scan_tolerates_concurrent_insert(self):
        # Delta loops suspend a full scan and add derived facts to the
        # same relation; yielding from the live set raised
        # "Set changed size during iteration".
        seen = []
        for row in self.relation.lookup({}):
            seen.append(row)
            self.relation.add((row[1], row[0]))
        assert len(seen) == 4
        assert set(seen) <= self.relation.rows()


class TestStatistics:
    def test_version_bumps_on_mutation_only(self):
        relation = Relation("p", 1)
        v0 = relation.version
        relation.add(("a",))
        assert relation.version > v0
        v1 = relation.version
        relation.add(("a",))  # duplicate: no change
        assert relation.version == v1
        relation.discard(("a",))
        assert relation.version > v1


class TestDiscardIncrementalMaintenance:
    def test_posting_lists_shrink_in_place(self):
        relation = Relation("e", 2, [("a", "b"), ("a", "c"), ("b", "c")])
        assert relation.count({0: "a"}) == 2  # materialise the index
        relation.discard(("a", "b"))
        assert relation.count({0: "a"}) == 1
        assert sorted(relation.lookup({0: "a"})) == [("a", "c")]

    def test_empty_posting_removes_distinct_value(self):
        relation = Relation("e", 2, [("a", "b"), ("b", "c")])
        assert relation.count({0: "a"}) == 1  # materialise the index
        relation.discard(("a", "b"))
        assert relation.count({0: "a"}) == 0
        assert list(relation.lookup({0: "a"})) == []
        assert "a" not in relation._indexes[0]
        assert relation.count({0: "b"}) == 1

    def test_indexed_lookup_tolerates_mid_iteration_delete(self):
        # The incremental engine deletes while a probe is suspended; the
        # iteration must neither raise nor skip rows present at probe time.
        relation = Relation("e", 2, [("a", "b"), ("a", "c"), ("a", "d")])
        seen = []
        for row in relation.lookup({0: "a"}):
            seen.append(row)
            relation.discard(("a", "d"))
        assert len(seen) == 3
        assert ("a", "d") not in relation


class TestScanCache:
    def test_snapshot_reused_while_unchanged(self):
        relation = Relation("e", 1, [("a",), ("b",)])
        first = relation.scan()
        assert relation.scan() is first

    def test_snapshot_invalidated_by_add_and_discard(self):
        relation = Relation("e", 1, [("a",)])
        first = relation.scan()
        relation.add(("b",))
        second = relation.scan()
        assert second is not first and set(second) == {("a",), ("b",)}
        relation.discard(("a",))
        assert set(relation.scan()) == {("b",)}

    def test_duplicate_add_keeps_cache(self):
        relation = Relation("e", 1, [("a",)])
        first = relation.scan()
        relation.add(("a",))  # no effective mutation
        assert relation.scan() is first


class TestCountFastPath:
    def test_single_bound_column_answers_from_postings(self, monkeypatch):
        relation = Relation("e", 2, [("a", "b"), ("a", "c"), ("b", "c")])
        monkeypatch.setattr(
            Relation,
            "lookup",
            lambda self, bound: pytest.fail("count must not materialise rows"),
        )
        assert relation.count({0: "a"}) == 2
        assert relation.count({1: "zz"}) == 0

    def test_multi_bound_count_still_filters(self):
        relation = Relation("e", 2, [("a", "b"), ("a", "c"), ("b", "c")])
        assert relation.count({0: "a", 1: "c"}) == 1


class TestRoundStamps:
    def test_rows_default_to_round_zero(self):
        relation = Relation("p", 1, [("a",)])
        assert relation.round == 0
        assert relation.stamp_of(("a",)) == 0

    def test_mark_round_stamps_subsequent_adds(self):
        relation = Relation("p", 1, [("a",)])
        relation.mark_round(2)
        relation.add(("b",))
        assert relation.stamp_of(("a",)) == 0
        assert relation.stamp_of(("b",)) == 2

    def test_rows_before_filters_all_probe_shapes(self):
        relation = Relation("e", 2, [("a", "b")])
        relation.mark_round(1)
        relation.add(("a", "c"))
        view = relation.rows_before(1)
        assert isinstance(view, StampedView)
        assert view.rows() == frozenset({("a", "b")})
        assert sorted(view.lookup({0: "a"})) == [("a", "b")]
        assert ("a", "b") in view and ("a", "c") not in view
        assert len(view) == 1 and bool(view)
        assert not relation.rows_before(0)

    def test_view_is_live(self):
        # The view reads the live relation: rows added later under an
        # older round become visible, rows discarded disappear.
        relation = Relation("p", 1, [("a",)])
        view = relation.rows_before(1)
        relation.add(("b",))  # still round 0
        assert ("b",) in view
        relation.discard(("a",))
        assert ("a",) not in view

    def test_discard_forgets_stamp(self):
        relation = Relation("p", 1)
        relation.mark_round(3)
        relation.add(("a",))
        relation.discard(("a",))
        relation.mark_round(4)
        relation.add(("a",))
        # Re-adding after a discard stamps with the *current* round: the
        # old round-3 stamp was forgotten along with the row.
        assert relation.stamp_of(("a",)) == 4

    def test_mark_round_rejects_regression(self):
        relation = Relation("p", 1)
        relation.mark_round(3)
        with pytest.raises(ValueError, match="must not decrease"):
            relation.mark_round(2)
        relation.mark_round(3)  # same round is fine (idempotent re-stamp)
        relation.mark_round(4)

    def test_copy_resets_stamps(self):
        # Stamps are evaluation-local: a copy is the fresh starting state
        # of the next evaluation, so every row must read as round 0.
        relation = Relation("p", 1)
        relation.mark_round(2)
        relation.add(("a",))
        clone = relation.copy()
        assert clone.stamp_of(("a",)) == 0
        assert clone.round == 0
        assert relation.stamp_of(("a",)) == 2

    def test_clear_resets_rounds(self):
        relation = Relation("p", 1)
        relation.mark_round(2)
        relation.add(("a",))
        relation.clear()
        assert relation.round == 0
        relation.add(("b",))
        assert relation.stamp_of(("b",)) == 0


# --- property-based ----------------------------------------------------------

rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40
)


@given(rows)
def test_relation_behaves_like_a_set(data):
    relation = Relation("r", 2)
    mirror = set()
    for row in data:
        assert relation.add(row) == (row not in mirror)
        mirror.add(row)
    assert relation.rows() == frozenset(mirror)


@given(rows, st.integers(0, 5))
def test_lookup_matches_filter_semantics(data, key):
    relation = Relation("r", 2, data)
    via_index = sorted(relation.lookup({0: key}))
    via_scan = sorted(row for row in set(data) if row[0] == key)
    assert via_index == via_scan


@given(rows, st.integers(0, 5), st.integers(0, 5))
def test_two_column_lookup_matches_filter(data, key0, key1):
    relation = Relation("r", 2, data)
    via_index = sorted(relation.lookup({0: key0, 1: key1}))
    via_scan = sorted(
        row for row in set(data) if row[0] == key0 and row[1] == key1
    )
    assert via_index == via_scan


# --- Relation.merge: the batch form of mark_round + an add loop --------------

def _state(relation):
    """Everything merge must leave as the add loop does, orders included."""
    return (
        list(relation),
        relation.scan(),
        {c: list(index.items()) for c, index in relation._indexes.items()},
        dict(relation._stamps),
        relation.version,
        relation.round,
    )


def _attempt(operation):
    try:
        return operation(), None
    except ValueError as error:
        return None, str(error)


merge_rows = st.tuples(st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=200)
@given(
    initial=st.lists(merge_rows, max_size=12),
    start_round=st.integers(0, 3),
    indexed=st.sets(st.integers(0, 1)),
    advance=st.integers(0, 3),
    batch=st.lists(
        st.one_of(merge_rows, merge_rows, merge_rows, st.tuples(st.integers(0, 4))),
        max_size=15,
    ),
)
def test_merge_equals_mark_round_plus_add_loop(
    initial, start_round, indexed, advance, batch
):
    def build():
        relation = Relation("r", 2)
        relation.mark_round(start_round)
        relation.add_all(initial)
        for column in indexed:
            relation.count({column: 0})
        return relation

    stamp = start_round + advance
    merged, by_hand = build(), build()

    def add_loop():
        by_hand.mark_round(stamp)
        return sum(1 for row in batch if by_hand.add(row))

    assert _attempt(lambda: merged.merge(batch, stamp)) == _attempt(add_loop)
    assert _state(merged) == _state(by_hand)


class TestMerge:
    def test_merge_rejects_a_regressing_stamp_and_changes_nothing(self):
        relation = Relation("p", 1)
        relation.merge([("a",)], 3)
        before = _state(relation)
        with pytest.raises(ValueError, match="must not decrease"):
            relation.merge([("b",)], 2)
        assert _state(relation) == before

    def test_adopt_takes_the_dict_over(self):
        rows = {("a", 1): None, ("b", 2): None}
        relation = Relation.adopt("p", 2, rows)
        assert relation._tuples is rows
        assert relation.scan() == (("a", 1), ("b", 2))
        assert list(relation.lookup({1: 2})) == [("b", 2)]
        assert relation.version == Relation("p", 2, rows).version
