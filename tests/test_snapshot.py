"""Snapshot format tests: round-trips, version gating, shared memory.

The serialized-shape format (:mod:`repro.core.snapshot`) backs both the
shared-memory dataset snapshots and the on-disk cross-process shape
registry, so two properties are load-bearing:

* **bit-identity** — a round-tripped database holds exactly the
  original fact set, every constant with its original type, in the
  original insertion order; a round-tripped prepared shape answers
  exactly like the original with identical compiled join plans, doing
  zero transform / planning / fixpoint-compilation work on load;
* **fail-closed versioning** — a bumped format or value-table version, a
  corrupt header, or a truncated payload raises
  :class:`~repro.core.snapshot.SnapshotFormatError` with a clear
  message.  Never garbage answers.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.prepare import prepare_query
from repro.core.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    VALUE_TABLE_FORMAT_VERSION,
    SharedSnapshot,
    SnapshotError,
    SnapshotFormatError,
    database_fingerprint,
    dump_database,
    dump_prepared,
    freeze_database,
    load_database,
    load_prepared,
    parse_snapshot,
)
from repro.datalog.parser import parse_program
from repro.facts.database import Database
from repro.obs import Metrics, collect

from .test_kernel_differential import SEEDS, random_source

TRANSFORMS = ("alexander", "magic", "supplementary")


def _facts(database) -> dict[str, frozenset]:
    return {
        predicate: frozenset(database.rows(predicate))
        for predicate in database.predicates()
    }


def _typed_rows(database) -> dict[str, list]:
    """Rows per predicate in enumeration order, each value with its type
    (``1 == 1.0 == True``, so plain row equality cannot see a change)."""
    return {
        relation.name: [
            tuple((type(value), value) for value in row) for row in relation
        ]
        for relation in database.relations()
    }


def _database(source: str) -> Database:
    database = Database()
    database.add_atoms(parse_program(source).facts)
    return database


def _mixed_types() -> Database:
    """Values equal as dict keys but of different types, across relations
    and within one relation."""
    database = Database()
    database.relation("p", 1).add((1,))
    database.relation("q", 1).add((1.0,))
    database.relation("r", 1).add((True,))
    mixed = database.relation("m", 2)
    mixed.add((1, "a"))
    mixed.add((1.0, "b"))
    return database


def _answers(prepared, goal):
    result = prepared.execute(goal)
    return [str(atom) for atom in result.answers]


# --- database round-trips -----------------------------------------------------

class TestDatabaseRoundTrip:
    # Ids keep the ``tuples`` segment: it names the relation backend the
    # dump is taken from and loaded into.
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"{seed}-tuples")
    def test_random_programs_round_trip(self, seed):
        database = _database(random_source(seed))
        restored, header = load_database(dump_database(database))
        assert "storage" not in header
        assert _typed_rows(restored) == _typed_rows(database)
        assert database_fingerprint(restored) == database_fingerprint(database)

    def test_insertion_order_preserved(self):
        database = _database("e(z, y). e(a, b). e(m, n).")
        restored, _ = load_database(dump_database(database))
        assert list(restored.relation("e")) == list(database.relation("e"))

    def test_equal_values_of_different_types_keep_their_types(self):
        database = _mixed_types()
        restored, _ = load_database(dump_database(database))
        assert _typed_rows(restored) == _typed_rows(database)
        snapshot = freeze_database(database)
        try:
            frozen, _ = load_database(snapshot.data)
            assert _typed_rows(frozen) == _typed_rows(database)
        finally:
            snapshot.close()
            snapshot.unlink()

    def test_value_table_lists_each_typed_constant_once(self):
        database = _mixed_types()
        database.relation("e", 2).add(("a", 1))
        _, header = load_database(dump_database(database))
        assert header["values"] == [
            ["i", 1], ["f", "1.0"], ["b", True], ["s", "a"], ["s", "b"],
        ]

    def test_non_string_constants_round_trip(self):
        database = Database()
        values = (None, False, 0, -7, 2**40, 0.5, float("inf"), "", "x y")
        database.relation("v", 1).add_all((value,) for value in values)
        restored, _ = load_database(dump_database(database))
        assert _typed_rows(restored) == _typed_rows(database)

    def test_extra_header_round_trips(self):
        database = _database("e(a, b).")
        extra = {"program": "p(X) :- e(X, Y).", "version": 3}
        _, header = load_database(dump_database(database, extra=extra))
        assert header["extra"] == extra

    def test_fingerprint_is_order_independent(self):
        left = _database("e(a, b). e(c, d).")
        right = _database("e(c, d). e(a, b).")
        assert database_fingerprint(left) == database_fingerprint(right)

    def test_fingerprint_sees_fact_changes(self):
        left = _database("e(a, b).")
        right = _database("e(a, c).")
        assert database_fingerprint(left) != database_fingerprint(right)


# --- prepared round-trips -----------------------------------------------------

class TestPreparedRoundTrip:
    @pytest.mark.parametrize(
        "strategy", TRANSFORMS + ("seminaive",),
        ids=lambda strategy: f"tuples-{strategy}",
    )
    def test_answers_and_identity(self, strategy):
        program = parse_program(random_source(3))
        prepared = prepare_query(program, "p(X, Y)?", strategy=strategy)
        restored = load_prepared(dump_prepared(prepared))
        assert restored.strategy == prepared.strategy
        assert restored.mode == prepared.mode
        assert restored.adornment == prepared.adornment
        assert restored.key == prepared.key
        assert restored.prepare_stats.as_dict() == (
            prepared.prepare_stats.as_dict()
        )
        assert _answers(restored, "p(X, Y)?") == _answers(prepared, "p(X, Y)?")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_programs_bit_identical(self, seed):
        program = parse_program(random_source(seed))
        prepared = prepare_query(program, "q(X, Y)?", strategy="alexander")
        restored = load_prepared(dump_prepared(prepared))
        assert _answers(restored, "q(X, Y)?") == _answers(prepared, "q(X, Y)?")
        assert _answers(restored, "q(c0, Y)?") == _answers(
            prepared, "q(c0, Y)?"
        )

    def test_compiled_plans_identical(self):
        program = parse_program(
            "e(a, b). e(b, c). e(c, d). f(a, c).\n"
            "p(X, Y) :- e(X, Y).\n"
            "p(X, Z) :- e(X, Y), p(Y, Z), f(X, Z).\n"
        )
        prepared = prepare_query(
            program, "p(a, Y)?", strategy="magic", planner="greedy"
        )
        assert prepared.fixpoint is not None
        restored = load_prepared(dump_prepared(prepared))
        original = {
            id(rule): [cl.source for cl in compiled.body]
            for compiled, _ in _executors(prepared.fixpoint)
            for rule, compiled in ((compiled.rule, compiled),)
        }
        for compiled, _ in _executors(restored.fixpoint):
            sources = [cl.source for cl in compiled.body]
            # Rules re-parsed from text are equal (not identical) objects;
            # match by rule equality, then compare the body permutation.
            matches = [
                body
                for rule_id, body in original.items()
                if _rule_of(prepared.fixpoint, rule_id) == compiled.rule
            ]
            assert any(
                [str(lit) for lit in sources]
                == [str(lit) for lit in body]
                for body in matches
            )

    def test_load_does_zero_prepare_work(self):
        program = parse_program(random_source(2))
        prepared = prepare_query(program, "p(X, Y)?", strategy="alexander")
        data = dump_prepared(prepared)
        with collect(Metrics()) as metrics:
            load_prepared(data)
        counters = metrics.counters
        assert counters.get("prepare.transforms", 0) == 0
        assert counters.get("prepare.compiles", 0) == 0
        assert counters.get("transform.rewritings", 0) == 0
        assert counters.get("planner.rules_planned", 0) == 0
        assert counters.get("snapshot.loads", 0) >= 1

    def test_equal_values_of_different_types_keep_their_types(self):
        program = parse_program("t(X, Y) :- m(X, Y).")
        prepared = prepare_query(
            program, "t(X, Y)?", database=_mixed_types(), strategy="alexander"
        )
        restored = load_prepared(dump_prepared(prepared))
        assert _typed_rows(restored.base) == _typed_rows(prepared.base)
        answers = restored.execute("t(X, Y)?").answers
        assert [type(atom.args[0].value) for atom in answers] == [int, float]
        assert answers == prepared.execute("t(X, Y)?").answers

    def test_maintained_shapes_are_not_serializable(self):
        program = parse_program("e(a, b). p(X, Y) :- e(X, Y).")
        prepared = prepare_query(
            program, "p(X, Y)?", strategy="seminaive", maintain="counting"
        )
        with pytest.raises(SnapshotError, match="maintained"):
            dump_prepared(prepared)


def _version_1(header: dict, payload: bytes) -> bytes:
    """*header* and *payload* framed as a format-version-1 snapshot."""
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"".join(
        [struct.pack("<4sHHI", b"RPQS", 1, 1, len(text)), text, payload]
    )


def _executors(fixpoint):
    if fixpoint.scheduler != "global":
        return [pair for cc in fixpoint.components for pair in cc.executors]
    return list(fixpoint.executors)


def _rule_of(fixpoint, rule_id):
    for compiled, _ in _executors(fixpoint):
        if id(compiled.rule) == rule_id:
            return compiled.rule
    return None


# --- version gating -----------------------------------------------------------

class TestVersionGating:
    def _dump(self) -> bytes:
        return dump_database(_database("e(a, b). e(b, c)."))

    def test_bad_magic_rejected(self):
        data = bytearray(self._dump())
        data[:4] = b"XXXX"
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_database(bytes(data))

    def test_bumped_format_version_rejected(self):
        data = bytearray(self._dump())
        data[4:6] = struct.pack("<H", SNAPSHOT_FORMAT_VERSION + 1)
        with pytest.raises(SnapshotFormatError) as excinfo:
            load_database(bytes(data))
        assert str(SNAPSHOT_FORMAT_VERSION + 1) in str(excinfo.value)

    def test_bumped_value_table_version_rejected(self):
        data = bytearray(self._dump())
        data[6:8] = struct.pack("<H", VALUE_TABLE_FORMAT_VERSION + 1)
        with pytest.raises(SnapshotFormatError) as excinfo:
            load_database(bytes(data))
        assert str(VALUE_TABLE_FORMAT_VERSION + 1) in str(excinfo.value)

    def test_version_1_dump_rejected(self):
        header, payload = parse_snapshot(self._dump())
        header["interner"] = header.pop("values")
        for storage in ("tuples", "columnar"):
            header["storage"] = storage
            data = _version_1(header, bytes(payload))
            with pytest.raises(SnapshotFormatError, match="version 1"):
                load_database(data)

    def test_truncated_payload_rejected(self):
        data = self._dump()
        with pytest.raises(SnapshotFormatError, match="truncat"):
            load_database(data[:-5])

    def test_truncated_header_rejected(self):
        data = self._dump()
        with pytest.raises(SnapshotFormatError):
            load_database(data[:10])

    def test_prepared_rejects_database_dump(self):
        with pytest.raises(SnapshotFormatError, match="kind"):
            load_prepared(self._dump())

    def test_value_table_must_not_repeat_a_typed_value(self):
        from repro.core.snapshot import _assemble

        header, payload = parse_snapshot(self._dump())
        header["values"] = [["i", 1], ["f", "1.0"], ["b", True], ["s", "a"]]
        load_database(_assemble(header, [bytes(payload)]))  # all distinct
        header["values"].append(["f", "1.0"])
        with pytest.raises(SnapshotFormatError, match="repeats 1.0"):
            load_database(_assemble(header, [bytes(payload)]))

    def test_prepared_tamper_never_garbage(self):
        program = parse_program("e(a, b). p(X, Y) :- e(X, Y).")
        data = bytearray(dump_prepared(prepare_query(program, "p(X, Y)?")))
        data[4:6] = struct.pack("<H", SNAPSHOT_FORMAT_VERSION + 9)
        with pytest.raises(SnapshotFormatError):
            load_prepared(bytes(data))


# --- shared memory ------------------------------------------------------------

class TestSharedSnapshot:
    def test_freeze_attach_round_trip(self):
        database = _database(random_source(1))
        snapshot = freeze_database(database, extra={"dataset": "d"})
        try:
            attached = SharedSnapshot.attach(snapshot.name, snapshot.size)
            restored, header = load_database(attached.data)
            assert header["extra"] == {"dataset": "d"}
            assert _facts(restored) == _facts(database)
            attached.close()
        finally:
            snapshot.close()
            snapshot.unlink()

    def test_attach_unknown_name_is_clear(self):
        with pytest.raises(SnapshotError, match="no longer exists"):
            SharedSnapshot.attach("repro-does-not-exist", 128)

    def test_attacher_cannot_unlink(self):
        database = _database("e(a, b).")
        snapshot = freeze_database(database)
        try:
            attached = SharedSnapshot.attach(snapshot.name, snapshot.size)
            attached.unlink()  # non-owner: must be a no-op
            attached.close()
            again = SharedSnapshot.attach(snapshot.name, snapshot.size)
            again.close()
        finally:
            snapshot.close()
            snapshot.unlink()


# --- registry -----------------------------------------------------------------

class TestShapeRegistry:
    PROGRAM = "e(a, b). e(b, c). p(X, Y) :- e(X, Y). p(X, Z) :- e(X, Y), p(Y, Z)."

    def _prepared(self):
        return prepare_query(parse_program(self.PROGRAM), "p(a, X)?")

    def test_save_then_load_hits(self, tmp_path):
        from repro.serve.registry import ShapeRegistry

        registry = ShapeRegistry(tmp_path)
        prepared = self._prepared()
        assert registry.save(prepared.key, "fp", prepared)
        loaded = registry.load(prepared.key, "fp")
        assert loaded is not None
        assert _answers(loaded, "p(a, X)?") == _answers(prepared, "p(a, X)?")
        assert registry.stats()["entries"] == 1

    def test_miss_on_unknown_key(self, tmp_path):
        from repro.serve.registry import ShapeRegistry

        registry = ShapeRegistry(tmp_path)
        assert registry.load(("nope",), "fp") is None

    def test_data_fingerprint_rekeys(self, tmp_path):
        from repro.serve.registry import ShapeRegistry

        registry = ShapeRegistry(tmp_path)
        prepared = self._prepared()
        registry.save(prepared.key, "fp-1", prepared)
        assert registry.load(prepared.key, "fp-2") is None

    def test_corrupt_entry_falls_back_to_miss(self, tmp_path):
        from repro.serve.registry import ShapeRegistry, shape_digest

        registry = ShapeRegistry(tmp_path)
        prepared = self._prepared()
        registry.save(prepared.key, "fp", prepared)
        path = registry.path(shape_digest(prepared.key, "fp"))
        path.write_bytes(b"RPQS garbage")
        assert registry.load(prepared.key, "fp") is None

    def test_version_bumped_entry_rejected_not_garbage(self, tmp_path):
        from repro.serve.registry import ShapeRegistry, shape_digest

        registry = ShapeRegistry(tmp_path)
        prepared = self._prepared()
        registry.save(prepared.key, "fp", prepared)
        path = registry.path(shape_digest(prepared.key, "fp"))
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", SNAPSHOT_FORMAT_VERSION + 1)
        path.write_bytes(bytes(data))
        # An incompatible serialized shape is *rejected* (a miss), never
        # deserialized into wrong answers.
        assert registry.load(prepared.key, "fp") is None

    def test_removed_scheduler_entry_is_skipped_and_re_prepared(self, tmp_path):
        from repro.core.snapshot import _assemble, parse_snapshot
        from repro.serve import QueryService

        with collect(Metrics()):
            warm = QueryService(registry=tmp_path)
            warm.load("db", self.PROGRAM)
            expected = warm.query("db", "p(a, X)?")["answers"]
        (path,) = tmp_path.glob("*.rpqs")
        header, payload = parse_snapshot(path.read_bytes())
        header["prepared"]["fixpoint"]["scheduler"] = "parallel"
        data = _assemble(header, [bytes(payload)])
        path.write_bytes(data)
        with pytest.raises(SnapshotFormatError, match="'parallel' was removed"):
            load_prepared(data)
        # A fresh service over the same registry skips the entry and
        # prepares from scratch, with the same answers.
        with collect(Metrics()) as metrics:
            restarted = QueryService(registry=tmp_path)
            restarted.load("db", self.PROGRAM)
            assert restarted.query("db", "p(a, X)?")["answers"] == expected
        counters = metrics.snapshot()["counters"]
        assert counters["serve.registry.rejected"] == 1
        assert counters.get("serve.registry.hits", 0) == 0
        assert counters["prepare.transforms"] == 1

    def test_version_1_entry_is_skipped_and_re_prepared(self, tmp_path):
        from repro.serve import QueryService

        with collect(Metrics()):
            warm = QueryService(registry=tmp_path)
            warm.load("db", self.PROGRAM)
            expected = warm.query("db", "p(a, X)?")["answers"]
        (path,) = tmp_path.glob("*.rpqs")
        header, payload = parse_snapshot(path.read_bytes())
        header["interner"] = header.pop("values")
        header["storage"] = "columnar"
        header["prepared"]["fixpoint"]["storage"] = "columnar"
        data = _version_1(header, bytes(payload))
        path.write_bytes(data)
        with pytest.raises(SnapshotFormatError, match="version 1"):
            load_prepared(data)
        # A fresh service over the same registry skips the entry and
        # prepares from scratch, with the same answers.
        with collect(Metrics()) as metrics:
            restarted = QueryService(registry=tmp_path)
            restarted.load("db", self.PROGRAM)
            assert restarted.query("db", "p(a, X)?")["answers"] == expected
        counters = metrics.snapshot()["counters"]
        assert counters["serve.registry.rejected"] == 1
        assert counters.get("serve.registry.hits", 0) == 0
        assert counters["prepare.transforms"] == 1

    def test_maintained_shapes_are_skipped(self, tmp_path):
        from repro.serve.registry import ShapeRegistry

        registry = ShapeRegistry(tmp_path)
        prepared = prepare_query(
            parse_program(self.PROGRAM), "p(a, X)?", strategy="seminaive",
            maintain="dred",
        )
        assert not registry.save(prepared.key, "fp", prepared)
        assert registry.stats()["entries"] == 0
