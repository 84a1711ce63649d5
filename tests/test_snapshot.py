"""Snapshot format tests: round-trips, version gating, shared memory.

The database snapshot format (:mod:`repro.core.snapshot`) is how the
multiprocess server ships datasets to its workers through shared
memory, so two properties are load-bearing:

* **bit-identity** — a round-tripped database holds exactly the
  original fact set, every constant with its original type, in the
  original insertion order;
* **fail-closed versioning** — a bumped format or value-table version, a
  corrupt header, or a truncated payload raises
  :class:`~repro.core.snapshot.SnapshotFormatError` with a clear
  message.  Never garbage answers.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    VALUE_TABLE_FORMAT_VERSION,
    SharedSnapshot,
    SnapshotError,
    SnapshotFormatError,
    dump_database,
    freeze_database,
    load_database,
    parse_snapshot,
)
from repro.datalog.parser import parse_program
from repro.facts.database import Database

from .test_reference import SEEDS, random_source

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

def _version_1(header: dict, payload: bytes) -> bytes:
    """*header* and *payload* framed as a format-version-1 snapshot."""
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"".join(
        [struct.pack("<4sHHI", b"RPQS", 1, 1, len(text)), text, payload]
    )


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

    def test_value_table_must_not_repeat_a_typed_value(self):
        from repro.core.snapshot import _assemble

        header, payload = parse_snapshot(self._dump())
        header["values"] = [["i", 1], ["f", "1.0"], ["b", True], ["s", "a"]]
        load_database(_assemble(header, [bytes(payload)]))  # all distinct
        header["values"].append(["f", "1.0"])
        with pytest.raises(SnapshotFormatError, match="repeats 1.0"):
            load_database(_assemble(header, [bytes(payload)]))

    def test_a_prepared_shape_dump_is_not_a_database(self):
        from repro.core.snapshot import _assemble

        header, payload = parse_snapshot(self._dump())
        header["kind"] = "prepared"
        with pytest.raises(SnapshotFormatError, match="'prepared' is not a database dump"):
            load_database(_assemble(header, [bytes(payload)]))

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
