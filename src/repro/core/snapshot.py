"""Database snapshots: a versioned, pickle-free binary format.

The multiprocess server (:mod:`repro.serve.pool`) keeps every dataset
in the dispatcher and hands each published version to its workers as a
snapshot of the facts in one :mod:`multiprocessing.shared_memory`
block, which workers attach and decode without copying the byte
payload.

Three design rules govern the format:

* **Pickle-free.**  Loading a pickle executes whatever the bytes say —
  unacceptable for a block any process on the host may write, and
  brittle across refactors.  The format here is a versioned header
  (JSON, UTF-8) plus raw column blocks; loading never constructs
  anything but the library's own value types.
* **Bit-identity, not equivalence.**  A reloaded database must answer
  byte-for-byte like the original: same answers, same enumeration
  order, same inference counters.  That is why every constant reloads
  as the value *and type* that was stored (``1``, ``1.0`` and ``True``
  keep separate value-table entries) and why relation rows are written
  in insertion order (enumeration order survives the trip).
* **Versioned, rejected loudly.**  The header carries a format version
  and a value-table encoding version; a mismatch on either — or a byte
  order / item size the reader cannot honour — raises
  :class:`SnapshotFormatError` with a clear message.  Garbage answers
  from a silently misread snapshot are the one failure mode this module
  must never have (``tests/test_snapshot.py`` pins the rejections).

Binary layout::

    b"RPQS" | u16 format | u16 value-table-format | u32 header-length
    | header (UTF-8 JSON) | column blocks (array('q') bytes, in the
    order of the header's "blocks" manifest)

Rows are dictionary-encoded: the header's ``"values"`` table lists every
distinct constant once, and each relation column is one block of
``array('q')`` indices into it — ``array.tobytes()`` on the way out,
``memoryview.cast("q")`` on the way in.  :func:`freeze_database` places
the entire serialized image in one
:class:`multiprocessing.shared_memory.SharedMemory` block; workers
attach by name and decode straight out of the shared buffer.

Observability: ``snapshot.dumps`` / ``snapshot.loads`` /
``snapshot.bytes`` count serialization work, ``snapshot.shared.*`` the
shared-memory lifecycle.
"""

from __future__ import annotations

import json
import secrets
import struct
import sys
import threading
from array import array
from contextlib import contextmanager

from ..errors import ReproError
from ..facts.database import Database
from ..obs import get_metrics

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_FORMAT_VERSION",
    "VALUE_TABLE_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "dump_database",
    "load_database",
    "SharedSnapshot",
    "freeze_database",
]

SNAPSHOT_MAGIC = b"RPQS"
SNAPSHOT_FORMAT_VERSION = 4
VALUE_TABLE_FORMAT_VERSION = 1

_ITEMSIZE = array("q").itemsize  # 8 on every supported platform
_PREFIX = struct.Struct("<4sHHI")


class SnapshotError(ReproError):
    """A value this format cannot represent, or a shared block that no
    longer exists."""


class SnapshotFormatError(SnapshotError):
    """Bytes that are not a loadable snapshot: wrong magic, a bumped
    format or value-table version, a foreign byte order, or truncation."""


# --- the value table ---------------------------------------------------------
#
# Constants are serialized as (tag, payload) pairs so the reader rebuilds
# *exactly* the value that was stored — JSON alone would collapse
# 1 / 1.0 / True into one number.  Floats go through repr() for exact
# round-tripping (including inf/-inf, which JSON cannot carry).

def _encode_value(value) -> list:
    if value is None:
        return ["n"]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", repr(value)]
    if isinstance(value, str):
        return ["s", value]
    raise SnapshotError(
        f"constant {value!r} of type {type(value).__name__} has no "
        "snapshot encoding (str, int, float, bool, None only)"
    )


def _decode_value(entry: list):
    tag = entry[0]
    if tag == "n":
        return None
    if tag == "b":
        return bool(entry[1])
    if tag == "i":
        return int(entry[1])
    if tag == "f":
        return float(entry[1])
    if tag == "s":
        return entry[1]
    raise SnapshotFormatError(f"unknown constant tag {tag!r} in snapshot")


def _encode_relations(database: Database) -> tuple[list, list]:
    """``(values, columns)``: the value table (encoded, in first-seen
    order) and, per relation, ``(relation, id blocks)`` with one
    ``array('q')`` per column, rows in insertion order.

    The table is keyed on ``(type, value)``: ``1``, ``1.0`` and ``True``
    are one dict key but three constants, and each must reload as itself.
    """
    ids: dict = {}
    values: list = []
    columns = []
    for relation in database.relations():
        blocks = [array("q") for _ in range(relation.arity)]
        for row in relation:
            for block, value in zip(blocks, row):
                key = (type(value), value)
                ident = ids.get(key)
                if ident is None:
                    ident = ids[key] = len(values)
                    values.append(value)
                block.append(ident)
        columns.append((relation, blocks))
    return [_encode_value(value) for value in values], columns


def _decode_values(table: list) -> list:
    """The id -> value list of a serialized value table.

    Raises:
        SnapshotFormatError: when two entries decode to the same typed
            value — the writer never repeats one, so the bytes are
            corrupt.
    """
    values = []
    seen = set()
    for entry in table:
        value = _decode_value(entry)
        key = (type(value), value)
        if key in seen:
            raise SnapshotFormatError(
                f"snapshot value table repeats {value!r} "
                f"({type(value).__name__})"
            )
        seen.add(key)
        values.append(value)
    return values


# --- databases ---------------------------------------------------------------

def _database_header(database: Database) -> tuple[dict, list[bytes]]:
    """The header fields and ordered column blocks describing *database*."""
    values, columns = _encode_relations(database)
    relations = []
    blocks: list[bytes] = []
    manifest = []
    for relation, relation_blocks in columns:
        relations.append(
            {"name": relation.name, "arity": relation.arity, "rows": len(relation)}
        )
        for column_index, column in enumerate(relation_blocks):
            data = column.tobytes()
            manifest.append([relation.name, column_index, len(data)])
            blocks.append(data)
    header = {"values": values, "relations": relations, "blocks": manifest}
    return header, blocks


def _assemble(header: dict, blocks: list[bytes]) -> bytes:
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = _PREFIX.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_FORMAT_VERSION,
        VALUE_TABLE_FORMAT_VERSION,
        len(header_bytes),
    )
    payload = b"".join([prefix, header_bytes, *blocks])
    obs = get_metrics()
    if obs.enabled:
        obs.incr("snapshot.dumps")
        obs.incr("snapshot.bytes", len(payload))
    return payload


def parse_snapshot(data) -> tuple[dict, memoryview]:
    """Split snapshot *data* into its header and block payload.

    Accepts ``bytes`` or any buffer (a shared-memory view); the returned
    memoryview aliases *data*, so blocks decode without an intermediate
    copy.  Raises :class:`SnapshotFormatError` on anything unreadable.
    """
    view = memoryview(data).cast("B")
    if len(view) < _PREFIX.size:
        raise SnapshotFormatError(
            f"snapshot truncated: {len(view)} bytes is shorter than the "
            f"{_PREFIX.size}-byte prefix"
        )
    magic, fmt, table_fmt, header_len = _PREFIX.unpack_from(view, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(
            f"not a snapshot: expected magic {SNAPSHOT_MAGIC!r}, "
            f"got {bytes(magic)!r}"
        )
    if fmt != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot format version {fmt} is not supported (this build "
            f"reads version {SNAPSHOT_FORMAT_VERSION}); dump it again with "
            "this build"
        )
    if table_fmt != VALUE_TABLE_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot value-table encoding version {table_fmt} is not "
            f"supported (this build reads version "
            f"{VALUE_TABLE_FORMAT_VERSION}); dump it again with this build"
        )
    body_start = _PREFIX.size + header_len
    if len(view) < body_start:
        raise SnapshotFormatError(
            f"snapshot truncated: header claims {header_len} bytes, "
            f"only {len(view) - _PREFIX.size} present"
        )
    try:
        header = json.loads(bytes(view[_PREFIX.size:body_start]).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotFormatError(f"snapshot header is not valid JSON: {exc}")
    if not isinstance(header, dict):
        raise SnapshotFormatError("snapshot header must be a JSON object")
    if header.get("byteorder") != sys.byteorder:
        raise SnapshotFormatError(
            f"snapshot byte order {header.get('byteorder')!r} does not "
            f"match this host ({sys.byteorder!r})"
        )
    if header.get("itemsize") != _ITEMSIZE:
        raise SnapshotFormatError(
            f"snapshot item size {header.get('itemsize')!r} does not "
            f"match this host's array('q') ({_ITEMSIZE})"
        )
    total = sum(length for _, _, length in header.get("blocks", ()))
    if len(view) - body_start < total:
        raise SnapshotFormatError(
            f"snapshot truncated: blocks claim {total} bytes, "
            f"only {len(view) - body_start} present"
        )
    return header, view[body_start:]


def _decode_relations(header: dict, payload: memoryview) -> Database:
    """Rebuild the database described by *header* from *payload* blocks,
    rows in their original insertion order."""
    database = Database()
    values = _decode_values(header.get("values", ()))
    arities = {
        spec["name"]: spec["arity"] for spec in header.get("relations", ())
    }
    row_counts = {
        spec["name"]: spec["rows"] for spec in header.get("relations", ())
    }
    columns_by_relation: dict[str, list] = {name: [] for name in arities}
    offset = 0
    for name, column_index, length in header.get("blocks", ()):
        block = payload[offset:offset + length]
        offset += length
        if name not in arities:
            raise SnapshotFormatError(
                f"snapshot block references unknown relation {name!r}"
            )
        if length % _ITEMSIZE:
            raise SnapshotFormatError(
                f"snapshot block for {name!r} column {column_index} has "
                f"length {length}, not a multiple of {_ITEMSIZE}"
            )
        columns_by_relation[name].append(block.cast("q"))
    for name, arity in arities.items():
        relation = database.relation(name, arity)
        columns = columns_by_relation[name]
        rows = row_counts[name]
        if len(columns) != arity or any(len(c) != rows for c in columns):
            raise SnapshotFormatError(
                f"snapshot relation {name!r} expects {arity} columns of "
                f"{rows} rows; blocks do not agree"
            )
        if arity == 0:
            continue
        for row in zip(*columns):
            relation.add(tuple([values[ident] for ident in row]))
    return database


def dump_database(database: Database, extra: "dict | None" = None) -> bytes:
    """Serialize *database* to snapshot bytes.

    *extra* is an arbitrary JSON-able mapping stored under the header's
    ``"extra"`` key — the multiprocess server uses it to ship the
    dataset's program text, name and version in the same shared-memory
    block as the facts.
    """
    header, blocks = _database_header(database)
    header["kind"] = "database"
    header["byteorder"] = sys.byteorder
    header["itemsize"] = _ITEMSIZE
    if extra is not None:
        header["extra"] = extra
    return _assemble(header, blocks)


def load_database(data) -> tuple[Database, dict]:
    """Decode snapshot *data* back into a database; returns ``(db, header)``."""
    header, payload = parse_snapshot(data)
    if header.get("kind") != "database":
        raise SnapshotFormatError(
            f"snapshot kind {header.get('kind')!r} is not a database dump"
        )
    database = _decode_relations(header, payload)
    obs = get_metrics()
    if obs.enabled:
        obs.incr("snapshot.loads")
    return database, header


# --- shared memory -----------------------------------------------------------

class SharedSnapshot:
    """A serialized snapshot resident in one shared-memory block.

    The parent process :meth:`create`\\ s the block (one copy of the
    serialized bytes into the shared buffer); workers :meth:`attach` by
    name and hand :attr:`data` — a memoryview directly over the shared
    buffer — to :func:`load_database`, so the
    byte payload itself is never copied between processes.

    Lifetime discipline: the creator owns :meth:`unlink`; attachers only
    ever :meth:`close`.  Attaching deliberately unregisters the segment
    from the process-local :mod:`multiprocessing.resource_tracker` —
    otherwise a worker's tracker would *unlink the parent's live block*
    when that worker exits (the tracker assumes whoever registered a
    segment owns it), destroying the dataset under every other process.
    """

    __slots__ = ("_shm", "_size", "_owner")

    def __init__(self, shm, size: int, owner: bool):
        self._shm = shm
        self._size = size
        self._owner = owner

    @classmethod
    def create(cls, data: bytes, name: "str | None" = None) -> "SharedSnapshot":
        from multiprocessing import shared_memory

        name = name or f"repro-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=len(data))
        shm.buf[: len(data)] = data
        obs = get_metrics()
        if obs.enabled:
            obs.incr("snapshot.shared.created")
            obs.incr("snapshot.shared.bytes", len(data))
        return cls(shm, len(data), owner=True)

    @classmethod
    def attach(cls, name: str, size: int) -> "SharedSnapshot":
        from multiprocessing import shared_memory

        try:
            with _attach_untracked():
                shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise SnapshotError(
                f"shared snapshot {name!r} no longer exists (retired by a "
                "newer dataset version?)"
            )
        obs = get_metrics()
        if obs.enabled:
            obs.incr("snapshot.shared.attached")
        return cls(shm, size, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return self._size

    @property
    def data(self) -> memoryview:
        """The serialized snapshot bytes, aliasing the shared buffer.

        Shared-memory blocks round up to the allocation granularity, so
        the view is trimmed to the exact serialized length recorded at
        create/attach time.
        """
        return self._shm.buf[: self._size]

    def close(self) -> None:
        try:
            self._shm.close()
        except BufferError:
            # A decoded view still aliases the buffer; the OS reclaims
            # the mapping at process exit either way.
            pass

    def unlink(self) -> None:
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        obs = get_metrics()
        if obs.enabled:
            obs.incr("snapshot.shared.unlinked")

    def __repr__(self) -> str:
        return f"SharedSnapshot({self.name!r}, {self._size} bytes)"


_TRACKER_LOCK = threading.Lock()


@contextmanager
def _attach_untracked():
    """Suppress resource-tracker registration for the duration.

    ``SharedMemory(name=...)`` registers the segment with the process's
    resource tracker, which assumes the registrant owns it and unlinks
    it when the process exits — so a restarting worker would destroy
    the dispatcher's live block (bpo-39959).  Worse, spawn children
    share the parent's tracker daemon, so even a polite ``unregister``
    after the fact removes the *parent's* registration and turns the
    parent's own unlink into a tracker-side traceback.  Attachers are
    never owners here, so the clean fix is to keep the tracker out of
    the attach entirely.  (Python 3.13+ has ``track=False`` for exactly
    this; this shim covers the older runtimes.)
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - platform without tracker
        yield
        return
    with _TRACKER_LOCK:
        original = resource_tracker.register

        def register(name, rtype):
            if rtype != "shared_memory":
                original(name, rtype)

        resource_tracker.register = register
        try:
            yield
        finally:
            resource_tracker.register = original


def freeze_database(
    database: Database, extra: "dict | None" = None
) -> SharedSnapshot:
    """Serialize *database* into a fresh shared-memory block.

    The returned snapshot is immutable by convention: the serving layer
    treats dataset databases as frozen once published, and workers only
    ever read the block.  The caller owns the block's lifetime
    (:meth:`SharedSnapshot.unlink` when the dataset version retires).
    """
    return SharedSnapshot.create(dump_database(database, extra=extra))
