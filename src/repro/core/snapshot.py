"""Serialized prepared shapes: a versioned, pickle-free binary format.

The serving layer's prepared-query cache (:mod:`repro.serve.cache`)
lives inside one process.  This module is what lets prepared shapes
cross process boundaries — to worker processes of the multiprocess
server (:mod:`repro.serve.pool`), to an on-disk shape registry
(:mod:`repro.serve.registry`), and into
:mod:`multiprocessing.shared_memory` blocks that workers attach without
copying the byte payload.

Three design rules govern the format:

* **Pickle-free.**  Pickle would happily serialize a
  :class:`~repro.core.prepare.PreparedQuery`, but loading a pickle
  executes whatever the bytes say — unacceptable for an on-disk registry
  shared between processes, and brittle across refactors.  The format
  here is a versioned header (JSON, UTF-8) plus raw column blocks;
  loading never constructs anything but the library's own value types.
* **Bit-identity, not equivalence.**  A reloaded shape must answer
  byte-for-byte like the original: same answers, same enumeration order,
  same inference counters.  That is why every constant reloads as the
  value *and type* that was stored (``1``, ``1.0`` and ``True`` keep
  separate value-table entries), why relation rows are written in
  insertion order (enumeration order survives the trip), and why join
  plans are stored as explicit body permutations (reloading never
  re-runs the planner — ``planner.rules_planned`` and
  ``transform.rewritings`` stay flat).
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
shared-memory lifecycle.  Rehydrating a prepared shape re-lowers its
kernels (``kernel.rules_compiled`` moves) but runs **zero** transform,
planning, or fixpoint compilation — ``prepare.transforms`` and
``prepare.compiles`` stay flat, which is exactly what the cross-process
registry exists to buy.
"""

from __future__ import annotations

import hashlib
import json
import secrets
import struct
import sys
import threading
from array import array
from contextlib import contextmanager

from ..datalog.parser import parse_program, parse_query
from ..datalog.rules import Program
from ..engine.counters import EvaluationStats
from ..engine.kernel import compile_executors, resolve_executor
from ..engine.matching import compile_rule_ordered
from ..engine.prepared import CompiledComponent, CompiledFixpoint
from ..engine.scheduler import build_schedule, resolve_scheduler
from ..engine.seminaive import _variant_positions
from ..errors import ReproError
from ..facts.database import Database
from ..obs import get_metrics
from ..transform.common import TransformedProgram

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_FORMAT_VERSION",
    "VALUE_TABLE_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "dump_database",
    "load_database",
    "dump_prepared",
    "load_prepared",
    "SharedSnapshot",
    "freeze_database",
    "database_fingerprint",
]

SNAPSHOT_MAGIC = b"RPQS"
SNAPSHOT_FORMAT_VERSION = 2
VALUE_TABLE_FORMAT_VERSION = 1

_ITEMSIZE = array("q").itemsize  # 8 on every supported platform
_PREFIX = struct.Struct("<4sHHI")


class SnapshotError(ReproError):
    """A value or shape this format cannot represent (e.g. a maintained
    shape, whose live engine has no serialized form)."""


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


def database_fingerprint(database: "Database | None") -> str:
    """An order-independent digest of a database's decoded fact set.

    Keys the cross-process shape registry together with the prepared
    cache key: two datasets with the same rules *and* the same facts may
    share serialized shapes, any difference must not.
    """
    digest = hashlib.sha256()
    if database is None:
        return digest.hexdigest()
    for name in sorted(database.predicates()):
        relation = database.relation(name)
        digest.update(f"{name}/{relation.arity}\x00".encode("utf-8"))
        for row in sorted(repr(row) for row in relation):
            digest.update(row.encode("utf-8"))
            digest.update(b"\x01")
    return digest.hexdigest()


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
            f"reads version {SNAPSHOT_FORMAT_VERSION}); re-prepare and "
            "re-save the shape"
        )
    if table_fmt != VALUE_TABLE_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot value-table encoding version {table_fmt} is not "
            f"supported (this build reads version "
            f"{VALUE_TABLE_FORMAT_VERSION}); re-prepare and re-save the shape"
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
    dataset's program text, name, version, and data fingerprint in the
    same shared-memory block as the facts.
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
    if header.get("kind") not in ("database", "prepared"):
        raise SnapshotFormatError(
            f"snapshot kind {header.get('kind')!r} is not a database dump"
        )
    database = _decode_relations(header, payload)
    obs = get_metrics()
    if obs.enabled:
        obs.incr("snapshot.loads")
    return database, header


# --- prepared queries --------------------------------------------------------

def _plan_permutations(fixpoint: CompiledFixpoint) -> list[list[int]]:
    """Each rule's compiled body order, as indices into its textual body.

    The permutation is recovered through ``CompiledLiteral.source`` —
    the compiler threads the original literal objects through, so an
    identity scan maps every compiled position back to its textual one.
    Storing the order explicitly is what lets :func:`load_prepared`
    rebuild identical join plans without re-running the planner.
    """
    pairs = (
        [pair for cc in fixpoint.components for pair in cc.executors]
        if fixpoint.scheduler != "global"
        else list(fixpoint.executors)
    )
    compiled_by_rule = {id(cr.rule): cr for cr, _ in pairs}
    permutations = []
    for rule in fixpoint.program.rules:
        compiled = compiled_by_rule.get(id(rule))
        if compiled is None:
            permutations.append(list(range(len(rule.body))))
            continue
        position_of = {id(literal): i for i, literal in enumerate(rule.body)}
        permutations.append(
            [position_of[id(cl.source)] for cl in compiled.body]
        )
    return permutations


def _rehydrate_fixpoint(
    program: Program,
    plans: list[list[int]],
    executor: str,
    scheduler: str,
) -> CompiledFixpoint:
    """Rebuild a :class:`CompiledFixpoint` from serialized plans.

    Kernels are re-lowered (their closures cannot be serialized) in the
    stored body orders, so every probe is bit-identical.  No planner, no
    transform, no
    :func:`~repro.engine.prepared.compile_fixpoint` — the
    ``prepare.transforms`` / ``prepare.compiles`` counters stay flat.
    """
    try:
        resolve_executor(executor)
        mode = resolve_scheduler(scheduler)
    except ValueError as exc:
        raise SnapshotFormatError(f"snapshot fixpoint meta: {exc}") from None
    if len(plans) != len(program.rules):
        raise SnapshotFormatError(
            f"snapshot carries {len(plans)} join plans for "
            f"{len(program.rules)} rules"
        )
    compiled_by_rule = {}
    for rule, permutation in zip(program.rules, plans):
        if sorted(permutation) != list(range(len(rule.body))):
            raise SnapshotFormatError(
                f"snapshot join plan {permutation} is not a permutation "
                f"of the body of {rule}"
            )
        ordered = tuple(rule.body[index] for index in permutation)
        compiled_by_rule[rule] = compile_rule_ordered(rule, ordered)
    if mode != "global":
        components = []
        for component in build_schedule(program).components:
            compiled_rules = [
                compiled_by_rule[rule] for rule in component.rules
            ]
            components.append(
                CompiledComponent(
                    component,
                    tuple(compile_executors(compiled_rules, executor)),
                )
            )
        return CompiledFixpoint(
            program=program,
            executor=executor,
            scheduler=mode,
            components=tuple(components),
        )
    compiled_rules = [
        compiled_by_rule[rule] for rule in program.proper_rules
    ]
    executors = tuple(compile_executors(compiled_rules, executor))
    derived = program.idb_predicates
    variants = tuple(
        (pair[0], pair[1], _variant_positions(pair[0], derived))
        for pair in executors
    )
    return CompiledFixpoint(
        program=program,
        executor=executor,
        scheduler=mode,
        executors=executors,
        variants=variants,
    )


def _predicate_map(mapping) -> dict:
    return {name: list(pair) for name, pair in mapping.items()}


def dump_prepared(prepared) -> bytes:
    """Serialize a :class:`~repro.core.prepare.PreparedQuery` to bytes.

    Transform and materialised shapes only: a maintained shape holds a
    live :class:`~repro.engine.incremental.IncrementalEngine` whose
    counting/DRed bookkeeping has no serialized form, so it raises
    :class:`SnapshotError` — callers (the shape registry) simply skip
    persisting those.
    """
    if prepared.mode == "maintained":
        raise SnapshotError(
            "maintained shapes hold a live incremental engine and cannot "
            "be serialized; re-prepare with maintain=None to snapshot"
        )
    header, blocks = _database_header(prepared.base)
    fixpoint = prepared.fixpoint
    meta = {
        "strategy": prepared.strategy,
        "mode": prepared.mode,
        "query": str(prepared.query),
        "adornment": prepared.adornment,
        "key": list(prepared.key),
        "prepare_stats": prepared.prepare_stats.as_dict(),
    }
    if prepared.patchable is not None:
        meta["patchable"] = sorted(prepared.patchable)
    if prepared.transformed is not None:
        transformed = prepared.transformed
        meta["transformed"] = {
            "kind": transformed.kind,
            "rules": [str(rule) for rule in transformed.program.rules],
            "goal": str(transformed.goal),
            "seeds": [str(seed) for seed in transformed.seeds],
            "answer_predicate": transformed.answer_predicate,
            "call_predicates": _predicate_map(transformed.call_predicates),
            "answer_predicates": _predicate_map(transformed.answer_predicates),
            "original_query": str(transformed.original_query),
        }
    if fixpoint is not None:
        meta["fixpoint"] = {
            "executor": fixpoint.executor,
            "scheduler": fixpoint.scheduler,
            "plans": _plan_permutations(fixpoint),
        }
    header["kind"] = "prepared"
    header["byteorder"] = sys.byteorder
    header["itemsize"] = _ITEMSIZE
    header["prepared"] = meta
    return _assemble(header, blocks)


def load_prepared(data):
    """Rebuild a :class:`~repro.core.prepare.PreparedQuery` from bytes.

    The result is bit-identical to the shape that was dumped: same base
    fact set in the same insertion order, same join plans, same cache key — so ``execute()`` returns the same
    answers with the same counters (pinned over seeded random programs
    by ``tests/test_snapshot.py``).
    """
    from .prepare import PreparedQuery  # local: prepare imports engine layers

    header, payload = parse_snapshot(data)
    if header.get("kind") != "prepared":
        raise SnapshotFormatError(
            f"snapshot kind {header.get('kind')!r} is not a prepared shape"
        )
    meta = header.get("prepared")
    if not isinstance(meta, dict):
        raise SnapshotFormatError("prepared snapshot is missing its metadata")
    fixpoint_meta = meta.get("fixpoint")
    base = _decode_relations(header, payload)
    transformed = None
    if meta.get("transformed") is not None:
        spec = meta["transformed"]
        program = parse_program("\n".join(spec["rules"]))
        transformed = TransformedProgram(
            program=program,
            goal=parse_query(spec["goal"]),
            seeds=tuple(parse_query(text) for text in spec["seeds"]),
            answer_predicate=spec["answer_predicate"],
            call_predicates={
                name: tuple(pair)
                for name, pair in spec["call_predicates"].items()
            },
            answer_predicates={
                name: tuple(pair)
                for name, pair in spec["answer_predicates"].items()
            },
            original_query=parse_query(spec["original_query"]),
            kind=spec["kind"],
        )
    fixpoint = None
    if fixpoint_meta is not None:
        if transformed is None:
            raise SnapshotFormatError(
                "prepared snapshot has a fixpoint but no transformed program"
            )
        fixpoint = _rehydrate_fixpoint(
            transformed.program,
            fixpoint_meta["plans"],
            fixpoint_meta["executor"],
            fixpoint_meta["scheduler"],
        )
    stats = EvaluationStats(**meta.get("prepare_stats", {}))
    patchable = meta.get("patchable")
    prepared = PreparedQuery(
        strategy=meta["strategy"],
        mode=meta["mode"],
        query=parse_query(meta["query"]),
        adornment=meta["adornment"],
        base=base,
        key=tuple(meta["key"]),
        transformed=transformed,
        fixpoint=fixpoint,
        prepare_stats=stats,
        patchable=frozenset(patchable) if patchable is not None else None,
    )
    obs = get_metrics()
    if obs.enabled:
        obs.incr("snapshot.loads")
    return prepared


# --- shared memory -----------------------------------------------------------

class SharedSnapshot:
    """A serialized snapshot resident in one shared-memory block.

    The parent process :meth:`create`\\ s the block (one copy of the
    serialized bytes into the shared buffer); workers :meth:`attach` by
    name and hand :attr:`data` — a memoryview directly over the shared
    buffer — to :func:`load_database` / :func:`load_prepared`, so the
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
