"""The columnar relation backend: dictionary-encoded, array-of-int storage.

The tuple backend (:class:`repro.facts.relation.Relation`) stores rows as
Python tuples of raw constant values.  This module provides the opt-in
``storage="columnar"`` alternative behind the same contract:

* every constant is interned once to a dense int id
  (:class:`repro.datalog.intern.ConstantInterner`, one shared per
  :class:`ColumnarDatabase` and all its copies);
* a :class:`ColumnarRelation` stores one ``array('q')`` **column** of ids
  per argument position, plus postings (column → id → ascending row
  indices) for probes, insertion round-stamps for the semi-naive
  zero-copy "old" views, and the live statistics the join planner costs
  with;
* the rule kernels gain a **batch mode** (:func:`repro.engine.kernel.
  execute_batch`) that joins whole blocks against the postings at once
  instead of looping per row.

**Encoded vs raw space.**  The engines shuttle rows as opaque tuples, so
under the columnar backend every row-level method of
:class:`ColumnarRelation` (``add``, ``lookup``, ``probe``, membership,
iteration, ``rows()``) speaks tuples of *ids*.  Translation to and from
raw constant values happens only at the atom boundary of
:class:`ColumnarDatabase` (``add_atom``, ``atoms``, ``match``,
``has_fact``) — plus one deliberate exception: :meth:`ColumnarRelation.postings_size` accepts a
**raw** value, because its only caller is the join planner, which probes
with constants straight out of the rule text.  The planner therefore sees
identical statistics (sizes, distinct counts, posting sizes) under both
backends and produces identical plans.

**Bit-identity.**  The tuple backend enumerates in insertion order (its
tuple set is an insertion-ordered dict) and so does this backend; probes
pick the smallest posting with the same tie-breaking; the interner's
equality is plain dict equality, exactly the tuple set's.  The combination
makes ``storage="columnar"`` bit-identical to ``storage="tuples"`` — fact
sets, inference counters, enumeration order, budget-trip points — pinned
by ``tests/test_storage_differential.py``.  See ``docs/STORAGE.md``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping

from ..datalog.intern import ConstantInterner
from ..facts.database import Database
from ..facts.relation import Relation
from ..obs import get_metrics

__all__ = [
    "STORAGES",
    "DEFAULT_STORAGE",
    "resolve_storage",
    "ColumnarRelation",
    "ColumnarPrefix",
    "ColumnarDatabase",
    "as_storage",
]

STORAGES = ("tuples", "columnar")
DEFAULT_STORAGE = "tuples"


def resolve_storage(storage: str) -> str:
    """Validate a ``storage=`` argument (every engine accepts one)."""
    if storage not in STORAGES:
        raise ValueError(
            f"unknown storage {storage!r}; choose from {STORAGES}"
        )
    return storage


class ColumnarRelation:
    """A relation of id-encoded rows stored column-wise.

    Mirrors the :class:`~repro.facts.relation.Relation` contract method
    for method, in encoded space.  Row indices are append-only: a row
    keeps its index until discarded, re-insertion assigns a fresh index
    at the end — so ascending index order *is* insertion order, postings
    stay sorted by construction, and round stamps are monotone in the
    index, which is what makes the prefix views pure ``bisect`` slices.
    """

    __slots__ = (
        "name",
        "arity",
        "interner",
        "_columns",
        "_rows",
        "_rowlist",
        "_stamps",
        "_postings",
        "_distinct",
        "_version",
        "_round",
        "_scan_cache",
        "_scan_version",
        "_live_cache",
        "_live_version",
        "_dead",
    )

    def __init__(
        self,
        name: str,
        arity: int,
        interner: ConstantInterner,
        tuples: Iterable[tuple] = (),
    ):
        self.name = name
        self.arity = arity
        self.interner = interner
        # One array('q') of ids per argument position (dead rows keep
        # their cells; postings and the row map never point at them).
        self._columns: list[array] = [array("q") for _ in range(arity)]
        # Encoded row -> index; insertion-ordered, live rows only.
        self._rows: dict[tuple, int] = {}
        # Index -> encoded row (None when discarded).
        self._rowlist: list[tuple | None] = []
        # Index -> insertion round (monotone, dead cells retained).
        self._stamps = array("q")
        # column -> id -> ascending live row indices (lazy, incremental).
        self._postings: dict[int, dict[int, list[int]]] = {}
        # column -> set of distinct ids (lazy, incremental on add).
        self._distinct: dict[int, set[int]] = {}
        self._version = 0
        self._round = 0
        self._scan_cache: tuple | None = None
        self._scan_version = -1
        self._live_cache: list[int] | None = None
        self._live_version = -1
        self._dead = 0
        for row in tuples:
            self.add(row)

    # --- mutation ------------------------------------------------------------
    def add(self, row: tuple) -> bool:
        """Insert an encoded *row*; returns True iff it was new."""
        rows = self._rows
        if row in rows:
            return False
        if len(row) != self.arity:
            raise ValueError(
                f"relation {self.name}/{self.arity} given a tuple of "
                f"length {len(row)}: {row!r}"
            )
        rowlist = self._rowlist
        index = len(rowlist)
        rows[row] = index
        rowlist.append(row)
        self._stamps.append(self._round)
        for column_array, value in zip(self._columns, row):
            column_array.append(value)
        if self._postings:
            for column, postings in self._postings.items():
                postings.setdefault(row[column], []).append(index)
        if self._distinct:
            for column, values in self._distinct.items():
                values.add(row[column])
        self._version += 1
        return True

    def add_all(self, rows: Iterable[tuple]) -> int:
        """Insert many encoded rows; returns the number that were new."""
        added = 0
        for row in rows:
            if self.add(row):
                added += 1
        return added

    def discard(self, row: tuple) -> bool:
        """Remove an encoded *row* if present; True iff it was present.

        Postings and distinct sets follow the tuple backend's discipline:
        materialised postings are maintained in place (a distinct id
        disappears when its posting empties), distinct sets over columns
        with no live posting index are dropped and rebuilt lazily.  The
        row's column cells and stamp stay behind as dead weight — cheap,
        and it keeps indices stable for every live row.
        """
        index = self._rows.pop(row, None)
        if index is None:
            return False
        self._rowlist[index] = None
        self._dead += 1
        for column, postings in self._postings.items():
            value = row[column]
            posting = postings.get(value)
            if posting is None:
                continue
            try:
                posting.remove(index)
            except ValueError:  # pragma: no cover - postings track adds exactly
                pass
            if not posting:
                del postings[value]
                distinct = self._distinct.get(column)
                if distinct is not None:
                    distinct.discard(value)
        for column in list(self._distinct):
            if column not in self._postings:
                del self._distinct[column]
        self._version += 1
        return True

    def clear(self) -> None:
        if self._rows:
            self._version += 1
        self._rows.clear()
        self._rowlist.clear()
        self._stamps = array("q")
        self._columns = [array("q") for _ in range(self.arity)]
        self._postings.clear()
        self._distinct.clear()
        self._round = 0
        self._scan_cache = None
        self._scan_version = -1
        self._live_cache = None
        self._live_version = -1
        self._dead = 0

    # --- round stamping -------------------------------------------------------
    @property
    def round(self) -> int:
        """The round newly added rows are stamped with (0 = initial load)."""
        return self._round

    def mark_round(self, round: int) -> None:
        """Stamp subsequent :meth:`add` calls with *round* (monotone).

        Raises:
            ValueError: if *round* regresses.  The columnar backend
                *relies* on monotone stamps — :meth:`rows_before` resolves
                a cutoff with one ``bisect`` over the stamp array, which
                is only a prefix if stamps never decrease.
        """
        if round < self._round:
            raise ValueError(
                f"mark_round({round}) would regress relation "
                f"{self.name!r} from round {self._round}; rounds must "
                f"not decrease within one evaluation"
            )
        self._round = round

    def stamp_of(self, row: tuple) -> int:
        """The insertion round of *row* (0 when unstamped or absent)."""
        index = self._rows.get(row)
        return self._stamps[index] if index is not None else 0

    def rows_before(self, cutoff: int) -> "ColumnarPrefix":
        """A zero-copy view of the rows stamped strictly before *cutoff*.

        Stamps are monotone in the row index, so the view is a prefix:
        every probe reduces to one ``bisect`` and a slice.
        """
        return ColumnarPrefix(self, cutoff)

    def stamp_boundary(self, cutoff: int) -> int:
        """The first row index whose stamp is >= *cutoff*."""
        return bisect_left(self._stamps, cutoff)

    # --- queries --------------------------------------------------------------
    def __contains__(self, row: tuple) -> bool:
        return row in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def rows(self) -> frozenset[tuple]:
        """An immutable snapshot of the current encoded rows."""
        return frozenset(self._rows)

    def _posting_index(self, column: int) -> Mapping[int, list[int]]:
        postings = self._postings.get(column)
        if postings is None:
            postings = {}
            for row, index in self._rows.items():
                postings.setdefault(row[column], []).append(index)
            # _rows iterates in insertion order = ascending index order,
            # so every posting list is born sorted.
            self._postings[column] = postings
        return postings

    def _scan_snapshot(self) -> tuple:
        if self._scan_version != self._version:
            self._scan_cache = tuple(self._rows)
            self._scan_version = self._version
        return self._scan_cache  # type: ignore[return-value]

    def scan(self) -> tuple:
        """All rows as a snapshot tuple (cached per :attr:`version`)."""
        return self._scan_snapshot()

    def lookup(self, bound: Mapping[int, int]) -> Iterator[tuple]:
        """Yield encoded rows matching the bound columns.

        Identical strategy and tie-breaking to the tuple backend: probe
        the single bound column with the smallest posting, filter the
        rest, yield from a snapshot taken at probe time.
        """
        if not bound:
            yield from self._scan_snapshot()
            return
        best_column = None
        best_posting: list[int] | None = None
        for column, value in bound.items():
            posting = self._posting_index(column).get(value, [])
            if best_posting is None or len(posting) < len(best_posting):
                best_column, best_posting = column, posting
                if not posting:
                    return
        rowlist = self._rowlist
        snapshot = [rowlist[index] for index in best_posting]
        remaining = [(c, v) for c, v in bound.items() if c != best_column]
        if not remaining:
            yield from snapshot
            return
        for row in snapshot:
            if all(row[column] == value for column, value in remaining):
                yield row

    def count(self, bound: Mapping[int, int] | None = None) -> int:
        """Number of rows matching the encoded *bound* (all when omitted)."""
        if not bound:
            return len(self._rows)
        if len(bound) == 1:
            ((column, value),) = bound.items()
            return len(self._posting_index(column).get(value, ()))
        return sum(1 for _ in self.lookup(bound))

    # --- batch protocol -------------------------------------------------------
    def column(self, column: int) -> array:
        """The raw id array of *column* (dead cells included)."""
        return self._columns[column]

    def live_indices(self) -> list[int]:
        """All live row indices, ascending (cached per :attr:`version`)."""
        if self._live_version != self._version:
            self._live_cache = list(self._rows.values())
            self._live_version = self._version
        return self._live_cache  # type: ignore[return-value]

    def postings(self, column: int) -> Mapping[int, list[int]]:
        """The posting index of *column* (id → ascending live indices)."""
        return self._posting_index(column)

    def column_block(self, column: int, indices: list[int]) -> list:
        """The ids of *column* at *indices*, as one list (a block read).

        When *indices* is the relation's own live-index cache (a full
        scan of a never-deleted-from relation, the dominant delta shape)
        the block is one C-level ``tolist`` — no per-row indexing at all.
        """
        col = self._columns[column]
        if indices is self._live_cache and self._dead == 0:
            return col.tolist()
        return [col[i] for i in indices]

    # --- statistics -----------------------------------------------------------
    @property
    def version(self) -> int:
        """A counter bumped on every effective mutation."""
        return self._version

    def distinct_count(self, column: int) -> int:
        """Number of distinct ids in *column* (== distinct raw values)."""
        if not 0 <= column < self.arity:
            raise IndexError(
                f"relation {self.name}/{self.arity} has no column {column}"
            )
        values = self._distinct.get(column)
        if values is None:
            values = {row[column] for row in self._rows}
            self._distinct[column] = values
        return len(values)

    def postings_size(self, column: int, value: object) -> int:
        """Exact number of rows holding raw *value* in *column*.

        This is the one row-level method in **raw** space: its caller is
        the join planner, which probes with constants from the rule text.
        A value the interner has never seen has no postings.
        """
        ident = self.interner.id_of(value)
        if ident is None:
            return 0
        return len(self._posting_index(column).get(ident, ()))

    def statistics(self) -> dict:
        """A JSON-ready snapshot, same shape as the tuple backend's."""
        return {
            "name": self.name,
            "arity": self.arity,
            "size": len(self._rows),
            "version": self._version,
            "distinct": {
                str(column): self.distinct_count(column)
                for column in range(self.arity)
            },
        }

    def copy(self) -> "ColumnarRelation":
        """A fresh relation with the same rows (same interner, compacted).

        Mirrors the tuple backend: the version is carried over (staleness
        detection), stamps are not (a copy is the next evaluation's
        starting state, every row reads as round 0).
        """
        clone = ColumnarRelation(self.name, self.arity, self.interner)
        rowlist = clone._rowlist
        stamps = clone._stamps
        columns = clone._columns
        rows = clone._rows
        for row in self._rows:
            rows[row] = len(rowlist)
            rowlist.append(row)
            stamps.append(0)
            for column in range(self.arity):
                columns[column].append(row[column])
        clone._version = self._version
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarRelation):
            return NotImplemented
        return (
            self.name == other.name
            and self.arity == other.arity
            and self._rows.keys() == other._rows.keys()
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarRelation({self.name}/{self.arity}, "
            f"{len(self._rows)} rows)"
        )


class ColumnarPrefix:
    """A read-only view of a :class:`ColumnarRelation` below a round cutoff.

    The columnar counterpart of :class:`~repro.facts.relation.StampedView`
    — same filtering semantics probe for probe — plus the batch protocol,
    where the monotone stamps turn the filter into a ``bisect`` slice.
    """

    __slots__ = ("_relation", "_cutoff")

    def __init__(self, relation: ColumnarRelation, cutoff: int):
        self._relation = relation
        self._cutoff = cutoff

    @property
    def name(self) -> str:
        return self._relation.name

    @property
    def arity(self) -> int:
        return self._relation.arity

    @property
    def cutoff(self) -> int:
        return self._cutoff

    @property
    def relation(self) -> ColumnarRelation:
        return self._relation

    def lookup(self, bound: Mapping[int, int]) -> Iterator[tuple]:
        relation = self._relation
        stamps = relation._stamps
        rows = relation._rows
        cutoff = self._cutoff
        for row in relation.lookup(bound):
            index = rows.get(row)
            stamp = stamps[index] if index is not None else 0
            if stamp < cutoff:
                yield row

    def __contains__(self, row: tuple) -> bool:
        return (
            row in self._relation
            and self._relation.stamp_of(row) < self._cutoff
        )

    def __iter__(self) -> Iterator[tuple]:
        return self.lookup({})

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __bool__(self) -> bool:
        return any(True for _ in self)

    def rows(self) -> frozenset[tuple]:
        return frozenset(self)

    # --- batch protocol -------------------------------------------------------
    def boundary(self) -> int:
        """The first row index outside the view (stamps are monotone)."""
        return self._relation.stamp_boundary(self._cutoff)

    def __repr__(self) -> str:
        return (
            f"ColumnarPrefix({self._relation.name}/{self._relation.arity}, "
            f"stamp<{self._cutoff})"
        )


class ColumnarDatabase(Database):
    """A database whose relations are columnar and share one interner.

    Relation-level methods stay in encoded space (the engines' view);
    the atom-level methods inherited from :class:`Database` translate at
    the boundary via :meth:`encode_row`/:meth:`decode_row`.  Copies share
    the interner, so row encodings remain comparable across the working
    copies every engine makes.
    """

    __slots__ = ("interner",)

    def __init__(
        self,
        relations: Mapping[str, ColumnarRelation] | None = None,
        interner: ConstantInterner | None = None,
    ):
        super().__init__(relations)
        self.interner = interner if interner is not None else ConstantInterner()

    # --- the raw/encoded boundary ---------------------------------------------
    def encode_row(self, row: tuple) -> tuple:
        return self.interner.intern_row(row)

    def decode_row(self, row: tuple) -> tuple:
        return self.interner.extern_row(row)

    def probe_row(self, row: tuple) -> "tuple | None":
        # Encode without growing the table: a row over constants the
        # database never stored cannot be a fact of it.
        id_of = self.interner.id_of
        encoded = []
        for value in row:
            ident = id_of(value)
            if ident is None:
                return None
            encoded.append(ident)
        return tuple(encoded)

    # --- relation management ----------------------------------------------------
    def relation(self, predicate: str, arity: int | None = None) -> ColumnarRelation:
        existing = self._relations.get(predicate)
        if existing is not None:
            if arity is not None and existing.arity != arity:
                raise ValueError(
                    f"predicate {predicate} has arity {existing.arity}, "
                    f"requested {arity}"
                )
            return existing
        if arity is None:
            raise KeyError(f"unknown predicate {predicate} (no arity given)")
        created = ColumnarRelation(predicate, arity, self.interner)
        self._relations[predicate] = created
        return created

    def spawn(self, name: str, arity: int) -> ColumnarRelation:
        """A free-standing relation of this database's storage backend."""
        return ColumnarRelation(name, arity, self.interner)

    # --- structural -------------------------------------------------------------
    def copy(self) -> "ColumnarDatabase":
        return ColumnarDatabase(
            {name: relation.copy() for name, relation in self._relations.items()},
            interner=self.interner,
        )

    def restrict(self, predicates: Iterable[str]) -> "ColumnarDatabase":
        keep = set(predicates)
        return ColumnarDatabase(
            {
                name: relation.copy()
                for name, relation in self._relations.items()
                if name in keep
            },
            interner=self.interner,
        )

    def freeze(self, extra: "dict | None" = None):
        """An immutable shared-memory snapshot of this database.

        Serializes the relations (column blocks via the buffer protocol)
        and the interner table into one
        :class:`multiprocessing.shared_memory` block that worker
        processes attach without copying the payload — see
        :class:`repro.core.snapshot.SharedSnapshot`.  The caller owns
        the block (``unlink()`` it when retired); this database remains
        usable and is not itself frozen.
        """
        from ..core.snapshot import freeze_database

        return freeze_database(self, extra=extra)

    def merge(self, other: Database) -> int:
        if (
            isinstance(other, ColumnarDatabase)
            and other.interner is self.interner
        ):
            return super().merge(other)
        # Different interner (or the tuple backend): translate per row.
        added = 0
        for relation in other.relations():
            target = self.relation(relation.name, relation.arity)
            decode = other.decode_row
            encode = self.encode_row
            for row in relation:
                if target.add(encode(decode(row))):
                    added += 1
        return added

    def __eq__(self, other: object) -> bool:
        if (
            isinstance(other, ColumnarDatabase)
            and other.interner is self.interner
        ):
            return super().__eq__(other)
        if not isinstance(other, Database):
            return NotImplemented
        mine = {
            name: frozenset(self.decode_row(row) for row in rel)
            for name, rel in self._relations.items()
            if rel
        }
        theirs = {
            name: frozenset(other.decode_row(row) for row in rel)
            for name, rel in other._relations.items()
            if rel
        }
        return mine == theirs

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}/{relation.arity}:{len(relation)}"
            for name, relation in sorted(self._relations.items())
        )
        return f"ColumnarDatabase({inner})"


def as_storage(
    database: Database | None,
    storage: str,
    interner: ConstantInterner | None = None,
) -> Database:
    """A fresh working copy of *database* under the requested backend.

    This is the single conversion point the engines call where they used
    to call ``database.copy()``: same-backend input degenerates to a
    plain copy, cross-backend input is translated row by row in insertion
    order (so enumeration order survives the trip).  ``None`` yields an
    empty database of the requested backend.  Pass *interner* to encode
    against an existing table — prepared fixpoints bake interned
    constants into their kernels, so re-encoding the base database for a
    later execution must reuse the compile-time interner.
    """
    resolve_storage(storage)
    if database is None:
        if storage == "tuples":
            return Database()
        return ColumnarDatabase(interner=interner)
    if storage == "tuples":
        if not isinstance(database, ColumnarDatabase):
            return database.copy()
        decoded = Database()
        for relation in database.relations():
            target = decoded.relation(relation.name, relation.arity)
            decode = database.decode_row
            for row in relation:
                target.add(decode(row))
            target._version = relation.version
        return decoded
    if isinstance(database, ColumnarDatabase):
        if interner is None or interner is database.interner:
            return database.copy()
        source_interner = database.interner
    else:
        source_interner = None
    obs = get_metrics()
    encoded = ColumnarDatabase(interner=interner)
    intern_row = encoded.interner.intern_row
    converted = 0
    for relation in database.relations():
        target = encoded.relation(relation.name, relation.arity)
        if source_interner is not None:
            decode = source_interner.extern_row
            for row in relation:
                target.add(intern_row(decode(row)))
                converted += 1
        else:
            for row in relation:
                target.add(intern_row(row))
                converted += 1
        target._version = relation.version
    if obs.enabled:
        obs.incr("storage.convert")
        obs.incr("storage.converted_rows", converted)
    return encoded


def relation_types() -> tuple[type, ...]:
    """The concrete relation classes (fast-path type checks in kernels)."""
    return (Relation, ColumnarRelation)
