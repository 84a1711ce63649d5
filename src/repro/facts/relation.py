"""In-memory relations with per-column hash indexes and join statistics.

A :class:`Relation` stores ground facts as plain Python tuples of constant
*values* (not :class:`~repro.datalog.terms.Constant` objects); the engines
convert at their boundary.  Indexes are built lazily on first use of a
column and maintained incrementally afterwards — on :meth:`add` *and* on
:meth:`discard` — so the join machinery can probe any bound column in
expected O(1) and bulk deletion stays linear in the rows removed.

Relations also expose the cheap statistics the join planner
(:mod:`repro.engine.planner`) costs literal orders with: cardinality
(``len``), distinct values per column (:meth:`Relation.distinct_count`),
and exact posting-list sizes for constant probes
(:meth:`Relation.postings_size`).  Distinct-value sets are built lazily
per column and maintained incrementally on both mutations (a column whose
index is not materialised cannot prove a value vanished, so only that
column's distinct set is dropped on removal).  The :attr:`version`
counter bumps on every effective mutation, letting a cached plan detect
stale statistics.

For the semi-naive engines every row also carries an **insertion stamp**:
the *round* the relation was marked with when the row arrived
(:meth:`Relation.mark_round`).  :meth:`Relation.rows_before` wraps the
live relation in a :class:`StampedView` that filters probes down to rows
stamped strictly before a cutoff — the zero-copy replacement for the
per-round "old = full minus delta" snapshot rebuild (see
``docs/ARCHITECTURE.md``, "Round-stamped relations").  Rows added while
the relation is still in round 0 (the initial load) carry no explicit
stamp and default to 0, so plain EDB use pays nothing.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

__all__ = ["Relation", "StampedView", "STORAGE_REMOVED"]

STORAGE_REMOVED = (
    "storage was removed: relations are always tuple-backed (same answers "
    "and counts); omit the setting"
)


class Relation:
    """A set of same-arity tuples with lazily built column indexes."""

    __slots__ = (
        "name",
        "arity",
        "_tuples",
        "_indexes",
        "_distinct",
        "_version",
        "_stamps",
        "_round",
        "_scan_cache",
        "_scan_version",
    )

    def __init__(self, name: str, arity: int, tuples: Iterable[tuple] = ()):
        self.name = name
        self.arity = arity
        # Insertion-ordered: a dict used as an ordered set.  Enumeration
        # order (scan, iteration, snapshots) is therefore *insertion*
        # order, not hash order, so answers and counters do not depend
        # on string hashing.
        self._tuples: dict[tuple, None] = {}
        # column -> value -> list of tuples having that value in the column.
        self._indexes: dict[int, dict[object, list[tuple]]] = {}
        # column -> set of distinct values (lazy, incremental on add).
        self._distinct: dict[int, set] = {}
        self._version = 0
        # row -> insertion round; rows from round 0 are omitted (stamp 0).
        self._stamps: dict[tuple, int] = {}
        self._round = 0
        # Cached lookup({}) snapshot, valid while _scan_version == _version.
        self._scan_cache: tuple | None = None
        self._scan_version = -1
        for row in tuples:
            self.add(row)

    # --- mutation ------------------------------------------------------------
    def add(self, row: tuple) -> bool:
        """Insert *row*; returns True iff it was new."""
        if len(row) != self.arity:
            raise ValueError(
                f"relation {self.name}/{self.arity} given a tuple of "
                f"length {len(row)}: {row!r}"
            )
        if row in self._tuples:
            return False
        self._tuples[row] = None
        for column, index in self._indexes.items():
            index.setdefault(row[column], []).append(row)
        for column, values in self._distinct.items():
            values.add(row[column])
        if self._round:
            self._stamps[row] = self._round
        self._version += 1
        return True

    def add_all(self, rows: Iterable[tuple]) -> int:
        """Insert many rows; returns the number that were new."""
        added = 0
        for row in rows:
            if self.add(row):
                added += 1
        return added

    def discard(self, row: tuple) -> bool:
        """Remove *row* if present; returns True iff it was present.

        Live posting lists and distinct sets are maintained *in place*:
        the row is removed from each materialised column index, and a
        distinct value disappears only when its posting list empties.  A
        distinct set for a column with no live index cannot tell whether
        the value survives elsewhere, so only that set is dropped (it is
        rebuilt lazily).  Bulk deletion — the incremental engine removes
        many facts in a row — is therefore linear in the rows removed
        instead of rebuilding every index per deletion.
        """
        if row not in self._tuples:
            return False
        del self._tuples[row]
        self._stamps.pop(row, None)
        for column, index in self._indexes.items():
            value = row[column]
            posting = index.get(value)
            if posting is None:
                continue
            try:
                posting.remove(row)
            except ValueError:  # pragma: no cover - indexes track adds exactly
                pass
            if not posting:
                del index[value]
                distinct = self._distinct.get(column)
                if distinct is not None:
                    distinct.discard(value)
        for column in list(self._distinct):
            if column not in self._indexes:
                del self._distinct[column]
        self._version += 1
        return True

    def clear(self) -> None:
        if self._tuples:
            self._version += 1
        self._tuples.clear()
        self._indexes.clear()
        self._distinct.clear()
        self._stamps.clear()
        self._round = 0
        self._scan_cache = None
        self._scan_version = -1

    # --- round stamping ---------------------------------------------------------
    @property
    def round(self) -> int:
        """The round newly added rows are stamped with (0 = initial load)."""
        return self._round

    def mark_round(self, round: int) -> None:
        """Stamp subsequent :meth:`add` calls with *round*.

        The semi-naive engines call this at every merge boundary, so the
        rows of round *k*'s delta are exactly the rows stamped *k* and the
        "old" view of round *k* is :meth:`rows_before` with cutoff *k*.
        Rounds must not decrease within one evaluation; a fresh evaluation
        starts from a :meth:`copy`, whose rows all read as round 0.

        Raises:
            ValueError: if *round* is lower than the current round — a
                regressing stamp would silently corrupt every later
                :meth:`rows_before` view (rows of the regressed rounds
                leak into "old").
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
        return self._stamps.get(row, 0)

    def rows_before(self, cutoff: int) -> "StampedView":
        """A zero-copy read view of the rows stamped strictly before
        *cutoff* — the semi-naive "old" relation, without the snapshot."""
        return StampedView(self, cutoff)

    # --- queries ---------------------------------------------------------------
    def __contains__(self, row: tuple) -> bool:
        return row in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def rows(self) -> frozenset[tuple]:
        """An immutable snapshot of the current tuples."""
        return frozenset(self._tuples)

    def _index_for(self, column: int) -> Mapping[object, list[tuple]]:
        index = self._indexes.get(column)
        if index is None:
            index = {}
            for row in self._tuples:
                index.setdefault(row[column], []).append(row)
            self._indexes[column] = index
        return index

    def _scan_snapshot(self) -> tuple:
        """The full-tuple snapshot, cached per :attr:`version`.

        Full scans are the hottest unselective probe the engines issue
        (every unbound first literal of a rule); within one fixpoint round
        the relation does not change, so repeated scans reuse one copy
        instead of re-materialising the whole tuple set each time.
        """
        if self._scan_version != self._version:
            self._scan_cache = tuple(self._tuples)
            self._scan_version = self._version
        return self._scan_cache  # type: ignore[return-value]

    def scan(self) -> tuple:
        """All rows as a snapshot tuple (cached per :attr:`version`).

        Identical contents and order to ``lookup({})`` — the rule kernels
        use this to iterate a plain tuple instead of a generator.
        """
        return self._scan_snapshot()

    def probe_plan(self, column: int) -> tuple:
        """``(posting getter, stamp getter, cutoff)`` for probes of *column*.

        What a generated rule kernel (:mod:`repro.engine.codegen`)
        resolves once per execution so that every probe is
        ``tuple(getter(value, ()))`` with no call into this class.  The
        getter reads the live column index (built here if needed,
        maintained in place by :meth:`add` and :meth:`discard`), so each
        probe sees exactly what ``lookup({column: value})`` would yield
        at that moment.  A plain relation filters nothing: its stamp getter is
        ``None``.
        """
        return self._index_for(column).get, None, 0

    def lookup(self, bound: Mapping[int, object]) -> Iterator[tuple]:
        """Yield tuples matching the bound columns.

        Args:
            bound: mapping from column position to required value.  An
                empty mapping scans the whole relation.

        The probe uses the single bound column with the smallest posting
        list (cheapest first) and filters on the remaining columns, which
        is the classical index-nested-loop strategy.  Rows are yielded
        from a snapshot taken at probe time: callers routinely mutate the
        relation while a scan is suspended (delta loops add facts, the
        incremental engine deletes), and the iteration must neither raise
        nor skip rows that were present when the probe started.
        """
        if not bound:
            yield from self._scan_snapshot()
            return
        best_column = None
        best_posting: list[tuple] | None = None
        for column, value in bound.items():
            posting = self._index_for(column).get(value, [])
            if best_posting is None or len(posting) < len(best_posting):
                best_column, best_posting = column, posting
                if not posting:
                    return
        remaining = [(c, v) for c, v in bound.items() if c != best_column]
        if not remaining:
            yield from tuple(best_posting)
            return
        for row in tuple(best_posting):
            if all(row[column] == value for column, value in remaining):
                yield row

    def count(self, bound: Mapping[int, object] | None = None) -> int:
        """Number of tuples matching *bound* (all tuples when omitted).

        A single bound column is answered from the posting-list size
        directly — no iterator is materialised.
        """
        if not bound:
            return len(self._tuples)
        if len(bound) == 1:
            ((column, value),) = bound.items()
            return self.postings_size(column, value)
        return sum(1 for _ in self.lookup(bound))

    # --- statistics -------------------------------------------------------------
    @property
    def version(self) -> int:
        """A counter bumped on every effective mutation.

        Plans and other derived artifacts cache this to detect that their
        statistics went stale.
        """
        return self._version

    def distinct_count(self, column: int) -> int:
        """Number of distinct values in *column*.

        The distinct-value set is materialised lazily on first use and
        then maintained incrementally by :meth:`add` and (for indexed
        columns) :meth:`discard`; removal from an unindexed column drops
        the set, so the first call after such a removal recomputes.
        """
        if not 0 <= column < self.arity:
            raise IndexError(
                f"relation {self.name}/{self.arity} has no column {column}"
            )
        values = self._distinct.get(column)
        if values is None:
            values = {row[column] for row in self._tuples}
            self._distinct[column] = values
        return len(values)

    def postings_size(self, column: int, value: object) -> int:
        """Exact number of tuples holding *value* in *column* (index probe)."""
        return len(self._index_for(column).get(value, ()))

    def statistics(self) -> dict:
        """A JSON-ready snapshot: size, version, distinct count per column.

        ``distinct`` keys are strings — JSON objects cannot have integer
        keys, so emitting them as ints made the snapshot change shape
        under a ``json.dumps``/``loads`` round-trip.
        """
        return {
            "name": self.name,
            "arity": self.arity,
            "size": len(self._tuples),
            "version": self._version,
            "distinct": {
                str(column): self.distinct_count(column)
                for column in range(self.arity)
            },
        }

    def copy(self) -> "Relation":
        clone = Relation(self.name, self.arity)
        clone._tuples = dict(self._tuples)
        # Carry the version over: a copy holds the same tuples, so callers
        # caching (version, statistics) pairs must not see it reset to 0 —
        # a fresher copy reporting an *older* version defeats staleness
        # detection in the planner.
        clone._version = self._version
        # Stamps are deliberately NOT copied: they are evaluation-local
        # (a copy is the fresh starting state of the next evaluation, so
        # every row it holds is "old", i.e. round 0).
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.arity == other.arity
            and self._tuples == other._tuples
        )

    def __repr__(self) -> str:
        return f"Relation({self.name}/{self.arity}, {len(self._tuples)} tuples)"


class StampedView:
    """A read-only view of a :class:`Relation` restricted by insertion round.

    The view holds the live relation and filters every probe down to rows
    whose stamp is strictly below ``cutoff`` — O(rows probed) work, never
    O(|relation|).  It quacks like a relation for everything the matcher
    and the rule kernels need (``lookup``, membership, iteration, length),
    and is intentionally *not* mutable.

    Note the probe-order caveat: :meth:`lookup` delegates posting-list
    selection to the underlying relation, so the cheapest-column choice is
    made on unfiltered posting sizes.  That only affects constant factors;
    the yielded row set is exact.
    """

    __slots__ = ("_relation", "_cutoff")

    def __init__(self, relation: Relation, cutoff: int):
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

    def lookup(self, bound: Mapping[int, object]) -> Iterator[tuple]:
        stamps = self._relation._stamps
        cutoff = self._cutoff
        for row in self._relation.lookup(bound):
            if stamps.get(row, 0) < cutoff:
                yield row

    def probe_plan(self, column: int) -> tuple:
        """:meth:`Relation.probe_plan` for the view: the base relation's
        posting getter plus the stamp filter ``stamps(row, 0) < cutoff``
        that :meth:`lookup` applies row by row."""
        base = self._relation
        return base._index_for(column).get, base._stamps.get, self._cutoff

    def __contains__(self, row: tuple) -> bool:
        return row in self._relation and self._relation.stamp_of(row) < self._cutoff

    def __iter__(self) -> Iterator[tuple]:
        return self.lookup({})

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __bool__(self) -> bool:
        return any(True for _ in self)

    def rows(self) -> frozenset[tuple]:
        return frozenset(self)

    def __repr__(self) -> str:
        return (
            f"StampedView({self._relation.name}/{self._relation.arity}, "
            f"stamp<{self._cutoff})"
        )
