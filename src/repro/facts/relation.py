"""In-memory relations with per-column hash indexes.

A :class:`Relation` stores ground facts as plain Python tuples of constant
*values* (not :class:`~repro.datalog.terms.Constant` objects); the engines
convert at their boundary.  Indexes are built lazily on first use of a
column and maintained incrementally afterwards — on :meth:`add` *and* on
:meth:`discard` — so the join machinery can probe any bound column in
expected O(1) and bulk deletion stays linear in the rows removed.

The :attr:`~Relation.version` counter bumps on every effective mutation;
the cached full-scan snapshot is keyed on it.

For the semi-naive engines every row also carries an **insertion stamp**:
the *round* the relation was marked with when the row arrived
(:meth:`Relation.mark_round`; :meth:`Relation.merge` marks and inserts a
round's batch in one call).  :meth:`Relation.rows_before` wraps the
live relation in a :class:`StampedView` that filters probes down to rows
stamped strictly before a cutoff — the zero-copy replacement for the
per-round "old = full minus delta" snapshot rebuild (see
``docs/ARCHITECTURE.md``, "Round-stamped relations").  Rows added while
the relation is still in round 0 (the initial load) carry no explicit
stamp and default to 0, so plain EDB use pays nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

__all__ = ["Relation", "StampedView"]


class Relation:
    """A set of same-arity tuples with lazily built column indexes."""

    __slots__ = (
        "name",
        "arity",
        "_tuples",
        "_indexes",
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
        self._version = 0
        # row -> insertion round; rows from round 0 are omitted (stamp 0).
        self._stamps: dict[tuple, int] = {}
        self._round = 0
        # Cached lookup({}) snapshot, valid while _scan_version == _version.
        self._scan_cache: tuple | None = None
        self._scan_version = -1
        for row in tuples:
            self.add(row)

    @classmethod
    def adopt(cls, name: str, arity: int, rows: dict) -> "Relation":
        """A relation whose row store *is* *rows*, an insertion-ordered
        ``{row: None}`` dict (not copied, not re-checked, not to be mutated
        by the caller): a semi-naive round merges its new facts and adopts
        the same dict as the next delta, so each is inserted once."""
        relation = cls(name, arity)
        relation._tuples = rows
        relation._version = len(rows)
        return relation

    # --- mutation ------------------------------------------------------------
    def add(self, row: tuple) -> bool:
        """Insert *row*; returns True iff it was new."""
        if len(row) != self.arity:
            raise self._arity_error(row)
        if row in self._tuples:
            return False
        self._tuples[row] = None
        for column, index in self._indexes.items():
            index.setdefault(row[column], []).append(row)
        if self._round:
            self._stamps[row] = self._round
        self._version += 1
        return True

    def merge(self, rows: Iterable[tuple], stamp: int) -> int:
        """``mark_round(stamp)`` plus an :meth:`add` loop over *rows*, in one
        call: the same rows, posting-list order, stamps and
        :attr:`version` (also when a wrong-arity row raises part way);
        returns the number of new rows.  The semi-naive loops merge each
        round's new facts with it at the round boundary."""
        self.mark_round(stamp)
        tuples = self._tuples
        arity = self.arity
        indexes = tuple(self._indexes.items())
        stamps = self._stamps if stamp else None
        added = 0
        try:
            for row in rows:
                if len(row) != arity:
                    raise self._arity_error(row)
                if row in tuples:
                    continue
                tuples[row] = None
                for column, index in indexes:
                    index.setdefault(row[column], []).append(row)
                if stamps is not None:
                    stamps[row] = stamp
                added += 1
        finally:
            self._version += added
        return added

    def _arity_error(self, row: tuple) -> ValueError:
        return ValueError(
            f"relation {self.name}/{self.arity} given a tuple of "
            f"length {len(row)}: {row!r}"
        )

    def add_all(self, rows: Iterable[tuple]) -> int:
        """Insert many rows; returns the number that were new."""
        return self.merge(rows, self._round)

    def discard(self, row: tuple) -> bool:
        """Remove *row* if present; returns True iff it was present.

        Live posting lists are maintained *in place*: the row is removed
        from each materialised column index, and a value's posting list
        is dropped when it empties.  Bulk deletion — the incremental engine removes
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
        self._version += 1
        return True

    def clear(self) -> None:
        if self._tuples:
            self._version += 1
        self._tuples.clear()
        self._indexes.clear()
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

    @property
    def contains(self) -> Callable[[tuple], bool]:
        """``contains(row)`` is ``row in relation``: the row store's own
        test, so a caller that keeps it pays no Python call per row.  It
        stays valid for the relation's life (the store is mutated in
        place, never replaced)."""
        return self._tuples.__contains__

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

    def scan(self) -> tuple:
        """All rows as a snapshot tuple, cached per :attr:`version`.

        Identical contents and order to ``lookup({})`` — the rule kernels
        use this to iterate a plain tuple instead of a generator.  Full
        scans are the hottest unselective probe the engines issue (every
        unbound first literal of a rule); within one fixpoint round the
        relation does not change, so repeated scans reuse one copy
        instead of re-materialising the whole tuple set each time.
        """
        if self._scan_version != self._version:
            self._scan_cache = tuple(self._tuples)
            self._scan_version = self._version
        return self._scan_cache  # type: ignore[return-value]

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
        index = self._indexes.get(column)
        if index is None:
            index = self._index_for(column)
        return index.get, None, 0

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
            yield from self.scan()
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
            return len(self._index_for(column).get(value, ()))
        return sum(1 for _ in self.lookup(bound))

    @property
    def version(self) -> int:
        """A counter bumped on every effective mutation."""
        return self._version

    def copy(self) -> "Relation":
        clone = Relation(self.name, self.arity)
        clone._tuples = dict(self._tuples)
        # Carry the version over: a copy holds the same tuples.
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

    __slots__ = ("_relation", "cutoff")

    def __init__(self, relation: Relation, cutoff: int):
        self._relation = relation
        self.cutoff = cutoff  # writable: a semi-naive loop advances it per round

    @property
    def name(self) -> str:
        return self._relation.name

    @property
    def arity(self) -> int:
        return self._relation.arity

    def lookup(self, bound: Mapping[int, object]) -> Iterator[tuple]:
        stamps = self._relation._stamps
        cutoff = self.cutoff
        for row in self._relation.lookup(bound):
            if stamps.get(row, 0) < cutoff:
                yield row

    def probe_plan(self, column: int) -> tuple:
        """:meth:`Relation.probe_plan` for the view: the base relation's
        posting getter plus the stamp filter ``stamps(row, 0) < cutoff``
        that :meth:`lookup` applies row by row."""
        base = self._relation
        return base._index_for(column).get, base._stamps.get, self.cutoff

    def __contains__(self, row: tuple) -> bool:
        return row in self._relation and self._relation.stamp_of(row) < self.cutoff

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
            f"stamp<{self.cutoff})"
        )
