"""The prepared-query LRU cache behind the serving layer.

One entry is one :class:`repro.core.prepare.PreparedQuery` — a fully
transformed and compiled query shape.  Entries are keyed by
``(dataset, version) + prepared_cache_key(...)``, so a dataset reload
(which bumps the version) naturally strands the old version's entries;
:meth:`PreparedQueryCache.drop_dataset` evicts them eagerly on reload
rather than waiting for LRU pressure.

The cache is safe for concurrent use from the threading HTTP server.
Lookups and insertions run under one lock; *preparation itself does
not* — a miss releases the lock while the (potentially expensive)
factory runs, so concurrent requests for different shapes prepare in
parallel.  Two threads missing on the same key may both prepare; the
first insertion wins and the loser adopts it, which wastes one
preparation but never blocks unrelated requests behind a slow one.
Prepared queries are read-only after construction, so sharing one entry
across threads is sound (each execution copies its working database).

Accounting classifies each request by what it *got*, not by what it
first saw: a race loser ends up using the cached shape, so it counts as
a hit (and as a ``races`` event recording the wasted preparation), and
miss accounting is deferred until an insertion actually happens.
``hits + misses`` therefore always equals the number of
``get_or_prepare`` calls, and ``misses`` equals the number of shapes
actually inserted — invariants ``/metrics`` consumers rely on.

Hit/miss/race/eviction/drop totals are kept on the cache (exact,
locked) and mirrored into the active metrics registry as
``serve.prepared.hits`` / ``serve.prepared.misses`` /
``serve.prepared.races`` / ``serve.prepared.evictions`` /
``serve.prepared.drops`` — the counters the serve smoke CI job asserts
on.  Every entry enters through exactly one counted miss and leaves
through exactly one counted eviction (LRU pressure) or drop (explicit
invalidation), so ``entries == misses - evictions - drops`` holds at
every instant — the stress test pins this under concurrent
``get_or_prepare`` / ``rekey_dataset`` / ``drop_entry`` traffic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..core.prepare import PreparedQuery
from ..obs import get_metrics

__all__ = ["CacheEntry", "PreparedQueryCache", "DEFAULT_MAX_ENTRIES"]

DEFAULT_MAX_ENTRIES = 64


@dataclass
class CacheEntry:
    """One cached shape plus its usage accounting."""

    key: tuple
    prepared: PreparedQuery
    hits: int = 0


class PreparedQueryCache:
    """A locked LRU of prepared queries.

    Args:
        max_entries: capacity; inserting beyond it evicts the least
            recently used entry.  Must be positive.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.races = 0
        self.evictions = 0
        self.drops = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_prepare(
        self, key: tuple, factory: Callable[[], PreparedQuery]
    ) -> tuple[PreparedQuery, bool]:
        """The entry under *key*, preparing it via *factory* on a miss.

        Returns ``(prepared, hit)`` where *hit* says whether this request
        ended up reusing a cached shape — including losing a prepare race
        and adopting the winner's entry.  *factory* runs outside the
        cache lock.  Miss accounting is deferred until this thread's
        insertion actually lands: counting at first lookup would book a
        race loser as a miss *and* hand it cached results, leaving
        ``misses`` larger than the number of preparations kept and
        ``hits`` smaller than the number of requests served from cache.
        """
        obs = get_metrics()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.hits += 1
                self.hits += 1
                if obs.enabled:
                    obs.incr("serve.prepared.hits")
                return entry.prepared, True
        prepared = factory()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # Lost a prepare race; adopt the first insertion so every
                # thread shares one object per shape.  The request is
                # served from cache, so it is a hit — plus a race event
                # recording the preparation this thread wasted.
                self._entries.move_to_end(key)
                existing.hits += 1
                self.hits += 1
                self.races += 1
                if obs.enabled:
                    obs.incr("serve.prepared.hits")
                    obs.incr("serve.prepared.races")
                return existing.prepared, True
            self.misses += 1
            if obs.enabled:
                obs.incr("serve.prepared.misses")
            self._entries[key] = CacheEntry(key=key, prepared=prepared)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                if obs.enabled:
                    obs.incr("serve.prepared.evictions")
        return prepared, False

    def peek(self, key: tuple) -> "PreparedQuery | None":
        """The entry under *key* without touching LRU order or counters."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.prepared if entry is not None else None

    def drop_entry(self, key: tuple) -> bool:
        """Evict the entry under *key*, if present; returns whether it
        was."""
        with self._lock:
            if self._entries.pop(key, None) is None:
                return False
            self._count_drops(1)
            return True

    def _count_drops(self, count: int) -> None:
        """Book *count* explicit removals (callers hold the lock)."""
        if not count:
            return
        self.drops += count
        obs = get_metrics()
        if obs.enabled:
            obs.incr("serve.prepared.drops", count)

    def entries_for(self, dataset: str) -> list[tuple[tuple, PreparedQuery]]:
        """A snapshot of every ``(key, prepared)`` scoped to *dataset*,
        without touching LRU order or counters — the shapes an update
        decides on."""
        with self._lock:
            return [
                (key, entry.prepared)
                for key, entry in self._entries.items()
                if key[0] == dataset
            ]

    def rekey_dataset(
        self,
        dataset: str,
        old_version: int,
        new_version: int,
        keep: Callable[[tuple, PreparedQuery], bool],
    ) -> tuple[int, int]:
        """Migrate *dataset*'s entries from *old_version* to *new_version*.

        An incremental update (:meth:`QueryService.update`) bumps the
        dataset version like a reload, but the shapes it kept or patched
        stay valid.  Each entry scoped to *dataset* at *old_version* for
        which ``keep(key, prepared)`` holds is re-keyed to *new_version*,
        keeping its LRU position and hit counts; the others are evicted.
        Returns ``(kept, dropped)``.

        Entries already at *new_version* are **kept as they are**: the
        new version is published before the cache migrates, so a
        concurrent request may insert a freshly prepared shape in that
        window.  When a migrating entry collides with one, the one
        already placed survives and the other is booked as dropped —
        never a silent overwrite, which would leak an entry past every
        counter.  Entries at any *older* version are always dropped.
        """
        with self._lock:
            kept = dropped = 0
            migrated: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
            for key, entry in self._entries.items():
                if key[0] != dataset:
                    migrated[key] = entry
                    continue
                if key[1] == new_version:
                    if key in migrated:
                        # An old-version entry already migrated onto
                        # this key; one shape, one slot — the earlier
                        # placement stands, this copy is dropped.
                        dropped += 1
                        continue
                    migrated[key] = entry
                    kept += 1
                    continue
                if key[1] == old_version and keep(key, entry.prepared):
                    new_key = (key[0], new_version) + key[2:]
                    if new_key in migrated:
                        # A fresh new-version insertion got there first.
                        dropped += 1
                        continue
                    entry.key = new_key
                    migrated[new_key] = entry
                    kept += 1
                else:
                    dropped += 1
            self._entries = migrated
            self._count_drops(dropped)
            return kept, dropped

    def drop_dataset(self, dataset: str) -> int:
        """Evict every entry whose key scopes to *dataset*; returns count.

        Entry keys start with ``(dataset, version)``, so a reload can
        reclaim the stale version's slots immediately.
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] == dataset]
            for key in stale:
                del self._entries[key]
            self._count_drops(len(stale))
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._count_drops(len(self._entries))
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Exact totals for the ``/metrics`` payload.

        Taken under the lock, so the invariant ``entries == misses -
        evictions - drops`` holds within any single returned dict.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "races": self.races,
                "evictions": self.evictions,
                "drops": self.drops,
            }

    def metrics(self) -> dict[str, int]:
        """The ``/metrics`` ``cache`` block: :meth:`stats` plus what the
        cached shapes' tables of completed calls
        (:class:`~repro.core.prepare.CallTable`) hold right now."""
        with self._lock:
            tables = [
                entry.prepared.table.size() for entry in self._entries.values()
            ]
        return {
            **self.stats(),
            "table_entries": sum(entries for entries, _ in tables),
            "table_rows": sum(rows for _, rows in tables),
        }
