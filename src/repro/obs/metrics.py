"""The metrics registry: wall-clock timers, counters, and histograms.

One :class:`Metrics` object collects everything an instrumented run
produces:

* **timers** — monotonic (``time.perf_counter``) wall-clock spans opened
  with :meth:`Metrics.timer`.  Timers nest: a timer opened while another
  is active records under the slash-joined path of the active stack
  (``"prepare/seminaive/round"``), so one registry captures the
  whole call tree of a structured evaluation.
* **counters** — monotonically increasing integers
  (:meth:`Metrics.incr`); :meth:`Metrics.fold_stats` folds a whole
  :class:`repro.engine.counters.EvaluationStats` record in under a
  prefix, so the classical inference counters and the new timing data
  travel through one interface.
* **histograms** — summary statistics (count/total/min/max/last) of
  observed values (:meth:`Metrics.observe`); the engines feed these with
  per-iteration delta sizes and table growth.

Instrumentation points call :func:`get_metrics` and talk to whatever is
active.  By default that is the module-level :class:`NullMetrics`
singleton, whose recording methods are no-ops and whose timer is one
shared, stateless context manager — disabled instrumentation costs a
dictionary-free attribute lookup and an empty method call, nothing more.
Enable collection for a region with :func:`collect`::

    with collect() as metrics:
        run_strategy("alexander", program, query, database)
    print(metrics.snapshot())

The snapshot is plain JSON-serialisable data; the bench artifact layer
(:mod:`repro.obs.artifact`) embeds it verbatim.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "TimerStat",
    "HistogramStat",
    "Metrics",
    "NullMetrics",
    "ThreadSafeMetrics",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "collect",
    "merge_snapshots",
]


@dataclass
class TimerStat:
    """Aggregated wall-clock spans of one timer path (seconds)."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds

    def merge(self, other: "TimerStat") -> None:
        """Fold *other*'s aggregates into self (empty stats are no-ops)."""
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.minimum if self.count else 0.0,
            "max_s": self.maximum,
        }


@dataclass
class HistogramStat:
    """Summary statistics of one observed series (e.g. delta sizes)."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    last: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.last = value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "HistogramStat") -> None:
        """Fold *other*'s aggregates into self (empty stats are no-ops).

        ``last`` takes *other*'s value — merge callers are expected to
        fold registries in a deterministic order so the field stays
        reproducible.
        """
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        self.last = other.last
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "last": self.last,
        }


class _Span:
    """An open timer span; records into its registry on exit."""

    __slots__ = ("_metrics", "_name", "_path", "_start")

    def __init__(self, metrics: "Metrics", name: str):
        self._metrics = metrics
        self._name = name
        self._path = ""
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._path = self._metrics._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self._metrics._pop(self._path, elapsed)


class _NullSpan:
    """The shared no-op span handed out by :class:`NullMetrics`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Metrics:
    """A live registry of timers, counters, and histograms."""

    enabled = True

    def __init__(self) -> None:
        self.timers: dict[str, TimerStat] = {}
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, HistogramStat] = {}
        self._stack: list[str] = []

    # --- timers ---------------------------------------------------------------
    def timer(self, name: str):
        """A context manager timing one span under *name* (nest-aware)."""
        return _Span(self, name)

    def _push(self, name: str) -> str:
        path = f"{self._stack[-1]}/{name}" if self._stack else name
        self._stack.append(path)
        return path

    def _pop(self, path: str, elapsed: float) -> None:
        if self._stack and self._stack[-1] == path:
            self._stack.pop()
        stat = self.timers.get(path)
        if stat is None:
            stat = self.timers[path] = TimerStat()
        stat.record(elapsed)

    @property
    def depth(self) -> int:
        """How many timer spans are currently open."""
        return len(self._stack)

    # --- counters -------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def fold_stats(self, stats, prefix: str = "engine") -> None:
        """Fold an ``EvaluationStats``-shaped record (anything exposing
        ``as_dict() -> Mapping[str, int]``) into the counters."""
        for key, value in stats.as_dict().items():
            self.incr(f"{prefix}.{key}", value)

    # --- histograms -----------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        stat = self.histograms.get(name)
        if stat is None:
            stat = self.histograms[name] = HistogramStat()
        stat.observe(value)

    # --- merging --------------------------------------------------------------
    def merge(self, other: "Metrics") -> None:
        """Fold every aggregate of *other* into this registry.

        Callers merging several registries do so in a fixed order so
        order-sensitive fields (histogram ``last``) stay deterministic.
        *other* is left untouched and must not be recording concurrently.
        """
        for name, stat in other.timers.items():
            mine = self.timers.get(name)
            if mine is None:
                mine = self.timers[name] = TimerStat()
            mine.merge(stat)
        for name, value in other.counters.items():
            self.incr(name, value)
        for name, stat in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = HistogramStat()
            mine.merge(stat)

    # --- export ---------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Everything collected so far, as plain JSON-serialisable data."""
        return {
            "timers": {name: stat.as_dict() for name, stat in sorted(self.timers.items())},
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: stat.as_dict() for name, stat in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        self.timers.clear()
        self.counters.clear()
        self.histograms.clear()
        self._stack.clear()


class NullMetrics(Metrics):
    """The disabled registry: every recording call is a no-op.

    Instrumented hot paths run against this by default; the overhead per
    hook is one global lookup plus one trivially inlined call, so engines
    need no ``if enabled`` guards of their own.
    """

    enabled = False

    def timer(self, name: str):
        return _NULL_SPAN

    def incr(self, name: str, amount: int = 1) -> None:
        return None

    def fold_stats(self, stats, prefix: str = "engine") -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def merge(self, other: "Metrics") -> None:
        return None


class ThreadSafeMetrics(Metrics):
    """A registry safe for concurrent recording from many threads.

    The query service (:mod:`repro.serve`) handles requests on a
    :class:`~http.server.ThreadingHTTPServer`, so many evaluations record
    into one registry at once.  Two adjustments make that sound:

    * counters, histograms, and timer aggregates are updated under one
      re-entrant lock (``incr`` on a plain dict is not atomic — the
      read-modify-write would drop updates under contention);
    * the timer *stack* is thread-local, so spans opened on different
      request threads nest within their own thread's call tree instead of
      interleaving into nonsense paths.

    Recording costs one uncontended lock acquisition per hook; the
    engines' hot loops only touch the registry at round boundaries, so
    the overhead is invisible next to evaluation work.  Snapshots are
    taken under the same lock and therefore internally consistent.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.RLock()
        self._local = threading.local()

    def _thread_stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name: str) -> str:
        stack = self._thread_stack()
        path = f"{stack[-1]}/{name}" if stack else name
        stack.append(path)
        return path

    def _pop(self, path: str, elapsed: float) -> None:
        stack = self._thread_stack()
        if stack and stack[-1] == path:
            stack.pop()
        with self._lock:
            stat = self.timers.get(path)
            if stat is None:
                stat = self.timers[path] = TimerStat()
            stat.record(elapsed)

    @property
    def depth(self) -> int:
        """Open timer spans *on the calling thread*."""
        return len(self._thread_stack())

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def fold_stats(self, stats, prefix: str = "engine") -> None:
        with self._lock:
            super().fold_stats(stats, prefix)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            stat = self.histograms.get(name)
            if stat is None:
                stat = self.histograms[name] = HistogramStat()
            stat.observe(value)

    def merge(self, other: "Metrics") -> None:
        with self._lock:
            super().merge(other)

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return super().snapshot()

    def reset(self) -> None:
        with self._lock:
            self.timers.clear()
            self.counters.clear()
            self.histograms.clear()
        self._thread_stack().clear()


NULL_METRICS = NullMetrics()

_active: Metrics = NULL_METRICS


def get_metrics() -> Metrics:
    """The registry instrumentation points should record into."""
    return _active


def set_metrics(metrics: Metrics | None) -> Metrics:
    """Install *metrics* as the active registry; returns the previous one.

    Passing ``None`` restores the disabled default.
    """
    global _active
    previous = _active
    _active = metrics if metrics is not None else NULL_METRICS
    return previous


@contextmanager
def collect(metrics: Metrics | None = None) -> Iterator[Metrics]:
    """Activate a registry for the duration of a ``with`` block.

    Args:
        metrics: registry to activate; a fresh :class:`Metrics` when
            omitted.  The previously active registry (usually the
            disabled default) is restored on exit, even on error.
    """
    registry = metrics if metrics is not None else Metrics()
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)


def merge_snapshots(*snapshots: dict) -> dict:
    """Fold already-exported :meth:`Metrics.snapshot` dicts into one.

    :meth:`Metrics.merge` needs live registries; the multiprocess server
    only has each worker's *snapshot* (shipped over a pipe as plain
    JSON-able data), so the fold happens on the export format instead:
    counters sum, timer/histogram counts and totals sum, means are
    recomputed from the sums, min/max take the extrema across inputs
    (entries with ``count == 0`` contribute nothing to the extrema), and
    histogram ``last`` takes the value from the latest input that
    observed anything — callers pass snapshots in a deterministic order
    (dispatcher first, then workers by slot index).  Inputs are left
    untouched; missing sections are treated as empty.
    """
    counters: dict[str, int] = {}
    timers: dict[str, dict] = {}
    histograms: dict[str, dict] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in (snapshot.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, stat in (snapshot.get("timers") or {}).items():
            if not stat.get("count"):
                continue
            mine = timers.get(name)
            if mine is None:
                mine = timers[name] = {
                    "count": 0, "total_s": 0.0,
                    "min_s": math.inf, "max_s": -math.inf,
                }
            mine["count"] += stat["count"]
            mine["total_s"] += stat["total_s"]
            mine["min_s"] = min(mine["min_s"], stat["min_s"])
            mine["max_s"] = max(mine["max_s"], stat["max_s"])
        for name, stat in (snapshot.get("histograms") or {}).items():
            if not stat.get("count"):
                continue
            mine = histograms.get(name)
            if mine is None:
                mine = histograms[name] = {
                    "count": 0, "total": 0.0,
                    "min": math.inf, "max": -math.inf, "last": 0.0,
                }
            mine["count"] += stat["count"]
            mine["total"] += stat["total"]
            mine["min"] = min(mine["min"], stat["min"])
            mine["max"] = max(mine["max"], stat["max"])
            mine["last"] = stat["last"]
    for stat in timers.values():
        stat["mean_s"] = stat["total_s"] / stat["count"]
    for stat in histograms.values():
        stat["mean"] = stat["total"] / stat["count"]
    return {
        "timers": {name: timers[name] for name in sorted(timers)},
        "counters": dict(sorted(counters.items())),
        "histograms": {name: histograms[name] for name in sorted(histograms)},
    }
