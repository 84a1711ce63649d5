"""The multiprocess serving backend: a pre-forked worker pool.

Threads share one interpreter; on CPython the GIL serialises the join
kernels, so the threaded :class:`~repro.serve.server.ReproServer` never
exceeds one core of evaluation throughput no matter how many clients
connect.  This module scales ``repro.serve`` across cores with
**processes** instead:

* a :class:`WorkerPool` pre-forks (spawn start method — it preserves
  ``sys.path`` and imports cleanly everywhere) ``N`` worker processes,
  each running a full single-process
  :class:`~repro.serve.service.QueryService` of its own;
* :class:`PooledService` is the dispatcher: it keeps the authoritative
  datasets in-process (so ``/load`` and ``/update`` semantics — version
  bumps, maintained-shape patching of its own bookkeeping — are exactly
  the single-process ones), publishes every dataset version as a
  shared-memory snapshot (:func:`~repro.core.snapshot.freeze_database`),
  and routes ``/query`` / ``/prepare`` round-robin to the workers;
* who answers what: a ``/query`` whose goal text and config a worker
  already answered from its call table, at the dataset's published
  version, is answered by the dispatcher from its copy of that reply
  (``serve.dispatcher_hits``) and reaches no worker.  Misses, budgeted
  requests, maintained and materialised shapes and ``/prepare`` go to a
  worker.  The copies are dropped when the dataset publishes a new
  version and bounded like a call table (``CALL_TABLE_MAX_ROWS``, least
  recently used out first);
* queries are served at the **highest published** version: an
  ``/update`` whose version is still being frozen has not returned, so
  the previous version answers meanwhile;
* there is no dispatcher thread: the HTTP request thread itself takes
  its slot's lock, sends on the worker's pipe and waits for the reply
  there, so a request crosses no thread handoff on its way;
* dataset propagation is **pull-based**: every dispatched request
  carries a spec ``{name, version, shm, size}`` resolved at send time;
  a worker seeing an unknown version attaches the named block,
  decodes the database straight out of shared memory (the serialized
  bytes are never copied between processes), and installs it; a block
  retired before the worker attached it gets the request resent with
  the current spec;
* workers that die (OOM-killed, crashed, ``kill -9`` in the tests) are
  detected at the pipe, respawned, and the in-flight request is retried
  once on the fresh worker — counted under ``serve.workers.crashed`` /
  ``serve.workers.restarts`` / ``serve.workers.retries``.  A worker that
  stays alive but does not answer within the request's timeout (stopped,
  livelocked) is killed and respawned too, and that request fails with
  a 503: its late reply must never answer the slot's next request;
* ``/metrics`` broadcasts to every worker and folds the per-process
  registries into one view with
  :func:`~repro.obs.metrics.merge_snapshots` (dispatcher first, then
  workers by slot index, so order-sensitive fields are deterministic).

Each worker prepares the shapes it is asked for itself, as a restarted
server does: the rewriting is fixed by the goal's adornment, so
preparing a shape again costs no more than loading a saved copy would.

Shared-memory lifetime: the dispatcher owns every block.  Publishing a
new dataset version keeps the previous block alive briefly (an in-flight
request dispatched a moment ago may still name it) and unlinks older
ones; :meth:`PooledService.close` — reached from
:func:`~repro.serve.server.run_server`'s shutdown path, so SIGTERM too —
reaps all workers and unlinks every block.  Workers deliberately
unregister attached blocks from their own ``resource_tracker``
(:meth:`~repro.core.snapshot.SharedSnapshot.attach`), so a worker
restart never destroys a block the dispatcher still serves.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from operator import itemgetter

from ..core import prepare as prepare_module
from ..core.snapshot import (
    SharedSnapshot, SnapshotError, freeze_database, load_database,
)
from ..datalog.parser import parse_program
from ..errors import ReproError
from ..obs import ThreadSafeMetrics, get_metrics, merge_snapshots, set_metrics
from .cache import DEFAULT_MAX_ENTRIES
from .service import QueryService, RenderedAnswers, budget_from_payload

__all__ = ["WorkerPool", "PooledService", "WorkerPoolError"]

DEFAULT_PROCESSES = 2

_SHUTTING_DOWN = {"ok": False, "status": 503, "error": "server shutting down"}


class WorkerPoolError(ReproError):
    """A request could not be served by any worker (pool shut down, the
    worker did not answer in time, or it died and the one retry died
    too); the HTTP layer answers 503."""


# --- worker side --------------------------------------------------------------

class _Retired(Exception):
    """The spec's shared block was unlinked before this worker attached
    it: newer versions were published meanwhile, so the dispatcher
    resends the request with its current spec."""


def _ensure_dataset(service: QueryService, installed: dict, spec) -> None:
    """Install the dataset version named by *spec*, if not already.

    *installed* maps dataset name → installed version for this worker.
    The shared block is read straight through a memoryview; decoded rows
    are copied into the worker's own database, so the block is closed
    again before the request runs (the dispatcher may retire it any
    time after).
    """
    if spec is None:
        return
    name, version = spec["name"], spec["version"]
    if installed.get(name) == version:
        return
    try:
        snapshot = SharedSnapshot.attach(spec["shm"], spec["size"])
    except SnapshotError as exc:
        raise _Retired(str(exc)) from None
    try:
        database, header = load_database(snapshot.data)
    finally:
        snapshot.close()
    extra = header.get("extra") or {}
    program = parse_program(extra.get("program", "")).without_facts()
    service.install(name, program, database, version)
    installed[name] = version


def _worker_main(conn, index: int, config: dict) -> None:
    """One worker process: a request loop over its end of the pipe.

    Messages are ``{"op", "payload", "spec"}`` dicts; every message gets
    exactly one reply (``{"ok": True, "result"}`` or ``{"ok": False,
    "status", "error"}``), which is what keeps the pipe protocol in
    lock-step with the parent's locked round trip.
    """
    set_metrics(ThreadSafeMetrics())
    service = QueryService(
        max_cached=config.get("max_cached", DEFAULT_MAX_ENTRIES)
    )
    installed: dict[str, int] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message.get("op")
        try:
            if op == "exit":
                conn.send({"ok": True, "result": {"pid": os.getpid()}})
                break
            elif op == "ping":
                reply = {"ok": True, "result": {"pid": os.getpid()}}
            elif op == "metrics":
                reply = {
                    "ok": True,
                    "result": {
                        "pid": os.getpid(),
                        "metrics": get_metrics().snapshot(),
                        "cache": service.cache.metrics(),
                    },
                }
            elif op in ("query", "prepare"):
                _ensure_dataset(service, installed, message.get("spec"))
                payload = message.get("payload") or {}
                if op == "prepare":
                    result = service.prepare(
                        message["spec"]["name"],
                        payload["goal"],
                        **(payload.get("config") or {}),
                    )
                else:
                    result = service.query(
                        message["spec"]["name"],
                        payload["goal"],
                        budget=budget_from_payload(payload.get("budget")),
                        **(payload.get("config") or {}),
                    )
                reply = {"ok": True, "result": result}
            else:
                reply = {
                    "ok": False, "status": 400,
                    "error": f"unknown worker op {op!r}",
                }
        except _Retired as exc:
            reply = {"ok": False, "status": 503, "error": str(exc), "retired": True}
        except ReproError as exc:
            reply = {"ok": False, "status": 400, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - worker must not die on a bad request
            reply = {
                "ok": False, "status": 500,
                "error": f"worker error: {type(exc).__name__}: {exc}",
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# --- parent side --------------------------------------------------------------

class _Slot:
    """One worker process, its pipe, and the lock that keeps one round
    trip at a time on that pipe."""

    __slots__ = ("index", "process", "conn", "lock", "restarts")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.restarts = 0


class WorkerPool:
    """``processes`` worker processes, one pipe each, no feeder threads.

    The calling thread does each round trip itself under the slot's
    lock.  *spec_provider* maps a dataset name to the shared-memory spec
    sent with every dataset-bound request; it is called at **send time**
    so a request retried after a worker death (or waiting for its slot
    across a ``/load``) always names the current snapshot.
    """

    def __init__(
        self,
        processes: int = DEFAULT_PROCESSES,
        config: "dict | None" = None,
        spec_provider=None,
        start_method: str = "spawn",
    ):
        if processes < 1:
            raise ReproError(
                f"worker pool needs at least one process, got {processes}"
            )
        self.processes = processes
        self._config = dict(config or {})
        self._spec_provider = spec_provider
        self._context = multiprocessing.get_context(start_method)
        self._stop = False
        self._lock = threading.Lock()
        self._rr = itertools.count()
        self._slots = [_Slot(i) for i in range(processes)]
        for slot in self._slots:
            self._spawn(slot)

    # --- lifecycle ------------------------------------------------------------
    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, slot.index, self._config),
            name=f"repro-serve-worker-{slot.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn

    def _respawn(self, slot: _Slot, crashed: bool = True) -> None:
        """Replace the slot's worker (the caller holds ``slot.lock``);
        a live one — hung, not crashed — is killed first."""
        obs = get_metrics()
        if obs.enabled:
            if crashed:
                obs.incr("serve.workers.crashed")
            obs.incr("serve.workers.restarts")
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.process.is_alive():
            slot.process.kill()  # SIGKILL also ends a stopped process
        slot.process.join(timeout=2.0)
        slot.restarts += 1
        self._spawn(slot)

    def shutdown(self) -> None:
        """Reap every worker; requests from now on fail fast."""
        with self._lock:
            if self._stop:
                return
            self._stop = True
        for slot in self._slots:
            # Let an in-flight round trip finish (bounded); a slot still
            # busy after that has its worker killed under the request,
            # which then sees the pipe close and answers 503.
            held = slot.lock.acquire(timeout=5.0)
            try:
                if held:
                    try:
                        slot.conn.send({"op": "exit"})
                        if slot.conn.poll(1.0):
                            slot.conn.recv()
                    except (EOFError, OSError):
                        pass
                    slot.process.join(timeout=2.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(timeout=1.0)
                if held:
                    slot.conn.close()
            finally:
                if held:
                    slot.lock.release()

    # --- dispatch -------------------------------------------------------------
    def _round_trip(self, slot: _Slot, op: str, payload, dataset, timeout):
        """Send one message on *slot*'s pipe and return the worker's
        reply dict, holding the slot's lock throughout; failures come
        back as error replies.

        A worker that dies is respawned and the message is sent once
        more.  One that finds the spec's block already retired (two
        newer versions were published since the spec was resolved) gets
        the message again with a freshly resolved spec.  One that stays
        silent until *timeout* is killed and respawned — its late reply
        would otherwise answer the next request on this slot — and the
        request fails.
        """
        deadline = time.monotonic() + timeout
        if not slot.lock.acquire(timeout=timeout):
            return {
                "ok": False, "status": 503,
                "error": f"worker {slot.index} stayed busy for {timeout}s",
            }
        try:
            deaths = 0
            while True:
                if self._stop:
                    return _SHUTTING_DOWN
                message = {"op": op, "payload": payload, "spec": None}
                if dataset is not None and self._spec_provider is not None:
                    try:
                        message["spec"] = self._spec_provider(dataset)
                    except ReproError as exc:
                        return {"ok": False, "status": 400, "error": str(exc)}
                try:
                    slot.conn.send(message)
                    # A dead worker's pipe reads EOF: poll wakes up.
                    if slot.conn.poll(max(0.0, deadline - time.monotonic())):
                        reply = slot.conn.recv()
                        if not reply.get("retired"):
                            return reply
                        continue  # resend, naming the current block
                except (EOFError, OSError):  # the worker died
                    if self._stop:
                        return _SHUTTING_DOWN
                    self._respawn(slot)
                    deaths += 1
                    if deaths == 2:
                        return {
                            "ok": False, "status": 503,
                            "error": "worker died twice serving this request",
                        }
                    obs = get_metrics()
                    if obs.enabled:
                        obs.incr("serve.workers.retries")
                    continue
                self._respawn(slot, crashed=False)
                return {
                    "ok": False, "status": 503,
                    "error": f"worker {slot.index} did not answer within "
                    f"{timeout}s and was restarted",
                }
        finally:
            slot.lock.release()

    def submit(self, op: str, payload=None, dataset=None, timeout=60.0):
        """Route one request to the next worker (round-robin) and wait.

        Raises the worker-reported error class: :class:`ReproError` for
        client errors (400), :class:`WorkerPoolError` when no worker
        could serve it in *timeout* seconds (503), ``RuntimeError`` for
        worker-internal failures (500).
        """
        if self._stop:
            raise WorkerPoolError("worker pool is shut down")
        obs = get_metrics()
        if obs.enabled:
            obs.incr("serve.workers.dispatched")
        slot = self._slots[next(self._rr) % self.processes]
        reply = self._round_trip(slot, op, payload, dataset, timeout)
        if reply.get("ok"):
            return reply["result"]
        status, error = reply.get("status", 500), reply.get("error", "")
        if status == 400:
            raise ReproError(error)
        if status == 503:
            raise WorkerPoolError(error)
        raise RuntimeError(error)

    def broadcast(self, op: str, payload=None, dataset=None, timeout=5.0):
        """Run *op* on every worker, one locked round trip each; a worker
        that misses *timeout* contributes ``None``."""
        replies = []
        for slot in self._slots:
            reply = self._round_trip(slot, op, payload, dataset, timeout)
            replies.append(reply["result"] if reply.get("ok") else None)
        return replies

    # --- introspection --------------------------------------------------------
    def worker_pids(self) -> list:
        return [
            slot.process.pid if slot.process is not None else None
            for slot in self._slots
        ]

    def restarts(self) -> int:
        return sum(slot.restarts for slot in self._slots)


class PooledService:
    """The dispatcher-side service: single-process semantics, multiprocess
    execution.

    Duck-type compatible with :class:`~repro.serve.service.QueryService`
    where the HTTP layer cares (``load`` / ``update`` / ``query`` /
    ``prepare`` / ``datasets`` / ``metrics_payload`` / ``health_payload``
    / ``close``).  Mutations run on the wrapped in-process service (the
    authority for versions and fingerprints), then publish a
    shared-memory snapshot; reads are dispatched to the pool, except
    repeated table hits, which the dispatcher answers itself.
    """

    def __init__(
        self,
        processes: int = DEFAULT_PROCESSES,
        max_cached: int = DEFAULT_MAX_ENTRIES,
        start_method: str = "spawn",
    ):
        self._service = QueryService(max_cached=max_cached)
        self._lock = threading.Lock()
        # Per dataset, (version, block) pairs in version order: queries
        # go to the highest published version.
        self._snapshots: dict[str, list] = {}
        # Worker table hits mirrored here, keyed (dataset, version, goal
        # text, config), least recently used first; guarded by _lock.
        self._hits: "OrderedDict[tuple, dict]" = OrderedDict()
        self._hit_rows = 0
        self.pool = WorkerPool(
            processes,
            config={"max_cached": max_cached},
            spec_provider=self._spec,
            start_method=start_method,
        )
        self._closed = False

    # --- delegated bookkeeping ------------------------------------------------
    @property
    def cache(self):
        return self._service.cache

    def dataset(self, name: str):
        return self._service.dataset(name)

    def datasets(self) -> list:
        return self._service.datasets()

    def load(
        self,
        name: str,
        program_text: "str | None" = None,
        facts_text: "str | None" = None,
        extend: bool = False,
    ) -> dict:
        info = self._service.load(
            name, program_text=program_text, facts_text=facts_text,
            extend=extend,
        )
        self._publish(name)
        return info

    def update(self, name: str, add=(), remove=()) -> dict:
        info = self._service.update(name, add=add, remove=remove)
        self._publish(name)
        return info

    # --- publication ----------------------------------------------------------
    def _publish(self, name: str) -> None:
        """Freeze the current dataset version into shared memory and
        drop the dataset's mirrored hits.

        Keeps the two highest versions' blocks per dataset: a request
        dispatched just before this publish may still carry the previous
        block's name, so it survives one generation before being
        unlinked (a worker that finds it gone is sent the current spec).
        """
        dataset = self._service.dataset(name)
        snapshot = freeze_database(
            dataset.database,
            extra={
                "program": "\n".join(
                    str(rule) for rule in dataset.program.rules
                ),
                "dataset": dataset.name,
                "version": dataset.version,
            },
        )
        with self._lock:
            history = self._snapshots.setdefault(name, [])
            history.append((dataset.version, snapshot))
            history.sort(key=itemgetter(0))  # concurrent publishes may cross
            while len(history) > 2:
                _, retired = history.pop(0)
                retired.close()
                retired.unlink()
            for key in [key for key in self._hits if key[0] == name]:
                self._hit_rows -= self._hits.pop(key)["answers"]["count"]

    def _spec(self, name: str) -> dict:
        """The highest published version of *name*: an ``/update`` still
        freezing its version has not returned, so serving the previous
        one is linearizable."""
        with self._lock:
            history = self._snapshots.get(name)
            if history:
                version, snapshot = history[-1]
                return {
                    "name": name,
                    "version": version,
                    "shm": snapshot.name,
                    "size": snapshot.size,
                }
        raise ReproError(
            f"dataset {name!r} has no published snapshot"
        )  # pragma: no cover - only a query racing the first /load of name

    # --- dispatched requests --------------------------------------------------
    def query(
        self, dataset_name: str, goal, strategy=None, sips=None, budget=None,
        maintain=None,
    ) -> dict:
        """Answer from the mirrored worker table hits when the goal text
        and config were already a table hit at the published version;
        otherwise dispatch to a worker (budgeted requests always are).
        A ``None`` setting is left to the worker's default."""
        started = time.perf_counter()
        if self._closed:
            raise WorkerPoolError("worker pool is shut down")
        self._service.dataset(dataset_name)  # fail fast on unknown names
        payload = {
            "goal": str(goal),
            "config": _config(strategy, sips, maintain),
            "budget": _budget_payload(budget),
        }
        if payload["budget"] is not None:
            return self.pool.submit("query", payload, dataset=dataset_name)
        goal_key = (payload["goal"], tuple(sorted(payload["config"].items())))
        with self._lock:
            history = self._snapshots.get(dataset_name)
            key = (dataset_name, history[-1][0] if history else None) + goal_key
            stored = self._hits.get(key)
            if stored is not None:
                self._hits.move_to_end(key)
        if stored is None:
            reply = self.pool.submit("query", payload, dataset=dataset_name)
            if reply["table_hit"] and type(reply["answers"]) is RenderedAnswers:
                self._mirror((dataset_name, reply["version"]) + goal_key, reply)
            return reply
        reply = _fresh(stored)
        elapsed = time.perf_counter() - started
        reply["elapsed_ms"] = elapsed * 1000.0
        obs = get_metrics()
        if obs.enabled:
            obs.incr("serve.queries")
            obs.incr(f"serve.strategy.{reply['strategy']}")
            obs.incr("prepare.table_hits")
            obs.incr("serve.dispatcher_hits")
            obs.observe("serve.request_seconds", elapsed)
        return reply

    def _mirror(self, key: tuple, reply: dict) -> None:
        """Keep a copy of a worker's table-hit *reply* under *key* if its
        version is still the published one, evicting least recently used
        hits while rows plus entries exceed ``CALL_TABLE_MAX_ROWS``."""
        rows = reply["answers"]["count"]
        bound = prepare_module.CALL_TABLE_MAX_ROWS
        if rows >= bound:
            return
        stored = _fresh(reply)
        with self._lock:
            history = self._snapshots.get(key[0])
            if not history or history[-1][0] != key[1]:
                return
            old = self._hits.pop(key, None)
            if old is not None:
                self._hit_rows -= old["answers"]["count"]
            self._hits[key] = stored
            self._hit_rows += rows
            while self._hit_rows + len(self._hits) > bound:
                _, gone = self._hits.popitem(last=False)
                self._hit_rows -= gone["answers"]["count"]

    def prepare(
        self, dataset_name: str, goal, strategy=None, sips=None, maintain=None,
    ) -> dict:
        self._service.dataset(dataset_name)
        payload = {"goal": str(goal), "config": _config(strategy, sips, maintain)}
        return self.pool.submit("prepare", payload, dataset=dataset_name)

    # --- introspection / lifecycle --------------------------------------------
    def metrics_payload(self) -> dict:
        replies = self.pool.broadcast("metrics")
        snapshots = [get_metrics().snapshot()]
        caches = []
        pids = []
        for reply in replies:
            if reply is None:
                continue
            snapshots.append(reply["metrics"])
            caches.append(reply["cache"])
            pids.append(reply["pid"])
        cache_totals: dict = {}
        for stats in caches:
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    cache_totals[key] = cache_totals.get(key, 0) + value
        payload = {
            "metrics": merge_snapshots(*snapshots),
            "cache": cache_totals,
            "workers": {
                "processes": self.pool.processes,
                "pids": self.pool.worker_pids(),
                "responding": len(caches),
                "restarts": self.pool.restarts(),
                # Call tables are per process: under round-robin each
                # worker warms its own (the totals are in "cache").
                "table_entries": [stats["table_entries"] for stats in caches],
            },
        }
        return payload

    def health_payload(self) -> dict:
        payload = self._service.health_payload()
        with self._lock:
            shared = [
                snapshot.name
                for history in self._snapshots.values()
                for _, snapshot in history
            ]
        payload["workers"] = {
            "processes": self.pool.processes,
            "pids": self.pool.worker_pids(),
            "restarts": self.pool.restarts(),
        }
        payload["shared_memory"] = sorted(shared)
        return payload

    def close(self) -> None:
        """Reap every worker, then unlink every shared block (idempotent,
        and reached from ``run_server``'s shutdown path — SIGTERM
        included)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.pool.shutdown()
        with self._lock:
            histories = list(self._snapshots.values())
            self._snapshots.clear()
            self._hits.clear()
            self._hit_rows = 0
        for history in histories:
            for _, snapshot in history:
                snapshot.close()
                snapshot.unlink()


def _config(strategy, sips, maintain) -> dict:
    """The settings a dispatched request forwards: the non-``None`` ones,
    in the order the HTTP layer reads them."""
    config = {"strategy": strategy, "sips": sips, "maintain": maintain}
    return {name: value for name, value in config.items() if value is not None}


def _fresh(reply: dict) -> dict:
    """A copy of a table-hit *reply* sharing no mutable part with it."""
    answers = reply["answers"]
    return {
        **reply,
        "answers": RenderedAnswers(answers["rows"], answers["atoms"], answers.json),
        "stats": dict(reply["stats"]),
    }


def _budget_payload(budget) -> "dict | None":
    """Re-encode an :class:`~repro.engine.budget.EvaluationBudget` into
    the wire form :func:`~repro.serve.service.budget_from_payload`
    decodes (the worker rebuilds it on its side of the pipe)."""
    if budget is None:
        return None
    payload = {}
    for field in (
        "wall_clock_seconds", "max_iterations", "max_facts", "max_attempts",
    ):
        value = getattr(budget, field, None)
        if value is not None:
            payload[field] = value
    return payload or None
