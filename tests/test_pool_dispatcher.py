"""The pool's dispatcher answers repeated goals itself.

A ``/query`` that a worker already answered from its call table, at the
dataset's published version, with the same goal text and config, is
answered by :class:`~repro.serve.pool.PooledService` from its copy of
that reply and reaches no worker.  These tests pin what the copy may
and may not do: its bytes equal the worker hit's, a new version or a
budget never reads it, it is bounded like a call table, and a dead
worker still gets its requests retried.

Also here: two ``/query``-during-``/update`` races, each a 400 before
queries were served at the highest published version and a retired
block was resent: every reply must be right at the version it names.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import sys
import threading
import time

import pytest

from repro.core import prepare as prepare_module
from repro.engine.budget import EvaluationBudget
from repro.obs import ThreadSafeMetrics, collect
from repro.serve import PooledService, QueryService, WorkerPoolError
from repro.serve import pool as pool_module

from .test_reply_bytes import assert_canonical, exchange, query_request
from .test_serve import chain_source, direct_rows, serving

GOAL = "anc(0, X)?"


@pytest.fixture(scope="module")
def pooled():
    """One two-worker pool for the tests that need no private one;
    datasets are isolated per test by name."""
    with collect(ThreadSafeMetrics()):
        service = PooledService(processes=2)
        try:
            yield service
        finally:
            service.close()


def counters(service) -> dict:
    return service.metrics_payload()["metrics"]["counters"]


def deltas(service, before: dict, *names: str) -> dict:
    after = counters(service)
    return {name: after.get(name, 0) - before.get(name, 0) for name in names}


def mirror(service, name: str, goal: str = GOAL, processes: int = 2) -> list:
    """Send *goal* until a worker has answered it from its call table:
    one miss per worker, then one worker hit."""
    return [service.query(name, goal) for _ in range(processes + 1)]


class TestDispatcherHits:
    def test_a_mirrored_goal_reaches_no_worker(self, pooled):
        pooled.load("hits", program_text=chain_source())
        warm = mirror(pooled, "hits")
        assert [r["table_hit"] for r in warm] == [False, False, True]
        before = counters(pooled)
        replies = [pooled.query("hits", GOAL) for _ in range(3)]
        assert deltas(
            pooled, before, "serve.dispatcher_hits", "serve.workers.dispatched",
            "serve.queries", "serve.strategy.alexander", "prepare.table_hits",
            "prepare.table_misses", "seminaive.runs",
        ) == {
            "serve.dispatcher_hits": 3, "serve.workers.dispatched": 0,
            "serve.queries": 3, "serve.strategy.alexander": 3,
            "prepare.table_hits": 3, "prepare.table_misses": 0,
            "seminaive.runs": 0,
        }
        for reply in replies:
            assert {**reply, "elapsed_ms": 0} == {**warm[-1], "elapsed_ms": 0}
            assert reply["answers"]["rows"] == direct_rows(chain_source(), GOAL)
            assert reply["elapsed_ms"] > 0

    def test_hits_observe_the_request_histogram(self, pooled):
        pooled.load("hist", program_text=chain_source())
        mirror(pooled, "hist")
        histograms = pooled.metrics_payload()["metrics"]["histograms"]
        before = histograms["serve.request_seconds"]["count"]
        pooled.query("hist", GOAL)
        histograms = pooled.metrics_payload()["metrics"]["histograms"]
        assert histograms["serve.request_seconds"]["count"] == before + 1

    def test_a_caller_cannot_change_the_next_hit(self, pooled):
        pooled.load("mut", program_text=chain_source())
        worker_hit = mirror(pooled, "mut")[-1]
        expected = json.loads(json.dumps(worker_hit))
        for reply in (worker_hit, pooled.query("mut", GOAL)):
            reply["answers"]["rows"].append([-1, -1])
            reply["answers"]["rows"][0][0] = "changed"
            reply["answers"]["atoms"].clear()
            reply["stats"]["inferences"] = -1
            reply["version"] = 99
        again = json.loads(json.dumps(pooled.query("mut", GOAL)))
        assert {**again, "elapsed_ms": 0} == {**expected, "elapsed_ms": 0}

    def test_goal_text_and_config_are_the_key(self, pooled):
        pooled.load("key", program_text=chain_source())
        mirror(pooled, "key")
        before = counters(pooled)
        renamed = pooled.query("key", "anc(0, Y)?")  # a worker hit, not ours
        explicit = pooled.query("key", GOAL, strategy="alexander")
        magic = pooled.query("key", GOAL, strategy="magic")
        assert deltas(pooled, before, "serve.dispatcher_hits") == {
            "serve.dispatcher_hits": 0,
        }
        assert renamed["table_hit"] and explicit["table_hit"]
        assert not magic["table_hit"]
        assert magic["answers"] == explicit["answers"]

    def test_budgeted_queries_neither_read_nor_fill_the_table(self, pooled):
        pooled.load("budget", program_text=chain_source())
        mirror(pooled, "budget")
        before = counters(pooled)
        tripped = pooled.query(
            "budget", GOAL, budget=EvaluationBudget(max_iterations=1)
        )
        assert tripped["partial"] and not tripped["table_hit"]
        roomy = EvaluationBudget(max_facts=10**6)
        replies = [
            pooled.query("budget", "anc(3, X)?", budget=roomy) for _ in range(4)
        ]
        assert deltas(
            pooled, before, "serve.dispatcher_hits", "serve.workers.dispatched",
        ) == {"serve.dispatcher_hits": 0, "serve.workers.dispatched": 5}
        assert all(not r["table_hit"] and not r["partial"] for r in replies)
        assert replies[0]["answers"]["rows"] == direct_rows(
            chain_source(), "anc(3, X)?"
        )
        before = counters(pooled)
        pooled.query("budget", GOAL)
        assert deltas(pooled, before, "serve.dispatcher_hits") == {
            "serve.dispatcher_hits": 1,
        }

    @pytest.mark.parametrize(
        "name, change",
        [
            ("kept", {"add": ["edge(100, 101)."]}),  # outside the footprint
            ("invalidated", {"add": ["edge(24, 25)."]}),  # answers change
        ],
    )
    def test_no_entry_outlives_its_version(self, pooled, name, change):
        pooled.load(name, program_text=chain_source())
        mirror(pooled, name)
        oracle = QueryService()
        oracle.load(name, program_text=chain_source())
        for step in ("update", "load"):
            if step == "update":
                pooled.update(name, **change)
                oracle.update(name, **change)
            else:
                source = chain_source(26)
                pooled.load(name, program_text=source)
                oracle.load(name, program_text=source)
            before = counters(pooled)
            replies = [pooled.query(name, GOAL) for _ in range(4)]
            expected = oracle.query(name, GOAL)
            assert deltas(pooled, before, "serve.dispatcher_hits") == {
                "serve.dispatcher_hits": 1,
            }, step
            for reply in replies:
                assert reply["version"] == expected["version"], step
                assert reply["answers"] == expected["answers"], step

    def test_a_reply_overtaken_by_a_publish_is_not_mirrored(
        self, pooled, monkeypatch,
    ):
        pooled.load("overtaken", program_text=chain_source())
        pooled.query("overtaken", GOAL)
        pooled.query("overtaken", GOAL)
        submit = pooled.pool.submit

        def submit_then_update(*args, **kwargs):
            reply = submit(*args, **kwargs)
            pooled.update("overtaken", add=["edge(100, 101)."])
            return reply

        monkeypatch.setattr(pooled.pool, "submit", submit_then_update)
        reply = pooled.query("overtaken", GOAL)
        assert reply["table_hit"] and reply["version"] == 1
        assert not [key for key in pooled._hits if key[0] == "overtaken"]

    def test_eviction_holds_the_bound(self, monkeypatch):
        # anc(k, X) on the 30-edge chain has 30 - k rows.
        bound = 30
        monkeypatch.setattr(prepare_module, "CALL_TABLE_MAX_ROWS", bound)
        with collect(ThreadSafeMetrics()):
            service = PooledService(processes=1)
            try:
                service.load("chain", program_text=chain_source(30))

                def size() -> int:
                    return service._hit_rows + len(service._hits)

                mirror(service, "chain", "anc(10, X)?", processes=1)
                assert size() == 21
                mirror(service, "chain", "anc(20, X)?", processes=1)
                assert size() == 11  # anc(10, X) was least recently used
                mirror(service, "chain", "anc(0, X)?", processes=1)
                assert size() == 11  # 30 rows never fit
                before = counters(service)
                for goal in ("anc(20, X)?", "anc(10, X)?", "anc(0, X)?"):
                    reply = service.query("chain", goal)
                    assert reply["table_hit"]
                    assert reply["answers"]["rows"] == direct_rows(
                        chain_source(30), goal
                    )
                    assert size() <= bound
                assert deltas(
                    service, before, "serve.dispatcher_hits",
                    "serve.workers.dispatched",
                ) == {"serve.dispatcher_hits": 1, "serve.workers.dispatched": 2}
            finally:
                service.close()

    def test_a_closed_service_fails_fast_on_a_mirrored_goal(self):
        with collect(ThreadSafeMetrics()):
            service = PooledService(processes=1)
            try:
                service.load("chain", program_text=chain_source())
                mirror(service, "chain", processes=1)
            finally:
                service.close()
            started = time.monotonic()
            with pytest.raises(WorkerPoolError, match="shut down"):
                service.query("chain", GOAL)
            assert time.monotonic() - started < 1.0


def test_an_unknown_keyword_is_a_type_error_at_the_call(monkeypatch):
    service = PooledService(processes=1)
    try:
        service.load("d", program_text="p(1, 2). q(X, Y) :- p(X, Y).")
        sent = []

        def submit(op, payload, dataset):
            sent.append((op, payload))
            return {}

        monkeypatch.setattr(service.pool, "submit", submit)
        with pytest.raises(TypeError, match="strategy_typo"):
            service.query("d", "p(1, X)?", strategy_typo="x")
        with pytest.raises(TypeError, match="strategy_typo"):
            service.prepare("d", "p(1, X)?", strategy_typo="x")
        assert sent == []
        # Only the settings given are forwarded.
        service.prepare("d", "q(1, X)?", strategy="seminaive")
        assert sent == [
            ("prepare", {"goal": "q(1, X)?", "config": {"strategy": "seminaive"}})
        ]
    finally:
        service.close()


_ELAPSED = re.compile(rb'"elapsed_ms": [^,]+, ')


def test_dispatcher_hit_body_equals_the_worker_hit_body():
    service = PooledService(processes=2)
    try:
        with serving(service) as (server, client):
            client.load("chain", chain_source())
            replies = exchange(server.port, [query_request("chain", GOAL)] * 4)
            assert client.counter("serve.dispatcher_hits") == 1
    finally:
        service.close()
    assert [status for status, _, _ in replies] == [200] * 4
    payloads = [assert_canonical(body) for _, _, body in replies]
    assert [p["table_hit"] for p in payloads] == [False, False, True, True]
    worker_hit, dispatcher_hit = (body for _, _, body in replies[2:])
    assert _ELAPSED.sub(b"", dispatcher_hit) == _ELAPSED.sub(b"", worker_hit)
    assert payloads[-1]["answers"] == payloads[0]["answers"]


def test_a_new_goal_on_a_dead_slot_is_retried_while_mirrored_goals_answer():
    # Counters are read from the dispatcher's registry: /metrics would
    # reach the dead slot itself.
    with collect(ThreadSafeMetrics()) as metrics:
        service = PooledService(processes=2)
        try:
            service.load("chain", program_text=chain_source())
            expected = mirror(service, "chain")[0]["answers"]
            os.kill(service.pool.worker_pids()[0], signal.SIGKILL)
            before = metrics.snapshot()["counters"]

            def moved() -> dict:
                after = metrics.snapshot()["counters"]
                return {
                    name.split(".")[-1]: after.get(name, 0) - before.get(name, 0)
                    for name in (
                        "serve.dispatcher_hits", "serve.workers.dispatched",
                        "serve.workers.retries", "serve.workers.crashed",
                    )
                }

            for _ in range(4):
                assert service.query("chain", GOAL)["answers"] == expected
            assert moved() == {
                "dispatcher_hits": 4, "dispatched": 0, "retries": 0, "crashed": 0,
            }
            # Round-robin: one of two new goals meets the dead slot.
            fresh = [service.query("chain", f"anc({k}, X)?") for k in (5, 6)]
            assert [r["table_hit"] for r in fresh] == [False, False]
            for k, reply in zip((5, 6), fresh):
                assert reply["answers"]["rows"] == direct_rows(
                    chain_source(), f"anc({k}, X)?"
                )
            assert moved() == {
                "dispatcher_hits": 4, "dispatched": 2, "retries": 1, "crashed": 1,
            }
            assert service.pool.restarts() == 1
            assert service.query("chain", GOAL)["answers"] == expected
        finally:
            service.close()


def test_threads_keep_the_mirror_bounded_and_its_row_count_exact(monkeypatch):
    """Four query threads and one updater on two cores, with a short
    switch interval: every reply is right, and the mirror's row count
    still equals the rows it holds, inside its bound."""
    bound = 40
    monkeypatch.setattr(prepare_module, "CALL_TABLE_MAX_ROWS", bound)
    goals = [f"anc({k}, X)?" for k in range(10, 30, 2)]
    expected = {goal: direct_rows(chain_source(30), goal) for goal in goals}
    with collect(ThreadSafeMetrics()) as metrics:
        service = PooledService(processes=2)
        try:
            service.load("chain", program_text=chain_source(30))
            wrong = []

            def client(offset: int) -> None:
                for i in range(60):
                    goal = goals[(offset + i) % len(goals)]
                    if service.query("chain", goal)["answers"]["rows"] != expected[goal]:
                        wrong.append(goal)

            def updater() -> None:
                for k in range(5):  # outside every goal's answers
                    service.update("chain", add=[f"edge({100 + k}, {101 + k})."])
                    time.sleep(0.01)

            threads = [threading.Thread(target=client, args=(n,)) for n in range(4)]
            threads.append(threading.Thread(target=updater))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert wrong == []
            stored = list(service._hits.values())
            assert service._hit_rows == sum(r["answers"]["count"] for r in stored)
            assert service._hit_rows + len(stored) <= bound
            assert metrics.snapshot()["counters"].get("serve.dispatcher_hits", 0) > 0
        finally:
            service.close()


# --- /query during /update ------------------------------------------------------

RACE_GOALS = ("anc(0, X)?", "anc(50, X)?", "anc(58, X)?")


def race(
    service, name: str, updates: int, pause: float = 0.0,
) -> tuple[list, list, set]:
    """Two threads query :data:`RACE_GOALS` while *updates* single-edge
    additions, *pause* seconds apart, extend a 60-edge chain; returns the
    errors, the replies that differ from a threaded
    :class:`QueryService` at their version, and the versions seen."""
    source = chain_source(60)
    batches = [{"add": [f"edge({60 + k}, {61 + k})."]} for k in range(updates)]
    oracle = QueryService()
    oracle.load(name, program_text=source)
    expected = {1: {goal: oracle.query(name, goal)["answers"] for goal in RACE_GOALS}}
    for batch in batches:
        version = oracle.update(name, **batch)["version"]
        expected[version] = {
            goal: oracle.query(name, goal)["answers"] for goal in RACE_GOALS
        }
    service.load(name, program_text=source)
    errors, wrong, seen = [], [], set()
    lock = threading.Lock()
    answered, done = threading.Event(), threading.Event()

    def query() -> None:
        for goal in itertools.cycle(RACE_GOALS):
            if done.is_set():
                return
            try:
                reply = service.query(name, goal)
            except Exception as exc:  # noqa: BLE001 - every failure is reported
                with lock:
                    errors.append(repr(exc))
                continue
            with lock:
                seen.add(reply["version"])
                if reply["answers"] != expected[reply["version"]][goal]:
                    wrong.append((reply["version"], goal))
            answered.set()

    threads = [threading.Thread(target=query) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        assert answered.wait(30.0)
        for batch in batches:
            service.update(name, **batch)
            time.sleep(pause)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    return errors, wrong, seen


def test_queries_during_an_update_see_the_published_version(pooled, monkeypatch):
    """While an ``/update`` freezes its version, queries are answered at
    the previous one instead of failing."""
    freeze = pool_module.freeze_database

    def slow_freeze(*args, **kwargs):
        time.sleep(0.02)
        return freeze(*args, **kwargs)

    monkeypatch.setattr(pool_module, "freeze_database", slow_freeze)
    errors, wrong, seen = race(pooled, "race-publish", updates=25)
    assert errors == []
    assert wrong == []
    assert len(seen) > 1


def test_a_retired_block_is_resent_with_the_current_spec(pooled, monkeypatch):
    """Two updates land between resolving a spec and the worker
    attaching its block, which is retired by then: the request is sent
    again, naming the current block."""
    resolve = pooled.pool._spec_provider
    pending = [0, 1]

    def update_twice_after_resolving(name):
        spec = resolve(name)
        while pending:
            k = pending.pop(0)
            pooled.update(name, add=[f"edge({60 + k}, {61 + k})."])
        return spec

    monkeypatch.setattr(pooled.pool, "_spec_provider", update_twice_after_resolving)
    pooled.load("race-retire-once", program_text=chain_source(60))
    # Both workers have yet to install this dataset, so each attaches.
    reply = pooled.query("race-retire-once", GOAL)
    assert reply["version"] == 3
    assert reply["answers"]["rows"] == direct_rows(chain_source(62), GOAL)

    calls = itertools.count()

    def every_other_resolve_is_slow(name):
        spec = resolve(name)
        if next(calls) % 2:
            time.sleep(0.01)
        return spec

    monkeypatch.setattr(pooled.pool, "_spec_provider", every_other_resolve_is_slow)
    errors, wrong, seen = race(pooled, "race-retire", updates=40, pause=0.003)
    assert errors == []
    assert wrong == []
    assert len(seen) > 1
