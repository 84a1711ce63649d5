"""Differential tests: the multiprocess serving path vs the direct engine.

The single-process threaded service is the oracle: everything the
:class:`~repro.serve.pool.PooledService` serves through worker
processes — answers, stats, update semantics — must be **bit-identical**
to a direct in-process :class:`~repro.core.engine.Engine.query`.  The
pool adds shared-memory dataset transport, snapshot decode, and
crash-restart failover; none of that may perturb a single row.

Also covered here: worker-death failover over real HTTP (SIGKILL a
worker mid-run, queries keep succeeding, restarts are counted) and the
client's bounded-retry behaviour including its opt-out.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest

from repro.core.engine import Engine
from repro.datalog.parser import parse_program
from repro.obs import ThreadSafeMetrics, collect
from repro.serve import PooledService, QueryService, create_server
from repro.serve.client import ServeClient, ServeError

from .test_reference import SEEDS, random_source

CHAIN = "\n".join(
    [f"edge({i}, {i + 1})." for i in range(30)]
    + [
        "anc(X, Y) :- edge(X, Y).",
        "anc(X, Y) :- edge(X, Z), anc(Z, Y).",
    ]
)

STRATEGIES = ("alexander", "magic", "supplementary", "seminaive")


def direct_rows(source: str, goal: str, strategy: str = "alexander", **config):
    program = parse_program(source)
    result = Engine(program).query(goal, strategy=strategy, **config)
    return [list(atom.ground_key()) for atom in result.answers]


@pytest.fixture(scope="module")
def pooled():
    """One two-worker pool shared by the in-process differential tests
    (spawn start-up is expensive; datasets are isolated per test by
    name)."""
    with collect(ThreadSafeMetrics()):
        service = PooledService(processes=2)
        try:
            yield service
        finally:
            service.close()


class TestPooledDifferential:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_answers_bit_identical(self, pooled, strategy):
        name = f"chain-{strategy}"
        pooled.load(name, program_text=CHAIN)
        served = pooled.query(name, "anc(0, X)?", strategy=strategy)
        assert served["answers"]["rows"] == direct_rows(
            CHAIN, "anc(0, X)?", strategy
        )
        again = pooled.query(name, "anc(0, X)?", strategy=strategy)
        assert again["answers"] == served["answers"]

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_random_programs_bit_identical(self, pooled, seed):
        source = random_source(seed)
        name = f"rand-{seed}"
        pooled.load(name, program_text=source)
        for goal in ("p(X, Y)?", "q(X, Y)?", "p(c0, Y)?"):
            served = pooled.query(name, goal)
            assert served["answers"]["rows"] == direct_rows(
                source, goal, "alexander"
            ), f"seed {seed} goal {goal}"

    def test_update_propagates_to_workers(self, pooled):
        oracle = QueryService()
        pooled.load("upd", program_text=CHAIN)
        oracle.load("upd", program_text=CHAIN)
        for batch in (["edge(30, 31)."], ["edge(31, 32)."]):
            pooled.update("upd", add=batch)
            oracle.update("upd", add=batch)
            served = pooled.query("upd", "anc(0, X)?")
            direct = oracle.query("upd", "anc(0, X)?")
            assert served["answers"] == direct["answers"]
            assert served["version"] == direct["version"]
        removed = pooled.update("upd", remove=["edge(31, 32)."])
        oracle.update("upd", remove=["edge(31, 32)."])
        assert removed["version"] == 4
        assert (
            pooled.query("upd", "anc(0, X)?")["answers"]
            == oracle.query("upd", "anc(0, X)?")["answers"]
        )

    def test_update_arity_mismatch_is_a_client_error(self, pooled):
        from repro.errors import ReproError

        pooled.load("arity", program_text=CHAIN)
        before = pooled.query("arity", "anc(0, X)?")
        for update in ({"add": ["edge(1, 2, 3)."]}, {"remove": ["edge(3)."]}):
            with pytest.raises(ReproError, match="arity"):
                pooled.update("arity", **update)
        after = pooled.query("arity", "anc(0, X)?")
        assert after["version"] == before["version"] == 1
        assert after["answers"] == before["answers"]

    def test_budget_payload_travels(self, pooled):
        pooled.load("budget", program_text=CHAIN)
        from repro.engine.budget import EvaluationBudget

        served = pooled.query(
            "budget", "anc(0, X)?", budget=EvaluationBudget(max_facts=3)
        )
        assert served["partial"] is True
        assert served["sound"] is True

    def test_unknown_dataset_fails_fast(self, pooled):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown dataset"):
            pooled.query("never-loaded", "anc(0, X)?")

    def test_metrics_merge_covers_workers(self, pooled):
        pooled.load("met", program_text=CHAIN)
        pooled.query("met", "anc(0, X)?")
        payload = pooled.metrics_payload()
        workers = payload["workers"]
        assert workers["processes"] == 2
        assert len(workers["pids"]) == 2
        assert payload["metrics"]["counters"].get("serve.queries", 0) >= 1


    def test_each_worker_warms_its_own_call_table(self, pooled):
        pooled.load("tab", program_text=CHAIN)
        expected = direct_rows(CHAIN, "anc(0, X)?")
        before = pooled.metrics_payload()
        replies = [pooled.query("tab", "anc(0, X)?") for _ in range(5)]
        # Round-robin over two workers: each evaluates the goal once.
        assert [r["table_hit"] for r in replies] == [
            False, False, True, True, True,
        ]
        for reply in replies:
            assert reply["answers"]["rows"] == expected
            assert reply["stats"] == replies[0]["stats"]
        after = pooled.metrics_payload()

        def delta(block, name):
            return after[block].get(name, 0) - before[block].get(name, 0)

        assert delta("cache", "table_entries") == 2
        assert delta("cache", "table_rows") == 2 * len(expected)
        counters = {
            name: after["metrics"]["counters"].get(name, 0)
            - before["metrics"]["counters"].get(name, 0)
            for name in ("prepare.table_hits", "prepare.table_misses",
                         "seminaive.runs")
        }
        assert counters == {
            "prepare.table_hits": 3, "prepare.table_misses": 2,
            "seminaive.runs": 2,
        }
        per_worker = after["workers"]["table_entries"]
        assert len(per_worker) == 2 and sum(per_worker) == (
            after["cache"]["table_entries"]
        )

    def test_unknown_option_value_is_a_client_error(self, pooled):
        from repro.errors import REMOVED_SETTINGS, ReproError

        pooled.load("bad", program_text=CHAIN)
        with pytest.raises(ReproError, match="unknown SIPS 'bogus'"):
            pooled.prepare("bad", "anc(0, X)?", sips="bogus")
        # The removed planner setting is a 400 naming the change.
        with collect(ThreadSafeMetrics()):
            server = create_server(port=0, service=pooled, install_metrics=False)
            thread = threading.Thread(
                target=server.serve_forever, kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            client = ServeClient(f"http://127.0.0.1:{server.port}", timeout=30.0)
            try:
                for path in ("/query", "/prepare"):
                    payload = {"dataset": "bad", "goal": "anc(0, X)?", "planner": "bogus"}
                    with pytest.raises(ServeError) as bad:
                        client._request(path, payload)
                    assert bad.value.status == 400
                    assert REMOVED_SETTINGS["planner"] in str(bad.value)
            finally:
                client.close()
                server.shutdown()
                server.server_close()
                thread.join(timeout=5.0)


class TestWorkerDeathFailover:
    def test_sigkill_worker_requests_keep_succeeding(self):
        """Kill one worker over a live HTTP server: the dispatcher
        respawns it, in-flight work is retried, and answers stay
        identical throughout."""
        with collect(ThreadSafeMetrics()):
            service = PooledService(processes=2)
            server = create_server(
                port=0, service=service, install_metrics=False
            )
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            client = ServeClient(
                f"http://127.0.0.1:{server.port}", timeout=30.0
            )
            try:
                client.wait_healthy(15.0)
                client.load("chain", CHAIN)
                expected = client.query("chain", "anc(0, X)?")["answers"]
                victims = client.health()["workers"]["pids"]
                assert len(victims) == 2
                os.kill(victims[0], signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                restarted = False
                while time.monotonic() < deadline and not restarted:
                    # Round-robin guarantees the dead slot is exercised.
                    for _ in range(4):
                        got = client.query("chain", "anc(0, X)?")["answers"]
                        assert got == expected
                    restarted = (
                        client.health()["workers"]["restarts"] >= 1
                    )
                assert restarted, "worker was never respawned"
                pids = client.health()["workers"]["pids"]
                assert victims[0] not in pids
                assert len(pids) == 2
            finally:
                client.close()
                server.shutdown()
                server.server_close()
                service.close()
                thread.join(timeout=5.0)

    def test_a_respawned_worker_starts_with_an_empty_call_table(self):
        with collect(ThreadSafeMetrics()):
            service = PooledService(processes=2)
            try:
                service.load("chain", program_text=CHAIN)
                expected = direct_rows(CHAIN, "anc(0, X)?")
                # Two misses, one per worker: a worker hit would be
                # mirrored in the dispatcher and keep the goal off the
                # respawned worker.
                warm = [service.query("chain", "anc(0, X)?") for _ in range(2)]
                assert [r["table_hit"] for r in warm] == [False, False]
                os.kill(service.pool.worker_pids()[0], signal.SIGKILL)
                # One request per slot: the dead slot's is retried on a
                # fresh process, which has to evaluate it.
                after = [service.query("chain", "anc(0, X)?") for _ in range(2)]
                assert sorted(r["table_hit"] for r in after) == [False, True]
                for reply in after:
                    assert reply["answers"]["rows"] == expected
                    assert reply["stats"] == warm[0]["stats"]
                assert service.pool.restarts() == 1
                again = [service.query("chain", "anc(0, X)?") for _ in range(2)]
                assert all(r["table_hit"] for r in again)
            finally:
                service.close()


def _counters(service) -> dict:
    return service.metrics_payload()["metrics"]["counters"]


class TestLockedRoundTrips:
    """The request thread does its own round trip on the worker's pipe:
    no feeder thread, so nothing may wedge a slot for later requests."""

    def test_hung_worker_is_restarted_and_its_slot_recovers(self):
        from repro.serve import WorkerPoolError

        with collect(ThreadSafeMetrics()):
            service = PooledService(processes=1)
            try:
                service.load("chain", program_text=CHAIN)
                expected = service.query("chain", "anc(0, X)?")["answers"]
                hung = service.pool.worker_pids()[0]
                os.kill(hung, signal.SIGSTOP)
                try:
                    started = time.monotonic()
                    with pytest.raises(WorkerPoolError, match="did not answer"):
                        service.pool.submit(
                            "query", {"goal": "anc(0, X)?"}, dataset="chain",
                            timeout=1.0,
                        )
                    assert time.monotonic() - started < 5.0
                finally:
                    try:
                        os.kill(hung, signal.SIGCONT)
                    except ProcessLookupError:
                        pass
                # The stopped worker was killed and reaped, not left behind.
                with pytest.raises(ProcessLookupError):
                    os.kill(hung, 0)
                assert service.pool.worker_pids()[0] != hung
                after = service.query("chain", "anc(0, X)?")
                assert after["answers"] == expected
                counters = _counters(service)
                assert counters.get("serve.workers.restarts") == 1
                assert counters.get("serve.workers.crashed", 0) == 0
                assert counters.get("serve.workers.retries", 0) == 0
            finally:
                service.close()

    def test_threads_through_a_worker_kill(self):
        """4 threads × 50 queries, one worker SIGKILLed mid-stream: every
        reply is right, the one request that met the dead worker is
        retried (and counted once), ``/metrics`` answers while requests
        are in flight, and a request after ``close()`` fails fast."""
        from repro.serve import WorkerPoolError

        goals = [f"anc({k}, X)?" for k in range(8)]
        expected = {goal: direct_rows(CHAIN, goal) for goal in goals}
        with collect(ThreadSafeMetrics()):
            service = PooledService(processes=2)
            try:
                service.load("chain", program_text=CHAIN)
                victim = service.pool.worker_pids()[0]
                done = []
                wrong = []
                lock = threading.Lock()
                halfway = threading.Event()

                def client(offset: int) -> None:
                    for i in range(50):
                        goal = goals[(offset + i) % len(goals)]
                        reply = service.query("chain", goal)
                        with lock:
                            if reply["answers"]["rows"] != expected[goal]:
                                wrong.append((goal, reply["answers"]))
                            done.append(goal)
                            if len(done) == 60:
                                halfway.set()

                threads = [
                    threading.Thread(target=client, args=(n,)) for n in range(4)
                ]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    for thread in threads:
                        thread.start()
                    assert halfway.wait(30.0)
                    os.kill(victim, signal.SIGKILL)
                    metrics = service.metrics_payload()
                    assert metrics["workers"]["processes"] == 2
                    for thread in threads:
                        thread.join(timeout=60.0)
                        assert not thread.is_alive()
                finally:
                    sys.setswitchinterval(interval)
                assert wrong == []
                assert len(done) == 200
                counters = _counters(service)
                assert counters.get("serve.workers.crashed") == 1
                assert counters.get("serve.workers.restarts") == 1
                assert counters.get("serve.workers.retries") == 1
                assert victim not in service.pool.worker_pids()
            finally:
                service.close()
            started = time.monotonic()
            with pytest.raises(WorkerPoolError, match="shut down"):
                service.query("chain", "anc(0, X)?")
            assert time.monotonic() - started < 1.0

    def test_a_closed_pool_is_a_503_over_http(self):
        with collect(ThreadSafeMetrics()):
            service = PooledService(processes=1)
            server = create_server(
                port=0, service=service, install_metrics=False
            )
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            client = ServeClient(f"http://127.0.0.1:{server.port}", retries=0)
            try:
                client.wait_healthy(15.0)
                client.load("chain", CHAIN)
                service.close()
                with pytest.raises(ServeError) as excinfo:
                    client.query("chain", "anc(0, X)?")
                assert excinfo.value.status == 503
                assert excinfo.value.transient
            finally:
                client.close()
                server.shutdown()
                server.server_close()
                service.close()
                thread.join(timeout=5.0)


class TestClientRetry:
    def test_opt_out_fails_immediately(self):
        client = ServeClient("http://127.0.0.1:1", timeout=1.0, retries=0)
        started = time.monotonic()
        with pytest.raises(ServeError) as excinfo:
            client.health()
        assert time.monotonic() - started < 1.5
        assert excinfo.value.transient  # refused → transient, yet not retried

    def test_retries_are_bounded_with_backoff(self):
        client = ServeClient(
            "http://127.0.0.1:1", timeout=1.0, retries=2, backoff=0.05
        )
        started = time.monotonic()
        with pytest.raises(ServeError):
            client.health()
        elapsed = time.monotonic() - started
        # Two retry sleeps: 0.05 + 0.10; bounded well under a second.
        assert 0.10 <= elapsed < 5.0

    def test_http_400_is_not_transient_and_not_retried(self):
        with collect(ThreadSafeMetrics()):
            server = create_server(port=0, install_metrics=False)
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            client = ServeClient(f"http://127.0.0.1:{server.port}")
            try:
                client.wait_healthy(15.0)
                with pytest.raises(ServeError) as excinfo:
                    client.query("no-such-dataset", "p(X)?")
                assert excinfo.value.status == 400
                assert not excinfo.value.transient
            finally:
                client.close()
                server.shutdown()
                server.server_close()
                thread.join(timeout=5.0)
