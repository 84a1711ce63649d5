"""Tests for the serving layer (repro.serve.*).

Covers the prepared-query cache (LRU, races, dataset eviction), the
HTTP-free :class:`QueryService` payload contract, the live
:class:`ThreadingHTTPServer` endpoints, thread-safe metrics, and the
headline concurrency guarantee: N simultaneous clients — mixed cache
hits and misses, one with a tiny budget — each get a response
bit-identical to a direct :meth:`Engine.query`, with the budget-tripped
response flagged as a sound partial.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.core.engine import Engine
from repro.core.prepare import prepare_query
from repro.datalog.parser import parse_program
from repro.errors import MAINTAIN_DRED_ONLY, REMOVED_SETTINGS, ReproError
from repro.obs import ThreadSafeMetrics, collect
from repro.serve import (
    PooledService,
    PreparedQueryCache,
    QueryService,
    ServeClient,
    create_server,
)
from repro.serve.client import ServeError
from repro.serve.service import budget_from_payload

CHAIN_LENGTH = 24

SG_SOURCE = """
flat(a1, a2). flat(b1, b2).
up(c1, a1). up(c2, a2). up(d1, b1). up(d2, b2).
down(a1, e1). down(a2, e2). down(b1, f1). down(b2, f2).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
"""


def chain_source(n: int = CHAIN_LENGTH) -> str:
    lines = [f"edge({i}, {i + 1})." for i in range(n)]
    lines.append("anc(X, Y) :- edge(X, Y).")
    lines.append("anc(X, Y) :- edge(X, Z), anc(Z, Y).")
    return "\n".join(lines)


def direct_rows(source: str, goal: str, strategy: str = "alexander"):
    """What a direct in-process Engine.query renders for *goal*."""
    program = parse_program(source)
    result = Engine(program).query(goal, strategy=strategy)
    return [list(atom.ground_key()) for atom in result.answers]


@pytest.fixture
def service():
    service = QueryService()
    service.load("chain", chain_source())
    return service


# --- cache ---------------------------------------------------------------
class TestPreparedQueryCache:
    def _prepared(self, label="x"):
        program = parse_program("p(a). q(X) :- p(X).")
        return prepare_query(program, "q(X)?", strategy="seminaive")

    def test_miss_then_hit(self):
        cache = PreparedQueryCache(4)
        prepared = self._prepared()
        first, hit_a = cache.get_or_prepare(("k",), lambda: prepared)
        second, hit_b = cache.get_or_prepare(("k",), lambda: self._prepared())
        assert (hit_a, hit_b) == (False, True)
        assert first is prepared and second is prepared
        assert cache.stats() == {
            "entries": 1, "max_entries": 4, "hits": 1, "misses": 1,
            "races": 0, "evictions": 0, "drops": 0,
        }

    def test_lru_eviction_order(self):
        cache = PreparedQueryCache(2)
        cache.get_or_prepare(("a",), self._prepared)
        cache.get_or_prepare(("b",), self._prepared)
        cache.get_or_prepare(("a",), self._prepared)  # refresh a
        cache.get_or_prepare(("c",), self._prepared)  # evicts b
        assert cache.peek(("a",)) is not None
        assert cache.peek(("b",)) is None
        assert cache.peek(("c",)) is not None
        assert cache.evictions == 1

    def test_peek_does_not_touch_counters_or_order(self):
        cache = PreparedQueryCache(2)
        cache.get_or_prepare(("a",), self._prepared)
        cache.get_or_prepare(("b",), self._prepared)
        cache.peek(("a",))  # no LRU refresh
        cache.get_or_prepare(("c",), self._prepared)  # still evicts a
        assert cache.peek(("a",)) is None
        assert cache.hits == 0

    def test_drop_dataset_scopes_by_key_head(self):
        cache = PreparedQueryCache(8)
        cache.get_or_prepare(("db1", 1, "rest"), self._prepared)
        cache.get_or_prepare(("db1", 2, "rest"), self._prepared)
        cache.get_or_prepare(("db2", 1, "rest"), self._prepared)
        assert cache.drop_dataset("db1") == 2
        assert len(cache) == 1
        assert cache.peek(("db2", 1, "rest")) is not None

    def test_racing_misses_adopt_the_first_insertion(self):
        cache = PreparedQueryCache(4)
        barrier = threading.Barrier(4)
        prepared_objects = []
        lock = threading.Lock()

        def factory():
            made = self._prepared()
            with lock:
                prepared_objects.append(made)
            return made

        def race():
            barrier.wait()
            return cache.get_or_prepare(("shared",), factory)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: race(), range(4)))
        winners = {id(prepared) for prepared, _ in results}
        assert len(winners) == 1  # every thread shares one object
        assert cache.peek(("shared",)) in [p for p, _ in results]
        assert len(cache) == 1
        # Accounting classifies requests by what they got, not what they
        # first saw: exactly one insertion is a miss; every other request
        # — early hit or race loser adopting the winner — is a hit, and
        # each wasted preparation is a race.  (Before the fix, race
        # losers were booked as misses *and* returned hit=False despite
        # serving the cached shape.)
        assert cache.misses == 1
        assert cache.hits == 3
        assert cache.races == len(prepared_objects) - 1
        assert cache.hits + cache.misses == 4
        assert sum(1 for _, hit in results if not hit) == 1

    def test_race_loser_counts_as_hit_not_miss(self):
        # Deterministic two-thread reconstruction of the race: the loser
        # runs its factory while the winner's entry is already cached.
        cache = PreparedQueryCache(4)
        winner = self._prepared()
        loser_prepared = self._prepared()

        def losing_factory():
            # Simulate the interleaving: the other thread inserts while
            # this factory (outside the lock) is still preparing.
            cache.get_or_prepare(("k",), lambda: winner)
            return loser_prepared

        adopted, hit = cache.get_or_prepare(("k",), losing_factory)
        assert adopted is winner
        assert hit is True  # served from cache, despite preparing
        stats = cache.stats()
        assert stats["misses"] == 1  # only the winner's insertion
        assert stats["hits"] == 1   # the loser, on adoption
        assert stats["races"] == 1  # the wasted preparation
        assert stats["hits"] + stats["misses"] == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PreparedQueryCache(0)

    def test_rekey_keeps_fresh_new_version_entries(self):
        # A request racing against an update can insert a freshly
        # prepared new-version shape before rekey_dataset runs; the
        # migration must keep it, not discard valid work.
        cache = PreparedQueryCache(8)
        cache.get_or_prepare(("db", 1, "old"), self._prepared)
        cache.get_or_prepare(("db", 2, "fresh"), self._prepared)
        kept, dropped = cache.rekey_dataset("db", 1, 2, lambda k, p: True)
        assert kept == 2 and dropped == 0
        assert cache.peek(("db", 2, "old")) is not None
        assert cache.peek(("db", 2, "fresh")) is not None

    def test_rekey_collision_drops_exactly_one(self):
        # The same shape exists both as an old-version entry (to be
        # migrated) and as a fresh new-version insertion.  Exactly one
        # survives; the other is counted as dropped — a silent
        # overwrite would leak an entry past every counter.
        cache = PreparedQueryCache(8)
        cache.get_or_prepare(("db", 1, "shape"), self._prepared)
        cache.get_or_prepare(("db", 2, "shape"), self._prepared)
        kept, dropped = cache.rekey_dataset("db", 1, 2, lambda k, p: True)
        assert kept == 1 and dropped == 1
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["entries"] == (
            stats["misses"] - stats["evictions"] - stats["drops"]
        )

    def test_rekey_drops_older_stale_versions(self):
        cache = PreparedQueryCache(8)
        cache.get_or_prepare(("db", 1, "a"), self._prepared)
        cache.get_or_prepare(("db", 3, "b"), self._prepared)
        kept, dropped = cache.rekey_dataset("db", 3, 4, lambda k, p: True)
        assert kept == 1 and dropped == 1  # version-1 leftover dropped
        assert cache.peek(("db", 4, "b")) is not None

    def test_dataset_drops_are_counted(self):
        cache = PreparedQueryCache(8)
        cache.get_or_prepare(("db", 1, "a"), self._prepared)
        cache.get_or_prepare(("db", 2, "b"), self._prepared)
        cache.get_or_prepare(("other", 1, "a"), self._prepared)
        assert cache.drop_dataset("db") == 2  # every version of the dataset
        assert cache.drop_dataset("db") == 0  # absent: not counted
        assert cache.peek(("other", 1, "a")) is not None
        assert cache.drop_dataset("other") == 1
        stats = cache.stats()
        assert stats["drops"] == 3
        assert stats["entries"] == 0
        assert stats["entries"] == (
            stats["misses"] - stats["evictions"] - stats["drops"]
        )

    def test_accounting_invariants_under_concurrent_stress(self):
        """Hammer get_or_prepare / rekey_dataset / drop_dataset from many
        threads; the conservation laws must hold at the end (and the
        final entry census must reconcile with the counters exactly)."""
        cache = PreparedQueryCache(16)
        prepared = self._prepared()
        requests = 0
        lock = threading.Lock()
        stop = threading.Event()
        version = [1]

        def querier(worker: int):
            nonlocal requests
            count = 0
            while not stop.is_set() and count < 300:
                with lock:
                    v = version[0]
                shape = f"shape-{(worker + count) % 24}"
                cache.get_or_prepare(("db", v, shape), lambda: prepared)
                count += 1
            with lock:
                requests += count

        def updater():
            for _ in range(40):
                with lock:
                    old = version[0]
                    version[0] = old + 1
                cache.rekey_dataset(
                    "db", old, old + 1,
                    lambda key, p: key[2].endswith(("0", "2", "4", "6", "8")),
                )
                time.sleep(0.001)

        def dropper():
            for _ in range(200):
                cache.drop_dataset("db")

        threads = (
            [threading.Thread(target=querier, args=(w,)) for w in range(4)]
            + [threading.Thread(target=updater), threading.Thread(target=dropper)]
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        stop.set()
        stats = cache.stats()
        # Conservation: every request is a hit or a miss; every entry
        # entered via a miss and left via an eviction or a drop.
        assert stats["hits"] + stats["misses"] == requests
        assert stats["entries"] == (
            stats["misses"] - stats["evictions"] - stats["drops"]
        )
        assert 0 <= stats["entries"] <= 16


# --- budgets from payloads ------------------------------------------------
class TestBudgetFromPayload:
    def test_none_and_empty_mean_unbudgeted(self):
        assert budget_from_payload(None) is None
        assert budget_from_payload({}) is None
        assert budget_from_payload({"max_facts": None}) is None

    def test_decodes_fields(self):
        budget = budget_from_payload({"max_facts": 5, "max_iterations": 2})
        assert budget.max_facts == 5
        assert budget.max_iterations == 2
        assert budget.wall_clock_seconds is None

    def test_rejects_unknown_fields_and_non_objects(self):
        with pytest.raises(ReproError, match="unknown budget field"):
            budget_from_payload({"max_factz": 5})
        with pytest.raises(ReproError, match="must be an object"):
            budget_from_payload(5)

    @pytest.mark.parametrize(
        "field",
        ["wall_clock_seconds", "max_iterations", "max_facts", "max_attempts"],
    )
    def test_rejects_nonpositive_and_nonnumeric_limits(self, field):
        # Zero and negative limits would trip before any work; strings
        # would TypeError mid-evaluation; booleans are JSON client bugs.
        # All must be a 400-shaped ReproError at decode time instead.
        for bad in (0, -1, -0.5, "ten", True, False, [1], {"n": 1}):
            with pytest.raises(ReproError, match="positive number"):
                budget_from_payload({field: bad})

    def test_accepts_positive_numeric_limits(self):
        budget = budget_from_payload({"wall_clock_seconds": 0.25})
        assert budget.wall_clock_seconds == 0.25
        assert budget_from_payload({"max_facts": 1}).max_facts == 1


# --- the HTTP-free service -----------------------------------------------
class TestQueryService:
    def test_query_payload_matches_direct_engine(self, service):
        payload = service.query("chain", "anc(0, X)?")
        assert payload["answers"]["rows"] == direct_rows(
            chain_source(), "anc(0, X)?"
        )
        assert payload["answers"]["count"] == CHAIN_LENGTH
        assert payload["complete"] and payload["sound"]
        assert not payload["partial"]
        assert payload["prepared"] and not payload["cache_hit"]
        assert payload["stats"]["inferences"] > 0

    def test_second_identical_query_is_a_cache_hit(self, service):
        first = service.query("chain", "anc(0, X)?")
        second = service.query("chain", "anc(0, X)?")
        assert not first["cache_hit"] and second["cache_hit"]
        assert first["answers"] == second["answers"]
        assert first["stats"]["inferences"] == second["stats"]["inferences"]

    def test_rebound_constant_shares_the_prepared_shape(self, service):
        service.query("chain", "anc(0, X)?")
        rebound = service.query("chain", "anc(5, X)?")
        assert rebound["cache_hit"]
        assert rebound["answers"]["rows"] == direct_rows(
            chain_source(), "anc(5, X)?"
        )

    def test_materialised_entry_serves_other_predicates(self, service):
        # seminaive materialises the full model under a */* cache key,
        # so a follow-up goal over a different predicate must hit that
        # entry and be answered by lookup, not rejected as a shape
        # mismatch (regression: second predicate raised ReproError).
        first = service.query("chain", "anc(0, X)?", strategy="seminaive")
        second = service.query("chain", "edge(0, X)?", strategy="seminaive")
        assert not first["cache_hit"] and second["cache_hit"]
        assert second["answers"]["rows"] == direct_rows(
            chain_source(), "edge(0, X)?", strategy="seminaive"
        )

    def test_unpreparable_strategy_falls_back_to_direct(self, service):
        payload = service.query("chain", "anc(0, X)?", strategy="oldt")
        assert not payload["prepared"] and not payload["cache_hit"]
        assert payload["answers"]["rows"] == direct_rows(
            chain_source(), "anc(0, X)?", strategy="oldt"
        )
        assert service.cache.stats()["entries"] == 0

    def test_budget_trip_is_a_sound_partial_payload(self, service):
        full = service.query("chain", "anc(0, X)?")
        from repro.engine.budget import EvaluationBudget

        tripped = service.query(
            "chain", "anc(0, X)?", budget=EvaluationBudget(max_iterations=2)
        )
        assert tripped["partial"] and tripped["sound"]
        assert not tripped["complete"]
        assert tripped["budget_limit"]
        full_rows = {tuple(row) for row in full["answers"]["rows"]}
        partial_rows = {tuple(row) for row in tripped["answers"]["rows"]}
        assert partial_rows <= full_rows

    def test_unknown_dataset_and_strategy_rejected(self, service):
        with pytest.raises(ReproError, match="unknown dataset"):
            service.query("nope", "anc(0, X)?")
        with pytest.raises(ReproError, match="unknown strategy"):
            service.query("chain", "anc(0, X)?", strategy="nope")

    def test_load_requires_program_text(self):
        service = QueryService()
        with pytest.raises(ReproError, match="requires non-empty"):
            service.load("empty")
        with pytest.raises(ReproError, match="cannot extend"):
            service.load("ghost", "p(a).", extend=True)

    def test_load_rejects_blank_text(self):
        # Empty and whitespace-only source must be a client error, not a
        # silently-installed empty dataset.
        service = QueryService()
        for text in ("", "   \n\t"):
            with pytest.raises(ReproError, match="requires non-empty"):
                service.load("blank", program_text=text)
        with pytest.raises(ReproError, match="requires non-empty"):
            service.load("blank", program_text="", facts_text="  ")
        assert service.datasets() == []  # nothing was installed

    def test_load_with_non_ascii_digit_is_a_client_error(self):
        # Used to escape as int()'s bare ValueError: a 500, not a 400.
        service = QueryService()
        for text in ("p(²).", "q(a).\nr(X) :- q(X), X < ٣."):
            with pytest.raises(ReproError, match="unexpected character"):
                service.load("digits", program_text=text)
            with pytest.raises(ReproError, match="unexpected character"):
                service.load("digits", program_text="q(a).", facts_text=text)
        assert service.datasets() == []

    def test_extend_without_text_rejected(self, service):
        # A no-text extend used to bump the version and flush the cache
        # while changing nothing; it must be rejected before either.
        service.query("chain", "anc(0, X)?")  # populate the cache
        version = service.dataset("chain").version
        with pytest.raises(ReproError, match="requires non-empty"):
            service.load("chain", extend=True)
        with pytest.raises(ReproError, match="requires non-empty"):
            service.load("chain", program_text="  \n", extend=True)
        assert service.dataset("chain").version == version
        assert len(service.cache) == 1  # cache survived the rejected load

    def test_reload_bumps_version_and_drops_cache(self, service):
        before = service.query("chain", "anc(0, X)?")
        assert before["version"] == 1
        info = service.load("chain", chain_source(CHAIN_LENGTH + 1))
        assert info["version"] == 2
        assert info["cache_entries_dropped"] == 1
        after = service.query("chain", "anc(0, X)?")
        assert after["version"] == 2
        assert not after["cache_hit"]  # old shape is gone
        assert after["answers"]["count"] == CHAIN_LENGTH + 1

    def test_extend_keeps_existing_facts(self, service):
        service.load("chain", facts_text=f"edge({CHAIN_LENGTH}, {CHAIN_LENGTH + 1}).", extend=True)
        payload = service.query("chain", "anc(0, X)?")
        assert payload["answers"]["count"] == CHAIN_LENGTH + 1

    def test_prepare_endpoint_reports_shape(self, service):
        first = service.prepare("chain", "anc(0, X)?")
        assert first["mode"] == "transform"
        assert first["adornment"] == "bf"
        assert not first["cache_hit"]
        assert first["rules_compiled"] > 0
        second = service.prepare("chain", "anc(1, X)?")
        assert second["cache_hit"]
        hit = service.query("chain", "anc(0, X)?")
        assert hit["cache_hit"]

    def test_prepare_surfaces_unpreparable_strategies(self, service):
        from repro.errors import UnpreparableStrategyError

        with pytest.raises(UnpreparableStrategyError):
            service.prepare("chain", "anc(0, X)?", strategy="sld")


# --- thread-safe metrics --------------------------------------------------
class TestThreadSafeMetrics:
    def test_concurrent_increments_are_exact(self):
        metrics = ThreadSafeMetrics()
        threads, per_thread = 8, 500

        def bump():
            for _ in range(per_thread):
                metrics.incr("n")
                metrics.observe("h", 1.0)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda _: bump(), range(threads)))
        assert metrics.counters["n"] == threads * per_thread
        assert metrics.histograms["h"].count == threads * per_thread

    def test_timer_nesting_is_per_thread(self):
        metrics = ThreadSafeMetrics()
        barrier = threading.Barrier(2)

        def span(name):
            with metrics.timer(name):
                barrier.wait()  # both spans open simultaneously
                with metrics.timer("inner"):
                    pass
            return True

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert all(pool.map(span, ["a", "b"]))
        # Each thread nested under its own root, never the other's.
        assert set(metrics.timers) == {"a", "b", "a/inner", "b/inner"}

    def test_snapshot_shape_matches_base_metrics(self):
        metrics = ThreadSafeMetrics()
        metrics.incr("c")
        with metrics.timer("t"):
            pass
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert "t" in snapshot["timers"]


# --- the live HTTP server -------------------------------------------------
@contextmanager
def serving(service=None):
    """A real ThreadingHTTPServer on an ephemeral port over *service*
    (a fresh :class:`QueryService` by default), with its own thread-safe
    registry active for the duration."""
    with collect(ThreadSafeMetrics()):
        server = create_server(port=0, service=service, install_metrics=False)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}", timeout=30.0)
        client.wait_healthy(15.0)
        try:
            yield server, client
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


@pytest.fixture
def live_server():
    with serving() as live:
        yield live


class TestHttpEndpoints:
    def test_health_lists_datasets(self, live_server):
        _, client = live_server
        assert client.health()["datasets"] == []
        client.load("chain", chain_source())
        listed = client.health()["datasets"]
        assert [d["name"] for d in listed] == ["chain"]
        assert listed[0]["version"] == 1

    def test_query_roundtrip_and_metrics(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        miss = client.query("chain", "anc(0, X)?")
        hit = client.query("chain", "anc(0, X)?")
        assert not miss["cache_hit"] and hit["cache_hit"]
        assert miss["answers"] == hit["answers"]
        assert hit["answers"]["rows"] == direct_rows(
            chain_source(), "anc(0, X)?"
        )
        assert client.counter("serve.prepared.hits") == 1
        assert client.counter("serve.prepared.misses") == 1
        assert client.counter("serve.queries") == 2
        metrics = client.metrics()
        assert metrics["cache"]["hits"] == 1
        assert metrics["inflight"] >= 0

    def test_budget_trip_over_http_is_200_and_partial(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        payload = client.query(
            "chain", "anc(0, X)?", budget={"max_iterations": 2}
        )
        assert payload["partial"] and payload["sound"]
        assert not payload["complete"]
        assert client.counter("serve.budget_tripped") == 1

    def test_error_statuses(self, live_server):
        _, client = live_server
        with pytest.raises(ServeError) as missing:
            client.query("ghost", "anc(0, X)?")
        assert missing.value.status == 400
        client.load("chain", chain_source())
        with pytest.raises(ServeError) as unpreparable:
            client.prepare("chain", "anc(0, X)?", strategy="sld")
        assert unpreparable.value.status == 400
        with pytest.raises(ServeError) as bad_budget:
            client.query("chain", "anc(0, X)?", budget={"bogus": 1})
        assert bad_budget.value.status == 400
        with pytest.raises(ServeError) as lost:
            client._request("/nope")
        assert lost.value.status == 404

    def test_concurrent_clients_mixed_hits_misses_and_a_budget(
        self, live_server
    ):
        """The ISSUE-mandated threaded-client test: N simultaneous
        queries — some prepared-cache hits, some misses, one with a tiny
        budget — every unbudgeted response bit-identical to a direct
        ``Engine.query``, the budget-tripped one flagged sound partial."""
        server, client = live_server
        client.load("chain", chain_source())
        client.load("sg", SG_SOURCE)
        # Warm one shape so its requests below are guaranteed hits.
        client.query("chain", "anc(0, X)?")

        jobs = []
        for constant in (0, 3, 7, 11):  # hits: warm alexander bf shape
            jobs.append(("chain", f"anc({constant}, X)?", "alexander", None))
        jobs.append(("chain", "anc(X, Y)?", "alexander", None))  # miss: ff
        jobs.append(("chain", "anc(0, X)?", "magic", None))      # miss
        jobs.append(("chain", "anc(0, X)?", "seminaive", None))  # miss
        jobs.append(("sg", "sg(c1, X)?", "alexander", None))     # miss
        jobs.append(("sg", "sg(c2, X)?", "supplementary", None)) # miss
        jobs.append(("chain", "anc(0, X)?", "oldt", None))       # direct
        # The tiny-budget client; trips mid-evaluation.
        jobs.append(("chain", "anc(0, X)?", "alexander", {"max_iterations": 1}))

        barrier = threading.Barrier(len(jobs))

        def fire(job):
            dataset, goal, strategy, budget = job
            with ServeClient(client.base_url, timeout=60.0) as own:
                barrier.wait()  # genuinely simultaneous
                return own.query(
                    dataset, goal, strategy=strategy, budget=budget
                )

        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            responses = list(pool.map(fire, jobs))

        sources = {"chain": chain_source(), "sg": SG_SOURCE}
        budgeted = 0
        for (dataset, goal, strategy, budget), payload in zip(jobs, responses):
            if budget is not None:
                budgeted += 1
                assert payload["partial"] and payload["sound"], payload
                assert not payload["complete"]
                assert payload["budget_limit"]
                continue
            # Bit-identical to the direct engine answer.
            assert payload["complete"], payload
            assert payload["answers"]["rows"] == direct_rows(
                sources[dataset], goal, strategy=strategy
            ), (dataset, goal, strategy)
        assert budgeted == 1
        assert client.counter("serve.budget_tripped") == 1
        # The four warm-shape clients all hit the same prepared entry.
        assert client.counter("serve.prepared.hits") >= 4
        assert client.counter("serve.queries") == len(jobs) + 1
        assert server.inflight == 0


# --- completed-call tables over HTTP -------------------------------------------
class TestCallTableOverHttp:
    def test_second_identical_query_is_a_table_hit(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        first = client.query("chain", "anc(0, X)?")
        runs = client.counter("seminaive.runs")
        second = client.query("chain", "anc(0, X)?")
        assert (first["table_hit"], second["table_hit"]) == (False, True)
        assert (first["cache_hit"], second["cache_hit"]) == (False, True)
        assert second["answers"] == first["answers"]  # rows, atoms, count
        assert second["stats"] == first["stats"]
        assert second["stats"]["inferences"] > 0
        assert client.counter("seminaive.runs") == runs  # no fixpoint ran
        metrics = client.metrics()
        assert metrics["cache"]["table_entries"] == 1
        assert metrics["cache"]["table_rows"] == CHAIN_LENGTH
        counters = metrics["metrics"]["counters"]
        assert counters["prepare.table_hits"] == 1
        assert counters["prepare.table_misses"] == 1

    def test_a_renamed_goal_hits_and_another_constant_misses(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        client.query("chain", "anc(3, X)?")
        renamed = client.query("chain", "anc(3, Who)?")
        assert renamed["table_hit"] and renamed["goal"] == "anc(3, Who)"
        other = client.query("chain", "anc(4, X)?")
        assert other["cache_hit"] and not other["table_hit"]
        assert other["answers"]["rows"] == direct_rows(
            chain_source(), "anc(4, X)?"
        )

    def test_load_clears_the_table(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        client.query("chain", "anc(0, X)?")
        assert client.query("chain", "anc(0, X)?")["table_hit"]
        client.load("chain", chain_source(5))
        assert client.metrics()["cache"]["table_entries"] == 0
        reloaded = client.query("chain", "anc(0, X)?")
        assert not reloaded["table_hit"] and not reloaded["cache_hit"]
        assert reloaded["answers"]["rows"] == direct_rows(
            chain_source(5), "anc(0, X)?"
        )

    def test_a_budgeted_request_bypasses_the_table(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        client.query("chain", "anc(0, X)?")
        roomy = client.query(
            "chain", "anc(0, X)?", budget={"max_iterations": 10_000}
        )
        assert roomy["complete"] and not roomy["table_hit"]
        tripped = client.query(
            "chain", "anc(0, X)?", budget={"max_iterations": 2}
        )
        assert tripped["partial"] and not tripped["table_hit"]
        assert client.query("chain", "anc(0, X)?")["table_hit"]

    def test_direct_strategies_never_report_a_table_hit(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        for _ in range(2):
            assert not client.query(
                "chain", "anc(0, X)?", strategy="oldt"
            )["table_hit"]


# --- bad input must not 500 ---------------------------------------------------
class TestBadInputIsA400:
    @pytest.mark.parametrize("path", ["/query", "/prepare"])
    @pytest.mark.parametrize(
        "field, said",
        [
            ("sips", "unknown SIPS 'bogus'; choose from"),
        ],
    )
    def test_unknown_option_value(self, live_server, path, field, said):
        _, client = live_server
        client.load("chain", chain_source())
        with pytest.raises(ServeError) as bad:
            client._request(
                path, {"dataset": "chain", "goal": "anc(0, X)?", field: "bogus"}
            )
        assert bad.value.status == 400
        assert said in str(bad.value)

    def test_unknown_option_value_on_the_direct_path(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        with pytest.raises(ServeError) as bad:
            client.query("chain", "anc(0, X)?", strategy="oldt", sips="bogus")
        assert bad.value.status == 400

    @pytest.mark.parametrize("path", ["/query", "/prepare"])
    @pytest.mark.parametrize(
        "field, value", [("scheduler", "parallel"), ("workers", 2)]
    )
    def test_removed_parallel_options_name_their_replacement(
        self, live_server, path, field, value
    ):
        _, client = live_server
        client.load("chain", chain_source())
        payload = {"dataset": "chain", "goal": "anc(0, X)?", field: value}
        with pytest.raises(ServeError) as bad:
            client._request(path, payload)
        assert bad.value.status == 400
        assert "was removed" in str(bad.value)
        assert "serve --processes N" in str(bad.value)

    @pytest.mark.parametrize("processes", [0, 1], ids=["threaded", "pooled"])
    def test_removed_storage_option_says_to_omit_it(self, processes):
        service = PooledService(processes=processes) if processes else None
        try:
            with serving(service) as (_, client):
                client.load("chain", chain_source())
                for path in ("/query", "/prepare"):
                    for value in ("tuples", "columnar", None):
                        payload = {
                            "dataset": "chain", "goal": "anc(0, X)?",
                            "storage": value,
                        }
                        with pytest.raises(ServeError) as bad:
                            client._request(path, payload)
                        assert bad.value.status == 400
                        assert REMOVED_SETTINGS["storage"] in str(bad.value)
                assert client.query("chain", "anc(0, X)?")["complete"]
        finally:
            if service is not None:
                service.close()

    @pytest.mark.parametrize("processes", [0, 1], ids=["threaded", "pooled"])
    @pytest.mark.parametrize(
        "setting", ["executor", "scheduler", "workers", "planner"]
    )
    def test_removed_setting_is_a_400_with_its_message(self, processes, setting):
        service = PooledService(processes=processes) if processes else None
        try:
            with serving(service) as (_, client):
                client.load("chain", chain_source())
                for path in ("/query", "/prepare"):
                    for value in ("kernel", "scc", "global", "greedy", 2, None):
                        payload = {
                            "dataset": "chain", "goal": "anc(0, X)?",
                            setting: value,
                        }
                        with pytest.raises(ServeError) as bad:
                            client._request(path, payload)
                        assert bad.value.status == 400
                        assert REMOVED_SETTINGS[setting] in str(bad.value)
                assert client.query("chain", "anc(0, X)?")["complete"]
        finally:
            if service is not None:
                service.close()

    @pytest.mark.parametrize("processes", [0, 2], ids=["threaded", "pooled"])
    def test_maintain_other_than_dred_is_a_400(self, processes):
        service = PooledService(processes=processes) if processes else None
        try:
            with serving(service) as (_, client):
                client.load("chain", chain_source())
                for path in ("/query", "/prepare"):
                    for strategy in ("seminaive", "alexander", "sld"):
                        for value in ("counting", "recompute"):
                            payload = {
                                "dataset": "chain", "goal": "anc(0, X)?",
                                "strategy": strategy, "maintain": value,
                            }
                            with pytest.raises(ServeError) as bad:
                                client._request(path, payload)
                            assert bad.value.status == 400
                            assert MAINTAIN_DRED_ONLY in str(bad.value)
                reply = client.query(
                    "chain", "anc(0, X)?", strategy="seminaive", maintain="dred"
                )
                assert reply["complete"]
        finally:
            if service is not None:
                service.close()

    @pytest.mark.parametrize("processes", [0, 2], ids=["threaded", "pooled"])
    def test_goal_arity_mismatch_is_a_400(self, processes):
        service = PooledService(processes=processes) if processes else None
        try:
            with serving(service) as (_, client):
                client.load("chain", chain_source())
                for strategy in ("alexander", "seminaive", "qsqr"):
                    # Warm the shape first: a seminaive shape then answers
                    # every goal, so only execute() sees the bad ones.
                    assert client.query("chain", "anc(0, X)?", strategy=strategy)["complete"]
                    for goal in ("anc(0)?", "edge(0)?", "anc(0, 1, 2)?"):
                        with pytest.raises(ServeError) as bad:
                            client.query("chain", goal, strategy=strategy)
                        assert bad.value.status == 400
                        assert "has arity" in str(bad.value)
        finally:
            if service is not None:
                service.close()

    def test_library_registry_keyword_is_gone(self, tmp_path):
        with pytest.raises(TypeError, match="registry"):
            QueryService(registry=tmp_path)

    def test_library_storage_keyword_is_gone(self, service):
        with pytest.raises(TypeError, match="storage"):
            service.query("chain", "anc(0, X)?", storage="tuples")

    @pytest.mark.parametrize("setting", ["executor", "scheduler", "planner"])
    def test_library_knob_keywords_are_gone(self, service, setting):
        with pytest.raises(TypeError, match=setting):
            service.query("chain", "anc(0, X)?", **{setting: "kernel"})
        with pytest.raises(TypeError, match=setting):
            Engine(parse_program(chain_source())).query("anc(0, X)?", **{setting: "scc"})

    @pytest.mark.parametrize("path", ["/query", "/prepare"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("goal", 123),
            ("goal", ["anc(0, X)?"]),
            ("dataset", ["chain"]),
            ("dataset", 7),
            ("sips", 5),
            ("sips", ["left_to_right"]),
            ("strategy", 1),
            ("maintain", ["dred"]),
        ],
    )
    def test_non_string_field(self, live_server, path, field, value):
        _, client = live_server
        client.load("chain", chain_source())
        payload = {"dataset": "chain", "goal": "anc(0, X)?", field: value}
        with pytest.raises(ServeError) as bad:
            client._request(path, payload)
        assert bad.value.status == 400
        assert f'"{field}" must be a string' in str(bad.value)

    @pytest.mark.parametrize(
        "payload",
        [
            {"dataset": 7, "program": "p(a)."},
            {"dataset": ["d"], "program": "p(a)."},
            {"dataset": "d", "program": 123},
            {"dataset": "d", "facts": ["p(a)."]},
        ],
    )
    def test_load_takes_strings_only(self, live_server, payload):
        _, client = live_server
        with pytest.raises(ServeError) as bad:
            client._request("/load", payload)
        assert bad.value.status == 400
        assert "must be a string" in str(bad.value)
        assert client.health()["datasets"] == []

    def test_load_with_an_arity_clash_is_a_400_and_keeps_the_dataset(self, live_server):
        _, client = live_server
        client.load("d", "q(X) :- p(X).", "p(a).")
        for payload in (
            {"dataset": "e", "program": "q(X) :- p(X).", "facts": "p(a, b)."},
            {"dataset": "d", "facts": "p(a, b).", "extend": True},
        ):
            with pytest.raises(ServeError) as clash:
                client._request("/load", payload)
            assert clash.value.status == 400
            assert "predicate p used with arities 1 and 2" in str(clash.value)
        assert [d["name"] for d in client.health()["datasets"]] == ["d"]
        assert client.query("d", "q(X)?")["answers"]["rows"] == [["a"]]

    def test_update_dataset_must_be_a_string(self, live_server):
        _, client = live_server
        with pytest.raises(ServeError) as bad:
            client._request("/update", {"dataset": ["d"], "add": ["p(a)."]})
        assert bad.value.status == 400

    def test_the_service_rejects_unknown_values_too(self, service):
        with pytest.raises(ReproError, match="unknown SIPS"):
            service.prepare("chain", "anc(0, X)?", sips="bogus")
