"""Tests for the incremental update path of the serving layer.

Covers maintained prepared shapes (``maintain=`` in ``prepare_query`` /
``Engine.prepare`` / the service config), ``PreparedQuery.apply_update``,
the cache migration primitives (``entries_for`` / ``rekey_dataset``),
``QueryService.update`` end to end (maintained shapes patched in place,
unaffected shapes migrated, affected shapes dropped), the ``/update``
HTTP endpoint, and the ``repro-datalog update`` CLI client.
"""

import sys
import threading

import pytest

from repro.cli import main
from repro.core.engine import Engine
from repro.core.prepare import prepare_query, prepared_cache_key
from repro.datalog.parser import parse_program, parse_query
from repro.errors import ReproError
from repro.obs import ThreadSafeMetrics, collect
from repro.serve import PreparedQueryCache, QueryService, ServeClient, create_server
from repro.serve.client import ServeError
from repro.serve.service import _affected_predicates

GRAPH_SOURCE = """
edge(a, b). edge(b, c). edge(c, d).
colour(a, red). colour(b, blue).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
hue(X) :- colour(X, red).
"""


def rows(payload):
    return payload["answers"]["rows"]


@pytest.fixture
def service():
    service = QueryService()
    service.load("g", GRAPH_SOURCE)
    return service


# --- maintained prepared shapes ----------------------------------------------
class TestMaintainedPreparedQuery:
    def _program(self):
        return parse_program(GRAPH_SOURCE)

    @pytest.mark.parametrize("maintain", ["recompute", "dred"])
    def test_apply_update_matches_fresh_preparation(self, maintain):
        prepared = prepare_query(
            self._program(), "path(a, X)?", strategy="seminaive",
            maintain=maintain,
        )
        assert prepared.mode == "maintained"
        before = prepared.execute("path(a, X)?").answers
        assert [str(a) for a in before] == [
            "path(a, b)", "path(a, c)", "path(a, d)",
        ]
        prepared.apply_update(
            add=[parse_query("edge(d, e)")],
            remove=[parse_query("edge(b, c)")],
        )
        after = prepared.execute("path(a, X)?").answers
        # Fresh preparation over the patched base as the oracle.
        patched = parse_program(
            GRAPH_SOURCE.replace("edge(b, c).", "edge(d, e).")
        )
        oracle = prepare_query(patched, "path(a, X)?", strategy="seminaive")
        assert after == oracle.execute("path(a, X)?").answers
        assert [str(a) for a in after] == ["path(a, b)"]

    def test_apply_update_returns_the_delta(self):
        prepared = prepare_query(
            self._program(), "path(X, Y)?", strategy="seminaive",
            maintain="dred",
        )
        added, removed = prepared.apply_update(
            add=[parse_query("edge(d, e)")],
            remove=[parse_query("edge(c, d)")],
        )
        # Facts are reported as raw (predicate, values) pairs.
        assert ("edge", ("c", "d")) in removed
        assert added >= {("edge", ("d", "e")), ("path", ("d", "e"))}

    def test_non_maintained_shape_refuses_updates(self):
        frozen = prepare_query(
            self._program(), "path(a, X)?", strategy="seminaive"
        )
        with pytest.raises(ReproError, match="not maintained"):
            frozen.apply_update(add=[parse_query("edge(d, e)")])

    def test_maintained_requires_materialised_strategy(self):
        with pytest.raises(ReproError, match="materialised strategy"):
            prepare_query(
                self._program(), "path(a, X)?", strategy="alexander",
                maintain="dred",
            )

    def test_unknown_maintenance_mode_rejected(self):
        with pytest.raises(ReproError, match="unknown maintenance mode"):
            prepare_query(
                self._program(), "path(a, X)?", strategy="seminaive",
                maintain="bogus",
            )

    def test_maintain_is_part_of_the_cache_key(self):
        program = self._program()
        goal = parse_query("path(a, X)?")
        plain = prepared_cache_key(program, goal, "seminaive")
        maintained = prepared_cache_key(
            program, goal, "seminaive", maintain="dred"
        )
        assert plain != maintained

    def test_execute_refuses_poisoned_engine(self):
        prepared = prepare_query(
            self._program(), "path(a, X)?", strategy="seminaive",
            maintain="dred",
        )
        prepared.engine._poisoned = True
        with pytest.raises(ReproError, match="poisoned"):
            prepared.execute("path(a, X)?")

    def test_engine_prepare_threads_maintain(self):
        engine = Engine(self._program())
        prepared = engine.prepare(
            "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        assert prepared.mode == "maintained"
        prepared.apply_update(remove=[parse_query("edge(a, b)")])
        assert prepared.execute("path(a, X)?").answers == ()

    @pytest.mark.parametrize("storage", ["tuples", "columnar"])
    def test_concurrent_lookups_during_updates_see_before_or_after(
        self, storage
    ):
        """Readers probe (and lazily build) the column indexes of the very
        relations ``apply_update`` mutates.  A lookup must see the model
        before or after an update — never DRed's over-deleted middle, and
        never an index built from a relation mid-mutation, which would
        stay short of a row for good."""
        length = 40
        edges = [f"edge({i}, {i + 1})." for i in range(length)]
        rules = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y)."
        source = "\n".join(edges) + "\n" + rules
        cut = parse_query(f"edge({length // 2}, {length // 2 + 1})")
        prepared = prepare_query(
            parse_program(source), "path(0, X)?", strategy="seminaive",
            maintain="dred", storage=storage,
        )
        # Bound on either column, so both indexes get built under fire.
        goals = ["path(0, X)?", f"path(X, {length})?", "path(5, X)?"]
        whole = Engine(parse_program(source))
        severed = Engine(parse_program(source.replace(f"{cut}.\n", "", 1)))
        allowed = {
            goal: {whole.query(goal).answers, severed.query(goal).answers}
            for goal in goals
        }
        assert all(len(pair) == 2 for pair in allowed.values())

        stop = threading.Event()
        failures = []

        def read(goal):
            try:
                while not stop.is_set():
                    answers = prepared.execute(goal).answers
                    if answers not in allowed[goal]:
                        failures.append((goal, len(answers)))
                        return
            except Exception as exc:  # surfaced through the assertion below
                failures.append((goal, exc))

        readers = [
            threading.Thread(target=read, args=(goal,))
            for goal in goals for _ in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for _ in range(40):
                prepared.apply_update(remove=[cut])
                prepared.apply_update(add=[cut])
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.join(timeout=30.0)
        assert not any(reader.is_alive() for reader in readers)
        assert failures == []
        # Quiescent: every index built along the way kept every row.
        for goal in goals:
            assert prepared.execute(goal).answers == whole.query(goal).answers


# --- cache migration primitives ----------------------------------------------
class TestCacheMigration:
    def _prepared(self):
        program = parse_program("p(a). q(X) :- p(X).")
        return prepare_query(program, "q(X)?", strategy="seminaive")

    def test_entries_for_scopes_by_dataset(self):
        cache = PreparedQueryCache(8)
        cache.get_or_prepare(("g", 1, "a"), self._prepared)
        cache.get_or_prepare(("g", 1, "b"), self._prepared)
        cache.get_or_prepare(("other", 1, "a"), self._prepared)
        keys = [key for key, _ in cache.entries_for("g")]
        assert keys == [("g", 1, "a"), ("g", 1, "b")]

    def test_rekey_keeps_re_keyed_and_drops_the_rest(self):
        cache = PreparedQueryCache(8)
        cache.get_or_prepare(("g", 1, "keep"), self._prepared)
        cache.get_or_prepare(("g", 1, "drop"), self._prepared)
        cache.get_or_prepare(("g", 0, "stale"), self._prepared)
        cache.get_or_prepare(("other", 1, "x"), self._prepared)
        kept, dropped = cache.rekey_dataset(
            "g", 1, 2, lambda key, prepared: key[2] == "keep"
        )
        # The stale version-0 leftover drops too.
        assert (kept, dropped) == (1, 2)
        assert cache.peek(("g", 2, "keep")) is not None
        assert cache.peek(("g", 1, "keep")) is None
        assert cache.peek(("g", 2, "drop")) is None
        assert cache.peek(("other", 1, "x")) is not None

    def test_rekey_preserves_lru_order_and_hit_counts(self):
        cache = PreparedQueryCache(2)
        cache.get_or_prepare(("g", 1, "old"), self._prepared)
        cache.get_or_prepare(("g", 1, "new"), self._prepared)
        cache.get_or_prepare(("g", 1, "old"), self._prepared)  # refresh LRU
        cache.rekey_dataset("g", 1, 2, lambda key, prepared: True)
        # "new" is now least recently used; inserting one more evicts it.
        cache.get_or_prepare(("g", 2, "third"), self._prepared)
        assert cache.peek(("g", 2, "new")) is None
        assert cache.peek(("g", 2, "old")) is not None

    def test_affected_predicates_is_the_dependent_cone(self):
        program = parse_program(GRAPH_SOURCE)
        assert _affected_predicates(program, {"edge"}) == frozenset(
            {"edge", "path"}
        )
        assert _affected_predicates(program, {"colour"}) == frozenset(
            {"colour", "hue"}
        )
        assert _affected_predicates(program, set()) == frozenset()


# --- QueryService.update -----------------------------------------------------
class TestServiceUpdate:
    def test_update_bumps_version_and_future_queries_see_it(self, service):
        before = service.query("g", "path(a, X)?")
        assert rows(before) == [["a", "b"], ["a", "c"], ["a", "d"]]
        info = service.update("g", add=["edge(d, e)"], remove=["edge(b, c)"])
        assert info["version"] == 2
        assert info["added"] == 1 and info["removed"] == 1
        assert info["affected_predicates"] == ["edge", "path"]
        after = service.query("g", "path(a, X)?")
        assert after["version"] == 2
        assert rows(after) == [["a", "b"]]

    def test_maintained_shape_is_patched_and_stays_warm(self, service):
        first = service.query(
            "g", "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        assert not first["cache_hit"]
        info = service.update("g", remove=["edge(b, c)"])
        assert info["cache_entries_patched"] == 1
        second = service.query(
            "g", "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        assert second["cache_hit"], "maintained shape must survive the update"
        assert second["version"] == 2
        assert rows(second) == [["a", "b"]]

    def test_unaffected_shape_migrates_affected_shape_drops(self, service):
        service.query("g", "path(a, X)?")  # affected by edge updates
        service.query("g", "hue(X)?")      # colour cone; unaffected
        info = service.update("g", add=["edge(d, e)"])
        assert info["cache_entries_kept"] == 1
        assert info["cache_entries_dropped"] == 1
        assert service.query("g", "hue(X)?")["cache_hit"]
        assert not service.query("g", "path(a, X)?")["cache_hit"]

    def test_update_inside_the_cone_drops_the_table_outside_keeps_it(
        self, service
    ):
        for goal in ("path(a, X)?", "hue(X)?"):
            service.query("g", goal)
            assert service.query("g", goal)["table_hit"]
        old_hue = service.query("g", "hue(X)?")
        service.update("g", add=["edge(d, e)"], remove=["edge(a, b)"])
        path = service.query("g", "path(a, X)?")
        assert not path["table_hit"] and not path["cache_hit"]
        assert rows(path) == []  # the new answers, not the stored ones
        hue = service.query("g", "hue(X)?")
        assert hue["table_hit"] and hue["cache_hit"]
        assert hue["version"] == 2
        assert hue["answers"] == old_hue["answers"]
        assert hue["stats"] == old_hue["stats"]
        # ... until an update reaches its own cone.
        service.update("g", add=["colour(c, red)"])
        hue = service.query("g", "hue(X)?")
        assert not hue["table_hit"]
        assert rows(hue) == [["a"], ["c"]]

    def test_update_drops_maintained_shape_missed_by_patch_loop(
        self, service, monkeypatch
    ):
        """A maintained shape prepared against the pre-update database can
        land in the cache between the patch-loop snapshot and the rekey;
        it was never patched, so migrating it would serve stale answers
        forever.  Simulated by hiding the entry from the snapshot."""
        service.query(
            "g", "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        monkeypatch.setattr(service.cache, "entries_for", lambda name: [])
        info = service.update("g", remove=["edge(b, c)"])
        assert info["cache_entries_patched"] == 0
        assert info["cache_entries_dropped"] == 1
        monkeypatch.undo()
        # The shape re-prepares against the updated dataset — a miss,
        # but a correct one.
        after = service.query(
            "g", "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        assert not after["cache_hit"]
        assert rows(after) == [["a", "b"]]

    def test_update_failure_drops_maintained_shapes(self, service, monkeypatch):
        """A patch failing mid-loop leaves patched shapes ahead of a
        dataset whose version never bumps: every maintained shape must be
        dropped before the error propagates."""
        service.query(
            "g", "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        ((_, prepared),) = service.cache.entries_for("g")

        def boom(add=(), remove=()):
            raise RuntimeError("engine exploded mid-patch")

        monkeypatch.setattr(prepared, "apply_update", boom)
        with pytest.raises(RuntimeError, match="mid-patch"):
            service.update("g", remove=["edge(b, c)"])
        assert service.cache.entries_for("g") == []
        # The dataset was never bumped; the next maintained query
        # re-prepares cleanly against the unchanged version.
        retry = service.query(
            "g", "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        assert retry["version"] == 1
        assert not retry["cache_hit"]
        assert rows(retry) == [["a", "b"], ["a", "c"], ["a", "d"]]

    def test_update_validation(self, service):
        with pytest.raises(ReproError, match="at least one"):
            service.update("g")
        with pytest.raises(ReproError, match="must be ground"):
            service.update("g", add=["edge(a, X)"])
        with pytest.raises(ReproError, match="unknown dataset"):
            service.update("ghost", add=["edge(a, b)"])
        with pytest.raises(ReproError, match="remove base facts only"):
            service.update("g", remove=["path(a, b)"])

    def test_update_counters(self, service):
        with collect() as metrics:
            service.update("g", add=["edge(x, y)", "edge(y, z)"],
                           remove=["edge(a, b)"])
        counters = metrics.counters
        assert counters["serve.updates"] == 1
        assert counters["maintain.update_adds"] == 2
        assert counters["maintain.update_removes"] == 1


# --- HTTP + CLI --------------------------------------------------------------
@pytest.fixture
def live_server():
    with collect(ThreadSafeMetrics()):
        server = create_server(port=0, install_metrics=False)
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


class TestHttpUpdate:
    def test_update_roundtrip_patches_a_maintained_shape(self, live_server):
        _, client = live_server
        client.load("g", GRAPH_SOURCE)
        first = client.query(
            "g", "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        assert not first["cache_hit"]
        info = client.update("g", add=["edge(d, e)."], remove=["edge(b, c)."])
        assert info["version"] == 2
        assert info["cache_entries_patched"] == 1
        second = client.query(
            "g", "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        assert second["cache_hit"]
        assert rows(second) == [["a", "b"]]

    def test_update_bad_payload_is_400(self, live_server):
        _, client = live_server
        client.load("g", GRAPH_SOURCE)
        with pytest.raises(ServeError) as bad:
            client._request("/update", {"dataset": "g", "add": "edge(a,b)."})
        assert bad.value.status == 400
        assert "list of fact strings" in str(bad.value)
        with pytest.raises(ServeError) as empty:
            client.update("g")
        assert empty.value.status == 400

    def test_cli_update_client(self, live_server, capsys):
        _, client = live_server
        client.load("g", GRAPH_SOURCE)
        code = main(
            [
                "update", "g",
                "--add", "edge(d, e).",
                "--remove", "edge(b, c).",
                "--url", client.base_url,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "'g' now version 2" in out
        assert "+1 -1 facts" in out
        assert "affected: edge, path" in out
        assert rows(client.query("g", "path(a, X)?")) == [["a", "b"]]
