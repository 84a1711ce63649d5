"""Tests for the incremental update path of the serving layer.

Covers maintained prepared shapes (``maintain=`` in ``prepare_query`` /
``Engine.prepare`` / the service config), ``PreparedQuery.apply_update``,
the cache migration primitives (``entries_for`` / ``rekey_dataset``),
``QueryService.update`` end to end (maintained shapes patched in place,
unaffected shapes migrated, transform shapes inside the cone patched
with their call-table entries kept or invalidated by footprint, the
rest dropped), the ``/update`` HTTP endpoint, and the ``repro-datalog
update`` CLI client.  The oracle for the update contract is a fresh
:class:`QueryService` on the current facts.
"""

import re
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.cli import main
from repro.core.engine import Engine
from repro.core.prepare import prepare_query, prepared_cache_key
from repro.datalog.parser import parse_program, parse_query
from repro.errors import MAINTAIN_DRED_ONLY, ReproError
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
# blocked is negated inside the rewritten stratum of r.
NEGATED_SOURCE = """
e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(2, 5). blocked(4).
r(X, Y) :- e(X, Y), not blocked(Y).
r(X, Y) :- r(X, Z), e(Z, Y), not blocked(Y).
"""
# e and bad feed the lower stratum of unsafe; tag is read by ok's only.
STRATIFIED_SOURCE = """
e(1, 2). e(2, 3). e(3, 4). e(4, 5). bad(4). tag(3). tag(5).
reach(X, Y) :- e(X, Y).
reach(X, Y) :- e(X, Z), reach(Z, Y).
unsafe(X) :- bad(X).
unsafe(X) :- e(X, Y), bad(Y).
ok(X, Y) :- reach(X, Y), tag(Y), not unsafe(Y).
"""
# e feeds the lower stratum of unsafe and is read by ok's stratum too.
SHARED_SOURCE = """
e(1, 2). e(2, 3). e(3, 4). e(4, 5). bad(4). tag(3). tag(5).
unsafe(X) :- bad(X).
unsafe(X) :- e(X, Y), bad(Y).
ok(X, Y) :- e(X, Y), tag(Y), not unsafe(X).
"""
# unsafe is a stratum below ok's that ok never reads, fed by e and bad;
# f and tag are read by ok's stratum only.
SIDE_SOURCE = """
e(1, 2). e(2, 3). bad(3). f(1, 2). f(2, 3). f(3, 1). tag(2). tag(3). gone(1).
unsafe(X) :- e(X, Y), bad(Y).
hidden(X) :- gone(X).
ok(X, Y) :- f(X, Y), tag(Y), not hidden(Y).
ok(X, Y) :- f(X, Z), ok(Z, Y).
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

    @pytest.mark.parametrize("maintain", ["dred"])
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
        with pytest.raises(ReproError, match=re.escape(MAINTAIN_DRED_ONLY)):
            prepare_query(
                self._program(), "path(a, X)?", strategy="seminaive",
                maintain="bogus",
            )

    @pytest.mark.parametrize("maintain", ["counting", "recompute"])
    def test_only_dred_is_accepted(self, maintain):
        for strategy in ("seminaive", "alexander"):
            with pytest.raises(ReproError, match=re.escape(MAINTAIN_DRED_ONLY)):
                prepare_query(
                    self._program(), "path(a, X)?", strategy=strategy,
                    maintain=maintain,
                )
        with pytest.raises(ReproError, match=re.escape(MAINTAIN_DRED_ONLY)):
            Engine(self._program()).prepare(
                "path(a, X)?", strategy="seminaive", maintain=maintain
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

    def test_concurrent_lookups_during_updates_see_before_or_after(self):
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
            maintain="dred",
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

    def test_unaffected_shape_migrates_affected_shape_is_patched(
        self, service
    ):
        service.query("g", "path(a, X)?")  # reads edge: patched
        service.query("g", "hue(X)?")      # colour cone; migrated as is
        info = service.update("g", add=["edge(d, e)"])
        assert info["cache_entries_patched"] == 1
        assert info["cache_entries_kept"] == 2
        assert info["cache_entries_dropped"] == 0
        assert service.query("g", "hue(X)?")["cache_hit"]
        path = service.query("g", "path(a, X)?")
        assert path["cache_hit"] and not path["table_hit"]
        assert rows(path) == [["a", "b"], ["a", "c"], ["a", "d"], ["a", "e"]]

    def test_update_in_a_footprint_invalidates_only_that_entry(
        self, service
    ):
        for goal in ("path(a, X)?", "path(c, X)?", "hue(X)?"):
            service.query("g", goal)
            assert service.query("g", goal)["table_hit"]
        old = {"hue(X)?": service.query("g", "hue(X)?")}
        info = service.update("g", add=["edge(d, e)"], remove=["edge(a, b)"])
        # path(a, X) probed edge(a, _); path(c, X) edge(c, _) and edge(d, _).
        assert info["table_entries_invalidated"] == 2
        assert info["table_entries_kept"] == 0
        old["path(c, X)?"] = service.query("g", "path(c, X)?")
        info = service.update("g", remove=["edge(a, b)"], add=["edge(x, y)"])
        assert info["removed"] == 0  # already gone: only edge(x, y) changed
        assert (info["table_entries_kept"], info["table_entries_invalidated"]) == (1, 0)
        path = service.query("g", "path(a, X)?")
        assert path["cache_hit"] and not path["table_hit"]
        assert rows(path) == []  # the new answers, not the stored ones
        for goal in ("path(c, X)?", "hue(X)?"):
            reply = service.query("g", goal)
            assert reply["table_hit"] and reply["cache_hit"]
            assert reply["version"] == 3
            assert reply["stats"] == old[goal]["stats"]
        assert rows(service.query("g", "path(c, X)?")) == [
            ["c", "d"], ["c", "e"],
        ]
        # colour(c, green) misses hue's footprint (it probed red only) ...
        service.update("g", add=["colour(c, green)"])
        assert service.query("g", "hue(X)?")["table_hit"]
        # ... colour(c, red) does not.
        service.update("g", add=["colour(c, red)"])
        hue = service.query("g", "hue(X)?")
        assert hue["cache_hit"] and not hue["table_hit"]
        assert rows(hue) == [["a"], ["c"]]

    @pytest.mark.parametrize("strategy", ["alexander", "magic", "supplementary"])
    def test_a_negated_occurrence_is_part_of_the_footprint(self, strategy):
        service = QueryService()
        service.load("n", NEGATED_SOURCE)
        assert rows(service.query("n", "r(1, X)?", strategy=strategy)) == [
            [1, 2], [1, 3], [1, 5],
        ]
        # r(1, X) tested blocked(2), blocked(3), blocked(5), never blocked(1).
        info = service.update("n", add=["blocked(1)"])
        assert info["table_entries_invalidated"] == 0
        info = service.update("n", add=["blocked(3)"])
        assert info["table_entries_invalidated"] == 1
        after = service.query("n", "r(1, X)?", strategy=strategy)
        assert after["cache_hit"] and not after["table_hit"]
        assert rows(after) == [[1, 2], [1, 5]]

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

    @pytest.mark.parametrize(
        "update",
        [
            {"add": ["edge(a, b, c)"]},
            {"remove": ["edge(c)"]},
            {"add": ["edge(d, e)"], "remove": ["colour(a)"]},
            {"add": ["path(a)"]},           # arity from the program's rules
            {"add": ["new(1)", "new(1, 2)"]},  # disagreeing within one batch
        ],
    )
    def test_arity_mismatch_is_a_client_error_and_changes_nothing(
        self, service, update
    ):
        service.query("g", "path(a, X)?", strategy="seminaive", maintain="dred")
        service.query("g", "path(a, X)?")
        before = service.cache.stats()
        with pytest.raises(ReproError, match="arity"):
            service.update("g", **update)
        assert service.dataset("g").version == 1
        assert service.cache.stats() == before
        for config in ({"strategy": "seminaive", "maintain": "dred"}, {}):
            reply = service.query("g", "path(a, X)?", **config)
            assert reply["cache_hit"] and reply["version"] == 1
            assert rows(reply) == [["a", "b"], ["a", "c"], ["a", "d"]]

    @pytest.mark.parametrize(
        "source, goal, config, update",
        [
            # asserting a derived fact
            (GRAPH_SOURCE, "path(a, X)?", {}, {"add": ["path(a, z)"]}),
            # edge feeds the lower stratum materialised into the base
            (GRAPH_SOURCE + "far(X) :- node(X), not path(a, X).\nnode(e).",
             "far(X)?", {}, {"add": ["edge(d, e)"]}),
            # e is read by ok's stratum and feeds unsafe below it
            (SHARED_SOURCE, "ok(2, X)?", {}, {"add": ["e(2, 4)"]}),
            # a frozen full model
            (SHARED_SOURCE, "ok(2, X)?", {"strategy": "seminaive"},
             {"add": ["e(2, 4)"]}),
        ],
    )
    def test_shapes_that_cannot_be_patched_are_dropped(
        self, source, goal, config, update
    ):
        service = QueryService()
        service.load("g", source)
        service.query("g", goal, **config)
        info = service.update("g", **update)
        assert info["cache_entries_patched"] == 0
        assert info["cache_entries_dropped"] == 1
        fresh = QueryService()
        fresh.load("g", source)
        fresh.update("g", **update)
        reply = service.query("g", goal, **config)
        assert not reply["cache_hit"]
        assert reply["answers"] == fresh.query("g", goal, **config)["answers"]

    def test_update_counters(self, service):
        with collect() as metrics:
            service.update("g", add=["edge(x, y)", "edge(y, z)"],
                           remove=["edge(a, b)"])
        counters = metrics.counters
        assert counters["serve.updates"] == 1
        assert counters["maintain.update_adds"] == 2
        assert counters["maintain.update_removes"] == 1

    def test_patch_counters(self, service):
        service.query("g", "path(a, X)?")
        service.query("g", "path(c, X)?")
        with collect() as metrics:
            info = service.update("g", add=["edge(a, e)"])
        assert (info["table_entries_kept"], info["table_entries_invalidated"]) == (1, 1)
        counters = metrics.counters
        assert counters["prepare.base_patches"] == 1
        assert counters["prepare.table_kept"] == 1
        assert counters["prepare.table_invalidated"] == 1


# --- the update contract against a fresh service -----------------------------
def _update_scenarios() -> list:
    """``(rules, facts, goal predicate)`` per program: the
    :mod:`repro.workloads` programs plus a negated and a stratified one."""
    scenarios = []
    for scenario in (
        workloads.ancestor(graph="chain", variant="right", n=6),
        workloads.ancestor(graph="cycle", variant="left", n=5),
        workloads.nonlinear_tc(graph="chain", n=5),
        workloads.same_generation(depth=2),
        workloads.bill_of_materials(depth=2),
    ):
        database = scenario.database
        facts = {
            (predicate, row)
            for predicate in database.predicates()
            for row in database.rows(predicate)
        }
        rules = "\n".join(str(rule) for rule in scenario.program.rules)
        scenarios.append((rules, facts, scenario.query(0).predicate))
    for source, goal in (
        (NEGATED_SOURCE, "r"), (STRATIFIED_SOURCE, "ok"), (SHARED_SOURCE, "ok"),
    ):
        program = parse_program(source)
        facts = {(atom.predicate, atom.ground_key()) for atom in program.facts}
        rules = "\n".join(str(rule) for rule in program.proper_rules)
        scenarios.append((rules, facts, goal))
    return scenarios


UPDATE_SCENARIOS = _update_scenarios()


def _fact(predicate: str, row: tuple) -> str:
    return f"{predicate}({', '.join(map(str, row))})"


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario=st.sampled_from(UPDATE_SCENARIOS),
    strategy=st.sampled_from(["alexander", "magic", "supplementary"]),
    data=st.data(),
)
def test_interleaved_queries_and_updates_equal_a_fresh_service(
    scenario, strategy, data
):
    """Every reply — answers, their order, every stats field — equals a
    fresh service's on the current facts, whether the live shape was
    patched, its entry kept, invalidated or dropped.  Updates hit base
    predicates read directly, negated, or feeding lower strata, assert
    derived facts, name brand-new predicates and remove absent facts."""
    rules, facts, goal_predicate = scenario
    program = parse_program(rules)
    arities = program.arities
    base = sorted(program.edb_predicates)
    domain = sorted({value for _, row in facts for value in row}) + [99]
    # A few goal constants per run, so goals repeat across updates.
    constants = data.draw(
        st.lists(st.sampled_from(domain), min_size=1, max_size=3, unique=True)
    )
    facts = set(facts)
    live = QueryService()
    live.load("d", rules + "\n" + "".join(_fact(*f) + ".\n" for f in facts))

    def candidate():
        kind = data.draw(st.sampled_from(["base"] * 6 + ["derived", "new"]))
        if kind == "new":
            return ("brand_new", (data.draw(st.sampled_from(domain)),))
        predicate = (
            goal_predicate if kind == "derived"
            else data.draw(st.sampled_from(base))
        )
        row = tuple(
            data.draw(st.sampled_from(domain))
            for _ in range(arities[predicate])
        )
        return predicate, row

    for _ in range(data.draw(st.integers(4, 12))):
        if data.draw(st.booleans()):
            add, remove = [], []
            for _ in range(data.draw(st.integers(1, 3))):
                fact = candidate()
                # Derived facts may be asserted, never removed.
                if fact[0] in program.idb_predicates or data.draw(st.booleans()):
                    add.append(fact)
                else:
                    remove.append(fact)
            live.update(
                "d",
                add=[_fact(*fact) for fact in add],
                remove=[_fact(*fact) for fact in remove],
            )
            facts = (facts - set(remove)) | set(add)
        constant = data.draw(st.sampled_from(constants))
        goal = f"{goal_predicate}({constant}, {data.draw(st.sampled_from('XY'))})?"
        fresh = QueryService()
        fresh.load(
            "d", rules + "\n" + "".join(_fact(*f) + ".\n" for f in sorted(facts, key=repr))
        )
        served = live.query("d", goal, strategy=strategy)
        expected = fresh.query("d", goal, strategy=strategy)
        assert served["answers"] == expected["answers"], goal
        assert served["stats"] == expected["stats"], goal


def test_asserted_derived_facts_reach_every_strategy():
    """After ``/update`` asserts derived facts, every strategy answers
    what the maintained model holds."""
    from repro.core.strategy import available_strategies

    service = QueryService()
    service.load("d", "edge(1, 2).\ntc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\n")
    maintained = {"strategy": "seminaive", "maintain": "dred"}
    assert rows(service.query("d", "tc(X, Y)?", **maintained)) == [[1, 2]]
    service.update("d", add=["tc(7, 8)", "tc(2, 7)"])
    expected = rows(service.query("d", "tc(X, Y)?", **maintained))
    assert expected == [[1, 2], [1, 7], [2, 7], [7, 8]]
    for strategy in available_strategies():
        for goal, answers in (("tc(X, Y)?", expected), ("tc(7, X)?", [[7, 8]])):
            assert rows(service.query("d", goal, strategy=strategy)) == answers, strategy
    assert rows(service.query("d", "tc(7, X)?")) == rows(
        service.query("d", "tc(7, X)?", **maintained)
    )


def test_no_reply_started_after_an_update_carries_older_answers():
    """Eight query threads against one patched shape while an updater
    cuts a chain edge by edge: a query that starts after an update
    returned must see that update — never a call-table entry stored by a
    run that started on the replaced base."""
    length, chains = 24, 3
    edges = [
        f"edge(c{chain}n{i}, c{chain}n{i + 1})."
        for chain in range(chains) for i in range(length)
    ]
    service = QueryService()
    service.load("g", "\n".join(edges) + "\n" + (
        "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y)."
    ))
    # Cut 0 removes the chain-0 edge nearest its end, so after `done`
    # cuts chain 0 reaches length - done nodes; the other chains never
    # change and stay table hits.
    goals = [f"tc(c{chain}n0, X)?" for chain in range(chains)]
    for goal in goals:
        service.query("g", goal)
    cuts = length - 4
    done = 0  # updates returned so far (read without a lock: an int)
    failures: list = []
    stop = threading.Event()

    def reader(offset: int) -> None:
        try:
            step = offset
            while not stop.is_set():
                goal = goals[step % chains]
                step += 1
                started = done
                count = service.query("g", goal)["answers"]["count"]
                if goal == goals[0]:
                    if count > length - started:
                        failures.append((started, count))
                elif count != length:
                    failures.append((goal, count))
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    try:
        for thread in threads:
            thread.start()
        for cut in range(cuts):
            i = length - 1 - cut
            info = service.update("g", remove=[f"edge(c0n{i}, c0n{i + 1})"])
            assert info["cache_entries_patched"] == 1
            done = cut + 1
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for thread in threads:
            thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert service.query("g", goals[0])["answers"]["count"] == length - cuts
    assert service.query("g", goals[1])["table_hit"]


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

    def test_update_arity_mismatch_is_400(self, live_server):
        _, client = live_server
        client.load("g", GRAPH_SOURCE)
        client.query("g", "path(a, X)?", strategy="seminaive", maintain="dred")
        for update in ({"add": ["edge(1, 2, 3)."]}, {"remove": ["edge(3)."]}):
            with pytest.raises(ServeError) as bad:
                client.update("g", **update)
            assert bad.value.status == 400
            assert "arity" in str(bad.value)
        # Nothing was dropped or bumped: the maintained shape still hits.
        reply = client.query(
            "g", "path(a, X)?", strategy="seminaive", maintain="dred"
        )
        assert reply["cache_hit"] and reply["version"] == 1

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


# --- one decision per shape --------------------------------------------------
def test_a_failed_shape_decision_publishes_nothing(service, monkeypatch):
    """A shape whose decision raises after another shape already took the
    delta: the version stays, every entry of the dataset is dropped, and
    the next queries re-prepare against the unchanged facts."""
    maintained = {"strategy": "seminaive", "maintain": "dred"}
    service.query("g", "path(a, X)?", **maintained)
    service.query("g", "path(a, X)?")

    def boom(self, database, changed):
        raise RuntimeError("patch exploded")

    monkeypatch.setattr("repro.core.prepare.PreparedQuery.patch", boom)
    with pytest.raises(RuntimeError, match="patch exploded"):
        service.update("g", remove=["edge(b, c)"])
    monkeypatch.undo()
    assert service.dataset("g").version == 1
    assert service.cache.entries_for("g") == []
    for config in (maintained, {}):
        reply = service.query("g", "path(a, X)?", **config)
        assert not reply["cache_hit"] and reply["version"] == 1
        assert rows(reply) == [["a", "b"], ["a", "c"], ["a", "d"]]


def test_an_update_beside_the_goal_cone_patches_the_shape():
    """A derived fact asserted outside the goal's cone, and a base fact
    feeding only a lower stratum the goal never reads, leave the shape to
    be patched for what it does read."""
    service = QueryService()
    service.load("s", SIDE_SOURCE)
    service.query("s", "ok(1, X)?")
    update = {"add": ["f(3, 2)", "unsafe(2)", "e(3, 1)"], "remove": ["bad(3)"]}
    info = service.update("s", **update)
    assert info["cache_entries_patched"] == 1
    assert info["cache_entries_dropped"] == 0
    fresh = QueryService()
    fresh.load("s", SIDE_SOURCE)
    fresh.update("s", **update)
    for goal in ("ok(1, X)?", "ok(3, X)?"):
        reply = service.query("s", goal)
        assert reply["cache_hit"]
        expected = fresh.query("s", goal)
        assert (reply["answers"], reply["stats"]) == (
            expected["answers"], expected["stats"],
        )


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario=st.sampled_from([(GRAPH_SOURCE, "path"), (SIDE_SOURCE, "ok")]),
    strategy=st.sampled_from(["alexander", "magic", "supplementary"]),
    data=st.data(),
)
def test_updates_anywhere_in_the_program_equal_a_fresh_service(
    scenario, strategy, data
):
    """Like the property above, but an update may assert a fact of any
    derived predicate and name any base predicate, in or beside the goal's
    cone, so shapes are kept, patched and dropped by what they read."""
    source, goal_predicate = scenario
    program = parse_program(source)
    rules = "\n".join(str(rule) for rule in program.proper_rules)
    facts = {(atom.predicate, atom.ground_key()) for atom in program.facts}
    domain = sorted({value for _, row in facts for value in row}, key=str)
    predicates = sorted(program.predicates)
    live = QueryService()
    live.load("d", source)
    live.query("d", f"{goal_predicate}({domain[0]}, X)?", strategy=strategy)
    for _ in range(data.draw(st.integers(3, 8))):
        add, remove = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            predicate = data.draw(st.sampled_from(predicates))
            row = tuple(
                data.draw(st.sampled_from(domain))
                for _ in range(program.arities[predicate])
            )
            if predicate in program.idb_predicates or data.draw(st.booleans()):
                add.append((predicate, row))
            else:
                remove.append((predicate, row))
        live.update(
            "d",
            add=[_fact(*fact) for fact in add],
            remove=[_fact(*fact) for fact in remove],
        )
        facts = (facts - set(remove)) | set(add)
        goal = f"{goal_predicate}({data.draw(st.sampled_from(domain))}, X)?"
        fresh = QueryService()
        fresh.load(
            "d", rules + "\n" + "".join(_fact(*f) + ".\n" for f in sorted(facts, key=repr))
        )
        served = live.query("d", goal, strategy=strategy)
        expected = fresh.query("d", goal, strategy=strategy)
        assert served["answers"] == expected["answers"], goal
        assert served["stats"] == expected["stats"], goal
