"""The HTTP-free core of the query service.

:class:`QueryService` owns named, versioned datasets (a parsed program
plus its extensional database) and answers queries against them, going
through the :class:`~repro.serve.cache.PreparedQueryCache` whenever the
strategy has a preparable form:

* preparable strategies (the transform family and the bottom-up
  engines) are served through :func:`repro.core.prepare.prepare_query`;
  a cache hit executes a precompiled shape and does **zero** parse /
  adorn / transform / plan / compile work;
* the tuple-at-a-time strategies (``sld``, ``oldt``, ``qsqr``) raise
  :class:`~repro.errors.UnpreparableStrategyError` from the prepare
  pipeline and fall back to direct
  :func:`repro.core.strategy.run_strategy` execution, counted under
  ``serve.direct``.

Every request gets its own :class:`~repro.engine.budget.EvaluationBudget`
(decoded from the request payload).  A budget trip is **not** an error
at this layer: bottom-up evaluation is inflationary, so the partial
database carried by :class:`~repro.errors.BudgetExceededError` is a
sound prefix of the full model, and the response reports the answers
found so far flagged ``partial: true, sound: true`` with the tripped
limit — the graceful-degradation contract clients can rely on.

Dataset versioning is what makes caching sound: prepared queries
snapshot their base database, so any mutation goes through
:meth:`QueryService.load` — which bumps the dataset version (changing
every cache key) and eagerly drops the stale version's entries — or
through :meth:`QueryService.update`, the incremental path: maintained
shapes (prepared with ``maintain="dred"``) have the delta applied to their
live materialisation, frozen shapes outside the update's affected cone
are migrated to the new version untouched, and only shapes the update
could actually change are dropped.  Sustained update traffic therefore
keeps the cache warm instead of cold-starting every shape after every
mutation.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from functools import cached_property

from ..core.prepare import (
    UNPREPARABLE_STRATEGIES,
    PreparedQuery,
    answers_object,
    check_maintain,
    prepare_query,
    prepared_cache_key,
    program_fingerprint,
)
from ..core.snapshot import database_fingerprint
from ..core.strategy import QueryResult, available_strategies, run_strategy
from ..datalog.atoms import Atom
from ..datalog.parser import parse_query
from ..datalog.rules import Program
from ..engine.budget import EvaluationBudget
from ..engine.planner import resolve_planner
from ..errors import BudgetExceededError, ReproError, UnpreparableStrategyError
from ..facts.database import Database
from ..facts.io import load_source
from ..obs import get_metrics
from ..transform.sips import named_sips
from .cache import DEFAULT_MAX_ENTRIES, PreparedQueryCache

__all__ = [
    "Dataset", "QueryService", "RenderedAnswers", "budget_from_payload",
    "encode_reply",
]

DEFAULT_STRATEGY = "alexander"

_BUDGET_FIELDS = (
    "wall_clock_seconds",
    "max_iterations",
    "max_facts",
    "max_attempts",
)


def budget_from_payload(payload) -> "EvaluationBudget | None":
    """Decode a request's ``budget`` object into an
    :class:`EvaluationBudget` (``None`` / empty → no budget).

    Every present limit must be a positive number: zero, negative, and
    non-numeric limits are rejected here with a client-error
    :class:`ReproError` (the HTTP layer renders it as a 400) instead of
    being smuggled into a budget that trips before any work happens —
    turning every such request into a confusing empty "partial" result
    rather than the validation error it really is (and non-numeric
    values into a mid-evaluation ``TypeError``, a 500).  Booleans are
    explicitly excluded even though ``bool`` subclasses ``int`` —
    ``"max_facts": true`` is a client bug, not a budget of one fact.
    """
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ReproError(f"budget must be an object, got {type(payload).__name__}")
    unknown = set(payload) - set(_BUDGET_FIELDS)
    if unknown:
        raise ReproError(
            f"unknown budget field(s) {sorted(unknown)}; "
            f"expected {list(_BUDGET_FIELDS)}"
        )
    kwargs = {name: payload.get(name) for name in _BUDGET_FIELDS}
    for name, value in kwargs.items():
        if value is None:
            continue
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or value <= 0
        ):
            raise ReproError(
                f"budget field {name!r} must be a positive number, "
                f"got {value!r}"
            )
    if all(value is None for value in kwargs.values()):
        return None
    return EvaluationBudget(**kwargs)


def _match_answers(database, goal: Atom) -> tuple[Atom, ...]:
    """The goal's answers present in *database* (``None`` → none).

    Used on budget trips where no :class:`PreparedQuery` exists yet; the
    database is a sound prefix, so anything found is a true answer.
    """
    from ..core.strategy import _sorted_answers

    if database is None:
        return ()
    return _sorted_answers(goal, database.match(goal))


class RenderedAnswers(dict):
    """A reply's ``answers`` object that also carries its own JSON text.

    Equal to the plain dict and encoded like it by :func:`json.dumps`;
    :func:`encode_reply` splices :attr:`json` in instead of encoding the
    rows again.  The text comes from a call-table entry
    (:meth:`repro.core.prepare.CallTable.answers_json`) holding the same
    rows and texts the dict was built from.
    """

    __slots__ = ("json",)

    def __init__(self, rows, texts, text: str):
        super().__init__(answers_object(rows, texts))
        self.json = text


def encode_reply(payload: dict) -> bytes:
    """The reply body for *payload*: ``json.dumps(payload,
    sort_keys=True)`` as UTF-8, byte for byte.

    When ``payload["answers"]`` is a :class:`RenderedAnswers` and
    ``"answers"`` is the first key in sorted order (it is in every
    query reply), its stored text is spliced in and only the rest of
    the payload is encoded.
    """
    answers = payload.get("answers")
    if type(answers) is not RenderedAnswers or min(payload) != "answers":
        return json.dumps(payload, sort_keys=True).encode()
    rest = json.dumps(
        {key: value for key, value in payload.items() if key != "answers"},
        sort_keys=True,
    )
    tail = "}" if rest == "{}" else ", " + rest[1:]
    return f'{{"answers": {answers.json}{tail}'.encode()


def _check_config(dataset: "Dataset", sips, planner, maintain) -> None:
    """An unknown option *value* is the client's error (a 400), not the
    ``ValueError`` the engine layers raise for it (a 500)."""
    check_maintain(maintain)
    try:
        if isinstance(sips, str):
            named_sips(sips)
        resolve_planner(planner, dataset.database, dataset.program)
    except ValueError as exc:
        raise ReproError(str(exc)) from None


def _affected_predicates(
    program: Program, updated: "set[str]"
) -> frozenset[str]:
    """The affected cone of an update: the updated predicates plus every
    predicate transitively derivable from them (body → head closure).

    A prepared shape whose goal lies outside this cone answers every
    query identically before and after the update, so the cache can
    migrate it to the new dataset version instead of dropping it.
    """
    successors = program.dependency_graph.successors
    affected = set(updated)
    frontier = set(updated)
    while frontier:
        next_frontier: set[str] = set()
        for predicate in frontier:
            for head in successors.get(predicate, ()):
                if head not in affected:
                    affected.add(head)
                    next_frontier.add(head)
        frontier = next_frontier
    return frozenset(affected)


@dataclass
class Dataset:
    """One loaded program + database, versioned across reloads.

    Attributes:
        name: the handle requests address it by.
        program: the rules (facts live in *database*).
        database: the extensional facts; treated as immutable — reloads
            install a fresh object and bump *version*.
        version: bumped on every :meth:`QueryService.load` touching this
            name; part of every prepared-cache key.
        fingerprint: the program's rule fingerprint, reported by
            ``/health`` and ``/metrics`` for cache-debugging.
    """

    name: str
    program: Program
    database: Database
    version: int
    fingerprint: str

    @cached_property
    def data_fingerprint(self) -> str:
        """Order-independent digest of the fact set
        (:func:`~repro.core.snapshot.database_fingerprint`), computed on
        first read; keys the cross-process shape registry, where the
        in-memory version counter means nothing to other processes."""
        return database_fingerprint(self.database)

    def info(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "rules": len(self.program.proper_rules),
            "predicates": sorted(self.database.predicates()),
            "facts": sum(map(len, self.database.relations())),
            "fingerprint": self.fingerprint[:16],
        }


class QueryService:
    """Datasets + prepared-query cache + request execution.

    Thread-safe: dataset registration runs under a lock, queries run
    lock-free against immutable snapshots (a reload replaces the
    :class:`Dataset` object; in-flight requests finish against the
    version they started with).
    """

    def __init__(
        self,
        max_cached: int = DEFAULT_MAX_ENTRIES,
        registry=None,
    ):
        """Args:
            max_cached: prepared-query cache capacity.
            registry: optional cross-process shape registry — a
                :class:`~repro.serve.registry.ShapeRegistry` or a
                directory path to open one at.  With a registry, cache
                misses first try to *load* a serialized shape (saved by
                any process, any lifetime) before preparing from
                scratch, and freshly prepared non-maintained shapes are
                saved back.
        """
        self._lock = threading.Lock()
        self._datasets: dict[str, Dataset] = {}
        self.cache = PreparedQueryCache(max_cached)
        if registry is not None and not hasattr(registry, "load"):
            from .registry import ShapeRegistry

            registry = ShapeRegistry(registry)
        self.registry = registry

    # --- datasets -------------------------------------------------------------
    def load(
        self,
        name: str,
        program_text: "str | None" = None,
        facts_text: "str | None" = None,
        extend: bool = False,
    ) -> dict:
        """Load or reload dataset *name* from Datalog source text.

        Args:
            name: dataset handle.
            program_text: rules and/or facts; required unless *extend*.
            facts_text: additional source parsed the same way, kept as a
                separate argument so callers can ship rules and bulk EDB
                in different strings.
            extend: start from the existing dataset's program + facts
                instead of empty (still bumps the version — extending is
                a mutation like any other).
        """
        with self._lock:
            current = self._datasets.get(name)
            if extend and current is None:
                raise ReproError(f"cannot extend unknown dataset {name!r}")
            # A load must actually carry source: empty or whitespace-only
            # text would otherwise install an empty dataset (or, with
            # extend, bump the version and flush the prepared cache while
            # changing nothing) — both are client bugs, not mutations.
            if not any(
                text is not None and text.strip()
                for text in (program_text, facts_text)
            ):
                raise ReproError(
                    "load requires non-empty program or facts text"
                )
            if extend:
                program = current.program
                database = current.database.copy()
                version = current.version + 1
            else:
                program = Program(())
                database = Database()
                version = current.version + 1 if current is not None else 1
            for text in (program_text, facts_text):
                if text:
                    program, database = load_source(text, program, database)
            dataset = Dataset(
                name=name,
                program=program,
                database=database,
                version=version,
                fingerprint=program_fingerprint(program),
            )
            self._datasets[name] = dataset
        dropped = self.cache.drop_dataset(name)
        obs = get_metrics()
        if obs.enabled:
            obs.incr("serve.loads")
        info = dataset.info()
        info["cache_entries_dropped"] = dropped
        return info

    def update(
        self,
        name: str,
        add: "list[str] | tuple[str, ...]" = (),
        remove: "list[str] | tuple[str, ...]" = (),
    ) -> dict:
        """Apply a batched fact update to dataset *name*; the ``/update``
        endpoint.

        Unlike :meth:`load` — which installs a fresh dataset and drops
        every prepared shape — an update patches in place and keeps the
        cache warm:

        1. **maintained** shapes at the current version have the delta
           applied to their live materialisation (removals first, then
           insertions, each as one batched maintenance pass);
        2. the dataset's own database is patched and re-published under
           ``version + 1`` (so future preparations see the new facts);
        3. cache entries are *migrated* instead of flushed: maintained
           shapes patched in step 1 and shapes whose answers cannot
           depend on the updated predicates (outside the affected cone —
           the updated predicates plus their transitive dependents) are
           re-keyed to the new version, and so are transform shapes
           inside the cone that can be patched (see ``keep`` below);
           the other entries inside the cone are dropped, as is any
           maintained shape that raced into the cache after step 1's
           snapshot (it was prepared against the pre-update database).

        *add*/*remove* are fact texts (``"edge(a, b)"``), each of the
        arity its predicate has in the dataset.  Removals must target
        base (non-IDB) predicates; insertions may assert derived facts
        (they gain external support in maintained shapes).  Returns a
        summary payload with the new dataset info and the
        cache-migration counts.
        """
        obs = get_metrics()
        started = time.perf_counter()
        add_atoms = [parse_query(text) for text in add]
        remove_atoms = [parse_query(text) for text in remove]
        if not add_atoms and not remove_atoms:
            raise ReproError("update requires at least one add or remove")
        for atom in (*add_atoms, *remove_atoms):
            if not atom.is_ground():
                raise ReproError(f"update facts must be ground, got {atom}")
        with self._lock:
            dataset = self._datasets.get(name)
            if dataset is None:
                raise ReproError(
                    f"unknown dataset {name!r}; loaded: "
                    f"{sorted(self._datasets)}"
                )
            idb = dataset.program.idb_predicates
            for atom in remove_atoms:
                if atom.predicate in idb:
                    raise ReproError(
                        f"cannot remove derived fact {atom}; remove base "
                        "facts only"
                    )
            arities = dict(dataset.program.arities)
            for atom in (*add_atoms, *remove_atoms):
                arity = dataset.database.arity_of(atom.predicate)
                if arity is None:
                    arity = arities.setdefault(atom.predicate, atom.arity)
                if atom.arity != arity:
                    raise ReproError(
                        f"{atom} has arity {atom.arity}, but "
                        f"{atom.predicate} has arity {arity} in dataset "
                        f"{name!r}"
                    )
            # 1. Patch maintained shapes in place (their per-shape lock
            # serialises against in-flight executions).  A failure
            # mid-loop leaves the already-patched shapes one delta ahead
            # of a dataset whose version will never be bumped, so every
            # maintained shape is dropped before re-raising — nothing may
            # keep serving a half-applied state.
            patched_keys: set[tuple] = set()
            try:
                for key, prepared in self.cache.entries_for(name):
                    if (
                        key[1] == dataset.version
                        and prepared.mode == "maintained"
                    ):
                        prepared.apply_update(
                            add=add_atoms, remove=remove_atoms
                        )
                        patched_keys.add(key)
            except BaseException:
                for key, prepared in self.cache.entries_for(name):
                    if prepared.mode == "maintained":
                        self.cache.drop_entry(key)
                raise
            patched = len(patched_keys)
            # 2. Publish the patched dataset under a new version.
            database = dataset.database.copy()
            removed = added = 0
            changed: dict[str, list[tuple]] = {}
            for atom in remove_atoms:
                if atom.predicate not in database:
                    continue
                relation = database.relation(atom.predicate)
                if relation.discard(atom.ground_key()):
                    removed += 1
                    changed.setdefault(atom.predicate, []).append(atom.ground_key())
            for atom in add_atoms:
                if database.add_atom(atom):
                    added += 1
                    changed.setdefault(atom.predicate, []).append(atom.ground_key())
            version = dataset.version + 1
            self._datasets[name] = Dataset(
                name=name,
                program=dataset.program,
                database=database,
                version=version,
                fingerprint=dataset.fingerprint,
            )
            # 3. Migrate the cache: maintained shapes that were actually
            # patched, and frozen shapes outside the affected cone,
            # answer identically against the new version; everything
            # else is stale unless it is a transform shape that can be
            # patched.  A maintained shape *not* in the patched set raced
            # in between the patch snapshot and here — it was prepared
            # against the pre-update database and must be dropped, not
            # migrated.
            updated = {atom.predicate for atom in (*add_atoms, *remove_atoms)}
            affected = _affected_predicates(dataset.program, updated)
            # A transform shape's base holds its lower strata, complete:
            # an update reaching one (or asserting a derived fact) needs
            # a fresh preparation.
            lower = affected & idb
            table_kept = table_invalidated = 0

            def keep(key: tuple, prepared: PreparedQuery) -> bool:
                nonlocal patched, table_kept, table_invalidated
                if prepared.mode == "maintained":
                    return key in patched_keys
                if prepared.mode == "transform":
                    if prepared.query.predicate not in affected:
                        return True
                    if prepared.patchable is None or updated & idb or (
                        lower & prepared.base.predicates()
                    ):
                        return False
                    entries_kept, entries_invalidated = prepared.patch(database, changed)
                    patched += 1
                    table_kept += entries_kept
                    table_invalidated += entries_invalidated
                    return True
                # Frozen full-model shapes depend on everything.
                return not affected

            kept, dropped = self.cache.rekey_dataset(
                name, dataset.version, version, keep
            )
        if obs.enabled:
            obs.incr("serve.updates")
            obs.incr("maintain.update_adds", len(add_atoms))
            obs.incr("maintain.update_removes", len(remove_atoms))
        info = self._datasets[name].info()
        info.update(
            {
                "added": added,
                "removed": removed,
                "affected_predicates": sorted(affected),
                "cache_entries_patched": patched,
                "cache_entries_kept": kept,
                "cache_entries_dropped": dropped,
                "table_entries_kept": table_kept,
                "table_entries_invalidated": table_invalidated,
                "elapsed_ms": (time.perf_counter() - started) * 1000.0,
            }
        )
        return info

    def install(
        self,
        name: str,
        program: Program,
        database: Database,
        version: int,
        data_fingerprint: "str | None" = None,
    ) -> Dataset:
        """Install an already-built dataset under an explicit *version*.

        The worker-process path: the dispatcher freezes the
        authoritative dataset into shared memory, and each worker
        decodes and installs it here when a request's spec names a
        version the worker has not seen — pull-based propagation of
        ``/load`` and ``/update`` version bumps.  Every cache entry for
        *name* is dropped (they were prepared against a version this
        process no longer serves).  *database* is adopted, not copied;
        the caller hands over ownership.
        """
        dataset = Dataset(
            name=name,
            program=program,
            database=database,
            version=version,
            fingerprint=program_fingerprint(program),
        )
        if data_fingerprint is not None:
            dataset.data_fingerprint = data_fingerprint
        with self._lock:
            self._datasets[name] = dataset
        self.cache.drop_dataset(name)
        obs = get_metrics()
        if obs.enabled:
            obs.incr("serve.installs")
        return dataset

    def dataset(self, name: str) -> Dataset:
        with self._lock:
            dataset = self._datasets.get(name)
            if dataset is None:
                names = sorted(self._datasets)
        if dataset is None:
            raise ReproError(
                f"unknown dataset {name!r}; loaded: {names}"
            )
        return dataset

    def datasets(self) -> list[dict]:
        with self._lock:
            snapshot = list(self._datasets.values())
        return [dataset.info() for dataset in snapshot]

    # --- preparation ----------------------------------------------------------
    def _cache_key(
        self, dataset: Dataset, goal: Atom, strategy: str, sips, planner,
        maintain: "str | None" = None,
    ) -> tuple:
        return (dataset.name, dataset.version) + prepared_cache_key(
            dataset.program, goal, strategy, sips, planner, maintain,
        )

    def _build_prepared(
        self, dataset: Dataset, goal: Atom, key: tuple, strategy: str,
        sips, planner, budget=None, maintain: "str | None" = None,
    ):
        """The cache-miss factory: registry consult, then a real prepare.

        When a :class:`~repro.serve.registry.ShapeRegistry` is attached
        and the shape is serializable (anything but maintained), a
        registry hit deserializes the shape another process already
        built — no transform, no planning, no fixpoint compilation.  A
        miss prepares from scratch and saves the result back, so the
        *next* process (or a restarted server) hits.  The registry key
        is the library-level part of *key* (``key[2:]``, dropping the
        dataset name/version) widened with the dataset's data
        fingerprint, because the serialized shape embeds its execution
        base.
        """
        registry = self.registry
        shareable = registry is not None and maintain is None
        if shareable:
            prepared = registry.load(key[2:], dataset.data_fingerprint)
            if prepared is not None:
                return prepared
        prepared = prepare_query(
            dataset.program,
            goal,
            dataset.database,
            strategy=strategy,
            sips=sips,
            planner=planner,
            budget=budget,
            maintain=maintain,
        )
        if shareable:
            registry.save(key[2:], dataset.data_fingerprint, prepared)
        return prepared

    def prepare(
        self,
        dataset_name: str,
        goal: "Atom | str",
        strategy: str = DEFAULT_STRATEGY,
        sips: "str | None" = None,
        planner: "str | None" = None,
        maintain: "str | None" = None,
    ) -> dict:
        """Prepare (or re-use) a query shape; the ``/prepare`` endpoint.

        *maintain* (``"dred"``, the only accepted value) prepares a
        maintained shape whose materialisation :meth:`update` patches in
        place instead of dropping.

        Raises :class:`UnpreparableStrategyError` for the top-down
        strategies — ``/prepare`` reports that as a client error, while
        ``/query`` silently falls back to direct execution.
        """
        dataset = self.dataset(dataset_name)
        if isinstance(goal, str):
            goal = parse_query(goal)
        _check_config(dataset, sips, planner, maintain)
        key = self._cache_key(dataset, goal, strategy, sips, planner, maintain)
        if strategy in UNPREPARABLE_STRATEGIES:
            # Surface the library error without caching anything.
            prepare_query(dataset.program, goal, dataset.database, strategy)
            raise AssertionError("unreachable")  # pragma: no cover
        started = time.perf_counter()
        prepared, hit = self.cache.get_or_prepare(
            key,
            lambda: self._build_prepared(
                dataset, goal, key, strategy, sips, planner, maintain=maintain,
            ),
        )
        return {
            "dataset": dataset.name,
            "version": dataset.version,
            "goal": str(goal),
            "strategy": strategy,
            "adornment": prepared.adornment,
            "mode": prepared.mode,
            "cache_hit": hit,
            "rules_compiled": (
                prepared.fixpoint.rule_count if prepared.fixpoint else 0
            ),
            "kernels": (
                prepared.fixpoint.kernel_count if prepared.fixpoint else 0
            ),
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }

    # --- querying -------------------------------------------------------------
    def query(
        self,
        dataset_name: str,
        goal: "Atom | str",
        strategy: str = DEFAULT_STRATEGY,
        sips: "str | None" = None,
        planner: "str | None" = None,
        budget: "EvaluationBudget | None" = None,
        maintain: "str | None" = None,
    ) -> dict:
        """Answer *goal* against *dataset_name*; the ``/query`` endpoint.

        Returns a JSON-ready payload.  Budget trips degrade to a sound
        partial payload (``partial: true``) instead of raising.
        *maintain* routes the request through a maintained shape (see
        :meth:`prepare`); materialised strategies only.
        """
        obs = get_metrics()
        started = time.perf_counter()
        dataset = self.dataset(dataset_name)
        if isinstance(goal, str):
            goal = parse_query(goal)
        if strategy not in available_strategies():
            raise ReproError(
                f"unknown strategy {strategy!r}; choose from "
                f"{available_strategies()}"
            )
        _check_config(dataset, sips, planner, maintain)
        if obs.enabled:
            obs.incr("serve.queries")
            obs.incr(f"serve.strategy.{strategy}")

        payload: dict
        if strategy in UNPREPARABLE_STRATEGIES:
            payload = self._query_direct(
                dataset, goal, strategy, sips, planner, budget,
            )
        else:
            payload = self._query_prepared(
                dataset, goal, strategy, sips, planner, budget, maintain,
            )
        elapsed = time.perf_counter() - started
        payload["elapsed_ms"] = elapsed * 1000.0
        if obs.enabled:
            obs.observe("serve.request_seconds", elapsed)
        return payload

    def _query_prepared(
        self, dataset: Dataset, goal: Atom, strategy: str, sips, planner,
        budget, maintain: "str | None" = None,
    ) -> dict:
        key = self._cache_key(dataset, goal, strategy, sips, planner, maintain)
        try:
            # The request budget governs whatever work this request
            # actually does: on a miss that includes preparation (lower
            # strata / full materialisation), on a hit only execution.
            prepared, hit = self.cache.get_or_prepare(
                key,
                lambda: self._build_prepared(
                    dataset, goal, key, strategy, sips, planner,
                    budget=budget, maintain=maintain,
                ),
            )
        except BudgetExceededError as exc:
            # Tripped mid-preparation: nothing was cached.  The partial
            # database is still a sound prefix, so report what it holds
            # for the goal (usually nothing for transform shapes, whose
            # goal predicate lives above the materialised strata).
            return self._partial_payload(
                dataset, goal, strategy,
                _match_answers(exc.partial, goal), exc,
                prepared=False, cache_hit=False,
            )
        try:
            result = prepared.execute(goal, budget=budget)
        except BudgetExceededError as exc:
            return self._partial_payload(
                dataset, goal, strategy,
                prepared.partial_answers(exc.partial, goal), exc,
                prepared=True, cache_hit=hit,
            )
        payload = self._result_payload(dataset, goal, result)
        payload["prepared"] = True
        payload["cache_hit"] = hit
        return payload

    def _query_direct(
        self, dataset: Dataset, goal: Atom, strategy: str, sips, planner,
        budget,
    ) -> dict:
        obs = get_metrics()
        if obs.enabled:
            obs.incr("serve.direct")
        try:
            result = run_strategy(
                strategy,
                dataset.program,
                goal,
                dataset.database,
                sips=sips,
                planner=planner,
                budget=budget,
            )
        except BudgetExceededError as exc:
            return self._partial_payload(
                dataset, goal, strategy, _match_answers(exc.partial, goal),
                exc, prepared=False, cache_hit=False,
            )
        payload = self._result_payload(dataset, goal, result)
        payload["prepared"] = False
        payload["cache_hit"] = False
        return payload

    # --- payload rendering ----------------------------------------------------
    @staticmethod
    def render_answers(answers: tuple[Atom, ...]) -> dict:
        """The canonical answer rendering every payload shares.

        ``rows`` are the ground value tuples in the deterministic sorted
        order of :func:`repro.core.strategy._sorted_answers`; ``atoms``
        the same answers as source text.  The bit-identity tests compare
        these fields against a direct :meth:`repro.core.engine.Engine.query`.
        """
        return answers_object(
            [atom.ground_key() for atom in answers],
            [str(atom) for atom in answers],
        )

    def _result_payload(
        self, dataset: Dataset, goal: Atom, result: QueryResult
    ) -> dict:
        # A prepared transform shape hands over rows and text it already
        # holds (on a call-table hit, no atom exists at all, and the
        # entry's JSON text rides along for encode_reply to splice).
        rendered = result.rendered
        if rendered is None:
            answers = self.render_answers(result.answers)
        elif result.answers_json is None:
            answers = answers_object(*rendered)
        else:
            answers = RenderedAnswers(*rendered, result.answers_json)
        payload = {
            "dataset": dataset.name,
            "version": dataset.version,
            "goal": str(goal),
            "strategy": result.strategy,
            "answers": answers,
            "partial": False,
            "sound": True,
            "complete": True,
            "stats": result.stats.as_dict(),
            "table_hit": result.table_hit,
        }
        return payload

    # --- introspection / lifecycle --------------------------------------------
    def metrics_payload(self) -> dict:
        """The ``/metrics`` body (minus the server's in-flight gauge).

        The HTTP layer delegates here so a pooled service can override
        it with a cross-process merge of every worker's registry.
        """
        payload = {
            "metrics": get_metrics().snapshot(),
            "cache": self.cache.metrics(),
        }
        if self.registry is not None and hasattr(self.registry, "stats"):
            payload["registry"] = self.registry.stats()
        return payload

    def health_payload(self) -> dict:
        """The ``/health`` body; pooled services add worker liveness."""
        return {"status": "ok", "datasets": self.datasets()}

    def close(self) -> None:
        """Release external resources.  The single-process service holds
        none; the pooled service overrides this to reap its workers and
        unlink shared memory."""

    def _partial_payload(
        self, dataset: Dataset, goal: Atom, strategy: str,
        answers: tuple[Atom, ...], exc: BudgetExceededError,
        prepared: bool, cache_hit: bool,
    ) -> dict:
        obs = get_metrics()
        if obs.enabled:
            obs.incr("serve.budget_tripped")
        stats = exc.stats.as_dict() if exc.stats is not None else {}
        return {
            "dataset": dataset.name,
            "version": dataset.version,
            "goal": str(goal),
            "strategy": strategy,
            "answers": self.render_answers(answers),
            "partial": True,
            "sound": True,
            "complete": False,
            "budget_limit": exc.limit,
            "stats": stats,
            "prepared": prepared,
            "cache_hit": cache_hit,
            "table_hit": False,
        }
