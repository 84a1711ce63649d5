"""Prepared queries: run the query pipeline once, execute it many times.

Every call to :func:`repro.core.strategy.run_strategy` re-parses,
re-adorns, re-transforms, re-plans, and re-compiles — work that depends
only on the *shape* of the query (predicate + binding pattern), not on
its constants.  This module is the pure "prepare" half of that pipeline:

* :func:`prepare_query` runs everything shape-dependent — stratification,
  lower-strata materialisation, the Alexander/magic/supplementary
  rewriting, join planning, rule compilation, kernel lowering — and
  returns an immutable-ish :class:`PreparedQuery`.
* :meth:`PreparedQuery.execute` evaluates a compatible goal (same
  predicate, same adornment, any constants) by injecting a fresh seed
  fact and running the precompiled fixpoint
  (:mod:`repro.engine.prepared`).  No parse, no adorn, no transform, no
  plan, no compile — observable as flat ``transform.*`` / ``planner.*`` /
  ``kernel.*`` counters across executions.
* :func:`prepared_cache_key` canonicalises the identity the query
  service caches on: (program fingerprint, strategy, SIPS, planner,
  executor, scheduler, maintain, goal predicate, goal adornment).

Three preparation modes cover the strategy spectrum:

* **transform** (``alexander``, ``magic``, ``supplementary``) — the full
  pipeline above.  Strata strictly below the query predicate's are
  materialised once at prepare time and the completed database is kept
  as the execution base (valid as long as the underlying database is
  unchanged — the serving layer versions its datasets and re-prepares
  after every load).
* **materialised** (``naive``, ``seminaive``, and any purely extensional
  goal) — bottom-up evaluation is query-independent, so preparation
  materialises the full model once and execution is a lookup.
* **unpreparable** (``sld``, ``oldt``, ``qsqr``) — tuple-at-a-time
  engines have no reusable compiled form;
  :class:`repro.errors.UnpreparableStrategyError` tells callers to fall
  back to direct execution.

A materialised shape can additionally be prepared **maintained**
(``maintain="counting" | "dred" | "recompute"``): the full model is held
by an :class:`repro.engine.incremental.IncrementalEngine` instead of a
frozen database, and :meth:`PreparedQuery.apply_update` patches it in
place under base-fact churn (batched removals then insertions, one
fixpoint continuation each) — so the serving layer can absorb updates
without re-preparing the world.  Execution is still a lookup; answer
sets stay identical to a fresh materialisation because the maintenance
modes are bit-identical to recomputation (``tests/
test_maintenance_differential.py``).

Answer sets are identical to the direct path by construction: the
rewriting is adornment-determined, so rebinding constants only moves the
seed fact, exactly as re-transforming would (pinned across strategies
and constants by ``tests/test_prepare.py``).

A transform shape also keeps a :class:`CallTable` of its *completed
top-level calls*.  By Seki's Theorem 1 the ``call_*``/``ans_*``
relations of a finished run are OLDT's call and answer tables, and a
completed table answers every later variant of the same call: a
repeated goal is a lookup that returns the first run's answers and
counters, not a second fixpoint.  Each entry also keeps the run's
*footprint* — the probe keys its base-predicate occurrences issued — so
a base-fact update can :meth:`PreparedQuery.patch` the shape instead of
dropping it: the base is swapped for the updated one and only the
entries whose footprint matches a changed row are invalidated
(``tests/test_call_tables.py``, ``tests/test_serve_update.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

from ..analysis.stratify import stratify
from ..datalog.atoms import Atom
from ..datalog.builtins import BUILTIN_PREDICATES
from ..datalog.parser import parse_query
from ..datalog.rules import Program
from ..datalog.terms import Constant
from ..engine.budget import Checkpoint, EvaluationBudget
from ..engine.counters import EvaluationStats
from ..engine.incremental import IncrementalEngine
from ..engine.kernel import DEFAULT_EXECUTOR, resolve_executor
from ..engine.maintain import resolve_maintenance
from ..engine.prepared import CompiledFixpoint, compile_fixpoint, run_fixpoint
from ..engine.prepared import footprint_touches, record_footprint
from ..engine.scheduler import DEFAULT_SCHEDULER, resolve_scheduler
from ..engine.stratified import stratified_fixpoint
from ..errors import ReproError, TransformError, UnpreparableStrategyError
from ..facts.database import Database
from ..obs import get_metrics
from ..transform.adorn import query_adornment
from ..transform.alexander import alexander_templates
from ..transform.common import TransformedProgram, bound_args
from ..transform.magic import magic_sets
from ..transform.sips import Sips, left_to_right, named_sips
from ..transform.supplementary import supplementary_magic_sets
from .strategy import (
    QueryResult, _bridge_stored_facts, _sorted_answers, _transform_call_summary,
)

__all__ = [
    "CallTable",
    "CALL_TABLE_MAX_ROWS",
    "PreparedQuery",
    "prepare_query",
    "prepared_cache_key",
    "program_fingerprint",
    "TRANSFORM_STRATEGIES",
    "MATERIALISED_STRATEGIES",
    "UNPREPARABLE_STRATEGIES",
]

TRANSFORM_STRATEGIES = frozenset({"alexander", "magic", "supplementary"})
MATERIALISED_STRATEGIES = frozenset({"naive", "seminaive"})
UNPREPARABLE_STRATEGIES = frozenset({"sld", "oldt", "qsqr"})

_TRANSFORMS = {
    "alexander": alexander_templates,
    "magic": magic_sets,
    "supplementary": supplementary_magic_sets,
}


# Most answer rows (plus one per entry) a shape's call table may hold.
CALL_TABLE_MAX_ROWS = 65_536


class CallTable:
    """The completed top-level calls of one transform shape.

    Maps a goal *up to variable renaming* (:meth:`key`) to the sorted
    answer rows of its completed run, as plain value tuples, each
    answer's ``str(atom)`` text, the run's :class:`EvaluationStats` and
    its footprint (:func:`~repro.engine.prepared.record_footprint`).
    No atoms are kept: a hit renders from rows and text.  Least recently
    used entries are evicted once rows plus entries exceed
    :data:`CALL_TABLE_MAX_ROWS`.  The lock guards the bookkeeping only,
    never an evaluation: two threads missing on one goal both evaluate
    and store the same value; a run stores only under the
    ``generation`` (count of :meth:`invalidate` calls) it started in.
    Per process and never serialised — a loaded shape starts empty.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple[tuple, tuple, EvaluationStats, dict]]" = (
            OrderedDict()
        )
        self._rows = 0
        self.generation = 0

    @staticmethod
    def key(goal: Atom) -> tuple:
        """Constants by value, variables by order of first occurrence:
        ``anc(5, X)`` and ``anc(5, Y)`` agree, ``p(X, X)`` and
        ``p(X, Y)`` do not.  Which positions hold constants is fixed by
        the shape's adornment, so the two kinds cannot be confused."""
        seen: dict = {}
        return tuple(
            arg.value if isinstance(arg, Constant)
            else seen.setdefault(arg, len(seen))
            for arg in goal.args
        )

    def get(self, key: tuple) -> "tuple[tuple, tuple, EvaluationStats, dict] | None":
        """The ``(rows, texts, stats, footprint)`` stored under *key*,
        marked recently used."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        obs = get_metrics()
        if obs.enabled:
            obs.incr(
                "prepare.table_misses" if entry is None else "prepare.table_hits"
            )
        return entry

    def put(
        self, key: tuple, rows: tuple, texts: tuple, stats: EvaluationStats,
        footprint: dict, generation: int,
    ) -> None:
        """Store a completed call (the caller hands over *stats*) unless
        a patch overtook its run: no footprint check covered that."""
        if len(rows) >= CALL_TABLE_MAX_ROWS:
            return  # would evict the whole table and then itself
        evicted = 0
        with self._lock:
            if generation != self.generation:
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._rows -= len(old[0])
            self._entries[key] = (rows, texts, stats, footprint)
            self._rows += len(rows)
            while self._rows + len(self._entries) > CALL_TABLE_MAX_ROWS:
                _, (gone, *_) = self._entries.popitem(last=False)
                self._rows -= len(gone)
                evicted += 1
        obs = get_metrics()
        if evicted and obs.enabled:
            obs.incr("prepare.table_evictions", evicted)

    def invalidate(self, changed: "dict[str, list[tuple]]") -> tuple[int, int]:
        """Drop every entry whose footprint matches a changed row and
        start a new generation; returns ``(kept, invalidated)``."""
        with self._lock:
            stale = [
                key for key, (*_, footprint) in self._entries.items()
                if footprint_touches(footprint, changed)
            ]
            for key in stale:
                self._rows -= len(self._entries.pop(key)[0])
            self.generation += 1
            return len(self._entries), len(stale)

    def size(self) -> tuple[int, int]:
        """``(entries, rows)`` currently stored."""
        with self._lock:
            return len(self._entries), self._rows


def program_fingerprint(program: Program) -> str:
    """A stable hex digest of *program*'s canonical rule text.

    Rule order is preserved (it is semantically irrelevant but keeps the
    fingerprint cheap and deterministic); two programs with the same
    rules in the same order always collide, which is exactly the reuse
    the prepared-query cache wants.
    """
    return program.fingerprint


def _sips_label(sips: "Sips | str | None") -> str:
    if sips is None:
        return "default"
    if isinstance(sips, str):
        return sips
    return getattr(sips, "__name__", repr(sips))


def prepared_cache_key(
    program: Program,
    goal: Atom,
    strategy: str,
    sips: "Sips | str | None" = None,
    planner: "str | None" = None,
    executor: str = DEFAULT_EXECUTOR,
    scheduler: str = DEFAULT_SCHEDULER,
    maintain: "str | None" = None,
) -> tuple:
    """The identity a prepared query is reusable under.

    For the transform strategies the goal contributes its *shape* only —
    predicate and adornment, never its constants — so ``anc(a, X)?`` and
    ``anc(b, X)?`` share one cache entry.  For the materialised
    strategies the model is query-independent, so the goal contributes
    nothing (``*``/``*``) and every goal shares one entry per
    (program, config).  A maintained shape is a distinct entry from its
    frozen counterpart (the *maintain* component, ``""`` when absent).
    """
    if strategy in MATERIALISED_STRATEGIES:
        predicate, adornment = "*", "*"
    else:
        predicate, adornment = goal.predicate, query_adornment(goal)
    return (
        program_fingerprint(program),
        strategy,
        _sips_label(sips),
        planner or "",
        executor,
        scheduler,
        maintain or "",
        predicate,
        adornment,
    )


@dataclass
class PreparedQuery:
    """One query shape, compiled and ready for repeated execution.

    Attributes:
        strategy: strategy name the results report.
        mode: ``"transform"``, ``"materialised"``, or ``"maintained"``
            (see module docstring).
        query: the template goal the shape was prepared from.
        adornment: the template's binding pattern; every executed goal
            must reproduce it.
        base: the execution base — EDB plus program facts, with lower
            strata (transform mode) or the full model (materialised and
            maintained modes) already completed.  Shared across
            executions and copied per run; treated as immutable except
            through :meth:`apply_update` and :meth:`patch`, which swap
            in a new one.
        transformed: the rewriting (transform mode only).
        fixpoint: the compiled evaluation plan of the rewritten stratum
            (transform mode only).
        engine: the live incremental engine (maintained mode only);
            ``base`` aliases its materialised database.
        table: the completed top-level calls (used in transform mode
            only; the other modes already answer by lookup).
        key: the :func:`prepared_cache_key` tuple.
        prepare_stats: counters accumulated while preparing (lower-strata
            or full materialisation); execution stats never include them.
        patchable: the base predicates of the source program that the
            rewritten stratum reads — the ones call-table footprints
            record and :meth:`patch` may update (transform mode only).
            ``None`` when the shape cannot be patched: a join plan cut
            against base statistics.
    """

    strategy: str
    mode: str
    query: Atom
    adornment: str
    base: Database
    key: tuple
    transformed: "TransformedProgram | None" = None
    fixpoint: "CompiledFixpoint | None" = None
    engine: "IncrementalEngine | None" = None
    prepare_stats: EvaluationStats = field(default_factory=EvaluationStats)
    patchable: "frozenset[str] | None" = None
    table: CallTable = field(
        default_factory=CallTable, repr=False, compare=False
    )
    _update_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # --- compatibility --------------------------------------------------------
    def compatible(self, goal: Atom) -> bool:
        """True iff *goal* can be executed by this prepared shape.

        Materialised and maintained shapes hold the full model and
        answer any goal by lookup — matching the ``*``/``*`` cache key
        all goals share — so every goal is compatible.  Transform shapes
        are specialised to one predicate/arity/adornment.
        """
        if self.mode != "transform":
            return True
        return (
            goal.predicate == self.query.predicate
            and goal.arity == self.query.arity
            and query_adornment(goal) == self.adornment
        )

    def _require_compatible(self, goal: Atom) -> None:
        if not self.compatible(goal):
            raise ReproError(
                f"goal {goal} does not fit prepared shape "
                f"{self.query.predicate}/{self.query.arity} "
                f"adornment {self.adornment!r}"
            )

    def _rebind(self, goal: Atom) -> tuple[tuple[Atom, ...], Atom]:
        """The seed facts and transformed goal atom for *goal*.

        Seed arguments are the goal's bound constants in adornment
        order — the same construction every transform uses — so moving
        the constants moves the seed and nothing else.
        """
        assert self.transformed is not None
        bound = bound_args(goal, self.adornment)
        if not all(isinstance(arg, Constant) for arg in bound):
            raise TransformError(
                f"goal {goal} has a non-constant bound argument"
            )
        seeds = tuple(
            Atom(seed.predicate, bound) for seed in self.transformed.seeds
        )
        return seeds, Atom(self.transformed.goal.predicate, goal.args)

    # --- execution ------------------------------------------------------------
    def execute(
        self,
        goal: "Atom | str | None" = None,
        budget: "EvaluationBudget | Checkpoint | None" = None,
    ) -> QueryResult:
        """Evaluate *goal* (default: the template) with zero re-preparation.

        Args:
            goal: atom or source text; defaults to the template goal.
            budget: optional per-execution budget.

        Raises:
            ReproError: when *goal* does not match the prepared shape, or
                when a maintained shape's engine is poisoned (an
                interrupted update left its materialisation
                inconsistent).
            BudgetExceededError: when *budget* trips; the error carries
                the sound partial working database —
                :meth:`partial_answers` extracts the goal's answers from
                it.
        """
        if goal is None:
            goal = self.query
        elif isinstance(goal, str):
            goal = parse_query(goal)
        self._require_compatible(goal)
        obs = get_metrics()
        if obs.enabled:
            obs.incr("prepare.executions")
        if self.mode != "transform":
            if self.engine is not None and self.engine.poisoned:
                # An interrupted apply_update left the maintained
                # materialisation inconsistent; serving lookups from it
                # would silently return a half-mutated model.
                raise ReproError(
                    "maintained shape's engine is poisoned (an "
                    "interrupted update left its materialisation "
                    "inconsistent); drop the shape and re-prepare"
                )
            # The lookup probes (and lazily builds) column indexes of
            # relations apply_update mutates in place: read under the
            # shape's lock, so an index is never built from a relation
            # mid-mutation and answers come from the model before or
            # after an update, never from DRed's over-deleted middle.
            with self._update_lock:
                answers = self._matching(self.base, goal)
            return QueryResult(
                strategy=self.strategy, query=goal, answers=answers,
                stats=EvaluationStats(answers=len(answers)),
            )
        key = self.table.key(goal)
        # A budget asks to bound *this* evaluation: it never reads the
        # table, though a run it lets complete fills it like any other.
        entry = self.table.get(key) if budget is None else None
        if entry is not None:
            rows, texts, stored, _ = entry
            return QueryResult(
                strategy=self.strategy,
                query=goal,
                answers=None,  # built from the rows if anyone reads them
                stats=stored.copy(),
                transformed=self.transformed,
                call_summary=partial(self._replayed_call_summary, goal),
                table_hit=True,
                rendered=(rows, texts),
            )
        seeds, transformed_goal = self._rebind(goal)
        # One snapshot: a patch swaps the base and bumps the generation
        # together, so a run on a replaced base can never store.
        with self._update_lock:
            base, generation = self.base, self.table.generation
        stats = EvaluationStats()
        completed, _ = run_fixpoint(
            self.fixpoint,
            base,
            stats=stats,
            budget=budget,
            extra_facts=seeds,
        )
        answers = self._matching(completed, goal, transformed_goal)
        stats.answers = len(answers)
        footprint = record_footprint(self.fixpoint, completed, self.patchable or frozenset())
        rows = tuple(atom.ground_key() for atom in answers)
        texts = tuple(map(str, answers))
        self.table.put(key, rows, texts, stats.copy(), footprint, generation)
        return QueryResult(
            strategy=self.strategy,
            query=goal,
            answers=answers,
            stats=stats,
            transformed=self.transformed,
            call_summary=partial(
                _transform_call_summary, self.transformed, completed
            ),
            rendered=(rows, texts),
        )

    def _replayed_call_summary(self, goal: Atom):
        """A table hit kept no completed database: whoever reads
        ``.calls`` / ``.answer_facts`` of one pays for the run then."""
        seeds, _ = self._rebind(goal)
        completed, _ = run_fixpoint(
            self.fixpoint, self.base, extra_facts=seeds
        )
        return _transform_call_summary(self.transformed, completed)

    def partial_answers(self, partial: "Database | None", goal: "Atom | str | None" = None) -> tuple[Atom, ...]:
        """The goal's answers present in a budget-trip *partial* database.

        Bottom-up evaluation is inflationary, so every answer found is
        genuinely derivable — the sound-partial contract the serving
        layer reports to clients instead of failing their request.
        """
        if goal is None:
            goal = self.query
        elif isinstance(goal, str):
            goal = parse_query(goal)
        self._require_compatible(goal)
        if partial is None:
            return ()
        if self.mode != "transform":
            return self._matching(partial, goal)
        _, transformed_goal = self._rebind(goal)
        return self._matching(partial, goal, transformed_goal)

    # --- maintenance ----------------------------------------------------------
    def apply_update(
        self,
        add: "tuple | list" = (),
        remove: "tuple | list" = (),
    ) -> tuple[frozenset, frozenset]:
        """Patch a maintained shape's materialisation in place.

        Removals are applied first (batched, one deletion pass in the
        engine's maintenance mode), then insertions (batched, one
        fixpoint continuation).  Returns ``(added, removed)`` — the facts
        that became newly derivable and the base facts actually removed,
        as raw ``(predicate, values)`` pairs.  Thread-safe per shape;
        executions observe either the old or the new materialisation.

        Raises:
            ReproError: on a non-maintained shape — frozen bases cannot
                be patched; re-prepare against the new dataset version.
        """
        if self.mode != "maintained" or self.engine is None:
            raise ReproError(
                "prepared shape is not maintained (mode="
                f"{self.mode!r}); re-prepare against the updated dataset"
            )
        with self._update_lock:
            removed = (
                self.engine.remove_many(remove) if remove else frozenset()
            )
            added = self.engine.add_many(add) if add else frozenset()
            # Recompute-mode deletions rebuild into a fresh database
            # object; re-alias so executions see the patched model.
            self.base = self.engine.database
        obs = get_metrics()
        if obs.enabled:
            obs.incr("prepare.updates")
        return added, removed

    def patch(
        self, database: Database, changed: "dict[str, list[tuple]]"
    ) -> tuple[int, int]:
        """Carry a transform shape across a base-fact update; returns the
        call-table ``(kept, invalidated)`` counts.

        *changed* maps each updated predicate to the raw rows the update
        really added or removed, *database* is the updated dataset.  The
        new base takes *database*'s copy of each changed relation; table
        entries whose footprint matches a changed row are invalidated.
        A kept entry is what a fresh run would return, answers and
        counters alike: that run issues the same probes and reads the
        same postings.  The caller guarantees that every changed
        predicate is a base predicate of the source program feeding no
        stratum materialised into the base.

        Raises:
            ReproError: when ``patchable is None``.
        """
        if self.patchable is None:
            raise ReproError(
                f"prepared shape cannot be patched (mode={self.mode!r}); "
                "re-prepare against the updated dataset"
            )
        relations = {relation.name: relation for relation in self.base.relations()}
        for predicate in changed:
            relations[predicate] = database.relation(predicate).copy()
        with self._update_lock:
            self.base = Database(relations)
            kept, invalidated = self.table.invalidate(changed)
        obs = get_metrics()
        if obs.enabled:
            obs.incr("prepare.base_patches")
            obs.incr("prepare.table_kept", kept)
            obs.incr("prepare.table_invalidated", invalidated)
        return kept, invalidated

    @staticmethod
    def _matching(
        database: Database, goal: Atom, pattern: "Atom | None" = None
    ) -> tuple[Atom, ...]:
        return _sorted_answers(
            goal, database.match(pattern if pattern is not None else goal)
        )


def prepare_query(
    program: Program,
    goal: "Atom | str",
    database: "Database | None" = None,
    strategy: str = "alexander",
    sips: "Sips | str | None" = None,
    planner: "str | None" = None,
    executor: str = DEFAULT_EXECUTOR,
    scheduler: str = DEFAULT_SCHEDULER,
    budget: "EvaluationBudget | Checkpoint | None" = None,
    maintain: "str | None" = None,
) -> PreparedQuery:
    """Prepare *goal*'s shape on *program* + *database* for reuse.

    Args:
        program: rules (embedded ground facts become part of the base).
        goal: template query atom or source text; its constants pick the
            shape's adornment but later executions may use any constants.
        database: extensional facts the shape is prepared against; the
            caller promises not to mutate it afterwards (the serving
            layer enforces this by versioning datasets).
        strategy: any transform or bottom-up strategy name; the top-down
            names raise :class:`UnpreparableStrategyError`.
        sips: optional SIPS name or function for the transform
            strategies.
        planner / executor / scheduler: the evaluation configuration
            the compiled plan is specialised to (all three are part of
            the cache key).
        budget: optional budget bounding *preparation itself* (the
            lower-strata or full materialisation); execution budgets are
            passed to :meth:`PreparedQuery.execute` per run.
        maintain: when set (``"counting"``, ``"dred"``, or
            ``"recompute"``), the shape is prepared **maintained**: the
            model lives in an incremental engine and
            :meth:`PreparedQuery.apply_update` patches it under
            base-fact churn.  Materialised strategies only (a transform
            shape's base is adornment-specialised, not maintainable),
            negation-free programs only, and part of the cache key.
    """
    if isinstance(goal, str):
        goal = parse_query(goal)
    if maintain is not None:
        resolve_maintenance(maintain)
        if strategy not in MATERIALISED_STRATEGIES:
            raise ReproError(
                f"maintained preparation requires a materialised strategy "
                f"({sorted(MATERIALISED_STRATEGIES)}), got {strategy!r}"
            )
    if strategy in UNPREPARABLE_STRATEGIES:
        raise UnpreparableStrategyError(
            f"strategy {strategy!r} has no reusable compiled form; "
            f"execute it directly via run_strategy()"
        )
    if strategy not in TRANSFORM_STRATEGIES | MATERIALISED_STRATEGIES:
        raise ReproError(
            f"unknown strategy {strategy!r}; prepare supports "
            f"{sorted(TRANSFORM_STRATEGIES | MATERIALISED_STRATEGIES)}"
        )
    if isinstance(sips, str):
        sips_fn = named_sips(sips)
    else:
        sips_fn = sips if sips is not None else left_to_right
    resolve_executor(executor)
    resolve_scheduler(scheduler)

    key = prepared_cache_key(
        program, goal, strategy, sips, planner, executor, scheduler, maintain,
    )
    if maintain is None:
        # A maintained engine keeps asserted derived facts itself.
        program, database = _bridge_stored_facts(program, database)
    obs = get_metrics()
    prepare_stats = EvaluationStats()
    with obs.timer("prepare"):
        working = database.copy() if database is not None else Database()
        working.add_atoms(program.facts)
        rules_only = program.without_facts()
        adornment = query_adornment(goal)

        if maintain is not None:
            # The model lives in an incremental engine; the preparation
            # *is* the engine's initial materialisation.  The engine
            # keeps the budget as its per-operation allowance, covering
            # the build now and every apply_update later.
            engine = IncrementalEngine(
                program,
                database,
                planner=planner,
                budget=budget,
                executor=executor,
                maintenance=maintain,
            )
            prepare_stats.merge(engine.stats)
            prepared = PreparedQuery(
                strategy=strategy,
                mode="maintained",
                query=goal,
                adornment=adornment,
                base=engine.database,
                key=key,
                engine=engine,
                prepare_stats=prepare_stats,
            )
        elif strategy in MATERIALISED_STRATEGIES:
            if rules_only.proper_rules:
                working, _ = stratified_fixpoint(
                    rules_only,
                    working,
                    prepare_stats,
                    engine=strategy,
                    planner=planner,
                    budget=budget,
                    executor=executor,
                    scheduler=scheduler,
                )
            prepared = PreparedQuery(
                strategy=strategy,
                mode="materialised",
                query=goal,
                adornment=adornment,
                base=working,
                key=key,
                prepare_stats=prepare_stats,
            )
        elif goal.predicate not in rules_only.idb_predicates:
            # Purely extensional goal: the base answers by lookup.
            prepared = PreparedQuery(
                strategy=strategy,
                mode="materialised",
                query=goal,
                adornment=adornment,
                base=working,
                key=key,
                prepare_stats=prepare_stats,
            )
        else:
            prepared = _prepare_transform(
                strategy, rules_only, goal, working, sips_fn, planner,
                executor, scheduler, budget, key, prepare_stats,
                edb_extra=program.predicates,
            )
    if obs.enabled:
        obs.incr("prepare.builds")
        obs.incr(f"prepare.mode.{prepared.mode}")
    return prepared


def _prepare_transform(
    strategy: str,
    rules_only: Program,
    goal: Atom,
    working: Database,
    sips_fn: Sips,
    planner,
    executor: str,
    scheduler: str,
    budget,
    key: tuple,
    prepare_stats: EvaluationStats,
    edb_extra: frozenset[str],
) -> PreparedQuery:
    """The structured transform pipeline, stopped just short of running.

    Mirrors :func:`repro.core.strategy._transform_strategy` exactly —
    materialise strata strictly below the goal predicate's, rewrite its
    stratum against the rest as EDB — but compiles the rewritten stratum
    instead of evaluating it.
    """
    stratification = stratify(rules_only)
    query_stratum = None
    for index, stratum in enumerate(stratification.strata):
        if goal.predicate in stratum.idb_predicates:
            query_stratum = index
            break
    if query_stratum is None:
        raise TransformError(
            f"query predicate {goal.predicate} not defined in any stratum"
        )
    lower = Program(
        tuple(
            rule
            for stratum in stratification.strata[:query_stratum]
            for rule in stratum.rules
        )
    )
    if lower.proper_rules:
        working, _ = stratified_fixpoint(
            lower,
            working,
            prepare_stats,
            planner=planner,
            budget=budget,
            executor=executor,
            scheduler=scheduler,
        )
    target = stratification.strata[query_stratum]
    edb = frozenset(
        (edb_extra | working.predicates()) - target.idb_predicates
    )
    transformed = _TRANSFORMS[strategy](target, goal, sips_fn, edb)
    obs = get_metrics()
    if obs.enabled:
        # Like prepare.compiles: flat across cache hits *and* across
        # registry loads of serialized shapes (snapshot rehydration
        # reuses the serialized rewriting instead of re-transforming).
        obs.incr("prepare.transforms")
    fixpoint = compile_fixpoint(
        transformed.program,
        working,
        planner=planner,
        executor=executor,
        scheduler=scheduler,
    )
    patchable = None
    if not planner:
        base_predicates = rules_only.edb_predicates
        patchable = frozenset(
            literal.predicate
            for rule in transformed.program.proper_rules
            for literal in rule.body
            if literal.predicate in base_predicates
            and literal.predicate not in BUILTIN_PREDICATES
        )
    return PreparedQuery(
        strategy=strategy,
        mode="transform",
        query=goal,
        adornment=query_adornment(goal),
        base=working,
        key=key,
        transformed=transformed,
        fixpoint=fixpoint,
        prepare_stats=prepare_stats,
        patchable=patchable,
    )
