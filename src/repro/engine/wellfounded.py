"""Well-founded semantics via the alternating fixpoint (Van Gelder 1989).

The stratified engines reject programs with negative cycles (the win/lose
game).  The well-founded semantics assigns such programs a three-valued
model — true / false / undefined — computed here by Van Gelder's
alternating fixpoint, the construction presented in the same PODS 1989
session as the reproduced paper:

* ``Γ(S)`` = the least fixpoint of the program where a negative literal
  ``not q(t)`` succeeds iff ``q(t) ∉ S`` (negation consults the fixed
  oracle *S*, not the set being derived).
* Starting from the empty underestimate, ``U ← Γ(Γ(U))`` is monotone
  increasing and ``O = Γ(U)`` monotone decreasing; at the joint fixpoint,
  ``U`` holds the well-founded *true* facts and ``O \\ U`` the
  *undefined* ones.

For stratified programs the undefined set is empty and the result
coincides with :func:`repro.engine.stratified.stratified_fixpoint`
(tested), so this module strictly extends the engine family.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.atoms import Atom
from ..datalog.rules import Program
from ..datalog.terms import Constant
from ..facts.database import Database
from ..facts.relation import Relation
from ..obs import get_metrics
from .budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from .counters import EvaluationStats
from .kernel import DEFAULT_EXECUTOR, compile_executors, head_rows
from .matching import compile_rule
from .planner import JoinPlanner, resolve_planner
from .scheduler import (
    DEFAULT_SCHEDULER,
    Schedule,
    build_schedule,
    component_planner,
    resolve_scheduler,
)

__all__ = ["WellFoundedModel", "alternating_fixpoint"]

Fact = tuple[str, tuple]


@dataclass(frozen=True)
class WellFoundedModel:
    """The three-valued well-founded model of a program.

    Attributes:
        true: the completed database of well-founded-true facts
            (including the EDB).
        undefined: facts with no truth value — ``(predicate, row)`` pairs.
        stats: evaluation counters accumulated over all Γ iterations.
    """

    true: Database
    undefined: frozenset[Fact]
    stats: EvaluationStats

    def value_of(self, atom: Atom) -> str:
        """'true', 'false', or 'undefined' for a ground atom."""
        if self.true.has_fact(atom):
            return "true"
        if (atom.predicate, atom.ground_key()) in self.undefined:
            return "undefined"
        return "false"

    def is_total(self) -> bool:
        """True iff nothing is undefined (a two-valued model)."""
        return not self.undefined

    def undefined_atoms(self) -> list[Atom]:
        return [
            Atom(predicate, tuple(Constant(value) for value in row))
            for predicate, row in sorted(self.undefined, key=repr)
        ]


def _gamma(
    program: Program,
    base: Database,
    oracle: Database,
    stats: EvaluationStats,
    planner: "JoinPlanner | str | None" = None,
    checkpoint: Checkpoint | None = None,
    executor: str = DEFAULT_EXECUTOR,
    schedule: Schedule | None = None,
) -> Database:
    """Γ(oracle): least fixpoint with negation decided against *oracle*.

    Negative literals are stable within the whole computation (the
    oracle is fixed), so no stratification is needed.  When *schedule*
    is given (scc scheduling), components are closed in dependency
    order — one pass per non-recursive component, a local inflationary
    loop per recursive one; the least fixpoint is order-independent, so
    Γ's *output* is identical, but ``inferences`` totals differ from
    the global loop (naive-style rounds re-enumerate, and how often
    depends on the round structure).
    """
    working = base.copy()
    arities = program.arities
    derived = program.idb_predicates
    for predicate in derived:
        working.relation(predicate, arities[predicate])

    def make_view(compiled):
        body = compiled.body

        def view(position: int, predicate: str) -> Relation | None:
            if not body[position].positive:
                try:
                    return oracle.relation(predicate)
                except KeyError:
                    return None
            try:
                return working.relation(predicate)
            except KeyError:
                return None

        return view

    # (In both modes the checkpoint is polled but NOT bound to this
    # working copy: an intermediate Γ overestimate may hold facts that
    # are not well-founded-true, so the caller binds its underestimate
    # instead — the partial result it can stand behind.)
    if schedule is not None:
        for component in schedule.components:
            active_planner = component_planner(planner, working, component)
            compiled_rules = [
                compile_rule(rule, active_planner) for rule in component.rules
            ]
            executors = compile_executors(compiled_rules, executor)
            changed = True
            while changed:
                if checkpoint is not None:
                    checkpoint.check_round()
                stats.iterations += 1
                changed = False
                for compiled, kernel in executors:
                    view = make_view(compiled)
                    for row in head_rows(
                        compiled, kernel, view, stats, checkpoint
                    ):
                        stats.inferences += 1
                        if working.add(compiled.head_predicate, row):
                            stats.facts_derived += 1
                            changed = True
                if not component.recursive:
                    break  # one pass closes a non-recursive component
        return working

    active_planner = resolve_planner(planner, working, program)
    compiled_rules = [
        compile_rule(rule, active_planner) for rule in program.proper_rules
    ]
    executors = compile_executors(compiled_rules, executor)
    # Plain inflationary rounds (naive); adequate because Γ is called a
    # bounded number of times and each round is cheap at these scales.
    changed = True
    while changed:
        if checkpoint is not None:
            checkpoint.check_round()
        stats.iterations += 1
        changed = False
        for compiled, kernel in executors:
            view = make_view(compiled)
            for row in head_rows(compiled, kernel, view, stats, checkpoint):
                stats.inferences += 1
                if working.add(compiled.head_predicate, row):
                    stats.facts_derived += 1
                    changed = True
    return working


def alternating_fixpoint(
    program: Program,
    database: Database | None = None,
    planner: "str | None" = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
    executor: str = DEFAULT_EXECUTOR,
    scheduler: str = DEFAULT_SCHEDULER,
) -> WellFoundedModel:
    """Compute the well-founded model of *program* over *database*.

    Args:
        program: the (possibly non-stratifiable) program.
        database: extensional facts; copied, never mutated.
        planner: optional join-planner spec (e.g. ``"greedy"``) forwarded
            to every Γ computation; each Γ plans against its own working
            database.
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            (or a running checkpoint) spanning the whole alternation.  On
            a trip the partial database attached to the error is the
            latest *underestimate* — every fact in it is well-founded
            true (the underestimates increase monotonically toward the
            true set), so the partial result is sound.
        executor: forwarded to every Γ computation (``"kernel"`` default,
            ``"interpreted"`` for the oracle matcher).
        scheduler: ``"scc"`` (default) closes each Γ component-by-
            component in dependency order (the schedule is condensed
            once and reused by every Γ call); ``"global"`` iterates all
            rules together.  The model — true facts and undefined set —
            and ``facts_derived`` are identical either way, but Γ's
            rounds are naive-style (re-enumerating), so ``inferences``/
            ``attempts``/``iterations`` legitimately differ between
            schedulers.
    """
    stats = EvaluationStats()
    obs = get_metrics()
    base = database.copy() if database is not None else Database()
    base.add_atoms(program.facts)
    rules_only = program.without_facts()
    schedule = (
        build_schedule(rules_only)
        if resolve_scheduler(scheduler) != "global"
        else None
    )

    underestimate = base.copy()
    checkpoint = ensure_checkpoint(budget, stats)
    alternations = 0
    with obs.timer("wellfounded"):
        while True:
            alternations += 1
            if checkpoint is not None:
                checkpoint.bind(underestimate)
            with obs.timer("gamma"):
                overestimate = _gamma(
                    rules_only,
                    base,
                    underestimate,
                    stats,
                    planner=planner,
                    checkpoint=checkpoint,
                    executor=executor,
                    schedule=schedule,
                )
            with obs.timer("gamma"):
                next_underestimate = _gamma(
                    rules_only,
                    base,
                    overestimate,
                    stats,
                    planner=planner,
                    checkpoint=checkpoint,
                    executor=executor,
                    schedule=schedule,
                )
            if next_underestimate == underestimate:
                break
            underestimate = next_underestimate
    if obs.enabled:
        obs.observe("wellfounded.alternations", alternations)

    undefined: set[Fact] = set()
    for relation in overestimate.relations():
        true_rows = underestimate.rows(relation.name)
        for row in relation:
            if row not in true_rows:
                undefined.add((relation.name, row))
    return WellFoundedModel(
        true=underestimate, undefined=frozenset(undefined), stats=stats
    )
