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
from .kernel import compile_kernel
from .matching import compile_rule
from .scheduler import Schedule, build_schedule

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
    schedule: Schedule,
    base: Database,
    oracle: Database,
    stats: EvaluationStats,
    checkpoint: Checkpoint | None = None,
) -> Database:
    """Γ(oracle): least fixpoint with negation decided against *oracle*.

    Negative literals are stable within the whole computation (the
    oracle is fixed), so no stratification is needed.  Components of
    *schedule* are closed in dependency order — one pass per
    non-recursive component, a local inflationary (naive-style) loop per
    recursive one; adequate because Γ is called a bounded number of
    times and each round is cheap at these scales.
    """
    working = base.copy()
    arities = program.arities
    for predicate in program.idb_predicates:
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

    # The checkpoint is polled but NOT bound to this working copy: an
    # intermediate Γ overestimate may hold facts that are not
    # well-founded-true, so the caller binds its underestimate instead —
    # the partial result it can stand behind.
    for component in schedule.components:
        kernels = [compile_kernel(compile_rule(rule)) for rule in component.rules]
        changed = True
        while changed:
            if checkpoint is not None:
                checkpoint.check_round()
            stats.iterations += 1
            changed = False
            for kernel in kernels:
                view = make_view(kernel.compiled)
                for row in kernel.run(view, stats, checkpoint):
                    stats.inferences += 1
                    if working.add(kernel.head_predicate, row):
                        stats.facts_derived += 1
                        changed = True
            if not component.recursive:
                break  # one pass closes a non-recursive component
    return working


def alternating_fixpoint(
    program: Program,
    database: Database | None = None,
    budget: "EvaluationBudget | Checkpoint | None" = None,
) -> WellFoundedModel:
    """Compute the well-founded model of *program* over *database*.

    Args:
        program: the (possibly non-stratifiable) program.
        database: extensional facts; copied, never mutated.
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            (or a running checkpoint) spanning the whole alternation.  On
            a trip the partial database attached to the error is the
            latest *underestimate* — every fact in it is well-founded
            true (the underestimates increase monotonically toward the
            true set), so the partial result is sound.

    Each Γ closes the program component by component in dependency
    order; the schedule is condensed once and reused by every Γ call.
    """
    stats = EvaluationStats()
    obs = get_metrics()
    base = database.copy() if database is not None else Database()
    base.add_atoms(program.facts)
    rules_only = program.without_facts()
    schedule = build_schedule(rules_only)

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
                    rules_only, schedule, base, underestimate, stats,
                    checkpoint=checkpoint,
                )
            with obs.timer("gamma"):
                next_underestimate = _gamma(
                    rules_only, schedule, base, overestimate, stats,
                    checkpoint=checkpoint,
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
