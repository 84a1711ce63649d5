"""The reference evaluator: the definitions, with nothing optimised.

Every bottom-up engine in the library schedules components, lowers rules
to generated kernels and runs a delta discipline.  The tests need one
evaluation that does none of that to check them against.
:func:`reference_model` is it: per stratum, it applies T_P naively and
globally — every rule against the whole database, until a round derives
nothing — with the interpreted matcher
(:func:`~repro.engine.matching.match_body`) and no kernels.

It also returns the counts a semi-naive run must report.  Semi-naive
evaluation enumerates every rule instantiation that holds in the final
model exactly once, so its ``inferences`` is the number of rule-body
matches over the final model, and its ``facts_derived`` the number of
rows the model adds to the base facts.  Both are counted here directly.

Internal: only the test suite calls it (``tests/test_reference.py``).
"""

from __future__ import annotations

from typing import NamedTuple

from ..datalog.rules import Program
from ..facts.database import Database
from .counters import EvaluationStats
from .matching import compile_rule, match_body
from .scheduler import full_view

__all__ = ["Reference", "reference_model"]


class Reference(NamedTuple):
    """The model of a program and the counts semi-naive must report."""

    model: Database
    inferences: int
    facts_derived: int


def reference_model(program: Program, database: Database | None = None) -> Reference:
    """The stratified model of *program* over *database* (copied, never
    mutated), by naive global T_P iteration per stratum."""
    from ..analysis.stratify import stratify

    model = database.copy() if database is not None else Database()
    model.add_atoms(program.facts)
    base_rows = model.total_facts()
    view = full_view(model)
    scratch = EvaluationStats()
    rules = []
    for stratum in stratify(program).strata:
        compiled = [compile_rule(rule) for rule in stratum.proper_rules]
        for rule in stratum.proper_rules:
            model.relation(rule.head.predicate, rule.head.arity)
        changed = True
        while changed:
            produced = [
                (rule.head_predicate, rule.head_tuple(binding))
                for rule in compiled
                for binding in match_body(rule, view, scratch)
            ]
            changed = False
            for predicate, row in produced:
                changed |= model.add(predicate, row)
        rules.extend(compiled)
    inferences = sum(
        1 for rule in rules for _ in match_body(rule, view, scratch)
    )
    return Reference(model, inferences, model.total_facts() - base_rows)
