"""Stratification of programs with negation.

A program is *stratifiable* when its dependency graph has no cycle through
a negative edge.  :func:`stratify` assigns each predicate a stratum number
such that a predicate's positive dependencies are in the same or a lower
stratum and its negative dependencies are in a strictly lower stratum,
then splits the program into per-stratum sub-programs evaluated in order
by :mod:`repro.engine.stratified`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..datalog.rules import Program, Rule
from ..errors import StratificationError

__all__ = ["Stratification", "stratify", "is_stratifiable"]


@dataclass(frozen=True)
class Stratification:
    """The result of stratifying a program.

    Attributes:
        strata: per-stratum programs, lowest first; their union is the set
            of proper rules of the original program (facts stay with the
            caller's database).
        stratum_of: stratum index of every predicate (EDB predicates are
            stratum 0).
    """

    strata: tuple[Program, ...]
    stratum_of: Mapping[str, int]

    @property
    def depth(self) -> int:
        return len(self.strata)

    def stratum_for_predicate(self, predicate: str) -> int:
        return self.stratum_of.get(predicate, 0)


def stratify(program: Program) -> Stratification:
    """Stratify *program*.

    The stratum numbers come from the condensation of the program's
    dependency graph (:meth:`DependencyGraph.stratum_numbers`), the one
    the component schedule reads too.

    Raises:
        StratificationError: when the program has a cycle through negation.
    """
    numbers = program.dependency_graph.stratum_numbers()
    # Compact stratum numbers of predicates that actually head rules.
    used = sorted({numbers[rule.head.predicate] for rule in program.proper_rules})
    remap = {old: new for new, old in enumerate(used)}
    buckets: list[list[Rule]] = [[] for _ in used]
    for rule in program.proper_rules:
        buckets[remap[numbers[rule.head.predicate]]].append(rule)
    strata = tuple(Program(bucket) for bucket in buckets)
    return Stratification(strata=strata, stratum_of=dict(numbers))


def is_stratifiable(program: Program) -> bool:
    """True iff the program has no cycle through negation."""
    try:
        stratify(program)
    except StratificationError:
        return False
    return True
