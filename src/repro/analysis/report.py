"""Whole-program analysis reports.

:func:`ProgramReport.build` runs every static analysis in one pass —
safety, stratifiability, loose stratification, recursion classification,
strata assignment — and packages the outcome as structured data plus an
ASCII rendering.  The CLI's ``lint`` command and the notebooks/examples
use it; it is also the one-stop answer to "what does the library think of
my program?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..datalog.rules import Program
from ..errors import StratificationError
from .loose import is_loosely_stratified
from .safety import SafetyViolation, check_program_safety
from .stratify import stratify

__all__ = ["PredicateInfo", "ProgramReport"]


@dataclass(frozen=True)
class PredicateInfo:
    """Per-predicate analysis summary."""

    name: str
    arity: int
    kind: str  # "edb" or "idb"
    recursion: str  # RecursionKind label; "-" for EDB predicates
    stratum: int
    rule_count: int


@dataclass(frozen=True)
class ProgramReport:
    """The combined static-analysis result for one program."""

    predicates: tuple[PredicateInfo, ...]
    safety_violations: tuple[SafetyViolation, ...]
    stratifiable: bool
    loosely_stratified: bool
    stratum_count: int

    @property
    def safe(self) -> bool:
        return not self.safety_violations

    @property
    def ok(self) -> bool:
        """Evaluable by the stratified engines as-is."""
        return self.safe and self.stratifiable

    @property
    def recursive_predicates(self) -> tuple[str, ...]:
        return tuple(
            info.name
            for info in self.predicates
            if info.recursion not in ("-", "non-recursive")
        )

    @classmethod
    def build(cls, program: Program) -> "ProgramReport":
        graph = program.dependency_graph
        violations = tuple(check_program_safety(program))
        try:
            stratification = stratify(program)
            stratifiable = True
            stratum_of: Mapping[str, int] = stratification.stratum_of
            stratum_count = stratification.depth
        except StratificationError:
            stratifiable = False
            stratum_of = {}
            stratum_count = 0
        try:
            loose = is_loosely_stratified(program)
        except RuntimeError:  # state-budget backstop
            loose = False
        arities = program.arities
        infos = []
        for name in sorted(program.predicates):
            is_idb = name in program.idb_predicates
            infos.append(
                PredicateInfo(
                    name=name,
                    arity=arities[name],
                    kind="idb" if is_idb else "edb",
                    recursion=graph.recursion_kind(name) if is_idb else "-",
                    stratum=stratum_of.get(name, 0),
                    rule_count=len(program.rules_for(name)),
                )
            )
        return cls(
            predicates=tuple(infos),
            safety_violations=violations,
            stratifiable=stratifiable,
            loosely_stratified=loose,
            stratum_count=stratum_count,
        )

    def render(self) -> str:
        """An ASCII rendering suitable for terminal output."""
        lines = ["program analysis"]
        lines.append(
            f"  safe: {'yes' if self.safe else 'no'}   "
            f"stratifiable: {'yes' if self.stratifiable else 'no'}   "
            f"loosely stratified: {'yes' if self.loosely_stratified else 'no'}   "
            f"strata: {self.stratum_count}"
        )
        name_width = max((len(info.name) for info in self.predicates), default=4)
        lines.append(
            f"  {'predicate'.ljust(name_width)}  arity  kind  stratum  rules  recursion"
        )
        for info in self.predicates:
            lines.append(
                f"  {info.name.ljust(name_width)}  {info.arity:>5}  "
                f"{info.kind:<4}  {info.stratum:>7}  {info.rule_count:>5}  "
                f"{info.recursion}"
            )
        for violation in self.safety_violations:
            lines.append(f"  unsafe: {violation}")
        return "\n".join(lines)
