"""Safety (range restriction) analysis.

A rule is *safe* when every variable of its head, and every variable of
each negative literal, occurs in at least one positive body literal.  Safe
programs have finite answers over finite databases and can be evaluated
without domain predicates — the classical requirement of Ullman's
"safety" / Nicolas's "range restriction".

The checker reports *all* violations rather than stopping at the first,
which makes it usable as a lint pass in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.builtins import BUILTIN_PREDICATES
from ..datalog.rules import Program, Rule
from ..datalog.terms import Variable
from ..errors import SafetyError

__all__ = ["SafetyViolation", "check_rule_safety", "check_program_safety", "require_safe"]


@dataclass(frozen=True)
class SafetyViolation:
    """One unsafe variable occurrence."""

    rule: Rule
    variable: Variable
    place: str  # "head" or "negative literal <lit>"

    def __str__(self) -> str:
        return (
            f"unsafe variable {self.variable.name} in {self.place} "
            f"of rule: {self.rule}"
        )


def check_rule_safety(rule: Rule) -> list[SafetyViolation]:
    """All safety violations of one rule (empty list = safe).

    Built-in comparison literals never bind: like negative literals,
    their variables must occur in some positive ordinary literal.
    """
    # The terms the positive ordinary literals hold (constants too: only
    # variables are looked up), and the literals that only test.
    held: set = set()
    tests: list = []
    for literal in rule.body:
        if literal.positive and literal.atom.predicate not in BUILTIN_PREDICATES:
            held.update(literal.atom.args)
        else:
            tests.append(literal)
    if held.issuperset(rule.head.args) and all(
        held.issuperset(literal.atom.args) for literal in tests
    ):
        return []  # every term is held: the common case, in one pass
    violations: list[SafetyViolation] = []
    for var in rule.head.variables():
        if var not in held:
            violations.append(SafetyViolation(rule, var, "head"))
    for literal in tests:
        place = (
            f"negative literal {literal}"
            if literal.negative
            else f"builtin literal {literal}"
        )
        for var in literal.variables():
            if var not in held:
                violations.append(SafetyViolation(rule, var, place))
    # Deduplicate (a variable may repeat within a literal) preserving order.
    unique: list[SafetyViolation] = []
    seen: set[tuple[Variable, str]] = set()
    for violation in violations:
        key = (violation.variable, violation.place)
        if key not in seen:
            seen.add(key)
            unique.append(violation)
    return unique


def check_program_safety(program: Program) -> list[SafetyViolation]:
    """All safety violations in the program."""
    violations: list[SafetyViolation] = []
    for rule in program.proper_rules:
        violations.extend(check_rule_safety(rule))
    return violations


def require_safe(program: Program) -> None:
    """Raise :class:`~repro.errors.SafetyError` unless *program* is safe."""
    violations = check_program_safety(program)
    if violations:
        summary = "; ".join(str(violation) for violation in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise SafetyError(f"program is unsafe: {summary}{more}")
