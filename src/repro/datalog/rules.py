"""Rules and programs.

A :class:`Rule` is a head atom plus a body of literals; a body-less rule is
a fact when ground.  A :class:`Program` is an ordered collection of rules
with convenience accessors used throughout the analysis and transformation
layers.  Ground facts may live either inside the program (as body-less
rules) or in a separate :class:`repro.facts.database.Database`; the engines
accept both.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..errors import ProgramError
from .atoms import Atom, Literal
from .terms import Constant, Term, Variable

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.dependency import DependencyGraph

__all__ = ["Rule", "Program"]


@dataclass(frozen=True)
class Rule:
    """A Datalog rule ``head :- body``.

    ``body`` may be empty, in which case the rule asserts its head (a fact
    when the head is ground).
    """

    head: Atom
    body: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))

    @property
    def is_fact(self) -> bool:
        return not self.body and self.head.is_ground()

    def positive_body(self) -> tuple[Literal, ...]:
        return tuple(lit for lit in self.body if lit.positive)

    def negative_body(self) -> tuple[Literal, ...]:
        return tuple(lit for lit in self.body if lit.negative)

    def variables(self) -> frozenset[Variable]:
        found = set(self.head.variables())
        for literal in self.body:
            found.update(literal.variables())
        return frozenset(found)

    def substitute(self, binding: Mapping[Variable, Term]) -> "Rule":
        return Rule(
            self.head.substitute(binding),
            tuple(lit.substitute(binding) for lit in self.body),
        )

    def rename_apart(self, taken: frozenset[Variable] | None = None) -> "Rule":
        """Return a variant of this rule with fresh variables.

        Args:
            taken: optional variable set to avoid; when omitted, globally
                fresh names are used (sufficient for resolution).
        """
        from .terms import fresh_variable

        mapping: dict[Variable, Term] = {}
        for var in sorted(self.variables(), key=lambda v: v.name):
            mapping[var] = fresh_variable(var.name.split("#", 1)[0] or "_g")
        return self.substitute(mapping)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        rendered = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {rendered}."


class Program:
    """An immutable, ordered collection of rules.

    The class exposes the derived views every consumer needs: the set of
    intensional (IDB) predicates, the extensional (EDB) predicates, rules
    grouped by head predicate, and the ground facts embedded in the rule
    list.
    """

    __slots__ = ("_rules", "__dict__")

    def __init__(self, rules: Iterable[Rule]):
        self._rules = tuple(rules)
        for rule in self._rules:
            if not isinstance(rule, Rule):
                raise ProgramError(f"not a rule: {rule!r}")
            if not rule.body and not rule.head.is_ground():
                raise ProgramError(
                    f"body-less rule with non-ground head is unsafe: {rule}"
                )

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self._rules == other._rules

    def __hash__(self) -> int:
        return hash(self._rules)

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 hex digest of the canonical rule text, in rule order.

        Hashed once per program object: the serving layer keys its
        prepared-query cache on it for every request.
        """
        text = "\n".join(str(rule) for rule in self._rules)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @cached_property
    def dependency_graph(self) -> "DependencyGraph":
        """The program's :class:`~repro.analysis.dependency.DependencyGraph`,
        built once per program object: stratification reports and the
        component schedule both read it."""
        from ..analysis.dependency import DependencyGraph

        return DependencyGraph(self)

    @cached_property
    def proper_rules(self) -> tuple[Rule, ...]:
        """Rules with a non-empty body."""
        return tuple(rule for rule in self._rules if rule.body)

    @cached_property
    def facts(self) -> tuple[Atom, ...]:
        """Ground atoms asserted by body-less rules, in program order."""
        return tuple(rule.head for rule in self._rules if not rule.body)

    @cached_property
    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by at least one proper rule."""
        return frozenset(rule.head.predicate for rule in self.proper_rules)

    @cached_property
    def predicates(self) -> frozenset[str]:
        """All predicates mentioned anywhere in the program."""
        names = set()
        for rule in self._rules:
            names.add(rule.head.predicate)
            for literal in rule.body:
                names.add(literal.predicate)
        return frozenset(names)

    @cached_property
    def edb_predicates(self) -> frozenset[str]:
        """Predicates that occur only in bodies or as embedded facts."""
        return self.predicates - self.idb_predicates

    @cached_property
    def rules_by_head(self) -> Mapping[str, tuple[Rule, ...]]:
        grouped: dict[str, list[Rule]] = {}
        for rule in self.proper_rules:
            grouped.setdefault(rule.head.predicate, []).append(rule)
        return {pred: tuple(rules) for pred, rules in grouped.items()}

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        """Proper rules whose head predicate is *predicate*."""
        return self.rules_by_head.get(predicate, ())

    @cached_property
    def arities(self) -> Mapping[str, int]:
        """Arity of every predicate; raises on inconsistent use."""
        seen: dict[str, int] = {}
        for rule in self._rules:
            for atom in (rule.head, *(lit.atom for lit in rule.body)):
                prior = seen.setdefault(atom.predicate, atom.arity)
                if prior != atom.arity:
                    raise ProgramError(
                        f"predicate {atom.predicate} used with arities "
                        f"{prior} and {atom.arity}"
                    )
        return seen

    def constants(self) -> frozenset[object]:
        """The active domain: every constant value occurring in the program."""
        values = set()
        for rule in self._rules:
            for atom in (rule.head, *(lit.atom for lit in rule.body)):
                for arg in atom.args:
                    if isinstance(arg, Constant):
                        values.add(arg.value)
        return frozenset(values)

    def with_rules(self, extra: Iterable[Rule]) -> "Program":
        """A new program extending this one with *extra* rules."""
        return Program(self._rules + tuple(extra))

    def without_facts(self) -> "Program":
        """A new program containing only the proper rules."""
        return Program(self.proper_rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self._rules)

    def __repr__(self) -> str:
        return f"Program({len(self._rules)} rules)"
