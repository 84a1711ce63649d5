"""Terms of the (function-free) Datalog language.

A *term* is either a :class:`Variable` or a :class:`Constant`.  The
reproduced paper works in pure Datalog, so compound terms are deliberately
not modelled; everything downstream (unification, the OLDT engine, the
Alexander transformation) relies on the function-free assumption for its
termination guarantees.

Constants wrap an arbitrary hashable Python value (``str`` and ``int`` in
practice), so workload generators can use integers for graph nodes without
string conversion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Variable",
    "Constant",
    "Term",
    "fresh_variable",
    "reset_fresh_counter",
    "is_ground_term",
]


@dataclass(frozen=True, slots=True)
class Variable:
    """A logic variable, identified by its name.

    Two ``Variable`` objects with the same name are the same variable.
    By Prolog convention, parsed variable names start with an uppercase
    letter or an underscore; programmatically created variables may use
    any name (renaming-apart uses a ``_g<N>`` scheme).
    """

    name: str

    def __hash__(self) -> int:
        # The name's own hash (equal names, equal variables): the
        # generated hash builds a one-tuple per call, and the analyses
        # and rewritings hash variables in every set they build.
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant term wrapping a hashable Python value."""

    value: object

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return _format_constant_value(self.value)


Term = Union[Variable, Constant]

# Module-level counter backing fresh_variable(); reset_fresh_counter() exists
# so property-based tests can make renaming deterministic.
_fresh_counter = itertools.count()


def fresh_variable(prefix: str = "_g") -> Variable:
    """Return a variable guaranteed not to collide with parsed variables.

    Parsed variable names never contain ``#``, so embedding it makes the
    generated names collision-free by construction.
    """
    return Variable(f"{prefix}#{next(_fresh_counter)}")


def reset_fresh_counter() -> None:
    """Reset the fresh-variable counter (test determinism only)."""
    global _fresh_counter
    _fresh_counter = itertools.count()


def is_ground_term(term: Term) -> bool:
    """True iff *term* is a constant."""
    return isinstance(term, Constant)


def _format_constant_value(value: object) -> str:
    """Render a constant value in re-parseable Datalog syntax.

    Lowercase identifiers and integers print bare; anything else is quoted.
    """
    if isinstance(value, bool):
        return f'"{value}"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str) and _is_plain_identifier(value):
        return value
    escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _is_plain_identifier(text: str) -> bool:
    if not text or not (text[0].islower() and text[0].isalpha()):
        return False
    return all(ch.isalnum() or ch == "_" for ch in text)
