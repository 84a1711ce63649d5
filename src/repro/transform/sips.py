"""Sideways information passing strategies (SIPS).

A SIPS decides the order in which a rule's body literals are evaluated,
and therefore which bindings each literal receives from its left — the
choice that shapes the adorned program and everything built on it.

Two strategies are provided:

* :func:`left_to_right` — keep the program's own literal order (negative
  literals are still delayed until their variables are bound).  This is
  the order OLDT's leftmost selection uses, so it is the SIPS under which
  Seki's Alexander/OLDT correspondence is exact.
* :func:`most_bound_first` — greedily pick the positive literal with the
  highest fraction of bound arguments next (ties broken by program
  order).  Used by the A1 ablation to show that the SIPS changes counts
  but not answers.

Both return a permutation of the body with every negative literal placed
after the positive literals that bind its variables.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..datalog.atoms import Literal
from ..datalog.builtins import is_builtin
from ..datalog.terms import Constant, Variable
from ..errors import SafetyError


def _is_test(literal: Literal) -> bool:
    """Tests (negatives and built-ins) check; they never bind."""
    return literal.negative or is_builtin(literal.predicate)

__all__ = ["Sips", "left_to_right", "most_bound_first", "named_sips"]

# A SIPS maps (body, variables bound by the head) to an evaluation order.
Sips = Callable[[Sequence[Literal], frozenset[Variable]], tuple[Literal, ...]]


def _place_negatives(
    positives: Sequence[Literal],
    negatives: Sequence[Literal],
    initially_bound: frozenset[Variable],
) -> tuple[Literal, ...]:
    """Interleave negative literals at the earliest point they are bound."""
    available = set(initially_bound)
    ordered: list[Literal] = []
    pending = list(negatives)

    def flush() -> None:
        nonlocal pending
        still = []
        for negative in pending:
            if negative.variable_set() <= available:
                ordered.append(negative)
            else:
                still.append(negative)
        pending = still

    flush()
    for literal in positives:
        ordered.append(literal)
        available.update(literal.variables())
        flush()
    if pending:
        names = sorted(
            var.name
            for negative in pending
            for var in negative.variable_set() - available
        )
        raise SafetyError(
            "negative literal(s) with variables never bound: "
            + ", ".join(names)
        )
    return tuple(ordered)


def left_to_right(
    body: Sequence[Literal], bound: frozenset[Variable]
) -> tuple[Literal, ...]:
    """Program order for binding literals; tests delayed until bound."""
    for literal in body:
        if _is_test(literal):
            break
    else:
        return tuple(body)  # nothing to delay
    positives = [lit for lit in body if not _is_test(lit)]
    negatives = [lit for lit in body if _is_test(lit)]
    return _place_negatives(positives, negatives, bound)


def most_bound_first(
    body: Sequence[Literal], bound: frozenset[Variable]
) -> tuple[Literal, ...]:
    """Greedy: next positive literal = highest bound-argument fraction.

    A literal with no arguments scores 1.0 (fully bound).  Ties are broken
    by the original body position, keeping the strategy deterministic.
    """
    positives = list(lit for lit in body if not _is_test(lit))
    negatives = [lit for lit in body if _is_test(lit)]
    available: set[Variable] = set(bound)
    chosen: list[Literal] = []
    remaining = list(enumerate(positives))
    while remaining:
        def score(item: tuple[int, Literal]) -> tuple[float, int]:
            _, literal = item
            if not literal.args:
                fraction = 1.0
            else:
                bound_count = sum(
                    1
                    for arg in literal.args
                    if isinstance(arg, Constant) or arg in available
                )
                fraction = bound_count / len(literal.args)
            # Negate fraction so max-bound sorts first; keep index for ties.
            return (-fraction, item[0])

        remaining.sort(key=score)
        index, literal = remaining.pop(0)
        chosen.append(literal)
        available.update(literal.variables())
    return _place_negatives(chosen, negatives, bound)


def named_sips(name: str) -> Sips:
    """Look up a SIPS by name ("left_to_right" or "most_bound_first")."""
    strategies: dict[str, Sips] = {
        "left_to_right": left_to_right,
        "most_bound_first": most_bound_first,
    }
    try:
        return strategies[name]
    except KeyError:
        raise ValueError(
            f"unknown SIPS {name!r}; choose from {sorted(strategies)}"
        ) from None
