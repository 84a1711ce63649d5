"""Shared machinery of the transformation family.

Adorned-predicate naming, bound-argument extraction, the
"variables a continuation must carry" computation shared by the
supplementary-magic and Alexander transformations, and the
:class:`TransformedProgram` result record consumed by the strategy layer
and the correspondence checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Container, Iterable, Mapping, Sequence

from ..datalog.atoms import Atom, Literal
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Term, Variable
from ..errors import TransformError
from ..obs import get_metrics

__all__ = [
    "Adornment",
    "adornment_for",
    "bound_args",
    "free_args",
    "head_bound_variables",
    "adorned_name",
    "prefixed_name",
    "continuation_variables",
    "observe_transform",
    "TransformedProgram",
]


def observe_transform(kind: str, rewritten_rules: int) -> None:
    """Record one query rewriting in the active metrics registry.

    Every transformation entry point calls this exactly once per
    rewriting, so ``transform.rewritings`` counts how often the
    parse/adorn/transform pipeline actually ran — the quantity the
    prepared-query cache exists to drive to zero on its hit path (the
    serve smoke test asserts it stays flat across a cache hit).
    """
    obs = get_metrics()
    if obs.enabled:
        obs.incr("transform.rewritings")
        obs.incr(f"transform.{kind}")
        obs.observe("transform.rewritten_rules", rewritten_rules)

# An adornment is a string over {'b', 'f'}, one character per argument.
Adornment = str


def adornment_for(atom: Atom, bound_vars: frozenset[Variable] | set[Variable]) -> Adornment:
    """The adornment of *atom* given the variables bound so far.

    An argument is bound when it is a constant or a bound variable.
    """
    return "".join(
        "b" if isinstance(arg, Constant) or arg in bound_vars else "f"
        for arg in atom.args
    )


def bound_args(atom: Atom, adornment: Adornment) -> tuple[Term, ...]:
    """The argument terms at the bound positions of *adornment*."""
    if len(adornment) != len(atom.args):
        raise TransformError(
            f"adornment {adornment} does not fit {atom.predicate}/{atom.arity}"
        )
    return tuple([arg for arg, flag in zip(atom.args, adornment) if flag == "b"])


def free_args(atom: Atom, adornment: Adornment) -> tuple[Term, ...]:
    """The argument terms at the free positions of *adornment*."""
    return tuple(
        arg for arg, flag in zip(atom.args, adornment) if flag == "f"
    )


def head_bound_variables(head: Atom, adornment: Adornment) -> frozenset[Variable]:
    """The variables at the bound positions of *adornment* in *head*."""
    return frozenset(
        [
            arg
            for arg, flag in zip(head.args, adornment)
            if flag == "b" and isinstance(arg, Variable)
        ]
    )


def adorned_name(predicate: str, adornment: Adornment, taken: Container[str]) -> str:
    """A collision-free name for ``predicate`` adorned with ``adornment``.

    Zero-arity predicates get the adornment suffix ``0`` so the name stays
    distinct from the plain predicate.  *taken* is probed, not copied.
    """
    suffix = adornment if adornment else "0"
    candidate = f"{predicate}__{suffix}"
    while candidate in taken:
        candidate += "_"
    return candidate


def prefixed_name(prefix: str, base: str, taken: Container[str]) -> str:
    """A collision-free ``prefix__base`` name (e.g. ``magic__anc__bf``);
    *taken* is probed, not copied."""
    candidate = f"{prefix}__{base}"
    while candidate in taken:
        candidate += "_"
    return candidate


def continuation_variables(
    head: Atom,
    body: Sequence[Literal],
    head_bound: Iterable[Variable],
) -> list[tuple[Variable, ...]]:
    """The variables each supplementary/continuation predicate carries.

    Entry ``i`` (one per body position but the last) lists the variables
    bound after ``body[:i + 1]`` -- in *head_bound* or in a positive
    literal there -- that are still *needed*: they occur in the head or
    in ``body[i + 1:]``.  Sorted by name for a deterministic argument
    layout.  One backward pass finds each variable's last use and one
    forward pass its first binding, so no position rescans the body.
    """
    end = len(body)
    last_use: dict[Variable, int] = dict.fromkeys(head.variables(), end)
    for position in range(end - 1, -1, -1):
        for var in body[position].variables():
            last_use.setdefault(var, position)
    first_bound: dict[Variable, int] = dict.fromkeys(head_bound, -1)
    for position, literal in enumerate(body):
        if literal.positive:
            for var in literal.variables():
                first_bound.setdefault(var, position)
    spans = [
        (var, first_bound[var], last_use[var])
        for var in sorted(first_bound, key=attrgetter("name"))
    ]
    return [
        tuple([var for var, bound, used in spans if bound <= position < used])
        for position in range(end - 1)
    ]


@dataclass(frozen=True)
class TransformedProgram:
    """The output of a query transformation.

    Attributes:
        program: the rewritten rules (no facts; EDB stays in the caller's
            database).
        goal: the atom to evaluate against the rewritten program to obtain
            the query's answers (e.g. ``anc__bf(a, X)`` for magic sets or
            ``ans__anc__bf(a, X)`` for Alexander templates).
        seeds: ground facts to add before evaluation (the magic seed /
            the initial call fact).
        answer_predicate: predicate of ``goal``.
        call_predicates: rewritten-name -> original ``(predicate,
            adornment)`` for the call/magic predicates, used by the
            correspondence checker.
        answer_predicates: rewritten-name -> original ``(predicate,
            adornment)`` for the answer-carrying predicates.
        original_query: the untransformed query atom.
        kind: transformation label ("magic", "supplementary", "alexander").
    """

    program: Program
    goal: Atom
    seeds: tuple[Atom, ...]
    answer_predicate: str
    call_predicates: Mapping[str, tuple[str, Adornment]]
    answer_predicates: Mapping[str, tuple[str, Adornment]]
    original_query: Atom
    kind: str

    def evaluation_program(self) -> Program:
        """The rewritten program with the seed facts embedded."""
        seed_rules = tuple(Rule(seed, ()) for seed in self.seeds)
        return Program(seed_rules + self.program.rules)
