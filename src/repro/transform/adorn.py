"""Adornment: specialising a program by binding-pattern propagation.

Given a program and a query, adornment produces one specialised copy of
each reachable rule per distinct binding pattern ("adornment") of its head
predicate, with body literals reordered by the chosen SIPS.  IDB body
literals are renamed to their adorned versions (``anc`` queried with its
first argument bound becomes ``anc__bf``); EDB literals keep their names.

The adorned program is the common input of the magic-sets, supplementary
magic, and Alexander transformations, and its construction is the first
step of the Generalized Magic Sets procedure of Beeri–Ramakrishnan 1987.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..datalog.atoms import Atom, Literal
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant
from ..errors import TransformError
from .common import Adornment, adorned_name, adornment_for, head_bound_variables
from .sips import Sips, left_to_right

__all__ = ["AdornedRule", "AdornedProgram", "adorn_program", "query_adornment"]


@dataclass(frozen=True)
class AdornedRule:
    """A rule specialised to one head adornment.

    Attributes:
        rule: the rewritten rule (head and IDB body literals renamed).
        head_predicate: original head predicate name.
        head_adornment: the head's binding pattern.
        body_adornments: per body literal (in the rewritten order), the
            ``(original predicate, adornment)`` for IDB literals and
            ``None`` for EDB literals.
        original: the source rule.
    """

    rule: Rule
    head_predicate: str
    head_adornment: Adornment
    body_adornments: tuple[tuple[str, Adornment] | None, ...]
    original: Rule


@dataclass(frozen=True)
class AdornedProgram:
    """An adorned program plus the bookkeeping other passes need.

    Attributes:
        rules: the adorned rules, in generation order (query predicate's
            rules first, then breadth-first through reachable adornments).
        query: the adorned query atom (renamed predicate).
        query_key: ``(predicate, adornment)`` of the query.
        names: ``(original predicate, adornment) -> adorned name``.
        originals: inverse of ``names``.
        edb_predicates: predicates treated as extensional (left unrenamed).
    """

    rules: tuple[AdornedRule, ...]
    query: Atom
    query_key: tuple[str, Adornment]
    names: Mapping[tuple[str, Adornment], str]
    originals: Mapping[str, tuple[str, Adornment]]
    edb_predicates: frozenset[str]

    def program(self) -> Program:
        """The adorned rules as a plain program."""
        return Program(tuple(adorned.rule for adorned in self.rules))

    def adorned_predicates(self) -> tuple[str, ...]:
        return tuple(self.names.values())


def query_adornment(query: Atom) -> Adornment:
    """The adornment induced by a query atom: 'b' at constant positions.

    A repeated variable is free at every occurrence (variant-based
    tabling treats ``anc(X, X)`` as a pattern, not a binding).
    """
    return "".join(
        "b" if isinstance(arg, Constant) else "f" for arg in query.args
    )


def adorn_program(
    program: Program,
    query: Atom,
    sips: Sips = left_to_right,
    edb_predicates: frozenset[str] | None = None,
) -> AdornedProgram:
    """Adorn *program* for *query*.

    Args:
        program: the source rules (facts are ignored here; they stay in
            the database).
        query: the query atom; its constants define the initial adornment.
        sips: the sideways information passing strategy.
        edb_predicates: predicates to treat as extensional.  Defaults to
            the program's own EDB; the stratified pipeline passes a larger
            set (lower-stratum predicates are materialised up front and
            then treated as base relations).

    Raises:
        TransformError: when the query predicate has no rules (nothing to
            specialise).
    """
    if edb_predicates is None:
        edb_predicates = program.edb_predicates
    idb = program.idb_predicates - edb_predicates
    if query.predicate not in idb:
        raise TransformError(
            f"query predicate {query.predicate} is not an IDB predicate "
            "of the program"
        )
    taken: set[str] = set(program.predicates)
    names: dict[tuple[str, Adornment], str] = {}
    rules: list[AdornedRule] = []
    worklist: list[tuple[str, Adornment]] = []

    def name_for(key: tuple[str, Adornment]) -> str:
        existing = names.get(key)
        if existing is not None:
            return existing
        fresh = adorned_name(key[0], key[1], taken)
        taken.add(fresh)
        names[key] = fresh
        worklist.append(key)
        return fresh

    query_key = (query.predicate, query_adornment(query))
    query_name = name_for(query_key)

    processed: set[tuple[str, Adornment]] = set()
    while worklist:
        key = worklist.pop(0)
        if key in processed:
            continue
        processed.add(key)
        predicate, adornment = key
        for rule in program.rules_for(predicate):
            rules.append(_adorn_rule(rule, key, name_for, idb, sips))

    originals = {name: key for key, name in names.items()}
    adorned_query = Atom(query_name, query.args)
    return AdornedProgram(
        rules=tuple(rules),
        query=adorned_query,
        query_key=query_key,
        names=dict(names),
        originals=originals,
        edb_predicates=frozenset(edb_predicates),
    )


def _adorn_rule(
    rule: Rule,
    head_key: tuple[str, Adornment],
    name_for,
    idb: frozenset[str],
    sips: Sips,
) -> AdornedRule:
    predicate, adornment = head_key
    head = rule.head
    if len(adornment) != len(head.args):
        raise TransformError(
            f"adornment {adornment} does not fit head {head}"
        )
    head_bound = head_bound_variables(head, adornment)
    bound: set = set(head_bound)
    new_body: list[Literal] = []
    body_adornments: list[tuple[str, Adornment] | None] = []
    for literal in sips(rule.body, head_bound):
        atom = literal.atom
        if atom.predicate in idb:
            key = (atom.predicate, adornment_for(atom, bound))
            new_body.append(Literal(Atom(name_for(key), atom.args), literal.positive))
            body_adornments.append(key)
        else:
            new_body.append(literal)
            body_adornments.append(None)
        if literal.positive:
            # Constants join the set too: adornment_for tests them first.
            bound.update(atom.args)
    return AdornedRule(
        rule=Rule(Atom(name_for(head_key), head.args), tuple(new_body)),
        head_predicate=predicate,
        head_adornment=adornment,
        body_adornments=tuple(body_adornments),
        original=rule,
    )
