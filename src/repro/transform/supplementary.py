"""The supplementary magic sets transformation (Beeri–Ramakrishnan 1987).

Supplementary magic factors the shared body prefixes that plain magic
re-evaluates.  For an adorned rule ``r: p_a(t) :- L1, ..., Ln`` it emits::

    sup_r_i(Vi)    :- sup_r_(i-1)(V(i-1)), Li.       (1 <= i <= n-1)
    magic_q_b(s^b) :- sup_r_(i-1)(V(i-1)).           (Li = q_b(s) IDB)
    p_a(t)         :- sup_r_(n-1)(V(n-1)), Ln.

where ``sup_r_0`` is identified with the rule's magic guard
``magic_p_a(t^b)`` (as in BR87), and ``Vi`` is the set of variables bound
after ``L1..Li`` that are still needed by a later literal or by the head
(:func:`~repro.transform.common.continuation_variables`).

Up to predicate renaming this is the Alexander method's continuation
structure — the supplementary predicates are the Alexander ``cont``
predicates, the magic predicates the Alexander ``call`` predicates, and
the adorned predicates its ``ans`` predicates; experiment T3 verifies the
equivalence empirically.
"""

from __future__ import annotations

from ..datalog.atoms import Atom, Literal
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant
from ..errors import TransformError
from .adorn import AdornedProgram, AdornedRule, adorn_program
from .common import (
    TransformedProgram,
    bound_args,
    continuation_variables,
    head_bound_variables,
    observe_transform,
    prefixed_name,
)
from .sips import Sips, left_to_right

__all__ = ["supplementary_magic_sets", "supplementary_transform_adorned"]


def supplementary_transform_adorned(adorned: AdornedProgram) -> TransformedProgram:
    """Apply the supplementary-magic rewriting to an adorned program."""
    taken = set(adorned.edb_predicates)
    for adorned_rule in adorned.rules:
        taken.add(adorned_rule.rule.head.predicate)
        for literal in adorned_rule.rule.body:
            taken.add(literal.predicate)

    magic_names: dict[str, str] = {}

    def magic_name(adorned_predicate: str) -> str:
        existing = magic_names.get(adorned_predicate)
        if existing is not None:
            return existing
        fresh = prefixed_name("magic", adorned_predicate, taken)
        taken.add(fresh)
        magic_names[adorned_predicate] = fresh
        return fresh

    adorned_idb = {rule.rule.head.predicate for rule in adorned.rules}
    rewritten: list[Rule] = []
    for index, adorned_rule in enumerate(adorned.rules):
        rewritten.extend(
            _rewrite_rule(adorned_rule, index, adorned_idb, magic_name, taken)
        )

    query = adorned.query
    adornment = adorned.query_key[1]
    seed_args = bound_args(query, adornment)
    if not all(isinstance(arg, Constant) for arg in seed_args):
        raise TransformError(f"query {query} has a non-constant bound argument")
    seed = Atom(magic_name(query.predicate), seed_args)

    call_predicates = {
        magic: adorned.originals[adorned_pred]
        for adorned_pred, magic in magic_names.items()
        if adorned_pred in adorned.originals
    }
    answer_predicates = {name: key for key, name in adorned.names.items()}
    observe_transform("supplementary", len(rewritten))
    return TransformedProgram(
        program=Program(rewritten),
        goal=query,
        seeds=(seed,),
        answer_predicate=query.predicate,
        call_predicates=call_predicates,
        answer_predicates=answer_predicates,
        original_query=Atom(adorned.query_key[0], query.args),
        kind="supplementary",
    )


def _rewrite_rule(
    adorned_rule: AdornedRule,
    rule_index: int,
    adorned_idb: set[str],
    magic_name,
    taken: set[str],
) -> list[Rule]:
    rule = adorned_rule.rule
    head = rule.head
    body = rule.body
    adornment = adorned_rule.head_adornment
    # sup_r_0 is identified with the magic predicate itself (as in BR87):
    # the initial supplementary state is the magic guard literal.  Each
    # state literal is built once and shared by the rules it guards.
    sup = Literal(Atom(magic_name(head.predicate), bound_args(head, adornment)))
    if not body:
        # Degenerate: a rule with an empty body (ground head) just needs
        # the magic guard.
        return [Rule(head, (sup,))]

    last = len(body) - 1
    carried = (
        continuation_variables(head, body, head_bound_variables(head, adornment))
        if last
        else []
    )
    produced: list[Rule] = []
    for position, (literal, key) in enumerate(
        zip(body, adorned_rule.body_adornments)
    ):
        atom = literal.atom
        if key is not None and literal.positive and atom.predicate in adorned_idb:
            magic_head = Atom(magic_name(atom.predicate), bound_args(atom, key[1]))
            produced.append(Rule(magic_head, (sup,)))
        if position == last:
            produced.append(Rule(head, (sup, literal)))
        else:
            name = prefixed_name(f"sup_{rule_index}_{position + 1}", head.predicate, taken)
            taken.add(name)
            next_sup = Atom(name, carried[position])
            produced.append(Rule(next_sup, (sup, literal)))
            sup = Literal(next_sup)
    return produced


def supplementary_magic_sets(
    program: Program,
    query: Atom,
    sips: Sips = left_to_right,
    edb_predicates: frozenset[str] | None = None,
) -> TransformedProgram:
    """Adorn *program* for *query* and apply supplementary magic."""
    adorned = adorn_program(program, query, sips, edb_predicates)
    return supplementary_transform_adorned(adorned)
