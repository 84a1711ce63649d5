"""The Alexander templates transformation (Rohmer–Lescoeur–Kerisit 1986).

The Alexander method compiles a query against a recursive program into
rules over three predicate families, intended for bottom-up (semi-naive)
evaluation:

* ``call_p_a``  — "problem" facts: the subqueries that arise, carrying the
  bound arguments of the adorned call pattern;
* ``ans_p_a``   — "solution" facts: answers to those subqueries, carrying
  the full argument tuple;
* ``cont_r_i``  — continuation facts threading a rule body: the variable
  bindings accumulated after the first ``i`` body literals that are still
  needed downstream.

For an adorned rule ``r: p_a(t) :- L1, ..., Ln`` the templates are::

    call_q_b(s^b) :- state_(i-1).                 (Li = q_b(s) IDB)
    cont_r_i(Vi)  :- state_(i-1), Ri.             (1 <= i <= n-1)
    ans_p_a(t)    :- state_(n-1), Rn.

where ``state_0`` is ``call_p_a(t^b)``, ``state_i`` is ``cont_r_i(Vi)``,
and ``Ri`` is ``ans_q_b(s)`` when ``Li`` is an IDB literal and ``Li``
itself when it is extensional (EDB literals are resolved inline, exactly
as OLDT resolves base relations by lookup).  The query seeds one
``call`` fact.

This is Seki's object of study: evaluated semi-naive bottom-up, the
``call`` facts are in bijection with OLDT's tabled subgoals and the
``ans`` facts with OLDT's table answers (experiment T1), with inference
counts of the same order (T2).  Structurally the transformation is
supplementary magic under different predicate names — ``call`` = magic,
``cont`` = sup, ``ans_p_a`` = the adorned predicate (T3).
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

__all__ = ["alexander_templates", "alexander_transform_adorned"]


def alexander_transform_adorned(adorned: AdornedProgram) -> TransformedProgram:
    """Apply the Alexander rewriting to an already adorned program."""
    taken = set(adorned.edb_predicates)
    for adorned_rule in adorned.rules:
        taken.add(adorned_rule.rule.head.predicate)
        for literal in adorned_rule.rule.body:
            taken.add(literal.predicate)

    call_names: dict[str, str] = {}
    ans_names: dict[str, str] = {}

    def call_name(adorned_predicate: str) -> str:
        existing = call_names.get(adorned_predicate)
        if existing is not None:
            return existing
        fresh = prefixed_name("call", adorned_predicate, taken)
        taken.add(fresh)
        call_names[adorned_predicate] = fresh
        return fresh

    def ans_name(adorned_predicate: str) -> str:
        existing = ans_names.get(adorned_predicate)
        if existing is not None:
            return existing
        fresh = prefixed_name("ans", adorned_predicate, taken)
        taken.add(fresh)
        ans_names[adorned_predicate] = fresh
        return fresh

    adorned_idb = {rule.rule.head.predicate for rule in adorned.rules}
    rewritten: list[Rule] = []
    for index, adorned_rule in enumerate(adorned.rules):
        rewritten.extend(
            _rewrite_rule(
                adorned_rule, index, adorned_idb, call_name, ans_name, taken
            )
        )

    query = adorned.query
    adornment = adorned.query_key[1]
    seed_args = bound_args(query, adornment)
    if not all(isinstance(arg, Constant) for arg in seed_args):
        raise TransformError(f"query {query} has a non-constant bound argument")
    seed = Atom(call_name(query.predicate), seed_args)
    goal = Atom(ans_name(query.predicate), query.args)

    call_predicates = {
        name: adorned.originals[adorned_pred]
        for adorned_pred, name in call_names.items()
        if adorned_pred in adorned.originals
    }
    answer_predicates = {
        name: adorned.originals[adorned_pred]
        for adorned_pred, name in ans_names.items()
        if adorned_pred in adorned.originals
    }
    observe_transform("alexander", len(rewritten))
    return TransformedProgram(
        program=Program(rewritten),
        goal=goal,
        seeds=(seed,),
        answer_predicate=goal.predicate,
        call_predicates=call_predicates,
        answer_predicates=answer_predicates,
        original_query=Atom(adorned.query_key[0], query.args),
        kind="alexander",
    )


def _rewrite_rule(
    adorned_rule: AdornedRule,
    rule_index: int,
    adorned_idb: set[str],
    call_name,
    ans_name,
    taken: set[str],
) -> list[Rule]:
    rule = adorned_rule.rule
    head = rule.head
    body = rule.body
    adornment = adorned_rule.head_adornment
    # The state literal opens every template of its position; it is
    # built once and shared by them.
    state = Literal(Atom(call_name(head.predicate), bound_args(head, adornment)))
    answer_head = Atom(ans_name(head.predicate), head.args)
    if not body:
        return [Rule(answer_head, (state,))]

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
            # Emit the problem-generation template and resolve against the
            # solution predicate.
            call_head = Atom(call_name(atom.predicate), bound_args(atom, key[1]))
            produced.append(Rule(call_head, (state,)))
            literal = Literal(Atom(ans_name(atom.predicate), atom.args))
        if position == last:
            produced.append(Rule(answer_head, (state, literal)))
        else:
            name = prefixed_name(f"cont_{rule_index}_{position + 1}", head.predicate, taken)
            taken.add(name)
            next_state = Atom(name, carried[position])
            produced.append(Rule(next_state, (state, literal)))
            state = Literal(next_state)
    return produced


def alexander_templates(
    program: Program,
    query: Atom,
    sips: Sips = left_to_right,
    edb_predicates: frozenset[str] | None = None,
) -> TransformedProgram:
    """Adorn *program* for *query* and apply the Alexander rewriting."""
    adorned = adorn_program(program, query, sips, edb_predicates)
    return alexander_transform_adorned(adorned)
