"""Generated layered rule bases: the inputs of the ``cold-rulebase`` workload.

A rule base has three extensional relations over one layered node
domain (edges only run from rank r to rank r+1, so every derived
relation stays acyclic and small), a first derived layer over them
(stratum 0), a stratified-negation layer (``x(X,Y) :- a(X,Y), not
b(X,Y)``), and a second derived layer in which every predicate builds
on the previous one, so the bound goal on the last predicate reaches
the whole layer.  Recursion is right-linear, left-linear and non-linear.

The *shape* of suite entry ``i`` (rule count, templates, wiring, fact
counts, edge structure) depends on ``i`` alone; the ``--seed`` draws the
constant labels and the order of rules and facts.  Two seeds therefore
present different text, different constants and a different goal
constant to the system, and the same amount of work — which is what lets
latency medians of two seeds be compared at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RuleBase", "SUITE_RULE_COUNTS", "generate_suite", "generate_rulebase"]

# 13 entries, 24..96 rules: an odd count keeps the latency median inside
# one entry's cluster instead of on the boundary between two.
SUITE_RULE_COUNTS = tuple(24 + 6 * index for index in range(13))
RANKS = 4

_XY = ("X", "Y")
_XZ, _ZY = ("X", "Z"), ("Z", "Y")
_TEMPLATES = {
    # name: one body per rule, over inputs a, b and the defined predicate p
    "union": ((("a", _XY),), (("b", _XY),)),
    "join": ((("a", _XZ), ("b", _ZY)),),
    "right": ((("a", _XY),), (("a", _XZ), ("p", _ZY))),
    "left": ((("a", _XY),), (("p", _XZ), ("a", _ZY))),
    "nonlinear": ((("a", _XY),), (("p", _XZ), ("p", _ZY))),
}
_TWO_RULE = ("union", "right", "left", "nonlinear")


@dataclass(frozen=True)
class RuleBase:
    """One generated program: rule tuples for the oracle, text for the system."""

    name: str
    rules: tuple
    facts: tuple
    goal: tuple
    text: str
    goal_text: str


def _instantiate(template: str, pred: str, first: str, second: str) -> list:
    names = {"a": first, "b": second, "p": pred}
    return [
        ((pred, _XY), tuple((True, names[name], args) for name, args in body))
        for body in _TEMPLATES[template]
    ]


def _layer(shape, prefix, budget, first_inputs, inputs, top=None) -> tuple[list, list]:
    """Spend *budget* rules on predicates ``<prefix>0..``, each defined by
    one template over a first input from *first_inputs* and a second
    from *inputs*; returns ``(rules, predicate names)``.  With *top*,
    one rule ``top(X,Y) :- <pred>(X,Y)`` per predicate comes out of the
    budget too, so a goal on *top* reaches the whole layer."""
    rules: list = []
    names: list = []
    per_pred = 1 if top else 0
    while budget > 0:
        pred = f"{prefix}{len(names)}"
        left = budget - 2 - per_pred  # after a two-rule template
        fits = left == 0 or left >= 1 + per_pred
        template = shape.choice(_TWO_RULE) if fits else "join"
        rules.extend(
            _instantiate(
                template, pred, shape.choice(first_inputs), shape.choice(inputs)
            )
        )
        if top:
            rules.append(((top, _XY), ((True, pred, _XY),)))
        budget -= len(_TEMPLATES[template]) + per_pred
        names.append(pred)
    return rules, names


def _render_rule(rule) -> str:
    (head_pred, head_args), body = rule
    literals = ", ".join(
        ("" if positive else "not ") + f"{pred}({', '.join(args)})"
        for positive, pred, args in body
    )
    return f"{head_pred}({', '.join(head_args)}) :- {literals}."


def generate_rulebase(index: int, seed: int) -> RuleBase:
    """Suite entry *index* under labelling/ordering seed *seed*."""
    rule_count = SUITE_RULE_COUNTS[index]
    shape = random.Random(f"rulebase-shape-{index}")
    width = 8 + index
    fact_count = 20 + 5 * index

    # Extensional layer: three edge relations over ranks x width nodes.
    candidates = [
        (rank * width + a, (rank + 1) * width + b)
        for rank in range(RANKS - 1)
        for a in range(width)
        for b in range(width)
    ]
    edb = {
        f"e{k}": shape.sample(candidates, fact_count) for k in range(3)
    }

    # Rule budget: one negation rule per ~10 rules, the rest split
    # between the stratum below the negation and the stratum above it.
    negations = max(2, rule_count // 10)
    lower_budget = (rule_count - negations) * 2 // 5
    upper_budget = rule_count - negations - lower_budget
    base = sorted(edb)
    lower_rules, lower = _layer(shape, "a", lower_budget, base, base)
    negation_rules, negated = [], []
    for k in range(negations):
        pred = f"x{k}"
        negation_rules.append(
            (
                (pred, _XY),
                (
                    (True, shape.choice(base + lower), _XY),
                    (False, shape.choice(lower), _XY),
                ),
            )
        )
        negated.append(pred)
    upper_rules, _ = _layer(
        shape, "b", upper_budget - 1, negated, base + lower + negated, top="top",
    )
    # top also holds e0, and the goal binds the source of an e0 edge, so
    # no goal has an empty answer (which any broken engine would match).
    upper_rules.append((("top", _XY), ((True, "e0", _XY),)))
    rules = lower_rules + negation_rules + upper_rules
    goal_node = shape.choice(edb["e0"])[0]
    assert len(rules) == rule_count, (len(rules), rule_count)

    # Everything below depends on the seed: labels and ordering only.
    labels = random.Random(seed * 1009 + index)
    node_ids = list(range(RANKS * width))
    names = [f"n{k}" for k in node_ids]
    labels.shuffle(names)
    label = dict(zip(node_ids, names))
    facts = [
        (pred, (label[source], label[target]))
        for pred in sorted(edb)
        for source, target in edb[pred]
    ]
    labels.shuffle(facts)
    labels.shuffle(rules)
    goal = ("top", (label[goal_node], "Y"))
    lines = [_render_rule(rule) for rule in rules]
    lines.extend(f"{pred}({', '.join(row)})." for pred, row in facts)
    return RuleBase(
        name=f"rb{index:02d}-{rule_count}r",
        rules=tuple(rules),
        facts=tuple(facts),
        goal=goal,
        text="\n".join(lines) + "\n",
        goal_text=f"{goal[0]}({', '.join(goal[1])})?",
    )


def generate_suite(seed: int) -> tuple[RuleBase, ...]:
    return tuple(
        generate_rulebase(index, seed) for index in range(len(SUITE_RULE_COUNTS))
    )
