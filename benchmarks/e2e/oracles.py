"""Reference answers that share no code with the engine under test.

The graph workloads are checked against plain BFS / parent-pointer
walks over the benchmark's own edge lists; the generated rule bases
against a naive stratified fixpoint over the generator's own rule
tuples.  Everything here is pure Python over sets of tuples — it never
imports ``repro``.

Rule tuples: a rule is ``(head, body)`` with ``head = (pred, args)`` and
``body`` a tuple of ``(positive, pred, args)``; an argument is a string,
a variable when it starts with an uppercase letter and a constant
otherwise.
"""

from __future__ import annotations

from collections import deque

__all__ = [
    "reachable",
    "same_generation_answers",
    "clean_answers",
    "naive_model",
    "goal_rows",
]


def _successors(edges) -> dict:
    successors: dict = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    return successors


def reachable(edges, source) -> frozenset:
    """Nodes reachable from *source* by one or more edges (BFS)."""
    successors = _successors(edges)
    seen: set = set()
    frontier = deque(successors.get(source, ()))
    while frontier:
        node = frontier.popleft()
        if node not in seen:
            seen.add(node)
            frontier.extend(successors.get(node, ()))
    return frozenset(seen)


def same_generation_answers(tree_edges, root, node) -> frozenset:
    """``sg(node, Y)`` over a rooted tree whose ``flat`` relation holds the
    sibling pairs directly under the root (level matching).

    ``sg(x, y)`` holds iff x and y sit at the same depth >= 1 under
    *different* children of the root: ``flat`` seeds depth 1 and every
    ``up``/``down`` step moves both sides one level.
    """
    parent = {child: up for up, child in tree_edges}

    def depth_and_branch(current):
        depth, branch = 0, None
        while current != root:
            depth, branch, current = depth + 1, current, parent[current]
        return depth, branch

    depth, branch = depth_and_branch(node)
    if depth == 0:
        return frozenset()
    answers = set()
    for other in parent:
        other_depth, other_branch = depth_and_branch(other)
        if other_depth == depth and other_branch != branch:
            answers.add(other)
    return frozenset(answers)


def clean_answers(subpart_edges, banned, part) -> frozenset:
    """``clean(part, Y)``: every transitively needed Y, unless *part* or
    anything it needs is banned (then nothing)."""
    needs = reachable(subpart_edges, part)
    if part in banned or needs & set(banned):
        return frozenset()
    return needs


def _is_var(arg: str) -> bool:
    return arg[:1].isupper()


def _strata(rules) -> dict:
    """Stratum number per derived predicate (negation bumps the level)."""
    level = {head[0]: 0 for head, _ in rules}
    for _ in range(len(level) + 1):
        changed = False
        for (head_pred, _), body in rules:
            for positive, pred, _ in body:
                need = level.get(pred, -1) + (0 if positive else 1)
                if pred in level and need > level[head_pred]:
                    level[head_pred], changed = need, True
        if not changed:
            return level
    raise ValueError("rule base is not stratifiable")


def _solve(body, relations, index, env, position=0):
    """Yield every binding of *body* (positives first, then negatives)."""
    if position == len(body):
        yield env
        return
    positive, pred, args = body[position]
    values = [arg if not _is_var(arg) else env.get(arg) for arg in args]
    if not positive:
        if tuple(values) not in relations.get(pred, ()):
            yield from _solve(body, relations, index, env, position + 1)
        return
    bound = tuple(i for i, value in enumerate(values) if value is not None)
    table = index.get((pred, bound))
    if table is None:
        table = index[(pred, bound)] = {}
        for row in relations.get(pred, ()):
            table.setdefault(tuple(row[i] for i in bound), []).append(row)
    for row in table.get(tuple(values[i] for i in bound), ()):
        extended = dict(env)
        if all(extended.setdefault(arg, value) == value
               for arg, value in zip(args, row) if _is_var(arg)):
            yield from _solve(body, relations, index, extended, position + 1)


def naive_model(rules, facts) -> dict:
    """The stratified model of *rules* over *facts* by naive iteration.

    *facts* maps predicate -> iterable of constant tuples.  Returns
    predicate -> set of tuples, base relations included.
    """
    relations = {pred: set(rows) for pred, rows in facts.items()}
    level = _strata(rules)
    for stratum in sorted(set(level.values())):
        active = [
            (head, sorted(body, key=lambda literal: not literal[0]))
            for head, body in rules
            if level[head[0]] == stratum
        ]
        changed = True
        while changed:
            changed = False
            index: dict = {}
            for (head_pred, head_args), body in active:
                target = relations.setdefault(head_pred, set())
                derived = {
                    tuple(env.get(arg, arg) for arg in head_args)
                    for env in _solve(body, relations, index, {})
                }
                if not derived <= target:
                    target |= derived
                    changed = True
    return relations


def goal_rows(model, pred, args) -> frozenset:
    """Rows of *pred* in *model* matching the goal's constant arguments."""
    return frozenset(
        row
        for row in model.get(pred, ())
        if all(_is_var(arg) or arg == value for arg, value in zip(args, row))
    )
