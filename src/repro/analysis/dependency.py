"""The predicate dependency graph and derived structure.

Nodes are predicate names; there is an edge ``q -> p`` when ``q`` occurs in
the body of a rule with head ``p`` (information flows from ``q`` to ``p``).
Edges carry a polarity: negative when some occurrence of ``q`` in a body of
``p`` is negated.

On top of the raw graph the module computes strongly connected components
(iterative Tarjan — no recursion-limit surprises on deep programs), a
topological order of components, and the recursion classification
(non-recursive / linear / non-linear) used by the workload docs and the
benchmark labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from ..datalog.rules import Program

__all__ = ["DependencyGraph", "RecursionKind"]


class RecursionKind:
    """Classification labels for a predicate's recursion."""

    NON_RECURSIVE = "non-recursive"
    LINEAR = "linear"
    NON_LINEAR = "non-linear"


@dataclass(frozen=True)
class _Edge:
    source: str  # body predicate
    target: str  # head predicate
    negative: bool


class DependencyGraph:
    """Predicate dependency structure of a program."""

    def __init__(self, program: Program):
        # The rules, not the program: ``Program.dependency_graph`` caches
        # this object, and a reference back would make every program a
        # reference cycle for the collector to find.
        self._rules = program.proper_rules
        # (body predicate, head predicate) -> some occurrence is negated
        polarity: dict[tuple[str, str], bool] = {}
        for rule in self._rules:
            head = rule.head.predicate
            for literal in rule.body:
                key = (literal.atom.predicate, head)
                if not polarity.get(key):
                    polarity[key] = not literal.positive
        self._polarity = polarity
        self._nodes = program.predicates

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @cached_property
    def _edges(self) -> tuple[_Edge, ...]:
        return tuple(
            _Edge(source, target, negative)
            for (source, target), negative in sorted(self._polarity.items())
        )

    def edges(self) -> Sequence[_Edge]:
        return self._edges

    @cached_property
    def successors(self) -> Mapping[str, frozenset[str]]:
        """``successors[q]`` = head predicates depending directly on ``q``."""
        result: dict[str, set[str]] = {node: set() for node in self._nodes}
        for source, target in self._polarity:
            result[source].add(target)
        return {node: frozenset(out) for node, out in result.items()}

    @cached_property
    def predecessors(self) -> Mapping[str, frozenset[str]]:
        """``predecessors[p]`` = body predicates ``p`` depends on directly."""
        result: dict[str, set[str]] = {node: set() for node in self._nodes}
        for source, target in self._polarity:
            result[target].add(source)
        return {node: frozenset(incoming) for node, incoming in result.items()}

    def depends_negatively(self, head: str, body: str) -> bool:
        """True iff some rule for *head* contains ``not body(...)``."""
        return self._polarity.get((body, head), False)

    # --- strongly connected components -------------------------------------
    @cached_property
    def sccs(self) -> tuple[frozenset[str], ...]:
        """SCCs in Tarjan emission order: dependents before dependencies.

        With our edge orientation (body predicate -> head predicate), a
        component is emitted once everything it *feeds* is done, so the
        final consumers come first.  Iterative Tarjan so deep programs
        don't hit the recursion limit.
        """
        index_counter = 0
        indexes: dict[str, int] = {}
        lowlinks: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[frozenset[str]] = []
        successors = self.successors

        for root in sorted(self._nodes):
            if root in indexes:
                continue
            work: list[tuple[str, Iterator[str]]] = [
                (root, iter(sorted(successors[root])))
            ]
            indexes[root] = lowlinks[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, child_iter = work[-1]
                advanced = False
                for child in child_iter:
                    if child not in indexes:
                        indexes[child] = lowlinks[child] = index_counter
                        index_counter += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(sorted(successors[child]))))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlinks[node] = min(lowlinks[node], indexes[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
                if lowlinks[node] == indexes[node]:
                    component: set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(frozenset(component))
        return tuple(components)

    @cached_property
    def scc_of(self) -> Mapping[str, frozenset[str]]:
        placement: dict[str, frozenset[str]] = {}
        for component in self.sccs:
            for node in component:
                placement[node] = component
        return placement

    def is_recursive_predicate(self, predicate: str) -> bool:
        """True iff *predicate* participates in a dependency cycle."""
        component = self.scc_of.get(predicate)
        if component is None:
            return False
        if len(component) > 1:
            return True
        return predicate in self.successors.get(predicate, frozenset())

    def recursion_kind(self, predicate: str) -> str:
        """Classify *predicate*'s recursion (see :class:`RecursionKind`).

        Linear: every rule for a predicate of its SCC has at most one body
        literal from the same SCC; non-linear otherwise.
        """
        if not self.is_recursive_predicate(predicate):
            return RecursionKind.NON_RECURSIVE
        if self.scc_of[predicate] & self._nonlinear_heads:
            return RecursionKind.NON_LINEAR
        return RecursionKind.LINEAR

    @cached_property
    def _nonlinear_heads(self) -> frozenset[str]:
        """Heads of rules with two or more body literals of the head's SCC."""
        heads: set[str] = set()
        for rule in self._rules:
            component = self.scc_of[rule.head.predicate]
            if sum(literal.predicate in component for literal in rule.body) > 1:
                heads.add(rule.head.predicate)
        return frozenset(heads)

    def condensation_order(self) -> tuple[frozenset[str], ...]:
        """SCCs in dependency order: every SCC after all it depends on.

        Tarjan emits dependents first for our edge orientation (see
        :attr:`sccs`), so dependencies-first is the reverse of the
        emission order.
        """
        return tuple(reversed(self.sccs))
