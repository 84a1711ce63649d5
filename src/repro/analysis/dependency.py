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
from ..errors import StratificationError

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
        # One walk: the nodes, each edge's polarity and each node's
        # direct dependents.
        # (body predicate, head predicate) -> some occurrence is negated
        polarity: dict[tuple[str, str], bool] = {}
        out: dict[str, set[str]] = {}
        for rule in program.rules:
            head = rule.head.predicate
            if head not in out:
                out[head] = set()
            for literal in rule.body:
                body = literal.atom.predicate
                key = (body, head)
                if not polarity.get(key):
                    polarity[key] = not literal.positive
                targets = out.get(body)
                if targets is None:
                    targets = out[body] = set()
                targets.add(head)
        self._polarity = polarity
        self._out = out
        self._nodes = frozenset(out)

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
        return {node: frozenset(out) for node, out in self._out.items()}

    def has_edge(self, source: str, target: str) -> bool:
        """True iff *source* occurs in the body of a rule for *target*."""
        return (source, target) in self._polarity

    @cached_property
    def predecessors(self) -> Mapping[str, frozenset[str]]:
        """``predecessors[p]`` = body predicates ``p`` depends on directly."""
        result: dict[str, set[str]] = {node: set() for node in self._nodes}
        for source, target in self._polarity:
            result[target].add(source)
        return {node: frozenset(incoming) for node, incoming in result.items()}

    def closure(self, predicates, downstream: bool) -> frozenset[str]:
        """*predicates* plus every predicate derived from them
        (*downstream*) or that they read (upstream), transitively."""
        step = self.successors if downstream else self.predecessors
        reached = set(predicates)
        frontier = list(reached)
        while frontier:
            for predicate in step.get(frontier.pop(), ()):
                if predicate not in reached:
                    reached.add(predicate)
                    frontier.append(predicate)
        return frozenset(reached)

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
        indexes: dict[str, int] = {}
        lowlinks: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[frozenset[str]] = []
        out = self._out

        for root in sorted(out):
            if root in indexes:
                continue
            indexes[root] = lowlinks[root] = len(indexes)
            stack.append(root)
            on_stack.add(root)
            work: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(out[root])))]
            while work:
                node, children = work[-1]
                for child in children:
                    if child not in indexes:
                        indexes[child] = lowlinks[child] = len(indexes)
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(sorted(out[child]))))
                        break
                    if child in on_stack and indexes[child] < lowlinks[node]:
                        lowlinks[node] = indexes[child]
                else:
                    work.pop()
                    low = lowlinks[node]
                    if work:
                        parent = work[-1][0]
                        if low < lowlinks[parent]:
                            lowlinks[parent] = low
                    if low == indexes[node]:
                        if stack[-1] == node:  # the common case: a singleton
                            stack.pop()
                            on_stack.discard(node)
                            components.append(frozenset((node,)))
                            continue
                        start = len(stack) - 1
                        while stack[start] != node:
                            start -= 1
                        members = stack[start:]
                        del stack[start:]
                        on_stack.difference_update(members)
                        components.append(frozenset(members))
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

    def stratum_numbers(self) -> dict[str, int]:
        """The least stratum number of every predicate.

        A predicate's number is at least that of each predicate its rules
        read, plus one when the read is negated: one pass over the
        components in dependency order, every member of a component
        sharing its number.

        Raises:
            StratificationError: when a negated read lies on a cycle.
        """
        incoming: dict[str, list[tuple[str, bool]]] = {}
        for (source, target), negative in self._polarity.items():
            edges = incoming.get(target)
            if edges is None:
                incoming[target] = [(source, negative)]
            else:
                edges.append((source, negative))
        numbers: dict[str, int] = {}
        for component in reversed(self.sccs):  # dependencies first
            number = 0
            cyclic: list[str] = []
            for member in component:
                for source, negative in incoming.get(member, ()):
                    if source in component:
                        if negative:
                            cyclic.append(member)
                    elif numbers[source] + negative > number:
                        number = numbers[source] + negative
            if cyclic:
                raise StratificationError(
                    "program is not stratifiable: cycle through "
                    f"negation involving {min(cyclic)}"
                )
            for member in component:
                numbers[member] = number
        return numbers

    def condensation_order(self) -> tuple[frozenset[str], ...]:
        """SCCs in dependency order: every SCC after all it depends on.

        Tarjan emits dependents first for our edge orientation (see
        :attr:`sccs`), so dependencies-first is the reverse of the
        emission order.
        """
        return tuple(reversed(self.sccs))
