"""Canonical Datalog scenarios: the programs the 1980s literature (and
this reproduction's experiment suite) evaluates on.

A :class:`Scenario` bundles a program, a database, and representative
queries.  Builders are parameterised by graph shape and size so the bench
harness can sweep them.

Program variants of transitive closure, following the terminology of the
magic-sets papers:

* ``right`` (right-linear): ``anc(X,Y) :- par(X,Z), anc(Z,Y).``
* ``left``  (left-linear):  ``anc(X,Y) :- anc(X,Z), par(Z,Y).``
* ``nonlinear``:            ``anc(X,Y) :- anc(X,Z), anc(Z,Y).``
* ``double`` — both linear rules together (redundant derivations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..datalog.atoms import Atom
from ..datalog.parser import parse_program, parse_query
from ..datalog.rules import Program
from ..facts.database import Database
from . import graphs

__all__ = [
    "Scenario",
    "ancestor",
    "bounded_reachability",
    "same_generation",
    "nonlinear_tc",
    "unreachable",
    "bill_of_materials",
    "win_game",
    "GRAPH_BUILDERS",
    "make_edges",
]

GRAPH_BUILDERS: Mapping[str, Callable[..., list[tuple[int, int]]]] = {
    "chain": graphs.chain,
    "cycle": graphs.cycle,
    "tree": graphs.balanced_tree,
    "random": graphs.random_digraph,
    "grid": graphs.grid,
    "complete": graphs.complete,
    "dag": graphs.layered_dag,
    "star": graphs.star,
}


def make_edges(kind: str, **params) -> list[tuple[int, int]]:
    """Build an edge list by graph-kind name (see :data:`GRAPH_BUILDERS`)."""
    try:
        builder = GRAPH_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown graph kind {kind!r}; choose from {sorted(GRAPH_BUILDERS)}"
        ) from None
    return builder(**params)


@dataclass(frozen=True)
class Scenario:
    """A program + database + representative queries."""

    name: str
    program: Program
    database: Database
    queries: tuple[Atom, ...]
    description: str

    def query(self, index: int = 0) -> Atom:
        return self.queries[index]


_ANCESTOR_VARIANTS = {
    "right": """
        anc(X,Y) :- par(X,Y).
        anc(X,Y) :- par(X,Z), anc(Z,Y).
    """,
    "left": """
        anc(X,Y) :- par(X,Y).
        anc(X,Y) :- anc(X,Z), par(Z,Y).
    """,
    "nonlinear": """
        anc(X,Y) :- par(X,Y).
        anc(X,Y) :- anc(X,Z), anc(Z,Y).
    """,
    "double": """
        anc(X,Y) :- par(X,Y).
        anc(X,Y) :- par(X,Z), anc(Z,Y).
        anc(X,Y) :- anc(X,Z), par(Z,Y).
    """,
}


def ancestor(
    graph: str = "chain",
    variant: str = "right",
    source: int | None = 0,
    **graph_params,
) -> Scenario:
    """The ancestor / transitive-closure scenario.

    Args:
        graph: graph kind for the ``par`` relation.
        variant: recursion shape (see module docstring).
        source: bound first argument of the default query; ``None`` asks
            the fully open query ``anc(X, Y)``.
        graph_params: forwarded to the graph builder (e.g. ``n=32``).
    """
    if variant not in _ANCESTOR_VARIANTS:
        raise ValueError(
            f"unknown ancestor variant {variant!r}; "
            f"choose from {sorted(_ANCESTOR_VARIANTS)}"
        )
    edges = make_edges(graph, **graph_params)
    database = Database()
    for u, v in edges:
        database.add("par", (u, v))
    program = parse_program(_ANCESTOR_VARIANTS[variant])
    if source is None:
        queries = (parse_query("anc(X, Y)?"),)
    else:
        queries = (
            parse_query(f"anc({source}, X)?"),
            parse_query("anc(X, Y)?"),
        )
    return Scenario(
        name=f"ancestor-{variant}-{graph}",
        program=program,
        database=database,
        queries=queries,
        description=(
            f"{variant}-linear ancestor over a {graph} graph "
            f"({len(edges)} edges)"
        ),
    )


def same_generation(depth: int = 4, branching: int = 2) -> Scenario:
    """The same-generation scenario over a balanced tree.

    ``up`` points child -> parent, ``down`` parent -> child, ``flat``
    links each node to itself's sibling level via the root... more
    precisely ``flat`` holds the sibling pairs of the root's children, the
    classical seeding.
    """
    edges = graphs.balanced_tree(depth, branching)
    database = Database()
    children_of_root = [v for (u, v) in edges if u == 0]
    for u, v in edges:
        database.add("up", (v, u))
        database.add("down", (u, v))
    # Flat: sibling pairs directly under the root.
    for left in children_of_root:
        for right in children_of_root:
            if left != right:
                database.add("flat", (left, right))
    program = parse_program(
        """
        sg(X,Y) :- flat(X,Y).
        sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).
        """
    )
    leaves = sorted(
        set(v for _, v in edges) - set(u for u, _ in edges)
    )
    bound = leaves[0] if leaves else 0
    return Scenario(
        name=f"same-generation-d{depth}b{branching}",
        program=program,
        database=database,
        queries=(
            parse_query(f"sg({bound}, X)?"),
            parse_query("sg(X, Y)?"),
        ),
        description=(
            f"same generation over a balanced tree "
            f"(depth {depth}, branching {branching}, {len(edges)} edges)"
        ),
    )


def nonlinear_tc(graph: str = "chain", source: int | None = 0, **graph_params) -> Scenario:
    """Non-linear transitive closure (the doubling recursion)."""
    return ancestor(graph=graph, variant="nonlinear", source=source, **graph_params)


def unreachable(graph: str = "random", **graph_params) -> Scenario:
    """Two-strata scenario: reachability plus its negation.

    ``unreach(X, Y)`` holds for node pairs with no directed path — the
    canonical stratified-negation example (T6).
    """
    graph_params.setdefault("n", 8)
    if graph == "random":
        graph_params.setdefault("edge_probability", 0.2)
    edges = make_edges(graph, **graph_params)
    database = Database()
    node_list = graphs.nodes_of(edges) or [0]
    for u, v in edges:
        database.add("e", (u, v))
    for node in node_list:
        database.add("node", (node,))
    program = parse_program(
        """
        reach(X,Y) :- e(X,Y).
        reach(X,Y) :- e(X,Z), reach(Z,Y).
        unreach(X,Y) :- node(X), node(Y), not reach(X,Y).
        """
    )
    bound = node_list[0]
    return Scenario(
        name=f"unreachable-{graph}",
        program=program,
        database=database,
        queries=(
            parse_query(f"unreach({bound}, X)?"),
            parse_query("unreach(X, Y)?"),
        ),
        description=(
            f"unreachable pairs over a {graph} graph "
            f"({len(node_list)} nodes, {len(edges)} edges) — stratified negation"
        ),
    )


def bill_of_materials(depth: int = 4, branching: int = 2, banned_every: int = 5) -> Scenario:
    """A bill-of-materials scenario with an exclusion list.

    ``subpart`` is the part tree; ``needs`` its transitive closure;
    ``banned`` marks every ``banned_every``-th part; ``clean(X, Y)``
    holds when assembly X transitively needs Y and no banned part sits in
    X's closure — a three-stratum program.
    """
    edges = graphs.balanced_tree(depth, branching)
    database = Database()
    parts = graphs.nodes_of(edges) or [0]
    for u, v in edges:
        database.add("subpart", (u, v))
    for part in parts:
        database.add("part", (part,))
        if banned_every and part % banned_every == banned_every - 1:
            database.add("banned", (part,))
    program = parse_program(
        """
        needs(X,Y) :- subpart(X,Y).
        needs(X,Y) :- subpart(X,Z), needs(Z,Y).
        tainted(X) :- needs(X,Y), banned(Y).
        tainted(X) :- banned(X).
        clean(X,Y) :- needs(X,Y), not tainted(X).
        """
    )
    return Scenario(
        name=f"bom-d{depth}b{branching}",
        program=program,
        database=database,
        queries=(
            parse_query("clean(0, X)?"),
            parse_query("tainted(X)?"),
            parse_query("clean(X, Y)?"),
        ),
        description=(
            f"bill of materials with exclusions over a part tree "
            f"(depth {depth}, branching {branching})"
        ),
    )


def bounded_reachability(
    graph: str = "chain", bound: int | None = None, **graph_params
) -> Scenario:
    """Reachability restricted to targets below a numeric bound.

    Exercises the comparison built-ins through recursion: the guard
    ``Y <= bound`` sits inside both rules, so every engine must delay it
    until ``Y`` is bound and every transformation must carry it inline.
    """
    graph_params.setdefault("n", 12)
    edges = make_edges(graph, **graph_params)
    nodes = graphs.nodes_of(edges) or [0]
    if bound is None:
        bound = nodes[len(nodes) // 2]
    database = Database()
    for u, v in edges:
        database.add("e", (u, v))
    program = parse_program(
        f"""
        low(X,Y) :- e(X,Y), Y <= {bound}.
        low(X,Y) :- e(X,Z), low(Z,Y), Y <= {bound}.
        """
    )
    source = nodes[0]
    return Scenario(
        name=f"bounded-reach-{graph}-b{bound}",
        program=program,
        database=database,
        queries=(
            parse_query(f"low({source}, Y)?"),
            parse_query("low(X, Y)?"),
        ),
        description=(
            f"reachability over a {graph} graph restricted to targets "
            f"<= {bound} (comparison built-ins)"
        ),
    )


def win_game(graph: str = "chain", **graph_params) -> Scenario:
    """The win/lose game — deliberately NOT stratifiable.

    ``win(X) :- move(X,Y), not win(Y)`` depends negatively on itself; the
    test suite uses this scenario to check that the analysis layer rejects
    it and the stratified engines refuse it cleanly; the well-founded
    engine evaluates it (``repro.engine.wellfounded``, docs/THEORY.md §6).
    """
    graph_params.setdefault("n", 8)
    edges = make_edges(graph, **graph_params)
    database = Database()
    for u, v in edges:
        database.add("move", (u, v))
    program = parse_program("win(X) :- move(X,Y), not win(Y).")
    return Scenario(
        name=f"win-{graph}",
        program=program,
        database=database,
        queries=(parse_query("win(0)?"), parse_query("win(X)?")),
        description="the win/lose game (not stratifiable; rejection test)",
    )
