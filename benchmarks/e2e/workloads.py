"""The four workloads: seeded inputs, op lists and reference answers.

Every workload is a function ``build(seed) -> Inputs``.  The *law* of a
workload — dataset shapes and sizes, the mix of op kinds, how often each
goal class occurs — is fixed here; the seed draws node labels, which
goal constants are bound and the order of ops inside each block.  Op
lists are built from fixed-composition blocks, so any prefix of a list
(the timed window cuts it somewhere) has the same mix to within one
block.  That is what makes the latency quantiles of two seeds
comparable.

Reference answers come from :mod:`oracles` (BFS, level matching, a naive
stratified fixpoint) — never from the engine under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracles
import rulebases

__all__ = ["Dataset", "Op", "Inputs", "WORKLOADS", "WORKLOAD_NAMES", "build"]


@dataclass(frozen=True)
class Dataset:
    """Datalog source the system is given: a served dataset (``/load``)
    or, for ``cold-rulebase``, one generated rule base."""

    name: str
    text: str
    rules: int
    rows: int


@dataclass(frozen=True)
class Op:
    """One operation and what its reply must contain.

    ``kind`` is ``"query"`` or ``"update"``; ``options`` are the extra
    ``/query`` fields (empty = product defaults); ``expect`` is the
    reference answer set of a query (rows as the JSON reply carries
    them), ``None`` for updates.
    """

    kind: str
    dataset: str
    goal: str = ""
    options: tuple = ()
    add: tuple = ()
    remove: tuple = ()
    expect: "frozenset | None" = None


@dataclass(frozen=True)
class Inputs:
    """Everything a run needs, generated from the seed alone."""

    workload: str
    datasets: tuple
    clients: tuple  # one cyclic op list per closed-loop client
    warm: tuple  # one query per distinct prepared shape
    sample: tuple  # the fixed op sample of the traced run
    server_args: "tuple | None" = None  # None = in-process library calls


# --- the benchmark's own graph builders --------------------------------------

def _tree(depth: int, branching: int = 2) -> tuple[list, list]:
    """Balanced tree as parent->child edges; returns (edges, levels)."""
    edges, levels, next_node = [], [[0]], 1
    for _ in range(depth):
        level = []
        for parent in levels[-1]:
            for _ in range(branching):
                edges.append((parent, next_node))
                level.append(next_node)
                next_node += 1
        levels.append(level)
    return edges, levels


def _labels(rng: random.Random, count: int) -> list:
    """A seeded relabelling of nodes 0..count-1 (ints stay ints)."""
    labels = list(range(count))
    rng.shuffle(labels)
    return labels


def _facts_text(rng: random.Random, facts: list) -> str:
    facts = list(facts)
    rng.shuffle(facts)
    return "".join(
        f"{pred}({', '.join(str(value) for value in row)}).\n"
        for pred, row in facts
    )


def _dataset(name: str, rules: str, rng: random.Random, facts: list) -> Dataset:
    rules = "\n".join(line.strip() for line in rules.strip().splitlines()) + "\n"
    return Dataset(
        name=name,
        text=rules + _facts_text(rng, facts),
        rules=rules.count(":-"),
        rows=len(facts),
    )


_SG_RULES = """
    sg(X,Y) :- flat(X,Y).
    sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).
"""
_BOM_RULES = """
    needs(X,Y) :- subpart(X,Y).
    needs(X,Y) :- subpart(X,Z), needs(Z,Y).
    tainted(X) :- needs(X,Y), banned(Y).
    tainted(X) :- banned(X).
    clean(X,Y) :- needs(X,Y), not tainted(X).
"""
_NLTC_RULES = """
    anc(X,Y) :- par(X,Y).
    anc(X,Y) :- anc(X,Z), anc(Z,Y).
"""
_TC_RULES = """
    tc(X,Y) :- edge(X,Y).
    tc(X,Y) :- edge(X,Z), tc(Z,Y).
"""


def _same_generation(name: str, depth: int, rng: random.Random):
    """Dataset plus a goal maker binding a seeded-random leaf."""
    edges, levels = _tree(depth)
    label = _labels(rng, len(edges) + 1)
    edges = [(label[u], label[v]) for u, v in edges]
    root, top = label[0], [label[node] for node in levels[1]]
    facts = [("up", (v, u)) for u, v in edges]
    facts += [("down", (u, v)) for u, v in edges]
    facts += [("flat", (a, b)) for a in top for b in top if a != b]
    leaves = [label[node] for node in levels[-1]]
    cache: dict = {}

    def goal() -> Op:
        leaf = rng.choice(leaves)
        if leaf not in cache:
            rows = oracles.same_generation_answers(edges, root, leaf)
            cache[leaf] = frozenset((leaf, other) for other in rows)
        return Op("query", name, f"sg({leaf}, X)?", expect=cache[leaf])

    return _dataset(name, _SG_RULES, rng, facts), goal


def _bill_of_materials(name: str, depth: int, rng: random.Random):
    """Dataset plus a goal maker binding a seeded-random assembly."""
    edges, levels = _tree(depth)
    label = _labels(rng, len(edges) + 1)
    banned = [label[node] for node in range(len(label)) if node % 5 == 4]
    edges = [(label[u], label[v]) for u, v in edges]
    facts = [("subpart", edge) for edge in edges]
    facts += [("part", (part,)) for part in label]
    facts += [("banned", (part,)) for part in banned]
    assemblies = [label[node] for level in levels[2:4] for node in level]
    cache: dict = {}

    def goal() -> Op:
        part = rng.choice(assemblies)
        if part not in cache:
            rows = oracles.clean_answers(edges, banned, part)
            cache[part] = frozenset((part, other) for other in rows)
        return Op("query", name, f"clean({part}, X)?", expect=cache[part])

    return _dataset(name, _BOM_RULES, rng, facts), goal


def _zipf_positions(limit: int, count: int, offset: float) -> list:
    """*count* positions in ``range(limit)`` at evenly spaced quantiles of
    Zipf(1) (P(k) ~ 1/(k+1)), shifted by *offset* in [0, 1): a fixed
    multiset, so the mix of cheap and costly goals does not depend on
    the seed."""
    weights = [1.0 / (k + 1) for k in range(limit)]
    total = sum(weights)
    positions = []
    for i in range(count):
        target, running = (i + offset) / count * total, 0.0
        for k, weight in enumerate(weights):
            running += weight
            if running >= target:
                positions.append(k)
                break
    return positions


def _chain_closure(name: str, rules: str, length: int, bound_below: int,
                   rng: random.Random):
    """Chain dataset plus a block maker: goals ``anc(k, X)`` with k at
    fixed Zipf quantiles, so call cones overlap (k's calls contain
    every larger k's)."""
    label = _labels(rng, length)
    edges = [(label[i], label[i + 1]) for i in range(length - 1)]
    cache: dict = {}

    def block(index: int, size: int) -> list:
        ops = []
        for k in _zipf_positions(bound_below, size, (index * 0.618034) % 1.0):
            if k not in cache:
                rows = oracles.reachable(edges, label[k])
                cache[k] = frozenset((label[k], other) for other in rows)
            ops.append(Op("query", name, f"anc({label[k]}, X)?", expect=cache[k]))
        return ops

    facts = [("par", edge) for edge in edges]
    return _dataset(name, rules, rng, facts), block


# --- workloads ---------------------------------------------------------------

def build_cold_rulebase(seed: int) -> Inputs:
    rng = random.Random(f"cold-rulebase-{seed}")
    suite = rulebases.generate_suite(seed)
    ops = []
    for base in suite:
        by_pred: dict = {}
        for pred, row in base.facts:
            by_pred.setdefault(pred, []).append(row)
        model = oracles.naive_model(base.rules, by_pred)
        ops.append(
            Op("query", base.name, base.goal_text,
               expect=oracles.goal_rows(model, *base.goal))
        )
    blocks = []
    for _ in range(16):
        block = list(ops)
        rng.shuffle(block)
        blocks.extend(block)
    datasets = tuple(
        Dataset(base.name, base.text, len(base.rules), len(base.facts))
        for base in suite
    )
    return Inputs(
        workload="cold-rulebase",
        datasets=datasets,
        clients=(tuple(blocks),),
        warm=tuple(ops),
        sample=tuple(blocks[: 9 * len(ops)]),
    )


def build_serve_hot(seed: int) -> Inputs:
    rng = random.Random(f"serve-hot-{seed}")
    makers = [
        _same_generation("sg6", 6, rng),
        _same_generation("sg7", 7, rng),
        _bill_of_materials("bom5", 5, rng),
    ]
    clients = []
    for _ in range(2):
        ops = []
        for _ in range(50):
            block = [goal() for _, goal in makers for _ in range(4)]
            rng.shuffle(block)
            ops.extend(block)
        clients.append(tuple(ops))
    return Inputs(
        workload="serve-hot",
        datasets=tuple(dataset for dataset, _ in makers),
        clients=tuple(clients),
        warm=tuple(goal() for _, goal in makers),
        sample=clients[0][:204],
        server_args=(),
    )


def build_pool_heavy(seed: int) -> Inputs:
    rng = random.Random(f"pool-heavy-{seed}")
    makers = [
        _chain_closure("nltc56", _NLTC_RULES, 56, 28, rng),
        _chain_closure("nltc48", _NLTC_RULES, 48, 24, rng),
    ]
    clients = []
    for client in range(2):
        ops = []
        for index in range(12):
            block = [
                op for _, make in makers for op in make(2 * index + client, 12)
            ]
            rng.shuffle(block)
            ops.extend(block)
        clients.append(tuple(ops))
    return Inputs(
        workload="pool-heavy",
        datasets=tuple(dataset for dataset, _ in makers),
        clients=tuple(clients),
        warm=tuple(make(0, 1)[0] for _, make in makers),
        sample=clients[0][:72],
        server_args=("--processes", "2"),
    )


# One block of update-mix: R/A = remove / re-add an edge, D = query with
# product defaults (the update dropped its shape, so the first D after
# an update re-prepares), M = query the maintained model.  2+2 updates,
# 9 D, 7 M: the median query is a D and the 90th percentile an M; equal
# D/M shares would put the median on the boundary between the two.
_UPDATE_BLOCK = "RDMDDRDMMDADMDMADMDM"
_MAINTAINED = (("strategy", "seminaive"), ("maintain", "dred"))
CHAINS, CHAIN_EDGES = 16, 32


def build_update_mix(seed: int) -> Inputs:
    rng = random.Random(f"update-mix-{seed}")
    span = CHAIN_EDGES + 1
    label = _labels(rng, CHAINS * span)
    chains = [
        [label[chain * span + j] for j in range(span)] for chain in range(CHAINS)
    ]
    edges = {
        (nodes[j], nodes[j + 1]) for nodes in chains for j in range(CHAIN_EDGES)
    }
    dataset = _dataset(
        "chains", _TC_RULES, rng, [("edge", edge) for edge in sorted(edges)]
    )
    every_node = [node for nodes in chains for node in nodes[:-1]]

    def query(node, options=()) -> Op:
        rows = oracles.reachable(live, node)
        return Op(
            "query", "chains", f"tc({node}, X)?", options,
            expect=frozenset((node, other) for other in rows),
        )

    ops, live = [], set(edges)
    warm = (query(chains[0][0]), query(chains[0][0], _MAINTAINED))
    for block in range(40):
        # Which edge of the chain goes is a fixed sequence (DRed's cost
        # depends on it); which chains are hit is the seed's.
        picked = rng.sample(range(CHAINS), 2)
        removed = [
            (chains[chain][j], chains[chain][j + 1])
            for chain, j in zip(
                picked, ((block * 13) % CHAIN_EDGES, (block * 13 + 16) % CHAIN_EDGES)
            )
        ]
        pending_remove, pending_add = list(removed), list(removed)
        for kind in _UPDATE_BLOCK:
            if kind == "R":
                edge = pending_remove.pop(0)
                live.discard(edge)
                ops.append(Op("update", "chains", remove=(f"edge({edge[0]}, {edge[1]})",)))
            elif kind == "A":
                edge = pending_add.pop(0)
                live.add(edge)
                ops.append(Op("update", "chains", add=(f"edge({edge[0]}, {edge[1]})",)))
            elif kind == "D":
                # An unbroken chain, so every D does the same work.
                whole = rng.choice([c for c in range(CHAINS) if c not in picked])
                ops.append(query(chains[whole][0]))
            else:
                ops.append(query(rng.choice(every_node), _MAINTAINED))
    assert live == edges  # the list is cyclic: every removed edge came back
    return Inputs(
        workload="update-mix",
        datasets=(dataset,),
        clients=(tuple(ops),),
        warm=warm,
        sample=tuple(ops[:200]),
        server_args=(),
    )


WORKLOADS = {
    "cold-rulebase": (
        build_cold_rulebase,
        "library caller pays parse+analyse+transform+compile+fixpoint on many-rule, "
        "little-data programs: the only workload where front-end work shows",
    ),
    "serve-hot": (
        build_serve_hot,
        "cache-hit /query with sub-ms fixpoints over HTTP: serving-path overhead "
        "dominates, a kernel gain must not move it",
    ),
    "pool-heavy": (
        build_pool_heavy,
        "10-90 ms non-linear fixpoints with overlapping call cones on --processes 2: "
        "engine kernels dominate, serving overhead is a sliver",
    ),
    "update-mix": (
        build_update_mix,
        "base-fact updates beside default and maintained queries: read-side gains "
        "paid for by slower writes or invalidation show here",
    ),
}
WORKLOAD_NAMES = tuple(WORKLOADS)


def build(workload: str, seed: int) -> Inputs:
    return WORKLOADS[workload][0](seed)
