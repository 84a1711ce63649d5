"""Differential tests: DRed deletion vs the recompute oracle.

:mod:`repro.engine.maintain` claims DRed is **bit-identical** to the
full-recompute oracle: after every operation of any interleaved
add/remove stream, the decoded fact sets match exactly.  These tests pin
that claim on seeded random programs and seeded random streams, at
*every* interleaving point.

The streams run over three generators: the shared recursive generator
from the reference suite (negation disabled — the incremental engine is
positive-only; built-in ``!=`` tests still occur), a generator of the
rule forms DRed's guarded re-derivation must handle, and a
non-recursive generator (p0 over EDB, p1 over EDB∪{p0}).  Beyond the
facts, every operation's counters must be identical with metrics
collection on and off.
"""

import random

import pytest

from repro.datalog.parser import parse_program
from repro.engine.incremental import IncrementalEngine
from repro.engine.scheduler import build_schedule
from repro.errors import ProgramError
from repro.obs import collect

from .test_reference import CONSTANTS, EDB, SEEDS, VARS, random_source

def _facts(database) -> dict[str, frozenset]:
    """The non-empty relations' fact sets, per predicate."""
    return {
        relation.name: relation.rows()
        for relation in database.relations()
        if len(relation)
    }


def nonrecursive_source(seed: int) -> str:
    """A random positive *non-recursive* program with embedded facts.

    Mirrors :func:`random_source` but stratifies the IDB without cycles:
    ``p0`` bodies draw from the EDB only, ``p1`` bodies from EDB ∪ {p0}.
    """
    rng = random.Random(seed * 7919 + 13)
    lines = []
    for predicate in EDB:
        for _ in range(rng.randint(4, 9)):
            first, second = rng.choices(CONSTANTS, k=2)
            lines.append(f"{predicate}({first}, {second}).")
    for head_pred, body_preds in (("p0", EDB), ("p1", EDB + ["p0"])):
        for _ in range(rng.randint(2, 4)):
            body = []
            bound = []
            for _ in range(rng.randint(1, 3)):
                pred = rng.choice(body_preds)
                args = [
                    rng.choice(VARS)
                    if rng.random() < 0.8
                    else rng.choice(CONSTANTS)
                    for _ in range(2)
                ]
                body.append(f"{pred}({args[0]}, {args[1]})")
                bound.extend(arg for arg in args if arg in VARS)
            if bound and rng.random() < 0.3:
                left = rng.choice(bound)
                right = rng.choice(bound + CONSTANTS[:1])
                body.append(f"{left} != {right}")
            head_args = rng.choices(bound if bound else CONSTANTS, k=2)
            lines.append(
                f"{head_pred}({head_args[0]}, {head_args[1]}) :- "
                f"{', '.join(body)}."
            )
    return "\n".join(lines)


def guarded_source(seed: int) -> str:
    """A random recursive program built from the rule forms DRed's
    guarded re-derivation reads candidates through: constant heads,
    repeated head variables (``p(X, X)``), built-in tests and
    cross-product bodies, beside a recursive closure."""
    rng = random.Random(seed * 6151 + 3)
    lines = [
        f"{predicate}({first}, {second})."
        for predicate in EDB
        for first, second in (
            rng.choices(CONSTANTS, k=2) for _ in range(rng.randint(5, 9))
        )
    ]
    const = rng.choice(CONSTANTS)
    forms = [
        f"p1({const}, Y) :- p0(Y, Z).",
        "p1(X, X) :- e1(X, Y), p0(Y, X).",
        "p1(X, Y) :- p0(X, Y), X != Y.",
        "p1(X, Y) :- e0(X, Z), e1(Y, W).",
        f"p0(X, Y) :- p1(X, Z), e1(Z, Y), Y != {const}.",
        f"p1(X, X) :- p0(X, {const}), e0(Y, X).",
        "p0(X, Y) :- p1(Y, X), e0(X, Z), Z != X.",
    ]
    lines += [
        "p0(X, Y) :- e0(X, Y).",
        "p0(X, Y) :- e0(X, Z), p0(Z, Y).",
        *rng.sample(forms, k=rng.randint(3, len(forms))),
    ]
    return "\n".join(lines)


def random_stream(seed: int, length: int = 14) -> list[tuple[str, list[str]]]:
    """A seeded interleaved mutation stream over the EDB predicates.

    Mixes singleton adds/removes and batches, including no-ops (adding
    present facts, removing absent ones) — the differential claim has to
    hold through those too.
    """
    rng = random.Random(seed * 104729 + 7)

    def atom() -> str:
        predicate = rng.choice(EDB)
        first, second = rng.choices(CONSTANTS, k=2)
        return f"{predicate}({first}, {second})"

    stream: list[tuple[str, list[str]]] = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.35:
            stream.append(("add", [atom()]))
        elif roll < 0.55:
            stream.append(
                ("add_many", [atom() for _ in range(rng.randint(2, 4))])
            )
        elif roll < 0.85:
            stream.append(("remove", [atom()]))
        else:
            stream.append(
                ("remove_many", [atom() for _ in range(rng.randint(2, 4))])
            )
    return stream


def _run_lockstep(source: str, stream, maintenance: str) -> None:
    """Run *stream* against a fast engine and the recompute oracle in
    lockstep, asserting bit-identity at every interleaving point."""
    program = parse_program(source)
    fast = IncrementalEngine(program, maintenance=maintenance)
    oracle = IncrementalEngine(program, maintenance="recompute")
    assert _facts(fast.database) == _facts(oracle.database)
    for step, (op, atoms) in enumerate(stream):
        if op == "add":
            got = fast.add(atoms[0])
            expected = oracle.add(atoms[0])
        elif op == "add_many":
            got = fast.add_many(atoms)
            expected = oracle.add_many(atoms)
        elif op == "remove":
            got = fast.remove(atoms[0])
            expected = oracle.remove(atoms[0])
        else:
            got = fast.remove_many(atoms)
            expected = oracle.remove_many(atoms)
        assert got == expected, (maintenance, step, op)
        assert _facts(fast.database) == _facts(
            oracle.database
        ), (maintenance, step, op)


def _apply(engine: IncrementalEngine, op: str, atoms: list[str]):
    return getattr(engine, op)(atoms if op.endswith("_many") else atoms[0])


def _run_axes(source: str, stream, maintenance: str) -> None:
    """Run *stream* on two engines — one with metrics collection on, one
    with it off — and the recompute oracle in lockstep: each operation's
    returned facts, resulting fact set and counters (every
    ``EvaluationStats`` field) are identical across the two, and the
    facts equal the oracle's."""
    program = parse_program(source)
    with collect():
        observed = IncrementalEngine(program, maintenance=maintenance)
    engines = {
        "plain": IncrementalEngine(program, maintenance=maintenance),
        "observed": observed,
    }
    oracle = IncrementalEngine(program, maintenance="recompute")
    builds = {axis: engine.stats.as_dict() for axis, engine in engines.items()}
    assert builds["plain"] == builds["observed"], builds
    for step, (op, atoms) in enumerate(stream):
        expected = _apply(oracle, op, atoms)
        outcomes = {}
        for axis, engine in engines.items():
            before = engine.stats.as_dict()
            if axis == "observed":
                with collect():
                    got = _apply(engine, op, atoms)
            else:
                got = _apply(engine, op, atoms)
            spent = {
                name: value - before[name]
                for name, value in engine.stats.as_dict().items()
            }
            outcomes[axis] = (got, _facts(engine.database), spent)
        reference = outcomes["plain"]
        assert reference[:2] == (expected, _facts(oracle.database)), (
            maintenance, step, op,
        )
        assert outcomes["observed"] == reference, (maintenance, step, op)


@pytest.mark.parametrize(
    "maintenance,generator",
    [
        ("dred", lambda seed: random_source(seed, negation=False)),
        ("dred", guarded_source),
        ("dred", nonrecursive_source),
    ],
    ids=["dred-random", "dred-guarded", "dred-nonrecursive"],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_counters_per_operation_match_across_axes(seed, maintenance, generator):
    _run_axes(generator(seed), random_stream(seed, length=18), maintenance)


def test_guarded_generator_rederives():
    """The generator must exercise what it is for: deletions whose
    over-deleted facts the guarded executors bring back."""
    with collect() as metrics:
        for seed in SEEDS:
            _run_lockstep(
                guarded_source(seed), random_stream(seed, length=18), "dred"
            )
    assert metrics.counters["maintain.dred.rederived"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_dred_matches_recompute(seed):
    _run_lockstep(
        random_source(seed, negation=False), random_stream(seed), "dred"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_dred_matches_recompute_on_nonrecursive(seed):
    """DRed is not restricted to recursive programs; pin it on the
    non-recursive generator too."""
    _run_lockstep(nonrecursive_source(seed), random_stream(seed), "dred")


def test_nonrecursive_generator_is_nonrecursive():
    """The non-recursive leg must actually exercise what it claims."""
    for seed in SEEDS:
        schedule = build_schedule(
            parse_program(nonrecursive_source(seed)).without_facts()
        )
        assert not any(c.recursive for c in schedule.components)


@pytest.mark.parametrize(
    "generator",
    [lambda seed: random_source(seed, negation=False), nonrecursive_source],
    ids=["dred", "dred-nonrecursive"],
)
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_asserted_idb_facts_survive_streams(seed, generator):
    """Asserted IDB facts carry external support: they are never
    cascaded away, and rebuilds re-seed them.  The assertion lands on an
    IDB fact that may already be derivable, so the external support must
    be recorded either way."""
    program = parse_program(generator(seed))
    engines = {
        mode: IncrementalEngine(program, maintenance=mode)
        for mode in ("recompute", "dred")
    }
    asserted = "p0(c0, c1)"
    baseline = {mode: engine.add(asserted) for mode, engine in engines.items()}
    assert baseline["dred"] == baseline["recompute"]
    for op, atoms in random_stream(seed, length=8):
        expected = _apply(engines["recompute"], op, atoms)
        assert _apply(engines["dred"], op, atoms) == expected
        for engine in engines.values():
            assert engine.holds(asserted)
        assert _facts(engines["dred"].database) == _facts(
            engines["recompute"].database
        )


def test_unknown_maintenance_mode_rejected():
    program = parse_program("edge(a, b). path(X, Y) :- edge(X, Y).")
    for mode in ("eager", "counting"):
        with pytest.raises(ProgramError, match="unknown maintenance mode.*'dred'"):
            IncrementalEngine(program, maintenance=mode)
