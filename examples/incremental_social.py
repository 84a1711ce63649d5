#!/usr/bin/env python3
"""Incremental maintenance: a live follower graph.

A social network keeps ``influences`` — the transitive closure of
``follows`` — materialised while edges stream in.  Each insertion
continues the semi-naive fixpoint from the new edge instead of
recomputing, so the per-update work is proportional to the *new*
derivations (watch the counter in the output).

Run with::

    python examples/incremental_social.py
"""

from repro import IncrementalEngine, parse_program

PROGRAM = parse_program(
    """
    influences(X, Y) :- follows(X, Y).
    influences(X, Y) :- follows(X, Z), influences(Z, Y).
    """
)

STREAM = [
    ("ada", "grace"),
    ("grace", "alan"),
    ("alan", "kurt"),
    ("edsger", "ada"),
    ("kurt", "alonzo"),
    # The bridging edge: connects edsger's chain into alonzo's cone.
    ("barbara", "edsger"),
]


def main() -> None:
    engine = IncrementalEngine(PROGRAM)
    print("streaming follows-edges; influences is kept materialised\n")
    for source, target in STREAM:
        before = engine.stats.inferences
        new_facts = engine.add(f"follows({source}, {target})")
        new_influences = sorted(
            f"{a} -> {b}"
            for predicate, (a, b) in new_facts
            if predicate == "influences"
        )
        cost = engine.stats.inferences - before
        print(f"+ follows({source}, {target})   [{cost} inferences]")
        for entry in new_influences:
            print(f"    new: {entry}")
    print("\nwho does barbara influence?")
    for atom in engine.query("influences(barbara, X)?"):
        print("  ", atom)
    print("\nremove follows(grace, alan) (DRed: over-delete, re-derive):")
    engine.remove("follows(grace, alan)")
    remaining = engine.query("influences(barbara, X)?")
    print(f"   barbara now influences {len(remaining)} people "
          f"({', '.join(str(a.args[1]) for a in remaining)})")


if __name__ == "__main__":
    main()
