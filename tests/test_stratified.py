"""Unit tests for stratified evaluation with negation."""

import pytest

from repro.analysis.stratify import stratify
from repro.datalog.parser import parse_program
from repro.engine.counters import EvaluationStats
from repro.engine.naive import naive_fixpoint
from repro.engine.seminaive import seminaive_fixpoint
from repro.engine.stratified import stratified_fixpoint
from repro.errors import StratificationError
from repro.facts.database import Database
from repro.workloads import bill_of_materials, unreachable

THREE_STRATA = """
    base(a). base(b). base(c).
    first(X) :- base(X), picked(X).
    picked(a).
    second(X) :- base(X), not first(X).
    third(X) :- base(X), not second(X).
"""


def _facts(database):
    return {p: database.rows(p) for p in database.predicates() if database.rows(p)}


class TestStratifiedFixpoint:
    def test_unreachable_pairs(self, stratified_source):
        program = parse_program(stratified_source)
        completed, _ = stratified_fixpoint(program)
        # Chain a->b->c->d: d reaches nothing; nothing reaches a.
        unreach = completed.rows("unreach")
        assert ("d", "a") in unreach
        assert ("a", "a") in unreach  # no self-loop in reach
        assert ("a", "d") not in unreach

    def test_three_strata(self):
        program = parse_program(THREE_STRATA)
        completed, _ = stratified_fixpoint(program)
        assert completed.rows("second") == {("b",), ("c",)}
        assert completed.rows("third") == {("a",)}

    def test_negation_sees_completed_lower_stratum(self):
        # The recursive closure must be complete before the negation runs.
        program = parse_program(
            """
            e(a,b). e(b,c).
            node(a). node(b). node(c).
            r(X,Y) :- e(X,Y).
            r(X,Y) :- e(X,Z), r(Z,Y).
            island(X) :- node(X), not touched(X).
            touched(X) :- r(X,Y).
            touched(Y) :- r(X,Y).
            """
        )
        completed, _ = stratified_fixpoint(program)
        assert completed.rows("island") == frozenset()

    def test_non_stratifiable_program_rejected(self):
        program = parse_program("win(X) :- move(X,Y), not win(Y). move(a,b).")
        for engine in ("seminaive", "naive"):
            with pytest.raises(StratificationError):
                stratified_fixpoint(program, engine=engine)

    def test_engine_choice_naive(self, stratified_source):
        program = parse_program(stratified_source)
        semi, _ = stratified_fixpoint(program, engine="seminaive")
        naive, _ = stratified_fixpoint(program, engine="naive")
        assert semi.rows("unreach") == naive.rows("unreach")
        assert semi.rows("reach") == naive.rows("reach")

        # One scheduled fixpoint over the whole program derives and counts
        # exactly what closing the strata one after another does.
        scenarios = [
            (program, None),
            (parse_program(THREE_STRATA), None),
            *((s.program, s.database) for s in (unreachable(), bill_of_materials(depth=3))),
        ]
        for rules, database in scenarios:
            for engine, fixpoint in (("seminaive", seminaive_fixpoint), ("naive", naive_fixpoint)):
                model, stats = stratified_fixpoint(rules, database, engine=engine)
                whole, whole_stats = fixpoint(rules, database)
                staged = database.copy() if database is not None else Database()
                staged.add_atoms(rules.facts)
                staged_stats = EvaluationStats()
                for stratum in stratify(rules).strata:
                    staged, _ = fixpoint(stratum, staged, staged_stats)
                for other, other_stats in ((whole, whole_stats), (staged, staged_stats)):
                    assert _facts(model) == _facts(other), engine
                    assert stats.as_dict() == other_stats.as_dict(), engine

    def test_negation_over_pure_edb(self):
        program = parse_program(
            """
            person(ann). person(bob).
            smoker(bob).
            healthy(X) :- person(X), not smoker(X).
            """
        )
        completed, _ = stratified_fixpoint(program)
        assert completed.rows("healthy") == {("ann",)}

    def test_stats_accumulate_across_strata(self, stratified_source):
        program = parse_program(stratified_source)
        _, stats = stratified_fixpoint(program)
        assert stats.facts_derived == len(
            stratified_fixpoint(program)[0].rows("reach")
        ) + len(stratified_fixpoint(program)[0].rows("unreach"))
