"""A call-table hit is rendered from stored rows and text, never from
atoms: the reply must still be byte-identical to the miss that filled
the entry and to ``render_answers`` of a fresh :meth:`Engine.query`.

Covered on the threaded :class:`~repro.serve.service.QueryService` and
the pooled :class:`~repro.serve.pool.PooledService`, and at the library
level on :meth:`PreparedQuery.execute`, whose hit builds its ``answers``
only when they are read.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import Engine
from repro.core.prepare import prepare_query
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_program
from repro.obs import ThreadSafeMetrics, collect
from repro.serve import PooledService, QueryService

SOURCE = r"""
e(5, "a b").
e(5, -3).
e(-3, "say \"hi\"").
e(-3, "back\\slash").
e(-3, "Upper").
e(-3, 7).
e(7, "x, y)").
e(9, 10).
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
"""

GOALS = ("p(5, X)?", "p(5, Y)?", "p(-3, X)?", "p(42, X)?", "p(X, Y)?")


def fresh_answers(source: str, goal: str) -> dict:
    result = Engine(parse_program(source)).query(goal)
    return QueryService.render_answers(result.answers)


def canonical(answers: dict) -> str:
    return json.dumps(answers, sort_keys=True)


@pytest.fixture(scope="module", params=["threaded", "pooled"])
def service(request):
    with collect(ThreadSafeMetrics()):
        if request.param == "threaded":
            yield QueryService()
        else:
            pooled = PooledService(processes=2)
            try:
                yield pooled
            finally:
                pooled.close()


def replies(service, dataset: str, goal: str) -> list:
    # Round-robin over at most two workers: five sends are a miss and at
    # least one hit on every worker.
    return [service.query(dataset, goal) for _ in range(5)]


class TestRenderedHits:
    @pytest.mark.parametrize("goal", GOALS)
    def test_hit_renders_like_miss_and_fresh_engine(self, service, goal):
        name = f"render-{GOALS.index(goal)}"
        service.load(name, program_text=SOURCE)
        got = replies(service, name, goal)
        assert not got[0]["table_hit"] and got[-1]["table_hit"]
        expected = canonical(fresh_answers(SOURCE, goal))
        for reply in got:
            assert canonical(reply["answers"]) == expected
            assert reply["stats"] == got[0]["stats"]

    def test_quoted_and_negative_constants_survive(self, service):
        service.load("render-text", program_text=SOURCE)
        hit = replies(service, "render-text", "p(5, X)?")[-1]
        assert hit["table_hit"]
        assert 'p(5, "say \\"hi\\"")' in hit["answers"]["atoms"]
        assert 'p(5, "back\\\\slash")' in hit["answers"]["atoms"]
        assert 'p(5, "x, y)")' in hit["answers"]["atoms"]
        assert "p(5, -3)" in hit["answers"]["atoms"]
        assert [5, -3] in hit["answers"]["rows"]

    def test_empty_answer_set(self, service):
        service.load("render-empty", program_text=SOURCE)
        hit = replies(service, "render-empty", "p(42, X)?")[-1]
        assert hit["table_hit"]
        assert hit["answers"] == {"rows": [], "atoms": [], "count": 0}

    def test_renamed_goal_is_a_hit_rendered_identically(self, service):
        service.load("render-rename", program_text=SOURCE)
        first = replies(service, "render-rename", "p(5, X)?")
        renamed = service.query("render-rename", "p(5, Y)?")
        assert renamed["table_hit"]
        assert canonical(renamed["answers"]) == canonical(first[0]["answers"])

    def test_hit_after_in_footprint_update_renders_new_answers(self, service):
        service.load("render-update", program_text=SOURCE)
        replies(service, "render-update", "p(5, X)?")
        source = SOURCE
        for update in ({"add": ['e(7, "new \\"one\\"")', "e(7, -8)"]},
                       {"remove": ["e(-3, 7)"]}):
            service.update("render-update", **update)
            source += "".join(f"{fact}.\n" for fact in update.get("add", ()))
            if "remove" in update:
                source = source.replace("e(-3, 7).\n", "")
            got = replies(service, "render-update", "p(5, X)?")
            assert not got[0]["table_hit"] and got[-1]["table_hit"]
            expected = canonical(fresh_answers(source, "p(5, X)?"))
            for reply in got:
                assert canonical(reply["answers"]) == expected


class TestLibraryHitAnswers:
    @pytest.mark.parametrize("goal", GOALS)
    def test_lazy_hit_answers_equal_a_fresh_run(self, goal):
        program = parse_program(SOURCE)
        prepared = prepare_query(program, goal)
        miss = prepared.execute(goal)
        hit = prepared.execute(goal)
        assert hit.table_hit and not miss.table_hit
        fresh = prepare_query(program, goal).execute(goal)
        for result in (miss, hit):
            assert type(result.answers) is tuple
            assert result.answers == fresh.answers
            assert result == fresh
            assert result.rendered == (
                tuple(atom.ground_key() for atom in fresh.answers),
                tuple(str(atom) for atom in fresh.answers),
            )
            for got, want in zip(result.answers, fresh.answers):
                assert type(got) is Atom
                assert [type(arg) for arg in got.args] == [
                    type(arg) for arg in want.args
                ]
                assert [type(arg.value) for arg in got.args] == [
                    type(arg.value) for arg in want.args
                ]

    def test_hit_builds_atoms_only_when_read(self):
        prepared = prepare_query(parse_program(SOURCE), "p(5, X)?")
        prepared.execute("p(5, X)?")
        hit = prepared.execute("p(5, X)?")
        assert hit.__dict__["_answers"] is None
        answers = hit.answers
        assert hit.answers is answers  # built once
