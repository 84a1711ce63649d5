"""The call/answer correspondence checker — Seki's Theorem 1, executable.

The paper's central claim is that bottom-up evaluation of the
Alexander-transformed program and OLDT resolution generate the *same*
subqueries and the *same* answers.  :func:`check_correspondence` runs both
strategies on a (program, query, database) triple and compares:

* **calls** — Alexander ``call_*`` facts vs OLDT tabled subgoals, both
  normalised to ``(predicate, adornment, bound-argument tuple)`` triples;
* **answers** — Alexander ``ans_*`` facts vs the union of OLDT table
  answers, per ``(predicate, adornment)``.

Caveat (docs/THEORY.md, "Why rectification matters"): OLDT tables are keyed by *variants*, so
a call pattern with a repeated variable (``p(X, X)``) is a distinct table
that the positional adornment normalisation cannot express.  Such bodies
do not occur in the standard workload suite; the checker reports any
mismatch honestly rather than normalising it away.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.atoms import Atom
from ..datalog.rules import Program
from ..engine.counters import EvaluationStats
from ..facts.database import Database
from .strategy import QueryResult, run_strategy

__all__ = ["Correspondence", "check_correspondence"]


@dataclass(frozen=True)
class Correspondence:
    """The outcome of one Alexander-vs-OLDT comparison.

    ``calls_*`` hold ``(predicate, adornment, bound-args)`` triples;
    ``answers_*`` hold ``(predicate, adornment, row)`` triples.
    """

    query: Atom
    calls_matched: frozenset[tuple]
    calls_only_alexander: frozenset[tuple]
    calls_only_oldt: frozenset[tuple]
    answers_matched: frozenset[tuple]
    answers_only_alexander: frozenset[tuple]
    answers_only_oldt: frozenset[tuple]
    alexander_stats: EvaluationStats
    oldt_stats: EvaluationStats
    alexander_result: QueryResult
    oldt_result: QueryResult

    @property
    def calls_agree(self) -> bool:
        return not self.calls_only_alexander and not self.calls_only_oldt

    @property
    def answers_agree(self) -> bool:
        return not self.answers_only_alexander and not self.answers_only_oldt

    @property
    def exact(self) -> bool:
        """True iff calls and answers coincide (the paper's Theorem 1)."""
        return self.calls_agree and self.answers_agree

    @property
    def inference_ratio(self) -> float:
        """Alexander inferences per OLDT inference (Theorem 2's constant).

        Infinity when OLDT recorded zero inferences but Alexander did not.
        """
        if self.oldt_stats.inferences == 0:
            return 0.0 if self.alexander_stats.inferences == 0 else float("inf")
        return self.alexander_stats.inferences / self.oldt_stats.inferences

    def summary(self) -> str:
        lines = [
            f"query: {self.query}",
            f"calls:   {len(self.calls_matched)} shared, "
            f"{len(self.calls_only_alexander)} Alexander-only, "
            f"{len(self.calls_only_oldt)} OLDT-only",
            f"answers: {len(self.answers_matched)} shared, "
            f"{len(self.answers_only_alexander)} Alexander-only, "
            f"{len(self.answers_only_oldt)} OLDT-only",
            f"inferences: alexander={self.alexander_stats.inferences} "
            f"oldt={self.oldt_stats.inferences} "
            f"ratio={self.inference_ratio:.2f}",
            f"exact: {self.exact}",
        ]
        return "\n".join(lines)


def _answer_triples(result: QueryResult) -> frozenset[tuple]:
    triples = set()
    for (predicate, adornment), rows in result.answer_facts.items():
        for row in rows:
            triples.add((predicate, adornment, row))
    return frozenset(triples)


def check_correspondence(
    program: Program,
    query: Atom,
    database: Database | None = None,
    budget=None,
) -> Correspondence:
    """Run Alexander (bottom-up) and OLDT on the same query and compare.

    Args:
        budget: optional :class:`repro.engine.budget.EvaluationBudget`,
            applied to *each side independently* — every run gets the
            budget's full allowance, so all four limits stay meaningful
            (a shared clock would leave the counter limits watching the
            wrong side's statistics).
    """
    alexander = run_strategy("alexander", program, query, database, budget=budget)
    oldt = run_strategy("oldt", program, query, database, budget=budget)

    alexander_calls = alexander.calls
    oldt_calls = oldt.calls
    alexander_answers = _answer_triples(alexander)
    oldt_answers = _answer_triples(oldt)

    return Correspondence(
        query=query,
        calls_matched=frozenset(alexander_calls & oldt_calls),
        calls_only_alexander=frozenset(alexander_calls - oldt_calls),
        calls_only_oldt=frozenset(oldt_calls - alexander_calls),
        answers_matched=frozenset(alexander_answers & oldt_answers),
        answers_only_alexander=frozenset(alexander_answers - oldt_answers),
        answers_only_oldt=frozenset(oldt_answers - alexander_answers),
        alexander_stats=alexander.stats,
        oldt_stats=oldt.stats,
        alexander_result=alexander,
        oldt_result=oldt,
    )
