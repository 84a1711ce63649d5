"""The experiment harness: run strategies over scenarios, collect counters.

Every benchmark in ``benchmarks/`` is a thin wrapper around
:func:`measure`, :func:`sweep`, or :func:`scaling_series`; the harness
handles divergence (plain SLD on cyclic data), answer cross-checking, and
uniform row construction so the printed tables always carry the same
columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.strategy import QueryResult, run_strategy
from ..errors import BudgetExceededError
from ..workloads.programs import Scenario

__all__ = [
    "Measurement",
    "measure",
    "measurement_record",
    "sweep",
    "scaling_series",
    "assert_same_answers",
]

DIVERGED = "diverged"


@dataclass(frozen=True)
class Measurement:
    """One (scenario, query, strategy) data point."""

    scenario: str
    query: str
    strategy: str
    answers: int | str
    inferences: int | str
    attempts: int | str
    facts: int | str
    calls: int | str
    diverged: bool
    result: QueryResult | None
    seconds: float = 0.0

    def row(self) -> tuple:
        return (
            self.scenario,
            self.query,
            self.strategy,
            self.answers,
            self.inferences,
            self.attempts,
            self.facts,
            self.calls,
            f"{self.seconds * 1e3:.2f}",
        )

    @staticmethod
    def headers() -> tuple[str, ...]:
        return (
            "scenario",
            "query",
            "strategy",
            "answers",
            "inferences",
            "attempts",
            "facts",
            "calls",
            "ms",
        )


def measure(
    scenario: Scenario,
    strategy: str,
    query_index: int = 0,
    budget=None,
) -> Measurement:
    """Run one strategy on one scenario query; divergence becomes a row.

    Wall-clock time (``seconds``, monotonic) is measured around the
    strategy call — for diverged runs it covers the time until the budget
    tripped.

    Args:
        budget: optional :class:`repro.engine.budget.EvaluationBudget`
            (or a running :class:`~repro.engine.budget.Checkpoint`, which
            lets one wall clock bound a whole sweep — the CI gate does
            this).  Exhaustion is reported like any other divergence: a
            DIVERGED row, never an exception.
    """
    query = scenario.query(query_index)
    start = time.perf_counter()
    try:
        result = run_strategy(
            strategy, scenario.program, query, scenario.database, budget=budget
        )
    except BudgetExceededError:
        return Measurement(
            scenario=scenario.name,
            query=str(query),
            strategy=strategy,
            answers=DIVERGED,
            inferences=DIVERGED,
            attempts=DIVERGED,
            facts=DIVERGED,
            calls=DIVERGED,
            diverged=True,
            result=None,
            seconds=time.perf_counter() - start,
        )
    elapsed = time.perf_counter() - start
    stats = result.stats
    return Measurement(
        scenario=scenario.name,
        query=str(query),
        strategy=strategy,
        answers=len(result.answers),
        inferences=stats.inferences,
        attempts=stats.attempts,
        facts=stats.facts_derived,
        calls=stats.calls if stats.calls else len(result.calls),
        diverged=False,
        result=result,
        seconds=elapsed,
    )


def measurement_record(measurement: Measurement) -> dict:
    """A :class:`Measurement` as a JSON-ready bench-artifact entry.

    The ``id`` is ``<scenario>/<query>/<strategy>`` — unique within one
    benchmark's sweep.
    """
    return {
        "id": f"{measurement.scenario}/{measurement.query}/{measurement.strategy}",
        "scenario": measurement.scenario,
        "query": measurement.query,
        "strategy": measurement.strategy,
        "answers": measurement.answers,
        "inferences": measurement.inferences,
        "attempts": measurement.attempts,
        "facts": measurement.facts,
        "calls": measurement.calls,
        "diverged": measurement.diverged,
        "seconds": measurement.seconds,
    }


def sweep(
    scenarios: Iterable[Scenario],
    strategies: Sequence[str],
    query_index: int = 0,
    check_agreement: bool = True,
    budget=None,
) -> list[Measurement]:
    """Cross product of scenarios × strategies.

    Args:
        check_agreement: when set, every non-divergent strategy must
            return the same answer set as the first non-divergent one
            (raises AssertionError otherwise) — benches double as
            correctness checks.
        budget: optional per-measurement budget (see :func:`measure`).
    """
    measurements: list[Measurement] = []
    for scenario in scenarios:
        per_scenario = [
            measure(scenario, strategy, query_index, budget=budget)
            for strategy in strategies
        ]
        if check_agreement:
            assert_same_answers(per_scenario)
        measurements.extend(per_scenario)
    return measurements


def assert_same_answers(measurements: Sequence[Measurement]) -> None:
    """Every completed measurement must agree on the answer set."""
    reference: frozenset | None = None
    reference_strategy = ""
    for measurement in measurements:
        if measurement.diverged or measurement.result is None:
            continue
        rows = measurement.result.answer_rows
        if reference is None:
            reference = rows
            reference_strategy = measurement.strategy
        elif rows != reference:
            raise AssertionError(
                f"{measurement.strategy} disagrees with {reference_strategy} "
                f"on {measurement.scenario} / {measurement.query}: "
                f"{sorted(rows)} != {sorted(reference)}"
            )


def scaling_series(
    make_scenario: Callable[[int], Scenario],
    sizes: Sequence[int],
    strategies: Sequence[str],
    query_index: int = 0,
    metric: str = "inferences",
) -> dict[str, list[tuple[int, object]]]:
    """Inference-count (or other metric) series per strategy over a size sweep.

    Returns ``{strategy: [(size, value), ...]}`` ready for
    :func:`repro.bench.reporting.render_series`.
    """
    series: dict[str, list[tuple[int, object]]] = {name: [] for name in strategies}
    for size in sizes:
        scenario = make_scenario(size)
        per_size = [
            measure(scenario, strategy, query_index) for strategy in strategies
        ]
        assert_same_answers(per_size)
        for measurement in per_size:
            value = getattr(measurement, metric)
            series[measurement.strategy].append((size, value))
    return series
