"""Resource-governed evaluation: budgets and cooperative checkpoints.

Every engine in the library runs a fixpoint (or a resolution search) that
is unbounded by construction — a non-linear rule set or a hostile query
can pin a worker indefinitely.  This module makes termination a
first-class, *cooperative* concern:

* :class:`EvaluationBudget` declares the limits a caller is willing to
  spend: wall-clock seconds, fixpoint iterations (scheduler steps for the
  top-down engines), derived facts, and match attempts.  All limits are
  optional; an all-``None`` budget is equivalent to no budget.
* :class:`Checkpoint` is the live monitor engines poll.  Engines call
  :meth:`Checkpoint.check_round` at round boundaries (every limit is
  checked exactly) and :meth:`Checkpoint.poll` inside long match loops
  (a strided check of the wall clock and the attempt count, so a single
  never-ending join cannot outrun round-boundary governance).

Exhaustion raises :class:`repro.errors.BudgetExceededError` carrying
*which* limit tripped, the **partial database** computed so far (a sound
prefix of the full model — bottom-up evaluation is inflationary, so every
fact present is genuinely derivable), and the :class:`EvaluationStats`
accumulated to that point.  Callers get graceful degradation instead of a
lost worker; the bench harness turns trips into ``diverged`` rows.

Nested evaluations (stratified → per-stratum fixpoint, transformation
strategies → semi-naive) share one checkpoint so the budget governs the
*whole* evaluation: engine entry points accept either an
:class:`EvaluationBudget` (a fresh checkpoint is started) or an
already-running :class:`Checkpoint` (the clock and counters keep
accumulating); :func:`ensure_checkpoint` implements that contract.

With no budget supplied every hook is a ``checkpoint is None`` test, and
derived fact sets are bit-identical to ungoverned evaluation (pinned by
``tests/test_budget.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import BudgetExceededError
from ..obs import get_metrics

if TYPE_CHECKING:  # pragma: no cover
    from ..facts.database import Database
    from .counters import EvaluationStats

__all__ = ["EvaluationBudget", "Checkpoint", "ensure_checkpoint"]

# How many poll() calls pass between strided wall-clock/attempt checks.
# Must be a power of two (poll uses a bitmask, not a modulo).
POLL_STRIDE = 1024


@dataclass(frozen=True)
class EvaluationBudget:
    """Declarative resource limits for one evaluation.

    Attributes:
        wall_clock_seconds: abort after this much elapsed (monotonic)
            time.  Checked at round boundaries and every
            :data:`POLL_STRIDE` match attempts, so precision is
            cooperative, not preemptive.
        max_iterations: fixpoint rounds (bottom-up) or scheduler steps /
            outer rounds (top-down) allowed.
        max_facts: distinct derived facts (``stats.facts_derived``)
            allowed.
        max_attempts: candidate match probes (``stats.attempts``)
            allowed — the finest-grained work measure the engines share.

    ``None`` means unlimited.  A budget with every field ``None`` is
    valid and never trips.
    """

    wall_clock_seconds: float | None = None
    max_iterations: int | None = None
    max_facts: int | None = None
    max_attempts: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "wall_clock_seconds",
            "max_iterations",
            "max_facts",
            "max_attempts",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"budget limit {name} must be positive, got {value!r}")

    @property
    def unlimited(self) -> bool:
        """True iff no limit is set (the budget can never trip)."""
        return (
            self.wall_clock_seconds is None
            and self.max_iterations is None
            and self.max_facts is None
            and self.max_attempts is None
        )

    def start(self, stats: "EvaluationStats") -> "Checkpoint":
        """A running :class:`Checkpoint` monitoring *stats* (clock starts now)."""
        return Checkpoint(self, stats)


class Checkpoint:
    """The live monitor one governed evaluation polls.

    One checkpoint spans the whole evaluation, across nested engines: the
    wall clock starts at construction and the limits are checked against
    the single :class:`EvaluationStats` record the evaluation accumulates
    into.  Engines :meth:`bind` the working database (or a callable
    producing one) so a trip can carry the partial result out.
    """

    __slots__ = ("budget", "stats", "_deadline", "_polls", "_partial")

    def __init__(self, budget: EvaluationBudget, stats: "EvaluationStats"):
        self.budget = budget
        self.stats = stats
        self._deadline = (
            time.monotonic() + budget.wall_clock_seconds
            if budget.wall_clock_seconds is not None
            else None
        )
        self._polls = 0
        self._partial: "Database | Callable[[], Database] | None" = None

    def bind(self, partial: "Database | Callable[[], Database]") -> "Checkpoint":
        """Attach the evaluation's working database (or a thunk building
        one) so a later trip can report the partial result; returns self.

        Engines rebind as evaluation proceeds (e.g. per stratum); the most
        recent binding wins, which is also the most complete state.
        """
        self._partial = partial
        return self

    # --- checks ---------------------------------------------------------------
    def check_round(self) -> None:
        """Full check at a round boundary: every limit, exactly.

        Raises:
            BudgetExceededError: when any limit is exhausted.
        """
        budget = self.budget
        stats = self.stats
        if (
            budget.max_iterations is not None
            and stats.iterations >= budget.max_iterations
        ):
            self._trip(
                "iterations",
                f"evaluation reached {stats.iterations} fixpoint "
                f"iterations (budget: {budget.max_iterations})",
            )
        if (
            budget.max_facts is not None
            and stats.facts_derived >= budget.max_facts
        ):
            self._trip(
                "facts",
                f"evaluation derived {stats.facts_derived} facts "
                f"(budget: {budget.max_facts})",
            )
        self._check_work()

    def poll(self) -> None:
        """Cheap strided check for long match loops.

        Call once per match attempt; every :data:`POLL_STRIDE` calls the
        wall clock and the attempt count are checked (iterations and facts
        only move at round boundaries, where :meth:`check_round` covers
        them).
        """
        self._polls += 1
        if self._polls & (POLL_STRIDE - 1):
            return
        self._check_work()

    def _check_work(self) -> None:
        budget = self.budget
        attempts = self.stats.attempts
        if budget.max_attempts is not None and attempts >= budget.max_attempts:
            self._trip(
                "attempts",
                f"evaluation made {attempts} match attempts "
                f"(budget: {budget.max_attempts})",
            )
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self._trip(
                "wall_clock",
                f"evaluation exceeded its wall-clock budget of "
                f"{budget.wall_clock_seconds}s",
            )

    # --- tripping -------------------------------------------------------------
    def _partial_database(self) -> "Database | None":
        partial = self._partial
        if partial is None:
            return None
        return partial() if callable(partial) else partial

    def _trip(self, limit: str, message: str) -> None:
        obs = get_metrics()
        if obs.enabled:
            obs.incr("budget.exceeded")
            obs.incr(f"budget.exceeded.{limit}")
            if self.budget.wall_clock_seconds is not None:
                obs.observe(
                    "budget.remaining_s",
                    max(self._deadline - time.monotonic(), 0.0)
                    if self._deadline is not None
                    else 0.0,
                )
        raise BudgetExceededError(
            message,
            stats=self.stats,
            limit=limit,
            partial=self._partial_database(),
        )


def ensure_checkpoint(
    budget: "EvaluationBudget | Checkpoint | None",
    stats: "EvaluationStats",
) -> Checkpoint | None:
    """Resolve a caller-supplied budget into a running checkpoint.

    * ``None`` (or an all-``None`` budget) → ``None``: the evaluation runs
      ungoverned and every hook reduces to a ``checkpoint is None`` test.
    * an :class:`EvaluationBudget` → a fresh :class:`Checkpoint` over
      *stats* (the clock starts here, at the evaluation's entry point).
    * an already-running :class:`Checkpoint` → returned unchanged, so
      nested engines inherit the ancestor's clock and counters.
    """
    if budget is None:
        return None
    if isinstance(budget, Checkpoint):
        return budget
    if budget.unlimited:
        return None
    return budget.start(stats)
