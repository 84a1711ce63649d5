"""Exception hierarchy for the repro library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations

# Settings that no longer exist, each with the one message every surface
# (HTTP /query and /prepare, the CLI) rejects it with.  The library API
# has no such keyword at all.
REMOVED_SETTINGS = {
    "storage": (
        "storage was removed: relations are always tuple-backed (same "
        "answers and counts); omit the setting"
    ),
    "workers": (
        "workers was removed with scheduler='parallel': use "
        "`serve --processes N` for multi-core"
    ),
    "executor": (
        "executor was removed: rule bodies always run as generated kernels "
        "(same answers and counts); omit the setting"
    ),
    "scheduler": (
        "scheduler was removed: fixpoints are always scheduled by "
        "dependency component, the former 'scc' (same answers and counts); "
        "omit the setting, or use `serve --processes N` for multi-core"
    ),
    "planner": (
        "planner was removed: rule bodies always join in the SIPS order the "
        "rewriting emits (same answers and inferences); omit the setting"
    ),
}

# The one message every surface (HTTP /query and /prepare, prepare_query,
# Engine.prepare, QueryService) rejects a ``maintain`` value other than
# "dred" with.
MAINTAIN_DRED_ONLY = (
    'maintain accepts only "dred": counting was removed, and recompute '
    "is the library's test oracle (IncrementalEngine(maintenance="
    '"recompute")), not a serving mode'
)


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ParseError(ReproError):
    """Raised when Datalog source text cannot be parsed.

    Attributes:
        line: 1-based line number of the offending token, when known.
        column: 1-based column number of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class UnificationError(ReproError):
    """Raised when two terms or atoms cannot be unified and the caller
    requested an exception instead of a ``None`` result."""


class ProgramError(ReproError):
    """Raised for structurally invalid programs (e.g. a rule whose head is
    a negative literal, or an EDB predicate that also appears in a head)."""


class StratificationError(ProgramError):
    """Raised when a program that requires stratified negation is not
    stratifiable (it has a cycle through negation)."""


class SafetyError(ProgramError):
    """Raised when a rule is unsafe: a head or negative-literal variable
    does not occur in any positive body literal."""


class EvaluationError(ReproError):
    """Raised when evaluation cannot proceed (e.g. an SLD derivation
    exceeds its step or depth budget, or a non-ground negative literal is
    selected)."""


class BudgetExceededError(EvaluationError):
    """Raised when a resource budget is exhausted before evaluation
    completes — by the governed engines polling an
    :class:`repro.engine.budget.Checkpoint`, and by plain SLD's built-in
    step/depth bounds.

    The error carries everything a caller needs for graceful degradation:

    Attributes:
        limit: which limit tripped — ``"wall_clock"``, ``"iterations"``,
            ``"facts"``, ``"attempts"`` (checkpoint limits), or
            ``"steps"`` / ``"depth"`` / ``"recursion"`` (SLD's own
            bounds).  ``None`` for legacy raisers that did not say.
        partial: the partial :class:`repro.facts.database.Database`
            computed before the trip (a sound prefix of the full model),
            when the engine had one to report; ``None`` otherwise.
        stats: the :class:`repro.engine.counters.EvaluationStats`
            accumulated so far, so benchmark code can still report
            "exceeded N steps" rows — itself a result the paper's
            comparison cares about (plain top-down evaluation diverges on
            cyclic data).
    """

    def __init__(self, message: str, stats=None, limit: str | None = None, partial=None):
        super().__init__(message)
        self.stats = stats
        self.limit = limit
        self.partial = partial


class TransformError(ReproError):
    """Raised when a query transformation (adornment, magic sets, Alexander
    templates) cannot be applied to the given program/query pair."""


class UnpreparableStrategyError(ReproError):
    """Raised by :func:`repro.core.prepare.prepare_query` for strategies
    with no reusable compiled form (the tuple-at-a-time top-down engines:
    ``sld``, ``oldt``, ``qsqr``).  Callers — the query service above all —
    fall back to direct :func:`repro.core.strategy.run_strategy` execution."""
