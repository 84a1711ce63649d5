"""Uniform evaluation statistics.

Every engine in the library — bottom-up (naive, semi-naive, stratified) and
top-down (SLD, OLDT, QSQR) — reports its work through a single
:class:`EvaluationStats` record, so the benchmark harness can compare
"inference counts" across strategies the way the paper's theorems do.

Counter semantics (normative; see DESIGN.md "Metrics"):

* ``inferences``   — successful rule applications: a full body match that
  produces a head instantiation (bottom-up), or a resolution step that
  succeeds in unifying (top-down).  This is the quantity Seki's
  inference-count theorems bound.
* ``attempts``     — candidate matches probed, successful or not (join
  probes bottom-up; clause-head or answer-clause unification attempts
  top-down).
* ``facts_derived``— *distinct new* facts added to the IDB, or distinct
  answers added to a table.
* ``calls``        — magic/call facts derived (transformed programs) or
  tabled subgoals created (OLDT); 0 for engines without a call concept.
* ``answers``      — answers produced for the query predicate.
* ``iterations``   — fixpoint rounds (bottom-up) or scheduler steps
  (top-down worklist).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["EvaluationStats"]


@dataclass
class EvaluationStats:
    """Mutable counters accumulated during one evaluation."""

    inferences: int = 0
    attempts: int = 0
    facts_derived: int = 0
    calls: int = 0
    answers: int = 0
    iterations: int = 0

    def merge(self, other: "EvaluationStats") -> "EvaluationStats":
        """Accumulate *other* into self (used for nested sub-evaluations)."""
        for name in _FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def copy(self) -> "EvaluationStats":
        return EvaluationStats(**self.as_dict())

    def __str__(self) -> str:
        parts = ", ".join(f"{key}={value}" for key, value in self.as_dict().items())
        return f"EvaluationStats({parts})"


# A table hit copies and renders stats per request: look the names up once.
_FIELD_NAMES = tuple(spec.name for spec in fields(EvaluationStats))
