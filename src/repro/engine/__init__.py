"""Bottom-up evaluation engines: naive, semi-naive, stratified, traced."""

from .budget import Checkpoint, EvaluationBudget, ensure_checkpoint
from .counters import EvaluationStats
from .incremental import IncrementalEngine
from .naive import naive_fixpoint
from .provenance import (
    Derivation,
    ProofNode,
    TracedEvaluation,
    format_proof,
    traced_fixpoint,
)
from .seminaive import seminaive_fixpoint
from .wellfounded import WellFoundedModel, alternating_fixpoint
from .stratified import stratified_fixpoint

__all__ = [
    "EvaluationBudget",
    "Checkpoint",
    "ensure_checkpoint",
    "EvaluationStats",
    "naive_fixpoint",
    "seminaive_fixpoint",
    "stratified_fixpoint",
    "traced_fixpoint",
    "TracedEvaluation",
    "Derivation",
    "ProofNode",
    "format_proof",
    "alternating_fixpoint",
    "WellFoundedModel",
    "IncrementalEngine",
]
