"""Structured observability: metrics registry and JSON bench artifacts.

``repro.obs`` is the one place evaluation timing and work measurements
flow through:

* :mod:`repro.obs.metrics` — the :class:`Metrics` registry (monotonic
  wall-clock timers with nesting, counters, histograms) and the
  module-level active-registry protocol (:func:`get_metrics` /
  :func:`collect`).  Engines are instrumented against it; with the
  default :class:`NullMetrics` active the hooks are no-ops.
* :mod:`repro.obs.artifact` — :class:`BenchArtifact`, the
  schema-versioned JSON document benchmarks and the CI smoke runner emit
  next to their text tables.

See ``docs/OBSERVABILITY.md`` for the schema and the CI gate built on it.
"""

from .artifact import SCHEMA_VERSION, BenchArtifact, artifact_filename
from .metrics import (
    NULL_METRICS,
    HistogramStat,
    Metrics,
    NullMetrics,
    ThreadSafeMetrics,
    TimerStat,
    collect,
    get_metrics,
    merge_snapshots,
    set_metrics,
)

__all__ = [
    "SCHEMA_VERSION",
    "BenchArtifact",
    "artifact_filename",
    "NULL_METRICS",
    "HistogramStat",
    "Metrics",
    "NullMetrics",
    "ThreadSafeMetrics",
    "TimerStat",
    "collect",
    "get_metrics",
    "merge_snapshots",
    "set_metrics",
]
