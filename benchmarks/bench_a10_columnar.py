"""A10 — Ablation: columnar storage vs the tuple backend.

Both backends derive the same model with the same counters in the same
enumeration order (the storage contract, pinned bit-exactly by
``tests/test_storage_differential.py``); the ablation quantifies what
dictionary encoding, posting-list probes, and block-at-a-time batch
kernels buy in wall-clock on the recursive F1/F3 workloads.  Since the
tuple backend runs generated per-rule kernels (``repro.engine.codegen``)
the answer on this suite is "nothing": the per-row generated code beats
the columnar batch path on every workload, so the ratios are recorded,
not gated — whether columnar storage and ``execute_batch`` stay is
ROADMAP item 2's decision, to be taken from this artifact.  The
metrics snapshot of the columnar runs doubles as the structural
evidence: the batch path actually executed (``kernel.batch_executions``)
over interned data (``intern.misses``), and conversion happened exactly
once per run (``storage.convert``).
"""

import os
import time

from repro.bench.reporting import render_series
from repro.engine.counters import EvaluationStats
from repro.engine.seminaive import seminaive_fixpoint
from repro.obs import collect
from repro.workloads import ancestor, same_generation

CHAIN_SIZES = (64, 128, 256)
ROUNDS = 3


def _workloads():
    for n in CHAIN_SIZES:
        yield f"chain{n}", n, ancestor(graph="chain", n=n)
    for n in (32, 48):
        yield f"nltc{n}", n, ancestor(graph="chain", variant="nonlinear", n=n)
    for depth in (7, 8):
        yield f"sg-d{depth}", depth, same_generation(depth=depth, branching=2)


def _decoded_facts(database):
    return {
        relation.name: frozenset(
            database.decode_row(row) for row in relation.rows()
        )
        for relation in database.relations()
    }


def _run(scenario, storage):
    """Best-of-ROUNDS wall clock; facts/stats/metrics from the last run."""
    best = float("inf")
    for _ in range(ROUNDS):
        stats = EvaluationStats()
        with collect() as metrics:
            start = time.perf_counter()
            database, _ = seminaive_fixpoint(
                scenario.program, scenario.database, stats, storage=storage
            )
            best = min(best, time.perf_counter() - start)
    return best, _decoded_facts(database), stats, metrics


def run_series():
    series = {"columnar": [], "tuples": []}
    entries = []
    speedups = {}
    for label, size, scenario in _workloads():
        results = {
            storage: _run(scenario, storage)
            for storage in ("columnar", "tuples")
        }
        col_seconds, col_facts, col_stats, col_metrics = results["columnar"]
        tup_seconds, tup_facts, tup_stats, _ = results["tuples"]
        # The storage swap is invisible in everything but time.
        assert col_facts == tup_facts, label
        assert col_stats.as_dict() == tup_stats.as_dict(), label
        # Structural evidence: the run interned constants, converted the
        # base exactly once, and joined through the batch kernels.
        counters = col_metrics.counters
        assert counters.get("storage.convert", 0) == 1, label
        assert counters.get("intern.misses", 0) > 0, label
        assert counters.get("kernel.batch_executions", 0) > 0, label
        speedups[label] = tup_seconds / col_seconds
        if label.startswith("chain"):
            series["columnar"].append((size, round(col_seconds * 1e3, 2)))
            series["tuples"].append((size, round(tup_seconds * 1e3, 2)))
        for storage, (seconds, _, stats, _unused) in results.items():
            entries.append(
                {
                    "id": f"{label}/{storage}",
                    "workload": label,
                    "storage": storage,
                    "inferences": stats.inferences,
                    "attempts": stats.attempts,
                    "facts": stats.facts_derived,
                    "iterations": stats.iterations,
                    "seconds": seconds,
                    "speedup": speedups[label] if storage == "columnar" else 1.0,
                }
            )
    return series, entries, speedups


def test_a10_columnar_ablation(benchmark, report):
    series, entries, speedups = benchmark.pedantic(
        run_series, rounds=1, iterations=1
    )
    figure = render_series(
        "A10: columnar vs tuple storage wall-clock (ms), chain(n) closure",
        "n",
        series,
    )
    lines = [figure, "", "speedups (tuples / columnar):"]
    lines += [f"  {label}: {ratio:.2f}x" for label, ratio in speedups.items()]
    report(
        "a10",
        "\n".join(lines),
        entries=entries,
        meta={"cpus": os.cpu_count()},
    )
