"""A8 — Ablation: compiled rule kernels vs the interpreted matcher.

Both executors enumerate the same derivations in the same order (the
kernel's contract, pinned bit-exactly by the differential tests); the
ablation quantifies what the slot-array lowering and the zero-copy
round-stamped old views buy in wall-clock on the recursive F1/F3
workloads.  The metrics snapshot of the kernel runs doubles as the
structural evidence: rounds use stamped old views (no per-round
old-snapshot rebuild timer exists at all).
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
SPEEDUP_FLOOR = 2.0


def _workloads():
    for n in CHAIN_SIZES:
        yield f"chain{n}", n, ancestor(graph="chain", n=n)
    for n in (32, 48):
        yield f"nltc{n}", n, ancestor(graph="chain", variant="nonlinear", n=n)
    for depth in (7, 8):
        yield f"sg-d{depth}", depth, same_generation(depth=depth, branching=2)


def _facts(database):
    return {
        relation.name: relation.rows() for relation in database.relations()
    }


def _run(scenario, executor):
    """Best-of-ROUNDS wall clock; facts/stats/metrics from the last run."""
    best = float("inf")
    for _ in range(ROUNDS):
        stats = EvaluationStats()
        with collect() as metrics:
            start = time.perf_counter()
            database, _ = seminaive_fixpoint(
                scenario.program, scenario.database, stats, executor=executor
            )
            best = min(best, time.perf_counter() - start)
    return best, _facts(database), stats, metrics


def run_series():
    series = {"kernel": [], "interpreted": []}
    entries = []
    speedups = {}
    for label, size, scenario in _workloads():
        results = {
            executor: _run(scenario, executor)
            for executor in ("kernel", "interpreted")
        }
        kernel_seconds, kernel_facts, kernel_stats, kernel_metrics = results["kernel"]
        interp_seconds, interp_facts, interp_stats, _ = results["interpreted"]
        # The executor swap is invisible in everything but time.
        assert kernel_facts == interp_facts, label
        assert kernel_stats.as_dict() == interp_stats.as_dict(), label
        # Rounds run against stamped old views, and nothing in the
        # profile rebuilds an old snapshot (the timer does not exist).
        counters = kernel_metrics.counters
        assert counters.get("seminaive.stamped_rounds", 0) > 0, label
        assert not any(
            "old" in name or "snapshot" in name for name in kernel_metrics.timers
        ), sorted(kernel_metrics.timers)
        assert counters.get("kernel.rules_compiled", 0) > 0, label
        speedups[label] = interp_seconds / kernel_seconds
        if label.startswith("chain"):
            series["kernel"].append((size, round(kernel_seconds * 1e3, 2)))
            series["interpreted"].append((size, round(interp_seconds * 1e3, 2)))
        for executor, (seconds, _, stats, _unused) in results.items():
            entries.append(
                {
                    "id": f"{label}/{executor}",
                    "workload": label,
                    "executor": executor,
                    "inferences": stats.inferences,
                    "attempts": stats.attempts,
                    "facts": stats.facts_derived,
                    "iterations": stats.iterations,
                    "seconds": seconds,
                    "speedup": speedups[label] if executor == "kernel" else 1.0,
                }
            )
    return series, entries, speedups


def test_a8_kernel_ablation(benchmark, report):
    series, entries, speedups = benchmark.pedantic(
        run_series, rounds=1, iterations=1
    )
    figure = render_series(
        "A8: kernel vs interpreted wall-clock (ms), chain(n) closure",
        "n",
        series,
    )
    lines = [figure, "", "speedups (interpreted / kernel):"]
    lines += [f"  {label}: {ratio:.2f}x" for label, ratio in speedups.items()]
    report(
        "a8_kernel_ablation",
        "\n".join(lines),
        entries=entries,
        meta={"speedup_floor": SPEEDUP_FLOOR, "cpus": os.cpu_count()},
    )
    # The kernel must clear the floor on the largest recursive workloads
    # (small sizes are dominated by fixed setup cost and stay advisory).
    for label in ("chain256", "nltc48", "sg-d8"):
        assert speedups[label] >= SPEEDUP_FLOOR, (label, speedups[label])
    # And it should never lose outright, at any size.
    assert all(ratio > 1.0 for ratio in speedups.values()), speedups
