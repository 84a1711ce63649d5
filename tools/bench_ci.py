#!/usr/bin/env python3
"""CI benchmark smoke runner — the observability gate.

Runs a curated, fast subset of the experiment suite (T1 correspondence,
T3 magic family, F1 chain scaling, F4 serving prepared-cache parity, F5
streaming-maintenance parity, A2 naive-vs-seminaive, T6 stratified
negation: cold and prepared), cross-checks
answers exactly as the full benches do, and compares the deterministic inference counts against the
committed baseline
(``benchmarks/baselines/bench_ci_baseline.json``).  Every run writes a
schema-versioned JSON artifact (``BENCH_ci.json``) with wall-clock
timings, counter totals, and a metrics snapshot, so CI can archive a
trajectory of the hot paths.

Exit codes:

* 0 — all checks passed, counts within tolerance.
* 1 — a correctness check failed (answer disagreement, inexact
  correspondence, naive/seminaive fact mismatch).
* 2 — inference counts deviated from the baseline beyond the tolerance.
* 3 — the baseline file is missing or unreadable (run with
  ``--update-baseline`` to create it).
* 4 — the gate's own infrastructure is broken: a benchmark module failed
  to import, or the results directory cannot be written.  Distinct from
  1–3 so CI triage never mistakes a harness problem for a regression.

Usage::

    python tools/bench_ci.py                  # gate against the baseline
    python tools/bench_ci.py --update-baseline
    python tools/bench_ci.py --only f1 --only a2 --tolerance 0.05
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.harness import assert_same_answers, measure, measurement_record  # noqa: E402
from repro.core.compare import check_correspondence  # noqa: E402
from repro.engine.budget import EvaluationBudget, ensure_checkpoint  # noqa: E402
from repro.engine.counters import EvaluationStats  # noqa: E402
from repro.errors import BudgetExceededError  # noqa: E402
from repro.obs import BenchArtifact, collect  # noqa: E402
from repro.workloads import (  # noqa: E402
    ancestor, bill_of_materials, same_generation, unreachable,
)

BASELINE_SCHEMA = "repro-bench-baseline/1"
BENCH_DIR = REPO_ROOT / "benchmarks"


class InfrastructureError(RuntimeError):
    """The gate itself is broken (unimportable bench module, unwritable
    results directory) — reported as exit code 4, never as a regression."""
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "bench_ci_baseline.json"
DEFAULT_OUTPUT_DIR = REPO_ROOT / "benchmarks" / "results"
DEFAULT_TOLERANCE = 0.0


# --- check groups (each returns entries and appends failures) ------------------
def _run_t1(failures: list[str], budget=None) -> list[dict]:
    """Correspondence smoke: Alexander vs OLDT must match exactly."""
    scenarios = [
        ("chain16-bf", ancestor(graph="chain", n=16)),
        ("tree-d3-bf", ancestor(graph="tree", depth=3, branching=2)),
        ("sg-d3-bf", same_generation(depth=3, branching=2)),
    ]
    entries = []
    for label, scenario in scenarios:
        query = scenario.query(0)
        start = time.perf_counter()
        corr = check_correspondence(
            scenario.program, query, scenario.database, budget=budget
        )
        elapsed = time.perf_counter() - start
        if not corr.exact:
            failures.append(f"t1/{label}: Alexander/OLDT correspondence is not exact")
        entries.append(
            {
                "id": f"t1/{label}",
                "query": str(query),
                "exact": corr.exact,
                "calls_matched": len(corr.calls_matched),
                "answers_matched": len(corr.answers_matched),
                "inferences": corr.alexander_stats.inferences,
                "oldt_inferences": corr.oldt_stats.inferences,
                "seconds": elapsed,
            }
        )
    return entries


def _run_t3(failures: list[str], budget=None) -> list[dict]:
    """Magic-family smoke: same answers; Alexander == supplementary."""
    scenarios = [
        ("chain32", ancestor(graph="chain", n=32)),
        ("sg-d4", same_generation(depth=4, branching=2)),
    ]
    entries = []
    for label, scenario in scenarios:
        measurements = {
            name: measure(scenario, name, budget=budget)
            for name in ("alexander", "supplementary", "magic")
        }
        try:
            assert_same_answers(list(measurements.values()))
        except AssertionError as error:
            failures.append(f"t3/{label}: {error}")
        if measurements["alexander"].inferences != measurements["supplementary"].inferences:
            failures.append(
                f"t3/{label}: Alexander/supplementary inference identity broken "
                f"({measurements['alexander'].inferences} != "
                f"{measurements['supplementary'].inferences})"
            )
        for measurement in measurements.values():
            record = measurement_record(measurement)
            record["id"] = f"t3/{label}/{measurement.strategy}"
            entries.append(record)
    return entries


def _run_f1(failures: list[str], budget=None) -> list[dict]:
    """Chain-scaling smoke across the strategy spectrum."""
    entries = []
    for n in (8, 16, 32):
        scenario = ancestor(graph="chain", n=n)
        per_size = [
            measure(scenario, strategy, budget=budget)
            for strategy in ("seminaive", "alexander", "oldt", "qsqr")
        ]
        try:
            assert_same_answers(per_size)
        except AssertionError as error:
            failures.append(f"f1/chain{n}: {error}")
        for measurement in per_size:
            record = measurement_record(measurement)
            record["id"] = f"f1/chain{n}/{measurement.strategy}"
            entries.append(record)
    return entries


def _run_a2(failures: list[str], budget=None) -> list[dict]:
    """Naive-vs-seminaive smoke: identical models, fewer inferences."""
    from repro.engine.naive import naive_fixpoint
    from repro.engine.seminaive import seminaive_fixpoint

    entries = []
    for n in (8, 16, 32):
        scenario = ancestor(graph="chain", n=n)
        results = {}
        for engine, fixpoint in (("naive", naive_fixpoint), ("seminaive", seminaive_fixpoint)):
            start = time.perf_counter()
            _, stats = fixpoint(scenario.program, scenario.database, budget=budget)
            results[engine] = (stats, time.perf_counter() - start)
        naive_stats, seminaive_stats = results["naive"][0], results["seminaive"][0]
        if naive_stats.facts_derived != seminaive_stats.facts_derived:
            failures.append(
                f"a2/chain{n}: naive and seminaive derive different models "
                f"({naive_stats.facts_derived} != {seminaive_stats.facts_derived})"
            )
        if seminaive_stats.inferences > naive_stats.inferences:
            failures.append(
                f"a2/chain{n}: seminaive performed more inferences than naive"
            )
        for engine, (stats, elapsed) in results.items():
            entries.append(
                {
                    "id": f"a2/chain{n}/{engine}",
                    "engine": engine,
                    "n": n,
                    "inferences": stats.inferences,
                    "facts": stats.facts_derived,
                    "iterations": stats.iterations,
                    "seconds": elapsed,
                }
            )
    return entries


def _run_t6(failures: list[str], budget=None) -> list[dict]:
    """Stratified-negation smoke: every bottom-up and transform strategy
    agrees on programs with lower strata, and a prepared Alexander shape
    (preparation plus one execution) counts what the cold query does."""
    from repro.core.prepare import prepare_query

    scenarios = [
        ("unreach-chain10", unreachable(graph="chain", n=10)),
        ("bom-d4", bill_of_materials(depth=4)),
    ]
    entries = []
    for label, scenario in scenarios:
        measurements = [
            measure(scenario, strategy, budget=budget)
            for strategy in ("naive", "seminaive", "magic", "supplementary", "alexander")
        ]
        try:
            assert_same_answers(measurements)
        except AssertionError as error:
            failures.append(f"t6/{label}: {error}")
        for measurement in measurements:
            record = measurement_record(measurement)
            record["id"] = f"t6/{label}/{measurement.strategy}"
            entries.append(record)
        cold = measurements[-1]
        query = scenario.query(0)
        start = time.perf_counter()
        prepared = prepare_query(
            scenario.program, query, scenario.database, "alexander", budget=budget
        )
        result = prepared.execute(budget=budget)
        elapsed = time.perf_counter() - start
        stats = prepared.prepare_stats.copy().merge(result.stats)
        if result.answer_rows != cold.result.answer_rows:
            failures.append(f"t6/{label}: prepared and cold alexander answers differ")
        if stats.as_dict() != cold.result.stats.as_dict():
            failures.append(
                f"t6/{label}: prepared alexander counts {stats} differ from "
                f"the cold query's {cold.result.stats}"
            )
        entries.append(
            {
                "id": f"t6/{label}/alexander/prepared",
                "query": str(query),
                "answers": len(result.answers),
                "inferences": stats.inferences,
                "attempts": stats.attempts,
                "facts": stats.facts_derived,
                "seconds": elapsed,
            }
        )
    return entries


def load_bench_module(name: str):
    """Import ``benchmarks/<name>.py`` by path.

    The benchmark tree is not an installed package, so modules are loaded
    straight from their files.  Any exception during import — syntax
    error, missing symbol, broken top-level code — is the gate's own
    infrastructure failing, not a measured regression, and surfaces as
    :class:`InfrastructureError` (exit code 4).
    """
    import importlib.util

    path = BENCH_DIR / f"{name}.py"
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        if spec is None or spec.loader is None:
            raise ImportError(f"no loadable module at {path}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception as error:
        raise InfrastructureError(
            f"benchmark module {path} failed to import: "
            f"{type(error).__name__}: {error}"
        ) from error
    return module


def _run_f4(failures: list[str], budget=None) -> list[dict]:
    """Serving smoke: prepared-cache hits must be bit-identical to direct
    evaluation with identical inference counts and zero pipeline work
    (see ``benchmarks/bench_f4_serving.py``)."""
    module = load_bench_module("bench_f4_serving")
    return module.serving_parity_entries(failures, budget)


def _run_f5(failures: list[str], budget=None) -> list[dict]:
    """Maintenance smoke: a short interleaved insert/delete/query stream
    over a recursive and a non-recursive program must keep DRed
    bit-identical to the recompute oracle at every step, with strictly
    fewer join attempts on the delete path (see
    ``benchmarks/bench_f5_streaming.py``)."""
    module = load_bench_module("bench_f5_streaming")
    return module.streaming_parity_entries(failures, budget)


CHECK_GROUPS = {
    "t1": _run_t1,
    "t3": _run_t3,
    "f1": _run_f1,
    "f4": _run_f4,
    "f5": _run_f5,
    "a2": _run_a2,
    "t6": _run_t6,
}


def run_checks(
    only: list[str] | None = None, budget_seconds: float | None = None
) -> tuple[list[dict], list[str], dict]:
    """Run the curated groups; returns (entries, failures, metrics snapshot).

    With *budget_seconds*, one wall clock spans the whole suite: every
    group shares a single checkpoint, and exhaustion (whether raised
    directly or reported between groups) becomes an ordinary failure line
    — CI never hangs on a runaway evaluation.
    """
    groups = list(CHECK_GROUPS) if not only else list(only)
    unknown = [name for name in groups if name not in CHECK_GROUPS]
    if unknown:
        raise ValueError(f"unknown check group(s) {unknown}; choose from {list(CHECK_GROUPS)}")
    checkpoint = None
    if budget_seconds is not None:
        checkpoint = ensure_checkpoint(
            EvaluationBudget(wall_clock_seconds=budget_seconds), EvaluationStats()
        )
    entries: list[dict] = []
    failures: list[str] = []
    with collect() as metrics:
        for name in groups:
            try:
                if checkpoint is not None:
                    # A measurement that tripped is reported as DIVERGED by
                    # the harness; this re-check turns the stale clock into
                    # an explicit failure before the next group starts.
                    checkpoint.check_round()
                with metrics.timer(f"bench_ci.{name}"):
                    entries.extend(CHECK_GROUPS[name](failures, checkpoint))
            except BudgetExceededError:
                failures.append(
                    f"{name}: bench wall-clock budget "
                    f"({budget_seconds}s) exhausted"
                )
                break
    return entries, failures, metrics.snapshot()


# --- baseline gate -------------------------------------------------------------
def baseline_counts(entries: list[dict]) -> dict[str, int]:
    """The gated quantity per entry id: deterministic inference counts."""
    return {
        entry["id"]: entry["inferences"]
        for entry in entries
        if isinstance(entry.get("inferences"), int)
    }


def compare_to_baseline(
    actual: dict[str, int], expected: dict[str, int], tolerance: float
) -> list[dict]:
    """Deviations of *actual* from *expected* beyond the relative *tolerance*.

    A missing or extra id is always a deviation: the gated surface itself
    changed, which a baseline refresh must acknowledge explicitly.
    """
    deviations: list[dict] = []
    for entry_id in sorted(set(actual) | set(expected)):
        if entry_id not in expected:
            deviations.append(
                {"id": entry_id, "kind": "unbaselined", "actual": actual[entry_id]}
            )
            continue
        if entry_id not in actual:
            deviations.append(
                {"id": entry_id, "kind": "missing", "expected": expected[entry_id]}
            )
            continue
        reference, observed = expected[entry_id], actual[entry_id]
        allowed = abs(reference) * tolerance
        if abs(observed - reference) > allowed:
            deviations.append(
                {
                    "id": entry_id,
                    "kind": "regression" if observed > reference else "improvement",
                    "expected": reference,
                    "actual": observed,
                    "allowed_delta": allowed,
                }
            )
    return deviations


def load_baseline(path: pathlib.Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema_version") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: expected schema_version {BASELINE_SCHEMA!r}, "
            f"got {payload.get('schema_version')!r}"
        )
    return payload


def write_baseline(path: pathlib.Path, counts: dict[str, int], tolerance: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": BASELINE_SCHEMA,
        "tolerance": tolerance,
        "counts": dict(sorted(counts.items())),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# --- entry point ---------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Run the gate; exit 4 on infrastructure failure, else see module doc."""
    try:
        return _main(argv)
    except InfrastructureError as error:
        print(f"bench_ci: INFRASTRUCTURE {error}", file=sys.stderr)
        return 4


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=DEFAULT_BASELINE,
        help="committed inference-count baseline to gate against",
    )
    parser.add_argument(
        "--output-dir",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT_DIR,
        help="directory receiving BENCH_ci.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative deviation allowed per count "
        "(default: the baseline file's, else 0.0)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(CHECK_GROUPS),
        help="run only these check groups (repeatable)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="wall-clock budget for the whole check suite; exhaustion "
        "fails the gate instead of hanging CI",
    )
    args = parser.parse_args(argv)

    started = time.time()
    start = time.perf_counter()
    entries, failures, metrics_snapshot = run_checks(
        args.only, budget_seconds=args.budget_seconds
    )
    total_seconds = time.perf_counter() - start
    counts = baseline_counts(entries)

    tolerance = args.tolerance
    baseline_payload: dict | None = None
    if not args.update_baseline:
        try:
            baseline_payload = load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"bench_ci: baseline {args.baseline} not found", file=sys.stderr)
        except ValueError as error:
            print(f"bench_ci: {error}", file=sys.stderr)
    if tolerance is None:
        tolerance = (
            float(baseline_payload.get("tolerance", DEFAULT_TOLERANCE))
            if baseline_payload
            else DEFAULT_TOLERANCE
        )

    deviations: list[dict] = []
    if baseline_payload is not None:
        expected = {
            key: value
            for key, value in baseline_payload.get("counts", {}).items()
            if key.split("/", 1)[0] in (args.only or CHECK_GROUPS)
        }
        deviations = compare_to_baseline(counts, expected, tolerance)

    artifact = BenchArtifact(
        bench_id="ci",
        created_unix=started,
        meta={
            "python": platform.python_version(),
            "platform": platform.platform(),
            "groups": args.only or sorted(CHECK_GROUPS),
            "tolerance": tolerance,
            "budget_seconds": args.budget_seconds,
            "total_seconds": total_seconds,
            "failures": failures,
            "deviations": deviations,
            "metrics": metrics_snapshot,
        },
    )
    for entry in entries:
        artifact.add_entry(entry)
    try:
        artifact_path = artifact.write(args.output_dir)
    except OSError as error:
        raise InfrastructureError(
            f"cannot write the bench artifact to {args.output_dir}: "
            f"{type(error).__name__}: {error}"
        ) from error

    print(
        f"bench_ci: {len(entries)} measurements across "
        f"{len(args.only or CHECK_GROUPS)} groups in {total_seconds:.2f}s "
        f"-> {artifact_path}"
    )
    for failure in failures:
        print(f"bench_ci: FAIL {failure}", file=sys.stderr)
    for deviation in deviations:
        print(f"bench_ci: DEVIATION {deviation}", file=sys.stderr)

    if args.update_baseline:
        write_baseline(args.baseline, counts, tolerance)
        print(f"bench_ci: baseline written to {args.baseline}")
        return 0 if not failures else 1
    if failures:
        return 1
    if baseline_payload is None:
        return 3
    if deviations:
        return 2
    print("bench_ci: all checks passed, counts within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
