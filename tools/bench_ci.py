#!/usr/bin/env python3
"""CI benchmark smoke runner — the observability gate.

Runs a curated, fast subset of the experiment suite (T1 correspondence,
T3 magic family, F1 chain scaling, F4 serving prepared-cache parity, F5
streaming-maintenance parity, A2 naive-vs-seminaive, A7
planner-vs-textual join order, A8 kernel-vs-interpreted executor, A9
scc-vs-global fixpoint scheduling),
cross-checks answers exactly as the full benches do, and compares the
deterministic inference counts against the committed baseline
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
from repro.workloads import ancestor, same_generation  # noqa: E402

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


def _run_a7(failures: list[str], budget=None) -> list[dict]:
    """Join-planning smoke: identical models, never more attempts, and a
    >=2x attempt reduction on the cross-product-shaped adversarial body."""
    from repro.datalog.parser import parse_program
    from repro.engine.planner import JoinPlanner
    from repro.engine.seminaive import seminaive_fixpoint
    from repro.facts.database import Database

    variants = (
        ("textbook", "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y)."),
        ("crossprod", "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(W,Y), par(X,Z), par(Z,W)."),
    )
    database = Database()
    for i in range(24):
        database.add("par", (f"n{i}", f"n{i + 1}"))

    entries = []
    for label, rules in variants:
        program = parse_program(rules)
        stats_by_mode = {}
        completed_by_mode = {}
        for mode in ("textual", "planned"):
            planner = (
                JoinPlanner(database, unknown=program.idb_predicates)
                if mode == "planned"
                else None
            )
            start = time.perf_counter()
            completed, stats = seminaive_fixpoint(
                program, database, planner=planner, budget=budget
            )
            elapsed = time.perf_counter() - start
            stats_by_mode[mode] = stats
            completed_by_mode[mode] = completed
            entries.append(
                {
                    "id": f"a7/{label}/{mode}",
                    "variant": label,
                    "mode": mode,
                    "inferences": stats.inferences,
                    "attempts": stats.attempts,
                    "facts": stats.facts_derived,
                    "seconds": elapsed,
                }
            )
        if completed_by_mode["textual"] != completed_by_mode["planned"]:
            failures.append(f"a7/{label}: planned evaluation derived a different model")
        textual, planned = stats_by_mode["textual"], stats_by_mode["planned"]
        if planned.attempts > textual.attempts:
            failures.append(
                f"a7/{label}: planner attempted more rows "
                f"({planned.attempts} > {textual.attempts})"
            )
        if label == "crossprod" and textual.attempts < 2 * max(planned.attempts, 1):
            failures.append(
                f"a7/{label}: expected >=2x attempt reduction, got "
                f"{textual.attempts} vs {planned.attempts}"
            )
    return entries


def _run_a8(failures: list[str], budget=None) -> list[dict]:
    """Executor smoke: the kernel must derive the same model with the same
    inference count as the interpreted matcher on every gated workload
    (attempt drift is reported separately, as a baseline-style deviation)."""
    from repro.engine.seminaive import seminaive_fixpoint

    scenarios = [
        ("chain32", ancestor(graph="chain", n=32)),
        ("nltc16", ancestor(graph="chain", variant="nonlinear", n=16)),
        ("sg-d4", same_generation(depth=4, branching=2)),
    ]
    entries = []
    for label, scenario in scenarios:
        results = {}
        for executor in ("kernel", "interpreted"):
            start = time.perf_counter()
            completed, stats = seminaive_fixpoint(
                scenario.program,
                scenario.database,
                budget=budget,
                executor=executor,
            )
            elapsed = time.perf_counter() - start
            results[executor] = (completed, stats)
            entries.append(
                {
                    "id": f"a8/{label}/{executor}",
                    "executor": executor,
                    "inferences": stats.inferences,
                    "attempts": stats.attempts,
                    "facts": stats.facts_derived,
                    "iterations": stats.iterations,
                    "seconds": elapsed,
                }
            )
        kernel_db, kernel_stats = results["kernel"]
        interp_db, interp_stats = results["interpreted"]
        if kernel_db != interp_db:
            failures.append(f"a8/{label}: kernel derived a different model")
        if kernel_stats.inferences != interp_stats.inferences:
            failures.append(
                f"a8/{label}: kernel inference count diverged "
                f"({kernel_stats.inferences} != {interp_stats.inferences})"
            )
    return entries


def kernel_attempt_drift(entries: list[dict]) -> list[dict]:
    """A8 deviations: the kernel attempting *more* rows than the
    interpreted oracle on any workload means its probe construction no
    longer mirrors the matcher — a perf/parity regression gated at exit 2
    like any baseline deviation."""
    attempts = {
        entry["id"]: entry["attempts"]
        for entry in entries
        if entry["id"].startswith("a8/") and isinstance(entry.get("attempts"), int)
    }
    deviations = []
    for entry_id, kernel_attempts in sorted(attempts.items()):
        _, label, executor = entry_id.split("/")
        if executor != "kernel":
            continue
        oracle = attempts.get(f"a8/{label}/interpreted")
        if oracle is not None and kernel_attempts > oracle:
            deviations.append(
                {
                    "id": f"a8/{label}",
                    "kind": "kernel-attempt-drift",
                    "kernel_attempts": kernel_attempts,
                    "interpreted_attempts": oracle,
                }
            )
    return deviations


def _run_a9(failures: list[str], budget=None) -> list[dict]:
    """Scheduler smoke: the scc schedule must derive the same model with
    the same inference and fact counts as the single global loop (the
    in-run oracle) on every gated workload; attempt drift is reported
    separately, as a baseline-style deviation.  ``iterations`` is recorded
    but never compared: under scc it counts per-component passes, not
    global rounds."""
    from repro.core.strategy import run_strategy
    from repro.engine.seminaive import seminaive_fixpoint

    workloads = []
    for label, strategy, scenario in [
        ("alex-chain24", "alexander", ancestor(graph="chain", n=24)),
        ("magic-chain24", "magic", ancestor(graph="chain", n=24)),
    ]:
        result = run_strategy(
            strategy, scenario.program, scenario.query(0), scenario.database
        )
        base = scenario.database.copy()
        base.add_atoms(scenario.program.facts)
        workloads.append((label, result.transformed.evaluation_program(), base))
    sg = same_generation(depth=4, branching=2)
    workloads.append(("sg-d4", sg.program, sg.database))
    entries = []
    for label, program, base in workloads:
        results = {}
        for scheduler in ("scc", "global"):
            start = time.perf_counter()
            completed, stats = seminaive_fixpoint(
                program,
                base,
                budget=budget,
                scheduler=scheduler,
            )
            elapsed = time.perf_counter() - start
            results[scheduler] = (completed, stats)
            entries.append(
                {
                    "id": f"a9/{label}/{scheduler}",
                    "scheduler": scheduler,
                    "inferences": stats.inferences,
                    "attempts": stats.attempts,
                    "facts": stats.facts_derived,
                    "iterations": stats.iterations,
                    "seconds": elapsed,
                }
            )
        scc_db, scc_stats = results["scc"]
        global_db, global_stats = results["global"]
        if scc_db != global_db:
            failures.append(f"a9/{label}: scc derived a different model")
        if scc_stats.inferences != global_stats.inferences:
            failures.append(
                f"a9/{label}: scc inference count diverged "
                f"({scc_stats.inferences} != {global_stats.inferences})"
            )
        if scc_stats.facts_derived != global_stats.facts_derived:
            failures.append(
                f"a9/{label}: scc fact count diverged "
                f"({scc_stats.facts_derived} != {global_stats.facts_derived})"
            )
    return entries


def scheduler_attempt_drift(entries: list[dict]) -> list[dict]:
    """A9 deviations: the scc schedule attempting *more* rows than the
    global oracle on any workload means component scheduling stopped
    paying for itself — reading lower components as full relations must
    only ever shrink the probe count.  Gated at exit 2 like any baseline
    deviation."""
    attempts = {
        entry["id"]: entry["attempts"]
        for entry in entries
        if entry["id"].startswith("a9/") and isinstance(entry.get("attempts"), int)
    }
    deviations = []
    for entry_id, scc_attempts in sorted(attempts.items()):
        _, label, scheduler = entry_id.split("/")
        if scheduler != "scc":
            continue
        oracle = attempts.get(f"a9/{label}/global")
        if oracle is not None and scc_attempts > oracle:
            deviations.append(
                {
                    "id": f"a9/{label}",
                    "kind": "scheduler-attempt-drift",
                    "scc_attempts": scc_attempts,
                    "global_attempts": oracle,
                }
            )
    return deviations


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
    must keep counting/DRed bit-identical to the recompute oracle at
    every step, with strictly fewer join attempts on the delete path
    (see ``benchmarks/bench_f5_streaming.py``)."""
    module = load_bench_module("bench_f5_streaming")
    return module.streaming_parity_entries(failures, budget)


def _run_f6(failures: list[str], budget=None) -> list[dict]:
    """Multiprocess serving smoke: a two-worker pool with a shape
    registry must render answers bit-identical to the direct engine with
    identical inference counts on both workers, and the second worker's
    first request must load the registry-cached shape instead of
    re-transforming (see ``benchmarks/bench_f6_multiproc.py``)."""
    module = load_bench_module("bench_f6_multiproc")
    return module.multiproc_parity_entries(failures, budget)


CHECK_GROUPS = {
    "t1": _run_t1,
    "t3": _run_t3,
    "f1": _run_f1,
    "f4": _run_f4,
    "f5": _run_f5,
    "f6": _run_f6,
    "a2": _run_a2,
    "a7": _run_a7,
    "a8": _run_a8,
    "a9": _run_a9,
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
    # Executor-parity drift needs no committed baseline — the interpreted
    # run of the same workload is the reference.
    deviations.extend(kernel_attempt_drift(entries))
    deviations.extend(scheduler_attempt_drift(entries))

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
