#!/usr/bin/env python3
"""The repo's end-to-end + per-layer benchmark (see README.md here).

One workload, the way the driver calls it — the last line of standard
output is one JSON object (``correct``/``attempted``/``failed``/``metrics``)::

    python3 benchmarks/e2e/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

All four workloads, as a table (add ``--trace 1`` for the per-layer run,
``--quick`` for a smoke-sized run, ``--repeat N`` for N sets with
medians, quartiles and an agreement verdict per metric)::

    python3 benchmarks/e2e/run.py [--seed N] [--trace 1] [--quick] [--repeat N]
    python3 benchmarks/e2e/run.py --compare results/A.json results/B.json

Exit status is non-zero when any op failed (error, ``partial`` reply or
an answer different from the reference).
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
# The driver's command may name nothing outside benchmarks/e2e, so the
# product's source directory is put on the path here.
sys.path.insert(0, str(REPO / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

QUICK_SECONDS = 1.0


def load_contract() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_main(workload: str, seed: int, seconds: float, setups: int) -> dict:
    """Set up (*setups* times, keeping the last), run the timed window,
    tear down; returns the end-to-end metrics and what was observed."""
    setup_seconds, leaked = [], []
    running = None
    for _ in range(setups):
        if running is not None:
            running.stop()
            leaked += running.server.leaked_shm if running.server else []
        slow = harness.slowdown_now()
        started = time.perf_counter()
        running = harness.set_up(workload, seed)
        elapsed = time.perf_counter() - started
        setup_seconds.append(2 * elapsed / (slow + harness.slowdown_now()))
    try:
        window = harness.run_window(running, seconds)
    finally:
        running.stop()
        leaked += running.server.leaked_shm if running.server else []
    metrics = harness.end_to_end(window)
    raw = harness.end_to_end(window, raw=True)
    metrics["setup_s"] = sorted(setup_seconds)[len(setup_seconds) // 2]
    degraded = []
    if running.server is not None and window.client_cpu / window.wall > 0.5:
        degraded.append("generator used more than half a core")
    if running.server is not None and running.server.workers > len(running.affinity):
        degraded.append("pooled workload on fewer CPUs than workers")
    if leaked:
        degraded.append(f"shared memory left behind: {leaked}")
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": len(window.samples),
        "failed": sum(not sample.ok for sample in window.samples),
        "ops": {
            kind: sum(sample.kind == kind for sample in window.samples)
            for kind in ("query", "update")
        },
        "raw": raw,
        "slowdown": window.wall / window.reference_wall,
        "client_cpu_share": window.client_cpu / window.wall,
        "setup_seconds": setup_seconds,
        "degraded": degraded,
    }


def run_workload(contract: dict, workload: str, seed: int, seconds: float,
                 trace: bool, quick: bool) -> dict:
    """One run of one workload: the contract's JSON object plus details."""
    if trace:
        import layers

        outcome = layers.run_traced(workload, seed, seconds, quick)
        declared = contract["per_layer"]
    else:
        outcome = run_main(
            workload, seed, seconds, 1 if quick else harness.SETUP_REPEATS
        )
        declared = contract["end_to_end"]
    missing = [m["name"] for m in declared if outcome["metrics"].get(m["name"]) is None]
    if missing and not quick:
        raise RuntimeError(
            f"{workload}: no value for {missing} — the window was too short "
            "for the percentile rule or a probe did not run"
        )
    outcome["result"] = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    outcome["env"] = harness.environment(seed, seconds)
    if not trace:  # the traced run writes its own file, spans included
        harness.write_result(f"run-{workload}.json", outcome)
    return outcome


def run_in_own_process(workload: str, seed: int, seconds: float, trace: bool,
                       quick: bool) -> dict:
    """One run the way the driver makes it: a fresh interpreter per
    workload, so no run inherits another's heap, peak RSS or CPU pinning."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        *(["--quick"] if quick else []),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise RuntimeError(f"{workload} run died:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    marker = "# degraded: "
    return {
        "workload": workload,
        "result": result,
        "degraded": [
            line[len(marker):] for line in done.stderr.splitlines()
            if line.startswith(marker)
        ],
    }


def print_table(contract: dict, outcomes: list, trace: bool) -> None:
    declared = contract["per_layer" if trace else "end_to_end"]
    names = [outcome["workload"] for outcome in outcomes]
    width = max(len(m["name"]) for m in declared) + 2
    print(f"{'metric':<{width}}{'unit':<8}" + "".join(f"{n:>16}" for n in names))
    for metric in declared:
        values = [o["result"]["metrics"][metric["name"]]["value"] for o in outcomes]
        cells = "".join(
            f"{'n/a':>16}" if value is None else f"{value:>16.4f}" for value in values
        )
        print(f"{metric['name']:<{width}}{metric['unit']:<8}{cells}")
    for outcome in outcomes:
        status = "ok" if outcome["result"]["correct"] else "FAILED"
        flags = "; ".join(outcome.get("degraded", [])) or "-"
        print(
            f"# {outcome['workload']}: {status}, {outcome['result']['attempted']} ops, "
            f"{outcome['result']['failed']} failed, degraded: {flags}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1 = the traced per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-sized: 1 s windows, one set-up, small traced sample")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run N sets of all workloads; report medians and agreement")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="classify two result files written by --repeat")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.compare:
        return compare.compare_files(contract, *args.compare)
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(contract["run_seconds"])
    trace = bool(args.trace)

    if args.workload:
        outcome = run_workload(contract, args.workload, args.seed, seconds, trace, args.quick)
        for flag in outcome.get("degraded", []):
            print(f"# degraded: {flag}", file=sys.stderr)
        print(json.dumps(outcome["result"]))
        return 0 if outcome["result"]["correct"] else 1

    sets = []
    for _ in range(args.repeat):
        outcomes = [
            run_in_own_process(name, args.seed, seconds, trace, args.quick)
            for name in workloads.WORKLOAD_NAMES
        ]
        print_table(contract, outcomes, trace)
        sets.append(outcomes)
    document = {
        "env": harness.environment(args.seed, seconds),
        "trace": trace,
        "sets": [
            {o["workload"]: {k: v["value"] for k, v in o["result"]["metrics"].items()}
             for o in outcomes}
            for outcomes in sets
        ],
        "ops": {o["workload"]: o["result"]["attempted"] for o in sets[0]},
        "degraded": {o["workload"]: o.get("degraded", []) for o in sets[0]},
    }
    path = harness.write_result(f"sets-seed{args.seed}{'-trace' if trace else ''}.json",
                                document)
    print(f"# written to {path.relative_to(REPO)}")
    if args.repeat > 1:
        compare.report_sets(contract, document)
    failed = sum(o["result"]["failed"] for outcomes in sets for o in outcomes)
    return 0 if failed == 0 else 1


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # unwind, so servers are stopped on the way out


if __name__ == "__main__":
    # No process may outlive a run: orphans (a stopped server's resource
    # tracker) come to this process, and it ends them all before it exits.
    harness.become_subreaper()
    signal.signal(signal.SIGTERM, _terminated)
    try:
        status = main()
    finally:
        harness.stop_descendants()
    sys.exit(status)
