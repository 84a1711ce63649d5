"""F6 — Multiprocess serving throughput: worker pool vs one GIL.

The worker pool's claim is about *aggregate throughput*: a CPU-bound
prepared query holds the GIL for its whole fixpoint, so the threaded
server serializes concurrent clients onto one core no matter how many
handler threads it spawns.  ``serve --processes N`` moves each fixpoint
into its own interpreter — N cores of real parallelism behind the same
HTTP surface.

This bench measures that end to end — real HTTP servers, 16 concurrent
:class:`ServeClient` connections hammering prepared (cache-hot) F1/F3
goals — across four server configurations: the single-process threaded
:class:`~repro.serve.service.QueryService` and a
:class:`~repro.serve.pool.PooledService` at 1, 2, and 4 worker
processes.  Every response is checked **in-bench** against the direct
:meth:`repro.core.engine.Engine.query` rows, so a throughput number can
never come from a diverged answer.  Reported per (workload, config):
aggregate requests/second plus p50/p99/mean latency, written to
``BENCH_f6.json``.

The ≥ 1.5× speedup bar at 4 processes is asserted only on hosts with at
least 4 CPUs — on smaller machines the extra processes just time-slice
one core and the bench degrades to a parity check.  The deterministic
slice — pooled answers and inference counts bit-identical to the direct
engine, exactly one ``prepare.transforms`` per shape across a two-worker
pool (the cross-process registry hit) — is gated by
``tools/bench_ci.py`` as group ``f6`` via
:func:`multiproc_parity_entries`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.engine import Engine
from repro.obs import ThreadSafeMetrics, collect
from repro.serve import PooledService, QueryService, ServeClient, create_server
from repro.workloads import ancestor

CLIENTS = 16
REQUESTS_PER_CLIENT = 6
PROCESS_COUNTS = (1, 2, 4)
STRATEGY = "alexander"
SPEEDUP_BAR = 1.5
MIN_CPUS_FOR_SPEEDUP = 4


def multiproc_workloads():
    """The (label, scenario, bound query) pairs the bench serves.

    Both are CPU-bound prepared fixpoints: F1's linear chain closure and
    F3's non-linear transitive closure (quadratic rule body, the heavier
    per-request kernel).
    """
    f1 = ancestor(graph="chain", n=128)
    f3 = ancestor(graph="chain", variant="nonlinear", n=48)
    return [
        ("f1-chain128", f1, f1.query(0)),
        ("f3-nltc48", f3, f3.query(0)),
    ]


def scenario_text(scenario) -> str:
    """A scenario's program + EDB as loadable Datalog source."""
    lines = [str(rule) for rule in scenario.program.proper_rules]
    for predicate in sorted(scenario.database.predicates()):
        for row in sorted(scenario.database.rows(predicate)):
            args = ", ".join(str(value) for value in row)
            lines.append(f"{predicate}({args}).")
    return "\n".join(lines)


def direct_rows(scenario, query) -> list[list]:
    result = Engine(scenario.program, scenario.database).query(
        query, strategy=STRATEGY
    )
    return [list(atom.ground_key()) for atom in result.answers]


# --- deterministic parity (the bench_ci "f6" group) ---------------------------
def multiproc_parity_entries(failures: list[str], budget=None) -> list[dict]:
    """The clock-free slice ``tools/bench_ci.py`` gates as group ``f6``.

    One two-worker pool with a shape registry serves each workload twice
    (round-robin lands the requests on *different* processes):

    * both responses render identical answers, bit-identical to a direct
      :meth:`Engine.query` — process transport perturbs nothing;
    * both report identical ``inferences`` (each worker ran the same
      compiled fixpoint) — the baseline-gated quantity;
    * the pool did exactly **one** transform and **one** compile per
      shape: the second worker loaded the first's serialized shape from
      the registry (``serve.registry.hits`` moved, the pipeline did
      not).

    *budget* is accepted for harness symmetry but unused: the suite-wide
    wall-clock checkpoint lives in the dispatcher process and cannot be
    shipped to spawned workers; ``run_checks`` re-checks it between
    groups instead.
    """
    del budget
    entries = []
    registry_dir = tempfile.mkdtemp(prefix="bench-f6-registry-")
    with collect(ThreadSafeMetrics()):
        service = PooledService(processes=2, registry=registry_dir)
        try:
            for label, scenario, query in multiproc_workloads():
                service.load(label, program_text=scenario_text(scenario))
                goal = f"{query}?"
                before = dict(
                    service.metrics_payload()["metrics"]["counters"]
                )
                first = service.query(label, goal, strategy=STRATEGY)
                second = service.query(label, goal, strategy=STRATEGY)
                after = dict(service.metrics_payload()["metrics"]["counters"])

                if first["answers"] != second["answers"]:
                    failures.append(
                        f"f6/{label}: the two workers rendered different answers"
                    )
                expected = direct_rows(scenario, query)
                if first["answers"]["rows"] != expected:
                    failures.append(
                        f"f6/{label}: pooled answers differ from direct "
                        f"Engine.query"
                    )
                if first["stats"]["inferences"] != second["stats"]["inferences"]:
                    failures.append(
                        f"f6/{label}: inference counts diverged across workers "
                        f"({first['stats']['inferences']} != "
                        f"{second['stats']['inferences']})"
                    )
                deltas = {
                    name: after.get(name, 0) - before.get(name, 0)
                    for name in (
                        "prepare.transforms",
                        "prepare.compiles",
                        "serve.registry.hits",
                        "serve.registry.saves",
                    )
                }
                if deltas["prepare.transforms"] != 1:
                    failures.append(
                        f"f6/{label}: expected exactly one transform across "
                        f"the pool, saw {deltas['prepare.transforms']}"
                    )
                if deltas["prepare.compiles"] != 1:
                    failures.append(
                        f"f6/{label}: expected exactly one compile across "
                        f"the pool, saw {deltas['prepare.compiles']}"
                    )
                if deltas["serve.registry.hits"] != 1:
                    failures.append(
                        f"f6/{label}: expected one registry hit (the second "
                        f"worker's load), saw {deltas['serve.registry.hits']}"
                    )
                entries.append(
                    {
                        "id": f"f6/{label}/pooled-hit",
                        "strategy": STRATEGY,
                        "processes": 2,
                        "inferences": first["stats"]["inferences"],
                        "facts": first["stats"]["facts_derived"],
                        "answers": first["answers"]["count"],
                        "transforms": deltas["prepare.transforms"],
                        "registry_hits": deltas["serve.registry.hits"],
                    }
                )
        finally:
            service.close()
            shutil.rmtree(registry_dir, ignore_errors=True)
    return entries


# --- throughput measurement ---------------------------------------------------
def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        max(0, round(fraction * (len(sorted_values) - 1))),
    )
    return sorted_values[index]


def _fire(base_url: str, dataset: str, goal: str, expected_rows) -> list[float]:
    """One client's request loop; every answer is checked against the
    direct-engine rows before its latency counts."""
    latencies = []
    with ServeClient(base_url, timeout=300.0) as client:
        for _ in range(REQUESTS_PER_CLIENT):
            started = time.perf_counter()
            payload = client.query(dataset, goal, strategy=STRATEGY)
            latencies.append(time.perf_counter() - started)
            assert payload["complete"], payload
            assert payload["answers"]["rows"] == expected_rows, (
                f"{dataset}: served answers diverged from the direct engine"
            )
    return latencies


def server_configs():
    """(config label, worker-process count or None for threaded)."""
    return [("threaded", None)] + [
        (f"proc{count}", count) for count in PROCESS_COUNTS
    ]


def _measure_config(config, processes, workloads, expected) -> list[dict]:
    """Boot one server configuration and hammer every workload."""
    registry_dir = tempfile.mkdtemp(prefix="bench-f6-registry-")
    if processes is None:
        service = QueryService()
    else:
        service = PooledService(processes=processes, registry=registry_dir)
    server = create_server(port=0, service=service, install_metrics=False)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    base_url = f"http://127.0.0.1:{server.port}"
    entries = []
    warm_client = ServeClient(base_url, timeout=300.0)
    try:
        warm_client.wait_healthy(60.0)
        for label, scenario, query in workloads:
            warm_client.load(label, scenario_text(scenario))
            goal = f"{query}?"
            # Warm every worker slot (round-robin) so the measured wave
            # is all cache hits — prepared throughput, not prepare cost.
            for _ in range(max(2, 2 * (processes or 1))):
                warm_client.query(label, goal, strategy=STRATEGY)
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                latencies = [
                    latency
                    for batch in pool.map(
                        lambda _: _fire(base_url, label, goal, expected[label]),
                        range(CLIENTS),
                    )
                    for latency in batch
                ]
            wall = time.perf_counter() - started
            ordered = sorted(latencies)
            entries.append(
                {
                    "id": f"{label}/{config}",
                    "workload": label,
                    "config": config,
                    "processes": processes or 0,
                    "requests": len(ordered),
                    "clients": CLIENTS,
                    "wall_s": wall,
                    "throughput_rps": len(ordered) / wall if wall else 0.0,
                    "p50_ms": _percentile(ordered, 0.50) * 1000.0,
                    "p99_ms": _percentile(ordered, 0.99) * 1000.0,
                    "mean_ms": (sum(ordered) / len(ordered)) * 1000.0,
                }
            )
    finally:
        warm_client.close()
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10.0)
        shutil.rmtree(registry_dir, ignore_errors=True)
    return entries


def run_throughput_series():
    """All configurations × workloads under 16 concurrent clients."""
    workloads = multiproc_workloads()
    expected = {
        label: direct_rows(scenario, query)
        for label, scenario, query in workloads
    }
    entries = []
    for config, processes in server_configs():
        with collect(ThreadSafeMetrics()):
            entries.extend(
                _measure_config(config, processes, workloads, expected)
            )
    by_id = {entry["id"]: entry for entry in entries}
    for label, _, _ in workloads:
        baseline = by_id[f"{label}/threaded"]["throughput_rps"]
        entry = {"id": f"{label}/speedup", "workload": label}
        for count in PROCESS_COUNTS:
            pooled = by_id[f"{label}/proc{count}"]["throughput_rps"]
            entry[f"speedup_x{count}"] = (
                pooled / baseline if baseline else float("inf")
            )
        entries.append(entry)
    return entries


def render_table(entries: list[dict]) -> str:
    header = (
        f"{'workload':<12} {'config':<9} {'requests':>8} {'rps':>8} "
        f"{'p50_ms':>8} {'p99_ms':>8} {'mean_ms':>8}"
    )
    lines = [
        "F6: multiprocess serving throughput, 16 clients on prepared "
        f"goals (strategy={STRATEGY}, cpus={os.cpu_count()})",
        header,
        "-" * len(header),
    ]
    for entry in entries:
        if "config" not in entry:
            continue
        lines.append(
            f"{entry['workload']:<12} {entry['config']:<9} "
            f"{entry['requests']:>8} {entry['throughput_rps']:>8.1f} "
            f"{entry['p50_ms']:>8.2f} {entry['p99_ms']:>8.2f} "
            f"{entry['mean_ms']:>8.2f}"
        )
    for entry in entries:
        if "speedup_x4" in entry:
            speedups = ", ".join(
                f"{count}p={entry[f'speedup_x{count}']:.2f}x"
                for count in PROCESS_COUNTS
            )
            lines.append(f"{entry['workload']}: pool vs threaded: {speedups}")
    return "\n".join(lines)


def test_f6_multiproc(benchmark, report):
    entries = benchmark.pedantic(run_throughput_series, rounds=1, iterations=1)
    failures: list[str] = []
    parity = multiproc_parity_entries(failures)
    assert not failures, failures
    report("f6", render_table(entries), entries=entries + parity)
    # The speedup bar needs real cores: on a small host the extra
    # processes time-slice one CPU and the bench is parity-only.
    if (os.cpu_count() or 1) >= MIN_CPUS_FOR_SPEEDUP:
        table = render_table(entries)
        for entry in entries:
            if "speedup_x4" in entry:
                assert entry["speedup_x4"] >= SPEEDUP_BAR, table
