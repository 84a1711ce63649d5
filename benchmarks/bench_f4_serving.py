"""F4 — Serving latency: cold pipeline vs prepared-cache hits.

The serving layer's claim is architectural: a prepared-cache hit skips
parse/adorn/transform/plan/compile entirely, so repeated queries against
a long-lived server should cost only fixpoint execution.  This bench
measures that claim end to end — real :class:`ThreadingHTTPServer`, real
:class:`ServeClient` connections, wall-clock request latency — at 1, 4,
and 16 concurrent clients on the T1 (ancestor chain) and T3
(same-generation) workloads:

* **cold** — the prepared cache is cleared, then every client fires the
  query shape at once: each request pays the full pipeline (concurrent
  misses race the prepare; none can use a cached shape).
* **prepared** — the same clients replay the same shape against the warm
  cache: every request is a hit.

Reported per (workload, client count, phase): p50/p99/mean latency in
milliseconds, written to ``BENCH_f4.json``.  Latency ratios are hardware
noise; the *deterministic* part — hit answers bit-identical to a direct
:meth:`repro.core.engine.Engine.query`, identical inference counts, flat
pipeline counters — lives in :func:`serving_parity_entries`, which
``tools/bench_ci.py`` gates against the committed baseline as group
``f4``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.engine import Engine
from repro.obs import collect
from repro.serve import QueryService, ServeClient, create_server
from repro.workloads import ancestor, same_generation

CLIENT_COUNTS = (1, 4, 16)
PREPARED_REQUESTS_PER_CLIENT = 8
STRATEGY = "alexander"


def serving_workloads():
    """The (label, scenario, bound query) pairs the bench serves."""
    t1 = ancestor(graph="chain", n=64)
    t3 = same_generation(depth=4, branching=2)
    return [
        ("t1-chain64", t1, t1.query(0)),
        ("t3-sg-d4", t3, t3.query(0)),
    ]


def scenario_text(scenario) -> str:
    """A scenario's program + EDB as loadable Datalog source."""
    lines = [str(rule) for rule in scenario.program.proper_rules]
    for predicate in sorted(scenario.database.predicates()):
        for row in sorted(scenario.database.rows(predicate)):
            args = ", ".join(str(value) for value in row)
            lines.append(f"{predicate}({args}).")
    return "\n".join(lines)


# --- deterministic parity (the bench_ci "f4" group) ---------------------------
def serving_parity_entries(failures: list[str], budget=None) -> list[dict]:
    """Cache-hit correctness, gated without any HTTP or clock in the way.

    For each workload, against an in-process :class:`QueryService`:

    * the first request is a miss, the second a hit;
    * both payloads render *identical* answers, and those answers equal a
      direct :meth:`Engine.query` (bit-identity of the serving path);
    * miss and hit report identical ``inferences`` (the hit reruns only
      the compiled fixpoint — same evaluation, same counters);
    * the hit does zero transform/compile work (flat pipeline counters).

    The returned entries carry the hit's deterministic ``inferences`` as
    the baseline-gated quantity.
    """
    entries = []
    for label, scenario, query in serving_workloads():
        service = QueryService()
        with collect() as metrics:
            service.load(label, scenario_text(scenario))
            goal = f"{query}?"
            started = time.perf_counter()
            miss = service.query(label, goal, strategy=STRATEGY)
            miss_seconds = time.perf_counter() - started
            before = dict(metrics.counters)
            started = time.perf_counter()
            hit = service.query(label, goal, strategy=STRATEGY)
            hit_seconds = time.perf_counter() - started
            after = dict(metrics.counters)

        if miss["cache_hit"] or not hit["cache_hit"]:
            failures.append(
                f"f4/{label}: expected miss-then-hit, got "
                f"{miss['cache_hit']}/{hit['cache_hit']}"
            )
        if miss["answers"] != hit["answers"]:
            failures.append(f"f4/{label}: hit answers differ from miss answers")
        direct = Engine(scenario.program, scenario.database).query(
            query, strategy=STRATEGY
        )
        expected_rows = [list(atom.ground_key()) for atom in direct.answers]
        if hit["answers"]["rows"] != expected_rows:
            failures.append(
                f"f4/{label}: served answers differ from direct Engine.query"
            )
        if miss["stats"]["inferences"] != hit["stats"]["inferences"]:
            failures.append(
                f"f4/{label}: hit inference count diverged "
                f"({miss['stats']['inferences']} != {hit['stats']['inferences']})"
            )
        for counter in ("transform.rewritings", "prepare.fixpoints_compiled",
                        "kernel.rules_compiled"):
            if after.get(counter, 0) != before.get(counter, 0):
                failures.append(
                    f"f4/{label}: {counter} moved on the hit path "
                    f"({before.get(counter, 0)} -> {after.get(counter, 0)})"
                )
        entries.append(
            {
                "id": f"f4/{label}/prepared-hit",
                "strategy": STRATEGY,
                "inferences": hit["stats"]["inferences"],
                "facts": hit["stats"]["facts_derived"],
                "answers": hit["answers"]["count"],
                "miss_seconds": miss_seconds,
                "hit_seconds": hit_seconds,
            }
        )
    return entries


# --- latency measurement ------------------------------------------------------
def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def _latency_stats(seconds: list[float]) -> dict:
    ordered = sorted(seconds)
    return {
        "requests": len(ordered),
        "p50_ms": _percentile(ordered, 0.50) * 1000.0,
        "p99_ms": _percentile(ordered, 0.99) * 1000.0,
        "mean_ms": (sum(ordered) / len(ordered)) * 1000.0 if ordered else 0.0,
    }


def _fire(base_url: str, dataset: str, goal: str, requests: int) -> list[float]:
    """One client's request loop; returns per-request latencies."""
    latencies = []
    with ServeClient(base_url, timeout=120.0) as client:
        for _ in range(requests):
            started = time.perf_counter()
            payload = client.query(dataset, goal, strategy=STRATEGY)
            latencies.append(time.perf_counter() - started)
            assert payload["complete"], payload
    return latencies


def run_latency_series():
    """Cold vs prepared latency at each client count, over real HTTP."""
    service = QueryService()
    server = create_server(port=0, service=service, install_metrics=False)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    base_url = f"http://127.0.0.1:{server.port}"
    entries = []
    try:
        with ServeClient(base_url) as probe:
            probe.wait_healthy(15.0)
        for label, scenario, query in serving_workloads():
            service.load(label, scenario_text(scenario))
            goal = f"{query}?"
            for clients in CLIENT_COUNTS:
                # Cold: empty cache, every client pays the pipeline at once.
                service.cache.drop_dataset(label)
                with ThreadPoolExecutor(max_workers=clients) as pool:
                    cold = [
                        latency
                        for batch in pool.map(
                            lambda _: _fire(base_url, label, goal, 1),
                            range(clients),
                        )
                        for latency in batch
                    ]
                # Prepared: same shape, warm cache, every request a hit.
                with ThreadPoolExecutor(max_workers=clients) as pool:
                    prepared = [
                        latency
                        for batch in pool.map(
                            lambda _: _fire(
                                base_url, label, goal,
                                PREPARED_REQUESTS_PER_CLIENT,
                            ),
                            range(clients),
                        )
                        for latency in batch
                    ]
                for phase, latencies in (("cold", cold), ("prepared", prepared)):
                    entry = {
                        "id": f"{label}/c{clients}/{phase}",
                        "workload": label,
                        "clients": clients,
                        "phase": phase,
                        **_latency_stats(latencies),
                    }
                    entries.append(entry)
    finally:
        server.shutdown()
        server.server_close()
    return entries


def render_table(entries: list[dict]) -> str:
    header = (
        f"{'workload':<12} {'clients':>7} {'phase':<9} {'requests':>8} "
        f"{'p50_ms':>9} {'p99_ms':>9} {'mean_ms':>9}"
    )
    lines = [
        "F4: serving latency, cold pipeline vs prepared-cache hits "
        f"(strategy={STRATEGY})",
        header,
        "-" * len(header),
    ]
    for entry in entries:
        lines.append(
            f"{entry['workload']:<12} {entry['clients']:>7} "
            f"{entry['phase']:<9} {entry['requests']:>8} "
            f"{entry['p50_ms']:>9.2f} {entry['p99_ms']:>9.2f} "
            f"{entry['mean_ms']:>9.2f}"
        )
    return "\n".join(lines)


def test_f4_serving(benchmark, report):
    entries = benchmark.pedantic(run_latency_series, rounds=1, iterations=1)
    failures: list[str] = []
    parity = serving_parity_entries(failures)
    assert not failures, failures
    report("f4", render_table(entries), entries=entries + parity)
    # The prepared path does strictly less work per request, but only the
    # single-client series isolates that (higher client counts measure
    # sustained-load queueing, and the prepared wave sends 8x the
    # requests).  Allow generous headroom — this is a sanity bound, not a
    # timing gate.
    by_id = {entry["id"]: entry for entry in entries}
    for label, _, _ in serving_workloads():
        cold = by_id[f"{label}/c1/cold"]
        prepared = by_id[f"{label}/c1/prepared"]
        assert prepared["p50_ms"] <= cold["p50_ms"] * 1.5, (cold, prepared)
