"""F5 — Streaming maintenance: interleaved insert/delete/query traffic.

The maintenance subsystem's claim is asymptotic: a deletion should cost
work proportional to the *affected derivations*, not to the whole model
the full-recompute oracle rebuilds.  This bench streams a seeded mix of
inserts, deletes (>= 20% of operations), and queries over two F1/F3-
shaped workloads and measures every operation under DRed and the
recompute oracle side by side:

* **tc-chains** — linear transitive closure over several disjoint
  chains (recursive; disjointness keeps a delete's cone a small fraction
  of the model, which is exactly the regime maintenance is for — one
  cyclic mega-component would make over-delete/re-derive touch
  everything and hand recompute the win);
* **hops-chain** — a 4-level non-recursive join pyramid over one chain.

After *every* operation the fast engine's decoded fact set is asserted
bit-identical to the oracle's — the differential suite pins the same
claim on random programs; here it runs inline so the timing numbers can
never come from a diverged model.  Reported per (workload, mode):
p50/p99/mean per-operation latency by kind, plus the delete-path totals
(wall-clock and join attempts) and the resulting maintenance-vs-
recompute speedups, written to ``BENCH_f5.json``.

The deterministic slice — total inferences and the attempt ordering
(fast deletes must attempt *fewer* joins than recompute deletes) — is
gated by ``tools/bench_ci.py`` as group ``f5`` via
:func:`streaming_parity_entries`.
"""

from __future__ import annotations

import os
import random
import time

from repro.datalog.parser import parse_program
from repro.engine.incremental import IncrementalEngine

CHAINS = 8
CHAIN_LEN = 24
HOPS_N = 48
STREAM_LENGTH = 120
DELETE_RATE = 0.30
INSERT_RATE = 0.35  # remainder are queries
STREAM_SEED = 2027


def chain_edges(n: int, prefix: str = "n") -> list[tuple[str, str]]:
    return [(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(n)]


def multi_chain_edges() -> list[tuple[str, str]]:
    """:data:`CHAINS` disjoint chains of :data:`CHAIN_LEN` edges each."""
    return [
        edge
        for c in range(CHAINS)
        for edge in chain_edges(CHAIN_LEN, prefix=f"c{c}n")
    ]


def tc_source() -> str:
    """Linear transitive closure over disjoint chains — recursive."""
    lines = [f"edge({u}, {v})." for u, v in multi_chain_edges()]
    lines.append("path(X, Y) :- edge(X, Y).")
    lines.append("path(X, Y) :- edge(X, Z), path(Z, Y).")
    return "\n".join(lines)


def hops_source(n: int) -> str:
    """A non-recursive join pyramid over a chain."""
    lines = [f"edge({u}, {v})." for u, v in chain_edges(n)]
    lines.append("hop1(X, Y) :- edge(X, Y).")
    for k in range(2, 5):
        lines.append(f"hop{k}(X, Y) :- edge(X, Z), hop{k - 1}(Z, Y).")
    return "\n".join(lines)


def _fresh_tc_edge(rng: random.Random) -> tuple[str, str]:
    """A fresh *forward* shortcut within one chain: acyclic by
    construction, so the model stays bounded and delete cones stay local
    to their chain."""
    chain = rng.randrange(CHAINS)
    u = rng.randrange(CHAIN_LEN - 1)
    v = rng.randint(u + 1, min(CHAIN_LEN, u + 3))
    return (f"c{chain}n{u}", f"c{chain}n{v}")


def _fresh_hops_edge(rng: random.Random) -> tuple[str, str]:
    u, v = rng.sample(range(HOPS_N + 1), 2)
    return (f"n{u}", f"n{v}")


def streaming_workloads():
    """(label, source, fast mode, goal, initial edges, fresh-edge fn)."""
    return [
        (
            "tc-chains8x24", tc_source(), "dred", "path(c0n0, X)?",
            multi_chain_edges(), _fresh_tc_edge,
        ),
        (
            "hops-chain48", hops_source(HOPS_N), "dred", "hop4(X, Y)?",
            chain_edges(HOPS_N), _fresh_hops_edge,
        ),
    ]


def build_stream(
    seed: int,
    initial_edges: list[tuple[str, str]],
    fresh_edge,
    length: int,
) -> list[tuple[str, "str | None"]]:
    """A seeded insert/delete/query stream over an edge set.

    Deletes pick a currently present edge, inserts re-add a removed one
    or add a fresh edge from *fresh_edge* (keeping the model bounded),
    queries carry no operand.  The mix holds deletes at
    :data:`DELETE_RATE` of operations — above the >= 20% the acceptance
    bar requires — which :func:`test_f5_streaming` re-checks.
    """
    rng = random.Random(seed)
    present = set(initial_edges)
    removed: list[tuple[str, str]] = []
    stream: list[tuple[str, "str | None"]] = []
    for _ in range(length):
        roll = rng.random()
        if roll < DELETE_RATE and present:
            edge = rng.choice(sorted(present))
            present.discard(edge)
            removed.append(edge)
            stream.append(("remove", f"edge({edge[0]}, {edge[1]})"))
        elif roll < DELETE_RATE + INSERT_RATE:
            if removed and rng.random() < 0.6:
                edge = removed.pop(rng.randrange(len(removed)))
            else:
                edge = fresh_edge(rng)
            present.add(edge)
            stream.append(("add", f"edge({edge[0]}, {edge[1]})"))
        else:
            stream.append(("query", None))
    return stream


def decoded_facts(database) -> frozenset:
    """The database as raw (predicate, values) pairs — the bit-identity
    currency shared with the differential suite."""
    return frozenset(
        (relation.name, row)
        for relation in database.relations()
        for row in relation.rows()
    )


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        max(0, round(fraction * (len(sorted_values) - 1))),
    )
    return sorted_values[index]


def _latency_stats(seconds: list[float], prefix: str) -> dict:
    ordered = sorted(seconds)
    mean = (sum(ordered) / len(ordered)) if ordered else 0.0
    return {
        f"{prefix}_ops": len(ordered),
        f"{prefix}_p50_ms": _percentile(ordered, 0.50) * 1000.0,
        f"{prefix}_p99_ms": _percentile(ordered, 0.99) * 1000.0,
        f"{prefix}_mean_ms": mean * 1000.0,
        f"{prefix}_total_s": sum(ordered),
    }


def run_stream(label, source, fast_mode, goal, stream, budget=None):
    """Drive *stream* through the fast engine and the recompute oracle in
    lockstep; returns ``(per-mode measurements, assertion failures)``.

    Each operation is timed per engine; after each one the decoded fact
    sets are compared (and query answers must match exactly), so a
    divergence surfaces as a failure string instead of silently skewing
    the latency numbers.
    """
    program = parse_program(source)
    engines = {
        fast_mode: IncrementalEngine(
            program, maintenance=fast_mode, budget=budget
        ),
        "recompute": IncrementalEngine(
            program, maintenance="recompute", budget=budget
        ),
    }
    latencies = {
        mode: {"add": [], "remove": [], "query": []} for mode in engines
    }
    delete_attempts = dict.fromkeys(engines, 0)
    failures: list[str] = []
    for step, (op, operand) in enumerate(stream):
        answers = {}
        for mode, engine in engines.items():
            before_attempts = engine.stats.attempts
            started = time.perf_counter()
            if op == "query":
                answers[mode] = engine.query(goal)
            elif op == "add":
                engine.add(operand)
            else:
                engine.remove(operand)
            latencies[mode][op].append(time.perf_counter() - started)
            if op == "remove":
                delete_attempts[mode] += engine.stats.attempts - before_attempts
        if op == "query" and answers[fast_mode] != answers["recompute"]:
            failures.append(
                f"f5/{label}: step {step} query answers diverged under "
                f"{fast_mode}"
            )
        fast_facts = decoded_facts(engines[fast_mode].database)
        oracle_facts = decoded_facts(engines["recompute"].database)
        if fast_facts != oracle_facts:
            failures.append(
                f"f5/{label}: step {step} ({op}) broke bit-identity under "
                f"{fast_mode}"
            )
            break
    measurements = {}
    for mode, engine in engines.items():
        record = {
            "mode": mode,
            "inferences": engine.stats.inferences,
            "attempts": engine.stats.attempts,
            "delete_attempts": delete_attempts[mode],
            "final_facts": len(decoded_facts(engine.database)),
        }
        for kind in ("add", "remove", "query"):
            record.update(_latency_stats(latencies[mode][kind], kind))
        measurements[mode] = record
    return measurements, failures


def run_streaming_series(budget=None):
    """All workloads through :func:`run_stream`; entries for the report."""
    entries = []
    failures: list[str] = []
    for label, source, fast_mode, goal, edges, fresh in streaming_workloads():
        stream = build_stream(STREAM_SEED, edges, fresh, STREAM_LENGTH)
        measurements, stream_failures = run_stream(
            label, source, fast_mode, goal, stream, budget=budget
        )
        failures.extend(stream_failures)
        for mode, record in measurements.items():
            entries.append(
                {"id": f"f5/{label}/{mode}", "workload": label, **record}
            )
        fast, oracle = measurements[fast_mode], measurements["recompute"]
        entries.append(
            {
                "id": f"f5/{label}/speedup",
                "workload": label,
                "fast_mode": fast_mode,
                "deletes": fast["remove_ops"],
                "delete_share": fast["remove_ops"] / len(stream),
                "wall_speedup": (
                    oracle["remove_total_s"] / fast["remove_total_s"]
                    if fast["remove_total_s"] > 0
                    else float("inf")
                ),
                "attempt_speedup": (
                    oracle["delete_attempts"] / fast["delete_attempts"]
                    if fast["delete_attempts"] > 0
                    else float("inf")
                ),
            }
        )
    return entries, failures


# --- deterministic parity (the bench_ci "f5" group) ---------------------------
def streaming_parity_entries(failures: list[str], budget=None) -> list[dict]:
    """The clock-free slice ``tools/bench_ci.py`` gates as group ``f5``.

    A shorter stream (cheap enough for CI) runs through
    :func:`run_stream`, which asserts fact-set bit-identity at every
    interleaving point; on top of that the fast mode must attempt
    strictly fewer joins on the delete path than the recompute oracle —
    the deterministic half of the speedup claim.  The per-mode
    ``inferences`` totals are the baseline-gated quantities.
    """
    entries = []
    for label, source, fast_mode, goal, edges, fresh in streaming_workloads():
        stream = build_stream(STREAM_SEED, edges, fresh, 40)
        if sum(1 for op, _ in stream if op == "remove") < len(stream) // 5:
            failures.append(f"f5/{label}: stream has fewer than 20% deletes")
        measurements, stream_failures = run_stream(
            label, source, fast_mode, goal, stream, budget=budget
        )
        failures.extend(stream_failures)
        fast, oracle = measurements[fast_mode], measurements["recompute"]
        if fast["delete_attempts"] >= oracle["delete_attempts"]:
            failures.append(
                f"f5/{label}: {fast_mode} deletes attempted "
                f"{fast['delete_attempts']} joins, not fewer than recompute's "
                f"{oracle['delete_attempts']}"
            )
        for mode, record in measurements.items():
            entries.append(
                {
                    "id": f"f5/{label}/{mode}",
                    "workload": label,
                    "mode": mode,
                    "inferences": record["inferences"],
                    "attempts": record["attempts"],
                    "delete_attempts": record["delete_attempts"],
                    "facts": record["final_facts"],
                }
            )
    return entries


def render_table(entries: list[dict]) -> str:
    header = (
        f"{'workload':<14} {'mode':<10} {'del p50':>8} {'del p99':>8} "
        f"{'add p50':>8} {'qry p50':>8} {'del attempts':>12}"
    )
    lines = [
        "F5: streaming maintenance, per-operation latency (ms) "
        f"({STREAM_LENGTH} ops, {DELETE_RATE:.0%} deletes, cpus={os.cpu_count()})",
        header,
        "-" * len(header),
    ]
    for entry in entries:
        if "mode" not in entry:
            continue
        lines.append(
            f"{entry['workload']:<14} {entry['mode']:<10} "
            f"{entry['remove_p50_ms']:>8.2f} {entry['remove_p99_ms']:>8.2f} "
            f"{entry['add_p50_ms']:>8.2f} {entry['query_p50_ms']:>8.2f} "
            f"{entry['delete_attempts']:>12}"
        )
    for entry in entries:
        if "wall_speedup" in entry:
            lines.append(
                f"{entry['workload']}: {entry['fast_mode']} deletes are "
                f"{entry['wall_speedup']:.1f}x faster "
                f"({entry['attempt_speedup']:.1f}x fewer join attempts) "
                f"than recompute over {entry['deletes']} deletes "
                f"({entry['delete_share']:.0%} of the stream)"
            )
    return "\n".join(lines)


def test_f5_streaming(benchmark, report):
    entries, failures = benchmark.pedantic(
        run_streaming_series, rounds=1, iterations=1
    )
    table = render_table(entries)
    assert not failures, (failures, table)
    report("f5", table, entries=entries, meta={"cpus": os.cpu_count()})
    speedups = [entry for entry in entries if "wall_speedup" in entry]
    assert len(speedups) == len(streaming_workloads())
    for entry in speedups:
        # The acceptance bar: >= 20% deletes, and the maintenance path
        # beats full recompute on both wall-clock and join attempts.
        assert entry["delete_share"] >= 0.20, table
        assert entry["attempt_speedup"] > 1.0, table
        assert entry["wall_speedup"] > 1.0, table
