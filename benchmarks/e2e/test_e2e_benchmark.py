"""Self-tests of the end-to-end benchmark.

Not in tier-1 ``testpaths``; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_benchmark.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import rulebases  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- BENCHMARK.json ----------------------------------------------------------

def test_contract_names_match_the_code():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert {m["name"] for m in CONTRACT["end_to_end"]} == set(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == list(
        layers.PER_LAYER
    )
    names = (
        [w["name"] for w in CONTRACT["workloads"]]
        + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    )
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert all(
        not part.startswith("/") and ".." not in part for part in CONTRACT["command"]
    )
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 10) < 3420


# --- generators --------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_generators_are_functions_of_the_seed(workload):
    first, again, other = (workloads.build(workload, seed) for seed in (3, 3, 4))
    assert first == again
    assert [d.text for d in first.datasets] == [d.text for d in again.datasets]
    assert first.clients != other.clients
    assert [d.text for d in first.datasets] != [d.text for d in other.datasets]


def test_rulebase_shape_is_seed_independent():
    for index, count in enumerate(rulebases.SUITE_RULE_COUNTS):
        a, b = rulebases.generate_rulebase(index, 1), rulebases.generate_rulebase(index, 2)
        assert len(a.rules) == len(b.rules) == count
        assert a.text != b.text
        assert 20 <= len(a.facts) // 3 <= 80
        assert any(not positive for _, body in a.rules for positive, _, _ in body)


def test_update_mix_block_law():
    inputs = workloads.build("update-mix", 5)
    ops = inputs.clients[0]
    kinds = [op.kind for op in ops]
    assert kinds.count("update") * 5 == len(ops)
    maintained = sum(bool(op.options) for op in ops)
    assert (len(ops) - kinds.count("update") - maintained) * 7 == maintained * 9
    assert len(inputs.sample) % len(workloads._UPDATE_BLOCK) == 0


# --- oracles, on hand-written cases ------------------------------------------

TREE = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]


def test_reachable():
    edges = [(1, 2), (2, 3), (3, 1), (3, 4), (5, 6)]
    assert oracles.reachable(edges, 1) == {1, 2, 3, 4}
    assert oracles.reachable(edges, 4) == frozenset()
    assert oracles.reachable(edges, 5) == {6}


def test_same_generation():
    assert oracles.same_generation_answers(TREE, 0, 3) == {5, 6}
    assert oracles.same_generation_answers(TREE, 0, 1) == {2}
    assert oracles.same_generation_answers(TREE, 0, 0) == frozenset()


def test_clean():
    assert oracles.clean_answers(TREE, [6], 1) == {3, 4}
    assert oracles.clean_answers(TREE, [6], 2) == frozenset()
    assert oracles.clean_answers(TREE, [6], 0) == frozenset()
    assert oracles.clean_answers(TREE, [1], 1) == frozenset()


def test_naive_model_with_negation_and_recursion():
    xy, xz, zy = ("X", "Y"), ("X", "Z"), ("Z", "Y")
    rules = [
        (("t", xy), ((True, "e", xy),)),
        (("t", xy), ((True, "e", xz), (True, "t", zy))),
        (("far", xy), ((True, "t", xy), (False, "e", xy))),
        (("twice", xy), ((True, "far", xz), (True, "far", zy))),
    ]
    facts = {"e": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]}
    model = oracles.naive_model(rules, facts)
    assert len(model["t"]) == 10
    assert model["far"] == {
        ("a", "c"), ("a", "d"), ("a", "e"), ("b", "d"), ("b", "e"), ("c", "e")
    }
    assert model["twice"] == {("a", "e")}
    assert oracles.goal_rows(model, "t", ("b", "Y")) == {("b", "c"), ("b", "d"), ("b", "e")}
    with pytest.raises(ValueError):
        oracles.naive_model([(("p", ("X",)), ((True, "q", ("X",)), (False, "p", ("X",))))], {})


# --- statistics --------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert harness.percentile(range(99), 0.9) is None
    assert harness.percentile(range(100), 0.9) == 90
    assert harness.percentile(range(19), 0.5) is None
    assert harness.percentile(range(20), 0.5) == 10
    assert harness.percentile(range(999), 0.99) is None
    assert harness.percentile(range(1000), 0.99) == 990


def test_verdicts():
    lower = {"name": "op_p50_ms", "better": "lower", "bound": 0.1}
    higher = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
    count = {"name": "engine.inferences_per_op", "better": "lower"}
    assert compare.verdict(lower, [10.0, 10.1, 10.2], [10.5, 10.6, 10.4]) == "agrees"
    assert compare.verdict(lower, [10.0, 10.1, 10.2], [11.5, 11.6, 11.4]) == "regressed"
    assert compare.verdict(lower, [11.5, 11.6, 11.4], [10.0, 10.1, 10.2]) == "agrees"
    assert compare.verdict(higher, [100.0, 101.0, 99.0], [85.0, 86.0, 84.0]) == "regressed"
    assert compare.verdict(lower, [10.0, 12.5, 15.0], [10.0, 10.1, 10.2]) == "unresolved"
    assert compare.verdict(count, [812.0], [812.0]) == "same"
    assert compare.verdict(count, [812.0], [812.5]) == "differs"


def test_self_time_is_span_minus_children():
    tracer = layers.Tracer()
    tracer.op = 0
    with tracer.span("op"):
        with tracer.span("engine.fixpoint"):
            time.sleep(0.02)
        time.sleep(0.01)
    own = tracer.self_seconds({0: 1.0})
    assert own["engine.fixpoint"] >= 0.02
    assert 0.01 <= own["op"] < 0.02
    assert layers.layer_of("engine.fixpoint") == "engine_fixpoint"
    assert layers.layer_of("datalog.parse_query") == "datalog"
    assert layers.layer_of("op") is None


# --- the benchmark itself, smoke-sized ---------------------------------------

def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=REPO, timeout=180,
    )


def test_quick_smoke_of_all_four_workloads():
    started = time.monotonic()
    done = _run("--quick")
    assert done.returncode == 0, done.stderr
    assert time.monotonic() - started < 20
    for workload in workloads.WORKLOAD_NAMES:
        assert f"# {workload}: ok" in done.stdout
    for metric in harness.END_TO_END:
        assert metric in done.stdout


@pytest.mark.parametrize("workload", ["cold-rulebase", "update-mix"])
def test_quick_traced_run_reports_every_layer_metric(workload):
    done = _run("--workload", workload, "--quick", "--trace", "1", "--seed", "2")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in layers.PER_LAYER}
    trace = json.loads((HERE / "results" / f"trace-{workload}.json").read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"op", "engine.fixpoint", "datalog.parse_query"} <= names
    assert all(span["end"] >= span["start"] for span in trace["spans"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_pooled_run_leaves_no_process_behind(trace):
    """The worker pool's resource trackers outlive their parents by a
    moment; as the reaper of orphans this test would inherit any that
    ``run.py`` did not wait for."""
    assert harness.become_subreaper()
    before = {row[0] for row in harness._processes() if row[2] == os.getpid()}
    done = _run("--workload", "pool-heavy", "--quick", "--trace", trace)
    assert done.returncode == 0, done.stderr
    after = {row[0] for row in harness._processes() if row[2] == os.getpid()}
    assert after <= before
