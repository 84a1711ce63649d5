"""Tests for the advisory end-to-end gate's set merge (tools/e2e_gate.py)."""

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).parent.parent / "tools" / "e2e_gate.py"
_spec = importlib.util.spec_from_file_location("e2e_gate", _TOOL)
e2e_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_gate)


def _document(commit: str, values: list, degraded=None, trace=False) -> dict:
    """A ``run.py`` result file of one tree: one set per value."""
    return {
        "env": {"commit": commit, "cpus": 2, "seed": 1, "seconds": 20.0},
        "trace": trace,
        "sets": [{"cold-rulebase": {"op_p50_ms": value}} for value in values],
        "ops": {"cold-rulebase": 100 + len(values)},
        "degraded": {"cold-rulebase": degraded or []},
    }


def test_sets_are_concatenated_in_order():
    merged = e2e_gate.merge_sets([_document("a", [1.0]), _document("a", [2.0, 3.0])])
    assert [run["cold-rulebase"]["op_p50_ms"] for run in merged["sets"]] == [1.0, 2.0, 3.0]
    assert merged["env"]["commit"] == "a" and merged["trace"] is False
    assert merged["ops"] == {"cold-rulebase": 101}


def test_degraded_flags_are_kept_once_each():
    merged = e2e_gate.merge_sets([
        _document("a", [1.0], ["slow generator"]),
        _document("a", [2.0], ["slow generator", "swap"]),
        _document("a", [3.0]),
    ])
    assert merged["degraded"] == {"cold-rulebase": ["slow generator", "swap"]}


def test_the_merged_document_is_what_compare_reads():
    merged = e2e_gate.merge_sets([_document("a", [1.0]), _document("a", [2.0])])
    assert set(merged) == {"env", "trace", "sets", "ops", "degraded"}
    assert {"commit", "cpus", "seed"} <= set(merged["env"])


def test_traced_and_untraced_sets_do_not_mix():
    with pytest.raises(ValueError):
        e2e_gate.merge_sets([_document("a", [1.0]), _document("a", [2.0], trace=True)])


def test_nothing_to_merge_is_an_error():
    with pytest.raises(ValueError):
        e2e_gate.merge_sets([])
