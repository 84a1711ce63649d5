"""Tests for the advisory end-to-end gate (tools/e2e_gate.py): its set
merge, and its runs against a stub runner."""

import importlib.util
import json
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


# --- the gate's runs, against a stub runner --------------------------------------

_STUB = """
import json, pathlib, sys
args = sys.argv[1:]
if "--compare" in args:
    sys.exit(0)
if {dies!r}:
    print("Traceback: boom", file=sys.stderr)
    sys.exit(3)
seed = args[args.index("--seed") + 1]
results = pathlib.Path(__file__).parent / "results"
results.mkdir(exist_ok=True)
document = {{
    "env": {{"commit": None, "cpus": 2, "seed": int(seed), "seconds": 1.0}},
    "trace": False,
    "sets": [{{"cold-rulebase": {{"op_p50_ms": 1.0}}}}],
    "ops": {{}},
    "degraded": {{}},
}}
(results / f"sets-seed{{seed}}.json").write_text(json.dumps(document))
"""


def _stub_tree(root: pathlib.Path, dies: bool = False) -> pathlib.Path:
    runner = root / "benchmarks" / "e2e" / "run.py"
    runner.parent.mkdir(parents=True)
    runner.write_text(_STUB.format(dies=dies))
    return root


def _fake_git(base_tree_dies: bool):
    def git(*args):
        if args[0] == "merge-base":
            return "b" * 40
        if args[0] == "rev-parse":
            return "h" * 40
        if args[:2] == ("worktree", "add"):
            _stub_tree(pathlib.Path(args[3]), dies=base_tree_dies)
        return ""

    return git


def test_each_document_records_cpus_python_and_its_commit(tmp_path, monkeypatch, capsys):
    import os
    import platform

    monkeypatch.setattr(e2e_gate, "REPO", _stub_tree(tmp_path / "head"))
    monkeypatch.setattr(e2e_gate, "git", _fake_git(base_tree_dies=False))
    out = tmp_path / "out"
    assert e2e_gate.main(["--pairs", "2", "--seconds", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.index("pair 1/2 (base)") < printed.index("pair 1/2 (head)")
    assert printed.index("pair 2/2 (head)") < printed.index("pair 2/2 (base)")
    for side, commit in (("base", "b" * 40), ("head", "h" * 40)):
        document = json.loads((out / f"{side}.json").read_text())
        assert document["gate"] == {
            "side": side,
            "commit": commit,
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
        }
        assert len(document["sets"]) == 2


def test_a_dying_run_is_reported_and_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(e2e_gate, "REPO", _stub_tree(tmp_path / "head"))
    monkeypatch.setattr(e2e_gate, "git", _fake_git(base_tree_dies=True))
    out = tmp_path / "out"
    assert e2e_gate.main(["--pairs", "2", "--seconds", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" not in err
    assert "pair 1/2 (base)" in err and "exit status 3" in err
    assert "Traceback: boom" in err and "/base" in err
    assert not (out / "base.json").exists()


def test_run_set_raises_run_died_with_the_tree_and_pair(tmp_path):
    tree = _stub_tree(tmp_path / "tree", dies=True)
    with pytest.raises(e2e_gate.RunDied, match="pair 3/5 .head., exit status 3"):
        e2e_gate.run_set(tree, 1, 1.0, "pair 3/5 (head)")
