#!/usr/bin/env python3
"""Advisory end-to-end gate: this checkout against its merge base.

A stored baseline cannot gate wall-clock numbers that drift between
machines and sessions, so both trees are measured here, on the same
machine, in alternating pairs.  The merge base of ``--base`` and
``HEAD`` is checked out with ``git worktree``; each pair runs one set
of the repo benchmark (``benchmarks/e2e/run.py --seed S --seconds T``,
every workload) in each tree, base first in even pairs and head first
in odd ones.  Each side's sets are concatenated into one document of the
``run.py --repeat`` format, written to ``OUT/base.json`` and
``OUT/head.json``, and the exit status is that of::

    python3 benchmarks/e2e/run.py --compare OUT/base.json OUT/head.json

(1 when a bounded metric regressed or a count differs).  The machine's
``cpus`` and Python version are printed first, and each document's
``gate`` record holds them with that side's commit SHA and its
``slowdown``: per pair, the machine's calibrated slowdown around that
side's set (the benchmark harness's calibration kernel, timed just
before and just after the set; 1.0 is the harness's reference speed),
so a pair run on a slowed machine can be told apart.  When a run dies
(an exit status other than 0 or 1, or no result file), the gate prints
the tree, the pair, the exit status and the tail of its stderr, and
exits 2.

Usage::

    python tools/e2e_gate.py --base origin/main --pairs 3 --seconds 20 --out e2e-gate
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUNNER = Path("benchmarks") / "e2e" / "run.py"
# The benchmark harness of this checkout, imported (never changed) for
# its calibration kernel.
HARNESS = REPO / "benchmarks" / "e2e"


def merge_sets(documents: list) -> dict:
    """One ``--repeat``-format document holding every set of *documents*
    (each one ``run.py`` result file of one tree), in order.

    ``env`` and ``ops`` are the first document's; ``degraded`` lists each
    workload's flags from every document, without repeats.
    """
    if not documents:
        raise ValueError("nothing to merge")
    if len({bool(document.get("trace")) for document in documents}) > 1:
        raise ValueError("traced and untraced sets cannot be merged")
    first = documents[0]
    degraded: dict = {}
    for document in documents:
        for workload, flags in document.get("degraded", {}).items():
            merged = degraded.setdefault(workload, [])
            merged.extend(flag for flag in flags if flag not in merged)
    return {
        "env": first["env"],
        "trace": first.get("trace", False),
        "sets": [run for document in documents for run in document["sets"]],
        "ops": first.get("ops", {}),
        "degraded": degraded,
    }


class RunDied(Exception):
    """A benchmark run exited with a status other than 0 or 1, or wrote
    no result file; the message names the tree, the pair and the status."""


def run_set(tree: Path, seed: int, seconds: float, pair: str = "") -> dict:
    """One set of every workload in *tree*; its result document."""
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    print(done.stdout, end="", flush=True)
    path = tree / "benchmarks" / "e2e" / "results" / f"sets-seed{seed}.json"
    if done.returncode not in (0, 1) or not path.exists():
        raise RunDied(
            f"benchmark run died: tree {tree}, {pair or 'one set'}, exit status "
            f"{done.returncode}; stderr ends:\n{done.stderr[-2000:]}"
        )
    if done.returncode:
        print(f"# failed ops in {tree}", flush=True)
    document = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()  # so a later run that dies cannot leave this one behind
    return document


def machine_slowdown() -> float:
    """The machine's calibrated slowdown now: the benchmark harness's
    ``slowdown_now()`` (1.0 = the harness's reference speed)."""
    for path in (HARNESS, HARNESS.parent.parent / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import harness

    return harness.slowdown_now()


def measure(
    trees: dict, commits: dict, pairs: int, seed: int, seconds: float, out: Path
) -> dict:
    """Run *pairs* alternating pairs of sets in the ``base`` and ``head``
    *trees*, write ``OUT/base.json`` and ``OUT/head.json``, and return
    their paths by side.  Raises :class:`RunDied` when a run dies."""
    documents: dict = {"base": [], "head": []}
    slowdowns: dict = {"base": [], "head": []}
    for pair in range(pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            label = f"pair {pair + 1}/{pairs} ({side})"
            print(f"# {label}: {trees[side]}", flush=True)
            before = machine_slowdown()
            documents[side].append(run_set(trees[side], seed, seconds, label))
            slowdowns[side].append(round((before + machine_slowdown()) / 2, 3))
    host = {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    paths = {}
    for side, sets in documents.items():
        document = merge_sets(sets)
        document["gate"] = {
            "side": side, "commit": commits[side], **host, "slowdown": slowdowns[side],
        }
        paths[side] = out / f"{side}.json"
        paths[side].write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    return paths


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="origin/main",
                        help="ref whose merge base with HEAD is measured (default origin/main)")
    parser.add_argument("--pairs", type=int, default=3, help="alternating pairs of sets")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed window per run")
    parser.add_argument("--out", default="e2e-gate", help="where base.json and head.json go")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    print(f"# cpus {len(os.sched_getaffinity(0))}, python {platform.python_version()}",
          flush=True)
    commits = {"base": git("merge-base", args.base, "HEAD"), "head": git("rev-parse", "HEAD")}
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="e2e-gate-"))
    worktree = scratch / "base"
    git("worktree", "add", "--detach", str(worktree), commits["base"])
    try:
        paths = measure({"base": worktree, "head": REPO}, commits,
                        args.pairs, args.seed, args.seconds, out)
    except RunDied as died:
        print(f"e2e_gate: {died}", file=sys.stderr, flush=True)
        return 2
    finally:
        git("worktree", "remove", "--force", str(worktree))
        shutil.rmtree(scratch, ignore_errors=True)
    compared = subprocess.run(
        [sys.executable, str(RUNNER), "--compare", str(paths["base"]), str(paths["head"])],
        cwd=REPO,
    )
    return compared.returncode


if __name__ == "__main__":
    sys.exit(main())
