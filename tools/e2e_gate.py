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
``cpus`` and Python version are printed first.

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


def run_set(tree: Path, seed: int, seconds: float) -> dict:
    """One set of every workload in *tree*; its result document."""
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    print(done.stdout, end="", flush=True)
    path = tree / "benchmarks" / "e2e" / "results" / f"sets-seed{seed}.json"
    if done.returncode not in (0, 1) or not path.exists():
        raise RuntimeError(f"benchmark run in {tree} died:\n{done.stderr[-2000:]}")
    if done.returncode:
        print(f"# failed ops in {tree}", flush=True)
    document = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()  # so a later run that dies cannot leave this one behind
    return document


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
    base = git("merge-base", args.base, "HEAD")
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="e2e-gate-"))
    worktree = scratch / "base"
    git("worktree", "add", "--detach", str(worktree), base)
    sides = {"base": worktree, "head": REPO}
    documents: dict = {"base": [], "head": []}
    try:
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                print(f"# pair {pair + 1}/{args.pairs}: {side} ({sides[side]})", flush=True)
                documents[side].append(run_set(sides[side], args.seed, args.seconds))
    finally:
        git("worktree", "remove", "--force", str(worktree))
        shutil.rmtree(scratch, ignore_errors=True)
    paths = {}
    for side, sets in documents.items():
        paths[side] = out / f"{side}.json"
        paths[side].write_text(json.dumps(merge_sets(sets), indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    compared = subprocess.run(
        [sys.executable, str(RUNNER), "--compare", str(paths["base"]), str(paths["head"])],
        cwd=REPO,
    )
    return compared.returncode


if __name__ == "__main__":
    sys.exit(main())
