#!/usr/bin/env python3
"""Documentation checks: intra-repo links and runnable tutorial examples.

Independent checks, all fast enough for every CI run:

* **Links** — every relative markdown link in the repo's top-level and
  ``docs/`` markdown files must point at a file (or directory) that
  exists.  External links (``http(s)://``, ``mailto:``) and in-page
  anchors (``#...``) are skipped; a ``file.md#anchor`` target checks the
  file part only.
* **Tutorial** — every fenced ``python`` code block in
  ``docs/TUTORIAL.md`` is executed, in order, in one shared namespace
  (the tutorial promises to be "runnable top to bottom", so CI holds it
  to that).  Blocks run against the real library; any exception fails
  the check.
* **Orphans** — every page in ``docs/`` must be reachable from
  ``README.md`` (the documentation index); a page nothing links to is
  dead weight that silently drifts out of date.
* **Docstrings** — every ``*.md`` file a docstring under ``src/`` names
  must exist at the repo root or under ``docs/``: those references are
  plain text, invisible to the link check.

Usage::

    python tools/check_docs.py            # all checks; the only run with docstrings
    python tools/check_docs.py --links    # links only
    python tools/check_docs.py --tutorial # tutorial only
    python tools/check_docs.py --orphans  # orphaned docs pages only

Exit code 0 iff every requested check passed.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

TUTORIAL = REPO_ROOT / "docs" / "TUTORIAL.md"

# [text](target) — target captured up to the first closing paren/space.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_PATTERN = re.compile(r"^```(\w*)\s*$")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
MARKDOWN_NAME = re.compile(r"[\w./-]+\.md\b")

# Task scaffolding quoting *other* repositories verbatim — their relative
# links point into those repos, not this one.
EXCLUDED = {"SNIPPETS.md", "PAPERS.md", "ISSUE.md"}


def markdown_files() -> list[pathlib.Path]:
    candidates = sorted(REPO_ROOT.glob("*.md")) + sorted(
        (REPO_ROOT / "docs").glob("*.md")
    )
    return [path for path in candidates if path.name not in EXCLUDED]


def check_links(problems: list[str]) -> int:
    """Validate relative link targets; returns the number of links seen."""
    checked = 0
    for path in markdown_files():
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for target in LINK_PATTERN.findall(line):
                if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                    continue
                checked += 1
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    relative = path.relative_to(REPO_ROOT)
                    problems.append(f"{relative}:{lineno}: broken link -> {target}")
    return checked


def check_orphans(problems: list[str]) -> int:
    """Every ``docs/`` page must be linked from README.md; returns the
    number of pages checked.

    The README's documentation index is the only table of contents the
    repo has — a page absent from it is unreachable for readers, so the
    check fails rather than letting it drift out of date unnoticed.
    """
    readme = REPO_ROOT / "README.md"
    linked = set()
    for target in LINK_PATTERN.findall(readme.read_text(encoding="utf-8")):
        if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        linked.add((readme.parent / target.split("#", 1)[0]).resolve())
    pages = sorted((REPO_ROOT / "docs").glob("*.md"))
    for page in pages:
        if page.resolve() not in linked:
            problems.append(
                f"docs/{page.name}: orphaned page — not linked from README.md"
            )
    return len(pages)


def check_docstrings(problems: list[str]) -> int:
    """Every ``*.md`` name in a ``src/**/*.py`` docstring must exist at
    the repo root or under ``docs/``; returns the number of names seen."""
    checked = 0
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            docstring = ast.get_docstring(node, clean=False)
            for name in MARKDOWN_NAME.findall(docstring or ""):
                checked += 1
                if not any((base / name).exists() for base in (REPO_ROOT, REPO_ROOT / "docs")):
                    relative = path.relative_to(REPO_ROOT)
                    line = getattr(node, "lineno", 1)
                    problems.append(f"{relative}:{line}: docstring names missing {name}")
    return checked


def python_blocks(text: str) -> list[tuple[int, str]]:
    """(starting line, source) of every fenced ``python`` block."""
    blocks: list[tuple[int, str]] = []
    language: str | None = None
    start = 0
    buffer: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        fence = FENCE_PATTERN.match(line)
        if fence is None:
            if language is not None:
                buffer.append(line)
            continue
        if language is None:
            language = fence.group(1)
            start = lineno + 1
            buffer = []
        else:
            if language == "python":
                blocks.append((start, "\n".join(buffer)))
            language = None
    return blocks


def check_tutorial(problems: list[str]) -> int:
    """Execute the tutorial's python blocks; returns how many ran."""
    blocks = python_blocks(TUTORIAL.read_text(encoding="utf-8"))
    namespace: dict = {}
    for start, source in blocks:
        try:
            exec(compile(source, f"{TUTORIAL.name}:{start}", "exec"), namespace)
        except Exception as error:  # noqa: BLE001 — report, don't crash
            problems.append(
                f"docs/TUTORIAL.md:{start}: example raised "
                f"{type(error).__name__}: {error}"
            )
    return len(blocks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", action="store_true", help="check links only")
    parser.add_argument(
        "--tutorial", action="store_true", help="run tutorial examples only"
    )
    parser.add_argument(
        "--orphans", action="store_true", help="check for orphaned docs pages only"
    )
    args = parser.parse_args(argv)
    selected = args.links or args.tutorial or args.orphans
    run_links = args.links or not selected
    run_tutorial = args.tutorial or not selected
    run_orphans = args.orphans or not selected

    problems: list[str] = []
    if run_links:
        count = check_links(problems)
        print(f"check_docs: {count} relative links checked")
    if run_orphans:
        count = check_orphans(problems)
        print(f"check_docs: {count} docs pages checked for README reachability")
    if not selected:
        count = check_docstrings(problems)
        print(f"check_docs: {count} markdown names in src/ docstrings checked")
    if run_tutorial:
        count = check_tutorial(problems)
        print(f"check_docs: {count} tutorial examples executed")
    for problem in problems:
        print(f"check_docs: FAIL {problem}", file=sys.stderr)
    if problems:
        return 1
    print("check_docs: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
