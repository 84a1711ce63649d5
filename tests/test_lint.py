"""The lint gate of ``pyproject.toml``, checked with the standard library.

CI's lint job runs ``ruff check .`` with the ``[tool.ruff]`` settings;
ruff is not a test dependency, so this applies the part of that
selection one file's tokens and syntax tree decide, wherever the tests
run:

* **F401**: a module-level import whose name the module never uses.  A
  use is a name anywhere in the module, a name inside a string
  annotation, or an entry of ``__all__``; ``import a as a`` is an
  explicit re-export; ``from __future__`` imports and ``import *`` bind
  nothing.  ``# noqa`` or ``# noqa: F401`` on the line of the imported
  name, or ``# ruff: noqa`` in the file, silences it, as in ruff.
* **E501**: a line wider than ``line-length``, with ruff's exceptions: a
  line of one word, a line whose last word is a URL that starts within
  the limit, a trailing pragma comment (``# noqa``, ``# type:`` ...) that
  starts within the limit, and ``# noqa`` / ``# noqa: E501``.

The files are those of ruff's ``include`` globs.  This adds checks to
the ones CI runs and loosens none of them.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
import tomllib
import unicodedata
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["tool"]["ruff"]
LIMIT = CONFIG["line-length"]
SELECT = CONFIG["lint"]["select"]
# Directories ruff never enters, and those .gitignore keeps out.
SKIPPED = {".git", ".venv", "venv", "build", "dist", "__pycache__", ".eggs", ".tox",
           "node_modules", ".ruff_cache", ".mypy_cache", ".pytest_cache", ".work"}

NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:[,\s]+[A-Z]+[0-9]+)*))?", re.I)
FILE_NOQA = re.compile(r"#\s*(?:ruff|flake8)\s*:\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?", re.I)
PRAGMA = re.compile(r"#\s*(?:noqa|type:|pyright:|pylint:|nosec|isort:|mypy:|ruff:|fmt:)", re.I)


def _files() -> list[Path]:
    found: set[Path] = set()
    for pattern in CONFIG["include"]:
        for path in ROOT.glob(pattern):
            if not SKIPPED.intersection(path.relative_to(ROOT).parts):
                found.add(path)
    return sorted(found)


FILES = _files()


def _comments(text: str) -> dict[int, str]:
    """Line number -> the comment on that line."""
    comments: dict[int, str] = {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments[token.start[0]] = token.string
    return comments


def _silenced(comment: "str | None", code: str) -> bool:
    match = NOQA.search(comment or "")
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in re.split(r"[,\s]+", codes.upper())


def _file_silenced(comments: dict[int, str], code: str) -> bool:
    for comment in comments.values():
        match = FILE_NOQA.match(comment)
        if match is not None:
            codes = match.group("codes")
            if codes is None or code in re.split(r"[,\s]+", codes.upper().strip()):
                return True
    return False


def _module_imports(tree: ast.Module):
    """``(name, line)`` of each name a module-level import binds."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name:
                    continue  # explicit re-export
                yield (alias.asname or alias.name.split(".")[0]), alias.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                yield alias.asname or alias.name, alias.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field, ()):
                    if isinstance(child, ast.ExceptHandler):
                        pending.extend(child.body)
                    else:
                        pending.append(child)


def _annotation_names(annotation: ast.AST, used: set[str]) -> None:
    """The names of a string annotation (and strings nested in it)."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    used.add(inner.id)
            _annotation_names(parsed, used)


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _annotation_names(node.annotation, used)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            _annotation_names(node.returns, used)
        elif isinstance(node, ast.AnnAssign):
            _annotation_names(node.annotation, used)
    for node in tree.body:  # __all__ = [...], __all__ += [...]
        target = value = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target, value = node.target, node.value
        if isinstance(target, ast.Name) and target.id == "__all__" and value is not None:
            for item in getattr(value, "elts", ()):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    used.add(item.value)
    return used


def unused_imports(text: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every F401 finding in one module's *text*."""
    comments = _comments(text)
    if _file_silenced(comments, "F401"):
        return []
    tree = ast.parse(text)
    used = _used_names(tree)
    return [
        (line, name)
        for name, line in _module_imports(tree)
        if name not in used and not _silenced(comments.get(line), "F401")
    ]


def _width(text: str) -> int:
    width = 0
    for char in text:
        if char == "\t":
            width += 4 - width % 4
        else:
            width += 2 if unicodedata.east_asian_width(char) in "WF" else 1
    return width


def overlong_lines(text: str) -> list[tuple[int, int]]:
    """``(line, width)`` of every E501 finding in one module's *text*."""
    comments = _comments(text)
    if _file_silenced(comments, "E501"):
        return []
    found = []
    for number, line in enumerate(text.splitlines(), 1):
        if _width(line) <= LIMIT:
            continue
        comment = comments.get(number)
        if _silenced(comment, "E501"):
            continue
        if comment is not None and PRAGMA.match(comment):
            start = line.rindex(comment)
            if _width(line[:start]) <= LIMIT:
                continue  # only the trailing pragma passes the limit
        chunks = line.split()
        if len(chunks) < 2:
            continue  # one word: no way to break it
        if "://" in chunks[-1] and _width(line) - _width(chunks[-1]) <= LIMIT:
            continue  # a URL that starts within the limit
        found.append((number, _width(line)))
    return found


def test_the_gate_is_the_configured_one():
    # The checks below are the F401 and E501 parts of this selection.
    assert "F" in SELECT and "E501" in SELECT and LIMIT == 100
    assert len(FILES) > 100
    assert ROOT / "tests" / "test_lint.py" in FILES


@pytest.mark.parametrize("check", [unused_imports, overlong_lines])
def test_every_included_file_is_clean(check):
    findings = {
        str(path.relative_to(ROOT)): found
        for path in FILES
        if (found := check(path.read_text(encoding="utf-8")))
    }
    assert findings == {}


class TestTheChecksFindWhatRuffFinds:
    def test_an_import_used_only_in_a_docstring_is_unused(self):
        text = '"""Raises :class:`Missing`."""\nfrom errors import Missing, Other\nOther()\n'
        assert unused_imports(text) == [(2, "Missing")]

    def test_string_annotations_all_and_noqa_count_as_uses(self):
        text = (
            "from typing import TYPE_CHECKING\n"
            "import os.path\n"
            "import json as json\n"
            "from a import b  # noqa: F401\n"
            "from c import d  # noqa: E501\n"
            "from e import f, g\n"
            "if TYPE_CHECKING:\n"
            "    from h import Relation\n"
            "__all__ = ['f']\n"
            "def run(x: 'Relation | None') -> 'list[g]':\n"
            "    return os.sep\n"
        )
        assert unused_imports(text) == [(5, "d")]

    def test_a_long_line_is_found_unless_ruff_lets_it_pass(self):
        pad = "x = " + "1 + " * 30 + "1"
        url = "# see https://example.com/" + "a" * 100
        text = "\n".join([
            pad,
            pad + "  # noqa: E501",
            pad[:90] + "  # type: ignore[attr-defined, union-attr, arg-type]",
            "a" * 120,
            url,
            pad + "  # noqa: F401",
        ])
        assert [line for line, _ in overlong_lines(text)] == [1, 6]
