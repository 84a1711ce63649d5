"""Tests for tools/check_docs.py and the documentation it gates.

The docs CI job runs ``check_docs.py`` directly; these tests pin the
checker's own behaviour (link extraction, block extraction, failure
reporting) and assert that the repository's documentation currently
passes, so a broken link or a non-running tutorial example fails the
ordinary test suite too — not just the docs job.
"""

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


class TestLinkExtraction:
    def test_relative_link_to_missing_file_is_reported(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "see [gone](docs/missing.md) and [here](docs/REAL.md)\n",
            encoding="utf-8",
        )
        (tmp_path / "docs" / "REAL.md").write_text("ok\n", encoding="utf-8")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems: list[str] = []
        checked = check_docs.check_links(problems)
        assert checked == 2
        assert len(problems) == 1 and "docs/missing.md" in problems[0]

    def test_external_and_anchor_links_skipped(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[a](https://example.org/x) [b](#section) [c](mailto:x@y.z)\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems: list[str] = []
        assert check_docs.check_links(problems) == 0
        assert problems == []

    def test_anchor_suffix_checks_the_file_part(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "A.md").write_text("# title\n", encoding="utf-8")
        (tmp_path / "README.md").write_text(
            "[ok](docs/A.md#title) [bad](docs/B.md#title)\n", encoding="utf-8"
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems: list[str] = []
        assert check_docs.check_links(problems) == 2
        assert len(problems) == 1 and "docs/B.md#title" in problems[0]


class TestOrphanCheck:
    def test_unlinked_docs_page_is_reported(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "index: [linked](docs/LINKED.md)\n", encoding="utf-8"
        )
        (tmp_path / "docs" / "LINKED.md").write_text("ok\n", encoding="utf-8")
        (tmp_path / "docs" / "ORPHAN.md").write_text("lost\n", encoding="utf-8")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems: list[str] = []
        assert check_docs.check_orphans(problems) == 2
        assert len(problems) == 1
        assert "ORPHAN.md" in problems[0] and "orphaned" in problems[0]

    def test_anchor_links_still_reach_the_page(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[sect](docs/A.md#section)\n", encoding="utf-8"
        )
        (tmp_path / "docs" / "A.md").write_text("# section\n", encoding="utf-8")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems: list[str] = []
        assert check_docs.check_orphans(problems) == 1
        assert problems == []

    def test_orphans_run_by_default_and_with_flag(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("no index\n", encoding="utf-8")
        (tmp_path / "docs" / "ORPHAN.md").write_text("lost\n", encoding="utf-8")
        (tmp_path / "docs" / "TUTORIAL.md").write_text("", encoding="utf-8")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "TUTORIAL", tmp_path / "docs" / "TUTORIAL.md")
        assert check_docs.main([]) == 1  # default run includes the check
        assert check_docs.main(["--orphans"]) == 1
        assert check_docs.main(["--links"]) == 0  # scoped runs exclude it
        capsys.readouterr()


class TestDocstringCheck:
    def test_missing_markdown_named_in_a_docstring_is_reported(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "REAL.md").write_text("ok\n", encoding="utf-8")
        (tmp_path / "TOP.md").write_text("ok\n", encoding="utf-8")
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            '"""See REAL.md, docs/REAL.md and TOP.md."""\n\n'
            'def f():\n    """Semantics in GONE.md."""\n\n'
            'NOTE = "NOT_A_DOCSTRING.md"\n',
            encoding="utf-8",
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems: list[str] = []
        assert check_docs.check_docstrings(problems) == 4
        assert problems == ["src/pkg/mod.py:3: docstring names missing GONE.md"]

    def test_docstring_check_runs_by_default_only(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("no index\n", encoding="utf-8")
        (tmp_path / "docs" / "TUTORIAL.md").write_text("", encoding="utf-8")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text('"""See GONE.md."""\n', encoding="utf-8")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "TUTORIAL", tmp_path / "docs" / "TUTORIAL.md")
        assert check_docs.main([]) == 1
        assert check_docs.main(["--links"]) == 0
        capsys.readouterr()


class TestBlockExtraction:
    def test_python_blocks_found_with_line_numbers(self):
        text = "intro\n```python\nx = 1\n```\n```bash\nls\n```\n```python\ny = x\n```\n"
        blocks = check_docs.python_blocks(text)
        assert [(start, source) for start, source in blocks] == [
            (3, "x = 1"),
            (9, "y = x"),
        ]

    def test_unterminated_block_is_ignored(self):
        assert check_docs.python_blocks("```python\nx = 1\n") == []


class TestRepositoryDocs:
    def test_all_relative_links_resolve(self):
        problems: list[str] = []
        checked = check_docs.check_links(problems)
        assert checked > 0
        assert problems == []

    def test_documentation_index_lists_every_doc(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in (
            "THEORY",
            "TUTORIAL",
            "ARCHITECTURE",
            "API",
            "OBSERVABILITY",
            "SERVING",
            "MAINTENANCE",
        ):
            assert f"docs/{name}.md" in readme, f"README lacks docs/{name}.md"

    def test_no_docs_page_is_orphaned(self):
        problems: list[str] = []
        checked = check_docs.check_orphans(problems)
        assert checked > 0
        assert problems == []

    def test_src_docstrings_name_only_existing_docs(self):
        problems: list[str] = []
        assert check_docs.check_docstrings(problems) > 0
        assert problems == []

    def test_tutorial_examples_run(self):
        problems: list[str] = []
        executed = check_docs.check_tutorial(problems)
        assert executed > 0
        assert problems == []
