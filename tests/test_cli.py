"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.errors import REMOVED_SETTINGS

SOURCE = """
par(a,b). par(b,c). par(c,d).
anc(X,Y) :- par(X,Y).
anc(X,Y) :- par(X,Z), anc(Z,Y).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.dl"
    path.write_text(SOURCE)
    return str(path)


class TestQueryCommand:
    def test_query_prints_bindings(self, program_file, capsys):
        code = main(["query", program_file, "anc(a, X)?"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["X = b", "X = c", "X = d"]

    def test_query_ground_goal_prints_true(self, program_file, capsys):
        main(["query", program_file, "anc(a, d)?"])
        assert capsys.readouterr().out.strip() == "true"

    def test_query_ground_goal_prints_false(self, program_file, capsys):
        main(["query", program_file, "anc(d, a)?"])
        assert capsys.readouterr().out.strip() == "false"

    def test_query_with_strategy_and_stats(self, program_file, capsys):
        code = main(
            ["query", program_file, "anc(a, X)?", "--strategy", "oldt", "--stats"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "EvaluationStats" in captured.err

    def test_query_limit(self, program_file, capsys):
        main(["query", program_file, "anc(a, X)?", "--limit", "1"])
        out = capsys.readouterr().out
        assert "more" in out

    def test_parse_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_text("p(a) q(b).")
        code = main(["query", str(bad), "p(X)?"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestWhyCommand:
    def test_derivable_goal_prints_its_proof_tree(self, program_file, capsys):
        code = main(["why", program_file, "anc(a, c)"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "anc(a, c)   [rule: anc(X, Y) :- par(X, Z), anc(Z, Y).]",
            "  par(a, b)   [fact]",
            "  anc(b, c)   [rule: anc(X, Y) :- par(X, Y).]",
            "    par(b, c)   [fact]",
        ]

    def test_underivable_goal_exits_one(self, program_file, capsys):
        code = main(["why", program_file, "anc(d, a)"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "anc(d, a) is not derivable"

    def test_open_goal_is_a_usage_error(self, program_file, capsys):
        code = main(["why", program_file, "anc(a, X)"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.strip() == "error: why() needs a ground goal, got anc(a, X)"
        assert "Traceback" not in captured.err and captured.out == ""


class TestUpdateCommand:
    def test_update_requires_at_least_one_operation(self, capsys):
        code = main(["update", "db"])
        assert code == 2
        err = capsys.readouterr().err
        assert "at least one --add or --remove" in err

    def test_update_unreachable_server_is_a_clean_error(self, capsys):
        # Port 1 is never listening; the client error must surface as a
        # normal CLI error (exit 2), not a traceback.
        code = main(
            [
                "update", "db", "--add", "edge(a,b).",
                "--url", "http://127.0.0.1:1", "--timeout", "0.2",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestExplainCommand:
    def test_table_lists_all_strategies(self, program_file, capsys):
        code = main(["explain", program_file, "anc(a, X)?"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("seminaive", "magic", "supplementary", "alexander", "oldt", "qsqr"):
            assert name in out


class TestCheckCommand:
    def test_exact_correspondence_exit_zero(self, program_file, capsys):
        code = main(["check", program_file, "anc(a, X)?"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact: True" in out


class TestTransformCommand:
    def test_alexander_output(self, program_file, capsys):
        code = main(["transform", program_file, "anc(a, X)?"])
        out = capsys.readouterr().out
        assert code == 0
        assert "call__anc__bf(a)." in out
        assert "% goal: ans__anc__bf(a, X)?" in out

    def test_magic_output(self, program_file, capsys):
        main(["transform", program_file, "anc(a, X)?", "--kind", "magic"])
        out = capsys.readouterr().out
        assert "magic__anc__bf(a)." in out


class TestLintCommand:
    def test_clean_program(self, program_file, capsys):
        code = main(["lint", program_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "anc is linear" in out
        assert "ok" in out

    def test_unsafe_program(self, tmp_path, capsys):
        path = tmp_path / "unsafe.dl"
        path.write_text("p(X, Y) :- q(X).")
        code = main(["lint", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "unsafe" in out

    def test_unstratifiable_program(self, tmp_path, capsys):
        path = tmp_path / "win.dl"
        path.write_text("win(X) :- move(X,Y), not win(Y).")
        code = main(["lint", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "not stratifiable" in out


class TestQueryHelpSnapshot:
    """Snapshot of the query subcommand's option surface: adding or
    removing a flag must update this set deliberately."""

    EXPECTED_OPTIONS = {
        "-h",
        "--help",
        "--facts",
        "--strategy",
        "--sips",
        "--planner",
        "--stats",
        "--limit",
        "--timeout",
        "--max-facts",
        "--max-iterations",
        "--max-attempts",
    }

    def test_query_help_lists_exactly_the_known_options(self, capsys):
        import re

        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        options = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", help_text))
        assert options == self.EXPECTED_OPTIONS



class TestStorageFlag:
    @pytest.mark.parametrize(
        "flag", [["--storage", "tuples"], ["--storage", "columnar"], ["--storage"]]
    )
    def test_removed_storage_flag_says_to_omit_it(self, program_file, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", program_file, "anc(a, X)?", *flag])
        assert excinfo.value.code == 2
        assert REMOVED_SETTINGS["storage"] in capsys.readouterr().err

    def test_unknown_storage_is_rejected_by_argparse(self, program_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", program_file, "anc(a, X)?", "--storage", "arrow"])
        assert excinfo.value.code == 2
        assert REMOVED_SETTINGS["storage"] in capsys.readouterr().err


class TestSchedulerFlag:
    def test_unknown_scheduler_is_rejected_by_argparse(self, program_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", program_file, "anc(a, X)?", "--scheduler", "zig"])
        assert excinfo.value.code == 2

    def test_removed_parallel_scheduler_names_its_replacement(
        self, program_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["query", program_file, "anc(a, X)?", "--scheduler", "parallel"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert REMOVED_SETTINGS["scheduler"] in err
        assert "'scc'" in err and "serve --processes N" in err


class TestRemovedSettingFlags:
    @pytest.mark.parametrize("setting", ["executor", "scheduler", "workers"])
    @pytest.mark.parametrize("value", [["kernel"], ["scc"], ["2"], []])
    def test_removed_flag_is_an_argparse_error_with_its_message(
        self, program_file, capsys, setting, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", program_file, "anc(a, X)?", f"--{setting}", *value])
        assert excinfo.value.code == 2
        assert REMOVED_SETTINGS[setting] in capsys.readouterr().err
