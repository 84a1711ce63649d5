"""Tests for facts-file I/O."""

import io

import pytest

from repro.errors import ParseError
from repro.facts import (
    Database,
    load_delimited,
    load_facts,
    save_delimited,
    save_facts,
)


def sample_database():
    database = Database()
    database.add("par", ("a", "b"))
    database.add("par", ("b", "c"))
    database.add("age", ("a", 41))
    return database


class TestFactsFormat:
    def test_round_trip_through_string_handles(self):
        database = sample_database()
        buffer = io.StringIO()
        count = save_facts(database, buffer)
        assert count == 3
        loaded = load_facts(io.StringIO(buffer.getvalue()))
        assert loaded == database

    def test_round_trip_through_files(self, tmp_path):
        path = tmp_path / "facts.dl"
        save_facts(sample_database(), path)
        loaded = load_facts(path)
        assert loaded == sample_database()

    def test_integers_survive_round_trip(self):
        buffer = io.StringIO()
        save_facts(sample_database(), buffer)
        loaded = load_facts(io.StringIO(buffer.getvalue()))
        assert loaded.rows("age") == {("a", 41)}

    def test_load_into_existing_database(self):
        database = Database()
        database.add("par", ("x", "y"))
        load_facts(io.StringIO("par(a, b)."), into=database)
        assert database.rows("par") == {("x", "y"), ("a", "b")}

    def test_rules_in_facts_file_rejected(self):
        with pytest.raises(ParseError):
            load_facts(io.StringIO("p(X) :- q(X)."))

    def test_comments_and_blank_lines_ok(self):
        loaded = load_facts(io.StringIO("% header\n\npar(a, b).\n"))
        assert loaded.rows("par") == {("a", "b")}


class TestDelimitedFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edge.facts"
        database = Database()
        database.add("edge", (1, 2))
        database.add("edge", (2, 3))
        assert save_delimited(database, "edge", path) == 2
        loaded = load_delimited(path, "edge")
        assert loaded.rows("edge") == {(1, 2), (2, 3)}

    def test_integers_parsed(self):
        loaded = load_delimited(io.StringIO("1\t-2\n3\t4\n"), "e")
        assert loaded.rows("e") == {(1, -2), (3, 4)}

    def test_only_ascii_digits_are_integers(self):
        # "²".isdigit() is true and int("²") raises; such cells are text,
        # exactly as the Datalog scanner reads them.
        loaded = load_delimited(io.StringIO("²\t-²\n٣\t-\n"), "e")
        assert loaded.rows("e") == {("²", "-²"), ("٣", "-")}

    def test_strings_preserved(self):
        loaded = load_delimited(io.StringIO("alice\tbob\n"), "knows")
        assert loaded.rows("knows") == {("alice", "bob")}

    def test_custom_delimiter(self):
        loaded = load_delimited(io.StringIO("a,b\n"), "e", delimiter=",")
        assert loaded.rows("e") == {("a", "b")}

    def test_comments_and_blanks_skipped(self):
        loaded = load_delimited(io.StringIO("# header\n\n1\t2\n"), "e")
        assert loaded.rows("e") == {(1, 2)}

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError):
            load_delimited(io.StringIO("1\t2\n3\n"), "e")

    def test_save_unknown_predicate_writes_nothing(self):
        buffer = io.StringIO()
        assert save_delimited(Database(), "ghost", buffer) == 0
        assert buffer.getvalue() == ""


class TestCliFactsOption:
    def test_query_with_external_facts(self, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "rules.dl"
        rules.write_text(
            "anc(X,Y) :- par(X,Y). anc(X,Y) :- par(X,Z), anc(Z,Y)."
        )
        facts = tmp_path / "facts.dl"
        facts.write_text("par(a, b). par(b, c).")
        code = main(
            ["query", str(rules), "anc(a, X)?", "--facts", str(facts)]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["X = b", "X = c"]

    def test_multiple_facts_files(self, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "rules.dl"
        rules.write_text("anc(X,Y) :- par(X,Y).")
        first = tmp_path / "one.dl"
        first.write_text("par(a, b).")
        second = tmp_path / "two.dl"
        second.write_text("par(a, c).")
        main(
            [
                "query", str(rules), "anc(a, X)?",
                "--facts", str(first), "--facts", str(second),
            ]
        )
        assert capsys.readouterr().out.splitlines() == ["X = b", "X = c"]
