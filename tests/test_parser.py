"""Unit tests for the Datalog parser."""

import pytest

from repro.datalog.atoms import Atom, Literal
from repro.datalog.parser import (
    parse_atom,
    parse_program,
    parse_query,
    parse_rule,
    tokenize,
)
from repro.datalog.terms import Constant, Variable
from repro.errors import ParseError


class TestTokenizer:
    def test_positions_are_tracked(self):
        tokens = list(tokenize("p(X).\nq(a)."))
        q_token = [t for t in tokens if t.text == "q"][0]
        assert q_token.line == 2 and q_token.column == 1

    def test_comments_are_skipped(self):
        tokens = list(tokenize("p(a). % comment\n# another\nq(b)."))
        assert [t.text for t in tokens if t.kind == "IDENT"] == ["p", "a", "q", "b"]

    def test_not_keyword_and_backslash_plus(self):
        kinds = [t.kind for t in tokenize("not \\+")]
        assert kinds == ["NOT", "NOT"]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            list(tokenize('p("abc'))

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            list(tokenize("p(a) & q(b)"))

    def test_negative_integer(self):
        tokens = [t for t in tokenize("p(-3).") if t.kind == "INTEGER"]
        assert tokens[0].text == "-3"


# One text with every lexical feature: both comment markers, CRLF and
# tabs, escaped quote and backslash in a string, both negation forms, all
# six infix operators, a negative integer, anonymous variables, Unicode
# identifiers and variables, words that merely start with ``not``.
GOLDEN_SOURCE = (
    "% header comment\r\n"
    "# hash comment\n"
    'p(a,\tB) :- q(B, "s\\"t\\\\u"), \\+ r(_, _), not s(-3, 4).\r\n'
    "cmp(X) :- n(X), X <= 3, X >= 1, X != 2, X < 4, X > 0, X = X.\n"
    "  émile(Ünï, été_1) :- n(Ünï).  % trailing # both\n"
    "halt. notx(nota)?"
)

GOLDEN_TOKENS = [
    ("IDENT", "p", 3, 1),
    ("LPAREN", "(", 3, 2),
    ("IDENT", "a", 3, 3),
    ("COMMA", ",", 3, 4),
    ("VARIABLE", "B", 3, 6),
    ("RPAREN", ")", 3, 7),
    ("IMPLIES", ":-", 3, 9),
    ("IDENT", "q", 3, 12),
    ("LPAREN", "(", 3, 13),
    ("VARIABLE", "B", 3, 14),
    ("COMMA", ",", 3, 15),
    ("STRING", 's"t\\u', 3, 17),
    ("RPAREN", ")", 3, 26),
    ("COMMA", ",", 3, 27),
    ("NOT", "\\+", 3, 29),
    ("IDENT", "r", 3, 32),
    ("LPAREN", "(", 3, 33),
    ("VARIABLE", "_", 3, 34),
    ("COMMA", ",", 3, 35),
    ("VARIABLE", "_", 3, 37),
    ("RPAREN", ")", 3, 38),
    ("COMMA", ",", 3, 39),
    ("NOT", "not", 3, 41),
    ("IDENT", "s", 3, 45),
    ("LPAREN", "(", 3, 46),
    ("INTEGER", "-3", 3, 47),
    ("COMMA", ",", 3, 49),
    ("INTEGER", "4", 3, 51),
    ("RPAREN", ")", 3, 52),
    ("DOT", ".", 3, 53),
    ("IDENT", "cmp", 4, 1),
    ("LPAREN", "(", 4, 4),
    ("VARIABLE", "X", 4, 5),
    ("RPAREN", ")", 4, 6),
    ("IMPLIES", ":-", 4, 8),
    ("IDENT", "n", 4, 11),
    ("LPAREN", "(", 4, 12),
    ("VARIABLE", "X", 4, 13),
    ("RPAREN", ")", 4, 14),
    ("COMMA", ",", 4, 15),
    ("VARIABLE", "X", 4, 17),
    ("OP", "<=", 4, 19),
    ("INTEGER", "3", 4, 22),
    ("COMMA", ",", 4, 23),
    ("VARIABLE", "X", 4, 25),
    ("OP", ">=", 4, 27),
    ("INTEGER", "1", 4, 30),
    ("COMMA", ",", 4, 31),
    ("VARIABLE", "X", 4, 33),
    ("OP", "!=", 4, 35),
    ("INTEGER", "2", 4, 38),
    ("COMMA", ",", 4, 39),
    ("VARIABLE", "X", 4, 41),
    ("OP", "<", 4, 43),
    ("INTEGER", "4", 4, 45),
    ("COMMA", ",", 4, 46),
    ("VARIABLE", "X", 4, 48),
    ("OP", ">", 4, 50),
    ("INTEGER", "0", 4, 52),
    ("COMMA", ",", 4, 53),
    ("VARIABLE", "X", 4, 55),
    ("OP", "=", 4, 57),
    ("VARIABLE", "X", 4, 59),
    ("DOT", ".", 4, 60),
    ("IDENT", "émile", 5, 3),
    ("LPAREN", "(", 5, 8),
    ("VARIABLE", "Ünï", 5, 9),
    ("COMMA", ",", 5, 12),
    ("IDENT", "été_1", 5, 14),
    ("RPAREN", ")", 5, 19),
    ("IMPLIES", ":-", 5, 21),
    ("IDENT", "n", 5, 24),
    ("LPAREN", "(", 5, 25),
    ("VARIABLE", "Ünï", 5, 26),
    ("RPAREN", ")", 5, 29),
    ("DOT", ".", 5, 30),
    ("IDENT", "halt", 6, 1),
    ("DOT", ".", 6, 5),
    ("IDENT", "notx", 6, 7),
    ("LPAREN", "(", 6, 11),
    ("IDENT", "nota", 6, 12),
    ("RPAREN", ")", 6, 16),
    ("QUESTION", "?", 6, 17),
]

# (entry point, text, str(error), error.line, error.column), recorded from
# the per-character tokenizer and method-call cursor this scanner replaced.
GOLDEN_ERRORS = [
    (parse_program, 'p("abc\nq(a).', "unterminated string at line 1, column 3", 1, 3),
    (parse_program, 'p(a).\n  q("abc', "unterminated string at line 2, column 5", 2, 5),
    (parse_program, 'p("a\\', "unterminated string at line 1, column 3", 1, 3),
    (parse_program, "p(a).\n\tq(-).", "unexpected character '-' at line 2, column 4", 2, 4),
    (parse_program, "-", "unexpected character '-' at line 1, column 1", 1, 1),
    (parse_program, "p(a) & q(b)", "unexpected character '&' at line 1, column 6", 1, 6),
    (parse_program, "p(a).\nq(b) :- @", "unexpected character '@' at line 2, column 9", 2, 9),
    # A lexical error anywhere is reported ahead of an earlier syntax error.
    (parse_program, 'p(a) q(b).\n"oops', "unterminated string at line 2, column 1", 2, 1),
    (parse_program, "p(X) :- q(X)\nr(a).", "expected DOT, found 'r' at line 2, column 1", 2, 1),
    (parse_program, "p(a", "expected RPAREN, found end of input", None, None),
    (parse_program, "p(", "unexpected end of input", None, None),
    (parse_program, "p(a) :- ", "expected IDENT, found end of input", None, None),
    (parse_program, "p(a) :- X <", "unexpected end of input", None, None),
    (parse_program, "p(a) :- X q(a).", "expected OP, found 'q' at line 1, column 11", 1, 11),
    (parse_program, 'p(a) :- "s" (a).', "expected OP, found '(' at line 1, column 13", 1, 13),
    (parse_program, "p(X) :- q(X), \\+ 3.", "expected OP, found '.' at line 1, column 19", 1, 19),
    (parse_program, "p(:-).", "expected a term, found ':-' at line 1, column 3", 1, 3),
    (parse_program, "P(a).", "expected IDENT, found 'P' at line 1, column 1", 1, 1),
    (parse_program, "p(not).", "expected a term, found 'not' at line 1, column 3", 1, 3),
    (parse_program, "p(a) :- not.", "expected IDENT, found '.' at line 1, column 12", 1, 12),
    (parse_program, ":- p.", "expected IDENT, found ':-' at line 1, column 1", 1, 1),
    (parse_program, "p(a)?", "expected DOT, found '?' at line 1, column 5", 1, 5),
    (parse_program, "p(a)\n.\nq(b,,c).", "expected a term, found ',' at line 3, column 5", 3, 5),
    (parse_program, "p(a). % fine\n\n\n   q(a) r(b).",
     "expected DOT, found 'r' at line 4, column 9", 4, 9),
    (parse_program, "x == y.", "expected DOT, found '=' at line 1, column 3", 1, 3),
    (parse_program, "p :- x == y.", "expected a term, found '=' at line 1, column 9", 1, 9),
    (parse_rule, "p(a)", "expected DOT, found end of input", None, None),
    (parse_rule, "p(a). q(b).", "trailing input after rule: 'q' at line 1, column 7", 1, 7),
    (parse_rule, 'p(a). "q r"', "trailing input after rule: 'q r' at line 1, column 7", 1, 7),
    (parse_atom, "p(a) q", "trailing input after atom: 'q' at line 1, column 6", 1, 6),
    (parse_atom, "p(a).", "trailing input after atom: '.' at line 1, column 5", 1, 5),
    (parse_atom, "", "expected IDENT, found end of input", None, None),
    (parse_query, "anc(a, X)? extra",
     "trailing input after query: 'extra' at line 1, column 12", 1, 12),
    (parse_query, "anc(a, X).?", "trailing input after query: '?' at line 1, column 11", 1, 11),
    (parse_query, "anc(a, X) ? .", "trailing input after query: '.' at line 1, column 13", 1, 13),
    (parse_query, "@", "unexpected character '@' at line 1, column 1", 1, 1),
]


class TestGoldenCorpus:
    def test_token_stream(self):
        stream = [(t.kind, t.text, t.line, t.column) for t in tokenize(GOLDEN_SOURCE)]
        assert stream == GOLDEN_TOKENS

    def test_parse_tree(self):
        X, B = Variable("X"), Variable("B")
        program = parse_program(GOLDEN_SOURCE.removesuffix(" notx(nota)?"))
        first, second, third, fourth = program.rules
        assert first.head == Atom("p", (Constant("a"), B))
        assert first.body == (
            Literal(Atom("q", (B, Constant('s"t\\u')))),
            Literal(Atom("r", (Variable("_anon#1"), Variable("_anon#2"))), False),
            Literal(Atom("s", (Constant(-3), Constant(4))), False),
        )
        assert [str(literal) for literal in second.body[1:]] == [
            "leq(X, 3)", "geq(X, 1)", "neq(X, 2)", "lt(X, 4)", "gt(X, 0)", "eq(X, X)",
        ]
        assert second.body[1].atom == Atom("leq", (X, Constant(3)))
        assert third.head == Atom("émile", (Variable("Ünï"), Constant("été_1")))
        assert fourth.head == Atom("halt") and not fourth.body

    @pytest.mark.parametrize(
        "parse, text, message, line, column",
        GOLDEN_ERRORS,
        ids=[f"{parse.__name__}-{index}" for index, (parse, *_) in enumerate(GOLDEN_ERRORS)],
    )
    def test_errors(self, parse, text, message, line, column):
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert (str(caught.value), caught.value.line, caught.value.column) == (
            message, line, column,
        )

    def test_positions_follow_a_string_spanning_lines(self):
        # A backslash-escaped newline stays inside the string; the tokens
        # after it are on the next physical line.
        tokens = list(tokenize('p("a\\\nb") .\nq'))
        assert [(t.text, t.line, t.column) for t in tokens[2:]] == [
            ("a\nb", 1, 3), (")", 2, 3), (".", 2, 5), ("q", 3, 1),
        ]

    @pytest.mark.parametrize("text", ["p(²).", "p(1²).", "p(-²).", "p(٣)."])
    def test_integers_are_ascii(self, text):
        # str.isdigit() accepts these characters and int() rejects (or
        # worse, converts) them: a positioned ParseError, never ValueError.
        with pytest.raises(ParseError, match="unexpected character") as caught:
            parse_program(text)
        assert caught.value.line == 1 and caught.value.column >= 3
        assert parse_program("p(a², -12).").facts == (
            Atom("p", (Constant("a²"), Constant(-12))),
        )


class TestParseAtom:
    def test_simple(self):
        atom = parse_atom("anc(X, bob)")
        assert atom.predicate == "anc"
        assert atom.args == (Variable("X"), Constant("bob"))

    def test_zero_arity(self):
        assert parse_atom("halt") == Atom("halt")

    def test_integer_and_string_constants(self):
        atom = parse_atom('p(3, "Hello World")')
        assert atom.args == (Constant(3), Constant("Hello World"))

    def test_underscore_is_anonymous_and_distinct(self):
        atom = parse_atom("p(_, _)")
        left, right = atom.args
        assert isinstance(left, Variable) and isinstance(right, Variable)
        assert left != right

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("p(a) q")


class TestParseRule:
    def test_fact(self):
        rule = parse_rule("par(a, b).")
        assert rule.is_fact

    def test_rule_with_body(self):
        rule = parse_rule("anc(X,Y) :- par(X,Z), anc(Z,Y).")
        assert rule.head.predicate == "anc"
        assert [l.predicate for l in rule.body] == ["par", "anc"]

    def test_negative_literal_not(self):
        rule = parse_rule("p(X) :- q(X), not r(X).")
        assert rule.body[1].negative

    def test_negative_literal_backslash_plus(self):
        rule = parse_rule("p(X) :- q(X), \\+ r(X).")
        assert rule.body[1].negative

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_rule("p(a)")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p(a). q(b).")


class TestParseProgram:
    def test_multi_statement(self):
        program = parse_program(
            """
            % ancestor
            par(a,b). par(b,c).
            anc(X,Y) :- par(X,Y).
            anc(X,Y) :- par(X,Z), anc(Z,Y).
            """
        )
        assert len(program) == 4
        assert len(program.facts) == 2
        assert program.idb_predicates == {"anc"}

    def test_empty_program(self):
        assert len(parse_program("")) == 0
        assert len(parse_program("% only comments\n")) == 0

    def test_str_output_reparses_identically(self):
        source = "p(a).\nq(X) :- p(X), not r(X)."
        program = parse_program(source)
        assert parse_program(str(program)) == program


class TestParseQuery:
    def test_with_question_mark(self):
        assert parse_query("anc(a, X)?") == Atom(
            "anc", (Constant("a"), Variable("X"))
        )

    def test_with_dot(self):
        assert parse_query("anc(a, X).").predicate == "anc"

    def test_bare(self):
        assert parse_query("anc(a, X)").predicate == "anc"

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_query("anc(a, X)? extra")
