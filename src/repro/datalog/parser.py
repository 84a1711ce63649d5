"""A recursive-descent parser for textual Datalog.

Grammar (facts are body-less rules; ``%`` and ``#`` start line comments)::

    program   ::= statement*
    statement ::= atom "."                      (fact)
                | atom ":-" body "."            (rule)
    body      ::= literal ("," literal)*
    literal   ::= ("not" | "\\+") atom | atom
    atom      ::= IDENT ( "(" term ("," term)* ")" )?
    term      ::= VARIABLE | IDENT | INTEGER | STRING
    query     ::= atom "?"?                     (via parse_query)

Variables start with an uppercase letter or ``_``; identifiers starting
with a lowercase letter are constants or predicate names; integers and
double-quoted strings are constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NoReturn

from ..errors import ParseError
from .atoms import Atom, Literal
from .builtins import INFIX_OPERATORS
from .rules import Program, Rule
from .terms import Constant, Term, Variable

__all__ = ["parse_program", "parse_rule", "parse_atom", "parse_query", "tokenize"]

# The scanner: skipped text (whitespace, line comments), then one token
# in the group.  The group cannot fail after a maximal skip -- ``\S``
# catches whatever the grammar has no token for, ``\Z`` the end of input
# -- so the skip is never backtracked into and comment text never leaks
# into a token.  A string's closing quote is optional here: an
# unterminated one is a single token up to its line end, not re-scanned
# (the scan stays linear), and _STRING tells the two apart.  Integers
# are ASCII; ``\w`` is ``str.isalnum()`` or ``_``.
_STRING = re.compile(r'"(?:[^"\\\n]|\\[\s\S])*"')
_SCAN = re.compile(
    r"(?:\s+|[%#][^\n]*)*"
    rf"(-?[0-9]+|\w+|{_STRING.pattern}?|:-|\\\+|[<>!]=|\S|\Z)"
)
_ESCAPE = re.compile(r"\\([\s\S])")

_FIXED_KINDS = {
    ":-": "IMPLIES",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "?": "QUESTION",
    "\\+": "NOT",
    "not": "NOT",
    **dict.fromkeys(INFIX_OPERATORS, "OP"),
}


def _kind(token: str) -> str | None:
    """The kind of a scanned token; ``None`` for one the grammar lacks
    and for the empty end-of-input token."""
    kind = _FIXED_KINDS.get(token)
    if kind is not None or not token:
        return kind
    first = token[0]
    if first.isalpha():
        return "VARIABLE" if first.isupper() else "IDENT"
    if first == "_":
        return "VARIABLE"
    if first in "0123456789" or (first == "-" and len(token) > 1):
        return "INTEGER"
    if first == '"' and _STRING.fullmatch(token):
        return "STRING"
    return None


def _unquote(token: str) -> str:
    inner = token[1:-1]
    return _ESCAPE.sub(r"\1", inner) if "\\" in inner else inner


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # IDENT, VARIABLE, INTEGER, STRING, or a punctuation kind
    text: str
    line: int
    column: int


def tokenize(text: str) -> Iterator[_Token]:
    """Yield tokens with 1-based line/column positions."""
    line, line_start, seen = 1, 0, 0
    for match in _SCAN.finditer(text):
        token = match.group(1)
        if not token:
            return
        start = match.start(1)
        newlines = text.count("\n", seen, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", seen, start) + 1
        seen = start
        column = start - line_start + 1
        kind = _kind(token)
        if kind is None:
            if token[0] == '"':
                raise ParseError("unterminated string", line, column)
            raise ParseError(f"unexpected character {token[0]!r}", line, column)
        yield _Token(kind, _unquote(token) if kind == "STRING" else token, line, column)


class _Parser:
    """Index cursor over the scanned token texts.

    The token list ends with the scanner's empty end-of-input match, so
    the productions never test a bound.  Positions are not kept: the
    first error re-scans with :func:`tokenize`, which also reports a
    lexical error anywhere in the text ahead of a syntax error, as
    scanning the whole text before parsing always did.
    """

    def __init__(self, text: str):
        self._text = text
        self._tokens = _SCAN.findall(text)
        self._position = 0
        # token -> the term it denotes: a repeated token costs one lookup.
        # Per text; nothing is remembered between calls.
        self._terms: dict[str, Term] = {}
        self._anon_counter = 0

    def _fail(self, message: str, position: int | None = None) -> NoReturn:
        """Raise *message*, ``{}`` standing for the token at *position*."""
        tokens = list(tokenize(self._text))
        if position is None:
            raise ParseError(message)
        token = tokens[position]
        raise ParseError(message.format(repr(token.text)), token.line, token.column)

    def _expected(self, kind: str, position: int) -> NoReturn:
        if self._tokens[position]:
            self._fail(f"expected {kind}, found {{}}", position)
        self._fail(f"expected {kind}, found end of input")

    @property
    def exhausted(self) -> bool:
        return not self._tokens[self._position]

    def require_exhausted(self, what: str) -> None:
        if not self.exhausted:
            self._fail(f"trailing input after {what}: {{}}", self._position)

    def accept(self, token: str) -> bool:
        if self._tokens[self._position] == token:
            self._position += 1
            return True
        return False

    # --- grammar productions ------------------------------------------------
    def _new_term(self, token: str, position: int) -> Term:
        if not token:
            self._fail("unexpected end of input")
        if token == "_":
            # Each anonymous variable is distinct, as in Prolog.
            self._anon_counter += 1
            return Variable(f"_anon#{self._anon_counter}")
        kind = _kind(token)
        if kind == "VARIABLE":
            term: Term = Variable(token)
        elif kind == "IDENT":
            term = Constant(token)
        elif kind == "INTEGER":
            term = Constant(int(token))
        elif kind == "STRING":
            term = Constant(_unquote(token))
        else:
            self._fail("expected a term, found {}", position)
        self._terms[token] = term
        return term

    def parse_term(self) -> Term:
        token = self._tokens[self._position]
        term = self._terms.get(token) or self._new_term(token, self._position)
        self._position += 1
        return term

    def parse_atom(self) -> Atom:
        tokens = self._tokens
        position = self._position
        predicate = tokens[position]
        if _kind(predicate) != "IDENT":
            self._expected("IDENT", position)
        position += 1
        if tokens[position] != "(":
            self._position = position
            return Atom(predicate)
        terms = self._terms
        args: list[Term] = []
        while True:
            position += 1
            token = tokens[position]
            args.append(terms.get(token) or self._new_term(token, position))
            position += 1
            if tokens[position] != ",":
                break
        if tokens[position] != ")":
            self._expected("RPAREN", position)
        self._position = position + 1
        return Atom(predicate, tuple(args))

    def parse_comparison(self) -> Atom:
        left = self.parse_term()
        operator = self._tokens[self._position]
        if operator not in INFIX_OPERATORS:
            self._expected("OP", self._position)
        self._position += 1
        return Atom(INFIX_OPERATORS[operator], (left, self.parse_term()))

    def parse_literal(self) -> Literal:
        positive = not (self.accept("not") or self.accept("\\+"))
        kind = _kind(self._tokens[self._position])
        # An infix comparison starts with a non-identifier term, or with
        # an identifier directly followed by an operator.
        if kind in ("VARIABLE", "INTEGER", "STRING") or (
            kind == "IDENT" and self._tokens[self._position + 1] in INFIX_OPERATORS
        ):
            return Literal(self.parse_comparison(), positive)
        return Literal(self.parse_atom(), positive)

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        body: list[Literal] = []
        if self.accept(":-"):
            body.append(self.parse_literal())
            while self.accept(","):
                body.append(self.parse_literal())
        if not self.accept("."):
            self._expected("DOT", self._position)
        return Rule(head, tuple(body))

    def parse_program(self) -> Program:
        rules: list[Rule] = []
        while not self.exhausted:
            rules.append(self.parse_rule())
        return Program(rules)


def parse_program(text: str) -> Program:
    """Parse Datalog source text into a :class:`Program`."""
    return _Parser(text).parse_program()


def parse_rule(text: str) -> Rule:
    """Parse a single rule (or fact), which must consume the whole input."""
    parser = _Parser(text)
    rule = parser.parse_rule()
    parser.require_exhausted("rule")
    return rule


def parse_atom(text: str) -> Atom:
    """Parse a single atom, which must consume the whole input."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    parser.require_exhausted("atom")
    return atom


def parse_query(text: str) -> Atom:
    """Parse a query: an atom with an optional trailing ``?`` or ``.``."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    if not parser.accept("?"):
        parser.accept(".")
    parser.require_exhausted("query")
    return atom
