"""Loading source text as rules plus relation rows (``load_source``), and
loading and saving extensional databases.

:func:`load_source` is the one reader of Datalog source text that keeps
its facts apart from its rules: ground facts go straight into relation
rows, never becoming atoms.  Every load entry point (``Engine.from_source``,
``QueryService.load``, :func:`load_facts`) reads through it and checks
each predicate's arity across facts, rules and the database it extends.

Two interchange formats for databases:

* **facts format** — plain Datalog facts, one per line (``par(a, b).``);
  round-trips through the library's own parser, so whatever
  :func:`save_facts` writes, :func:`load_facts` reads back identically.
* **delimited format** — one relation per file, one tuple per line,
  tab-separated by default (the classic ``<name>.facts`` layout used by
  Soufflé-style engines).  Values that look like integers load as ``int``
  so graph workloads round-trip their node labels.

All functions accept paths or open text handles.
"""

from __future__ import annotations

import re
from typing import Mapping, TextIO

from ..datalog.parser import parse_source
from ..datalog.rules import Program
from ..errors import ParseError, ProgramError
from .database import Database

__all__ = [
    "load_source",
    "check_arities",
    "load_facts",
    "save_facts",
    "load_delimited",
    "save_delimited",
]


def _open_for_read(source) -> tuple[TextIO, bool]:
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8"), True


def _open_for_write(target) -> tuple[TextIO, bool]:
    if hasattr(target, "write"):
        return target, False
    return open(target, "w", encoding="utf-8"), True


def _arity_clash(predicate: str, first: int, second: int) -> ProgramError:
    # The wording of Program.arities, so every clash reads the same.
    return ProgramError(
        f"predicate {predicate} used with arities {first} and {second}"
    )


def check_arities(program: Program, database: Database) -> None:
    """Raise :class:`ProgramError` when *database* stores a predicate of
    *program* (rules or embedded facts) with another arity, or when
    *program* itself uses one predicate with two arities."""
    arities = program.arities
    for relation in database.relations():
        known = arities.get(relation.name)
        if known is not None and known != relation.arity:
            raise _arity_clash(relation.name, known, relation.arity)


def _add_rows(
    database: Database,
    rows: dict[str, list[tuple]],
    arities: Mapping[str, int],
) -> None:
    """Insert :func:`~repro.datalog.parser.parse_source` *rows* into
    *database*, after checking every predicate's arity against its other
    rows, *arities* and *database*: a clash raises before anything is
    inserted."""
    for predicate, found in rows.items():
        arity = len(found[0])
        if len(set(map(len, found))) > 1:
            other = next(len(row) for row in found if len(row) != arity)
            raise _arity_clash(predicate, arity, other)
        known = arities.get(predicate)
        if known is None:
            known = database.arity_of(predicate)
        if known is not None and known != arity:
            raise _arity_clash(predicate, known, arity)
    for predicate, found in rows.items():
        database.relation(predicate, len(found[0])).add_all(found)


def load_source(
    text: str,
    program: Program | None = None,
    into: Database | None = None,
) -> tuple[Program, Database]:
    """Read Datalog source text into its rules and its facts' rows.

    Returns ``(rules, database)``: a :class:`Program` of *program*'s rules
    followed by the text's proper rules, and *into* (a new database when
    omitted) holding the text's ground facts as rows, in text order.
    The rules and rows are those of ``parse_program(text)`` split by
    ``without_facts()`` and ``add_atoms(facts)``, built without an atom
    per fact.

    Raises:
        ParseError: on malformed text (the errors of ``parse_program``).
        ProgramError: when a predicate is used with two arities anywhere
            in the text, *program* and *into*; nothing is inserted then.
    """
    statements, rows = parse_source(text)
    if program is not None and program.rules:
        statements[:0] = program.rules
    rules = Program(statements)
    database = into if into is not None else Database()
    if into is not None:
        check_arities(rules, database)
    _add_rows(database, rows, rules.arities)
    return rules, database


def load_facts(source, into: Database | None = None) -> Database:
    """Read a facts file (Datalog ground facts) into a database.

    Args:
        source: path or text handle.
        into: database to extend; a new one is created when omitted.

    Raises:
        ParseError: on malformed input or non-fact statements.
        ProgramError: when a predicate's facts have two arities, or one
            other than *into*'s; nothing is inserted then.
    """
    handle, owned = _open_for_read(source)
    try:
        statements, rows = parse_source(handle.read())
    finally:
        if owned:
            handle.close()
    program = Program(statements)  # refuses a body-less non-ground rule
    if program.rules:
        raise ParseError(f"facts file contains a rule: {program.rules[0]}")
    database = into if into is not None else Database()
    _add_rows(database, rows, {})
    return database


def save_facts(database: Database, target) -> int:
    """Write every fact of *database* in Datalog syntax; returns the count."""
    handle, owned = _open_for_write(target)
    count = 0
    try:
        for atom in database.all_atoms():
            handle.write(f"{atom}.\n")
            count += 1
    finally:
        if owned:
            handle.close()
    return count


# The Datalog scanner's integer class: ASCII only (``"²".isdigit()`` is
# true, ``int("²")`` raises).
_INTEGER = re.compile(r"-?[0-9]+")


def _parse_value(text: str) -> object:
    stripped = text.strip()
    return int(stripped) if _INTEGER.fullmatch(stripped) else stripped


def load_delimited(
    source,
    predicate: str,
    into: Database | None = None,
    delimiter: str = "\t",
) -> Database:
    """Read a delimited tuple file into one relation.

    Empty lines and ``#`` comment lines are skipped.  All rows must have
    the same arity.
    """
    handle, owned = _open_for_read(source)
    database = into if into is not None else Database()
    arity: int | None = None
    try:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.rstrip("\n")
            if not stripped.strip() or stripped.lstrip().startswith("#"):
                continue
            values = tuple(_parse_value(cell) for cell in stripped.split(delimiter))
            if arity is None:
                arity = len(values)
            elif len(values) != arity:
                raise ParseError(
                    f"row has {len(values)} fields, expected {arity}",
                    line=line_number,
                )
            database.add(predicate, values)
    finally:
        if owned:
            handle.close()
    return database


def save_delimited(
    database: Database,
    predicate: str,
    target,
    delimiter: str = "\t",
) -> int:
    """Write one relation as delimited rows (sorted); returns the count."""
    handle, owned = _open_for_write(target)
    count = 0
    try:
        for row in sorted(database.rows(predicate), key=repr):
            handle.write(delimiter.join(str(value) for value in row) + "\n")
            count += 1
    finally:
        if owned:
            handle.close()
    return count
