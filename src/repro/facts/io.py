"""Loading and saving extensional databases.

Two interchange formats:

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
from typing import TextIO

from ..datalog.parser import parse_program
from ..errors import ParseError
from .database import Database

__all__ = [
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


def load_facts(source, into: Database | None = None) -> Database:
    """Read a facts file (Datalog ground facts) into a database.

    Args:
        source: path or text handle.
        into: database to extend; a new one is created when omitted.

    Raises:
        ParseError: on malformed input or non-fact statements.
    """
    handle, owned = _open_for_read(source)
    try:
        program = parse_program(handle.read())
    finally:
        if owned:
            handle.close()
    if program.proper_rules:
        offender = program.proper_rules[0]
        raise ParseError(f"facts file contains a rule: {offender}")
    database = into if into is not None else Database()
    database.add_atoms(program.facts)
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
