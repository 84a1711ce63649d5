"""The extensional database: a dictionary of named relations.

A :class:`Database` owns one :class:`~repro.facts.relation.Relation` per
predicate.  Engines treat it as the EDB and (in bottom-up evaluation)
also accumulate IDB facts into a working copy of it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from ..datalog.atoms import Atom
from ..datalog.rules import Program
from ..datalog.terms import Constant
from ..datalog.unify import match_atom
from .relation import Relation

__all__ = ["Database"]


class Database:
    """A mutable collection of relations keyed by predicate name."""

    __slots__ = ("_relations",)

    def __init__(self, relations: Mapping[str, Relation] | None = None):
        self._relations: dict[str, Relation] = dict(relations) if relations else {}

    # --- construction -----------------------------------------------------------
    @classmethod
    def from_facts(cls, facts: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms."""
        database = cls()
        for atom in facts:
            database.add_atom(atom)
        return database

    @classmethod
    def from_program(cls, program: Program) -> "Database":
        """Extract the body-less ground rules of *program* as a database."""
        return cls.from_facts(program.facts)

    # --- mutation ----------------------------------------------------------------
    def relation(self, predicate: str, arity: int | None = None) -> Relation:
        """The relation for *predicate*, created on first use.

        Args:
            arity: required when the relation does not exist yet.
        """
        existing = self._relations.get(predicate)
        if existing is not None:
            if arity is not None and existing.arity != arity:
                raise ValueError(
                    f"predicate {predicate} has arity {existing.arity}, "
                    f"requested {arity}"
                )
            return existing
        if arity is None:
            raise KeyError(f"unknown predicate {predicate} (no arity given)")
        created = Relation(predicate, arity)
        self._relations[predicate] = created
        return created

    def add(self, predicate: str, row: tuple) -> bool:
        """Insert a value tuple; returns True iff it was new."""
        return self.relation(predicate, len(row)).add(row)

    def add_atom(self, atom: Atom) -> bool:
        """Insert a ground atom; returns True iff it was new."""
        return self.add(atom.predicate, atom.ground_key())

    def add_atoms(self, atoms: Iterable[Atom]) -> int:
        return sum(1 for atom in atoms if self.add_atom(atom))

    # --- queries -------------------------------------------------------------------
    @property
    def get(self) -> Callable[[str], "Relation | None"]:
        """``get(predicate)``: the relation for *predicate*, or ``None``;
        never creates one.  It is the mapping's own ``get``, so a caller
        that keeps it pays no Python call per lookup."""
        return self._relations.get

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._relations

    def has_fact(self, atom: Atom) -> bool:
        """True iff the ground atom is stored."""
        relation = self._relations.get(atom.predicate)
        if relation is None:
            return False
        return atom.ground_key() in relation

    def predicates(self) -> frozenset[str]:
        return frozenset(self._relations)

    def relations(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def rows(self, predicate: str) -> frozenset[tuple]:
        """The tuples of *predicate* (empty when unknown)."""
        relation = self._relations.get(predicate)
        return relation.rows() if relation is not None else frozenset()

    def atoms(self, predicate: str) -> Iterator[Atom]:
        """Yield the stored facts of *predicate* as ground atoms.

        Atoms come out in insertion order.
        """
        relation = self._relations.get(predicate)
        if relation is None:
            return
        for row in relation.scan():
            yield Atom(predicate, tuple(Constant(value) for value in row))

    def match(self, pattern: Atom) -> Iterator[Atom]:
        """Yield the stored facts that are instances of *pattern*.

        The pattern's constants are probed through the relation's column
        indexes (:meth:`Relation.lookup`), so only the hits become atoms
        — a bound goal costs its answers, not the relation.  Repeated
        variables (``p(X, X)``) are checked per hit.  Atoms come out in
        the relation's enumeration order; an unknown predicate or an
        arity mismatch yields nothing.
        """
        relation = self._relations.get(pattern.predicate)
        if relation is None or relation.arity != pattern.arity:
            return
        columns = [
            column
            for column, arg in enumerate(pattern.args)
            if isinstance(arg, Constant)
        ]
        probe = [pattern.args[column].value for column in columns]
        free = pattern.arity - len(columns)
        repeated = len(set(pattern.variables())) < free
        predicate = pattern.predicate
        for row in relation.lookup(dict(zip(columns, probe))):
            atom = Atom(predicate, tuple(Constant(value) for value in row))
            if not repeated or match_atom(pattern, atom) is not None:
                yield atom

    def all_atoms(self) -> Iterator[Atom]:
        for predicate in sorted(self._relations):
            yield from self.atoms(predicate)

    def total_facts(self) -> int:
        return sum(len(relation) for relation in self._relations.values())

    def arity_of(self, predicate: str) -> int | None:
        relation = self._relations.get(predicate)
        return relation.arity if relation is not None else None

    # --- structural ------------------------------------------------------------------
    def copy(self) -> "Database":
        return Database(
            {name: relation.copy() for name, relation in self._relations.items()}
        )

    def merge(self, other: "Database") -> int:
        """Insert every fact of *other*; returns the number that were new."""
        added = 0
        for relation in other.relations():
            target = self.relation(relation.name, relation.arity)
            added += target.add_all(relation)
        return added

    def restrict(self, predicates: Iterable[str]) -> "Database":
        """A new database containing only the named predicates."""
        keep = set(predicates)
        return Database(
            {
                name: relation.copy()
                for name, relation in self._relations.items()
                if name in keep
            }
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {name: rel.rows() for name, rel in self._relations.items() if rel}
        theirs = {name: rel.rows() for name, rel in other._relations.items() if rel}
        return mine == theirs

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}/{relation.arity}:{len(relation)}"
            for name, relation in sorted(self._relations.items())
        )
        return f"Database({inner})"
