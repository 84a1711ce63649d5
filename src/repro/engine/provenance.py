"""Provenance: proof trees for derived facts.

The engines answer *what* is derivable; this module also answers *why*.
:func:`traced_fixpoint` runs the one bottom-up evaluator,
:func:`~repro.engine.seminaive.seminaive_fixpoint`, and reads each derived
fact's proof **on demand** off the round stamps it leaves on the model
(``docs/ARCHITECTURE.md``, "Round-stamped relations").  A rule *fires* for
``p(row)`` stamped ``s`` when its head instantiates to ``row`` and its body
matches with ``p``'s own dependency component read through
``rows_before(s)`` and every other predicate in full.  The round that
derived the row made such a firing, and its children are stamped earlier or
lie in earlier components, so every proof is well-founded.  A fact's
derivation is the shallowest of each rule's first firing, the first in
program rule order on ties, memoised per fact.  Facts of the input database
and of the program are leaves, even where a rule could also derive them.

``repro-datalog why program.dl "anc(a, c)"`` prints these trees from the
command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..analysis.stratify import stratify
from ..datalog.atoms import Atom
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant
from ..datalog.unify import match_atom
from ..facts.database import Database
from .counters import EvaluationStats
from .matching import CompiledRule, compile_rule, match_body
from .seminaive import seminaive_fixpoint

__all__ = ["Derivation", "ProofNode", "TracedEvaluation", "traced_fixpoint", "format_proof"]

Fact = tuple[str, tuple]  # (predicate, value tuple)


@dataclass(frozen=True)
class Derivation:
    """One recorded rule firing.

    Attributes:
        rule: the source rule.
        positive: the positive body facts consumed, in body order.
        negative: the negative body facts checked absent (NAF leaves).
    """

    rule: Rule
    positive: tuple[Fact, ...]
    negative: tuple[Fact, ...]


@dataclass
class ProofNode:
    """A node of a reconstructed proof tree."""

    fact: Fact
    rule: Rule | None  # None => extensional (or asserted) fact
    children: list["ProofNode"] = field(default_factory=list)
    negative: tuple[Fact, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.rule is None

    def atom(self) -> Atom:
        predicate, row = self.fact
        return Atom(predicate, tuple(Constant(value) for value in row))

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


class TracedEvaluation:
    """The result of a traced run: the completed database plus, for each
    derived fact, its derivation, found on first request."""

    def __init__(
        self,
        program: Program,
        database: Database,
        asserted: frozenset[Fact],
        stats: EvaluationStats,
    ):
        self.database = database
        self.stats = stats
        self._asserted = asserted
        self._scc_of = program.dependency_graph.scc_of
        self._rules: dict[str, list[CompiledRule]] = {}
        for rule in program.proper_rules:
            self._rules.setdefault(rule.head.predicate, []).append(compile_rule(rule))
        self._derivations: dict[Fact, tuple[Derivation | None, int]] = {}

    def holds(self, atom: Atom) -> bool:
        return self.database.has_fact(atom)

    def derivation_of(self, atom: Atom) -> Derivation | None:
        return self._derive((atom.predicate, atom.ground_key()))[0]

    def proof(self, atom: Atom) -> ProofNode | None:
        """The proof tree of a ground atom, or None when it does not hold."""
        if not self.holds(atom):
            return None
        return self._build((atom.predicate, atom.ground_key()))

    def _build(self, fact: Fact) -> ProofNode:
        derivation, _ = self._derive(fact)
        if derivation is None:
            return ProofNode(fact=fact, rule=None)
        children = [self._build(child) for child in derivation.positive]
        return ProofNode(fact, derivation.rule, children, derivation.negative)

    def _derive(self, fact: Fact) -> tuple[Derivation | None, int]:
        """*fact*'s derivation and its proof's depth; ``(None, 1)`` for an
        asserted fact or one that does not hold."""
        known = self._derivations.get(fact)
        if known is not None:
            return known
        derivation, depth = None, 1
        predicate, row = fact
        if fact not in self._asserted and predicate in self.database:
            relation = self.database.relation(predicate)
            if row in relation:
                # Where a component reads only complete inputs, all its rules
                # fire in one pass and the stamps cannot rank them; the
                # shallowest proof is the one a stratum's rounds reach first.
                for candidate in self._firings(predicate, row, relation.stamp_of(row)):
                    height = 1
                    for child in candidate.positive:  # a loop, not max(): stack depth
                        height = max(height, 1 + self._derive(child)[1])
                    if derivation is None or height < depth:
                        derivation, depth = candidate, height
        self._derivations[fact] = (derivation, depth)
        return derivation, depth

    def _firings(self, predicate: str, row: tuple, cutoff: int) -> Iterator[Derivation]:
        """Each rule's first firing for ``predicate(row)``, in program rule
        order, reading same-component rows stamped before *cutoff*."""
        component = self._scc_of[predicate]
        database = self.database

        def view(position: int, name: str):
            if name not in database:
                return None
            relation = database.relation(name)
            return relation.rows_before(cutoff) if name in component else relation

        head = Atom(predicate, tuple(Constant(value) for value in row))
        for compiled in self._rules[predicate]:
            substitution = match_atom(compiled.rule.head, head)
            if substitution is None:
                continue
            seed = {var: term.value for var, term in substitution.items()}
            for binding in match_body(compiled, view, EvaluationStats(), seed):
                positive: list[Fact] = []
                negative: list[Fact] = []
                for literal in compiled.body:
                    values = tuple(
                        arg.value if isinstance(arg, Constant) else binding[arg]
                        for arg in literal.source.atom.args
                    )
                    (positive if literal.positive else negative).append((literal.predicate, values))
                yield Derivation(compiled.rule, tuple(positive), tuple(negative))
                break


def traced_fixpoint(program: Program, database: Database | None = None) -> TracedEvaluation:
    """Evaluate *program* with :func:`~repro.engine.seminaive.seminaive_fixpoint`
    and return the model with on-demand proofs.

    Raises:
        StratificationError: when *program* is not stratifiable.
    """
    stratify(program)
    asserted = {(atom.predicate, atom.ground_key()) for atom in program.facts}
    for relation in database.relations() if database is not None else ():
        asserted.update((relation.name, row) for row in relation)
    model, stats = seminaive_fixpoint(program, database)
    return TracedEvaluation(program, model, frozenset(asserted), stats)


def format_proof(node: ProofNode, indent: str = "") -> str:
    """Render a proof tree as indented ASCII."""
    lines = []
    label = str(node.atom())
    if node.rule is None:
        lines.append(f"{indent}{label}   [fact]")
    else:
        lines.append(f"{indent}{label}   [rule: {node.rule}]")
    child_indent = indent + "  "
    for child in node.children:
        lines.append(format_proof(child, child_indent))
    for predicate, row in node.negative:
        atom = Atom(predicate, tuple(Constant(value) for value in row))
        lines.append(f"{child_indent}not {atom}   [absent]")
    return "\n".join(lines)
