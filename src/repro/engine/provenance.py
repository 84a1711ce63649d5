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
        deepest, stack = 0, [(self, 1)]  # explicit stack: proofs run deep
        while stack:
            node, level = stack.pop()
            deepest = max(deepest, level)
            stack.extend((child, level + 1) for child in node.children)
        return deepest

    def size(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count


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
        self._derive(fact)
        built: list[ProofNode] = []
        stack = [(fact, built)]  # (fact, the children list it joins)
        while stack:
            fact, siblings = stack.pop()
            derivation = self._derivations[fact][0]
            if derivation is None:
                siblings.append(ProofNode(fact=fact, rule=None))
                continue
            node = ProofNode(fact, derivation.rule, [], derivation.negative)
            siblings.append(node)
            stack.extend((child, node.children) for child in reversed(derivation.positive))
        return built[0]

    def _derive(self, fact: Fact) -> tuple[Derivation | None, int]:
        """*fact*'s derivation and its proof's depth; ``(None, 1)`` for an
        asserted fact or one that does not hold.

        A proof is as deep as the chain of rounds that derived it, so the
        search keeps its own stack of ``[fact, firings, candidate, next
        child, height, best, depth]`` frames rather than Python's.
        """
        memo = self._derivations
        if fact not in memo:
            stack = [[fact, self._candidates(fact), None, 0, 1, None, 1]]
            while stack:
                frame = stack[-1]
                candidate = frame[2]
                if candidate is not None and frame[3] < len(candidate.positive):
                    child = candidate.positive[frame[3]]
                    known = memo.get(child)
                    if known is None:
                        stack.append([child, self._candidates(child), None, 0, 1, None, 1])
                    else:
                        frame[4] = max(frame[4], 1 + known[1])
                        frame[3] += 1
                    continue
                if candidate is not None and (frame[5] is None or frame[4] < frame[6]):
                    frame[5], frame[6] = candidate, frame[4]
                frame[2] = next(frame[1], None)
                if frame[2] is not None:
                    frame[3], frame[4] = 0, 1
                    continue
                memo[frame[0]] = (frame[5], frame[6])
                stack.pop()
        return memo[fact]

    def _candidates(self, fact: Fact) -> Iterator[Derivation]:
        """The firings :meth:`_derive` ranks for *fact*: none for an
        asserted fact or one that does not hold."""
        predicate, row = fact
        if fact not in self._asserted and predicate in self.database:
            relation = self.database.relation(predicate)
            if row in relation:
                # Where a component reads only complete inputs, all its rules
                # fire in one pass and the stamps cannot rank them; the
                # shallowest proof is the one a stratum's rounds reach first.
                return self._firings(predicate, row, relation.stamp_of(row))
        return iter(())

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
    """Render a proof tree as indented ASCII: each node's line, then its
    children's trees one level in, then its absent negative facts."""
    lines = []
    stack: list = [(node, indent)]  # (node, its indent) or (None, a finished line)
    while stack:
        node, text = stack.pop()
        if node is None:
            lines.append(text)
            continue
        indent = text
        label = str(node.atom())
        if node.rule is None:
            lines.append(f"{indent}{label}   [fact]")
        else:
            lines.append(f"{indent}{label}   [rule: {node.rule}]")
        child_indent = indent + "  "
        for predicate, row in reversed(node.negative):
            atom = Atom(predicate, tuple(Constant(value) for value in row))
            stack.append((None, f"{child_indent}not {atom}   [absent]"))
        stack.extend((child, child_indent) for child in reversed(node.children))
    return "\n".join(lines)
