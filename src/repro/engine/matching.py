"""Rule compilation and body matching for the bottom-up engines.

Rules are compiled once into an index-friendly form: each literal becomes a
pattern over column positions, classified as constants, first occurrences
of a variable (which bind), or repeated occurrences (which filter).  The
matcher then enumerates substitutions (dicts mapping
:class:`~repro.datalog.terms.Variable` to plain constant *values*) by
index-nested-loop joins against :class:`~repro.facts.relation.Relation`
objects.

Negative literals are checked by absence once all their variables are
bound; the compiler orders them after the positive literals that bind
them (a safety analysis elsewhere guarantees such an order exists).

Positive literals join in textual order by default; passing a
:class:`repro.engine.planner.JoinPlanner` to :func:`compile_rule` swaps in
its statistics-driven order instead.  Either way the compiled rule
enumerates the same fact set — ordering only changes how much work the
index-nested-loop join does (see ``docs/ARCHITECTURE.md``, "The matcher/
planner contract").

The same pass also lowers the rule for the generated kernels every
bottom-up engine runs: it numbers the variables as slots and builds the
kernel *shape* and its arguments (:class:`CompiledRule`), so
:func:`repro.engine.kernel.compile_kernel` only looks the shape up.  The
compiled records are named tuples: immutable, and cheap to build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Sequence

from ..datalog.atoms import Literal
from ..datalog.builtins import BUILTIN_PREDICATES, evaluate_builtin, is_builtin
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable
from ..errors import SafetyError
from ..facts.relation import Relation
from .counters import EvaluationStats

if TYPE_CHECKING:  # pragma: no cover
    from .planner import JoinPlanner

__all__ = [
    "CompiledLiteral",
    "CompiledRule",
    "compile_rule",
    "compile_rule_ordered",
    "match_body",
    "RelationView",
]

# A view maps a (body position, predicate name) pair to the relation that
# position should read, or None when the relation is empty/unknown.  The
# position argument lets the semi-naive engine give the distinguished delta
# occurrence a different relation than the full/old occurrences.
#
# Contract: for the duration of one rule execution (one match_body /
# kernel run, until its iterator is exhausted or dropped) a view is a pure
# function of its arguments — every call with the same (position,
# predicate) returns the same object, and calling it has no effect.  The
# generated kernels (repro.engine.codegen) rely on it: they resolve each
# body position once, before the first row, where the interpreted matcher
# asks again for every probe.  One change is tolerated: a position that
# answered None may later answer an *empty* relation (maintain.propagate
# creates head relations while it enumerates) — both mean "no rows".  The
# relation's *contents* may change during the execution; each probe reads
# them afresh.  Between executions a view may be re-pointed freely (the
# schedulers reuse one _RoundView per delta variant across rounds).
RelationView = Callable[[int, str], "Relation | None"]

# Builds a named tuple from a tuple of all its fields, in C: the class's
# generated ``__new__`` is a Python call that costs more than the tuple.
_record = tuple.__new__


class CompiledLiteral(NamedTuple):
    """One body literal in matcher form.

    Attributes:
        predicate: relation to probe.
        positive: literal polarity.
        constants: (column, value) pairs that must match exactly.
        binders: (column, variable) pairs where the variable first occurs
            within this literal (they extend the binding).
        filters: (column, variable) pairs where the variable occurred
            earlier in this literal (equality filter within the row).
        source: the original literal, for diagnostics.
        builtin: True for a built-in comparison.
    """

    predicate: str
    positive: bool
    constants: tuple[tuple[int, object], ...]
    binders: tuple[tuple[int, Variable], ...]
    filters: tuple[tuple[int, Variable], ...]
    source: Literal
    builtin: bool = False

    @property
    def variables(self) -> frozenset[Variable]:
        return frozenset(var for _, var in self.binders + self.filters)

    @property
    def is_test(self) -> bool:
        """Tests (negatives and built-ins) check; they never bind."""
        return self.builtin or not self.positive


class CompiledRule(NamedTuple):
    """A rule with its body ordered for left-to-right evaluation.

    ``head_pattern`` entries are either ``("c", value)`` or
    ``("v", Variable)``; building a head tuple from a complete binding is a
    single comprehension.

    ``shape`` and ``arguments`` are the rule's kernel, lowered in the same
    walk over the body: ``shape`` is ``(prelude, levels, head)`` with
    body positions, columns and slot numbers only, the key
    :func:`repro.engine.codegen.generate` renders source from, and
    ``arguments`` the predicate names and constants bound to that
    source's ``A0, A1, ...``.  Slots number the variables in order of
    first binding.  A prelude test or a level's trailing test is
    ``(position, builtin, positive, template)``, its template the slot
    per column (``None`` for a constant); a level is ``(position,
    constant columns, bound probe, writes, checks, tests)``, the last
    three as ``(column, slot)`` pairs; the head is a template.  The
    arguments follow rendering order: per test its predicate then its
    constants; per level the scan's, then its tests'; then the head's.
    """

    rule: Rule
    head_predicate: str
    head_pattern: tuple[tuple[str, object], ...]
    body: tuple[CompiledLiteral, ...]
    shape: tuple
    arguments: tuple

    def head_tuple(self, binding: Mapping[Variable, object]) -> tuple:
        return tuple(
            value if kind == "c" else binding[value]
            for kind, value in self.head_pattern
        )


def order_body(
    body: Sequence[Literal],
    rule: Rule | None = None,
    positives: Sequence[Literal] | None = None,
) -> tuple[Literal, ...]:
    """Order body literals so every *test* literal is fully bound.

    Tests — negative literals and built-in comparisons — check but never
    bind, so each is placed at the earliest point where all its variables
    are bound by preceding binding literals; the binding literals keep
    their given relative order (the transformations in this library emit
    bodies in binding-propagation order already).

    Args:
        positives: optional explicit ordering of the positive
            non-built-in literals (a permutation of them, typically from
            :class:`repro.engine.planner.JoinPlanner`); textual order
            when omitted.

    Raises:
        SafetyError: when some test literal has a variable that occurs
            in no binding literal.
    """
    negatives = [
        lit
        for lit in body
        if not lit.positive or lit.atom.predicate in BUILTIN_PREDICATES
    ]
    if not negatives:
        return tuple(body if positives is None else positives)
    if positives is None:
        positives = [
            lit for lit in body if lit.positive and not is_builtin(lit.predicate)
        ]
    available: set[Variable] = set()
    ordered: list[Literal] = []
    pending = list(negatives)

    def flush() -> None:
        nonlocal pending
        still_pending = []
        for negative in pending:
            if negative.variable_set() <= available:
                ordered.append(negative)
            else:
                still_pending.append(negative)
        pending = still_pending

    flush()  # ground negatives may run before any positive literal
    for literal in positives:
        ordered.append(literal)
        available.update(literal.variables())
        flush()
    for negative in pending:
        if negative.variable_set():
            missing = negative.variable_set() - available
            if missing:
                where = f" in rule {rule}" if rule is not None else ""
                names = ", ".join(sorted(v.name for v in missing))
                raise SafetyError(
                    f"negative literal {negative} has unbound variables "
                    f"{names}{where}"
                )
        ordered.append(negative)
    return tuple(ordered)


def compile_rule(rule: Rule, planner: "JoinPlanner | None" = None) -> CompiledRule:
    """Compile a rule for bottom-up matching.

    The head must be range-restricted: every head variable must occur in
    some positive body literal.

    Args:
        planner: optional :class:`repro.engine.planner.JoinPlanner`; when
            given, positive literals are joined in its cost-based order
            instead of textual order.  Tests keep their earliest-bound
            placement either way, and the derived fact set is identical —
            only the enumeration work changes.
    """
    if planner is not None:
        return compile_rule_ordered(rule, planner.order_body(rule))
    return compile_rule_ordered(rule, order_body(rule.body, rule))


def compile_rule_ordered(
    rule: Rule, ordered: Sequence[Literal]
) -> CompiledRule:
    """Compile *rule* with its body in the given, already-decided order.

    The snapshot layer (:mod:`repro.core.snapshot`) serializes each
    compiled rule's body order as an explicit permutation; reloading
    must reproduce that exact order without consulting a planner or
    re-deriving test placement — any re-derivation would make the
    reloaded plan merely equivalent where the format promises
    bit-identity.  *ordered* must be a permutation of ``rule.body``
    whose test literals are fully bound at their position (true of any
    order :func:`compile_rule` ever produced, which is the only source
    of serialized plans).

    One walk over *ordered* classifies each literal's columns for
    :func:`match_body` and lowers the rule for
    :func:`repro.engine.kernel.compile_kernel`: the slots, the kernel
    shape and its arguments (see :class:`CompiledRule`).

    Raises:
        SafetyError: when a head variable, or a variable of a test
            literal, is not bound by a positive literal before it.
    """
    slots: dict[str, int] = {}  # variable name -> slot
    args: list = []
    body: list[CompiledLiteral] = []
    prelude: list[tuple] = []
    levels: list[tuple] = []  # each level's last item: its tests, a list
    tests = prelude
    for position, literal in enumerate(ordered):
        atom = literal.atom
        predicate = atom.predicate
        # Classify the columns.  Constants and repeated variables are the
        # rare cases.
        binders: list[tuple[int, Variable]] = []
        constants: tuple[tuple[int, object], ...] = ()
        filters: tuple[tuple[int, Variable], ...] = ()
        seen_here: set[str] = set()  # names: str hashes without a Python call
        for column, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                constants += ((column, arg.value),)
            elif arg.name in seen_here:
                filters += ((column, arg),)
            else:
                seen_here.add(arg.name)
                binders.append((column, arg))
        positive = literal.positive
        builtin = predicate in BUILTIN_PREDICATES
        body.append(_record(CompiledLiteral, (
            predicate, positive, constants, tuple(binders), filters,
            literal, builtin,
        )))
        args.append(predicate)
        if constants:
            args.extend([value for _, value in constants])
        if builtin or not positive:
            template: list = [None] * len(atom.args)
            for column, var in binders:
                slot = slots.get(var.name)
                if slot is None:
                    raise SafetyError(
                        f"test literal {literal} of rule {rule} has unbound "
                        f"variable {var.name} at its position"
                    )
                template[column] = slot
            for column, var in filters:
                template[column] = slots[var.name]
            tests.append((position, builtin, positive, tuple(template)))
            continue
        bound: list[tuple[int, int]] = []
        writes: list[tuple[int, int]] = []
        for column, var in binders:
            slot = slots.get(var.name)
            if slot is None:
                slots[var.name] = slot = len(slots)
                writes.append((column, slot))
            else:
                bound.append((column, slot))
        checks: tuple[tuple[int, int], ...] = ()
        if filters:
            checks = tuple([(column, slots[var.name]) for column, var in filters])
        tests = []
        levels.append((
            position, tuple([column for column, _ in constants]),
            tuple(bound), tuple(writes), checks, tests,
        ))
    head_pattern: list[tuple[str, object]] = []
    head: list[int | None] = []
    for arg in rule.head.args:
        if isinstance(arg, Constant):
            head_pattern.append(("c", arg.value))
            head.append(None)
            args.append(arg.value)
        else:
            slot = slots.get(arg.name)
            if slot is None:
                raise SafetyError(
                    f"head variable {arg} of rule {rule} does not occur "
                    "in any positive body literal"
                )
            head_pattern.append(("v", arg))
            head.append(slot)
    shape = (
        tuple(prelude),
        tuple([(*level[:5], tuple(level[5])) for level in levels]),
        tuple(head),
    )
    return _record(CompiledRule, (
        rule, rule.head.predicate, tuple(head_pattern), tuple(body),
        shape, tuple(args),
    ))


def delta_first(
    compiled: CompiledRule, position: "int | None" = None
) -> tuple[CompiledRule, tuple[int, ...]]:
    """*compiled* re-ordered to start from one literal, and the body
    position in *compiled* of each of its own positions.

    With *position*, the positive literal there leads: the variant
    maintenance runs when that position reads the delta.  Without, a
    literal on the rule's own head atom leads (the *guarded* rule, which
    derives only the head rows that literal reads); its position maps to
    ``-1``.  The other positives keep their order, except that one with
    variables, none of them bound yet, waits until some later literal
    binds one; tests are re-placed by :func:`order_body`.
    """
    body = compiled.body
    rule = compiled.rule
    if position is None:
        lead = Literal(rule.head)
        rule = Rule(rule.head, (lead,) + rule.body)
    else:
        lead = body[position].source
    pending = [i for i, literal in enumerate(body) if not literal.is_test and i != position]
    order = [-1 if position is None else position]
    bound = set(lead.variable_set())
    while pending:
        index = next(
            (i for i in pending if not body[i].variables or body[i].variables & bound),
            pending[0],
        )
        pending.remove(index)
        order.append(index)
        bound |= body[index].variables
    tests = [index for index, literal in enumerate(body) if literal.is_test]
    positives = [lead] + [body[index].source for index in order[1:]]
    ordered = order_body([body[index].source for index in tests], rule, positives)
    # Positives come back in the order given; each test is matched back to
    # its position by identity, so repeated literals stay distinguishable.
    leads = iter(order)
    origin = []
    for literal in ordered:
        if literal.positive and not is_builtin(literal.predicate):
            origin.append(next(leads))
        else:
            index = next(i for i in tests if body[i].source is literal)
            tests.remove(index)
            origin.append(index)
    return compile_rule_ordered(rule, ordered), tuple(origin)


def _match_positive(
    literal: CompiledLiteral,
    relation: Relation,
    binding: dict[Variable, object],
    stats: EvaluationStats,
    checkpoint=None,
) -> Iterator[dict[Variable, object]]:
    bound_columns: dict[int, object] = dict(literal.constants)
    unbound: list[tuple[int, Variable]] = []
    for column, var in literal.binders:
        if var in binding:
            bound_columns[column] = binding[var]
        else:
            unbound.append((column, var))
    for row in relation.lookup(bound_columns):
        stats.attempts += 1
        if checkpoint is not None:
            checkpoint.poll()
        # Repeated variables within the literal: binders extend, filters
        # check equality against the value bound earlier in this same row.
        extended = dict(binding)
        for column, var in unbound:
            extended[var] = row[column]
        ok = True
        for column, var in literal.filters:
            if extended.get(var) != row[column]:
                ok = False
                break
        if ok:
            yield extended


def _literal_values(
    literal: CompiledLiteral, binding: Mapping[Variable, object]
) -> tuple:
    """The literal's fully bound argument values under *binding*."""
    row: dict[int, object] = dict(literal.constants)
    for column, var in literal.binders + literal.filters:
        row[column] = binding[var]
    return tuple(row[column] for column in range(len(row)))


def _check_builtin(
    literal: CompiledLiteral, binding: Mapping[Variable, object]
) -> bool:
    """Evaluate a built-in test literal; polarity applied."""
    holds = evaluate_builtin(literal.predicate, _literal_values(literal, binding))
    return holds if literal.positive else not holds


def _check_negative(
    literal: CompiledLiteral,
    relation: Relation | None,
    binding: Mapping[Variable, object],
) -> bool:
    """True iff the (fully bound) negative literal holds, i.e. no row matches."""
    row: dict[int, object] = {}
    for column, value in literal.constants:
        row[column] = value
    for column, var in literal.binders + literal.filters:
        row[column] = binding[var]
    if relation is None:
        return True
    probe = tuple(row[column] for column in range(relation.arity))
    return probe not in relation


def match_body(
    compiled: CompiledRule,
    view: RelationView,
    stats: EvaluationStats,
    binding: dict[Variable, object] | None = None,
    from_literal: int = 0,
    checkpoint=None,
) -> Iterator[dict[Variable, object]]:
    """Enumerate bindings satisfying the body from *from_literal* on.

    Args:
        compiled: the compiled rule.
        view: maps (body position, predicate name) to the relation that
            position should read (see :data:`RelationView`).
        stats: attempt counters are charged here.
        binding: the binding accumulated so far (empty at the top call).
        from_literal: index into ``compiled.body`` to start from.
        checkpoint: optional :class:`repro.engine.budget.Checkpoint`
            polled once per probed row, so a single huge join respects
            the wall-clock/attempt budget mid-round.
    """
    if binding is None:
        binding = {}
    position = from_literal
    # Resolve the run of test literals (negatives, built-ins) iteratively.
    while position < len(compiled.body) and compiled.body[position].is_test:
        literal = compiled.body[position]
        stats.attempts += 1
        if literal.builtin:
            if not _check_builtin(literal, binding):
                return
        else:
            relation = view(position, literal.predicate)
            if not _check_negative(literal, relation, binding):
                return
        position += 1
    if position == len(compiled.body):
        yield binding
        return
    literal = compiled.body[position]
    relation = view(position, literal.predicate)
    if relation is None:
        return
    for extended in _match_positive(literal, relation, binding, stats, checkpoint):
        yield from match_body(
            compiled, view, stats, extended, position + 1, checkpoint
        )
