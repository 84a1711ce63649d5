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

Positive literals join in textual order: the order the rewriting's SIPS
emitted them in, which is the order Seki's correspondence is stated for.

Compiling a rule lowers it for the generated kernels every bottom-up
engine runs, in one walk over the ordered body: it numbers the variables
as slots and builds the kernel *shape*, its arguments and the positions
it reads (:class:`CompiledRule`), so
:func:`repro.engine.kernel.compile_kernel` only looks the shape up.  The
matcher's per-literal records are built only when something asks for
them (:func:`match_body`, :func:`delta_first`, maintenance, the
well-founded engine, snapshots and ``explain``).  The compiled records
are named tuples: cheap to build.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from ..datalog.atoms import Literal
from ..datalog.builtins import BUILTIN_PREDICATES, evaluate_builtin, is_builtin
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable
from ..errors import SafetyError
from ..facts.relation import Relation
from .counters import EvaluationStats

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
# them afresh.  Between executions a view may be re-pointed freely: the
# semi-naive loop binds each delta variant's view once per component, as
# the ``get`` of a dict holding every position the kernel reads (so the
# predicate argument is only ``get``'s default, never returned), and
# re-points the delta position between rounds.
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


class _LoweredRule(NamedTuple):
    rule: Rule
    head_predicate: str
    ordered: tuple[Literal, ...]
    shape: tuple
    arguments: tuple
    reads: tuple[tuple[int, str, bool], ...]
    lead: str | None


class CompiledRule(_LoweredRule):
    """A rule with its body ordered for left-to-right evaluation.

    ``ordered`` is the body in that order.  ``shape`` and ``arguments``
    are the rule's kernel: ``shape`` is ``(prelude, levels, head)`` with
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
    ``reads`` lists ``(position, predicate, positive)`` for every body
    position that reads a relation (every literal but the built-ins), in
    body order: the positions a :data:`RelationView` is asked for.
    ``lead`` is the predicate of the first scan level when no test runs
    before it (``None`` otherwise): a run whose lead relation has no
    rows probes nothing and charges nothing, so the fixpoint loops skip
    it.

    The interpreted matcher's form — ``body``, one
    :class:`CompiledLiteral` per position, and ``head_pattern``, whose
    entries are ``("c", value)`` or ``("v", Variable)`` — is built on
    first use and kept: the fixpoint engines run the kernel and never
    ask for it.
    """

    @cached_property
    def body(self) -> tuple[CompiledLiteral, ...]:
        return tuple([_compiled_literal(literal) for literal in self.ordered])

    @cached_property
    def head_pattern(self) -> tuple[tuple[str, object], ...]:
        return tuple([
            ("c", arg.value) if isinstance(arg, Constant) else ("v", arg)
            for arg in self.rule.head.args
        ])

    def head_tuple(self, binding: Mapping[Variable, object]) -> tuple:
        return tuple(
            value if kind == "c" else binding[value]
            for kind, value in self.head_pattern
        )


def _compiled_literal(literal: Literal) -> CompiledLiteral:
    """*literal*'s columns classified as constants, binders and filters."""
    binders: list[tuple[int, Variable]] = []
    constants: list[tuple[int, object]] = []
    filters: list[tuple[int, Variable]] = []
    seen: set[Variable] = set()
    for column, arg in enumerate(literal.atom.args):
        if isinstance(arg, Constant):
            constants.append((column, arg.value))
        elif arg in seen:
            filters.append((column, arg))
        else:
            seen.add(arg)
            binders.append((column, arg))
    predicate = literal.atom.predicate
    return CompiledLiteral(
        predicate, literal.positive, tuple(constants), tuple(binders),
        tuple(filters), literal, predicate in BUILTIN_PREDICATES,
    )


def order_body(
    body: Sequence[Literal], rule: Rule | None = None
) -> tuple[Literal, ...]:
    """Order body literals so every *test* literal is fully bound.

    Tests — negative literals and built-in comparisons — check but never
    bind, so each is placed at the earliest point where all its variables
    are bound by preceding binding literals; the binding literals keep
    their given relative order (the transformations in this library emit
    bodies in binding-propagation order already).

    Raises:
        SafetyError: when some test literal has a variable that occurs
            in no binding literal.
    """
    for literal in body:
        if not literal.positive or literal.atom.predicate in BUILTIN_PREDICATES:
            break
    else:  # no test: nothing to place
        return tuple(body)
    negatives = [
        lit
        for lit in body
        if not lit.positive or lit.atom.predicate in BUILTIN_PREDICATES
    ]
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


def compile_rule(rule: Rule) -> CompiledRule:
    """Compile a rule for bottom-up matching, its body in
    :func:`order_body` order.

    The head must be range-restricted: every head variable must occur in
    some positive body literal.
    """
    return compile_rule_ordered(rule, order_body(rule.body, rule))


def compile_rule_ordered(
    rule: Rule, ordered: Sequence[Literal]
) -> CompiledRule:
    """Compile *rule* with its body in the given, already-decided order.

    :func:`compile_rule` passes :func:`order_body`'s order;
    :func:`delta_first` passes a maintenance variant's.  *ordered* must
    be a permutation of the rule's body whose test literals are fully
    bound at their position.

    One walk over *ordered* lowers the rule for
    :func:`repro.engine.kernel.compile_kernel`: the slots, the kernel
    shape, its arguments and the positions it reads (see
    :class:`CompiledRule`).  The matcher's per-literal records are left
    to the first consumer that asks for them.

    Raises:
        SafetyError: when a head variable, or a variable of a test
            literal, is not bound by a positive literal before it.
    """
    slots: dict[str, int] = {}  # variable name -> slot
    args: list = []
    reads: list[tuple[int, str, bool]] = []
    prelude: list[tuple] = []
    levels: list[tuple] = []
    level = None  # the open level's first five items; its tests follow
    tests = prelude
    for position, literal in enumerate(ordered):
        atom = literal.atom
        predicate = atom.predicate
        positive = literal.positive
        args.append(predicate)
        builtin = predicate in BUILTIN_PREDICATES
        if not builtin:
            reads.append((position, predicate, positive))
        if builtin or not positive:
            template: list = []
            for arg in atom.args:
                if isinstance(arg, Constant):
                    template.append(None)
                    args.append(arg.value)
                    continue
                slot = slots.get(arg.name)
                if slot is None:
                    raise SafetyError(
                        f"test literal {literal} of rule {rule} has unbound "
                        f"variable {arg.name} at its position"
                    )
                template.append(slot)
            tests.append((position, builtin, positive, tuple(template)))
            continue
        if level is not None:
            levels.append((*level, tuple(tests)))
        # Classify the columns.  Constants and repeated variables are the
        # rare cases.
        constants: tuple[int, ...] = ()
        checks: tuple[tuple[int, int], ...] = ()
        bound: list[tuple[int, int]] = []
        writes: list[tuple[int, int]] = []
        seen_here: list[str] = []
        column = 0
        for arg in atom.args:
            if isinstance(arg, Constant):
                constants += (column,)
                args.append(arg.value)
            else:
                name = arg.name
                if name in seen_here:
                    checks += ((column, slots[name]),)
                else:
                    seen_here.append(name)
                    slot = slots.get(name)
                    if slot is None:
                        slots[name] = slot = len(slots)
                        writes.append((column, slot))
                    else:
                        bound.append((column, slot))
            column += 1
        tests = []
        level = (position, constants, tuple(bound), tuple(writes), checks)
    if level is not None:
        levels.append((*level, tuple(tests)))
    head: list[int | None] = []
    for arg in rule.head.args:
        if isinstance(arg, Constant):
            head.append(None)
            args.append(arg.value)
        else:
            slot = slots.get(arg.name)
            if slot is None:
                raise SafetyError(
                    f"head variable {arg} of rule {rule} does not occur "
                    "in any positive body literal"
                )
            head.append(slot)
    lead = ordered[levels[0][0]].atom.predicate if levels and not prelude else None
    return _record(CompiledRule, (
        rule, rule.head.predicate, tuple(ordered),
        (tuple(prelude), tuple(levels), tuple(head)), tuple(args),
        tuple(reads), lead,
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
    ordered = order_body(positives + [body[index].source for index in tests], rule)
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
