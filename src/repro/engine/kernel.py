"""Compiled rule kernels: slot-based rule bodies run as generated code.

:func:`repro.engine.matching.match_body` enumerates rule-body matches with
recursive generators over ``dict[Variable, value]`` bindings, copying the
binding dict for every probed row.  That copy is pure overhead: once the
body order is fixed (by :func:`~repro.engine.matching.compile_rule`, with
or without a planner), which variables are bound at each position is known
*statically*.  This module lowers a :class:`~repro.engine.matching.CompiledRule`
into a :class:`RuleKernel`:

* bindings become numbered **slots** (a per-rule variable numbering
  computed at compile time);
* each positive literal becomes a :class:`SlotScan` — a precomputed probe
  program of ``(column, value)`` constants and ``(column, slot)`` reads,
  plus the slot writes and within-row equality checks to run per row;
* each test literal (negative or built-in) becomes a :class:`SlotTest` —
  an argument template evaluated against the slots;
* the head becomes a template that builds the derived tuple straight from
  the slots, so no binding dict ever exists.

:mod:`repro.engine.codegen` then turns that slot form into the source of
one Python generator function per rule *shape* — nested ``for`` loops,
slots as locals — which is what :func:`head_rows` runs
(``RuleKernel.run``; the text is kept on ``RuleKernel.source``).

The kernel is an *executor*, not a new semantics: it enumerates exactly
the rows :func:`match_body` enumerates, in the same order, charging
``stats.attempts`` and polling the budget checkpoint at exactly the same
points.  The interpreted matcher (``executor="interpreted"``, accepted by
every engine) is the differential-testing oracle:
``tests/test_kernel_differential.py`` and ``tests/test_codegen.py`` pin
bit-identical fact sets, counters, and budget-trip behaviour.  See
``docs/ARCHITECTURE.md``, "The rule-kernel compiler".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from bisect import bisect_left
from itertools import repeat

from ..datalog.builtins import evaluate_builtin
from ..datalog.intern import ConstantInterner
from ..errors import SafetyError
from ..obs import get_metrics
from .codegen import generate
from .columnar import ColumnarPrefix, ColumnarRelation
from .counters import EvaluationStats
from .matching import CompiledLiteral, CompiledRule, RelationView, match_body

__all__ = [
    "EXECUTORS",
    "DEFAULT_EXECUTOR",
    "SlotScan",
    "SlotTest",
    "RuleKernel",
    "compile_kernel",
    "execute_kernel",
    "execute_batch",
    "compile_executors",
    "head_rows",
    "resolve_executor",
]

EXECUTORS = ("kernel", "interpreted")
DEFAULT_EXECUTOR = "kernel"


@dataclass(frozen=True, slots=True)
class SlotScan:
    """One positive body literal as a slot-probe program.

    Attributes:
        position: body position (for the :data:`RelationView` protocol).
        predicate: relation to probe.
        const_probe: (column, value) pairs bound to constants.
        bound_probe: (column, slot) pairs bound by earlier literals.
        writes: (column, slot) pairs this literal binds (first global
            occurrence of the variable).
        checks: (column, slot) within-row equality checks (the variable
            occurred earlier in this same literal).
    """

    position: int
    predicate: str
    const_probe: tuple[tuple[int, object], ...]
    bound_probe: tuple[tuple[int, int], ...]
    writes: tuple[tuple[int, int], ...]
    checks: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class SlotTest:
    """One test literal (negative or built-in) as an inline slot check.

    ``values`` holds one ``(is_const, payload)`` entry per argument
    column: a constant value, or the slot index carrying the argument.
    """

    position: int
    predicate: str
    positive: bool
    builtin: bool
    values: tuple[tuple[bool, object], ...]


@dataclass(frozen=True, slots=True)
class RuleKernel:
    """A rule lowered to slot form, with the code generated from it.

    Attributes:
        compiled: the source compiled rule (diagnostics, oracle runs).
        head_predicate: relation the head tuples belong to.
        slot_count: size of the slot array (distinct body variables).
        prelude: tests placed before the first scan (ground negatives or
            constant built-ins) — checked once per execution.
        levels: one ``(scan, trailing tests)`` pair per positive literal,
            in body order.
        head: ``(is_const, payload)`` template building the head tuple.
        run: the generated executor, ``run(view, stats, checkpoint)``
            returning the iterator of head tuples.
        source: the Python text *run* was compiled from (shared by every
            kernel of the same shape).
        arguments: the predicate names and constants bound to the
            ``A0, A1, ...`` of *source* — they are never part of its text.
        interner: the constant table the kernel was compiled against, or
            ``None`` for the tuple backend.  When set, every relation
            constant in the probe programs, negative tests, and the head
            template is already id-encoded (built-in tests keep raw
            constants and decode slot reads at evaluation time), and the
            batch executor is available.
    """

    compiled: CompiledRule
    head_predicate: str
    slot_count: int
    prelude: tuple[SlotTest, ...]
    levels: tuple[tuple[SlotScan, tuple[SlotTest, ...]], ...]
    head: tuple[tuple[bool, object], ...]
    run: Callable[..., Iterator[tuple]]
    source: str
    arguments: tuple
    interner: ConstantInterner | None = None


def _compile_test(
    position: int,
    literal: CompiledLiteral,
    slots: dict[str, int],
    interner: ConstantInterner | None,
    args: list,
) -> tuple[SlotTest, tuple]:
    """The test and its shape; its predicate and constants join *args*."""
    values: list[tuple[bool, object] | None] = [None] * len(literal.source.args)
    for column, value in literal.constants:
        if interner is not None and not literal.builtin:
            # Negative tests probe id-encoded relations; built-ins
            # evaluate on raw values and decode slots at check time.
            value = interner.intern(value)
        values[column] = (True, value)
    for column, var in literal.binders + literal.filters:
        slot = slots.get(var.name)
        if slot is None:
            raise SafetyError(
                f"test literal {literal.source} reached the kernel compiler "
                f"with unbound variable {var.name}"
            )
        values[column] = (False, slot)
    test = SlotTest(
        position=position,
        predicate=literal.predicate,
        positive=literal.positive,
        builtin=literal.builtin,
        values=tuple(values),  # type: ignore[arg-type]
    )
    args.append(literal.predicate)
    args.extend([payload for is_const, payload in test.values if is_const])
    # The shape of an argument row: the slot per column, None for a constant.
    template = tuple([None if is_const else slot for is_const, slot in test.values])
    return test, (position, literal.builtin, literal.positive, template)


def _compile_scan(
    position: int,
    literal: CompiledLiteral,
    slots: dict[str, int],
    interner: ConstantInterner | None,
    args: list,
) -> tuple[SlotScan, tuple]:
    """The scan and its shape (all but the trailing tests); its predicate
    and probe constants join *args*."""
    bound_probe: list[tuple[int, int]] = []
    writes: list[tuple[int, int]] = []
    for column, var in literal.binders:
        slot = slots.get(var.name)
        if slot is None:
            slots[var.name] = slot = len(slots)
            writes.append((column, slot))
        else:
            bound_probe.append((column, slot))
    # Most scans have neither repeated variables nor constants.
    checks: tuple[tuple[int, int], ...] = ()
    if literal.filters:
        checks = tuple([(column, slots[var.name]) for column, var in literal.filters])
    args.append(literal.predicate)
    const_probe = literal.constants
    columns: tuple[int, ...] = ()
    if const_probe:
        if interner is not None:
            const_probe = tuple(
                [(column, interner.intern(value)) for column, value in const_probe]
            )
        args.extend([value for _, value in const_probe])
        columns = tuple([column for column, _ in const_probe])
    scan = SlotScan(
        position, literal.predicate, const_probe,
        tuple(bound_probe), tuple(writes), checks,
    )
    return scan, (position, columns, scan.bound_probe, scan.writes, checks)


def compile_kernel(
    compiled: CompiledRule, interner: ConstantInterner | None = None
) -> RuleKernel:
    """Lower *compiled* to slot form.

    The body order is taken as-is (the planner already ran, if any), so
    which variables are bound at each position — the information
    :func:`~repro.engine.matching.match_body` rediscovers per row with
    ``var in binding`` — is resolved here, once.  The same pass over the
    body yields the kernel's *shape* (positions, columns and slots: what
    :mod:`repro.engine.codegen` renders source from) and the factory
    arguments in rendering order: per test its predicate then its
    constants; per level the scan's, then its tests'; then the head's.

    With *interner* (the columnar backend), relation constants in probe
    programs, negative tests, and the head template are id-encoded at
    compile time, so execution never translates per row.
    """
    slots: dict[str, int] = {}  # variable name -> slot
    args: list = []
    prelude: list[SlotTest] = []
    levels: list[tuple[SlotScan, list[SlotTest]]] = []
    before: list[tuple] = []  # the shapes of prelude
    nest: list[tuple[tuple, list[tuple]]] = []  # ... and of levels
    tests, test_shapes = prelude, before
    for position, literal in enumerate(compiled.body):
        if literal.builtin or not literal.positive:
            test, shape = _compile_test(position, literal, slots, interner, args)
            tests.append(test)
            test_shapes.append(shape)
        else:
            scan, shape = _compile_scan(position, literal, slots, interner, args)
            tests, test_shapes = [], []
            levels.append((scan, tests))
            nest.append((shape, test_shapes))
    head: list[tuple[bool, object]] = []
    head_shape: list[int | None] = []
    for kind, payload in compiled.head_pattern:
        if kind == "c":
            value = payload if interner is None else interner.intern(payload)
            head.append((True, value))
            head_shape.append(None)
            args.append(value)
        else:
            slot = slots[payload.name]
            head.append((False, slot))
            head_shape.append(slot)
    shape = (
        interner is not None,
        tuple(before),
        tuple([(*scan, tuple(tests)) for scan, tests in nest]),
        tuple(head_shape),
    )
    run, source, fresh = generate(shape, args, interner)
    kernel = RuleKernel(
        compiled, compiled.head_predicate, len(slots),
        tuple(prelude),
        tuple([(scan, tuple(tests)) for scan, tests in levels]),
        tuple(head),
        run, source, tuple(args), interner,
    )
    obs = get_metrics()
    if obs.enabled:
        obs.incr("kernel.rules_compiled")
        obs.incr("kernel.shapes_compiled" if fresh else "kernel.shape_cache_hits")
        obs.observe("kernel.slots", kernel.slot_count)
    return kernel


def _check_test(
    test: SlotTest,
    slots: list,
    view: RelationView,
    interner: ConstantInterner | None = None,
) -> bool:
    """Evaluate one test against the slots; True iff the branch survives."""
    if test.builtin:
        # Built-ins compare raw values; under the columnar backend the
        # slots carry ids, so slot reads are decoded here (constants were
        # kept raw at compile time).
        if interner is None:
            values = tuple(
                payload if is_const else slots[payload]
                for is_const, payload in test.values
            )
        else:
            value_of = interner.value_of
            values = tuple(
                payload if is_const else value_of(slots[payload])
                for is_const, payload in test.values
            )
        holds = evaluate_builtin(test.predicate, values)
        return holds if test.positive else not holds
    values = tuple(
        payload if is_const else slots[payload]
        for is_const, payload in test.values
    )
    relation = view(test.position, test.predicate)
    if relation is None:
        return True
    return values not in relation


def execute_kernel(
    kernel: RuleKernel,
    view: RelationView,
    stats: EvaluationStats,
    checkpoint=None,
) -> Iterator[tuple]:
    """Enumerate the head tuples *kernel* derives under *view*.

    Charging contract (identical to :func:`match_body` +
    ``CompiledRule.head_tuple``): one ``stats.attempts`` per probed row
    and per test evaluation, one ``checkpoint.poll()`` per probed row;
    the caller charges ``stats.inferences`` per yielded head tuple.
    *view* must honour the :data:`~repro.engine.matching.RelationView`
    contract: each body position is resolved once, before the first row.
    """
    return kernel.run(view, stats, checkpoint)


def _batch_compress(slot_vals: list, keep: list[int]) -> None:
    """Filter every live slot column down to the positions in *keep*."""
    for index, vals in enumerate(slot_vals):
        if vals is not None:
            slot_vals[index] = [vals[i] for i in keep]


def _batch_probe(
    base: ColumnarRelation, boundary: int | None, items: list[tuple[int, int]]
) -> Sequence[int]:
    """Row indices matching every ``(column, id)`` pair of *items*.

    Mirrors :meth:`ColumnarRelation.lookup` exactly — smallest posting
    wins, first wins ties in item order, remaining columns filter — but
    stays in index space and applies the prefix *boundary* as a bisect
    slice instead of a per-row stamp check.
    """
    best_column = None
    best_posting: Sequence[int] | None = None
    for column, value in items:
        posting = base.postings(column).get(value, ())
        if best_posting is None or len(posting) < len(best_posting):
            best_column, best_posting = column, posting
            if not posting:
                return ()
    if boundary is not None:
        best_posting = best_posting[: bisect_left(best_posting, boundary)]
    remaining = [(c, v) for c, v in items if c != best_column]
    if not remaining:
        return best_posting
    filters = [(base.column(c), v) for c, v in remaining]
    result = []
    append = result.append
    for index in best_posting:
        for col, value in filters:
            if col[index] != value:
                break
        else:
            append(index)
    return result


def execute_batch(
    kernel: RuleKernel, view: RelationView, stats: EvaluationStats
) -> list | None:
    """Enumerate *kernel*'s head tuples block-at-a-time over columnar data.

    The batch counterpart of :func:`execute_kernel` for kernels compiled
    against an interner: instead of looping over probed rows one by one,
    each scan level joins the *whole* block of partial matches against the
    relation's postings at once — per-block column reads build the slot
    columns, repeated-variable checks and trailing tests are vectorized
    comprehension filters, and the head tuples fall out of one ``zip``.

    Charging is bulk but exact: ``stats.attempts`` grows by the same
    total the per-row path accumulates (rows probed per scan level, test
    evaluations with first-failing-test semantics), so counters stay
    bit-identical.  Budget polling is *not* performed — callers only
    dispatch here when no checkpoint governs the evaluation, which keeps
    budget-trip points identical to the per-row path by construction.

    Returns the list of head tuples, or ``None`` (before charging
    anything) when some scanned relation is not columnar — the caller
    falls back to :func:`execute_kernel`.
    """
    levels = kernel.levels
    resolved: list = []
    for scan, _tests in levels:
        relation = view(scan.position, scan.predicate)
        if relation is None:
            resolved.append(None)
            continue
        rtype = type(relation)
        if rtype is ColumnarRelation:
            resolved.append((relation, None))
        elif rtype is ColumnarPrefix:
            resolved.append((relation.relation, relation.boundary()))
        else:
            return None
    interner = kernel.interner
    obs = get_metrics()
    if obs.enabled:
        obs.incr("kernel.batch_executions")
    init = [None] * kernel.slot_count
    for test in kernel.prelude:
        stats.attempts += 1
        if not _check_test(test, init, view, interner):
            return []
    if not levels:
        # No scan binds a slot, so the head template is all constants.
        return [tuple(payload for _, payload in kernel.head)]
    slot_vals: list = [None] * kernel.slot_count
    n = 0
    first = True
    for (scan, tests), source in zip(levels, resolved):
        if source is None:
            return []
        base, boundary = source
        const_probe = scan.const_probe
        bound_probe = scan.bound_probe
        parent_idx: list[int] | None = None
        if not bound_probe:
            # Probe independent of the current block: a full scan or a
            # constants-only probe (level 0, or a cross product).
            if not const_probe:
                indices = base.live_indices()
                if boundary is not None:
                    indices = indices[: bisect_left(indices, boundary)]
            else:
                indices = _batch_probe(base, boundary, list(const_probe))
            if first:
                child_idx = indices
            else:
                m = len(indices)
                child_idx = list(indices) * n
                parent_idx = []
                extend = parent_idx.extend
                for i in range(n):
                    extend([i] * m)
        elif len(bound_probe) == 1 and not const_probe:
            # The dominant join shape: one column bound by the block.
            column, slot = bound_probe[0]
            vals = slot_vals[slot]
            pget = base.postings(column).get
            parent_idx = []
            child_idx = []
            pext = parent_idx.extend
            cext = child_idx.extend
            if boundary is None:
                for i, value in enumerate(vals):
                    posting = pget(value)
                    if posting:
                        cext(posting)
                        pext([i] * len(posting))
            else:
                for i, value in enumerate(vals):
                    posting = pget(value)
                    if posting:
                        posting = posting[: bisect_left(posting, boundary)]
                        if posting:
                            cext(posting)
                            pext([i] * len(posting))
        else:
            # General probe: constants plus several bound columns.
            items = list(const_probe)
            parent_idx = []
            child_idx = []
            pext = parent_idx.extend
            cext = child_idx.extend
            for i in range(n):
                probe = items + [(c, slot_vals[s][i]) for c, s in bound_probe]
                posting = _batch_probe(base, boundary, probe)
                if posting:
                    cext(posting)
                    pext([i] * len(posting))
        total = len(child_idx)
        stats.attempts += total
        if not total:
            return []
        if parent_idx is not None and not first:
            _batch_compress(slot_vals, parent_idx)
        for column, slot in scan.writes:
            slot_vals[slot] = base.column_block(column, child_idx)
        n = total
        if scan.checks:
            keep: list[int] | None = None
            for column, slot in scan.checks:
                col_vals = base.column_block(column, child_idx)
                target = slot_vals[slot]
                if keep is None:
                    keep = [
                        i for i in range(total) if col_vals[i] == target[i]
                    ]
                else:
                    keep = [i for i in keep if col_vals[i] == target[i]]
            if len(keep) != total:
                if not keep:
                    return []
                _batch_compress(slot_vals, keep)
            n = len(keep)
        for test in tests:
            stats.attempts += n
            arg_cols: list = []
            has_slot = False
            for is_const, payload in test.values:
                if is_const:
                    arg_cols.append(None)
                else:
                    has_slot = True
                    arg_cols.append(slot_vals[payload])
            if not has_slot:
                # Ground test: one evaluation decides the whole block.
                if not _check_test(test, init, view, interner):
                    return []
                continue
            positive = test.positive
            if test.builtin:
                columns = []
                for (is_const, payload), col in zip(test.values, arg_cols):
                    if col is None:
                        columns.append(repeat(payload, n))
                    elif interner is not None:
                        value_of = interner.value_of
                        columns.append([value_of(v) for v in col])
                    else:
                        columns.append(col)
                predicate = test.predicate
                keep = [
                    i
                    for i, vals in enumerate(zip(*columns))
                    if bool(evaluate_builtin(predicate, vals)) == positive
                ]
            else:
                target = view(test.position, test.predicate)
                if target is None:
                    continue
                columns = [
                    repeat(payload, n) if col is None else col
                    for (is_const, payload), col in zip(test.values, arg_cols)
                ]
                keep = [
                    i
                    for i, vals in enumerate(zip(*columns))
                    if vals not in target
                ]
            if len(keep) != n:
                if not keep:
                    return []
                _batch_compress(slot_vals, keep)
                n = len(keep)
        first = False
    head = kernel.head
    if not head:
        return [()] * n
    parts = [
        repeat(payload, n) if is_const else slot_vals[payload]
        for is_const, payload in head
    ]
    if len(parts) == 1:
        return [(value,) for value in parts[0]]
    return list(zip(*parts))


def resolve_executor(executor: str) -> str:
    """Validate an ``executor=`` argument (every engine accepts one)."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )
    return executor


def compile_executors(
    compiled_rules: Sequence[CompiledRule],
    executor: str,
    interner: ConstantInterner | None = None,
) -> list[tuple[CompiledRule, RuleKernel | None]]:
    """Pair each compiled rule with its kernel (or ``None``, interpreted).

    The pair list is what the bottom-up engines iterate: the compiled
    rule keeps serving the structural queries (delta-variant positions,
    head predicate), the kernel — when present — does the enumeration.
    Pass *interner* when the working database is columnar, so kernel
    constants are id-encoded at compile time.
    """
    resolve_executor(executor)
    if executor == "interpreted":
        if interner is not None:
            raise ValueError(
                "the interpreted executor evaluates raw values and cannot "
                "run over columnar storage; use executor='kernel'"
            )
        return [(compiled, None) for compiled in compiled_rules]
    return [
        (compiled, compile_kernel(compiled, interner))
        for compiled in compiled_rules
    ]


def head_rows(
    compiled: CompiledRule,
    kernel: RuleKernel | None,
    view: RelationView,
    stats: EvaluationStats,
    checkpoint=None,
    batch: bool = False,
) -> Iterator[tuple] | list[tuple]:
    """Head tuples of one rule under either executor.

    The single place the executor knob is dispatched: engines call this
    in their match loops and stay executor-agnostic.  Returns the
    executor's iterator, or — when *batch* is requested, the kernel was
    compiled against an interner, and no checkpoint governs the run —
    the fully materialised block from :func:`execute_batch`.  Callers
    may only pass ``batch=True`` when they collect head rows before
    inserting them (a rule that could observe its own inserts
    mid-enumeration must stay on the per-row path).
    """
    if kernel is not None:
        if batch and checkpoint is None and kernel.interner is not None:
            rows = execute_batch(kernel, view, stats)
            if rows is not None:
                return rows
        return kernel.run(view, stats, checkpoint)
    head_tuple = compiled.head_tuple
    return (
        head_tuple(binding)
        for binding in match_body(compiled, view, stats, checkpoint=checkpoint)
    )
