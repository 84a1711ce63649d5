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

from ..errors import SafetyError
from ..obs import get_metrics
from .codegen import generate
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


def _compile_test(
    position: int,
    literal: CompiledLiteral,
    slots: dict[str, int],
    args: list,
) -> tuple[SlotTest, tuple]:
    """The test and its shape; its predicate and constants join *args*."""
    values: list[tuple[bool, object] | None] = [None] * len(literal.source.args)
    for column, value in literal.constants:
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
        args.extend([value for _, value in const_probe])
        columns = tuple([column for column, _ in const_probe])
    scan = SlotScan(
        position, literal.predicate, const_probe,
        tuple(bound_probe), tuple(writes), checks,
    )
    return scan, (position, columns, scan.bound_probe, scan.writes, checks)


def compile_kernel(compiled: CompiledRule) -> RuleKernel:
    """Lower *compiled* to slot form.

    The body order is taken as-is (the planner already ran, if any), so
    which variables are bound at each position — the information
    :func:`~repro.engine.matching.match_body` rediscovers per row with
    ``var in binding`` — is resolved here, once.  The same pass over the
    body yields the kernel's *shape* (positions, columns and slots: what
    :mod:`repro.engine.codegen` renders source from) and the factory
    arguments in rendering order: per test its predicate then its
    constants; per level the scan's, then its tests'; then the head's.
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
            test, shape = _compile_test(position, literal, slots, args)
            tests.append(test)
            test_shapes.append(shape)
        else:
            scan, shape = _compile_scan(position, literal, slots, args)
            tests, test_shapes = [], []
            levels.append((scan, tests))
            nest.append((shape, test_shapes))
    head: list[tuple[bool, object]] = []
    head_shape: list[int | None] = []
    for kind, payload in compiled.head_pattern:
        if kind == "c":
            head.append((True, payload))
            head_shape.append(None)
            args.append(payload)
        else:
            slot = slots[payload.name]
            head.append((False, slot))
            head_shape.append(slot)
    shape = (
        tuple(before),
        tuple([(*scan, tuple(tests)) for scan, tests in nest]),
        tuple(head_shape),
    )
    run, source, fresh = generate(shape, args)
    kernel = RuleKernel(
        compiled, compiled.head_predicate, len(slots),
        tuple(prelude),
        tuple([(scan, tuple(tests)) for scan, tests in levels]),
        tuple(head),
        run, source, tuple(args),
    )
    obs = get_metrics()
    if obs.enabled:
        obs.incr("kernel.rules_compiled")
        obs.incr("kernel.shapes_compiled" if fresh else "kernel.shape_cache_hits")
        obs.observe("kernel.slots", kernel.slot_count)
    return kernel


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
) -> list[tuple[CompiledRule, RuleKernel | None]]:
    """Pair each compiled rule with its kernel (or ``None``, interpreted).

    The pair list is what the bottom-up engines iterate: the compiled
    rule keeps serving the structural queries (delta-variant positions,
    head predicate), the kernel — when present — does the enumeration.
    """
    resolve_executor(executor)
    if executor == "interpreted":
        return [(compiled, None) for compiled in compiled_rules]
    return [(compiled, compile_kernel(compiled)) for compiled in compiled_rules]


def head_rows(
    compiled: CompiledRule,
    kernel: RuleKernel | None,
    view: RelationView,
    stats: EvaluationStats,
    checkpoint=None,
) -> Iterator[tuple]:
    """Head tuples of one rule under either executor.

    The single place the executor knob is dispatched: engines call this
    in their match loops and stay executor-agnostic.
    """
    if kernel is not None:
        return kernel.run(view, stats, checkpoint)
    head_tuple = compiled.head_tuple
    return (
        head_tuple(binding)
        for binding in match_body(compiled, view, stats, checkpoint=checkpoint)
    )
