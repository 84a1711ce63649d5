"""Compiled rule kernels: rule bodies run as generated code.

:func:`repro.engine.matching.match_body` enumerates rule-body matches with
recursive generators over ``dict[Variable, value]`` bindings, copying the
binding dict for every probed row.  That copy is pure overhead: once the
body order is fixed (by :func:`~repro.engine.matching.compile_rule`, with
or without a planner), which variables are bound at each position is known
*statically*.  :func:`~repro.engine.matching.compile_rule_ordered` resolves
it in the same walk that classifies the body's columns, and leaves the
result on the :class:`~repro.engine.matching.CompiledRule` as the kernel's
*shape*, the IR of this module:

* bindings become numbered **slots** (a per-rule variable numbering, in
  order of first binding);
* each positive literal becomes a **level**: its constant columns and
  ``(column, slot)`` reads to probe with, plus the slot writes and
  within-row equality checks to run per row;
* each test literal (negative or built-in) becomes a slot template
  checked before the first level (the *prelude*) or after the level
  that binds its last variable;
* the head becomes a template that builds the derived tuple straight from
  the slots, so no binding dict ever exists.

:func:`compile_kernel` hands that shape, with the predicate names and
constants it leaves out, to :func:`repro.engine.codegen.generate`, which
renders one Python generator function per shape — nested ``for`` loops,
slots as locals — that every bottom-up engine runs as ``RuleKernel.run``
(the text is kept on ``RuleKernel.source``).

The kernel is an *executor*, not a new semantics: it enumerates exactly
the rows :func:`~repro.engine.matching.match_body` enumerates, in the
same order, charging ``stats.attempts`` and polling the budget checkpoint
at exactly the same points.  ``tests/test_codegen.py`` pins that per rule
against ``match_body``; ``tests/test_reference.py`` pins whole fixpoints
against the interpreted reference evaluator
(:func:`repro.engine.reference.reference_model`).  See
``docs/ARCHITECTURE.md``, "The rule-kernel compiler".
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from ..obs import get_metrics
from .codegen import generate
from .matching import CompiledRule, _record

__all__ = [
    "RuleKernel",
    "compile_kernel",
]


class RuleKernel(NamedTuple):
    """A rule with the code generated from its shape.

    Attributes:
        compiled: the source compiled rule (diagnostics, oracle runs).
        head_predicate: relation the head tuples belong to.
        shape: ``compiled.shape``, ``(prelude, levels, head)`` — the key
            *source* was rendered from (see
            :class:`~repro.engine.matching.CompiledRule`).
        run: the generated executor, ``run(view, stats, checkpoint)``
            returning the iterator of head tuples.  Charging contract
            (identical to :func:`~repro.engine.matching.match_body`): one
            ``stats.attempts`` per probed row and per test evaluation,
            one ``checkpoint.poll()`` per probed row; the caller charges
            ``stats.inferences`` per yielded head tuple.  *view* must
            honour the :data:`~repro.engine.matching.RelationView`
            contract: each body position is resolved once, before the
            first row.
        source: the Python text *run* was compiled from (shared by every
            kernel of the same shape).
        arguments: the predicate names and constants bound to the
            ``A0, A1, ...`` of *source* — they are never part of its text.
    """

    compiled: CompiledRule
    head_predicate: str
    shape: tuple
    run: Callable[..., Iterator[tuple]]
    source: str
    arguments: tuple


def compile_kernel(compiled: CompiledRule) -> RuleKernel:
    """The kernel of *compiled*: its shape's generated function, bound
    to its arguments.

    The body order is taken as-is (the planner already ran, if any);
    :func:`~repro.engine.matching.compile_rule_ordered` already lowered
    it, so this is one shape-memo probe and one factory call.
    """
    shape = compiled.shape
    arguments = compiled.arguments
    run, source, fresh = generate(shape, arguments)
    obs = get_metrics()
    if obs.enabled:
        obs.incr("kernel.rules_compiled")
        obs.incr("kernel.shapes_compiled" if fresh else "kernel.shape_cache_hits")
        # One slot per variable, written where it is first bound.
        obs.observe("kernel.slots", sum([len(level[3]) for level in shape[1]]))
    return _record(RuleKernel, (compiled, compiled.head_predicate, shape, run, source, arguments))
