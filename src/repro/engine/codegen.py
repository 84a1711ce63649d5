"""Generated rule kernels: kernel shape -> Python source -> shape memo.

:func:`generate` turns a rule's kernel *shape*, the slot form
:func:`repro.engine.matching.compile_rule_ordered` lowers it to (``prelude``
/ ``levels`` / ``head``, with names and constants taken out), into one Python
generator function: a ``for`` loop per scan level, slots as locals,
writes, checks, tests and the head tuple inlined.  Each body position's
relation is resolved through the :data:`~repro.engine.matching.RelationView`
once per execution, and a one-column probe — the join shape that
dominates rule bodies — runs without a call into the relation class when
the relation offers ``probe_plan`` (:class:`~repro.facts.relation.Relation`:
a snapshot of the posting; :class:`~repro.facts.relation.StampedView`: the
posting filtered by stamp).  A literal with every column bound is a
membership probe, ``key in relation``: it can match one row at most.
Everything else goes through ``lookup(dict)``.

Source is rendered from the rule's *shape* alone — body positions,
columns and slot numbers.  Predicate names and constants never reach the
text: they are the arguments ``A0, A1, ...`` of a generated factory.
Factories are memoised by shape for the life of the process, so a rule
of a known shape costs one dict probe and one factory call, and rule
text cannot choose what is compiled.
"""

from __future__ import annotations

import linecache
import threading
from functools import partial
from itertools import count

from ..datalog.builtins import evaluate_builtin

__all__ = ["generate", "shape_count"]


def _no_rows(bound=None) -> tuple:
    return ()


def _scan_of(relation):
    """A zero-argument full scan: the relation's cached snapshot where it
    keeps one, ``lookup({})`` otherwise, nothing when absent."""
    if relation is None:
        return _no_rows
    scan = getattr(relation, "scan", None)
    return scan if scan is not None else partial(relation.lookup, {})


def _lookup_of(relation):
    return _no_rows if relation is None else relation.lookup


def _members_of(relation):
    """What a membership probe tests ``key in``: nothing when absent."""
    return () if relation is None else relation


def _probe_of(relation, column: int) -> tuple:
    """``(posting getter, stamp getter, cutoff, lookup)``: the relation's
    ``probe_plan`` when it has one (*lookup* is then ``None``)."""
    plan = getattr(relation, "probe_plan", None)
    if plan is None:
        return None, None, 0, _lookup_of(relation)
    return (*plan(column), None)


# The names generated source may use besides its own locals and arguments.
_RUNTIME = {"scan_of": _scan_of, "lookup_of": _lookup_of, "probe_of": _probe_of,
            "members_of": _members_of, "evaluate_builtin": evaluate_builtin}

_shapes: dict[tuple, tuple] = {}  # shape -> (factory, source); append-only
_shapes_lock = threading.Lock()


def shape_count() -> int:
    """Number of distinct kernel shapes compiled by this process."""
    return len(_shapes)


def _render(shape: tuple) -> str:
    """The source of ``factory(A0, ...) -> kernel(view, stats,
    checkpoint)`` for *shape*.  Charging contract, as the interpreted
    matcher: one ``stats.attempts`` per probed row and per test, one
    ``poll()`` per probed row, in that order."""
    prelude, levels, head = shape
    numbers = count()
    setup: list[str] = []  # once per execution
    body: list[str] = []  # the loop nest

    def arg() -> str:
        return f"A{next(numbers)}"

    def row_of(template) -> str:
        items = [arg() if slot is None else f"s{slot}" for slot in template]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"

    def emit_test(test, pad: str, fail: str) -> None:
        position, builtin, positive, template = test
        predicate = arg()
        body.append(f"{pad}stats.attempts += 1")
        if builtin:
            holds = f"evaluate_builtin({predicate}, {row_of(template)})"
            body.append(f"{pad}if {'not ' if positive else ''}{holds}: {fail}")
        else:
            setup.append(f"n{position} = view({position}, {predicate})")
            body.append(
                f"{pad}if n{position} is not None and "
                f"{row_of(template)} in n{position}: {fail}"
            )

    for test in prelude:
        emit_test(test, "", "return")
    pad = ""
    fail = "return"  # a failed check: "continue" inside a loop, "return" outside
    tails: list[str] = []
    for i, (position, consts, bound, writes, checks, tests) in enumerate(levels):
        if i and i % 16 == 0:
            # CPython caps a function at 20 statically nested blocks:
            # deeper levels continue in a nested generator function.
            body.append(f"{pad}def tail{i}():")
            tails.append(f"{pad}yield from tail{i}()")
            pad += "    "
            fail = "return"
        relation = f"view({position}, {arg()})"
        # Constants first, then bound variables in binder order: the
        # key order lookup() breaks cheapest-posting ties by.
        keys = [(column, arg()) for column in consts]
        keys += [(column, f"s{slot}") for column, slot in bound]
        if keys and not writes and not checks:
            # Every column bound: at most one row, and it is the key.
            # No loop, so a miss leaves like a failed test.
            setup.append(f"m{i} = members_of({relation})")
            key = "(" + ", ".join(value for _, value in sorted(keys))
            body += [
                f"{pad}if {key}{',' if len(keys) == 1 else ''}) not in m{i}: {fail}",
                f"{pad}stats.attempts += 1",
                f"{pad}if poll is not None: poll()",
            ]
            for test in tests:
                emit_test(test, pad, fail)
            continue
        if not keys:
            setup.append(f"scan{i} = scan_of({relation})")
            rows = f"scan{i}()"
        elif len(keys) == 1:
            (column, value), = keys
            setup.append(
                f"get{i}, stamp{i}, cut{i}, look{i} = probe_of({relation}, {column})"
            )
            body += [
                f"{pad}if look{i} is not None:",
                f"{pad}    rows{i} = look{i}({{{column}: {value}}})",
                f"{pad}elif stamp{i} is None:",
                f"{pad}    rows{i} = tuple(get{i}({value}, ()))",
                f"{pad}else:",
                f"{pad}    rows{i} = [r for r in get{i}({value}, ()) "
                f"if stamp{i}(r, 0) < cut{i}]",
            ]
            rows = f"rows{i}"
        else:
            setup.append(f"look{i} = lookup_of({relation})")
            probe = ", ".join(f"{column}: {value}" for column, value in keys)
            rows = f"look{i}({{{probe}}})"
        body.append(f"{pad}for row{i} in {rows}:")
        pad += "    "
        fail = "continue"
        body.append(f"{pad}stats.attempts += 1")
        body.append(f"{pad}if poll is not None: poll()")
        body += [f"{pad}s{slot} = row{i}[{column}]" for column, slot in writes]
        body += [
            f"{pad}if s{slot} != row{i}[{column}]: continue"
            for column, slot in checks
        ]
        for test in tests:
            emit_test(test, pad, "continue")
    body.append(f"{pad}yield {row_of(head)}")
    body += reversed(tails)
    params = [f"A{n}" for n in range(next(numbers))]
    lines = [f"def factory({', '.join(params)}):"]
    lines.append("    def kernel(view, stats, checkpoint):")
    lines.append("        poll = None if checkpoint is None else checkpoint.poll")
    lines += ["        " + line for line in setup + body]
    lines.append("    return kernel")
    return "\n".join(lines) + "\n"


def generate(shape: tuple, args: tuple) -> tuple:
    """``(run, source, compiled)`` for one kernel's *shape* and the
    values *args* of its ``A0, A1, ...`` (both from
    :func:`repro.engine.matching.compile_rule_ordered`).

    *run* is ``run(view, stats, checkpoint) -> iterator of head tuples``,
    *source* its text (one per shape, in :mod:`linecache` so tracebacks
    show the generated line); *compiled* is true when this call had to
    render and compile the shape.
    """
    entry = _shapes.get(shape)
    compiled = False
    if entry is None:
        with _shapes_lock:
            entry = _shapes.get(shape)
            if entry is None:
                source = _render(shape)
                filename = f"<repro-kernel {len(_shapes)}>"
                namespace = dict(_RUNTIME)
                exec(compile(source, filename, "exec"), namespace)
                linecache.cache[filename] = (
                    len(source), None, source.splitlines(True), filename
                )
                entry = _shapes[shape] = (namespace["factory"], source)
                compiled = True
    factory, source = entry
    return factory(*args), source, compiled
