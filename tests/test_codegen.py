"""Tests for the kernel code generator (repro.engine.codegen).

The generated function is an executor swap under the interpreted
matcher's contract, so most of this file is differential, per rule:
rows, order, ``attempts`` and budget-trip points must equal
``match_body``'s.  Whole fixpoints are checked against the reference
evaluator in ``tests/test_reference.py``.  The
rest pins what is particular to generating code: no rule text reaches
the source, the shape memo stays bounded, views are resolved once per
execution, and the source stays reachable for debugging.
"""

from __future__ import annotations

import re
import sys
import threading
import traceback
from collections import Counter, OrderedDict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.kernel as kernel_module
from repro import Engine
from repro.cli import main as cli_main
from repro.core.prepare import prepare_query
from repro.core.snapshot import dump_prepared, load_prepared
from repro.datalog.atoms import Atom, Literal
from repro.datalog.builtins import is_builtin
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable
from repro.engine import codegen
from repro.engine.budget import EvaluationBudget, ensure_checkpoint
from repro.engine.counters import EvaluationStats
from repro.engine.incremental import IncrementalEngine
from repro.engine.kernel import compile_kernel
from repro.engine.maintain import SubtractView
from repro.engine.matching import compile_rule, match_body
from repro.engine.naive import naive_fixpoint
from repro.engine.prepared import _ProbeRecorder
from repro.engine.reference import reference_model
from repro.engine.seminaive import seminaive_fixpoint
from repro.engine.wellfounded import alternating_fixpoint
from repro.errors import BudgetExceededError, EvaluationError, ReproError
from repro.facts.database import Database
from repro.obs import collect
from repro.serve import QueryService
from repro.workloads import programs as scenarios

from .test_reference import SEEDS, _facts, random_source

# Everything generated source may consist of: identifiers, digits, and
# the punctuation of the templates.  No quotes, no '#', no ';', no '\'.
SOURCE_ALPHABET = re.compile(r"[A-Za-z0-9_ \n(),.:=+<!\[\]{}]*")


def _kernels(program: Program):
    return [compile_kernel(compile_rule(rule)) for rule in program.proper_rules]


# --- no user text in generated source -----------------------------------------

HOSTILE = '"); __import__("os").system("x") #'


def _hostile_twin(program: Program) -> tuple[Program, dict]:
    """*program* with every predicate and constant replaced by text that
    would break out of a string literal or a call if it were ever pasted
    into source.  Built through the AST: the parser admits no quoted
    predicate names, the library API does."""
    names: dict = {}

    def rename(value, kind: str):
        return names.setdefault((kind, value), f"{HOSTILE}{kind}{len(names)}\n\\")

    def atom(source: Atom) -> Atom:
        predicate = source.predicate
        if not is_builtin(predicate):
            predicate = rename(predicate, "p")
        return Atom(predicate, tuple(
            Constant(rename(arg.value, "c")) if isinstance(arg, Constant) else arg
            for arg in source.args
        ))

    rules = tuple(
        Rule(atom(rule.head), tuple(
            Literal(atom(literal.atom), literal.positive) for literal in rule.body
        ))
        for rule in program.rules
    )
    return Program(rules), names


class TestNoUserText:
    SOURCE = """
        edge(a, b). edge(b, c). edge(c, d). marked(c).
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- edge(X, Z), reach(Z, Y).
        hit(X, yes) :- reach(a, X), not marked(X), X != b.
        flag(on) :- not marked(a).
    """

    def test_names_and_constants_are_arguments_not_text(self):
        plain = parse_program(self.SOURCE)
        hostile, names = _hostile_twin(plain)
        for ours, theirs in zip(_kernels(plain), _kernels(hostile)):
            assert ours.run.__code__ is theirs.run.__code__
            assert ours.source is theirs.source
            assert SOURCE_ALPHABET.fullmatch(theirs.source), theirs.source
        plain_db, plain_stats = seminaive_fixpoint(plain)
        hostile_db, hostile_stats = seminaive_fixpoint(hostile)
        assert plain_stats.as_dict() == hostile_stats.as_dict()
        expected = {
            names[("p", predicate)]: frozenset(
                tuple(names[("c", value)] for value in row) for row in rows
            )
            for predicate, rows in _facts(plain_db).items()
        }
        assert _facts(hostile_db) == expected
        assert expected[names[("p", "hit")]] == {
            (names[("c", "d")], names[("c", "yes")])
        }

    def test_parsed_hostile_constant_round_trips(self):
        quoted = HOSTILE.replace("\\", "\\\\").replace('"', '\\"')
        engine = Engine.from_source(
            f'owner(root, "{quoted}").\n'
            f'leak(X) :- owner(X, "{quoted}").\n'
        )
        assert [str(a) for a in engine.query("leak(X)?").answers] == ["leak(root)"]
        (kernel,) = _kernels(engine.program)
        assert SOURCE_ALPHABET.fullmatch(kernel.source)

    def test_shape_memo_is_bounded_and_stops_growing(self):
        before = codegen.shape_count()
        suite = [
            scenarios.ancestor(n=12),
            scenarios.ancestor(variant="left", n=12),
            scenarios.ancestor(variant="double", n=12),
            scenarios.nonlinear_tc(graph="cycle", n=8),
            scenarios.same_generation(depth=3),
            scenarios.unreachable(),
            scenarios.bill_of_materials(depth=3),
            scenarios.bounded_reachability(),
            scenarios.win_game(),
        ]
        for scenario in suite:
            engine = Engine(scenario.program, scenario.database)
            for strategy in ("seminaive", "magic", "supplementary", "alexander"):
                try:
                    engine.query(scenario.query(), strategy)
                except ReproError:
                    pass  # win_game is not stratified: only some strategies apply
        service = QueryService()
        chain = "".join(f"edge({i}, {i + 1}).\n" for i in range(240))
        service.load("g", "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\n" + chain)

        def serve(start: int, stop: int) -> None:
            for node in range(start, stop):
                # A fresh constant per request; "magic" on odd ones so
                # both the cached shape and fresh prepares are exercised.
                strategy = "magic" if node % 2 else "alexander"
                reply = service.query("g", f"tc({node}, X)?", strategy=strategy)
                assert reply["answers"]["count"] == 240 - node

        serve(0, 20)
        settled = codegen.shape_count()
        serve(20, 220)
        assert codegen.shape_count() == settled < before + 64


# --- nothing process-wide is keyed on content ------------------------------------

def _tagged_rulebase(tag: str, recursion: int) -> tuple[str, str]:
    """A two-stratum rule base (recursion, negation, a built-in, string
    and integer constants) whose every predicate name and constant
    carries *tag*; *recursion* picks right-linear, left-linear or
    non-linear.  Returns ``(source, goal)``."""
    e, a, b, top = (f"{name}_{tag}" for name in ("e", "a", "b", "top"))
    recursive = (
        f"{e}(X, Z), {a}(Z, Y)", f"{a}(X, Z), {e}(Z, Y)", f"{a}(X, Z), {a}(Z, Y)"
    )[recursion % 3]
    nodes = [f"n{tag}x{k}" for k in range(5)] + [f'"N {tag}"', str(7000 + int(tag))]
    lines = [
        f"{a}(X, Y) :- {e}(X, Y).",
        f"{a}(X, Y) :- {recursive}.",
        f"{b}(X, Y) :- {a}(X, Y), not {e}(X, Y), X != {nodes[-1]}.",
        f"{top}(X, Y) :- {b}(X, Y).",
        f"{top}(X, Y) :- {e}(X, Z), {top}(Z, Y).",
        f"{top}({nodes[0]}, Y) :- {e}(Y, {nodes[-2]}).",
    ]
    lines += [f"{e}({x}, {y})." for x, y in zip(nodes, nodes[1:])]
    return "\n".join(lines) + "\n", f"{top}({nodes[0]}, Y)?"


def _process_wide_sizes() -> dict:
    """``len`` of every container (and every ``lru_cache``) bound at
    module or class level anywhere in the ``repro`` package."""
    sizes = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        scopes = [(module_name, vars(module))]
        scopes += [
            (f"{module_name}.{name}", vars(value))
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module_name
        ]
        for scope, namespace in scopes:
            for name, value in namespace.items():
                if isinstance(value, (dict, list, set, OrderedDict, deque)):
                    sizes[scope, name] = len(value)
                elif hasattr(value, "cache_info"):
                    sizes[scope, name] = value.cache_info().currsize
    return sizes


def test_nothing_process_wide_is_keyed_on_content():
    # A never-seen rule base must cost what a repeated one costs: no
    # module-level state may remember source text, programs, rules,
    # predicate names or constants.  Only the kernel *shape* memo may
    # grow, and only by the number of distinct shapes.
    def lower(tags) -> int:
        answers = 0
        for tag in tags:
            source, goal = _tagged_rulebase(str(tag), tag)
            answers += len(Engine.from_source(source).query(goal).answers)
        return answers

    before = _process_wide_sizes()
    with collect() as metrics:
        assert lower(range(50)) == 50 * 5
    first = _process_wide_sizes()
    grown = {key for key, size in first.items() if size > before.get(key, 0)}
    assert grown <= {("repro.engine.codegen", "_shapes")}
    kernels = metrics.snapshot()["counters"]["kernel.rules_compiled"]
    shapes = first["repro.engine.codegen", "_shapes"] - before["repro.engine.codegen", "_shapes"]
    assert shapes <= 16 and kernels >= 50 * 10
    # The same three structures under 50 fresh vocabularies: nothing grows.
    assert lower(range(50, 100)) == 50 * 5
    assert _process_wide_sizes() == first


# --- the RelationView contract --------------------------------------------------

@pytest.fixture
def recorded_views(monkeypatch):
    """Route every kernel compiled from here on through a view recorder.

    Per kernel execution the recorder asserts the contract the generated
    code relies on: each relation-reading body position is resolved
    exactly once, and asking again returns the very same object."""
    executions = Counter()
    generate = kernel_module.generate

    def recording_generate(shape, args):
        run, source, fresh = generate(shape, args)
        before, levels, _ = shape
        expected = {test[0]: 1 for test in before if not test[1]}
        for level in levels:
            expected[level[0]] = 1
            expected.update((test[0], 1) for test in level[-1] if not test[1])

        def recording_run(view, stats, checkpoint):
            calls = Counter()

            def recorder(position, predicate):
                calls[position] += 1
                first = view(position, predicate)
                assert view(position, predicate) is first
                return first

            yield from run(recorder, stats, checkpoint)
            assert calls == expected, (source, calls)
            executions[source] += 1

        return recording_run, source, fresh

    monkeypatch.setattr(kernel_module, "generate", recording_generate)
    return executions


class TestViewContract:
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_fixpoint_engines_resolve_each_position_once(self, recorded_views, seed):
        program = parse_program(random_source(seed))
        expected = _facts(reference_model(program).model)
        for fixpoint in (seminaive_fixpoint, naive_fixpoint):
            recorded, _ = fixpoint(program)
            assert _facts(recorded) == expected
        assert recorded_views

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_wellfounded_and_prepared(self, recorded_views, seed):
        program = parse_program(random_source(seed))
        model = alternating_fixpoint(program)
        assert _facts(model.true) == _facts(reference_model(program).model)
        prepared = prepare_query(program, "p0(c0, Y)?", strategy="alexander")
        expected = Engine(program).query("p0(c0, Y)?", "seminaive").answers
        assert prepared.execute("p0(c0, Y)?").answers == expected
        assert recorded_views

    @pytest.mark.parametrize("maintenance", ("dred",))
    def test_maintenance_views_and_deletion_work(self, recorded_views, maintenance):
        source = (
            "path(X,Y) :- edge(X,Y).\n"
            "path(X,Z) :- path(X,Y), edge(Y,Z).\n"
            + "".join(f"edge({i}, {i + 1}).\n" for i in range(12))
        )
        program = parse_program(source)
        engine = IncrementalEngine(program, maintenance=maintenance)
        engine.add("edge(12, 13)")
        engine.remove("edge(5, 6)")
        # The deletion leaves what a recompute from the surviving facts
        # derives.
        survivors = parse_program(
            source.replace("edge(5, 6).\n", "") + "edge(12, 13).\n"
        )
        assert _facts(engine.database) == _facts(reference_model(survivors).model)
        assert recorded_views



# --- differential coverage of the generator -------------------------------------

ARITIES = {"u": 1, "e": 2, "f": 2, "t": 3}
VALUES = (0, 1, 2, "a", "b")
VARIABLES = tuple(Variable(name) for name in "XYZW")
KINDS = ("relation", "stamped")

constants = st.sampled_from(VALUES).map(Constant)


@st.composite
def rules(draw) -> Rule:
    """One safe rule: 0-4 scan levels, any mix of constants and (repeated)
    variables, negative and built-in tests over bound variables or
    constants only (so ground tests occur too), any head."""
    body: list[Literal] = []
    bound: list[Variable] = []
    for _ in range(draw(st.integers(0, 4))):
        predicate = draw(st.sampled_from(sorted(ARITIES)))
        args = tuple(
            draw(st.one_of(st.sampled_from(VARIABLES), constants))
            for _ in range(ARITIES[predicate])
        )
        body.append(Literal(Atom(predicate, args)))
        bound.extend(arg for arg in args if isinstance(arg, Variable))
    terms = st.one_of(st.sampled_from(bound), constants) if bound else constants
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            predicate = draw(st.sampled_from(sorted(ARITIES)))
            args = tuple(draw(terms) for _ in range(ARITIES[predicate]))
            body.append(Literal(Atom(predicate, args), positive=False))
        else:
            predicate = draw(st.sampled_from(("lt", "leq", "eq", "neq")))
            body.append(
                Literal(Atom(predicate, (draw(terms), draw(terms))), draw(st.booleans()))
            )
    head = tuple(draw(terms) for _ in range(draw(st.integers(0, 3))))
    return Rule(Atom("h", head), tuple(draw(st.permutations(body))))


@st.composite
def relation_rows(draw) -> dict:
    """Per predicate, three chunks of rows (inserted at rounds 0, 1, 2)."""
    return {
        predicate: draw(st.lists(
            st.tuples(*[st.sampled_from(VALUES)] * arity), max_size=9, unique=True
        ))
        for predicate, arity in ARITIES.items()
    }


def _fill(database: Database, rows: dict) -> None:
    for predicate, arity in ARITIES.items():
        relation = database.relation(predicate, arity)
        for index, row in enumerate(rows[predicate]):
            relation.mark_round(index * 3 // max(len(rows[predicate]), 1))
            relation.add(row)


def _outcome(rows_iter, stats):
    rows = []
    try:
        for row in rows_iter:
            rows.append(row)
        error = None
    except EvaluationError as exc:
        error = str(exc)
    return rows, stats.attempts, error


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=120, deadline=None)
@given(rule=rules(), rows=relation_rows(), absent=st.frozensets(st.integers(0, 6)))
def test_generated_kernel_matches_interpreted(kind, rule, rows, absent):
    compiled = compile_rule(rule)
    database = Database()
    _fill(database, rows)
    old = kind == "stamped"

    def make_view(source: Database, calls: "Counter | None" = None):
        def view(position, predicate):
            if calls is not None:
                calls[position] += 1
            if position in absent:
                return None
            relation = source.relation(predicate)
            return relation.rows_before(2) if old else relation

        return view

    oracle_stats = EvaluationStats()
    head_tuple = compiled.head_tuple
    expected = _outcome(
        (head_tuple(b) for b in match_body(compiled, make_view(database), oracle_stats)),
        oracle_stats,
    )

    kernel = compile_kernel(compiled)
    calls = Counter()
    stats = EvaluationStats()
    got = _outcome(kernel.run(make_view(database, calls), stats, None), stats)
    assert got == expected, kernel.source
    assert calls == {
        position: 1
        for position, literal in enumerate(compiled.body)
        if not literal.builtin
    }


# --- membership probes ------------------------------------------------------------

# f(Y, X), u(1) and u(Y) have every column bound where they are probed;
# g's u(1) is bound before any scan.
MEMBERSHIP = parse_program(
    "h(X, Y) :- e(X, Y), f(Y, X), u(1).\n"
    "h(X, Y) :- e(X, Z), e(Z, Y), u(Y), X != Y.\n"
    "g(X) :- u(1), e(X, X).\n"
)
MEMBERSHIP_ROWS = {
    "e": [(0, 1), (1, 2), (2, 0), (1, 1), (2, 2), (0, 2)],
    "f": [(1, 0), (0, 2), (2, 1), (1, 1)],
    "u": [(1,), (2,), (0,)],
}
MEMBER_KINDS = ("relation", "stamped", "subtract", "recorder")


def _membership_view(database: Database, kind: str, recorders: dict):
    """Each relation as *kind* presents it; ``recorder`` puts a
    :class:`_ProbeRecorder` at every fully bound occurrence."""
    def view(position, predicate):
        relation = database.relation(predicate)
        if kind == "stamped":
            return relation.rows_before(2)
        if kind == "subtract":
            return SubtractView(relation, {MEMBERSHIP_ROWS[predicate][0]})
        if kind == "recorder" and (position, predicate) in recorders:
            return recorders[position, predicate]
        return relation

    return view


def _membership_run(rule, kind: str, interpreted: bool, limit: "int | None"):
    """Rows, attempts and trip message of one execution — of the kernel,
    or of ``match_body`` when *interpreted* — and the keys each recorder
    saw."""
    database = Database()
    for predicate, rows in MEMBERSHIP_ROWS.items():
        relation = database.relation(predicate, len(rows[0]))
        for index, row in enumerate(rows):
            relation.mark_round(index * 3 // len(rows))
            relation.add(row)
    compiled = compile_rule(rule)
    kernel = compile_kernel(compiled)
    # A level with no writes and no checks is a membership probe.
    probed = [
        (position, compiled.body[position].predicate)
        for position, _, _, writes, checks, _ in kernel.shape[1]
        if not writes and not checks
    ]
    recorders = {
        where: _ProbeRecorder(database.relation(where[1]).arity) for where in probed
    }
    stats = EvaluationStats()
    checkpoint = ensure_checkpoint(
        None if limit is None else EvaluationBudget(max_attempts=limit), stats
    )
    view = _membership_view(database, kind, recorders)
    if interpreted:
        rows = (
            compiled.head_tuple(binding)
            for binding in match_body(compiled, view, stats, checkpoint=checkpoint)
        )
    else:
        rows = kernel.run(view, stats, checkpoint)
    outcome = _outcome(rows, stats)
    keys = {where: (r.columns, r.keys) for where, r in recorders.items() if r.keys}
    return outcome, keys


@pytest.mark.parametrize("kind", MEMBER_KINDS)
def test_membership_probes_match_the_interpreter(kind, monkeypatch):
    monkeypatch.setattr("repro.engine.budget.POLL_STRIDE", 1)
    for rule in MEMBERSHIP.proper_rules:
        source = compile_kernel(compile_rule(rule)).source
        assert " not in m" in source, source
        full, keys = _membership_run(rule, kind, False, None)
        assert (full, keys) == _membership_run(rule, kind, True, None)
        assert (kind == "recorder") == bool(keys)
        # Every attempt is a possible trip point at stride 1.
        for limit in range(1, full[1] + 2):
            assert _membership_run(rule, kind, False, limit) == _membership_run(
                rule, kind, True, limit
            ), (str(rule), limit)


def test_membership_probes_keep_footprint_keys():
    """A fully bound base literal records the keys a ``lookup`` of all its
    columns recorded: one tuple per probe over every column, one raw
    value for a one-column relation."""
    program = parse_program(
        "t(X, Y) :- q(X, Y), r(Y, X), u(1).\n"
        "t(X, Y) :- q(X, Z), t(Z, Y), u(Y).\n"
        "q(1, 2). q(1, 3). q(2, 3). q(3, 4). r(2, 1). r(3, 1). r(4, 3). u(1). u(4).\n"
    )
    expected = {
        ("q", (0,)): frozenset({1, 2, 3, 4}),
        ("r", (0, 1)): frozenset({(2, 1), (3, 1), (3, 2), (4, 3)}),
        ("u", (0,)): frozenset({1, 4}),
    }
    prepared = prepare_query(program, "t(1, Y)?")
    answers = prepared.execute("t(1, Y)?").answers
    assert [str(atom) for atom in answers] == ["t(1, 2)", "t(1, 3)", "t(1, 4)"]
    (_, _, _, footprint) = prepared.table.get(prepared.table.key(parse_query("t(1, Y)?")))
    assert footprint == expected


def test_bodies_deeper_than_the_block_nesting_limit():
    """CPython refuses more than 20 statically nested blocks in one
    function; a 40-literal body must still compile and agree."""
    hops = 40
    body = ", ".join(f"e(X{i}, X{i + 1})" for i in range(hops))
    source = f"far(X0, X{hops}) :- {body}, X0 != X{hops}.\n" + "".join(
        f"e({i}, {i + 1}).\n" for i in range(hops + 3)
    )
    program = parse_program(source)
    (kernel,) = _kernels(program)
    assert "yield from tail16()" in kernel.source and "tail32" in kernel.source
    database, stats = seminaive_fixpoint(program)
    reference = reference_model(program)
    assert _facts(database) == _facts(reference.model)
    assert stats.inferences == reference.inferences
    assert _facts(database)["far"] == {(0, 40), (1, 41), (2, 42), (3, 43)}


def test_incomparable_builtin_raises_the_interpreter_message():
    program = parse_program('e(1, "x"). p(X) :- e(X, Y), X < Y.')
    messages = []
    with pytest.raises(EvaluationError) as caught:
        seminaive_fixpoint(program)
    messages.append(str(caught.value))
    with pytest.raises(EvaluationError) as caught:
        reference_model(program)
    messages.append(str(caught.value))
    assert messages[0] == messages[1] and "cannot order" in messages[0]


# --- budgets ----------------------------------------------------------------------

class TestBudgetSweep:
    SOURCE = (
        "tc(X,Y) :- edge(X,Y).\n"
        "tc(X,Y) :- tc(X,Z), tc(Z,Y).\n"
        + "".join(f"edge({i}, {i + 1}).\n" for i in range(9))
    )

    @staticmethod
    def _trip(run, limit: int):
        try:
            run(EvaluationBudget(max_attempts=limit))
        except BudgetExceededError as error:
            partial = None if error.partial is None else _facts(error.partial)
            return error.limit, str(error), error.stats.as_dict(), partial
        return "completed"

    @staticmethod
    def _rule_run(compiled, view, limit: int, interpreted: bool):
        """Rows, attempts and trip message of one rule under *limit*."""
        stats = EvaluationStats()
        checkpoint = ensure_checkpoint(EvaluationBudget(max_attempts=limit), stats)
        if interpreted:
            rows = (
                compiled.head_tuple(binding)
                for binding in match_body(compiled, view, stats, checkpoint=checkpoint)
            )
        else:
            rows = compile_kernel(compiled).run(view, stats, checkpoint)
        return _outcome(rows, stats)

    def test_every_attempt_limit_trips_where_the_interpreter_trips(self, monkeypatch):
        # Stride 1 makes every probed row a possible trip point, so the
        # sweep covers mid-loop trips at each level of each kernel.
        monkeypatch.setattr("repro.engine.budget.POLL_STRIDE", 1)
        program = parse_program(self.SOURCE)
        model, full = seminaive_fixpoint(program)
        assert 100 < full.attempts < 2000
        prepared = prepare_query(program, "tc(0, Y)?", strategy="alexander")
        answers = prepared.execute("tc(0, Y)?").answers
        assert len(answers) == 9
        rewritten, _ = seminaive_fixpoint(
            prepared.transformed.evaluation_program(), prepared.base
        )
        # Per rule, over the final model: the kernel trips at the attempt
        # match_body trips at, with the same rows and message.
        for rule in prepared.transformed.program.proper_rules + program.proper_rules:
            compiled = compile_rule(rule)
            completed = model if rule in program.proper_rules else rewritten

            def view(_, name, completed=completed):
                return completed.relation(name) if name in completed else None

            attempts = self._rule_run(compiled, view, 10**9, False)[1]
            for limit in range(1, attempts + 2):
                assert self._rule_run(compiled, view, limit, False) == self._rule_run(
                    compiled, view, limit, True
                ), (str(rule), limit)
        tripped = 0
        for limit in range(1, full.attempts + 1):
            outcome = self._trip(
                lambda budget: seminaive_fixpoint(program, budget=budget), limit
            )
            if outcome != "completed":
                for name, rows in (outcome[3] or {}).items():
                    assert rows <= _facts(model).get(name, frozenset()), limit
            served = self._trip(
                lambda budget: prepared.execute("tc(0, Y)?", budget=budget), limit
            )
            tripped += served != "completed"
            # A kernel abandoned mid-loop leaves nothing behind.
            assert prepared.execute("tc(0, Y)?").answers == answers
        assert tripped > 50


# --- threads ----------------------------------------------------------------------

def test_concurrent_prepares_share_one_code_object_per_shape():
    # Shapes no other test compiles (five-column heads with a constant
    # at a thread-independent position), prepared by 8 threads at once.
    def source(tag: int) -> str:
        return (
            f"row{tag}(1, 2, 3). row{tag}(2, 3, 4). stop{tag}(4).\n"
            f"wide{tag}(A, k{tag}, B, C, A) :- row{tag}(A, B, C), not stop{tag}(A).\n"
            f"join{tag}(A, D, k{tag}, A, D) :- row{tag}(A, B, C), row{tag}(B, C, D).\n"
        )

    results: dict = {}
    barrier = threading.Barrier(8)

    def work(tag: int) -> None:
        program = parse_program(source(tag))
        barrier.wait(timeout=30)
        kernels = _kernels(program)
        database, _ = seminaive_fixpoint(program)
        results[tag] = ([k.run.__code__ for k in kernels], _facts(database))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(tag,)) for tag in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert sorted(results) == list(range(8))
    for tag, (codes, facts) in results.items():
        assert [id(code) for code in codes] == [id(code) for code in results[0][0]]
        assert facts[f"wide{tag}"] == {
            (1, f"k{tag}", 2, 3, 1), (2, f"k{tag}", 3, 4, 2)
        }
        assert facts[f"join{tag}"] == {(1, 4, f"k{tag}", 1, 4)}


# --- debuggability and observability -----------------------------------------------

class TestDebuggability:
    def test_traceback_shows_the_generated_line(self):
        program = parse_program('e(1, "x"). p(X) :- e(X, Y), X < Y.')
        (kernel,) = _kernels(program)
        database = Database()
        database.add_atoms(program.facts)
        with pytest.raises(EvaluationError) as caught:
            list(kernel.run(lambda _, name: database.relation(name), EvaluationStats(), None))
        frames = traceback.extract_tb(caught.value.__traceback__)
        (generated,) = [f for f in frames if f.filename.startswith("<repro-kernel ")]
        assert "evaluate_builtin(" in generated.line
        assert generated.line == kernel.source.splitlines()[generated.lineno - 1].strip()

    def test_shape_counters(self):
        program = parse_program("p(X, Y) :- e(X, Z), e(Z, Y), not e(Y, X).")
        compiled = compile_rule(program.proper_rules[0])
        with collect() as first:
            compile_kernel(compiled)
        with collect() as second:
            compile_kernel(compiled)
        counters = first.counters
        assert (
            counters.get("kernel.shapes_compiled", 0)
            + counters.get("kernel.shape_cache_hits", 0)
        ) == counters["kernel.rules_compiled"] == 1
        assert second.counters["kernel.shape_cache_hits"] == 1
        assert "kernel.shapes_compiled" not in second.counters

    def test_snapshot_stores_plans_and_reload_regenerates(self):
        program = parse_program(random_source(3))
        prepared = prepare_query(program, "p0(c0, Y)?", strategy="alexander")
        data = dump_prepared(prepared)
        assert b"def factory" not in data and b"stats.attempts" not in data
        with collect() as metrics:
            restored = load_prepared(data)
        assert metrics.counters["kernel.rules_compiled"] == (
            metrics.counters["kernel.shape_cache_hits"]
        )
        assert dump_prepared(restored) == data

        for ours, theirs in zip(prepared.fixpoint.kernels, restored.fixpoint.kernels):
            assert ours.run.__code__ is theirs.run.__code__
            assert ours.source == theirs.source
        goal = "p0(c1, Y)?"
        assert restored.execute(goal).answers == prepared.execute(goal).answers

    def test_explain_show_kernels(self, tmp_path, capsys):
        path = tmp_path / "anc.dl"
        path.write_text(
            "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), anc(Z,Y).\n"
            "par(a, b). par(b, c).\n"
        )
        assert cli_main(["explain", str(path), "anc(a, X)?", "--show-kernels"]) == 0
        out = capsys.readouterr().out
        assert "alexander" in out  # the comparison table is still printed
        assert "ans__anc__bf(X, Y) :- cont_1_1__anc__bf(X, Z), ans__anc__bf(Z, Y)." in out
        assert "plan: cont_1_1__anc__bf(X, Z), ans__anc__bf(Z, Y)" in out
        assert "A0 = 'cont_1_1__anc__bf'" in out
        assert "def kernel(view, stats, checkpoint):" in out
