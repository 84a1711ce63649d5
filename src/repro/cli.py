"""Command-line interface: parse a Datalog file, run queries, compare
strategies.

Usage examples::

    repro-datalog query program.dl "anc(a, X)?"
    repro-datalog query program.dl "anc(a, X)?" --strategy oldt --stats
    repro-datalog query rules.dl "anc(a, X)?" --facts data.dl
    repro-datalog explain program.dl "anc(a, X)?"
    repro-datalog explain program.dl "anc(a, X)?" --show-kernels
    repro-datalog check program.dl "anc(a, X)?"       # Alexander vs OLDT
    repro-datalog transform program.dl "anc(a, X)?" --kind alexander
    repro-datalog lint program.dl
    repro-datalog why program.dl "anc(a, c)"          # proof tree
    repro-datalog repl program.dl                     # interactive session
    repro-datalog serve --load db=program.dl          # HTTP query service
    repro-datalog update db --add "edge(a,b)." \\
        --remove "edge(b,c)."                         # incremental /update

(Equivalently ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import sys

from .analysis.safety import check_program_safety
from .analysis.stratify import is_stratifiable
from .core.compare import check_correspondence
from .core.engine import Engine
from .core.strategy import available_strategies
from .datalog.parser import parse_program, parse_query
from .datalog.pretty import format_bindings, format_program
from .engine.budget import EvaluationBudget
from .errors import REMOVED_SETTINGS, BudgetExceededError, ReproError
from .facts.io import load_facts, load_source
from .transform.alexander import alexander_templates
from .transform.magic import magic_sets
from .transform.supplementary import supplementary_magic_sets

__all__ = ["main", "build_parser"]


class _Removed(argparse.Action):
    """A removed setting's flag, in any form: an error naming what to do
    instead (:data:`repro.errors.REMOVED_SETTINGS`)."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(REMOVED_SETTINGS[self.dest])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-datalog",
        description=(
            "Datalog engines and the Alexander/magic transformation family "
            "(reproduction of Seki, PODS 1989)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_facts_option(subparser) -> None:
        subparser.add_argument(
            "--facts",
            action="append",
            default=[],
            metavar="FILE",
            help="additional facts file(s) to load (repeatable)",
        )

    def add_budget_options(subparser) -> None:
        subparser.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="abort evaluation after this much wall-clock time",
        )
        subparser.add_argument(
            "--max-facts",
            type=int,
            default=None,
            metavar="N",
            help="abort after deriving N facts",
        )
        subparser.add_argument(
            "--max-iterations",
            type=int,
            default=None,
            metavar="N",
            help="abort after N fixpoint rounds",
        )
        subparser.add_argument(
            "--max-attempts",
            type=int,
            default=None,
            metavar="N",
            help="abort after N match attempts",
        )

    query = commands.add_parser("query", help="evaluate a query")
    query.add_argument("file", help="Datalog source file")
    query.add_argument("goal", help='query atom, e.g. "anc(a, X)?"')
    add_facts_option(query)
    query.add_argument(
        "--strategy",
        default="alexander",
        choices=available_strategies(),
        help="evaluation strategy (default: alexander)",
    )
    query.add_argument(
        "--sips",
        default=None,
        choices=("left_to_right", "most_bound_first"),
        help="SIPS for the transformation strategies",
    )
    for setting in REMOVED_SETTINGS:
        query.add_argument(
            f"--{setting}", nargs="?", action=_Removed, help=argparse.SUPPRESS
        )
    query.add_argument("--stats", action="store_true", help="print counters")
    query.add_argument(
        "--limit", type=int, default=None, help="print at most N answers"
    )
    add_budget_options(query)

    explain = commands.add_parser(
        "explain", help="run a query under every strategy and compare counts"
    )
    explain.add_argument("file")
    explain.add_argument("goal")
    explain.add_argument(
        "--show-kernels",
        action="store_true",
        help=(
            "also print, per rule of the Alexander-transformed program, "
            "the join order and the Python source its kernel runs"
        ),
    )
    add_facts_option(explain)
    add_budget_options(explain)

    check = commands.add_parser(
        "check", help="verify the Alexander/OLDT call-answer correspondence"
    )
    check.add_argument("file")
    check.add_argument("goal")
    add_facts_option(check)
    add_budget_options(check)

    transform = commands.add_parser(
        "transform", help="print the rewritten program for a query"
    )
    transform.add_argument("file")
    transform.add_argument("goal")
    transform.add_argument(
        "--kind",
        default="alexander",
        choices=("alexander", "magic", "supplementary"),
    )

    lint = commands.add_parser(
        "lint", help="report safety and stratification problems"
    )
    lint.add_argument("file")

    why = commands.add_parser(
        "why", help="print a proof tree for a ground goal"
    )
    why.add_argument("file")
    why.add_argument("goal", help='ground atom, e.g. "anc(a, c)"')
    add_facts_option(why)

    repl = commands.add_parser("repl", help="interactive session")
    repl.add_argument("file")
    add_facts_option(repl)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived HTTP query service (see docs/SERVING.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="bind port; 0 picks an ephemeral port (default: 8321)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="write the bound port here once serving (ephemeral-port discovery)",
    )
    serve.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="preload dataset NAME from a Datalog FILE (repeatable)",
    )
    serve.add_argument(
        "--max-cached",
        type=int,
        default=64,
        help="prepared-query cache capacity (default: 64)",
    )
    serve.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help=(
            "serve queries from N pre-forked worker processes sharing "
            "datasets over shared memory (default: 0 = in-process threads)"
        ),
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )

    update = commands.add_parser(
        "update",
        help=(
            "apply an incremental add/remove batch to a running service "
            "dataset (see docs/MAINTENANCE.md)"
        ),
    )
    update.add_argument("dataset", help="dataset name on the service")
    update.add_argument(
        "--add",
        action="append",
        default=[],
        metavar="FACT",
        help='ground fact to insert, e.g. "edge(a,b)." (repeatable)',
    )
    update.add_argument(
        "--remove",
        action="append",
        default=[],
        metavar="FACT",
        help="ground base fact to delete (repeatable)",
    )
    update.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="service base URL (default: http://127.0.0.1:8321)",
    )
    update.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request socket timeout (default: 30)",
    )
    return parser


def _budget_from_args(args) -> EvaluationBudget | None:
    """Build an :class:`EvaluationBudget` from the CLI flags, or None when
    no limit was requested (the zero-overhead fast path)."""
    limits = {
        "wall_clock_seconds": getattr(args, "timeout", None),
        "max_facts": getattr(args, "max_facts", None),
        "max_iterations": getattr(args, "max_iterations", None),
        "max_attempts": getattr(args, "max_attempts", None),
    }
    if all(value is None for value in limits.values()):
        return None
    return EvaluationBudget(**limits)


def _load(path: str, fact_files: list[str] | None = None) -> Engine:
    with open(path, "r", encoding="utf-8") as handle:
        program, database = load_source(handle.read())
    for fact_file in fact_files or []:
        load_facts(fact_file, into=database)
    # The engine checks the fact files' arities against the rules.
    return Engine(program, database, check_safety=False)


def _cmd_query(args) -> int:
    engine = _load(args.file, args.facts)
    goal = parse_query(args.goal)
    result = engine.query(
        goal,
        strategy=args.strategy,
        sips=args.sips,
        budget=_budget_from_args(args),
    )
    print(format_bindings(goal, result.answers, limit=args.limit))
    if args.stats:
        print(result.stats, file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    engine = _load(args.file, args.facts)
    goal = parse_query(args.goal)
    results = engine.explain(goal, budget=_budget_from_args(args))
    width = max(len(name) for name in results)
    header = (
        f"{'strategy':<{width}}  answers  inferences  attempts  facts  calls"
    )
    print(header)
    print("-" * len(header))
    for name, result in results.items():
        stats = result.stats
        print(
            f"{name:<{width}}  {len(result.answers):>7}  "
            f"{stats.inferences:>10}  {stats.attempts:>8}  "
            f"{stats.facts_derived:>5}  {stats.calls:>5}"
        )
    if args.show_kernels:
        _print_kernels(engine, goal)
    return 0


def _print_kernels(engine: Engine, goal) -> None:
    """What a prepared (served) *goal* executes: each transformed rule,
    its compiled body order, and the generated kernel with the values its
    factory arguments are bound to."""
    prepared = engine.prepare(goal)
    for kernel in prepared.fixpoint.kernels:
        compiled = kernel.compiled
        print(f"\n{compiled.rule}")
        print("  plan: " + ", ".join(str(literal.source) for literal in compiled.body))
        for number, value in enumerate(kernel.arguments):
            print(f"  A{number} = {value!r}")
        print(kernel.source, end="")


def _cmd_check(args) -> int:
    engine = _load(args.file, args.facts)
    goal = parse_query(args.goal)
    correspondence = check_correspondence(
        engine.program, goal, engine.database, budget=_budget_from_args(args)
    )
    print(correspondence.summary())
    return 0 if correspondence.exact else 1


def _cmd_transform(args) -> int:
    engine = _load(args.file)
    goal = parse_query(args.goal)
    transforms = {
        "alexander": alexander_templates,
        "magic": magic_sets,
        "supplementary": supplementary_magic_sets,
    }
    transformed = transforms[args.kind](engine.program, goal)
    print(f"% {args.kind} rewriting for {goal}")
    for seed in transformed.seeds:
        print(f"{seed}.")
    print(format_program(transformed.program, group_by_head=False))
    print(f"% goal: {transformed.goal}?")
    return 0


def _cmd_lint(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read())
    problems = 0
    for violation in check_program_safety(program):
        print(f"unsafe: {violation}")
        problems += 1
    if not is_stratifiable(program):
        print("not stratifiable: the program has a cycle through negation")
        problems += 1
    graph = program.dependency_graph
    for predicate in sorted(program.idb_predicates):
        kind = graph.recursion_kind(predicate)
        print(f"info: {predicate} is {kind}")
    if problems:
        print(f"{problems} problem(s) found")
        return 1
    print("ok")
    return 0


def _cmd_why(args) -> int:
    engine = _load(args.file, args.facts)
    try:
        text = engine.why(args.goal)
    except ValueError as exc:  # an open goal: a usage error, not "not derivable"
        raise ReproError(str(exc)) from None
    print(text)
    return 0 if "not derivable" not in text else 1


def _cmd_repl(args) -> int:
    from .repl import Repl

    engine = _load(args.file, args.facts)
    Repl(engine).run()
    return 0


def _cmd_serve(args) -> int:
    from .serve import PooledService, QueryService, create_server, run_server

    if args.processes and args.processes > 0:
        service = PooledService(
            processes=args.processes, max_cached=args.max_cached
        )
    else:
        service = QueryService(max_cached=args.max_cached)
    for spec in args.load:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ReproError(f"--load expects NAME=FILE, got {spec!r}")
        with open(path, "r", encoding="utf-8") as handle:
            info = service.load(name, handle.read())
        print(
            f"loaded dataset {info['name']!r}: {info['rules']} rules, "
            f"{info['facts']} facts",
            file=sys.stderr,
        )
    server = create_server(
        host=args.host,
        port=args.port,
        service=service,
        quiet=not args.verbose,
    )
    workers = (
        f", {args.processes} worker processes" if args.processes else ""
    )
    print(
        f"serving on http://{args.host}:{server.port} "
        f"(cache capacity {args.max_cached}{workers})",
        file=sys.stderr,
    )
    run_server(server, port_file=args.port_file)
    print("server stopped", file=sys.stderr)
    return 0


def _cmd_update(args) -> int:
    from .serve.client import ServeClient

    if not args.add and not args.remove:
        raise ReproError("update requires at least one --add or --remove")
    with ServeClient(args.url, timeout=args.timeout) as client:
        info = client.update(args.dataset, add=args.add, remove=args.remove)
    print(
        f"dataset {info['name']!r} now version {info['version']}: "
        f"+{info['added']} -{info['removed']} facts "
        f"({info['elapsed_ms']:.1f} ms)"
    )
    print(
        f"cache: {info['cache_entries_patched']} patched, "
        f"{info['cache_entries_kept']} kept, "
        f"{info['cache_entries_dropped']} dropped"
    )
    if info["affected_predicates"]:
        print(f"affected: {', '.join(info['affected_predicates'])}")
    return 0


_COMMANDS = {
    "query": _cmd_query,
    "explain": _cmd_explain,
    "check": _cmd_check,
    "transform": _cmd_transform,
    "lint": _cmd_lint,
    "why": _cmd_why,
    "repl": _cmd_repl,
    "serve": _cmd_serve,
    "update": _cmd_update,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as error:
        # Distinct exit code: the program was fine, the resource budget
        # ran out.  Report which limit tripped and how far the run got.
        print(f"budget exceeded: {error}", file=sys.stderr)
        if error.stats is not None:
            print(f"progress: {error.stats}", file=sys.stderr)
        if error.partial is not None:
            print(
                f"partial result: a sound database of "
                f"{error.partial.total_facts()} facts (base + derived) "
                "was computed before the limit",
                file=sys.stderr,
            )
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
