"""Do two sets of runs agree?  The rule, under the bounds in BENCHMARK.json.

A *set* is one run of every workload; ``run.py --repeat N`` writes N of
them to one file.  For each (workload, metric):

* a **count** (inferences, attempts, rewritten rules ...) must repeat
  exactly — ``same`` or ``differs``;
* a **bounded** end-to-end metric is ``unresolved`` when the spread of
  the values (interquartile range over median) is wider than its bound,
  ``regressed`` when the later median is worse than the earlier by more
  than the bound, and ``agrees`` otherwise;
* other per-layer metrics carry no bound and are only summarised.
"""

from __future__ import annotations

import json
import statistics

# Per-layer metrics that are counts of work, not times: equal inputs
# must give equal values.
EXACT = frozenset({
    "engine.inferences_per_op", "engine.attempts_per_op",
    "engine.facts_derived_per_op", "engine.iterations_per_op",
    "engine.useful_ratio", "engine.maintain_attempts_per_delete",
    "transform.rules_out_per_rule_in", "core.snapshot_bytes_per_row",
    "topdown.oldt_inferences_per_goal", "topdown.alexander_over_oldt_inferences",
})


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def worsening(metric: dict, before: float, after: float) -> float:
    """How much worse *after* is than *before*, as a share of *before*."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def verdict(metric: dict, before: list, after: list) -> str:
    if metric["name"] in EXACT:
        return "same" if sorted(set(before)) == sorted(set(after)) else "differs"
    bound = metric.get("bound")
    if bound is None:
        return "-"
    if max(spread(before), spread(after)) > bound:
        return "unresolved"
    worse = worsening(metric, statistics.median(before), statistics.median(after))
    return "regressed" if worse > bound else "agrees"


def _metrics(contract: dict, document: dict) -> list:
    return contract["per_layer" if document.get("trace") else "end_to_end"]


def _column(document: dict, workload: str, name: str) -> "list | None":
    """The metric's value in every set; None when a set has none (a
    ``--quick`` window is too short for some percentiles)."""
    values = [run[workload][name] for run in document["sets"]]
    return None if None in values else values


def report_sets(contract: dict, document: dict) -> bool:
    """Median and quartiles per (workload, metric) over the file's sets,
    and a verdict for every pair of sets.  True iff nothing regressed,
    differed or stayed unresolved."""
    clean = True
    pairs = [
        (i, j) for i in range(len(document["sets"])) for j in range(i + 1, len(document["sets"]))
    ]
    print(f"{'workload':<15}{'metric':<38}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}  pairs")
    for workload in document["sets"][0]:
        for metric in _metrics(contract, document):
            values = _column(document, workload, metric["name"])
            if values is None:
                print(f"{workload:<15}{metric['name']:<38}{'n/a':>12}")
                continue
            low, mid, high = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            verdicts = [verdict(metric, [values[i]], [values[j]]) for i, j in pairs]
            if metric.get("bound") is not None and spread(values) > metric["bound"]:
                verdicts = ["unresolved"] * len(pairs)
            clean &= all(v in ("agrees", "same", "-") for v in verdicts)
            tally = ", ".join(f"{verdicts.count(v)} {v}" for v in sorted(set(verdicts)))
            print(f"{workload:<15}{metric['name']:<38}{mid:>12.4f}{low:>12.4f}"
                  f"{high:>12.4f}{spread(values):>8.1%}  {tally}")
    return clean


def compare_files(contract: dict, path_a: str, path_b: str) -> int:
    """``--compare A B``: B's sets against A's.  Exit status 1 when any
    bounded metric regressed or any count differs."""
    with open(path_a, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        second = json.load(handle)
    if first.get("trace") != second.get("trace"):
        raise SystemExit("one file holds traced sets, the other untraced ones")
    for label, document in (("A", first), ("B", second)):
        env = document["env"]
        print(f"# {label}: commit {env['commit']}, cpus {env['cpus']}, seed {env['seed']}, "
              f"{len(document['sets'])} set(s)")
    bad = 0
    print(f"{'workload':<15}{'metric':<38}{'A median':>12}{'B median':>12}{'change':>9}  verdict")
    for workload in first["sets"][0]:
        for metric in _metrics(contract, first):
            before = _column(first, workload, metric["name"])
            after = _column(second, workload, metric["name"])
            if before is None or after is None:
                print(f"{workload:<15}{metric['name']:<38}{'n/a':>12}")
                continue
            a, b = statistics.median(before), statistics.median(after)
            result = verdict(metric, before, after)
            bad += result in ("regressed", "differs")
            change = f"{(b - a) / a:>+8.1%}" if a else f"{'n/a':>8}"
            print(f"{workload:<15}{metric['name']:<38}{a:>12.4f}{b:>12.4f}{change}  {result}")
    return 1 if bad else 0
