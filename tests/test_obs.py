"""Tests for the observability layer: metrics registry and bench artifacts."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.harness import measure, measurement_record
from repro.obs import (
    NULL_METRICS,
    BenchArtifact,
    HistogramStat,
    Metrics,
    NullMetrics,
    ThreadSafeMetrics,
    TimerStat,
    artifact_filename,
    collect,
    get_metrics,
    set_metrics,
)
from repro.workloads import ancestor


class TestTimerNesting:
    def test_nested_paths_are_slash_joined(self):
        metrics = Metrics()
        with metrics.timer("outer"):
            with metrics.timer("inner"):
                pass
            with metrics.timer("inner"):
                pass
        assert set(metrics.timers) == {"outer", "outer/inner"}
        assert metrics.timers["outer"].count == 1
        assert metrics.timers["outer/inner"].count == 2

    def test_nested_time_bounded_by_outer(self):
        metrics = Metrics()
        with metrics.timer("outer"):
            with metrics.timer("inner"):
                sum(range(1000))
        assert metrics.timers["outer/inner"].total <= metrics.timers["outer"].total

    def test_stack_restored_after_exception(self):
        metrics = Metrics()
        with pytest.raises(RuntimeError):
            with metrics.timer("outer"):
                raise RuntimeError("boom")
        assert metrics.depth == 0
        # The interrupted span still recorded.
        assert metrics.timers["outer"].count == 1
        with metrics.timer("again"):
            pass
        assert "again" in metrics.timers  # not "outer/again"

    def test_timer_stat_aggregates(self):
        stat = TimerStat()
        stat.record(0.5)
        stat.record(1.5)
        assert stat.count == 2
        assert stat.total == 2.0
        assert stat.mean == 1.0
        assert stat.minimum == 0.5
        assert stat.maximum == 1.5


class TestCountersAndHistograms:
    def test_incr(self):
        metrics = Metrics()
        metrics.incr("runs")
        metrics.incr("runs", 4)
        assert metrics.counters["runs"] == 5

    def test_observe(self):
        metrics = Metrics()
        for value in (3, 1, 2):
            metrics.observe("delta", value)
        stat = metrics.histograms["delta"]
        assert (stat.count, stat.minimum, stat.maximum, stat.last) == (3, 1, 3, 2)
        assert stat.mean == 2.0

    def test_fold_stats(self):
        from repro.engine.counters import EvaluationStats

        metrics = Metrics()
        metrics.fold_stats(EvaluationStats(inferences=7, attempts=9), prefix="eng")
        metrics.fold_stats(EvaluationStats(inferences=1), prefix="eng")
        assert metrics.counters["eng.inferences"] == 8
        assert metrics.counters["eng.attempts"] == 9

    def test_empty_histogram_as_dict_is_finite(self):
        assert HistogramStat().as_dict()["min"] == 0.0
        assert json.dumps(HistogramStat().as_dict())  # JSON-safe

    def test_snapshot_is_json_serialisable(self):
        metrics = Metrics()
        with metrics.timer("t"):
            pass
        metrics.incr("c")
        metrics.observe("h", 1.0)
        round_tripped = json.loads(json.dumps(metrics.snapshot()))
        assert round_tripped["counters"] == {"c": 1}
        assert round_tripped["timers"]["t"]["count"] == 1


class TestDisabledMode:
    def test_default_registry_is_disabled(self):
        assert get_metrics() is NULL_METRICS
        assert not get_metrics().enabled

    def test_null_metrics_records_nothing(self):
        null = NullMetrics()
        with null.timer("x"):
            null.incr("c")
            null.observe("h", 1)
        assert null.snapshot() == {"timers": {}, "counters": {}, "histograms": {}}

    def test_null_timer_is_shared_singleton(self):
        null = NullMetrics()
        assert null.timer("a") is null.timer("b")

    def test_instrumented_run_with_default_registry_collects_nothing(self):
        scenario = ancestor(graph="chain", n=6)
        measure(scenario, "seminaive")
        assert NULL_METRICS.snapshot() == {
            "timers": {},
            "counters": {},
            "histograms": {},
        }


class TestCollect:
    def test_collect_activates_and_restores(self):
        previous = get_metrics()
        with collect() as metrics:
            assert get_metrics() is metrics
            assert metrics.enabled
        assert get_metrics() is previous

    def test_collect_restores_on_error(self):
        previous = get_metrics()
        with pytest.raises(ValueError):
            with collect():
                raise ValueError
        assert get_metrics() is previous

    def test_set_metrics_none_restores_default(self):
        set_metrics(Metrics())
        try:
            assert get_metrics().enabled
        finally:
            set_metrics(None)
        assert get_metrics() is NULL_METRICS

    def test_engines_record_under_collect(self):
        scenario = ancestor(graph="chain", n=8)
        with collect() as metrics:
            measure(scenario, "seminaive")
            measure(scenario, "oldt")
            measure(scenario, "qsqr")
        snapshot = metrics.snapshot()
        timer_paths = set(snapshot["timers"])
        assert any(path.endswith("seminaive") for path in timer_paths)
        assert any(path.startswith("oldt") for path in timer_paths)
        assert any(path.startswith("qsqr") for path in timer_paths)
        assert snapshot["histograms"]["seminaive.delta_rows"]["count"] >= 1

    def test_stratified_records_per_stratum(self, stratified_source):
        from repro.datalog import parse_program
        from repro.engine.stratified import stratified_fixpoint

        program = parse_program(stratified_source)
        with collect() as metrics:
            stratified_fixpoint(program)
        assert "stratified/stratum0" in metrics.timers
        assert metrics.histograms["stratified.strata"].last >= 2

    def test_wellfounded_records_alternations(self):
        from repro.datalog import parse_program
        from repro.engine.wellfounded import alternating_fixpoint

        program = parse_program(
            """
            move(a, b). move(b, a).
            win(X) :- move(X, Y), not win(Y).
            """
        )
        with collect() as metrics:
            alternating_fixpoint(program)
        assert metrics.timers["wellfounded/gamma"].count >= 2
        assert metrics.histograms["wellfounded.alternations"].count == 1


class TestMetricsMerge:
    def test_timer_merge_sums_and_bounds(self):
        a, b = TimerStat(), TimerStat()
        a.record(1.0)
        a.record(3.0)
        b.record(0.5)
        a.merge(b)
        assert a.count == 3
        assert a.total == 4.5
        assert a.minimum == 0.5
        assert a.maximum == 3.0

    def test_empty_merges_are_noops(self):
        stat = TimerStat()
        stat.record(1.0)
        stat.merge(TimerStat())
        assert stat.count == 1 and stat.minimum == 1.0
        hist = HistogramStat()
        hist.observe(2.0)
        hist.merge(HistogramStat())
        assert hist.count == 1 and hist.last == 2.0

    def test_histogram_merge_takes_others_last(self):
        a, b = HistogramStat(), HistogramStat()
        a.observe(1.0)
        b.observe(9.0)
        a.merge(b)
        assert a.count == 2
        assert a.last == 9.0
        assert a.maximum == 9.0

    def test_registry_merge_folds_everything(self):
        parent, other = Metrics(), Metrics()
        parent.incr("shared", 1)
        other.incr("shared", 2)
        other.incr("other_only", 5)
        other.observe("delta", 7.0)
        with other.timer("span"):
            pass
        parent.merge(other)
        assert parent.counters["shared"] == 3
        assert parent.counters["other_only"] == 5
        assert parent.histograms["delta"].count == 1
        assert parent.timers["span"].count == 1

    def test_null_metrics_merge_is_noop(self):
        other = Metrics()
        other.incr("x")
        NULL_METRICS.merge(other)
        assert NULL_METRICS.counters == {}  # the singleton stays empty

    def test_threadsafe_merge_under_contention(self):
        parent = ThreadSafeMetrics()
        registries = []
        for i in range(8):
            registry = Metrics()
            registry.incr("n", i)
            registries.append(registry)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(parent.merge, registries))
        assert parent.counters["n"] == sum(range(8))


class TestBenchArtifact:
    def test_json_round_trip(self):
        artifact = BenchArtifact(bench_id="demo", created_unix=123.0, meta={"k": "v"})
        artifact.add_entry({"id": "a", "inferences": 10, "seconds": 0.5})
        artifact.add_entry({"id": "b", "inferences": 20, "seconds": 0.25})
        restored = BenchArtifact.from_json(artifact.to_json())
        assert restored.bench_id == "demo"
        assert restored.created_unix == 123.0
        assert restored.meta == {"k": "v"}
        assert restored.entries == artifact.entries
        assert restored.entry("b")["inferences"] == 20

    def test_write_and_read(self, tmp_path):
        artifact = BenchArtifact(bench_id="demo")
        artifact.add_entry({"id": "a", "inferences": 1})
        path = artifact.write(tmp_path)
        assert path.name == artifact_filename("demo") == "BENCH_demo.json"
        assert BenchArtifact.read(path).entries == artifact.entries

    def test_entry_requires_unique_string_id(self):
        artifact = BenchArtifact(bench_id="demo")
        artifact.add_entry({"id": "a"})
        with pytest.raises(ValueError):
            artifact.add_entry({"id": "a"})
        with pytest.raises(ValueError):
            artifact.add_entry({"inferences": 1})

    def test_rejects_foreign_and_future_schema(self):
        with pytest.raises(ValueError):
            BenchArtifact.from_json(json.dumps({"schema_version": "other/1", "bench_id": "x"}))
        with pytest.raises(ValueError):
            BenchArtifact.from_json(
                json.dumps({"schema_version": "repro-bench/999", "bench_id": "x"})
            )

    def test_measurement_record_is_artifact_ready(self):
        scenario = ancestor(graph="chain", n=6)
        record = measurement_record(measure(scenario, "alexander"))
        artifact = BenchArtifact(bench_id="demo")
        artifact.add_entry(record)
        restored = BenchArtifact.from_json(artifact.to_json())
        entry = restored.entries[0]
        assert entry["strategy"] == "alexander"
        assert isinstance(entry["inferences"], int)
        assert entry["seconds"] >= 0.0
