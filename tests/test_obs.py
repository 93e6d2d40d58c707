"""Tests for the observability subsystem (repro.obs).

Covers the metrics registry, the event trace, the ``Instrumented``
wiring into schedulers and the executor, the conservation properties the
registry is supposed to make checkable.
"""

import json

import pytest

from repro.core.composite import MTkStarScheduler
from repro.core.mtk import MTkScheduler
from repro.core.protocol import DecisionStatus
from repro.engine.executor import TransactionExecutor
from repro.engine.to_scheduler import ConventionalTOScheduler
from repro.engine.two_pl_scheduler import StrictTwoPLScheduler
from repro.model.generator import (
    WorkloadSpec,
    generate_transactions,
    random_logs,
)
from repro.model.log import Log
from repro.obs import EventTrace, MetricsRegistry
from repro.obs.instrument import DECISION_COUNTERS


class TestMetricsRegistry:
    def test_counter_monotone(self):
        registry = MetricsRegistry("t")
        assert registry.inc("a") == 1
        assert registry.inc("a", 4) == 5
        with pytest.raises(ValueError):
            registry.inc("a", -1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry("t")
        registry.set_gauge("g", 3)
        registry.gauge("g").add(-1)
        assert registry.gauge("g").value == 2

    def test_histogram_summary(self):
        registry = MetricsRegistry("t")
        for value in (1.0, 3.0, 2.0):
            registry.observe("h", value)
        summary = registry.histogram("h").summary()
        assert summary == {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }
        assert registry.histogram("empty").mean == 0.0

    def test_timer_records_wall_clock(self):
        registry = MetricsRegistry("t")
        with registry.timer("phase"):
            pass
        histogram = registry.histogram("wall_ms.phase")
        assert histogram.count == 1
        assert histogram.total >= 0.0

    def test_reset_keeps_declared_names(self):
        registry = MetricsRegistry("t")
        registry.declare_counters("a", "b")
        registry.inc("a", 3)
        registry.set_gauge("g", 9)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 0, "b": 0}
        assert snapshot["gauges"] == {"g": 0}

    def test_stats_view_is_live_and_dict_like(self):
        registry = MetricsRegistry("t")
        registry.declare_counters("a")
        view = registry.stats
        assert view["a"] == 0
        registry.inc("a", 2)
        assert view["a"] == 2  # live, not a copy
        view["a"] = 7  # historical compatibility write path
        assert registry.counter("a").value == 7
        assert dict(view) == {"a": 7}
        assert len(view) == 1
        with pytest.raises(TypeError):
            del view["a"]

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry("t")
        registry.inc("a")
        registry.set_gauge("g", 1.5)
        registry.observe("h", 2.0)
        json.dumps(registry.snapshot())


class TestEventTrace:
    def test_seq_is_monotonic_across_eviction(self):
        trace = EventTrace(capacity=2)
        for _ in range(5):
            trace.emit("decision")
        assert trace.emitted == 5
        assert len(trace) == 2
        assert [event.seq for event in trace] == [4, 5]

    def test_filter_and_last(self):
        trace = EventTrace()
        trace.emit("decision", txn=1)
        trace.emit("abort", txn=2)
        trace.emit("decision", txn=3)
        assert [e.txn for e in trace.events("decision")] == [1, 3]
        assert trace.last("abort").txn == 2
        assert trace.last("restart") is None

    def test_capacity_zero_disables_retention(self):
        trace = EventTrace(capacity=0)
        assert trace.emit("decision") is None
        assert trace.emitted == 1
        assert len(trace) == 0

    def test_jsonl_round_trip(self, tmp_path):
        trace = EventTrace()
        trace.emit("encode", txn=1, item="x", predecessor=2, element=(5, 1))
        trace.emit("restart", txn=3)
        path = tmp_path / "trace.jsonl"
        assert trace.dump(path) == 2
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "encode"
        assert records[0]["txn"] == 1
        assert records[0]["item"] == "x"
        assert records[1] == {"seq": 2, "kind": "restart", "txn": 3}

    def test_clear_resets_seq(self):
        trace = EventTrace()
        trace.emit("decision")
        trace.clear()
        assert trace.emitted == 0
        assert trace.emit("decision").seq == 1


class TestInstrumentedSchedulers:
    def test_decision_vocabulary_in_sync_with_core(self):
        # instrument.py duck-types on decision.status.value instead of
        # importing DecisionStatus; this test is the promised sync check.
        assert set(DECISION_COUNTERS) == {s.value for s in DecisionStatus}

    def test_stats_dict_api_preserved(self):
        scheduler = MTkScheduler(2)
        scheduler.run(Log.parse("W1[x] R2[x] W2[y]"))
        assert scheduler.stats["accepted"] == 3
        assert scheduler.stats["rejected"] == 0

    def test_decision_events_subsume_trace(self):
        scheduler = MTkScheduler(2)
        log = Log.parse("W1[x] R2[x] W2[y]")
        scheduler.run(log)
        decisions = scheduler.events.events("decision")
        assert len(decisions) == len(log)
        assert decisions[0].detail["status"] == "accept"

    def test_metrics_snapshot_includes_table_gauges(self):
        scheduler = MTkScheduler(2)
        scheduler.run(Log.parse("W1[x] R2[x]"))
        snapshot = scheduler.metrics_snapshot()
        assert snapshot["gauges"]["table_size"] >= 2
        assert snapshot["gauges"]["element_visits"] > 0
        json.dumps(snapshot)

    def test_reset_zeroes_metrics_and_events(self):
        scheduler = MTkScheduler(2)
        scheduler.run(Log.parse("W1[x] R2[x]"))
        scheduler.reset()
        assert scheduler.stats["accepted"] == 0
        assert scheduler.events.emitted == 0


SCHEDULER_FACTORIES = {
    "mt3": lambda: MTkScheduler(3),
    "mtstar3": lambda: MTkStarScheduler(3),
    "two_pl": lambda: StrictTwoPLScheduler(),
    "to": lambda: ConventionalTOScheduler(),
}


class TestConservationProperties:
    """Every operation that reaches ``process`` is accounted exactly once:
    accepted + rejected + ignored == operations processed."""

    @pytest.mark.parametrize("name", sorted(SCHEDULER_FACTORIES))
    def test_decisions_conserved(self, name):
        spec = WorkloadSpec(
            num_txns=5, ops_per_txn=3, num_items=4, write_ratio=0.5
        )
        scheduler = SCHEDULER_FACTORIES[name]()
        for log in random_logs(spec, 40, seed=11):
            # stop_on_reject=True: every decision in the result went
            # through process() (no synthesized already-aborted rejects).
            result = scheduler.run(log, stop_on_reject=True)
            stats = scheduler.stats
            processed = (
                stats["accepted"] + stats["rejected"] + stats["ignored"]
            )
            assert processed == len(result.decisions)
            assert len(scheduler.events.events("decision")) == processed

    def test_executor_metrics_match_report(self):
        spec = WorkloadSpec(
            num_txns=8, ops_per_txn=4, num_items=6, write_ratio=0.5
        )
        for seed in range(5):
            import random

            transactions = generate_transactions(spec, random.Random(seed))
            executor = TransactionExecutor(MTkScheduler(3), max_attempts=6)
            report = executor.execute(transactions, seed=seed)
            assert executor.stats["undo_ops"] == report.undo_count
            assert executor.stats["restarts"] == report.restarts
            assert executor.stats["ops_executed"] == report.ops_executed
            assert executor.stats["commits"] == len(report.committed)
            assert executor.stats["failures"] == len(report.failed)
            assert executor.metrics.histogram("wall_ms.execute").count == 1
