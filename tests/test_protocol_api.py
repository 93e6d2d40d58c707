"""Tests for the shared Scheduler/Decision API surface."""

import pytest

from repro.core.mtk import MTkScheduler
from repro.core.protocol import (
    Decision,
    DecisionStatus,
    RunResult,
    Scheduler,
    acceptance_count,
)
from repro.engine.pipeline import PipelineExecutor
from repro.model.log import Log
from repro.model.operations import OpKind, read, write


class TestDecision:
    def test_accepted_and_performed_flags(self):
        op = read(1, "x")
        accept = Decision(DecisionStatus.ACCEPT, op)
        ignore = Decision(DecisionStatus.IGNORE, op)
        reject = Decision(DecisionStatus.REJECT, op)
        assert accept.accepted and accept.performed
        assert ignore.accepted and not ignore.performed
        assert not reject.accepted and not reject.performed

    def test_rendering_includes_reason(self):
        decision = Decision(DecisionStatus.REJECT, read(1, "x"), "too late")
        assert "too late" in str(decision)
        assert "R1[x]" in str(decision)


class TestRunSemantics:
    def test_run_rejects_later_ops_of_aborted_txn(self, starvation_log):
        scheduler = MTkScheduler(2)
        extended = Log(
            starvation_log.operations + (write(3, "z"), read(1, "q"))
        )
        result = scheduler.run(extended)
        # W3[z] after T3's abort is auto-rejected; T1's op still runs.
        statuses = [d.status for d in result.decisions]
        assert statuses[-2] is DecisionStatus.REJECT
        assert statuses[-1] is DecisionStatus.ACCEPT

    def test_stop_on_reject_truncates(self, starvation_log):
        scheduler = MTkScheduler(2)
        result = scheduler.run(starvation_log, stop_on_reject=True)
        assert len(result.decisions) == len(starvation_log)
        assert result.decisions[-1].status is DecisionStatus.REJECT

    def test_trace_populated_only_when_enabled(self, example2_log):
        traced = MTkScheduler(2, trace=True).run(example2_log)
        untraced = MTkScheduler(2, trace=False).run(example2_log)
        assert len(traced.trace) == len(example2_log)
        assert untraced.trace == []

    def test_run_result_ignored_writes(self):
        scheduler = MTkScheduler(2, thomas_write_rule=True)
        log = Log.parse("R3[y] W1[y] W1[x] W3[x]")
        result = scheduler.run(log)
        assert result.ignored_writes == 1
        assert result.accepted

    def test_accepts_is_idempotent(self, example1_log):
        scheduler = MTkScheduler(2)
        assert scheduler.accepts(example1_log)
        assert scheduler.accepts(example1_log)  # reset() makes it pure


class TestAcceptanceCount:
    def test_counts_over_stream(self, example1_log, starvation_log):
        scheduler = MTkScheduler(2)
        count = acceptance_count(
            scheduler, [example1_log, starvation_log, example1_log]
        )
        assert count == 2


class TestRunResultProjection:
    def test_committed_log_excludes_aborted(self, starvation_log):
        from repro.engine.pipeline import ExecutionReport

        report = ExecutionReport()
        report.committed = {1}
        report.committed_ops = [write(1, "x"), write(2, "x")]
        assert str(report.committed_log) == "W1[x]"


class FirstWriteBounces(Scheduler):
    """Defines only ``_process`` / ``reset``: every transaction's first
    write is rejected once, everything else is accepted."""

    name = "first-write-bounces"

    def __init__(self):
        self.reset()

    def reset(self):
        self.bounced: set[int] = set()

    def _process(self, op):
        if op.kind is OpKind.WRITE and op.txn not in self.bounced:
            self.bounced.add(op.txn)
            return Decision(DecisionStatus.REJECT, op, "first write")
        return Decision(DecisionStatus.ACCEPT, op)


LIFECYCLE = (
    "plan_transactions",
    "restart",
    "cascade_restart",
    "prune_aborted",
    "validate_commit",
    "commit",
    "commit_dependencies",
    "readers_of",
)


class TestLifecycleDefaults:
    def test_minimal_scheduler_inherits_every_default(self):
        scheduler = FirstWriteBounces()
        for verb in LIFECYCLE:
            assert getattr(FirstWriteBounces, verb) is getattr(Scheduler, verb)
        assert scheduler.aborted == frozenset()
        assert scheduler.partial_ok == frozenset()
        assert scheduler.failed is False
        assert scheduler.validate_commit(1) is True
        assert scheduler.prune_aborted(1) == 0
        assert scheduler.commit_dependencies(1) == frozenset()
        assert scheduler.readers_of(1) == frozenset()

    @pytest.mark.parametrize("write_policy", ["immediate", "deferred"])
    def test_minimal_scheduler_runs_through_the_executor(self, write_policy):
        log = Log.parse("R1[x] W1[x] W2[y] R3[x] R2[x]")
        report = PipelineExecutor(
            FirstWriteBounces(), write_policy=write_policy
        ).execute(list(log.transactions.values()), schedule=log)
        assert report.committed == {1, 2, 3}
        assert report.failed == set()
        assert report.restarts == 2  # T1 and T2 bounce once each
        assert sorted(map(str, report.committed_log)) == sorted(
            map(str, log)
        )
