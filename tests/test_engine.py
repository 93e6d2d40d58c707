"""Tests for the executor and the Section VI-C rollback schemes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.composite import MTkStarScheduler
from repro.core.mtk import MTkScheduler
from repro.engine.pipeline import PipelineExecutor
from repro.model.generator import WorkloadSpec, generate_transactions
from repro.model.log import Log
from repro.model.operations import two_step
from repro.storage.database import Database


def _workload(seed, **kwargs):
    defaults = dict(num_txns=6, ops_per_txn=4, num_items=10, write_ratio=0.4)
    defaults.update(kwargs)
    return generate_transactions(WorkloadSpec(**defaults), random.Random(seed))


class TestBasicExecution:
    def test_conflict_free_workload_commits_everything(self):
        txns = [two_step(i, [f"r{i}"], [f"w{i}"]) for i in range(1, 5)]
        executor = PipelineExecutor(MTkScheduler(2))
        report = executor.execute(txns, seed=1)
        assert report.committed == {1, 2, 3, 4}
        assert report.restarts == 0
        assert report.is_serializable()

    def test_writes_reach_database(self):
        txns = [two_step(1, ["a"], ["b"])]
        db = Database()
        executor = PipelineExecutor(MTkScheduler(2), database=db)
        executor.execute(txns)
        assert db.read("b") == "v1:b"

    def test_aborted_writes_rolled_back(self):
        # Fig. 5's starvation log forces at least one abort of T3.
        log = Log.parse("W1[x] W2[x] R3[y] W3[x]")
        txns = [log.transactions[t] for t in sorted(log.txn_ids)]
        executor = PipelineExecutor(
            MTkScheduler(2, anti_starvation=True), max_attempts=3
        )
        report = executor.execute(txns, schedule=log)
        assert report.restarts >= 1
        assert report.committed == {1, 2, 3}
        assert report.is_serializable()

    def test_max_attempts_exhaustion_marks_failed(self):
        log = Log.parse("W1[x] W2[x] R3[y] W3[x]")
        txns = [log.transactions[t] for t in sorted(log.txn_ids)]
        # Without the starvation remedy T3 aborts forever.
        executor = PipelineExecutor(MTkScheduler(2), max_attempts=2)
        report = executor.execute(txns, schedule=log)
        assert 3 in report.failed
        assert report.is_serializable()

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            PipelineExecutor(MTkScheduler(2), write_policy="bogus")
        with pytest.raises(ValueError):
            PipelineExecutor(MTkScheduler(2), rollback="bogus")


class TestPartialRollback:
    """Section VI-C 1."""

    def test_partial_rollback_preserves_prefix_work(self):
        # T3 executes R3[y] (work) then aborts at W3[x]; with partial
        # rollback the read is not re-executed.
        log = Log.parse("W1[x] W2[x] R3[y] W3[x]")
        txns = [log.transactions[t] for t in sorted(log.txn_ids)]
        partial = PipelineExecutor(
            MTkScheduler(2, partial_rollback=True), rollback="partial"
        )
        report = partial.execute(txns, schedule=log)
        assert report.committed == {1, 2, 3}
        assert report.ops_reexecuted == 0  # nothing thrown away
        full = PipelineExecutor(
            MTkScheduler(2, anti_starvation=True), rollback="full"
        )
        report_full = full.execute(txns, schedule=log)
        assert report_full.ops_reexecuted > 0

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_front_door_knob_turns_partial_rollback_on(self, n_shards):
        """``rollback="partial"`` alone reaches VI-C 1: the service
        builds its scheduler with ``partial_rollback`` on, so the abort
        of T3 keeps ``R3[y]`` and nothing is re-executed."""
        from repro.engine.pipeline import TransactionService

        log = Log.parse("W1[x] W2[x] R3[y] W3[x]")
        txns = [log.transactions[t] for t in sorted(log.txn_ids)]
        with TransactionService(
            k=2, n_shards=n_shards, rollback="partial"
        ) as service:
            assert service.scheduler.partial_rollback
            service.submit_programs(txns)
            report = service.run(schedule=log)
        assert report.committed == {1, 2, 3}
        assert report.restarts >= 1
        assert report.ops_reexecuted == 0
        with TransactionService(k=2, n_shards=n_shards) as service:
            assert not service.scheduler.partial_rollback

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_partial_rollback_is_serializable(self, seed):
        txns = _workload(seed)
        executor = PipelineExecutor(
            MTkScheduler(3, partial_rollback=True), rollback="partial"
        )
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()


class TestDeferredWrites:
    """Section VI-C 2: two-phase commit for each write."""

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_no_undo_ever_needed(self, seed):
        txns = _workload(seed)
        executor = PipelineExecutor(
            MTkScheduler(3, anti_starvation=True), write_policy="deferred"
        )
        report = executor.execute(txns, seed=seed)
        assert report.undo_count == 0  # VI-C 2a/c: aborts are free
        assert report.is_serializable()

    def test_buffered_writes_invisible_until_commit(self):
        # A transaction's deferred write must not reach the database
        # before its last operation.
        txns = [two_step(1, ["a"], ["b"])]
        db = Database()
        executor = PipelineExecutor(
            MTkScheduler(2), database=db, write_policy="deferred"
        )
        report = executor.execute(txns)
        assert report.committed == {1}
        assert db.read("b") == "v1:b"


class TestCompositeExecution:
    """Algorithm 2 step 4: global abort-and-restart."""

    def test_composite_global_restart_commits_eventually(self):
        # A region-4 log: DSR and 2PL but outside TO(1)..TO(3), so MT(3*)
        # rejects it mid-schedule and must abort-all and restart.
        log = Log.parse("R1[a] W1[a] R3[b] R2[a] W2[a] W3[a]")
        txns = [log.transactions[t] for t in sorted(log.txn_ids)]
        star = MTkStarScheduler(3)
        assert not star.accepts(log)
        executor = PipelineExecutor(MTkStarScheduler(3), max_attempts=5)
        report = executor.execute(txns, schedule=log)
        assert report.restarts >= 1
        assert report.committed == {1, 2, 3}
        assert report.is_serializable()

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_composite_execution_serializable(self, seed):
        txns = _workload(seed, num_txns=5)
        executor = PipelineExecutor(MTkStarScheduler(3), max_attempts=4)
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()
