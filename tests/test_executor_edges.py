"""Edge-path tests for the executor: fallbacks, combinations, substrates."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distributed import DMTkScheduler
from repro.core.mtk import MTkScheduler
from repro.engine.pipeline import PipelineExecutor
from repro.model.generator import WorkloadSpec, generate_transactions
from repro.model.log import Log
from repro.model.operations import two_step


class TestPartialRollbackFallback:
    def test_victim_with_successors_takes_full_rollback(self):
        """Partial rollback only applies with no successors: build a
        victim some other transaction was ordered after, and check the
        executor falls back to a full restart (work re-executed)."""
        # T2 reads x early, creating an order against T1's later write —
        # so when T1 aborts, it has successors and the partial-rollback
        # fast path must be refused in favour of a full restart.
        t1 = two_step(1, ["z"], ["x"])
        t2 = two_step(2, ["x"], ["w"])
        t3 = two_step(3, ["q"], ["z"])
        schedule = Log.parse("R3[q] R1[z] R2[x] W3[z] W2[w] W1[x]")
        scheduler = MTkScheduler(2, partial_rollback=True)
        executor = PipelineExecutor(
            scheduler, rollback="partial", max_attempts=6
        )
        report = executor.execute([t1, t2, t3], schedule=schedule)
        assert report.is_serializable()
        assert report.committed == {1, 2, 3}

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_partial_mode_never_worse_than_serializable(self, seed):
        spec = WorkloadSpec(num_txns=6, ops_per_txn=5, num_items=6)
        txns = generate_transactions(spec, random.Random(seed))
        executor = PipelineExecutor(
            MTkScheduler(3, partial_rollback=True),
            rollback="partial",
            max_attempts=8,
        )
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()


class TestCombinations:
    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_deferred_plus_partial(self, seed):
        """Both VI-C schemes together stay serializable and undo-free."""
        spec = WorkloadSpec(num_txns=5, ops_per_txn=3, num_items=6)
        txns = generate_transactions(spec, random.Random(seed))
        executor = PipelineExecutor(
            MTkScheduler(3, partial_rollback=True),
            rollback="partial",
            write_policy="deferred",
            max_attempts=8,
        )
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()
        assert report.undo_count == 0

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_executor_over_dmt(self, seed):
        """The distributed scheduler drives the executor like any other."""
        spec = WorkloadSpec(num_txns=5, ops_per_txn=3, num_items=6)
        txns = generate_transactions(spec, random.Random(seed))
        scheduler = DMTkScheduler(3, num_sites=3)
        executor = PipelineExecutor(scheduler, max_attempts=8)
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()
        assert scheduler.locks.is_idle()

    def test_thomas_rule_through_executor(self):
        """Ignored writes count in the report and never reach the DB."""
        t3 = two_step(3, ["y"], ["x"])
        t1 = two_step(1, ["q"], ["x", "y"])
        schedule = Log.parse("R3[y] R1[q] W1[x] W1[y] W3[x]")
        from repro.storage.database import Database

        db = Database()
        executor = PipelineExecutor(
            MTkScheduler(2, thomas_write_rule=True), database=db
        )
        report = executor.execute([t1, t3], schedule=schedule)
        if report.ignored_writes:
            # The obsolete W3[x] must not have clobbered T1's value.
            assert db.read("x") == "v1:x"
        assert report.is_serializable()


class TestMaxAttemptsExhaustion:
    def test_exhaustion_lands_in_failed_with_counters(self):
        """A transaction that keeps losing must land in ``failed`` after
        exactly ``max_attempts`` attempts, with every attempt's work
        counted as re-executed and undone."""
        log = Log.parse("W1[x] W2[x] R3[y] W3[x]")
        txns = [log.transactions[t] for t in sorted(log.txn_ids)]
        executor = PipelineExecutor(MTkScheduler(2), max_attempts=3)
        report = executor.execute(txns, schedule=log)
        assert report.failed
        assert executor.stats["failures"] == len(report.failed)
        # failed transactions leave nothing in the committed record
        failed_ops = [
            op for op in report.committed_ops if op.txn in report.failed
        ]
        assert failed_ops == []
        # a failed txn burned max_attempts attempts: attempts - 1 restarts
        assert executor.stats["restarts"] == report.restarts

    def test_raising_max_attempts_monotonically_helps(self):
        log = Log.parse("W1[x] W2[x] R3[y] W3[x]")
        txns = [log.transactions[t] for t in sorted(log.txn_ids)]
        committed_by_budget = [
            len(
                PipelineExecutor(MTkScheduler(2), max_attempts=budget)
                .execute(txns, schedule=log)
                .committed
            )
            for budget in (1, 2, 6)
        ]
        assert committed_by_budget == sorted(committed_by_budget)

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_attempt_budget_is_an_upper_bound(self, seed):
        """No transaction restarts more than max_attempts - 1 times."""
        spec = WorkloadSpec(num_txns=5, ops_per_txn=3, num_items=3)
        txns = generate_transactions(spec, random.Random(seed))
        max_attempts = 3
        executor = PipelineExecutor(
            MTkScheduler(2), max_attempts=max_attempts
        )
        report = executor.execute(txns, seed=seed)
        assert report.restarts <= len(txns) * (max_attempts - 1)


class TestRestartAccounting:
    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_reexecution_accounting_closes(self, seed):
        """ops_executed splits exactly into surviving committed_ops and
        rolled-back (re-executed) work; undo_ops mirrors undo_count."""
        spec = WorkloadSpec(num_txns=8, ops_per_txn=4, num_items=4)
        txns = generate_transactions(spec, random.Random(seed))
        executor = PipelineExecutor(MTkScheduler(2), max_attempts=4)
        report = executor.execute(txns, seed=seed)
        assert len(report.committed_ops) == (
            report.ops_executed - report.ops_reexecuted
        )
        assert executor.stats["ops_reexecuted"] == report.ops_reexecuted
        assert executor.stats["undo_ops"] == report.undo_count
        # only writes need undo, so undo can never exceed discarded work
        assert report.undo_count <= report.ops_reexecuted

    def test_deferred_aborts_cost_no_undo(self):
        """Deferred writes + full rollback: an abort before the commit
        point has written nothing, so undo_count must stay zero."""
        log = Log.parse("W1[x] W2[x] R3[y] W3[x]")
        txns = [log.transactions[t] for t in sorted(log.txn_ids)]
        executor = PipelineExecutor(
            MTkScheduler(2), write_policy="deferred", max_attempts=2
        )
        report = executor.execute(txns, schedule=log)
        assert report.undo_count == 0
        assert report.is_serializable()


class TestPartialPlusDeferred:
    def test_partial_resume_preserves_buffered_writes(self):
        """Partial rollback under deferred writes: the resumed victim's
        earlier buffered writes must survive the partial restart and land
        at commit."""
        t1 = two_step(1, ["x"], ["y"])
        t2 = two_step(2, ["y"], ["z"])
        schedule = Log.parse("R2[y] R1[x] W2[z] W1[y]")
        from repro.storage.database import Database

        db = Database()
        executor = PipelineExecutor(
            MTkScheduler(2, partial_rollback=True),
            database=db,
            rollback="partial",
            write_policy="deferred",
            max_attempts=6,
        )
        report = executor.execute([t1, t2], schedule=schedule)
        assert report.committed == {1, 2}
        assert db.read("y") == "v1:y"
        assert db.read("z") == "v2:z"
        assert report.undo_count == 0

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_partial_deferred_accounting_closes(self, seed):
        spec = WorkloadSpec(num_txns=6, ops_per_txn=4, num_items=5)
        txns = generate_transactions(spec, random.Random(seed))
        executor = PipelineExecutor(
            MTkScheduler(3, partial_rollback=True),
            rollback="partial",
            write_policy="deferred",
            max_attempts=6,
        )
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()
        assert report.undo_count == 0
        assert len(report.committed_ops) == (
            report.ops_executed - report.ops_reexecuted
        )


class TestBookkeeping:
    def test_failed_transactions_keep_no_effects(self):
        log = Log.parse("W1[x] W2[x] R3[y] W3[x]")
        txns = [log.transactions[t] for t in sorted(log.txn_ids)]
        from repro.storage.database import Database

        db = Database()
        executor = PipelineExecutor(
            MTkScheduler(2), database=db, max_attempts=1
        )
        report = executor.execute(txns, schedule=log)
        assert 3 in report.failed
        # T3's write never survives in the database.
        assert db.read("x") != "v3:x"

    def test_report_partitions_transactions(self):
        spec = WorkloadSpec(num_txns=6, ops_per_txn=3, num_items=4)
        txns = generate_transactions(spec, random.Random(3))
        executor = PipelineExecutor(MTkScheduler(2), max_attempts=2)
        report = executor.execute(txns, seed=3)
        ids = {t.txn_id for t in txns}
        assert report.committed | report.failed == ids
        assert not report.committed & report.failed
