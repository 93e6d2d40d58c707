"""Tests for the storage substrate: database, undo log, locks, versions."""

import pytest

from repro.core.mtk import MTkScheduler
from repro.model.log import Log
from repro.storage.database import Database
from repro.storage.locks import LockManager, LockMode, LockOutcome
from repro.storage.versioned import MultiversionStore
from repro.storage.wal import UndoLog


class TestDatabase:
    def test_read_default_and_write(self):
        db = Database()
        assert db.read("x") == 0
        assert db.write("x", 5) is None
        assert db.read("x") == 5
        assert db.write("x", 7) == 5

    def test_restore_none_removes(self):
        db = Database()
        db.write("x", 1)
        db.restore("x", None)
        assert "x" not in db

    def test_counters_and_snapshot(self):
        db = Database({"a": 1})
        db.read("a")
        db.write("b", 2)
        assert db.reads == 1 and db.writes == 1
        assert db.snapshot() == {"a": 1, "b": 2}


class TestUndoLog:
    def test_rollback_restores_before_images_in_reverse(self):
        db = Database()
        undo = UndoLog(db)
        undo.record_write(1, "x", db.write("x", "first"))
        undo.record_write(1, "x", db.write("x", "second"))
        assert undo.rollback(1) == 2
        assert "x" not in db

    def test_rollback_only_touches_own_transaction(self):
        db = Database()
        undo = UndoLog(db)
        undo.record_write(1, "x", db.write("x", "t1"))
        undo.record_write(2, "y", db.write("y", "t2"))
        undo.rollback(1)
        assert db.read("y") == "t2"

    def test_savepoint_partial_rollback(self):
        db = Database()
        undo = UndoLog(db)
        undo.record_write(1, "x", db.write("x", "keep"))
        sp = undo.savepoint(1)
        undo.record_write(1, "y", db.write("y", "drop"))
        assert undo.rollback_to_savepoint(1, sp) == 1
        assert db.read("x") == "keep"
        assert "y" not in db

    def test_unknown_savepoint_rejected(self):
        undo = UndoLog(Database())
        with pytest.raises(KeyError):
            undo.rollback_to_savepoint(1, 0)

    def test_commit_forgets(self):
        db = Database()
        undo = UndoLog(db)
        undo.record_write(1, "x", db.write("x", 1))
        undo.commit(1)
        assert undo.pending(1) == 0
        assert undo.rollback(1) == 0


class TestLockManager:
    def test_shared_locks_compatible(self):
        locks = LockManager()
        assert locks.acquire("x", 1, LockMode.SHARED) is LockOutcome.GRANTED
        assert locks.acquire("x", 2, LockMode.SHARED) is LockOutcome.GRANTED

    def test_exclusive_conflicts(self):
        locks = LockManager()
        locks.acquire("x", 1, LockMode.EXCLUSIVE)
        assert locks.acquire("x", 2, LockMode.SHARED) is LockOutcome.WAIT

    def test_fifo_promotion_on_release(self):
        locks = LockManager()
        locks.acquire("x", 1, LockMode.EXCLUSIVE)
        locks.acquire("x", 2, LockMode.SHARED)
        locks.acquire("x", 3, LockMode.SHARED)
        granted = locks.release("x", 1)
        assert granted == [2, 3]  # both readers wake together

    def test_upgrade_when_sole_holder(self):
        locks = LockManager()
        locks.acquire("x", 1, LockMode.SHARED)
        assert locks.acquire("x", 1, LockMode.EXCLUSIVE) is LockOutcome.GRANTED

    def test_upgrade_blocked_by_other_reader(self):
        locks = LockManager()
        locks.acquire("x", 1, LockMode.SHARED)
        locks.acquire("x", 2, LockMode.SHARED)
        assert locks.acquire("x", 1, LockMode.EXCLUSIVE) is LockOutcome.WAIT

    def test_already_held_is_idempotent(self):
        locks = LockManager()
        locks.acquire("x", 1, LockMode.EXCLUSIVE)
        assert locks.acquire("x", 1, LockMode.SHARED) is LockOutcome.ALREADY_HELD

    def test_release_unheld_raises(self):
        with pytest.raises(KeyError):
            LockManager().release("x", 1)

    def test_release_all(self):
        locks = LockManager()
        locks.acquire("x", 1, LockMode.SHARED)
        locks.acquire("y", 1, LockMode.EXCLUSIVE)
        locks.release_all(1)
        assert locks.is_idle()

    def test_writer_waits_behind_queue(self):
        locks = LockManager()
        locks.acquire("x", 1, LockMode.SHARED)
        locks.acquire("x", 2, LockMode.EXCLUSIVE)  # queued
        # A new reader must queue behind the writer (no starvation).
        assert locks.acquire("x", 3, LockMode.SHARED) is LockOutcome.WAIT


class TestMultiversionStore:
    def _scheduler_and_store(self, log_text):
        scheduler = MTkScheduler(2)
        log = Log.parse(log_text)
        scheduler.run(log)
        store = MultiversionStore(2, scheduler.table.vector)
        return scheduler, store

    def test_reader_sees_latest_version_below_it(self):
        scheduler, store = self._scheduler_and_store(
            "W1[x] W1[y] R3[x] R2[y] W3[y]"
        )
        store.write("x", 1, "x-from-t1")
        store.write("y", 1, "y-from-t1")
        store.write("y", 3, "y-from-t3")
        # T2 (<2,1>) is below T3 (<2,2>): it must see T1's y, not T3's.
        assert store.read("y", 2) == "y-from-t1"
        # A fresh transaction above everybody sees T3's version.
        scheduler.process(Log.parse("R4[y]").operations[0])
        assert store.read("y", 4) == "y-from-t3"

    def test_own_writes_visible(self):
        _, store = self._scheduler_and_store("W1[x]")
        store.write("x", 1, "mine")
        assert store.read("x", 1) == "mine"

    def test_initial_value_when_no_version_below(self):
        _, store = self._scheduler_and_store("W1[x]")
        assert store.read("x", 1, default="initial") == "initial"

    def test_prune_aborted(self):
        _, store = self._scheduler_and_store("W1[x] W2[x]")
        store.write("x", 1, "a")
        store.write("x", 2, "b")
        assert store.prune_aborted(2) == 1
        assert len(store.versions_of("x")) == 1

    def test_bound_store_serves_and_prunes_through_the_scheduler(self):
        """Bound to a multiversion scheduler the store shares its chains:
        reads come from the version ``read_source`` pinned, and pruning
        visits the chains the scheduler's index names for the
        transaction, not the whole store."""
        from repro.core.multiversion import MVMTkScheduler

        scheduler = MVMTkScheduler(2)
        store = MultiversionStore.bound_to(scheduler)
        for op in Log.parse("W1[x] W2[y] R3[x] R3[y] W3[z]"):
            assert scheduler.process(op).accepted
            if op.kind.is_write:
                store.write(op.item, op.txn, f"{op.item}-from-t{op.txn}")
        assert store.read("x", 3) == "x-from-t1"
        assert store.read("y", 3) == "y-from-t2"
        assert [chain.newest for chain in scheduler.chains_of(3)] == [1, 2, 3]
        assert store.prune_aborted(3) == 1  # its z version; reads go too
        assert scheduler.reads_from() == []
        assert store.versions_of("z") == []
        assert len(store.versions_of("x")) == 1  # untouched
        assert store.prune_aborted(3) == 0
        assert store.prune_aborted(9) == 0  # never seen
