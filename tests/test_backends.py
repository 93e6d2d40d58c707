"""Tests for the storage backend protocol and its implementations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mtk import MTkScheduler
from repro.engine.pipeline import PipelineExecutor
from repro.engine.pipeline import TransactionService
from repro.model.generator import WorkloadSpec, generate_transactions
from repro.storage import (
    Database,
    StorageBackend,
    UndoLog,
    VersionedBackend,
    WALBackend,
)


def _workload(seed):
    spec = WorkloadSpec(num_txns=6, ops_per_txn=4, num_items=5)
    return generate_transactions(spec, random.Random(seed))


class TestProtocol:
    @pytest.mark.parametrize(
        "backend", [Database(), WALBackend(), VersionedBackend()]
    )
    def test_structural_conformance(self, backend):
        assert isinstance(backend, StorageBackend)

    @pytest.mark.parametrize(
        "make", [Database, WALBackend, VersionedBackend]
    )
    def test_shared_semantics(self, make):
        """The five protocol methods behave identically on any backend."""
        backend = make({"x": "seed"})
        assert backend.read("x") == "seed"
        assert backend.read("missing") == 0  # virtual T0 default
        assert backend.peek("missing") is None
        assert backend.write("y", "v1") is None
        assert backend.write("y", "v2") == "v1"
        backend.restore("y", "v1")
        assert backend.peek("y") == "v1"
        backend.restore("y", None)
        assert "y" not in backend
        assert backend.snapshot() == {"x": "seed"}

    def test_databases_are_unhashable(self):
        """Database defines __eq__ and must stay explicitly unhashable —
        a mutable store must never be usable as a dict key."""
        for backend in (Database(), WALBackend(), VersionedBackend()):
            assert type(backend).__hash__ is None
            with pytest.raises(TypeError):
                hash(backend)
            with pytest.raises(TypeError):
                {backend: 1}


class TestWALBackend:
    def test_replay_reproduces_state(self):
        backend = WALBackend({"a": 1})
        backend.write("x", "v1")
        backend.write("x", "v2")
        backend.restore("x", "v1")
        backend.write("y", "w")
        replayed = WALBackend.replay(backend.log)
        assert replayed == backend
        assert replayed.log == backend.log

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_recovery_invariant_through_executor(self, seed):
        """After any executor run (including aborts/rollbacks), replaying
        the redo log rebuilds the exact final state."""
        backend = WALBackend()
        executor = PipelineExecutor(
            MTkScheduler(2), database=backend, max_attempts=4
        )
        report = executor.execute(_workload(seed), seed=seed)
        assert report.is_serializable()
        assert WALBackend.replay(backend.log).snapshot() == backend.snapshot()

    def test_replay_rejects_unknown_records(self):
        with pytest.raises(ValueError):
            WALBackend.replay([("truncate", "x", None)])


class TestVersionedBackend:
    def test_chains_grow_and_expose_history(self):
        backend = VersionedBackend()
        backend.write("x", "v1")
        backend.write("x", "v2")
        assert backend.versions_of("x") == ("v1", "v2")
        assert backend.read_version("x", 0) == "v1"
        assert backend.read_version("x", 5, default="gone") == "gone"
        assert backend.read("x") == "v2"
        assert len(backend) == 1

    def test_restore_truncates_dirty_versions(self):
        backend = VersionedBackend()
        backend.write("x", "committed")
        backend.write("x", "dirty1")
        backend.write("x", "dirty2")
        backend.restore("x", "committed")
        assert backend.versions_of("x") == ("committed",)

    def test_restore_none_drops_chain(self):
        backend = VersionedBackend()
        backend.write("x", "dirty")
        backend.restore("x", None)
        assert "x" not in backend
        backend.restore("ghost", None)  # no-op on absent items

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_final_state_matches_flat_database(self, seed):
        """Same run, flat vs versioned backend: identical final values
        (the chains only add history, never change the tip)."""
        txns = _workload(seed)
        flat = Database()
        PipelineExecutor(
            MTkScheduler(2), database=flat, max_attempts=4
        ).execute(txns, seed=seed)
        versioned = VersionedBackend()
        PipelineExecutor(
            MTkScheduler(2), database=versioned, max_attempts=4
        ).execute(txns, seed=seed)
        assert versioned == flat

    def test_undo_log_drives_any_backend(self):
        backend = VersionedBackend()
        undo = UndoLog(backend)
        before = backend.write("x", "dirty")
        undo.record_write(1, "x", before, after="dirty")
        assert undo.rollback(1) == 1
        assert "x" not in backend


class TestServiceWithBackends:
    def test_service_accepts_any_backend(self):
        for backend in (WALBackend(), VersionedBackend()):
            service = TransactionService(k=2, n_shards=2, database=backend)
            service.submit_programs(_workload(3))
            report = service.run(seed=3)
            assert report.is_serializable()
            assert service.database is backend
