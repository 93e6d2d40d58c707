"""Tests for the storage backend protocol: the in-memory ``Database``
and a caller's own store behind ``database=``."""

import random

import pytest

from repro.engine.pipeline import TransactionService
from repro.model.generator import WorkloadSpec, generate_transactions
from repro.storage import Database, StorageBackend, UndoLog


def _workload(seed):
    spec = WorkloadSpec(num_txns=6, ops_per_txn=4, num_items=5)
    return generate_transactions(spec, random.Random(seed))


class DictStore:
    """A caller's own store: the five protocol methods over a dict,
    sharing no code with :class:`Database`."""

    def __init__(self) -> None:
        self.items: dict = {}

    def read(self, item, default=0):
        return self.items.get(item, default)

    def peek(self, item, default=None):
        return self.items.get(item, default)

    def write(self, item, value):
        previous = self.items.get(item)
        self.items[item] = value
        return previous

    def restore(self, item, value):
        if value is None:
            self.items.pop(item, None)
        else:
            self.items[item] = value

    def snapshot(self):
        return dict(self.items)


class TestProtocol:
    @pytest.mark.parametrize("backend", [Database(), DictStore()])
    def test_structural_conformance(self, backend):
        assert isinstance(backend, StorageBackend)

    @pytest.mark.parametrize("make", [Database])
    def test_shared_semantics(self, make):
        """The five protocol methods on the in-memory database."""
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
        backend = Database()
        assert type(backend).__hash__ is None
        with pytest.raises(TypeError):
            hash(backend)
        with pytest.raises(TypeError):
            {backend: 1}

    def test_undo_log_drives_any_backend(self):
        backend = DictStore()
        undo = UndoLog(backend)
        before = backend.write("x", "dirty")
        undo.record_write(1, "x", before, after="dirty")
        assert undo.rollback(1) == 1
        assert backend.snapshot() == {}


class TestServiceWithBackends:
    def test_service_accepts_any_backend(self):
        """A caller's store ends a run in the state the default
        database would."""
        txns = _workload(3)
        finals = []
        for backend in (DictStore(), Database()):
            service = TransactionService(k=2, n_shards=2, database=backend)
            service.submit_programs(txns)
            report = service.run(seed=3)
            assert report.is_serializable()
            assert service.database is backend
            finals.append(backend.snapshot())
        assert finals[0] == finals[1]
