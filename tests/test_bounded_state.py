"""MT(k) keeps only what a later decision can read (III-D-6b).

A committed transaction's touched-item and successor sets go at commit,
its history entries go as commits settle them, and its row goes, in
O(1), when the last ``RT``/``WT`` slot, history entry or pending reader
naming it does.  Two things are checked here: no freed row is ever
asked for again (a later ``TimestampTable.vector`` call would silently
recreate it all-undefined and corrupt every comparison against it), and
what is left is bounded by the items and the transactions in flight,
not by the length of the run.
"""

from __future__ import annotations

import pytest

from repro.core.mtk import MTkScheduler
from repro.core.table import VIRTUAL_TXN, TimestampTable
from repro.engine.pipeline import TransactionService

from tests.scheduler_streams import zipf_stream


class FreedRowAsked(AssertionError):
    """A freed row was re-materialized: something still read it."""


class GuardedTable(TimestampTable):
    """A table that remembers every row it dropped and refuses to
    recreate one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.freed: set[int] = set()

    def drop(self, txn: int) -> None:
        freed = self.rows_freed
        super().drop(txn)
        if self.rows_freed != freed:
            self.freed.add(txn)

    def _materialize(self, txn: int):
        if txn in self.freed:
            raise FreedRowAsked(f"T{txn}'s row was freed and asked for again")
        return super()._materialize(txn)


@pytest.fixture
def guarded(monkeypatch):
    """Every scheduler built under this fixture gets a guarded table;
    yields the list of tables built."""
    tables: list[GuardedTable] = []

    class Recorded(GuardedTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr("repro.core.mtk.TimestampTable", Recorded)
    return tables


# ----------------------------------------------------------------------
# No freed row is ever asked for again
# ----------------------------------------------------------------------
#: plain / anti-starvation / partial rollback x 1, 2, 4 shards, staged
#: and windowed (the windowed plane runs full rollback only).
_MATRIX = [
    pytest.param(config, n_shards, windowed, id=f"{name}-{n_shards}-{lane}")
    for name, config in (
        ("plain", {}),
        ("anti-starvation", {"anti_starvation": True}),
        ("partial-rollback", {"rollback": "partial"}),
    )
    for n_shards in (1, 2, 4)
    for windowed, lane in ((False, "staged"), (True, "windowed"))
    if not (windowed and name == "partial-rollback")
]


@pytest.mark.parametrize("config, n_shards, windowed", _MATRIX)
def test_no_freed_row_is_read_again(guarded, config, n_shards, windowed):
    extra = dict(parallel=0, window=8) if windowed else {}
    freed = 0
    for seed in range(4):
        programs, arrivals = zipf_stream(150, seed, items=12)
        service = TransactionService(
            k=3, n_shards=n_shards, max_attempts=20, **config, **extra
        )
        with service:
            service.submit_programs(programs)
            report = service.run(seed=seed, arrivals=arrivals)
        assert report.is_serializable()
        assert report.committed
        freed += sum(len(table.freed) for table in guarded)
        guarded.clear()
    assert freed > 100  # the guard saw rows go


# ----------------------------------------------------------------------
# What is left is bounded by items and transactions in flight
# ----------------------------------------------------------------------
class InFlightOnly(MTkScheduler):
    """Checks after every commit that the per-transaction sets hold
    uncommitted transactions only."""

    def commit(self, txn: int) -> None:
        super().commit(txn)
        committed = self.committed
        assert not any(t in committed for t in self._touched)
        assert not any(t in committed for t in self._successors)


def _run_prefix(monkeypatch, txns: int, partial: bool = False) -> MTkScheduler:
    """The first *txns* transactions of ``open_zipf_mt3``'s seed-1 stream
    (Zipf(1.1) over 4,096 items) through the benchmark's service."""
    from benchmarks.perf import workloads as perf

    built: list[MTkScheduler] = []

    class Recorded(InFlightOnly):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    workload = perf.BY_NAME["open_zipf_mt3"]
    inputs = perf.generate(workload, 1)
    programs = inputs.transactions[:txns]
    arrivals = {txn.txn_id: inputs.arrivals[txn.txn_id] for txn in programs}
    monkeypatch.setattr("repro.core.mtk.MTkScheduler", Recorded)
    rollback = "partial" if partial else "full"
    with TransactionService(**workload.service, rollback=rollback) as front_door:
        front_door.scheduler.partial_rollback = partial
        front_door.submit_programs(programs)
        report = front_door.run(seed=1, arrivals=arrivals)
    assert len(report.committed) > 0.99 * txns
    (scheduler,) = built
    return scheduler


@pytest.mark.parametrize("txns", [2_000, 10_000])
def test_live_state_is_bounded_by_items_and_in_flight(monkeypatch, txns):
    scheduler = _run_prefix(monkeypatch, txns)
    table = scheduler.table
    live = set(table.known_txns()) - {VIRTUAL_TXN}
    in_flight = {txn for txn in live if txn not in scheduler.committed}
    holders = set(table._rt.values()) | set(table._wt.values())
    holders.update(r for readers in scheduler.pending_readers.values() for r in readers)
    holders.discard(VIRTUAL_TXN)
    # Every row left is some item's most recent accessor, a pending
    # reader or in flight: the table grows with the items touched
    # (1,219 and 3,519 rows here, of 2,001 and 10,001), not with the run.
    assert len(live) <= len(holders) + len(in_flight)
    assert not scheduler._touched.keys() & scheduler.committed
    assert not scheduler._successors
    assert max(
        map(len, (*scheduler._readers.values(), *scheduler._writers.values()))
    ) < 10


@pytest.mark.parametrize("txns", [2_000, 10_000])
def test_successors_hold_only_in_flight_under_partial_rollback(monkeypatch, txns):
    scheduler = _run_prefix(monkeypatch, txns, partial=True)
    assert not scheduler._successors.keys() & scheduler.committed
    assert not scheduler._touched.keys() & scheduler.committed
