"""MVMT(k) reads, commits and aborts cost the transaction's own records.

Three paths of the chain layer stopped scanning chain history:

* ``VisibilityEngine.resolve_read`` gallops down the ordered chain
  instead of walking it newest-first — held, at every read, to the
  linear walk it replaced (a test-local shadow engine) and to a totally
  ordered chain, the invariant the gallop rests on;
* ``commit_dependencies`` / ``readers_of`` answer from per-transaction
  read indexes — held, after every operation, to a scan of every chain;
* ``VersionChain.retract`` finds a reader's records from its count —
  held to ``Counter(chain.reads)``, and shown to leave a second
  retraction nothing to read;
* the chain is the only per-item index — a test-local scheduler that
  still keeps Algorithm 1's ``RT``/``WT`` beside it (and restores them
  on abort) decides, pins and encodes exactly what the shadow-free one
  does;

plus the bound itself, as counts: comparisons per read do not grow with
the run.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.multiversion as multiversion
from repro.core.mtk import MTkScheduler
from repro.core.multiversion import MVMTkScheduler
from repro.core.mvcc import ReadResolution, VersionChain, VisibilityEngine
from repro.core.table import VIRTUAL_TXN, TimestampTable
from repro.core.timestamp import Ordering
from repro.engine.pipeline import TransactionService
from repro.model.generator import WorkloadSpec, generate_transactions
from repro.model.log import Log
from repro.model.operations import read, write
from repro.storage.versioned import MultiversionStore
from repro.workloads.zipf import ZipfSpec, generate_zipf_workload

from tests.scheduler_streams import drive


# ----------------------------------------------------------------------
# References: the scans the indexes and the gallop replaced
# ----------------------------------------------------------------------
def linear_walk(
    engine: VisibilityEngine,
    chain: VersionChain,
    reader: int,
    item: str | None = None,
) -> ReadResolution | None:
    """The newest-first walk ``resolve_read`` used to be."""
    newest = chain.versions[-1].writer
    for version in reversed(chain.versions):
        writer = version.writer
        if writer == reader:
            return ReadResolution(writer, None, writer == newest)
        ordering = engine._ordering_of(writer, reader)
        if ordering is Ordering.GREATER:
            continue
        fresh = writer == newest
        if ordering is Ordering.LESS:
            return ReadResolution(writer, None, fresh)
        if (
            engine._committed_of is not None
            and writer != VIRTUAL_TXN
            and not engine._committed_of(writer)
            and chain.versions[0].writer == VIRTUAL_TXN
        ):
            return ReadResolution(
                writer, (writer, item if fresh else None), fresh, skip=True
            )
        return ReadResolution(writer, (writer, item if fresh else None), fresh)
    return None


def scanned_dependencies(scheduler: MVMTkScheduler, txn: int) -> set[int]:
    """``commit_dependencies`` as a scan of every chain's read records."""
    committed = scheduler.committed
    return {
        source
        for chain in scheduler.chains().values()
        for reader, source in chain.reads
        if reader == txn
        and source not in (VIRTUAL_TXN, txn)
        and source not in committed
    }


def scanned_readers(scheduler: MVMTkScheduler, txn: int) -> set[int]:
    """``readers_of`` as a scan of every chain's read records."""
    return {
        reader
        for chain in scheduler.chains().values()
        for reader, source in chain.reads
        if source == txn and reader != txn
    }


def audit_indexes(scheduler: MVMTkScheduler) -> None:
    """Every chain's per-reader counts equal its records; both read
    indexes agree with the scans on every uncommitted reader (committed
    ones leave the indexes: nobody acts on their answers)."""
    for chain in scheduler.chains().values():
        assert chain.reader_counts == Counter(r for r, _ in chain.reads)
    committed = scheduler.committed
    txns = {
        txn
        for chain in scheduler.chains().values()
        for pair in chain.reads
        for txn in pair
    }
    txns |= set(scheduler.table.known_txns())
    txns.discard(VIRTUAL_TXN)
    for txn in txns:
        assert scheduler.readers_of(txn) == (
            scanned_readers(scheduler, txn) - committed
        )
        if txn not in committed:
            assert scheduler.commit_dependencies(txn) == scanned_dependencies(
                scheduler, txn
            )


class ShadowEngine(VisibilityEngine):
    """Runs the linear walk beside every resolution and checks the chain
    is totally ordered at that read; tallies how deep the walks went."""

    resolutions = 0
    deep = 0  # resolutions whose boundary sat past the second version

    def resolve_read(self, chain, reader, item=None):
        assert self.chain_is_ordered(chain), chain.writers()
        got = super().resolve_read(chain, reader, item)
        assert got == linear_walk(self, chain, reader, item), (
            chain.writers(), reader
        )
        cls = ShadowEngine
        cls.resolutions += 1
        if got is not None:
            index = chain.writers().index(got.source)
            cls.deep += len(chain) - 1 - index > 1
        return got


class Audited(MVMTkScheduler):
    """Audits the read indexes after every operation and lifecycle call."""

    def process(self, op):
        decision = super().process(op)
        audit_indexes(self)
        return decision

    def restart(self, txn):
        super().restart(txn)
        audit_indexes(self)

    def commit(self, txn):
        super().commit(txn)
        audit_indexes(self)

    def cascade_restart(self, txn):
        super().cascade_restart(txn)
        audit_indexes(self)

    def collect_chain_garbage(self, *args, **kwargs):
        result = super().collect_chain_garbage(*args, **kwargs)
        audit_indexes(self)
        return result

    def reclaim_committed(self, include_aborted=False):
        reclaimed = super().reclaim_committed(include_aborted)
        audit_indexes(self)
        return reclaimed


@pytest.fixture
def shadow(monkeypatch):
    """Every scheduler built from here on resolves through ShadowEngine."""
    monkeypatch.setattr(multiversion, "VisibilityEngine", ShadowEngine)
    monkeypatch.setattr(ShadowEngine, "resolutions", 0)
    monkeypatch.setattr(ShadowEngine, "deep", 0)
    return ShadowEngine


# ----------------------------------------------------------------------
# Exactness, driven by hand: every mode, commit timing and GC cadence
# ----------------------------------------------------------------------
_MODES = {
    "plain": {},
    "anti_starvation": dict(anti_starvation=True),
    "partial_rollback": dict(partial_rollback=True),
}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(sorted(_MODES)),
    commit_aware=st.booleans(),
    reclaim_every=st.sampled_from((0, 3)),
    commit_lag=st.sampled_from((0, 2, None)),
    items=st.sampled_from((2, 4)),
)
@settings(max_examples=150, deadline=None)
def test_gallop_and_indexes_match_the_scans(
    seed, mode, commit_aware, reclaim_every, commit_lag, items
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiversion, "VisibilityEngine", ShadowEngine)
        scheduler = Audited(3, commit_aware=commit_aware, **_MODES[mode])
        drive(
            scheduler, seed, items=items, commit_lag=commit_lag,
            reclaim_every=reclaim_every,
        )
        assert isinstance(scheduler.visibility, ShadowEngine)


def test_the_hand_driven_streams_walk_deep(shadow):
    """The property above is not vacuous: its streams resolve thousands
    of reads, many past the chain's two newest versions, and reclaim."""
    reclaimed = 0
    for seed in range(30):
        scheduler = Audited(3, commit_aware=seed % 2 == 0, anti_starvation=True)
        drive(scheduler, seed, items=2, reclaim_every=3)
        reclaimed += scheduler.read_records_reclaimed
    assert shadow.resolutions > 2000
    assert shadow.deep > 200
    assert reclaimed > 0


# ----------------------------------------------------------------------
# The single-version index decides nothing
# ----------------------------------------------------------------------
class Recording(MVMTkScheduler):
    """Records every decision and pin, and the live vectors after each
    operation."""

    def reset(self):
        super().reset()
        self.steps: list[tuple] = []
        self.vectors: list[dict] = []

    def _set_less(self, j, i, item):
        outcome = super()._set_less(j, i, item)
        self.steps.append(("pin", j, i, item, outcome.ok, outcome.encoded))
        return outcome

    def process(self, op):
        decision = super().process(op)
        self.steps.append((str(op), decision.status.value, decision.reason))
        self.vectors.append(self.table.snapshot())
        return decision


class KeepsShadowIndex(Recording):
    """MVMT(k) as it was before the chain became its only index: every
    accepted operation also sets ``RT``/``WT`` and extends the access
    histories, and an abort restores them through ``_maximal``."""

    def reset(self):
        super().reset()
        self.restores = 0

    def _process_read(self, op):
        decision = super()._process_read(op)
        if decision.accepted:
            readers = [reader for reader, _ in self._chains[op.item].reads]
            self.table.set_rt(op.item, self._maximal(readers))
            self._record_access(op)
        return decision

    def _process_write(self, op):
        decision = super()._process_write(op)
        if decision.accepted:
            self.table.set_wt(op.item, op.txn)
            self._record_access(op)
        return decision

    def _undo_indices(self, txn):
        self.restores += bool(self._touched.get(txn))
        MTkScheduler._undo_indices(self, txn)
        super()._undo_indices(txn)

    def commit(self, txn):
        # Its rows are chain-referenced too, which the table's count does
        # not cover: leave them to the sweep's barrier, as MVMT(k) does.
        self._touched.pop(txn, None)
        super().commit(txn)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(sorted(_MODES)),
    commit_aware=st.booleans(),
    reclaim_every=st.sampled_from((0, 3)),
    commit_lag=st.sampled_from((0, 2, None)),
)
@settings(max_examples=120, deadline=None)
def test_the_shadow_index_decides_nothing(
    seed, mode, commit_aware, reclaim_every, commit_lag
):
    options = dict(commit_aware=commit_aware, **_MODES[mode])
    run = dict(commit_lag=commit_lag, reclaim_every=reclaim_every)
    bare, shadowed = Recording(3, **options), KeepsShadowIndex(3, **options)
    assert drive(bare, seed, **run) == drive(shadowed, seed, **run)
    assert bare.steps == shadowed.steps
    # The shadow only keeps rows alive longer (RT/WT and the histories
    # shield them from reclamation); every row both hold is equal.
    for live, shadow in zip(bare.vectors, shadowed.vectors, strict=True):
        assert live.items() <= shadow.items()
    assert not bare.table._rt and not bare.table._wt
    assert not bare._readers and not bare._writers and not bare._touched


def test_the_shadow_streams_restore():
    """The property above is not vacuous: the shadow scheduler indexes
    and restores on the same streams."""
    restores = 0
    for seed in range(20):
        scheduler = KeepsShadowIndex(3, commit_aware=seed % 2 == 0)
        drive(scheduler, seed)
        assert scheduler.table._rt and scheduler.table._wt
        restores += scheduler.restores
    assert restores > 50


# ----------------------------------------------------------------------
# Exactness through the service: one shard, one and four windowed shards
# ----------------------------------------------------------------------
_SERVICES = {
    "one-shard": dict(n_shards=1),
    "one-shard-windowed": dict(n_shards=1, parallel=0, window=8),
    "four-shards-windowed": dict(n_shards=4, parallel=0, window=8),
}


@pytest.mark.parametrize("service", sorted(_SERVICES))
def test_service_runs_match_the_scans(monkeypatch, shadow, service):
    monkeypatch.setattr(multiversion, "MVMTkScheduler", Audited)
    gc_rounds = []
    real_collect = Audited.collect_chain_garbage

    def counted_collect(self, *args, **kwargs):
        gc_rounds.append(1)
        return real_collect(self, *args, **kwargs)

    monkeypatch.setattr(Audited, "collect_chain_garbage", counted_collect)
    spec = WorkloadSpec(
        num_txns=120, ops_per_txn=6, num_items=24, write_ratio=0.3, skew=1.1
    )
    committed = 0
    for seed in range(3):
        txns = generate_transactions(spec, random.Random(seed))
        rng = random.Random(seed)
        clock, arrivals = 0.0, {}
        for txn in txns:
            clock += rng.expovariate(0.3 / spec.ops_per_txn)
            arrivals[txn.txn_id] = int(clock)
        with TransactionService(
            k=3, protocol="mvmt", anti_starvation=True, max_attempts=100,
            **_SERVICES[service],
        ) as svc:
            svc.submit_programs(txns)
            report = svc.run(seed=seed, arrivals=arrivals)
        assert not report.failed
        committed += len(report.committed)
    assert committed == 3 * spec.num_txns
    assert shadow.resolutions > 500
    assert shadow.deep > 0
    if "windowed" in service:
        assert gc_rounds  # the plane's gc commands ran under the audit


# ----------------------------------------------------------------------
# Unit cases of the walk
# ----------------------------------------------------------------------
def _scheduler_with_chain(writers: int, commit_aware: bool = False):
    """A chain ``T0, T1 .. Twriters`` with ``TS(Tn) = <n+1, *, *>``."""
    scheduler = MVMTkScheduler(3, commit_aware=commit_aware)
    chain = scheduler._chain("x")
    for txn in range(1, writers + 1):
        scheduler.table.vector(txn).set(1, txn + 1)
        chain.install(txn)
    return scheduler, chain


def _resolve(scheduler, chain, reader, item="x"):
    got = scheduler.visibility.resolve_read(chain, reader, item)
    assert got == linear_walk(scheduler.visibility, chain, reader, item)
    return got


class TestWalkCases:
    def test_reader_below_every_version_reads_the_base(self):
        scheduler, chain = _scheduler_with_chain(40)
        scheduler.table.vector(99).set(1, 1)  # <1,*,*>: below T1 = <2,*,*>
        assert _resolve(scheduler, chain, 99) == ReadResolution(
            VIRTUAL_TXN, None, False
        )

    def test_reader_below_the_base_reads_nothing(self):
        scheduler, chain = _scheduler_with_chain(9)
        scheduler.table.vector(99).set(1, -1)
        assert _resolve(scheduler, chain, 99) is None

    def test_own_version_mid_chain(self):
        scheduler, chain = _scheduler_with_chain(30)
        for reader in (1, 7, 17, 29):
            assert _resolve(scheduler, chain, reader) == ReadResolution(
                reader, None, False
            )
        assert _resolve(scheduler, chain, 30) == ReadResolution(30, None, True)

    @pytest.mark.parametrize("committed", [False, True])
    def test_commit_aware_skip_at_the_boundary(self, committed):
        scheduler, chain = _scheduler_with_chain(20, commit_aware=True)
        # <12,*,*> is unordered with T11 = <12,*,*>, above T10, below T12.
        scheduler.table.vector(99).set(1, 12)
        if committed:
            scheduler.commit(11)
        assert _resolve(scheduler, chain, 99) == ReadResolution(
            11, (11, None), False, skip=not committed
        )

    def test_gc_truncated_chain_takes_the_horizon_abort(self):
        scheduler, chain = _scheduler_with_chain(12, commit_aware=True)
        del chain.versions[:6]  # what collection leaves: T6 .. T12
        scheduler.table.vector(99).set(1, 3)  # below T6 = <7,*,*>
        assert _resolve(scheduler, chain, 99) is None
        decision = scheduler.process(read(99, "x"))
        assert not decision.accepted
        assert scheduler.mv_horizon_aborts == 1
        assert scheduler.mv_read_aborts == 0
        # Unordered with the oldest retained writer: no detour past the
        # truncated floor — a dirty read, pinned.
        scheduler.table.vector(98).set(1, 7)
        assert _resolve(scheduler, chain, 98) == ReadResolution(
            6, (6, None), False
        )

    def test_one_version_chain(self):
        scheduler = MVMTkScheduler(3)
        chain = scheduler._chain("x")
        scheduler.table.vector(5).set(1, 4)
        assert _resolve(scheduler, chain, 5) == ReadResolution(
            VIRTUAL_TXN, None, True
        )
        scheduler.table.vector(6).set(1, -2)
        assert _resolve(scheduler, chain, 6) is None
        # A fresh reader is unordered with T0: pinned, then it reads.
        assert _resolve(scheduler, chain, 7) == ReadResolution(
            VIRTUAL_TXN, (VIRTUAL_TXN, "x"), True
        )
        # A truncated one-version chain serves its writer the same way.
        scheduler, chain = _scheduler_with_chain(3)
        del chain.versions[:3]
        assert _resolve(scheduler, chain, 3) == ReadResolution(3, None, True)
        scheduler.table.vector(9).set(1, 2)
        assert _resolve(scheduler, chain, 9) is None

    def test_every_boundary_of_a_long_chain(self):
        """Each depth, each verdict: the gallop lands where the walk does
        and, past the first few versions, compares less."""
        scheduler, chain = _scheduler_with_chain(64)
        compares = []
        real = scheduler.visibility._ordering_of

        def counted(a, b):
            compares[-1] += 1
            return real(a, b)

        gallop = VisibilityEngine(counted)
        for value in range(0, 68):
            scheduler.table.vector(200 + value).set(1, value)
            compares.append(0)
            got = gallop.resolve_read(chain, 200 + value, "x")
            assert got == linear_walk(
                scheduler.visibility, chain, 200 + value, "x"
            )
        # Boundary 64 deep costs the walk 64 compares; the gallop ~12.
        assert max(compares) <= 14
        assert compares[-1] == 1  # above everything: the tail decides


# ----------------------------------------------------------------------
# Indexes and counts: unit cases
# ----------------------------------------------------------------------
class TestReadIndexes:
    def test_bound_store_retracting_first_keeps_counts_exact(self):
        scheduler = MVMTkScheduler(2)
        store = MultiversionStore.bound_to(scheduler)
        for op in Log.parse("W1[x] W2[y] R3[x] R3[y] R4[x] W3[z] R3[x]"):
            assert scheduler.process(op).accepted
        chain = scheduler.chains()["x"]
        assert chain.reader_counts == {3: 2, 4: 1}
        assert scheduler.commit_dependencies(3) == {1, 2}
        assert scheduler.readers_of(1) == {3, 4}
        store.prune_aborted(3)
        for each in scheduler.chains().values():
            assert each.reader_counts == Counter(r for r, _ in each.reads)
        assert chain.reads == [(4, 1)]
        # The scheduler's own retraction follows and clears its indexes.
        assert scheduler.prune_aborted(3) == 0
        audit_indexes(scheduler)
        assert scheduler.commit_dependencies(3) == set()
        assert scheduler.readers_of(1) == {4}
        assert scheduler.readers_of(2) == set()

    def test_own_and_base_reads_are_not_dependencies(self):
        scheduler = MVMTkScheduler(2)
        for op in Log.parse("R1[y] W1[x] R1[x]"):
            assert scheduler.process(op).accepted
        assert scheduler.commit_dependencies(1) == set()
        assert scheduler.readers_of(1) == set()
        assert 1 not in scheduler._read_sources

    def test_second_prune_reads_nothing_and_compares_nothing(self, monkeypatch):
        """After ``_abort`` retracted a transaction, the executor's
        re-prune finds no index entry; a direct chain retraction of a
        transaction without records never touches the reads."""

        class Watched(list):
            touched = 0

            def _touch(self):
                Watched.touched += 1

            def __getitem__(self, index):
                self._touch()
                return super().__getitem__(index)

            def __iter__(self):
                self._touch()
                return super().__iter__()

            def __len__(self):
                self._touch()
                return super().__len__()

            def __delitem__(self, index):
                self._touch()
                return super().__delitem__(index)

        scheduler = MVMTkScheduler(2)
        for op in Log.parse("W1[z] R2[z] R2[y] R3[y] R3[z]"):
            assert scheduler.process(op).accepted
        # T2 read y below T1 while ordered above it: T1's write aborts.
        assert not scheduler.process(write(1, "y")).accepted
        assert 1 in scheduler.aborted
        compares = []
        real = TimestampTable.compare_vectors
        monkeypatch.setattr(
            TimestampTable, "compare_vectors",
            lambda table, a, b: compares.append(1) or real(table, a, b),
        )
        for chain in scheduler.chains().values():
            chain.reads = Watched(chain.reads)
        assert scheduler.prune_aborted(1) == 0
        for chain in scheduler.chains().values():
            assert chain.retract(1) == 0
            assert chain.retract(77) == 0
        assert Watched.touched == 0
        assert compares == []
        assert scheduler.readers_of(1) == {2, 3}  # outlives the retraction

    def test_retract_walks_back_to_the_earliest_record(self):
        chain = VersionChain()
        for reader in (5, 6, 5, 7, 5, 8):
            chain.record_read(reader, VIRTUAL_TXN)
        chain.install(1).validated = 6
        assert chain.retract(5) == 3
        assert chain.reads == [(6, 0), (7, 0), (8, 0)]
        assert chain.reader_counts == {6: 1, 7: 1, 8: 1}
        assert chain.versions[-1].validated == 3
        assert chain.retract(1) == 1 and chain.writers() == [VIRTUAL_TXN]


# ----------------------------------------------------------------------
# The bound, as counts: per-read cost flat in the run's length; no leak
# ----------------------------------------------------------------------
def _walk_compares_per_read(monkeypatch, txns: int) -> tuple[float, float]:
    """Comparisons per read of the gallop and of the linear walk beside
    it, over the first *txns* of one read-mostly Zipf stream."""
    programs, arrivals = generate_zipf_workload(
        ZipfSpec(num_txns=6_400, ops_per_txn=6, num_items=1024,
                 write_ratio=0.2, skew=1.1, load=0.15),
        random.Random(3),
    )
    programs = programs[:txns]
    arrivals = {txn.txn_id: arrivals[txn.txn_id] for txn in programs}
    tally = Counter()

    class Counting(VisibilityEngine):
        def __init__(self, ordering_of, committed_of=None):
            self.mode = "other"

            def counted(a, b):
                tally[self.mode] += 1
                return ordering_of(a, b)

            super().__init__(counted, committed_of)

        def resolve_read(self, chain, reader, item=None):
            tally["reads"] += 1
            self.mode = "linear"
            want = linear_walk(self, chain, reader, item)
            self.mode = "gallop"
            got = super().resolve_read(chain, reader, item)
            self.mode = "other"
            assert got == want
            return got

    with monkeypatch.context() as patch:
        patch.setattr(multiversion, "VisibilityEngine", Counting)
        with TransactionService(
            k=3, protocol="mvmt", anti_starvation=True, max_attempts=100
        ) as svc:
            svc.submit_programs(programs)
            report = svc.run(seed=3, arrivals=arrivals)
    assert not report.failed
    return tally["gallop"] / tally["reads"], tally["linear"] / tally["reads"]


def test_read_cost_does_not_grow_with_the_run(monkeypatch):
    short_gallop, short_linear = _walk_compares_per_read(monkeypatch, 1_600)
    long_gallop, long_linear = _walk_compares_per_read(monkeypatch, 6_400)
    # Four times the run, the chains grow and the walk's cost with them;
    # the gallop's stays put.
    assert long_linear > 1.5 * short_linear
    assert long_gallop < 1.5 * short_gallop
    assert short_gallop < 1.5 * long_gallop
    assert long_gallop < long_linear / 2


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_indexes_hold_only_live_uncommitted_readers(mode):
    """No leak: after ``reclaim_committed()`` every index entry names a
    live row, every reader in them is uncommitted — and once the stream
    is over, only a partially rolled back transaction that was abandoned
    with its records in place is left."""
    for seed in range(12):
        scheduler = MVMTkScheduler(3, commit_aware=True, **_MODES[mode])
        drive(scheduler, seed, txns=80, items=3, reclaim_every=5)
        scheduler.reclaim_committed()
        live = set(scheduler.table.known_txns())
        uncommitted = live - scheduler.committed
        assert set(scheduler._read_sources) <= uncommitted
        for sources in scheduler._read_sources.values():
            assert set(sources) <= live
        assert set(scheduler._source_readers) <= live
        for readers in scheduler._source_readers.values():
            assert readers and readers <= uncommitted
        if mode != "partial_rollback":
            assert not scheduler._read_sources
            assert not scheduler._source_readers
