"""Version-chain invariants for the rebuilt MVMT(k) (PR 10).

Property suite over the multiversion storage/visibility split:

* chain ordering is *total* per item (writer vectors strictly ascend),
* ``read_source`` is stable — replaying the identical log after a
  ``reset()`` reproduces the oracle surface bit-for-bit (the PR-1
  ``reset()`` bug family, now for chains/indices),
* garbage collection never reclaims a version a live transaction can
  still see (resolutions before and after a collection agree),
* the executor's abort path leaves no aborted writer in any chain even
  under an abort storm (the ``prune_aborted`` hook), and
* the commit-dependency gate: dirty readers park, commit when their
  source commits, cascade when it rolls back,
* the validated prefix: every read record below a version's boundary
  has a reader ordered below that version's writer, whatever aborts,
  restarts, commits and collections happened in between, and
* bounded write validation decides exactly what the replaced full scan
  decided (differential test against a test-local reference scheduler).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.multiversion as multiversion
from repro.analysis.invariants import check_all
from repro.core.multiversion import MVDMTkScheduler, MVMTkScheduler
from repro.core.mvcc import ReaderCheck, VersionChain, VisibilityEngine
from repro.core.table import VIRTUAL_TXN
from repro.core.timestamp import Ordering
from repro.model.generator import WorkloadSpec, generate_transactions, random_log
from repro.model.log import Log
from repro.model.operations import Operation, OpKind
from tests.conftest import small_logs


def _oracle_surface(scheduler: MVMTkScheduler, log: Log):
    accepted = scheduler.accepts(log)
    return (
        accepted,
        sorted(scheduler.reads_from()),
        {item: scheduler.version_chain(item) for item in log.items},
        {
            (txn, item): scheduler.read_source(txn, item)
            for txn in log.transactions
            for item in log.items
        },
    )


class TestChainTotalOrdering:
    @given(small_logs(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=200)
    def test_every_chain_is_totally_ordered(self, log, k):
        """The visibility engine's core invariant: installs only append,
        so writer vectors strictly ascend along every chain."""
        scheduler = MVMTkScheduler(k)
        scheduler.run(log, stop_on_reject=True)
        engine: VisibilityEngine = scheduler.visibility
        for chain in scheduler.chains().values():
            assert engine.chain_is_ordered(chain)

    @given(small_logs())
    @settings(max_examples=100)
    def test_commit_aware_walk_keeps_chains_ordered(self, log):
        """Same invariant with the pipeline's commit-aware oracle wired
        in (detour pins must not break the append-only discipline)."""
        scheduler = MVMTkScheduler(3, commit_aware=True)
        scheduler.run(log, stop_on_reject=True)
        for chain in scheduler.chains().values():
            assert scheduler.visibility.chain_is_ordered(chain)


def _prefix_violations(scheduler: MVMTkScheduler) -> list[tuple]:
    """Records inside a validated prefix whose reader is neither the
    version's writer nor ordered strictly below it."""
    bad = []
    for item, chain in scheduler.chains().items():
        for version in chain.versions:
            assert 0 <= version.validated <= len(chain.reads)
            for reader, source in chain.reads[: version.validated]:
                if reader == version.writer:
                    continue
                if scheduler._ordering_of(reader, version.writer) is not Ordering.LESS:
                    bad.append((item, version.writer, reader, source))
    return bad


class TestValidatedPrefix:
    @given(
        small_logs(max_txns=5, max_ops=5),
        st.integers(min_value=2, max_value=4),
        st.booleans(),
        st.sampled_from(["plain", "anti_starvation", "partial_rollback"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_prefix_readers_sit_below_the_version_writer(
        self, log, k, commit_aware, mode, rng
    ):
        """After every operation — accepted or rejected, with restarts,
        commits and grace-1 collections interleaved — each record in
        ``reads[:v.validated]`` has ``reader == v.writer`` or
        ``TS(reader) < TS(v.writer)``, chains stay totally ordered, and
        every table/chain invariant of ``check_all`` holds (no chain
        entry of an aborted transaction, in particular)."""
        scheduler = MVMTkScheduler(
            k,
            commit_aware=commit_aware,
            anti_starvation=mode == "anti_starvation",
            partial_rollback=mode == "partial_rollback",
        )
        remaining = {
            txn: program.num_operations
            for txn, program in log.transactions.items()
        }
        for op in log:
            scheduler.process(op)
            assert not _prefix_violations(scheduler), op
            check_all(scheduler)
            if op.txn in scheduler.aborted:
                # Same id, fresh attempt: the flush (or the re-seed kept
                # by a partial rollback) must not strand a stale prefix.
                scheduler.restart(op.txn)
                assert not _prefix_violations(scheduler), op
            remaining[op.txn] -= 1
            if remaining[op.txn] == 0 and rng.random() < 0.7:
                scheduler.commit(op.txn)
            if rng.random() < 0.2:
                scheduler.collect_chain_garbage(grace=1)
                assert not _prefix_violations(scheduler), op
        for chain in scheduler.chains().values():
            assert scheduler.visibility.chain_is_ordered(chain)

    def test_tail_retract_falls_back_to_predecessor_boundary(self):
        chain = VersionChain()
        chain.record_read(5, VIRTUAL_TXN)
        chain.install(1).validated = 1
        chain.record_read(6, 1)
        chain.install(2).validated = 2
        assert chain.versions[-1].validated == 2
        assert chain.retract(2) == 1
        assert chain.newest == 1
        assert chain.versions[-1].validated == 1
        # ... and all the way down to the base version's "assume nothing".
        chain.retract(1)
        assert chain.newest == VIRTUAL_TXN
        assert chain.versions[-1].validated == 0

    def test_retracting_a_reader_shifts_later_boundaries(self):
        chain = VersionChain()
        for reader in (5, 6, 7):
            chain.record_read(reader, VIRTUAL_TXN)
        chain.install(1).validated = 1  # covers (5, 0)
        chain.install(2).validated = 3  # covers all three
        assert chain.retract(6) == 1
        assert chain.reads == [(5, 0), (7, 0)]
        assert [v.validated for v in chain.versions] == [0, 1, 2]
        assert chain.retract(5) == 1
        assert [v.validated for v in chain.versions] == [0, 0, 1]
        # A reader holding several records drops them all at once.
        chain.record_read(7, 2)
        chain.versions[-1].validated = 2
        assert chain.retract(7) == 2
        assert chain.reads == []
        assert [v.validated for v in chain.versions] == [0, 0, 0]

    def test_gc_that_reclaims_reads_resets_boundaries(self):
        def collect(chain):
            return chain.collect(
                committed=lambda txn: True,
                settled=lambda txn: True,
                strictly_below=lambda a, b: a < b,
            )

        chain = VersionChain()
        chain.record_read(1, VIRTUAL_TXN)
        chain.install(2).validated = 1
        chain.record_read(3, 2)
        chain.install(4).validated = 2
        assert collect(chain) == (2, 2)
        assert chain.writers() == [4] and chain.reads == []
        assert chain.versions[0].validated == 0

        # Versions alone going away leaves the surviving boundary valid:
        # it indexes read records, and none moved.
        chain = VersionChain()
        chain.record_read(9, VIRTUAL_TXN)
        chain.install(2)
        chain.install(4).validated = 1
        assert collect(chain) == (2, 0)
        assert chain.versions[0].validated == 1

    def test_safe_verdict_blocks_boundary_advance(self):
        """A SAFE reader sits *above* the installing writer, so the next
        tail writer is not above it by transitivity: the prefix stops
        short of the record and the next write classifies it again."""
        scheduler = MVMTkScheduler(2)
        # T1 < T2 and T1 < T3; (2, 3) is a read whose source T3 was since
        # retracted from the chain — the only way a source can sit above
        # an installing tail writer.
        assert scheduler._set_less(1, 2, None).ok
        assert scheduler._set_less(1, 3, None).ok
        chain = scheduler._chain("x")
        chain.record_read(2, 3)
        assert (
            scheduler.visibility.classify_reader(2, 3, 1) is ReaderCheck.SAFE
        )
        assert scheduler.process(Operation(OpKind.WRITE, 1, "x")).accepted
        assert chain.newest == 1
        assert chain.versions[-1].validated == 0
        # An UNAFFECTED record after it does not lift the boundary over
        # the SAFE one on a repeat write either.
        assert scheduler._set_less(4, 1, None).ok
        chain.record_read(4, VIRTUAL_TXN)
        assert scheduler.process(Operation(OpKind.WRITE, 1, "x")).accepted
        assert chain.versions[-1].validated == 0

    def test_unaffected_and_pinned_readers_advance_the_boundary(self):
        scheduler = MVMTkScheduler(2)
        for op in Log.parse("R1[x] R2[x] W3[x] R4[x] W5[x]"):
            assert scheduler.process(op).accepted
        chain = scheduler.chains()["x"]
        assert chain.writers() == [VIRTUAL_TXN, 3, 5]
        assert [v.validated for v in chain.versions] == [0, 2, 3]
        assert not _prefix_violations(scheduler)


class TestChainIndex:
    def test_readers_of_survives_the_sources_own_abort(self):
        """The executor asks ``readers_of(t)`` *after* the scheduler's
        ``_abort`` retracted ``t`` — records sourced from ``t`` outlive
        it, so the index must still lead to them (popping the entry at
        retraction silently lost every cascade)."""
        scheduler = MVMTkScheduler(2)
        for op in Log.parse("W1[z] R2[z] R2[y]"):
            assert scheduler.process(op).accepted
        assert scheduler.readers_of(1) == {2}
        # T2 read y below T1's write while ordered above T1: invalidated.
        assert not scheduler.process(Operation(OpKind.WRITE, 1, "y")).accepted
        assert 1 in scheduler.aborted
        assert scheduler.version_chain("z") == [VIRTUAL_TXN]
        assert scheduler.readers_of(1) == {2}
        assert scheduler.commit_dependencies(2) == {1}
        # ... and through the explicit prune and the restart as well.
        scheduler.prune_aborted(1)
        scheduler.restart(1)
        assert scheduler.readers_of(1) == {2}
        # The cascade retracts the dirty reader; nothing dangles.
        scheduler.cascade_restart(2)
        assert scheduler.readers_of(1) == set()
        assert scheduler.commit_dependencies(2) == set()
        assert scheduler.reads_from() == []

    def test_read_source_is_dropped_on_retraction(self):
        scheduler = MVMTkScheduler(2)
        for op in Log.parse("W1[x] R2[x] W2[x] R2[y]"):
            assert scheduler.process(op).accepted
        # The write did not clobber the read's source.
        assert scheduler.read_source(2, "x") == 1
        assert scheduler.read_source(2, "y") == VIRTUAL_TXN
        assert scheduler.read_source(2, "z") is None
        assert scheduler.read_source(3, "x") is None
        assert scheduler.prune_aborted(2) == 3
        assert scheduler.read_source(2, "x") is None
        assert scheduler.read_source(2, "y") is None
        assert scheduler.prune_aborted(2) == 0  # idempotent

    def test_reclaimed_rows_leave_the_index(self):
        scheduler = MVMTkScheduler(2)
        for op in Log.parse("W1[x] W2[x] W3[x]"):
            assert scheduler.process(op).accepted
        for txn in (1, 2, 3):
            scheduler.commit(txn)
        assert scheduler.reclaim_committed() >= 1
        assert scheduler.version_chain("x") == [3]
        assert set(scheduler._chain_index) <= set(scheduler.table.known_txns())
        assert 3 in scheduler._chain_index


# ----------------------------------------------------------------------
# Differential: bounded validation vs the full scan it replaced
# ----------------------------------------------------------------------
_DECISIONS: list[tuple] = []


class _Recording:
    def _observe(self, decision):
        _DECISIONS.append((decision.status, decision.op, decision.reason))
        super()._observe(decision)


class _FullScan:
    """The replaced algorithm: forget the tail's validated prefix before
    every write, so every recorded read is classified again."""

    def _process_write(self, op):
        self._chain(op.item).versions[-1].validated = 0
        return super()._process_write(op)


class _Subject(_Recording, MVMTkScheduler):
    pass


class _SubjectDMT(_Recording, MVDMTkScheduler):
    pass


class _Reference(_Recording, _FullScan, MVMTkScheduler):
    pass


class _ReferenceDMT(_Recording, _FullScan, MVDMTkScheduler):
    pass


_STREAMS = {
    "rw3": (
        WorkloadSpec(
            num_txns=120, ops_per_txn=3, num_items=64, write_ratio=0.5,
            skew=1.1,
        ),
        0.3,
    ),
    "readmostly6": (
        WorkloadSpec(
            num_txns=120, ops_per_txn=6, num_items=48, write_ratio=0.2,
            skew=1.1,
        ),
        0.3,
    ),
}
_SERVICES = {
    "shards1": dict(n_shards=1),
    "shards4": dict(n_shards=4),
    "shards4-windowed": dict(n_shards=4, parallel=0, window=8),
}


class TestBoundedValidationMatchesFullScan:
    @pytest.fixture
    def classify_calls(self, monkeypatch):
        calls = [0]
        original = VisibilityEngine.classify_reader

        def counting(engine, reader, source, writer):
            calls[0] += 1
            return original(engine, reader, source, writer)

        monkeypatch.setattr(VisibilityEngine, "classify_reader", counting)
        return calls

    def _surface(self, monkeypatch, classes, calls, spec, load, seed, service):
        from repro.engine.pipeline.sessions import TransactionService

        # ShardSet and ShardEngine import the scheduler classes from the
        # module at construction time, so the swap reaches every plane.
        monkeypatch.setattr(multiversion, "MVMTkScheduler", classes[0])
        monkeypatch.setattr(multiversion, "MVDMTkScheduler", classes[1])
        _DECISIONS.clear()
        calls[0] = 0
        txns = generate_transactions(spec, random.Random(seed))
        rng = random.Random(seed)
        clock, arrivals = 0.0, {}
        for txn in txns:
            clock += rng.expovariate(load / spec.ops_per_txn)
            arrivals[txn.txn_id] = int(clock)
        with TransactionService(
            k=3, protocol="mvmt", anti_starvation=True, max_attempts=100,
            **service,
        ) as svc:
            svc.submit_programs(txns)
            report = svc.run(seed=seed, arrivals=arrivals)
            scheduler = svc.scheduler
            stats = svc.executor.stats
            surface = dict(
                decisions=list(_DECISIONS),
                aborted=set(scheduler.aborted),
                reads_from=sorted(scheduler.reads_from()),
                chains={
                    item: scheduler.version_chain(item)
                    for item in sorted(scheduler.chains())
                },
                vectors=scheduler.table.snapshot(),
                report=(
                    sorted(report.committed), sorted(report.failed),
                    report.restarts, report.ops_executed,
                    report.ops_reexecuted, report.undo_count,
                    report.ignored_writes, list(report.committed_ops),
                ),
                stats={
                    name: stats.get(name, 0)
                    for name in (
                        "aborts", "commit_parks", "cascade_restarts",
                        "dependency_cycle_restarts",
                    )
                },
            )
        return surface, calls[0]

    @pytest.mark.parametrize("service", sorted(_SERVICES))
    @pytest.mark.parametrize("stream", sorted(_STREAMS))
    def test_identical_decisions_fewer_classifications(
        self, monkeypatch, classify_calls, stream, service
    ):
        spec, load = _STREAMS[stream]
        parks = cascades = 0
        for seed in range(8):
            got, bounded = self._surface(
                monkeypatch, (_Subject, _SubjectDMT), classify_calls,
                spec, load, seed, _SERVICES[service],
            )
            want, full = self._surface(
                monkeypatch, (_Reference, _ReferenceDMT), classify_calls,
                spec, load, seed, _SERVICES[service],
            )
            for name in want:
                assert got[name] == want[name], (stream, service, seed, name)
            assert got["decisions"], "the recording subclass was not used"
            assert bounded < full, (stream, service, seed, bounded, full)
            parks += got["stats"]["commit_parks"]
            cascades += got["stats"]["cascade_restarts"]
        if stream == "readmostly6":
            # The read-mostly stream is there for the park/cascade paths
            # (readers_of / commit_dependencies through the chain index).
            assert parks > 0 and cascades > 0

    @pytest.mark.parametrize("anti_starvation", [False, True])
    def test_partial_rollback_matches_full_scan(self, anti_starvation):
        """A partial rollback re-seeds a vector whose chain entries stay
        in place; without the boundary reset in ``_abort`` one stream in
        four diverged from the full scan here."""
        from repro.engine.pipeline import PipelineExecutor

        spec = WorkloadSpec(
            num_txns=40, ops_per_txn=4, num_items=8, write_ratio=0.5,
            skew=1.1,
        )
        partials = 0
        for seed in range(12):
            surfaces = []
            for cls in (_Subject, _Reference):
                _DECISIONS.clear()
                scheduler = cls(
                    3, partial_rollback=True, commit_aware=True,
                    anti_starvation=anti_starvation,
                )
                executor = PipelineExecutor(
                    scheduler, max_attempts=50, rollback="partial"
                )
                report = executor.execute(
                    generate_transactions(spec, random.Random(seed)),
                    seed=seed,
                )
                executor.close()
                surfaces.append(
                    (
                        list(_DECISIONS), sorted(report.committed),
                        report.restarts, scheduler.table.snapshot(),
                        sorted(scheduler.reads_from()),
                    )
                )
            assert surfaces[0] == surfaces[1], seed
            partials += sum(
                1
                for event in scheduler.events.events("abort")
                if event.detail.get("partial")
            )
        assert partials > 0  # the preserved-effects path actually ran


class TestResetThenReplay:
    @given(small_logs(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=200)
    def test_replay_after_reset_is_identical(self, log, k):
        """Satellite: ``reset()`` must fully rebuild chains and indices —
        a stale chain or visibility table would shift decisions or the
        reads-from relation on the second run."""
        scheduler = MVMTkScheduler(k)
        first = _oracle_surface(scheduler, log)
        second = _oracle_surface(scheduler, log)  # accepts() resets first
        assert first == second

    def test_reset_rebinds_visibility_engine(self):
        """The engine must compare against the *current* table — holding
        the pre-reset oracle would replay the PR-1 reset bug family."""
        scheduler = MVMTkScheduler(2)
        before = scheduler.visibility
        scheduler.accepts(Log.parse("W1[x] R2[x]"))
        scheduler.reset()
        assert scheduler.visibility is not before
        assert scheduler.version_chain("x") == [VIRTUAL_TXN]


class TestGCVisibility:
    @given(small_logs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=200)
    def test_collection_preserves_live_resolutions(self, log, commits):
        """GC never reclaims a version a live transaction could still
        read: with an arbitrary prefix of transactions committed, every
        active transaction resolves each item to the same version before
        and after ``collect_chain_garbage``."""
        scheduler = MVMTkScheduler(3)
        scheduler.run(log, stop_on_reject=True)
        txns = sorted(log.transactions)
        for txn in txns[:commits]:
            if txn not in scheduler.aborted:
                scheduler.commit(txn)
        # Aborted transactions are excluded: GC deliberately drops them
        # from the watermark's active set (their restart re-enters with a
        # fresh vector), so their stale resolutions may legally change.
        active = [
            t
            for t in txns[commits:]
            if t not in scheduler.aborted
        ]
        before = {
            (txn, item): resolution.source
            for txn in active
            for item, chain in scheduler.chains().items()
            for resolution in [scheduler.visibility.resolve_read(chain, txn)]
            if resolution is not None and not resolution.skip
        }
        scheduler.collect_chain_garbage()
        for (txn, item), source in before.items():
            resolution = scheduler.visibility.resolve_read(
                scheduler.chains()[item], txn
            )
            assert resolution is not None, (txn, item)
            assert resolution.source == source

    @given(small_logs())
    @settings(max_examples=100)
    def test_collection_keeps_chains_servable(self, log):
        """Even with everything committed, a collected chain still
        serves at least one version (the watermark survives)."""
        scheduler = MVMTkScheduler(3)
        scheduler.run(log, stop_on_reject=True)
        for txn in log.transactions:
            scheduler.commit(txn)
        scheduler.collect_chain_garbage()
        for item in log.items:
            assert len(scheduler.version_chain(item)) >= 1


class TestAbortStormPruning:
    def test_no_aborted_writer_lingers_after_storm(self):
        """Satellite: drive a write-heavy hot-set workload through the
        executor with a tight retry budget (an abort storm) and assert
        the ``prune_aborted`` hook left no aborted version behind — and
        that chains stay bounded by the committed-writer count."""
        from repro.engine.pipeline import PipelineExecutor

        spec = WorkloadSpec(
            num_txns=24, ops_per_txn=5, num_items=4, write_ratio=0.8,
            skew=1.2,
        )
        txns = generate_transactions(spec, random.Random(7))
        scheduler = MVMTkScheduler(3, commit_aware=True)
        executor = PipelineExecutor(scheduler, max_attempts=3)
        report = executor.execute(txns, seed=7)
        executor.close()
        assert report.restarts > 0  # the storm actually happened
        allowed = set(report.committed) | {VIRTUAL_TXN}
        for item, chain in scheduler.chains().items():
            writers = chain.writers()
            assert set(writers) <= allowed, (item, writers)
            assert len(writers) <= len(allowed)
            # Read records of failed transactions are pruned too.
            readers = {reader for reader, _ in chain.reads}
            assert readers <= allowed | set(report.committed)


class TestCommitDependencies:
    def _service(self):
        from repro.engine.pipeline.sessions import TransactionService

        return TransactionService(k=2, protocol="mvmt")

    def test_dirty_reader_parks_until_source_commits(self):
        """T1 reads T2's uncommitted version (T1 was already ordered
        above T2, so the commit-aware walk cannot detour) and finishes
        first: it must park, then commit after T2 does."""
        svc = self._service()
        log = Log.parse("W1[z] R2[z] W2[x] R1[x] R2[y]")
        svc.submit_programs(list(log.transactions.values()))
        report = svc.run(schedule=log)
        assert sorted(report.committed) == [1, 2]
        assert not report.failed
        assert svc.executor.stats.get("commit_parks", 0) >= 1

    def test_source_rollback_cascades_the_reader(self):
        """Extend the park scenario so the source's next write is
        rejected: the parked dirty reader must cascade-restart (not
        commit a read of a retracted version) and both must finish."""
        svc = self._service()
        log = Log.parse("W1[z] R2[z] W2[x] R1[x] W1[y] W2[y]")
        svc.submit_programs(list(log.transactions.values()))
        report = svc.run(schedule=log)
        assert sorted(report.committed) == [1, 2]
        assert svc.executor.stats.get("cascade_restarts", 0) >= 1
        # The final state is clean: every surviving read comes from a
        # committed writer or the initial version.
        committed = set(report.committed) | {VIRTUAL_TXN}
        for reader, _item, source in svc.scheduler.reads_from():
            assert source in committed

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_committed_reads_never_source_uncommitted(self, seed):
        """Recoverability, fuzzed: whatever the interleaving, a committed
        transaction's reads only come from committed sources (the park /
        cascade machinery closes the dirty-read window)."""
        spec = WorkloadSpec(
            num_txns=8, ops_per_txn=4, num_items=6, write_ratio=0.5
        )
        log = random_log(spec, random.Random(seed))
        svc = self._service()
        svc.submit_programs(list(log.transactions.values()))
        report = svc.run(schedule=log)
        committed = set(report.committed) | {VIRTUAL_TXN}
        for reader, _item, source in svc.scheduler.reads_from():
            if reader in committed:
                assert source in committed, (reader, source)


class TestWindowedT0Claim:
    """The virtual ``T_0 = <0, *, *>`` row is writable: ``Set(0, i)``
    for a vector that ties ``TS(0, 1) = 0`` (one pinned below a writer
    holding ``1``, say) decides at ``T_0``'s first undefined element and
    encodes into it.  So a windowed MVMT entry claims ``T_0`` while its
    item's chain references it, and no window has two shards writing
    it."""

    @staticmethod
    def _t0_writers_per_window(monkeypatch) -> list[set[int]]:
        from repro.engine.pipeline import parallel

        windows: list[set[int]] = []
        writers: set[int] = set()
        run_batch = parallel.ShardEngine.run_batch
        merge = parallel.ParallelShardSet._merge_replies

        def watched_batch(self, batch):
            row = self.scheduler.table.vector(VIRTUAL_TXN)
            before = row.version
            decisions = run_batch(self, batch)
            if row.version != before:
                writers.add(self.shard_id)
            return decisions

        def closing_merge(self, replies):
            windows.append(set(writers))
            writers.clear()
            return merge(self, replies)

        monkeypatch.setattr(parallel.ShardEngine, "run_batch", watched_batch)
        monkeypatch.setattr(
            parallel.ParallelShardSet, "_merge_replies", closing_merge
        )
        return windows

    @staticmethod
    def _run(seed: int) -> None:
        from repro.engine.pipeline import TransactionService
        from repro.model.generator import interleave

        spec = WorkloadSpec(
            num_txns=60, ops_per_txn=3, num_items=8, write_ratio=0.5,
            skew=1.1,
        )
        rng = random.Random(seed)
        txns = generate_transactions(spec, rng)
        with TransactionService(
            k=3, n_shards=4, parallel=0, window=8, protocol="mvmt",
            anti_starvation=True, max_attempts=100,
        ) as service:
            service.submit_programs(txns)
            service.run(schedule=interleave(txns, rng))

    def test_fresh_and_base_holding_items_claim_t0(self):
        chain = VersionChain()
        assert VIRTUAL_TXN in chain.referenced_txns()
        chain.install(5)
        chain.record_read(6, 5)
        assert chain.referenced_txns() == {VIRTUAL_TXN, 5, 6}
        del chain.versions[0]  # what collection does to the base
        assert chain.referenced_txns() == {5, 6}

    @pytest.mark.parametrize("seed", [1, 9])
    def test_t0_has_one_writing_shard_per_window(self, monkeypatch, seed):
        windows = self._t0_writers_per_window(monkeypatch)
        self._run(seed)
        assert any(windows), "the stream must write T0 for this to bite"
        assert all(len(shards) <= 1 for shards in windows)

    @pytest.mark.parametrize("seed", [1, 9])
    def test_without_the_claim_two_shards_write_t0(self, monkeypatch, seed):
        """The claim is load-bearing: plan the same stream with ``T_0``
        filtered out of every entry's rows and two shards write it in
        one window."""
        from repro.engine.pipeline.parallel import ParallelShardSet

        item_rows = ParallelShardSet.item_rows
        monkeypatch.setattr(
            ParallelShardSet,
            "item_rows",
            lambda self, item: tuple(
                row for row in item_rows(self, item) if row != VIRTUAL_TXN
            ),
        )
        windows = self._t0_writers_per_window(monkeypatch)
        self._run(seed)
        assert any(len(shards) > 1 for shards in windows)
