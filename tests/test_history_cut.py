"""The abort-time restore scan cuts the history it walks, and a commit
cuts the histories it touched (``MTkScheduler._maximal`` /
``MTkScheduler._cut``): exactness against the untruncated scan they
replaced, and the bound on what an abort costs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mtk import MTkScheduler
from repro.core.multiversion import MVMTkScheduler
from repro.core.table import VIRTUAL_TXN, TimestampTable
from repro.core.timestamp import Ordering, compare
from repro.engine.pipeline import TransactionService
from repro.model.log import Log
from repro.model.operations import read

from tests.scheduler_streams import drive, final_state, same_state, zipf_stream

CORPUS_DIR = Path(__file__).parent / "corpus"


# ----------------------------------------------------------------------
# The reference: the scan as it was before it cut anything
# ----------------------------------------------------------------------
def full_scan(vector, candidates: list[int]) -> int:
    best = VIRTUAL_TXN
    for txn in candidates:
        if best == VIRTUAL_TXN:
            best = txn
            continue
        ordering = compare(vector(best), vector(txn)).ordering
        if ordering is Ordering.LESS:
            best = txn
    return best


class FullScan:
    """Mixin: restore with the untruncated scan, cut nothing (so every
    history entry keeps its row)."""

    def _cut(self, history: list[int]) -> None:
        pass

    def _maximal(self, history: list[int]) -> int:
        return full_scan(self.table.vector, history)


class ShadowHistories:
    """Mixin: keep an untruncated copy of every access history, hold
    each production ``_maximal`` call to the full scan over the copy, and
    each ``_cut`` to dropping a prefix of it.  The copy's rows are held
    by object: a cut entry's row leaves the table once nothing references
    it, but it never changes again."""

    def reset(self) -> None:
        super().reset()
        #: id(history list) -> every surviving entry ever recorded in it
        self._shadow: dict[int, list[int]] = {}
        self._shadow_rows: dict[int, object] = {}
        self.scans = 0
        self.entries_cut = 0

    def _record_access(self, op) -> None:
        super()._record_access(op)
        history = (self._readers if op.kind.is_read else self._writers)[op.item]
        self._shadow.setdefault(id(history), []).append(op.txn)
        self._shadow_rows[op.txn] = self.table.vector(op.txn)

    def _undo_indices(self, txn: int) -> None:
        for item in self._touched.get(txn, ()):
            for history in (self._readers.get(item), self._writers.get(item)):
                shadow = self._shadow.get(id(history))
                if shadow:
                    shadow[:] = [entry for entry in shadow if entry != txn]
        super()._undo_indices(txn)

    def _maximal(self, history: list[int]) -> int:
        # Lists built for one call (MVMT's chain readers) shadow themselves.
        shadow = self._shadow.get(id(history), list(history))
        expected = full_scan(self._shadow_rows.__getitem__, shadow)
        best = super()._maximal(history)
        assert best == expected, (best, expected, history, shadow)
        self.scans += 1
        return best

    def _cut(self, history: list[int]) -> None:
        shadow = self._shadow.get(id(history), list(history))
        before = len(history)
        super()._cut(history)
        # Only a settled prefix collapsed: the rest is the shadow's tail.
        tail = history[1:]
        assert not tail or shadow[len(shadow) - len(tail):] == tail
        assert not history or history[0] in shadow
        self.entries_cut += before - len(history)


class ShadowMTk(ShadowHistories, MTkScheduler):
    pass


class FullScanMTk(FullScan, MTkScheduler):
    pass


# ----------------------------------------------------------------------
# Unit cases: what cuts, what pins the head
# ----------------------------------------------------------------------
def _chain_of_readers(scheduler: MTkScheduler, *txns: int) -> list[int]:
    for txn in txns:
        assert scheduler.process(read(txn, "x")).accepted
    return scheduler._readers["x"]


class TestCut:
    def test_committed_chain_cuts_to_one_entry(self):
        scheduler = MTkScheduler(3)
        history = _chain_of_readers(scheduler, 1, 2, 3, 4)
        for txn in (1, 2, 3, 4):
            scheduler.commit(txn)
        assert scheduler._maximal(history) == 4
        assert history == [4]

    def test_no_commit_heard_cuts_nothing(self):
        scheduler = MTkScheduler(3)
        history = _chain_of_readers(scheduler, 1, 2, 3, 4)
        assert scheduler._maximal(history) == 4
        assert history == [1, 2, 3, 4]

    def test_repeated_reader_does_not_stop_the_cut(self):
        scheduler = MTkScheduler(3)
        history = _chain_of_readers(scheduler, 1, 1, 2, 2, 3)
        # T1's commit cuts the histories it touched: its repeat goes, and
        # uncommitted T2 ends the settled prefix.
        scheduler.commit(1)
        assert history == [1, 2, 2, 3]
        # T2's commit cuts past both repeats.
        scheduler.commit(2)
        assert history == [2, 3]
        assert scheduler._maximal(history) == 3
        assert history == [2, 3]

    def test_committed_entry_below_best_does_not_stop_the_cut(self):
        scheduler = MTkScheduler(3)
        history = _chain_of_readers(scheduler, 1, 2, 3)
        history[:] = [2, 1, 3]  # 1 now compares GREATER against best
        for txn in (1, 2, 3):
            scheduler.commit(txn)
        assert scheduler._maximal(history) == 3
        assert history == [3]

    def test_uncommitted_entry_pins_the_head(self):
        scheduler = MTkScheduler(3)
        history = _chain_of_readers(scheduler, 1, 2, 3, 4)
        for txn in (1, 3, 4):
            scheduler.commit(txn)
        assert scheduler._maximal(history) == 4
        assert history == [1, 2, 3, 4]
        # ... because T2 can still abort, and then T1 is needed again.
        scheduler.commit(2)
        assert scheduler._maximal(history) == 4
        assert history == [4]

    def test_unordered_committed_pair_pins_the_head(self):
        """Two readers holding ``<3,*,*>`` (what the lines 9-10 fallback
        leaves behind) are unordered, and a later ``Set`` can still order
        them either way — the antichain stays."""
        scheduler = MTkScheduler(3)
        for txn, first in ((1, 3), (2, 3), (3, 4)):
            scheduler.table.vector(txn).set(1, first)
            scheduler.commit(txn)
        history = [1, 2, 3]
        assert scheduler._maximal(history) == 3
        assert history == [1, 2, 3]
        # Once they are ordered, the same scan cuts.
        assert scheduler.table.set_less(1, 2).ok
        assert scheduler._maximal(history) == 3
        assert history == [3]

    def test_empty_and_single_histories(self):
        scheduler = MTkScheduler(3)
        assert scheduler._maximal([]) == VIRTUAL_TXN
        assert scheduler._maximal([7]) == 7

    def test_abort_restores_from_the_cut_history(self):
        """End to end through ``_abort``: the restore that follows a cut
        still finds the accessor the full history would have named."""
        cutting, reference = ShadowMTk(3), FullScanMTk(3)
        # T4, then T5, holds RT(x) and is rejected on another item by a
        # transaction ordered above it.
        log = (
            "R1[x] R2[x] R3[x] "
            "R4[x] W4[z] R6[z] W6[q] W4[q] "
            "R5[x] W5[p] R7[p] W7[r] W5[r]"
        )
        for scheduler in (cutting, reference):
            for op in Log.parse(log).operations:
                scheduler.process(op)
                if str(op) == "R3[x]":
                    scheduler.commit(1)
                    scheduler.commit(2)
            assert scheduler.aborted == {4, 5}
            assert scheduler.table.rt("x") == 3
        assert cutting.entries_cut == 1
        assert cutting._readers["x"] == [2, 3]  # uncommitted T3 pins T2
        assert reference._readers["x"] == [1, 2, 3]
        assert same_state(final_state(cutting), final_state(reference))


# ----------------------------------------------------------------------
# Differential: every restore, every configuration
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    read_rule=st.sampled_from(MTkScheduler.READ_RULES),
    anti_starvation=st.booleans(),
    partial_rollback=st.booleans(),
    commit_lag=st.sampled_from((0, 2, 9, None)),
)
@settings(max_examples=200, deadline=None)
def test_every_restore_equals_the_full_scan(
    seed, read_rule, anti_starvation, partial_rollback, commit_lag
):
    options = dict(
        read_rule=read_rule,
        anti_starvation=anti_starvation,
        partial_rollback=partial_rollback,
    )
    cutting, reference = ShadowMTk(3, **options), FullScanMTk(3, **options)
    assert drive(cutting, seed, commit_lag=commit_lag) == drive(
        reference, seed, commit_lag=commit_lag
    )
    assert same_state(final_state(cutting), final_state(reference))
    if commit_lag is None:
        assert cutting.entries_cut == 0


def test_the_differential_streams_do_cut():
    """The property above is not vacuous: the same streams restore often
    and the restores cut."""
    scans = cut = 0
    for seed in range(40):
        scheduler = ShadowMTk(3, anti_starvation=True)
        drive(scheduler, seed)
        scans += scheduler.scans
        cut += scheduler.entries_cut
    assert scans > 400
    assert cut > 1000


# ----------------------------------------------------------------------
# Through the service: one shard, four windowed shards; MVMT(3) keeps
# no history at all
# ----------------------------------------------------------------------
def _service_run(monkeypatch, target, scheduler_class, programs, run, **service):
    """One ``TransactionService`` run with *scheduler_class* standing in
    for the class named by *target*; returns the report plus the final
    state of every scheduler the service built from it."""
    built = []

    class Recorded(scheduler_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(target, Recorded)
    with TransactionService(**service) as front_door:
        front_door.submit_programs(programs)
        report = front_door.run(**run)
    return report, [final_state(scheduler) for scheduler in built], built


@pytest.mark.parametrize(
    "target, base, service",
    [
        pytest.param(
            "repro.core.mtk.MTkScheduler",
            MTkScheduler,
            dict(k=3, anti_starvation=True),
            id="mt3-one-shard",
        ),
        pytest.param(
            "repro.engine.pipeline.parallel.MTkScheduler",
            MTkScheduler,
            dict(k=3, anti_starvation=True, n_shards=4, parallel=0, window=32),
            id="mt3-four-shards-windowed",
        ),
    ],
)
def test_service_runs_equal_the_full_scan(monkeypatch, target, base, service):
    programs, arrivals = zipf_stream(600, seed=5)
    run = dict(seed=5, arrivals=arrivals)
    shadow = type("Shadow", (ShadowHistories, base), {})
    reference = type("Reference", (FullScan, base), {})
    cut_report, cut_state, built = _service_run(
        monkeypatch, target, shadow, programs, run, **service
    )
    full_report, full_state, _ = _service_run(
        monkeypatch, target, reference, programs, run, **service
    )
    assert cut_report == full_report
    assert all(map(same_state, cut_state, full_state))
    assert len(cut_state) == len(full_state)
    assert cut_report.committed and not cut_report.failed
    assert sum(scheduler.scans for scheduler in built) > 50
    assert sum(scheduler.entries_cut for scheduler in built) > 50


@pytest.mark.parametrize(
    "service",
    [
        pytest.param(dict(), id="mvmt3-one-shard"),
        pytest.param(
            dict(n_shards=4, parallel=0, window=32),
            id="mvmt3-four-shards-windowed",
        ),
    ],
)
def test_mvmt_service_keeps_no_single_version_index(monkeypatch, service):
    """MVMT(k) decides against the version chain alone: after a run with
    aborts and cascades, no scheduler kept ``RT``/``WT`` or an access
    history, and no abort restored anything through ``_maximal``."""
    restores = 0

    class Counted(MVMTkScheduler):
        def _maximal(self, history):
            nonlocal restores
            restores += 1
            return super()._maximal(history)

    built = []

    class Recorded(Counted):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr("repro.core.multiversion.MVMTkScheduler", Recorded)
    programs, arrivals = zipf_stream(600, seed=11)
    with TransactionService(
        k=3, protocol="mvmt", anti_starvation=True, max_attempts=100, **service
    ) as front_door:
        front_door.submit_programs(programs)
        report = front_door.run(seed=11, arrivals=arrivals)
        stats = front_door.executor.stats
    assert report.committed and not report.failed
    assert stats["aborts"] > 50 and stats["cascade_restarts"] > 0
    assert built
    for scheduler in built:
        assert not scheduler.table._rt and not scheduler.table._wt
        assert not scheduler._readers and not scheduler._writers
        assert not scheduler._touched
        assert scheduler.reads_from()
    assert restores == 0


def test_line9_escape_keeps_its_outcome(monkeypatch):
    """``mt3-line9-maximal-restore.json`` restores one of two unordered
    ``<3,*,*>`` readers and keeps the other as a pending reader of
    ``x0``; the cut must neither hide nor move that — same report as the
    full scan, and serializable (the escape this case froze is closed)."""
    case = json.loads((CORPUS_DIR / "mt3-line9-maximal-restore.json").read_text())
    programs = list(Log.parse(" ".join(case["programs"])).transactions.values())
    run = dict(seed=case["seed"])
    target = "repro.core.mtk.MTkScheduler"
    cut_report, cut_state, built = _service_run(
        monkeypatch, target, ShadowMTk, programs, run, **case["service"]
    )
    full_report, full_state, _ = _service_run(
        monkeypatch, target, FullScanMTk, programs, run, **case["service"]
    )
    assert cut_report == full_report
    assert all(map(same_state, cut_state, full_state))
    assert built[0].scans > 0
    assert cut_report.is_serializable()


# ----------------------------------------------------------------------
# The bound: an abort costs the live tail, not the run so far
# ----------------------------------------------------------------------
def _restore_cost(monkeypatch, txns: int) -> tuple[float, float, int]:
    """Comparisons made inside ``_maximal`` per abort (restores) and per
    commit (the commit-time cut), and the longest history left standing,
    for the first *txns* of one Zipf(1.1) stream (counts, not clocks)."""
    compares = restore_compares = cut_compares = 0
    real = TimestampTable.compare_vectors

    def counted(self, left, right):
        nonlocal compares
        compares += 1
        return real(self, left, right)

    class Counted(MTkScheduler):
        committing = False

        def commit(self, txn):
            self.committing = True
            super().commit(txn)
            self.committing = False

        def _cut(self, history):
            nonlocal cut_compares
            before = compares
            super()._cut(history)
            if self.committing:
                cut_compares += compares - before

        def _maximal(self, history):
            nonlocal restore_compares
            before = compares
            best = super()._maximal(history)
            restore_compares += compares - before
            return best

    programs, arrivals = zipf_stream(8000, seed=11)
    programs = programs[:txns]
    arrivals = {txn.txn_id: arrivals[txn.txn_id] for txn in programs}
    with monkeypatch.context() as patch:
        patch.setattr(TimestampTable, "compare_vectors", counted)
        report, _, built = _service_run(
            patch,
            "repro.core.mtk.MTkScheduler",
            Counted,
            programs,
            dict(seed=11, arrivals=arrivals),
            k=3,
            anti_starvation=True,
        )
    scheduler = built[0]
    aborts = scheduler.stats["rejected"]
    assert aborts > txns // 4
    longest = max(
        len(history)
        for history in (*scheduler._readers.values(), *scheduler._writers.values())
    )
    return (
        restore_compares / aborts,
        cut_compares / len(report.committed),
        longest,
    )


def test_restore_cost_does_not_grow_with_the_run(monkeypatch):
    short_restore, short_cut, short_longest = _restore_cost(monkeypatch, 2000)
    long_restore, long_cut, long_longest = _restore_cost(monkeypatch, 8000)
    # Four times the run, the same small cost per abort and per commit
    # (the full scan's grew ≈linearly with the run) ...
    # (0.0 and 0.001 restore, 2.8 and 2.9 cut comparisons here) ...
    assert short_restore < 1 and long_restore < 1
    assert short_cut < 4 and long_cut < 4
    assert long_cut < 1.5 * short_cut
    assert short_cut < 1.5 * long_cut
    # ... and no history longer than a handful: commits cut them.
    assert short_longest < 10
    assert long_longest < 10
