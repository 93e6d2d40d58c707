"""Tests for timestamp-table storage reclamation (III-D-6a/b)."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.mtk import MTkScheduler
from repro.core.table import TimestampTable
from repro.engine.pipeline import PipelineExecutor
from repro.model.generator import WorkloadSpec, generate_transactions
from repro.model.log import Log
from repro.model.operations import read, write

from tests.scheduler_streams import drive, indices


class TestReclaim:
    def test_committed_unreferenced_rows_are_freed(self):
        scheduler = MTkScheduler(2)
        scheduler.process(read(1, "x"))
        scheduler.process(write(1, "x"))
        scheduler.commit(1)
        # T1 is still RT(x)/WT(x): not reclaimable yet.
        assert scheduler.reclaim_committed() == 0
        scheduler.process(read(2, "x"))
        scheduler.process(write(2, "x"))
        assert 1 in scheduler.table.known_txns()  # still in x's histories
        scheduler.commit(2)
        # Now T2 supersedes T1 everywhere: T2's commit cuts T1's history
        # entries, and T1's row goes with its last reference — before
        # any sweep runs.
        assert 1 not in scheduler.table.known_txns()
        assert scheduler.reclaim_committed() == 0

    def test_uncommitted_rows_survive(self):
        scheduler = MTkScheduler(2)
        scheduler.process(read(1, "x"))
        assert scheduler.reclaim_committed() == 0
        assert 1 in scheduler.table.known_txns()

    def test_decisions_unchanged_after_reclaim(self):
        """Reclamation must be invisible to scheduling decisions."""
        ops = [
            read(1, "x"), write(1, "x"),
            read(2, "x"), write(2, "x"),
            read(3, "x"), write(3, "y"),
        ]
        plain = MTkScheduler(2)
        reclaiming = MTkScheduler(2)
        for index, op in enumerate(ops):
            d1 = plain.process(op)
            d2 = reclaiming.process(op)
            assert d1.status == d2.status
            if index == 3:
                for s in (plain, reclaiming):
                    s.commit(1)
                    s.commit(2)
                reclaiming.reclaim_committed()

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_reclaim_preserves_serializability(self, seed):
        """Executor workload with periodic reclamation stays serializable
        and the live table stays bounded by the active transactions."""
        spec = WorkloadSpec(num_txns=9, ops_per_txn=3, num_items=10)
        txns = generate_transactions(spec, random.Random(seed))
        scheduler = MTkScheduler(3, anti_starvation=True)
        executor = PipelineExecutor(scheduler, max_attempts=8)
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()
        before = scheduler.table_size
        scheduler.reclaim_committed()
        after = scheduler.table_size
        assert after <= before
        # Still-referenced rows: at most one reader + one writer per item,
        # plus any non-committed stragglers.
        assert after <= 2 * spec.num_items + len(report.failed)

    def test_one_table_scan_per_sweep(self, monkeypatch):
        """The sweep reads the live rows once and asks each row's
        reference count — not a ``known_txns()`` and an ``RT``/``WT`` scan
        per candidate, which made it O(rows * (rows + items))."""
        scans = {"known_txns": 0, "_rows": 0}
        for name in scans:
            real = getattr(TimestampTable, name)

            def counted(self, *args, _real=real, _name=name):
                scans[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(TimestampTable, name, counted)
        scheduler = MTkScheduler(3)
        for txn in range(1, 301):
            for op in (read(txn, f"x{txn % 7}"), write(txn, f"y{txn % 5}")):
                if txn not in scheduler.aborted:
                    scheduler.process(op)
            if txn not in scheduler.aborted:
                scheduler.commit(txn)
        for include_aborted in (False, True):
            scans.update(known_txns=0, _rows=0)
            scheduler.reclaim_committed(include_aborted=include_aborted)
            assert scans == {"known_txns": 1, "_rows": 0}

    def test_long_run_table_stays_bounded(self):
        """III-D-6a: with 8-10 active transactions at a time, periodic
        reclamation keeps the table near the multiprogramming level even
        over a long stream of transactions."""
        scheduler = MTkScheduler(3)
        rng = random.Random(0)
        items = [f"x{i}" for i in range(6)]
        peak_after_reclaim = 0
        for batch in range(20):
            base = batch * 9
            for txn in range(base + 1, base + 10):
                for _ in range(3):
                    item = rng.choice(items)
                    op = (
                        read(txn, item)
                        if rng.random() < 0.6
                        else write(txn, item)
                    )
                    if txn in scheduler.aborted:
                        break
                    scheduler.process(op)
                if txn not in scheduler.aborted:
                    scheduler.commit(txn)
            scheduler.reclaim_committed(include_aborted=True)
            peak_after_reclaim = max(peak_after_reclaim, scheduler.table_size)
        # 180 transactions processed; the live table never exceeds a small
        # multiple of the per-batch population.
        assert peak_after_reclaim <= 30


# ----------------------------------------------------------------------
# Reclamation at any cadence must leave every later decision unchanged
# ----------------------------------------------------------------------
#: ddmin of harness seed 50 (233 steps -> 13).  ``readers[x0]`` is
#: ``[12, 18, 16, 12]`` when T12 commits; dropping everything before the
#: *newest committed* accessor also dropped the live T18 and T16, so when
#: T16 (``RT(x0)``) aborts the restore lands on T12 ``<1,*,*>`` instead of
#: T18 ``<2,*,*>``, ``R24[x0]`` draws ``<2,*,*>`` instead of ``<3,*,*>``
#: and ``R24[x3]`` flips from accept to reject against T20 ``<3,2,*>``.
RECLAIM_WITNESS = (
    "R12[x0]", "R18[x0]", "R18[x3]", "R16[x0]", "R12[x0]",
    ("commit", 12),
    ("reclaim",),
    "W20[x3]", "W16[x2]", "R20[x2]", "R16[x3]", "R24[x0]", "R24[x3]",
)


def _replay(steps, reclaim):
    """Decisions of a step script with its reclaim steps run or skipped."""
    scheduler = MTkScheduler(3)
    decisions = []
    for step in steps:
        if isinstance(step, str):
            op = Log.parse(step).operations[0]
            if op.txn not in scheduler.aborted:
                decisions.append((step, scheduler.process(op).status.value))
        elif step[0] == "commit":
            scheduler.commit(step[1])
        elif reclaim:
            scheduler.reclaim_committed()
    return decisions, indices(scheduler)


class TestReclaimNeverChangesADecision:
    def test_frozen_witness(self):
        reclaimed = _replay(RECLAIM_WITNESS, reclaim=True)
        never = _replay(RECLAIM_WITNESS, reclaim=False)
        assert reclaimed == never
        assert reclaimed[0][-2:] == [("R24[x0]", "accept"), ("R24[x3]", "accept")]

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        options=st.sampled_from(
            (
                {},
                {"anti_starvation": True},
                {"read_rule": "relaxed"},
                {"read_rule": "none"},
            )
        ),
        cadence=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_cadence_equals_never(self, seed, options, cadence):
        """40 transactions over 4 items, 5 at a time, rejected ones
        restarted or abandoned: reclaiming every *cadence* steps decides
        every operation as never reclaiming does and leaves the same
        ``RT`` / ``WT`` and the same vector in every surviving row.
        (Both free rows at commit; the sweep can only free more.)"""
        reclaiming = MTkScheduler(3, **options)
        never = MTkScheduler(3, **options)
        assert drive(reclaiming, seed, reclaim_every=cadence) == drive(never, seed)
        assert indices(reclaiming) == indices(never)
        kept = reclaiming.table.snapshot()
        full = never.table.snapshot()
        assert kept == {txn: full[txn] for txn in kept}

    def test_the_cadence_streams_reclaim(self):
        """The property above is not vacuous: on the same streams the
        sweep frees rows the commit-time count had to keep (histories
        whose order settled after the commits that cut them)."""
        swept = fewer = 0
        for seed in range(40):
            reclaiming = MTkScheduler(3)
            calls = []
            sweep = reclaiming.reclaim_committed
            reclaiming.reclaim_committed = lambda: calls.append(sweep()) or 0
            never = MTkScheduler(3)
            assert drive(reclaiming, seed, reclaim_every=1) == drive(never, seed)
            swept += sum(calls)
            fewer += len(reclaiming.table.snapshot()) < len(never.table.snapshot())
        assert swept > 0 and fewer > 0
