"""Regression tests for three confirmed scheduler bugs.

Each test reproduces the exact failure that was observed before the fix;
see DESIGN.md ("implementation notes") for the analysis.
"""

import gc
import weakref

import pytest

from repro.core.distributed import DMTkScheduler
from repro.core.mtk import MTkScheduler
from repro.core.table import (
    NormalEncoding,
    OptimizedEncoding,
    TimestampTable,
    _SLAB_LIMIT,
)
from repro.core.timestamp import (
    Counters,
    Ordering,
    SiteTaggedCounters,
    TimestampVector,
    UNDEFINED,
    compare,
)
from repro.model.log import Log


class TestResetWithSiteTaggedCounters:
    """Bug 1: ``MTkScheduler.reset()`` rebuilt counters with a bare
    ``type(counters)()``, which raised ``TypeError`` for
    :class:`SiteTaggedCounters` (the required ``site`` argument was
    dropped)."""

    def test_reset_preserves_site(self):
        scheduler = MTkScheduler(2, counters=SiteTaggedCounters(site=7))
        scheduler.reset()  # regression: raised TypeError before the fix
        scheduler.reset()
        assert scheduler.table.counters.site == 7
        # The rebuilt counters still mint (counter, site) pairs.
        value = scheduler.table.counters.fresh_upper()
        assert value[1] == 7

    def test_reset_preserves_initial_counter_state(self):
        counters = SiteTaggedCounters(site=3, lcount=-5, ucount=9)
        scheduler = MTkScheduler(2, counters=counters)
        scheduler.run(Log.parse("W1[x] R2[x]"))
        scheduler.reset()
        rebuilt = scheduler.table.counters
        assert rebuilt is not counters  # a pristine copy, not the used one
        assert rebuilt.site == 3
        assert rebuilt.fresh_upper() == (9, 3)

    def test_distributed_scheduler_reusable_across_logs(self):
        # The real-world path: DMT(k) sites run with site-tagged counters
        # and are reset between logs by accepts()/run().
        scheduler = DMTkScheduler(2, num_sites=2)
        log = Log.parse("W1[x] R2[x] W2[y]")
        first = scheduler.run(log)
        second = scheduler.run(log)
        assert first.accepted == second.accepted


class TestReadOwnWrite:
    """Bug 2: under the lines 9-10 fallback a transaction reading its OWN
    most recent write was rejected — ``compare(TS(WT(x)), TS(i))`` yields
    IDENTICAL (the vectors are the same object), never LESS."""

    # T1 writes x; T2's read orders TS(1) < TS(2) and leaves RT(x) = 2;
    # T1 then rereads its own write while TS(RT(x)) > TS(1).
    LOG = Log.parse("W1[x] R2[x] R1[x]")

    @pytest.mark.parametrize("read_rule", ["line9", "relaxed"])
    def test_rereading_own_write_accepted(self, read_rule):
        scheduler = MTkScheduler(2, read_rule=read_rule)
        result = scheduler.run(self.LOG)
        assert result.accepted, [str(d) for d in result.decisions]
        assert result.decisions[-1].reason == "read-own-write"

    def test_strict_rule_unaffected(self):
        # read_rule="none" disables the whole fallback; the reread is
        # still rejected there by design, not by the bug.
        scheduler = MTkScheduler(2, read_rule="none")
        assert not scheduler.run(self.LOG).accepted


class TestOptimizedEncodingHoles:
    """Bug 3: ``OptimizedEncoding.encode_semi`` crashed with "element
    already defined" when the shorter vector held *holes* — defined
    elements inside the prefix-copy range (k-th-column counter draws land
    there before the prefix fills in)."""

    @staticmethod
    def _encoding():
        return OptimizedEncoding(is_hot=lambda item: True)

    def test_mismatching_hole_falls_back(self):
        # Copy range is positions 1..3; the shorter vector already holds 7
        # at position 2 where the longer holds 3.  Before the fix this
        # raised; now the normal rule applies untouched.
        ts_j = TimestampVector(4, [UNDEFINED, 7, UNDEFINED, UNDEFINED])
        ts_i = TimestampVector(4, [1, 3, 1, UNDEFINED])
        self._encoding().encode_semi(ts_j, ts_i, 1, Counters(), "x")
        assert compare(ts_j, ts_i).ordering is Ordering.LESS
        assert ts_j.get(1) == 0  # the NormalEncoding adjacent value
        assert ts_j.get(2) == 7  # the hole was never overwritten

    def test_matching_hole_is_skipped(self):
        # The hole matches the longer vector: the copy skips it and the
        # order lands in the first position past the shared prefix.
        ts_j = TimestampVector(4, [UNDEFINED, 3, UNDEFINED, UNDEFINED])
        ts_i = TimestampVector(4, [1, 3, 1, UNDEFINED])
        self._encoding().encode_semi(ts_j, ts_i, 1, Counters(), "x")
        assert [ts_j.get(p) for p in (1, 2, 3)] == [1, 3, 1]
        comparison = compare(ts_j, ts_i)
        assert comparison.ordering is Ordering.LESS
        assert comparison.position == 4  # encoded at the landing position

    def test_taken_landing_position_falls_back(self):
        # The landing position after the shared prefix is already defined
        # on the shorter side; the copy would have nowhere to encode the
        # order, so the normal rule applies.
        ts_j = TimestampVector(4, [UNDEFINED, 3, 1, 5])
        ts_i = TimestampVector(4, [1, 3, 1, UNDEFINED])
        self._encoding().encode_semi(ts_j, ts_i, 1, Counters(), "x")
        assert compare(ts_j, ts_i).ordering is Ordering.LESS
        assert ts_j.get(1) == 0
        assert ts_j.get(4) == 5

    def test_matches_normal_encoding_on_cold_items(self):
        ts_cold_j = TimestampVector(3)
        ts_cold_i = TimestampVector(3, [4, UNDEFINED, UNDEFINED])
        ts_norm_j = TimestampVector(3)
        ts_norm_i = TimestampVector(3, [4, UNDEFINED, UNDEFINED])
        OptimizedEncoding(is_hot=lambda item: False).encode_semi(
            ts_cold_j, ts_cold_i, 1, Counters(), "x"
        )
        NormalEncoding().encode_semi(ts_norm_j, ts_norm_i, 1, Counters(), "x")
        assert ts_cold_j.snapshot() == ts_norm_j.snapshot()
        assert ts_cold_i.snapshot() == ts_norm_i.snapshot()


class TestParallelComparatorInterning:
    """Bug 4 (PR 6): the III-E simulator constructed fresh
    ``Comparison(...)`` objects per simulated comparison — allocating on
    every call and breaking the identity-equality (``is``) contract the
    interned sequential results provide."""

    def test_results_are_interned_singletons(self):
        from repro.core.vector_processor import VectorComparator

        comparator = VectorComparator(3)
        left = TimestampVector(3, [1, UNDEFINED, 5])
        right = TimestampVector(3, [1, 2, UNDEFINED])
        result = comparator.compare(left, right)
        assert result.comparison is compare(left, right)

    def test_identical_outcome_is_interned(self):
        from repro.core.vector_processor import VectorComparator

        comparator = VectorComparator(2)
        left = TimestampVector(2, [1, 2])
        right = TimestampVector(2, [1, 2])
        assert comparator.compare(left, right).comparison is compare(
            left, right
        )


class TestLowerCounterAvoidsVirtualZero:
    """Bug 5 (PR 6): ``Counters()`` started ``lcount`` at 0, colliding
    with the virtual transaction's preset element (``table.py`` sets
    ``virtual.set(1, 0)``).  At ``k = 1`` the first ``fresh_lower()``
    issued 0, duplicating T0's k-th element: two *identical* vectors make
    ``Set`` unorderable (``set_less`` raises on IDENTICAL)."""

    def test_first_lower_value_is_not_zero(self):
        assert Counters().fresh_lower() == -1

    def test_k1_lower_draw_does_not_duplicate_t0(self):
        from repro.core.table import TimestampTable, VIRTUAL_TXN

        table = TimestampTable(1)
        assert table.set_less(VIRTUAL_TXN, 1).ok  # TS(1) := <1> (upper)
        # T2 must be ordered before T1 while T1 is defined and T2 is not:
        # the ? rule at position k draws from lcount for the undefined side.
        outcome = table.set_less(2, 1)
        assert outcome.ok
        column = table.column(1)
        assert len(column) == len(set(column)), "k-th column not distinct"
        # Before the fix TS(2) == TS(0) == <0>; any later Set against T0
        # raised RuntimeError("vectors ... are identical").
        ordering = compare(table.vector(2), table.vector(VIRTUAL_TXN)).ordering
        assert ordering is not Ordering.IDENTICAL
        table.set_less(VIRTUAL_TXN, 2)  # must not raise

    def test_mt1_survives_lower_draw_against_fresh_item(self):
        # Scheduler-level shape of the same bug: MT(1) where a lower-column
        # draw lands next to the virtual transaction's 0.
        scheduler = MTkScheduler(1)
        table = scheduler.table
        table.set_less(0, 1)
        table.set_less(2, 1)
        order = scheduler.serialization_order()  # must not raise
        assert set(order) == {1, 2}


class _Marker(float):
    """A weakref-able vector element.  ``TimestampVector`` is slotted
    without ``__weakref__``, so a row's liveness is observed through an
    element that only the row holds."""


class TestReclaimLeavesRowCollectable:
    """Bug 6: a freed row left the slab, but something else — then the
    comparison cache, since deleted — kept strong references to the dead
    vector.  Whatever the mechanism, the behaviour stays pinned: a
    reclaimed row is garbage."""

    @pytest.mark.parametrize(
        "txn", [1, _SLAB_LIMIT + 1], ids=["slab", "spill"]
    )
    def test_reclaimed_row_is_collectable(self, txn):
        table = TimestampTable(2)
        other = txn + 1
        marker = _Marker(7.0)
        table.vector(txn).set(2, marker)
        alive = weakref.ref(marker)
        del marker
        # Every way the table compares rows, with T(txn) on both sides.
        table.set_less(0, txn)
        table.set_less(txn, other)
        table.compare_vectors(table.vector(txn), table.vector(other))
        table.compare_vectors(table.vector(other), table.vector(txn))
        gc.collect()
        assert alive() is not None
        table.retire(txn, 0, ())  # committed, nothing names it
        gc.collect()
        assert alive() is None, "reclaimed row is still referenced"


class TestCopyPreservesEpochs:
    """Bug 7 (PR 6): ``TimestampVector.copy()`` restarted the clone at
    version 0 / flush epoch 0, silently defeating the cache's flush-epoch
    staleness test if a copy is ever substituted for the original."""

    def test_copy_carries_version_and_flushes(self):
        vector = TimestampVector(3)
        vector.set(1, 4)
        vector.flush()
        vector.set(2, 9)
        clone = vector.copy()
        assert clone.snapshot() == vector.snapshot()
        assert clone.version == vector.version
        assert clone.flush_count == vector.flush_count

    def test_copy_is_still_independent(self):
        vector = TimestampVector(2, [1, UNDEFINED])
        clone = vector.copy()
        clone.set(2, 5)
        assert vector.get(2) is UNDEFINED
        assert clone.version == vector.version + 1
