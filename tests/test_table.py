"""Tests for the timestamp table and the Set procedure (Algorithm 1)."""

import pytest

from repro.core.table import (
    AccessFrequencyTracker,
    NormalEncoding,
    OptimizedEncoding,
    TimestampTable,
    VIRTUAL_TXN,
)
from repro.core.timestamp import Ordering, UNDEFINED, compare


class TestInitialization:
    def test_virtual_transaction_vector(self):
        table = TimestampTable(3)
        assert table.vector(VIRTUAL_TXN).snapshot() == (0, None, None)

    def test_rows_created_lazily_fresh(self):
        table = TimestampTable(2)
        assert table.vector(7).is_fresh()

    def test_indices_default_to_virtual(self):
        table = TimestampTable(2)
        assert table.rt("x") == VIRTUAL_TXN
        assert table.wt("x") == VIRTUAL_TXN


class TestSetProcedure:
    def test_set_j_equals_i_is_trivially_true(self):
        table = TimestampTable(2)
        assert table.set_less(3, 3).ok

    def test_semi_case_below_k_uses_neighbor(self):
        table = TimestampTable(3)
        outcome = table.set_less(VIRTUAL_TXN, 1)
        assert outcome.ok and outcome.encoded
        # TS(1,1) := TS(0,1) + 1 = 1
        assert table.vector(1).snapshot() == (1, None, None)

    def test_equal_case_below_k_sets_one_two(self):
        table = TimestampTable(3)
        table.vector(1).set(1, 5)
        table.vector(2).set(1, 5)
        outcome = table.set_less(1, 2)
        assert outcome.ok and outcome.encoded
        assert table.vector(1).get(2) == 1
        assert table.vector(2).get(2) == 2

    def test_equal_case_at_k_uses_counters(self):
        table = TimestampTable(1)
        # k = 1 and both fresh never happens in the protocol, so force the
        # general k case with k = 2 and equal first elements.
        table = TimestampTable(2)
        table.vector(1).set(1, 5)
        table.vector(2).set(1, 5)
        table.vector(1).set(2, 3)  # pretend an earlier counter draw
        outcome = table.set_less(2, 1)
        # SEMI at position 2, TS(2,2) undefined -> lcount
        assert outcome.ok
        assert table.vector(2).get(2) == -1  # initial lcount
        assert compare(table.vector(2), table.vector(1)).ordering is Ordering.LESS

    def test_semi_case_at_k_upper(self):
        table = TimestampTable(2)
        table.vector(1).set(1, 5)
        table.vector(1).set(2, 0)
        table.vector(2).set(1, 5)
        outcome = table.set_less(1, 2)
        assert outcome.ok
        assert table.vector(2).get(2) == 1  # initial ucount
        assert compare(table.vector(1), table.vector(2)).ordering is Ordering.LESS

    def test_greater_returns_false_without_mutation(self):
        table = TimestampTable(2)
        table.vector(1).set(1, 2)
        table.vector(2).set(1, 1)
        outcome = table.set_less(1, 2)
        assert not outcome.ok and not outcome.encoded

    def test_already_less_is_ok_without_encoding(self):
        table = TimestampTable(2)
        table.vector(1).set(1, 1)
        table.vector(2).set(1, 2)
        outcome = table.set_less(1, 2)
        assert outcome.ok and not outcome.encoded

    def test_identical_vectors_rejected(self):
        table = TimestampTable(2)
        table.vector(1).set(1, 1)
        table.vector(1).set(2, 1)
        table.vector(2).set(1, 1)
        table.vector(2).set(2, 1)
        with pytest.raises(RuntimeError):
            table.set_less(1, 2)


class TestLatestAccessor:
    def test_prefers_strictly_larger_writer(self):
        table = TimestampTable(2)
        table.vector(1).set(1, 1)
        table.vector(2).set(1, 2)
        table.set_rt("x", 1)
        table.set_wt("x", 2)
        assert table.latest_accessor("x") == 2

    def test_defaults_to_reader_when_not_less(self):
        table = TimestampTable(2)
        table.vector(1).set(1, 2)
        table.vector(2).set(1, 1)
        table.set_rt("x", 1)
        table.set_wt("x", 2)
        assert table.latest_accessor("x") == 1


class TestReclaim:
    def test_reclaim_requires_no_references(self):
        table = TimestampTable(2)
        assert table.set_less(VIRTUAL_TXN, 1).ok
        table.set_rt("x", 1)
        table.retire(1, 0, ["x"])  # T1 committed; RT(x) still names it
        assert 1 in table.known_txns()
        assert table.is_held(1)
        table.set_rt("x", 2)  # the last reference goes (III-D-6b)
        assert 1 not in table.known_txns()
        assert not table.is_held(1)

    def test_virtual_row_is_permanent(self):
        table = TimestampTable(2)
        with pytest.raises(ValueError):
            table.retire(VIRTUAL_TXN, 0, ())


class TestOptimizedEncoding:
    def test_paper_example_hot_item(self):
        """Section III-D-5: T1 <1,3,*,*>, T2 fresh, hot item ->
        T1 <1,3,1,*>, T2 <1,3,2,*>."""
        table = TimestampTable(4, encoding=OptimizedEncoding(lambda item: True))
        table.vector(1).set(1, 1)
        table.vector(1).set(2, 3)
        outcome = table.set_less(1, 2, item="hot")
        assert outcome.ok
        assert table.vector(1).snapshot() == (1, 3, 1, None)
        assert table.vector(2).snapshot() == (1, 3, 2, None)

    def test_cold_item_uses_normal_rule(self):
        table = TimestampTable(4, encoding=OptimizedEncoding(lambda item: False))
        table.vector(1).set(1, 1)
        table.vector(1).set(2, 3)
        table.set_less(1, 2, item="cold")
        assert table.vector(2).snapshot() == (2, None, None, None)

    def test_full_vector_falls_back_to_normal(self):
        table = TimestampTable(2, encoding=OptimizedEncoding(lambda item: True))
        table.vector(1).set(1, 1)
        table.vector(1).set(2, 7)
        table.set_less(1, 2, item="hot")
        # No room to the right of a full vector: normal neighbor rule.
        assert table.vector(2).snapshot() == (2, None)

    def test_order_always_correct_after_optimized_encode(self):
        table = TimestampTable(4, encoding=OptimizedEncoding(lambda item: True))
        table.vector(1).set(1, 1)
        outcome = table.set_less(2, 1, item="hot")
        assert outcome.ok
        assert compare(table.vector(2), table.vector(1)).ordering is Ordering.LESS


class TestAccessFrequencyTracker:
    def test_hot_detection_needs_minimum_and_share(self):
        tracker = AccessFrequencyTracker(hot_fraction=0.5, min_accesses=3)
        for _ in range(3):
            tracker.record("x")
        tracker.record("y")
        assert tracker.is_hot("x")  # 3/4 of accesses
        assert not tracker.is_hot("y")  # below min_accesses

    def test_share_requirement(self):
        tracker = AccessFrequencyTracker(hot_fraction=0.9, min_accesses=1)
        tracker.record("x")
        tracker.record("y")
        assert not tracker.is_hot("x")  # only half the accesses


class TestCostAccounting:
    def test_element_visits_accumulate(self):
        table = TimestampTable(3)
        assert table.element_visits == 0
        table.set_less(VIRTUAL_TXN, 1)
        assert table.element_visits > 0

    def test_element_visits_unit_on_table_one(self, example2_log, monkeypatch):
        """``element_visits`` is the paper's III-D-3 unit: the sum of the
        deciding positions of every comparison ``order_after_latest`` /
        ``set_less`` make — each one charged, none hidden — and nothing
        from ``compare_vectors``.  Pinned on Example 2 / Table I, MT(2)."""
        from repro.core import table as table_module
        from repro.core.mtk import MTkScheduler

        positions = []

        def recording_compare(left, right):
            comparison = compare(left, right)
            positions.append(comparison.position)
            return comparison

        monkeypatch.setattr(table_module, "compare", recording_compare)
        scheduler = MTkScheduler(2)
        assert scheduler.run(example2_log).accepted
        # R1[x] R2[y] R3[z]: Set(0, i) is `?` at m=1, three times.
        # W1[y]: TS(RT(y)=2) > TS(WT(y)=0) at m=1, then Set(2, 1) is `=`
        # at m=2.  W1[z]: TS(3) > TS(0) at m=1, then Set(3, 1) is `?` at
        # m=2 (TS(1) is <1,2> by now).
        assert positions == [1, 1, 1, 1, 2, 1, 2]
        table = scheduler.table
        assert table.element_visits == sum(positions) == 9
        table.compare_vectors(table.vector(1), table.vector(2))
        assert len(positions) == 8
        assert table.element_visits == 9
        # A repeated comparison of unchanged vectors scans again and is
        # charged again: TS(3) < TS(1) at m=2, twice.
        assert table.set_less(3, 1).ok and table.set_less(3, 1).ok
        assert table.element_visits == 9 + 2 + 2
