"""Property tests driving the invariant checker over random executions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import (
    InvariantViolation,
    check_all,
    check_chains_live,
    check_contiguous_prefixes,
    check_distinct_last_column,
    check_strict_partial_order,
)
from repro.core.mtk import MTkScheduler
from repro.core.multiversion import MVMTkScheduler
from repro.core.table import TimestampTable
from repro.model.operations import read, write
from tests.conftest import small_logs


class TestInvariantsHold:
    @given(small_logs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200)
    def test_after_any_run(self, log, k):
        scheduler = MTkScheduler(k)
        scheduler.run(log)
        check_all(scheduler)

    @given(small_logs())
    @settings(max_examples=100)
    def test_with_every_option(self, log):
        for kwargs in (
            {"thomas_write_rule": True},
            {"anti_starvation": True},
            {"partial_rollback": True},
            {"read_rule": "relaxed"},
        ):
            scheduler = MTkScheduler(3, **kwargs)
            scheduler.run(log)
            check_all(scheduler)

    @given(small_logs())
    @settings(max_examples=100)
    def test_multiversion_variant(self, log):
        scheduler = MVMTkScheduler(3)
        scheduler.run(log)
        check_all(scheduler)

    @given(small_logs())
    @settings(max_examples=80)
    def test_after_restart_cycles(self, log):
        scheduler = MTkScheduler(2, anti_starvation=True)
        result = scheduler.run(log, stop_on_reject=True)
        if result.aborted:
            victim = next(iter(result.aborted))
            scheduler.restart(victim)
        check_all(scheduler)


class TestInvariantsDetectCorruption:
    def test_prefix_hole_detected(self):
        table = TimestampTable(3)
        table.vector(1).set(2, 5)  # hole at position 1
        with pytest.raises(InvariantViolation):
            check_contiguous_prefixes(table)

    def test_duplicate_last_column_detected(self):
        table = TimestampTable(2)
        table.vector(1).set(1, 1)
        table.vector(1).set(2, 7)
        table.vector(2).set(1, 1)
        table.vector(2).set(2, 7)
        with pytest.raises(InvariantViolation):
            check_distinct_last_column(table)

    def test_identical_vectors_detected(self):
        table = TimestampTable(2)
        table.vector(1).set(1, 1)
        table.vector(1).set(2, 3)
        table.vector(2).set(1, 1)
        table.vector(2).set(2, 3)
        with pytest.raises(InvariantViolation):
            check_strict_partial_order(table)

    def test_aborted_chain_entry_detected(self):
        """The chain form of index validity: an aborted transaction's
        version left in a chain (as if the abort skipped the retraction)
        is caught; the same state with the retraction passes."""
        scheduler = MVMTkScheduler(3)
        for op in (write(1, "x"), read(2, "x")):
            assert scheduler.process(op).accepted
        scheduler.aborted.add(1)
        with pytest.raises(InvariantViolation, match="aborted \\[1\\]"):
            check_chains_live(scheduler)
        scheduler.prune_aborted(1)
        check_chains_live(scheduler)  # T2's record *sourced* from T1 stays
