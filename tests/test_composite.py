"""Tests for the composite protocol MT(k*) (Algorithm 2, Section IV)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.classes.membership import is_dsr
from repro.core.composite import MTkStarScheduler
from repro.core.mtk import MTkScheduler
from repro.model.log import Log
from repro.model.operations import read, write
from tests.conftest import small_logs


class TestUnionProperty:
    """TO(k+) = TO(1) | ... | TO(k): the defining property of MT(k*)."""

    @given(small_logs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=300)
    def test_equals_union_of_subprotocols(self, log, k):
        star = MTkStarScheduler(k).accepts(log)
        union = any(
            MTkScheduler(h, read_rule="none").accepts(log)
            for h in range(1, k + 1)
        )
        assert star == union

    @given(small_logs())
    @settings(max_examples=200)
    def test_inclusivity_chain(self, log):
        """TO(1+) <= TO(2+) <= TO(3+) <= TO(4+) — acceptance only grows."""
        verdicts = [MTkStarScheduler(k).accepts(log) for k in range(1, 5)]
        for smaller, larger in zip(verdicts, verdicts[1:]):
            assert not smaller or larger

    @given(small_logs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200)
    def test_soundness(self, log, k):
        if MTkStarScheduler(k).accepts(log):
            assert is_dsr(log)


class TestExamples:
    def test_accepts_both_incomparable_classes(self, starvation_log, example1_log):
        """Fig. 5's log is TO(1) - TO(3); Example 1 is TO(3) - TO(1).
        MT(3*) accepts both — neither subprotocol alone does."""
        star = MTkStarScheduler(3)
        assert star.accepts(starvation_log)
        assert star.accepts(example1_log)
        assert not MTkScheduler(3, read_rule="none").accepts(starvation_log)
        assert not MTkScheduler(1, read_rule="none").accepts(example1_log)

    def test_subprotocols_stop_incrementally(self, starvation_log):
        star = MTkStarScheduler(3)
        star.reset()
        for op in starvation_log:
            star.process(op)
        # MT(3) (and MT(2)) must have stopped on Fig. 5's log; MT(1) runs.
        assert 1 in star.surviving_protocols()
        assert 3 not in star.surviving_protocols()

    def test_all_stopped_rejects_and_fails(self):
        star = MTkStarScheduler(1)
        # Example 1 is not in TO(1), so MT(1*)'s only subprotocol stops.
        log = Log.parse("W1[x] W1[y] R3[x] R2[y] W3[y]")
        result = star.run(log)
        assert not result.accepted
        assert star.failed
        # Once failed, everything is rejected until reset (Algorithm 2
        # restarts from scratch).
        assert not star.process(read(9, "z")).accepted
        star.reset()
        assert not star.failed


class TestSharedPrefix:
    """Theorem 5: co-accepting subprotocols agree on vector prefixes."""

    @given(small_logs(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=150)
    def test_prefix_sharing_is_faithful(self, log, k):
        """The composite's stored PREFIX+LASTCOL view of subprotocol h must
        equal an independent MT(h) run whenever MT(h) survives."""
        star = MTkStarScheduler(k)
        star.reset()
        ok = True
        for op in log:
            if not star.process(op).accepted:
                ok = False
                break
        if not ok:
            return
        for h in star.surviving_protocols():
            independent = MTkScheduler(h, read_rule="none")
            assert independent.accepts(log)
            for txn in sorted(log.txn_ids):
                expected = independent.table.vector(txn).snapshot()
                actual = star.subprotocol_vector(txn, h)
                assert actual == expected, (h, txn)

    @given(small_logs())
    @settings(max_examples=150)
    def test_theorem5_on_independent_runs(self, log):
        """The literal Theorem 5 statement: run MT(k1) and MT(k2)
        independently; if both accept, prefixes up to k1-1 are equal."""
        k1, k2 = 3, 5
        a = MTkScheduler(k1, read_rule="none")
        b = MTkScheduler(k2, read_rule="none")
        if not (a.accepts(log) and b.accepts(log)):
            return
        for txn in sorted(log.txn_ids):
            assert (
                a.table.vector(txn).snapshot()[: k1 - 1]
                == b.table.vector(txn).snapshot()[: k1 - 1]
            )


class TestStructure:
    def test_lastcol_values_distinct_per_column(self, random_stream):
        for log in random_stream(40, seed=4):
            star = MTkStarScheduler(3)
            star.run(log, stop_on_reject=True)
            for h in range(1, 4):
                column = [
                    star.subprotocol_vector(txn, h)[-1]
                    for txn in sorted(log.txn_ids | {0})
                ]
                defined = [v for v in column if v is not None]
                assert len(defined) == len(set(defined)), f"column {h}"

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            MTkStarScheduler(0)

    def test_k1_star_equals_mt1(self, random_stream):
        for log in random_stream(100, seed=6):
            assert (
                MTkStarScheduler(1).accepts(log)
                == MTkScheduler(1, read_rule="none").accepts(log)
            )

    def test_negative_txn_ids_get_their_own_rows(self):
        """A negative id is a transaction like any other: it must not
        alias the row of another id (a list slab indexed ``[-1]`` handed
        T-1 the highest id's row)."""
        for ids in ((2, 1, -1), (2, 1, 3)):
            star = MTkStarScheduler(2)
            verdicts = [
                star.process(write(txn, "x")).status.name for txn in ids
            ]
            assert verdicts == ["ACCEPT", "ACCEPT", "ACCEPT"], ids
