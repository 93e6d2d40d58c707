"""Tests for DMT(k) and the distributed substrate (Section V-B)."""

import pytest
from hypothesis import given, settings

from repro.classes.membership import is_dsr
from repro.core.distributed import DMTkScheduler
from repro.core.mtk import MTkScheduler
from repro.distributed.clocks import LamportClock, SimClock
from repro.distributed.network import MsgKind, Network
from repro.distributed.simulation import LockWorkItem, ordered, run_rounds
from repro.model.log import Log
from tests.conftest import small_logs


class TestNetwork:
    def test_local_messages_are_free(self):
        net = Network(3, latency=2)
        net.send(1, 1, MsgKind.LOCK_REQUEST)
        assert net.messages_sent == 0

    def test_remote_messages_counted_and_timed(self):
        net = Network(3, latency=2)
        message = net.send(0, 1, MsgKind.LOCK_REQUEST)
        assert net.messages_sent == 1
        assert message.deliver_time == message.send_time + 2
        assert net.count(MsgKind.LOCK_REQUEST) == 1

    def test_broadcast(self):
        net = Network(4)
        assert net.broadcast(0, MsgKind.COUNTER_SYNC) == 3

    def test_site_range_validated(self):
        with pytest.raises(ValueError):
            Network(2).send(0, 5, MsgKind.UNLOCK)


class TestClocks:
    def test_lamport_join_advances_past_observed(self):
        clock = LamportClock()
        clock.tick()
        assert clock.join(10) == 11

    def test_sim_clock_skew_and_sync(self):
        clock = SimClock(skew=5)
        clock.advance(3)
        assert clock.now() == 8
        clock.synchronize(3)
        assert clock.now() == 3


class TestDMTkEquivalence:
    @given(small_logs())
    @settings(max_examples=150)
    def test_single_site_matches_mtk(self, log):
        """With one site the site-tagged counters degenerate to global
        counters: DMT(k) decides exactly like MT(k)."""
        assert (
            DMTkScheduler(3, num_sites=1).accepts(log)
            == MTkScheduler(3).accepts(log)
        )

    @given(small_logs())
    @settings(max_examples=150)
    def test_multi_site_is_sound(self, log):
        if DMTkScheduler(3, num_sites=3).accepts(log):
            assert is_dsr(log)

    @given(small_logs())
    @settings(max_examples=100)
    def test_sync_interval_preserves_soundness(self, log):
        scheduler = DMTkScheduler(2, num_sites=4, sync_interval=3)
        if scheduler.accepts(log):
            assert is_dsr(log)


class TestDistributionMechanics:
    LOG = Log.parse("R1[x] R2[y] R3[z] W1[y] W1[z] W2[x]")

    def test_at_most_four_locks_held(self):
        scheduler = DMTkScheduler(3, num_sites=4)
        scheduler.run(self.LOG, stop_on_reject=True)
        assert scheduler.max_locks_held <= 4  # the paper's V-B 2b claim

    def test_locks_all_released_after_each_op(self):
        scheduler = DMTkScheduler(3, num_sites=4)
        scheduler.run(self.LOG, stop_on_reject=True)
        assert scheduler.locks.is_idle()

    def test_messages_proportional_to_remote_objects(self):
        scheduler = DMTkScheduler(3, num_sites=4)
        scheduler.run(self.LOG, stop_on_reject=True)
        # Each op touches <= 4 objects; each remote one costs a
        # request+grant and a writeback/unlock: <= 3 messages * 4 objects.
        assert 0 < scheduler.messages_per_op <= 12

    def test_single_site_sends_nothing(self):
        scheduler = DMTkScheduler(3, num_sites=1)
        scheduler.run(self.LOG)
        assert scheduler.network.messages_sent == 0

    def test_lock_retention_saves_messages(self):
        base = DMTkScheduler(3, num_sites=4)
        base.run(self.LOG, stop_on_reject=True)
        retaining = DMTkScheduler(3, num_sites=4, retain_locks=True)
        retaining.run(self.LOG, stop_on_reject=True)
        assert (
            retaining.network.messages_sent <= base.network.messages_sent
        )

    def test_k_column_values_globally_distinct(self):
        scheduler = DMTkScheduler(2, num_sites=3)
        scheduler.run(self.LOG, stop_on_reject=True)
        column = scheduler.table.column(2)
        assert len(column) == len(set(column))

    def test_counter_sync_broadcasts(self):
        scheduler = DMTkScheduler(2, num_sites=3, sync_interval=2)
        scheduler.run(self.LOG, stop_on_reject=True)
        assert scheduler.network.count(MsgKind.COUNTER_SYNC) > 0

    def test_lock_retention_never_changes_decisions(self, random_stream):
        """Retention is a message optimization only: the decision stream
        must be identical with and without it."""
        for log in random_stream(60, seed=13):
            plain = DMTkScheduler(3, num_sites=4)
            retaining = DMTkScheduler(3, num_sites=4, retain_locks=True)
            plain_statuses = [
                d.status for d in plain.run(log, stop_on_reject=True).decisions
            ]
            retaining_statuses = [
                d.status
                for d in retaining.run(log, stop_on_reject=True).decisions
            ]
            assert plain_statuses == retaining_statuses


class TestDeadlockFreedom:
    def test_unordered_acquisition_deadlocks(self):
        items = [
            LockWorkItem("op1", ["a", "b"]),
            LockWorkItem("op2", ["b", "a"]),
        ]
        assert run_rounds(items).deadlocked

    def test_ordered_acquisition_never_deadlocks(self):
        import random

        rng = random.Random(7)
        for _ in range(30):
            items = [
                LockWorkItem(
                    f"op{i}",
                    ordered(rng.sample("abcdef", k=rng.randint(2, 4))),
                )
                for i in range(25)
            ]
            result = run_rounds(items)
            assert not result.deadlocked
            assert result.completed == 25

    def test_ordered_helper_dedupes_and_sorts(self):
        assert ordered(["b", "a", "b"]) == ["a", "b"]


class TestClockDrivenCounters:
    """V-B 1b: ucount tracks the local real clock."""

    def test_sound_with_synchronized_clocks(self, random_stream):
        from repro.classes.membership import is_dsr

        for log in random_stream(60, seed=17):
            scheduler = DMTkScheduler(3, num_sites=3, clock_driven=True)
            if scheduler.accepts(log):
                assert is_dsr(log)

    def test_sound_under_clock_skew(self, random_stream):
        """Even with skewed clocks the Lamport join keeps encodes correct
        (the paper assumes one initial synchronization; we do not need
        even that for safety, only for fairness)."""
        from repro.classes.membership import is_dsr

        for log in random_stream(60, seed=18):
            scheduler = DMTkScheduler(
                3, num_sites=3, clock_driven=True, clock_skews=[0, 40, -7]
            )
            if scheduler.accepts(log):
                assert is_dsr(log)

    def test_counter_values_track_time(self):
        scheduler = DMTkScheduler(2, num_sites=2, clock_driven=True)
        # R1[a]/R2[b] leave T1, T2 equal at <1,*>; W2[a] then forces a
        # k-th-column counter pair, and W3[b] another draw.
        log = Log.parse("R1[a] R2[b] W2[a] R3[c] W3[b]")
        result = scheduler.run(log, stop_on_reject=True)
        assert result.accepted
        counters = [value[0] for value in scheduler.table.column(2)]
        assert counters  # the k-th column was exercised
        # Clock-driven draws grow with simulated time.
        assert counters == sorted(counters)
        assert max(counters) >= 3  # the clock had advanced by op 3

    def test_skew_length_validated(self):
        import pytest

        with pytest.raises(ValueError):
            DMTkScheduler(2, num_sites=3, clock_driven=True, clock_skews=[1])


class TestDefaultPlacement:
    def test_message_counts_survive_hash_randomization(self):
        """Default item placement is crc32, not the salted builtin
        ``hash(str)``: two interpreters with different PYTHONHASHSEED
        values send the same number of messages over the same logs."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        script = (
            "from repro.core.distributed import DMTkScheduler\n"
            "from repro.model.generator import WorkloadSpec, random_logs\n"
            "spec = WorkloadSpec(num_txns=6, ops_per_txn=3, num_items=8)\n"
            "messages = accepted = 0\n"
            "for log in random_logs(spec, 40, seed=5):\n"
            "    scheduler = DMTkScheduler(3)\n"
            "    accepted += scheduler.accepts(log)\n"
            "    messages += scheduler.network.messages_sent\n"
            "print(messages, accepted)\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1
        assert int(outputs.pop().split()[0]) > 0
