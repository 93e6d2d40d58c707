"""Tests for the windowed shard execution plane.

The load-bearing claim is *transport invariance*: the windowed lane's
report is a pure function of (workload, schedule, spec, window) — where
the shard engines are hosted (in-process, or on data nodes behind the
loopback or TCP 2PC transport) and how many hosts there are must be
invisible bit for bit.  Everything else here guards the one in-process
plane's shape and its knob plumbing.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.check.oracle import SerializabilityOracle
from repro.engine.pipeline import TransactionService
from repro.engine.pipeline.parallel import DEFAULT_WINDOW, ParallelShardSet
from repro.engine.pipeline.recovery import RecoverableShardSet
from repro.engine.pipeline.shard import ShardSpec
from repro.model.generator import WorkloadSpec, generate_transactions, interleave

from tests.conftest import small_logs


def report_tuple(report):
    """Every field the equivalence contract covers, as one comparable."""
    return (
        report.committed,
        report.failed,
        report.restarts,
        report.ops_executed,
        report.ops_reexecuted,
        report.ignored_writes,
        report.undo_count,
        report.committed_ops,
    )


def make_workload(seed, num_txns=12, num_items=4):
    rng = random.Random(seed)
    spec = WorkloadSpec(
        num_txns=num_txns,
        ops_per_txn=3,
        num_items=num_items,
        write_ratio=0.5,
    )
    txns = generate_transactions(spec, rng)
    return txns, interleave(txns, rng)


def run_windowed(txns, log, *, parallel, n_shards=2, window=4, **kwargs):
    service = TransactionService(
        k=2, n_shards=n_shards, parallel=parallel, window=window, **kwargs
    )
    try:
        service.submit_programs(txns)
        report = service.run(schedule=log)
        snapshot = service.stage_snapshot()
    finally:
        service.close()
    return report, snapshot


#: Two data nodes, each a real process behind a localhost socket.
TCP_NODES = dict(parallel=2, transport="tcp")
#: Two in-process data nodes behind the 2PC wire codec.
LOOPBACK_NODES = dict(parallel=2, transport="loopback")


class TestTransportEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_seed_sweep_bit_identical(self, n_shards):
        """Inline and 2-process (TCP node) runs agree over a seed sweep;
        services are reused across seeds, so the cross-run reset path
        (engines reset by command, coordinator store cleared) is
        exercised too."""
        inline = TransactionService(
            k=2, n_shards=n_shards, parallel=0, window=4
        )
        procs = TransactionService(
            k=2, n_shards=n_shards, window=4, **TCP_NODES
        )
        try:
            for seed in range(8):
                txns, log = make_workload(seed)
                inline.submit_programs(txns)
                base = inline.run(schedule=log)
                procs.submit_programs(txns)
                got = procs.run(schedule=log)
                assert report_tuple(got) == report_tuple(base), f"seed {seed}"
        finally:
            inline.close()
            procs.close()

    @pytest.mark.parametrize(
        "retry_policy", ["immediate", "capped-backoff", "global-restart"]
    )
    def test_retry_policies_bit_identical(self, retry_policy):
        for seed in (0, 3):
            txns, log = make_workload(seed)
            base, _ = run_windowed(
                txns, log, parallel=0, retry_policy=retry_policy
            )
            got, _ = run_windowed(
                txns, log, retry_policy=retry_policy, **LOOPBACK_NODES
            )
            assert report_tuple(got) == report_tuple(base)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(log=small_logs())
    def test_hypothesis_inline_equals_process(self, log):
        txns = list(log.transactions.values())
        if not txns:
            return
        base, _ = run_windowed(txns, log, parallel=0)
        got, _ = run_windowed(txns, log, **TCP_NODES)
        assert report_tuple(got) == report_tuple(base)

    def test_worker_count_exceeding_shards_is_invisible(self):
        txns, log = make_workload(5)
        base, _ = run_windowed(txns, log, parallel=0, n_shards=2)
        got, snap = run_windowed(
            txns, log, parallel=4, n_shards=2, transport="loopback"
        )
        assert report_tuple(got) == report_tuple(base)
        # Only 2 of the 4 data nodes host shards.
        hosting = [s for s in snap["parallel"]["assignments"].values() if s]
        assert len(hosting) == 2

    def test_committed_projection_is_dsr(self):
        oracle = SerializabilityOracle()
        for seed in range(4):
            txns, log = make_workload(seed)
            report, _ = run_windowed(txns, log, parallel=0, n_shards=4)
            assert oracle.is_dsr(report.committed_log)
            assert not (report.committed & report.failed)

    def test_repeat_run_deterministic(self):
        """Same programs, same seed, same service → identical reports
        (the second run rides the transport reset path)."""
        txns, log = make_workload(9)
        service = TransactionService(k=2, n_shards=2, parallel=0, window=4)
        try:
            service.submit_programs(txns)
            first = service.run(schedule=log)
            service.submit_programs(txns)
            second = service.run(schedule=log)
            assert report_tuple(first) == report_tuple(second)
        finally:
            service.close()


class TestAntiStarvation:
    def hot_workload(self, seed=0):
        rng = random.Random(seed)
        spec = WorkloadSpec(
            num_txns=10, ops_per_txn=3, num_items=2, write_ratio=0.7
        )
        txns = generate_transactions(spec, rng)
        return txns, interleave(txns, rng)

    def test_seeded_rows_replicate_bit_identically(self):
        """The III-D-4 remedy re-seeds aborted rows *inside* a shard
        engine; the coordinator must re-ship the seeded snapshot to the
        other data node, so 2-node runs stay equivalent to inline ones."""
        txns, log = self.hot_workload()
        base, _ = run_windowed(
            txns, log, parallel=0, anti_starvation=True, window=3
        )
        got, _ = run_windowed(
            txns, log, anti_starvation=True, window=3, **LOOPBACK_NODES
        )
        assert report_tuple(got) == report_tuple(base)
        assert SerializabilityOracle().is_dsr(base.committed_log)

    def test_remedy_reaches_shard_engines(self):
        """anti_starvation plumbs through ShardSpec into the per-shard
        schedulers (not just the legacy executor path)."""
        spec = ShardSpec(n_shards=2, k=2, anti_starvation=True)
        plane = ParallelShardSet(spec, window=4)
        assert plane._config[2] is True
        plane.close()


class TestOneInProcessPlane:
    def test_inline_transport_refuses_hosts(self):
        """The inline plane hosts every shard in-process; asking it for
        hosts names the transports that have them."""
        with pytest.raises(ValueError, match="loopback"):
            TransactionService(k=2, n_shards=2, parallel=1)
        with pytest.raises(ValueError, match="tcp"):
            TransactionService(
                k=2, n_shards=2, parallel=2, transport="inline"
            )

    def test_pipe_transport_is_gone(self):
        with pytest.raises(ValueError, match="transport"):
            TransactionService(k=2, n_shards=2, parallel=0, transport='pipe')

    def test_windowed_run_starts_no_process(self):
        import multiprocessing

        txns, log = make_workload(1)
        service = TransactionService(k=2, n_shards=4, parallel=0, window=4)
        try:
            service.submit_programs(txns)
            service.run(schedule=log)
            assert multiprocessing.active_children() == []
        finally:
            service.close()

    def test_stage_snapshot_has_one_host(self):
        txns, log = make_workload(1)
        _report, snap = run_windowed(txns, log, parallel=0, n_shards=4)
        parallel = snap["parallel"]
        assert parallel["assignments"] == {"0": [0, 1, 2, 3]}
        for gone in ("workers", "start_method", "worker_occupancy"):
            assert gone not in parallel


class TestKnobPlumbing:
    def test_window_reaches_plane_and_snapshot(self):
        txns, log = make_workload(0, num_txns=4)
        _report, snap = run_windowed(txns, log, parallel=0, window=7)
        assert snap["parallel"]["window"] == 7

    def test_default_window_applies(self):
        service = TransactionService(k=2, n_shards=2, parallel=0)
        try:
            assert service.executor.parallel_plane.window == DEFAULT_WINDOW
        finally:
            service.close()

    def test_decision_core_knob_is_gone(self):
        """One Definition-6 decision path: the plane reports no per-engine
        core or priming counters, and the removed knob is rejected as
        unknown on every surface (no shim, no deprecation path)."""
        from repro.cli import build_parser

        service = TransactionService(n_shards=4, parallel=0)
        try:
            txns, log = make_workload(2)
            service.submit_programs(txns)
            service.run(schedule=log)
            parallel = service.stage_snapshot()["parallel"]
        finally:
            service.close()
        assert "decision_cores" not in parallel
        assert "primed" not in parallel
        with pytest.raises(TypeError, match="decision_core"):
            TransactionService(decision_core="python")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--decision-core", "python"])

    def test_invalid_configs_rejected(self):
        spec = ShardSpec(n_shards=2, k=2)
        with pytest.raises(ValueError, match="workers"):
            RecoverableShardSet(spec, workers=-1)
        with pytest.raises(ValueError, match="window"):
            ParallelShardSet(spec, window=0)
        with pytest.raises(ValueError, match="write_policy"):
            TransactionService(
                k=2, n_shards=2, parallel=0, write_policy="deferred"
            )
        with pytest.raises(ValueError, match="rollback"):
            TransactionService(
                k=2, n_shards=2, parallel=0, rollback="partial"
            )

    def test_closed_plane_refuses_runs(self):
        spec = ShardSpec(n_shards=2, k=2)
        plane = ParallelShardSet(spec, window=4)
        plane.close()
        with pytest.raises(RuntimeError, match="closed"):
            plane.begin_run()


class TestIdleEnginesStayOffTheWire:
    """A window ships a ``(shard, rows, batch)`` entry only for a shard
    with a batch, and a host replies only for an engine with decisions,
    dirty rows or items, or stats that changed since its last reply.
    The coordinator keeps each engine's last stats, so the gauges it
    reports are still the engines' own."""

    @pytest.mark.parametrize("protocol", ["mtk", "mvmt"])
    def test_entries_and_replies_name_only_busy_engines(
        self, monkeypatch, protocol
    ):
        from repro.engine.pipeline.parallel import _WorkerHost

        seen = {"entries": 0, "replies": 0}
        handle = _WorkerHost.handle

        def spy(host, message):
            _kind, commands, shard_batches = message
            for _shard, _rows, batch in shard_batches:
                assert batch
            seen["entries"] += len(shard_batches)
            replies = handle(host, message)
            seen["replies"] += len(replies)
            return replies

        monkeypatch.setattr(_WorkerHost, "handle", spy)
        txns, log = make_workload(5, num_txns=40, num_items=6)
        service = TransactionService(
            k=2, n_shards=4, parallel=0, window=4, protocol=protocol
        )
        windows = 0
        with service:
            for _run in range(2):  # the second run resets every engine
                service.submit_programs(txns)
                service.run(schedule=log)
                plane = service.executor.parallel_plane
                windows += plane.ipc["windows"]
                (host,) = plane._transport._hosts.values()
                exact = {}
                for shard, engine in host.engines.items():
                    _rows, _index, stats = engine.collect_reply()
                    exact[shard] = stats
                assert plane._engine_stats == exact
                assert plane.element_visits == sum(
                    engine.scheduler.table.element_visits
                    for engine in host.engines.values()
                )
        assert seen["entries"] and seen["replies"]
        # Every shard hears every command, but most windows batch on
        # few shards: fewer entries than (window, shard) pairs.
        assert seen["entries"] < 4 * windows
