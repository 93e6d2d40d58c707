"""Tests for the parallel shard execution plane.

The load-bearing claim is *transport invariance*: the windowed lane's
report is a pure function of (workload, schedule, spec, window) — the
worker count, the transport (in-process vs pipes), and the start method
must all be invisible bit for bit.  Everything else here guards the
operational edges: crash surfacing, fan-out clamping, knob plumbing.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.check.oracle import SerializabilityOracle
from repro.engine.pipeline import TransactionService
from repro.engine.pipeline.parallel import (
    DEFAULT_WINDOW,
    ParallelExecutionError,
    ParallelShardSet,
    plan_fanout,
)
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


class TestTransportEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_seed_sweep_bit_identical(self, n_shards):
        """Inline and 2-process runs agree over a seed sweep; services
        are reused across seeds, so the cross-run reset path (engines
        reset by command, coordinator store cleared) is exercised too."""
        inline = TransactionService(
            k=2, n_shards=n_shards, parallel=0, window=4
        )
        procs = TransactionService(
            k=2, n_shards=n_shards, parallel=2, window=4
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
                txns, log, parallel=2, retry_policy=retry_policy
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
        got, _ = run_windowed(txns, log, parallel=2)
        assert report_tuple(got) == report_tuple(base)

    def test_worker_count_exceeding_shards_is_invisible(self):
        txns, log = make_workload(5)
        base, _ = run_windowed(txns, log, parallel=0, n_shards=2)
        got, snap = run_windowed(txns, log, parallel=4, n_shards=2)
        assert report_tuple(got) == report_tuple(base)
        # Only 2 of the 4 workers host shards.
        hosting = [s for s in snap["parallel"]["assignments"].values() if s]
        assert len(hosting) == 2

    def test_committed_projection_is_dsr(self):
        oracle = SerializabilityOracle()
        for seed in range(4):
            txns, log = make_workload(seed)
            report, _ = run_windowed(txns, log, parallel=2, n_shards=4)
            assert oracle.is_dsr(report.committed_log)
            assert not (report.committed & report.failed)

    def test_repeat_run_deterministic(self):
        """Same programs, same seed, same service → identical reports
        (the second run rides the transport reset path)."""
        txns, log = make_workload(9)
        service = TransactionService(k=2, n_shards=2, parallel=1, window=4)
        try:
            service.submit_programs(txns)
            first = service.run(schedule=log)
            service.submit_programs(txns)
            second = service.run(schedule=log)
            assert report_tuple(first) == report_tuple(second)
        finally:
            service.close()

    def test_spawn_start_method_bit_identical(self):
        """The pickled-config path (spawn) matches fork/inline."""
        txns, log = make_workload(2, num_txns=6)
        base, _ = run_windowed(txns, log, parallel=0)
        spec = ShardSpec(n_shards=2, k=2)
        plane = ParallelShardSet(
            spec, workers=1, window=4, start_method="spawn"
        )
        service = TransactionService(k=2, n_shards=2, parallel=0, window=4)
        # Swap the inline plane for the spawn-transport one.
        service.executor.parallel_plane.close()
        service.executor.parallel_plane = plane
        try:
            service.submit_programs(txns)
            got = service.run(schedule=log)
            assert plane._transport.start_method == "spawn"
            assert report_tuple(got) == report_tuple(base)
        finally:
            service.close()
            plane.close()


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
        engine; the coordinator must re-ship the seeded snapshot, so
        worker runs stay equivalent to inline ones."""
        txns, log = self.hot_workload()
        base, _ = run_windowed(
            txns, log, parallel=0, anti_starvation=True, window=3
        )
        got, _ = run_windowed(
            txns, log, parallel=2, anti_starvation=True, window=3
        )
        assert report_tuple(got) == report_tuple(base)
        assert SerializabilityOracle().is_dsr(base.committed_log)

    def test_remedy_reaches_shard_engines(self):
        """anti_starvation plumbs through ShardSpec into the per-shard
        schedulers (not just the legacy executor path)."""
        spec = ShardSpec(n_shards=2, k=2, anti_starvation=True)
        plane = ParallelShardSet(spec, workers=0, window=4)
        assert plane._config[2] is True
        plane.close()


class TestFailureSurfacing:
    def test_worker_crash_names_worker_and_shards(self):
        txns, log = make_workload(1)
        service = TransactionService(k=2, n_shards=2, parallel=1, window=4)
        try:
            service.submit_programs(txns)
            service.run(schedule=log)  # spins the worker up
            process, _conn, _sids = (
                service.executor.parallel_plane._transport._workers[0]
            )
            process.kill()
            process.join(timeout=10)
            service.submit_programs(txns)
            with pytest.raises(ParallelExecutionError) as excinfo:
                service.run(schedule=log)
            assert excinfo.value.worker == 0
            assert set(excinfo.value.shards) == {0, 1}
            assert "worker 0" in str(excinfo.value)
        finally:
            service.close()

    def test_no_live_children_after_mid_window_failure(self):
        """A mid-window ParallelExecutionError must close the plane on
        the way out: the *surviving* workers are shut down too, not
        leaked as live children of the coordinator process."""
        import multiprocessing

        txns, log = make_workload(1)
        service = TransactionService(k=2, n_shards=4, parallel=2, window=4)
        try:
            service.submit_programs(txns)
            service.run(schedule=log)  # spins both workers up
            workers = service.executor.parallel_plane._transport._workers
            processes = [entry[0] for entry in workers.values()]
            assert len(processes) == 2
            assert all(process.is_alive() for process in processes)
            processes[0].kill()
            processes[0].join(timeout=10)
            service.submit_programs(txns)
            with pytest.raises(ParallelExecutionError):
                service.run(schedule=log)
            # Close-on-error: the healthy worker is gone as well.
            for process in processes:
                process.join(timeout=10)
                assert not process.is_alive()
            leaked = set(processes) & set(multiprocessing.active_children())
            assert not leaked
        finally:
            service.close()

    def test_worker_exception_propagates_with_traceback(self):
        txns, log = make_workload(1)
        service = TransactionService(k=2, n_shards=1, parallel=1, window=4)
        try:
            service.submit_programs(txns)
            service.run(schedule=log)
            plane = service.executor.parallel_plane
            plane._transport.request(0, ("bogus-kind",))
            with pytest.raises(ParallelExecutionError, match="bogus-kind"):
                plane._transport.collect(0)
        finally:
            service.close()


class TestFanoutPlanning:
    def test_jobs_clamped_to_cpus(self):
        assert plan_fanout(8, None, cpu=4) == 4
        assert plan_fanout(2, None, cpu=16) == 2

    def test_shard_workers_force_single_job(self):
        assert plan_fanout(8, 2, cpu=16) == 1
        assert plan_fanout(8, 4, cpu=16) == 1

    def test_inline_and_single_worker_keep_pool(self):
        assert plan_fanout(8, 0, cpu=16) == 8
        assert plan_fanout(8, 1, cpu=16) == 8

    def test_floor_of_one(self):
        assert plan_fanout(0, None, cpu=4) == 1
        assert plan_fanout(-3, 2, cpu=4) == 1


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
            build_parser().parse_args(["bench", "--decision-core", "python"])

    def test_invalid_configs_rejected(self):
        spec = ShardSpec(n_shards=2, k=2)
        with pytest.raises(ValueError, match="workers"):
            ParallelShardSet(spec, workers=-1)
        with pytest.raises(ValueError, match="window"):
            ParallelShardSet(spec, workers=0, window=0)
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
        plane = ParallelShardSet(spec, workers=0, window=4)
        plane.close()
        with pytest.raises(RuntimeError, match="closed"):
            plane.begin_run()
