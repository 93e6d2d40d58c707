"""Tests for the staged pipeline: sessions, admission, shards, parity."""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mtk import MTkScheduler
from repro.engine.pipeline import (
    AdmissionQueue,
    CappedBackoff,
    GlobalRestart,
    ImmediateRetry,
    PipelineExecutor,
    Session,
    SessionError,
    ShardRouter,
    ShardSet,
    ShardSpec,
    TransactionService,
    resolve_policy,
    stable_hash,
)
from repro.model.generator import WorkloadSpec, generate_transactions
from repro.model.log import Log
from repro.model.operations import two_step


def _workload(seed, **overrides):
    kwargs = dict(num_txns=8, ops_per_txn=4, num_items=6, write_ratio=0.5)
    kwargs.update(overrides)
    return generate_transactions(WorkloadSpec(**kwargs), random.Random(seed))


def _report_tuple(report):
    """Every deterministic field of an ExecutionReport, comparable."""
    return (
        sorted(report.committed),
        sorted(report.failed),
        report.restarts,
        report.ops_executed,
        report.ops_reexecuted,
        report.ignored_writes,
        report.undo_count,
        tuple(report.committed_ops),
    )


class TestLegacyParity:
    """The default executor takes the plain fast lane, and the
    ``n_shards=1`` service must be bit-for-bit a bare
    ``PipelineExecutor(MTkScheduler(2))``."""

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_service_one_shard_equals_legacy(self, seed):
        txns = _workload(seed)
        bare = PipelineExecutor(MTkScheduler(2)).execute(txns, seed=seed)
        service = TransactionService(k=2, n_shards=1)
        service.submit_programs(txns)
        report = service.run(seed=seed)
        assert _report_tuple(report) == _report_tuple(bare)

    def test_default_queue_is_plain(self):
        assert PipelineExecutor(MTkScheduler(2))._admission.is_plain

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_explicit_immediate_policy_changes_nothing(self, seed):
        """Naming the default policy explicitly keeps the fast lane."""
        txns = _workload(seed)
        bare = PipelineExecutor(MTkScheduler(2)).execute(txns, seed=seed)
        piped = PipelineExecutor(
            MTkScheduler(2), retry_policy="immediate"
        ).execute(txns, seed=seed)
        assert _report_tuple(piped) == _report_tuple(bare)


class TestDeterminism:
    """Same seed => identical report, in-process and across processes."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"retry_policy": "capped-backoff"},
            {"batch_size": 3, "queue_capacity": 8},
            {
                "retry_policy": "capped-backoff",
                "batch_size": 4,
                "queue_capacity": 12,
                "shuffle_batches": True,
            },
        ],
        ids=["plain", "backoff", "batched", "staged-shuffled"],
    )
    def test_same_seed_same_report(self, kwargs):
        txns = _workload(11)
        runs = [
            PipelineExecutor(MTkScheduler(2), **kwargs).execute(txns, seed=11)
            for _ in range(2)
        ]
        assert _report_tuple(runs[0]) == _report_tuple(runs[1])

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_service_deterministic(self, n_shards):
        txns = _workload(5)
        tuples = []
        for _ in range(2):
            service = TransactionService(k=3, n_shards=n_shards)
            service.submit_programs(txns)
            tuples.append(_report_tuple(service.run(seed=5)))
        assert tuples[0] == tuples[1]

    def test_shard_routing_survives_hash_randomization(self):
        """crc32 routing must agree across interpreters with different
        PYTHONHASHSEED values (builtin hash(str) would not)."""
        script = (
            "from repro.engine.pipeline import ShardRouter\n"
            "r = ShardRouter(4)\n"
            "items = [f'item{i}' for i in range(32)]\n"
            "print([r.shard_of_item(i) for i in items])\n"
        )
        outputs = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = "src"
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1

    def test_bench_cell_identical_across_processes(self):
        """A sharded run's counters, outcomes and stage snapshot are
        identical when computed in two processes with different hash
        seeds: a seed determines the whole cell."""
        script = (
            "import json, random\n"
            "from repro.engine.pipeline import TransactionService\n"
            "from repro.model.generator import WorkloadSpec, "
            "generate_transactions\n"
            "spec = WorkloadSpec(num_txns=8, ops_per_txn=4, num_items=6, "
            "write_ratio=0.5, skew=1.5)\n"
            "service = TransactionService(k=3, n_shards=2, max_attempts=8)\n"
            "service.submit_programs("
            "generate_transactions(spec, random.Random(0)))\n"
            "report = service.run(seed=0)\n"
            "cell = dict(stats=dict(service.executor.stats), "
            "committed=sorted(report.committed), "
            "failed=sorted(report.failed), "
            "visits=service.scheduler.table.element_visits, "
            "stages=service.stage_snapshot())\n"
            "print(json.dumps(cell, sort_keys=True))\n"
        )
        outputs = set()
        for hashseed in ("3", "4"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = "src"
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestShardRouter:
    def test_stable_hash_is_crc32(self):
        import zlib

        assert stable_hash("x") == zlib.crc32(b"x")

    def test_routing_is_total_and_stable(self):
        router = ShardRouter(3)
        for item in ("x", "y", "z", "item17"):
            shard = router.shard_of_item(item)
            assert 0 <= shard < 3
            assert router.shard_of_item(item) == shard  # cached path

    def test_custom_functions(self):
        router = ShardRouter(2, item_fn=len, txn_fn=lambda t: t + 1)
        assert router.shard_of_item("ab") == 0
        assert router.shard_of_item("abc") == 1
        assert router.shard_of_txn(1) == 0

    def test_placement_partitions_items(self):
        router = ShardRouter(4)
        items = [f"i{n}" for n in range(40)]
        groups = router.placement(items)
        assert sorted(sum(groups.values(), [])) == sorted(items)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestShardSet:
    def test_one_shard_builds_flat_mtk(self):
        shard_set = ShardSet(ShardSpec(n_shards=1, k=3))
        assert type(shard_set.scheduler) is MTkScheduler

    def test_many_shards_build_dmt(self):
        from repro.core.distributed import DMTkScheduler

        shard_set = ShardSet(ShardSpec(n_shards=4, k=2))
        assert isinstance(shard_set.scheduler, DMTkScheduler)

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_sharded_runs_stay_serializable(self, n_shards, seed):
        txns = _workload(seed, num_txns=10)
        service = TransactionService(k=2, n_shards=n_shards)
        service.submit_programs(txns)
        report = service.run(seed=seed)
        assert report.is_serializable()
        assert not report.committed & report.failed

    def test_occupancy_sums_to_one(self):
        txns = _workload(2, num_items=12)
        service = TransactionService(k=2, n_shards=3)
        service.submit_programs(txns)
        service.run(seed=2)
        occupancy = service.shards.occupancy()
        assert len(occupancy) == 3
        assert abs(sum(occupancy) - 1.0) < 1e-9

    def test_snapshot_accounts_every_processed_op(self):
        txns = _workload(4)
        service = TransactionService(k=2, n_shards=2)
        service.submit_programs(txns)
        service.run(seed=4)
        rows = service.shards.snapshot()
        total = sum(row["ops"] for row in rows)
        decisions = sum(
            service.scheduler.stats.get(key, 0)
            for key in ("accepted", "rejected", "ignored")
        )
        assert total == decisions

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(n_shards=0)
        with pytest.raises(ValueError):
            ShardSpec(k=0)
        with pytest.raises(ValueError):
            ShardSet(ShardSpec(n_shards=2), router=ShardRouter(3))

    def test_executor_rejects_foreign_shard_scheduler(self):
        shard_set = ShardSet(ShardSpec(n_shards=2))
        with pytest.raises(ValueError):
            PipelineExecutor(MTkScheduler(2), shards=shard_set)


class TestRetryPolicies:
    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_policy(None), ImmediateRetry)
        assert isinstance(resolve_policy("capped-backoff"), CappedBackoff)
        policy = GlobalRestart()
        assert resolve_policy(policy) is policy
        with pytest.raises(ValueError):
            resolve_policy("nope")

    def test_backoff_delay_schedule(self):
        policy = CappedBackoff(base=1, factor=2, cap=8)
        assert [policy.delay(1, a) for a in range(1, 7)] == [1, 2, 4, 8, 8, 8]
        with pytest.raises(ValueError):
            CappedBackoff(base=-1)

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_backoff_commits_same_set_serializably(self, seed):
        """Backoff changes retry timing, never correctness."""
        txns = _workload(seed)
        report = PipelineExecutor(
            MTkScheduler(2), retry_policy=CappedBackoff()
        ).execute(txns, seed=seed)
        assert report.is_serializable()
        assert not report.committed & report.failed

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_global_restart_policy_serializable(self, seed):
        txns = _workload(seed, num_txns=6)
        executor = PipelineExecutor(
            MTkScheduler(1), retry_policy="global-restart", max_attempts=6
        )
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()
        # every abort escalated: no plain per-transaction retries remain
        if report.restarts:
            assert executor.stats["global_restarts"] > 0

    @pytest.mark.parametrize("policy", ["immediate", "global-restart"])
    @pytest.mark.parametrize(
        "lane",
        [
            dict(n_shards=2),
            dict(n_shards=2, batch_size=4),
            dict(n_shards=2, parallel=0, window=8),
        ],
        ids=["plain", "staged", "windowed"],
    )
    def test_aborts_counts_rejected_operations_on_every_lane(
        self, lane, policy
    ):
        """``aborts`` is "operations the scheduler rejected", whatever
        the lane and whatever the policy then does about it."""
        txns = _workload(5, num_txns=40)
        with TransactionService(k=2, retry_policy=policy, **lane) as service:
            service.submit_programs(txns)
            service.run(seed=5)
            rejected = sum(
                shard["rejected"]
                for shard in service.stage_snapshot()["shards"]
            )
            assert rejected > 0
            assert service.executor.stats["aborts"] == rejected


class TestAdmissionQueue:
    def test_plain_detection(self):
        assert AdmissionQueue().is_plain
        assert not AdmissionQueue(capacity=4).is_plain
        assert not AdmissionQueue(batch_size=2).is_plain
        assert not AdmissionQueue(retry_policy="capped-backoff").is_plain

    def test_backing_list_guard(self):
        queue = AdmissionQueue(batch_size=2)
        with pytest.raises(RuntimeError):
            queue.backing_list()

    def test_batched_release_order_preserved(self):
        queue = AdmissionQueue(batch_size=2)
        queue.begin([1, 2, 3, 4, 5])
        assert [queue.pop() for _ in range(5)] == [1, 2, 3, 4, 5]
        assert queue.pop() is None
        assert queue.snapshot()["batches"] == 3

    def test_capacity_counts_waits(self):
        queue = AdmissionQueue(capacity=2)
        queue.begin([1, 2, 3, 4])
        drained = []
        while (txn := queue.pop()) is not None:
            drained.append(txn)
        assert drained == [1, 2, 3, 4]
        assert queue.snapshot()["waits"] >= 1
        assert queue.snapshot()["max_queue_depth"] <= 2

    def test_delayed_retry_matures_in_simulated_time(self):
        queue = AdmissionQueue(retry_policy=CappedBackoff(base=2))
        queue.begin([1, 2, 3])
        assert queue.pop() == 1
        queue.requeue(9, count=2, attempt=1)  # ready at tick 1 + 2 = 3
        assert queue.pop() == 2  # tick 2
        assert queue.pop() == 3  # tick 3
        assert queue.pop() == 9  # matured
        assert queue.pop() == 9
        assert queue.pop() is None
        assert queue.snapshot()["delayed_retries"] == 1

    def test_drained_queue_jumps_to_earliest_delayed(self):
        queue = AdmissionQueue(retry_policy=CappedBackoff(base=5, cap=16))
        queue.begin([1])
        assert queue.pop() == 1
        queue.requeue(7, count=1, attempt=1)
        assert queue.pop() == 7  # clock jumps, no livelock
        assert queue.pop() is None

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(batch_size=0)


class TestSessions:
    def test_context_manager_commits(self):
        service = TransactionService(k=2)
        with service.open() as session:
            session.read("x").write("y")
        assert session.closed
        assert len(service.pending) == 1
        report = service.run(seed=0)
        assert service.outcome(session.txn_id) == "committed"
        assert report.is_serializable()

    def test_exception_abandons(self):
        service = TransactionService(k=2)
        with pytest.raises(RuntimeError):
            with service.open() as session:
                session.write("x")
                raise RuntimeError("client crashed")
        assert session.closed
        assert service.pending == ()

    def test_closed_session_rejects_operations(self):
        service = TransactionService(k=2)
        session = service.open()
        session.write("x")
        session.commit()
        with pytest.raises(SessionError):
            session.read("y")
        with pytest.raises(SessionError):
            session.commit()

    def test_empty_commit_rejected(self):
        service = TransactionService(k=2)
        with pytest.raises(SessionError):
            service.open().commit()

    def test_duplicate_ids_rejected(self):
        service = TransactionService(k=2)
        service.open(txn_id=7).write("x").commit()
        with pytest.raises(SessionError):
            service.open(txn_id=7)

    def test_run_requires_work_and_consumes_it(self):
        service = TransactionService(k=2)
        with pytest.raises(SessionError):
            service.run()
        service.open().write("x").commit()
        service.run(seed=0)
        with pytest.raises(SessionError):
            service.run()  # consumed

    def test_explicit_schedule(self):
        service = TransactionService(k=2)
        service.submit_programs(
            [two_step(1, ["x"], ["y"]), two_step(2, ["y"], ["x"])]
        )
        report = service.run(schedule=Log.parse("R1[x] R2[y] W1[y] W2[x]"))
        assert report.is_serializable()

    def test_stage_snapshot_shape(self):
        service = TransactionService(
            k=2, n_shards=2, retry_policy="capped-backoff", batch_size=2
        )
        service.submit_programs(_workload(1))
        service.run(seed=1)
        snapshot = service.stage_snapshot()
        assert snapshot["admission"]["policy"] == "capped-backoff"
        assert len(snapshot["shards"]) == 2
        assert len(snapshot["shard_occupancy"]) == 2
        assert json.dumps(snapshot)  # JSON-serializable


class TestStagedLaneCorrectness:
    """The staged lane must preserve the executor's invariants."""

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_accounting_invariant(self, seed):
        """Everything executed either survives in committed_ops or was
        counted as re-executed work."""
        txns = _workload(seed)
        report = PipelineExecutor(
            MTkScheduler(2),
            retry_policy="capped-backoff",
            batch_size=3,
            queue_capacity=10,
        ).execute(txns, seed=seed)
        assert len(report.committed_ops) == (
            report.ops_executed - report.ops_reexecuted
        )

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_staged_commits_serializable_with_partial_rollback(self, seed):
        txns = _workload(seed, num_txns=6)
        report = PipelineExecutor(
            MTkScheduler(3, partial_rollback=True),
            rollback="partial",
            retry_policy="capped-backoff",
            batch_size=4,
        ).execute(txns, seed=seed)
        assert report.is_serializable()

    def test_stage_metrics_reach_registry(self):
        executor = PipelineExecutor(
            MTkScheduler(2), retry_policy="capped-backoff", batch_size=2
        )
        executor.execute(_workload(8), seed=8)
        stats = executor.stats
        snapshot = executor.stage_snapshot()["admission"]
        assert stats["retries_delayed"] == snapshot["delayed_retries"]
        assert stats["admission_waits"] == snapshot["waits"]
        assert executor.metrics.gauge("queue_depth_max").value == float(
            snapshot["max_queue_depth"]
        )
