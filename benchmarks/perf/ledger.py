"""The per-layer ledger: one traced pass turned into named numbers.

A layer is a module of the program.  ``*_s`` is the layer's *self* time
in the traced pass (its spans minus the spans they caused), ``*_calls``
how often the harness saw the boundary crossed; the other numbers are
the program's own public counters (``executor.metrics``,
``stage_snapshot()``, ``table.element_visits``), read after the pass.
A layer a workload bypasses reads 0 — that is its prediction of "no
change" (see the table in ``README.md``).  Every name here is listed in
``BENCHMARK.json`` under ``per_layer``; the harness test keeps the two
in step.
"""

from __future__ import annotations

import os
from typing import Any

from .trace import Tracer
from .workloads import Pass, Workload


def layer_metrics(
    workload: Workload,
    service: Any,
    traced: Pass,
    tracer: Tracer,
    untraced_wall_s: float,
    state_dir: str,
) -> dict[str, float]:
    """The ledger of one traced pass (*service* still holds its state)."""
    calls, self_s, counts = tracer.calls, tracer.self_s, traced.counts
    stages = service.stage_snapshot()
    ipc = stages.get("parallel", {}).get("ipc", {})
    windows = ipc.get("windows", 0)
    metrics: dict[str, float] = {
        # -- sessions: the front door
        "sessions.submit_s": self_s("sessions.submit"),
        "sessions.run_calls": calls("sessions.run"),
        # -- admission: queue, retry policy, simulated clock
        "admission.begin_s": self_s("admission.begin"),
        "admission.pop_calls": calls("admission.pop"),
        "admission.pop_s": self_s("admission.pop"),
        "admission.requeue_calls": calls("admission.requeue"),
        "admission.requeue_s": self_s("admission.requeue"),
        "admission.retries": counts["retries"],
        "admission.delayed_retries": counts["delayed_retries"],
        "admission.waits": counts["waits"],
        "admission.max_queue_depth": counts["max_queue_depth"],
        "admission.latency_p99_ticks": counts["latency_p99"],
        # -- service: run loop + abort/undo bookkeeping outside child spans
        "service.self_s": self_s("service.execute"),
        "service.reset_s": self_s("service.reset"),
        "service.aborts": counts["aborts"],
        "service.restarts": counts["restarts"],
        "service.refusals": counts["failures"],
        "service.ops_executed": counts["ops_executed"],
        "service.ops_reexecuted": counts["ops_reexecuted"],
        "service.commit_parks": counts["commit_parks"],
        "service.cascade_restarts": counts["cascade_restarts"],
        "service.dependency_cycle_restarts": counts["dependency_cycle_restarts"],
        # -- scheduler: Algorithm 1 around the table
        "scheduler.process_calls": calls("scheduler.process"),
        "scheduler.process_s": self_s("scheduler.process"),
        "scheduler.abort_calls": calls("scheduler.abort"),
        "scheduler.abort_s": self_s("scheduler.abort"),
        "scheduler.restart_s": self_s("scheduler.restart"),
        "scheduler.commit_s": self_s("scheduler.commit"),
        "scheduler.accept_ratio": _ratio(
            counts["accepted_ops"], counts["scheduled_ops"]
        ),
        # -- table / timestamp: Set and Definition 6
        "table.order_after_latest_calls": calls("table.order_after_latest"),
        "table.order_after_latest_s": self_s("table.order_after_latest"),
        "table.set_less_calls": calls("table.set_less"),
        "table.set_less_s": self_s("table.set_less"),
        "table.compare_vectors_calls": calls("table.compare_vectors"),
        "table.compare_vectors_s": self_s("table.compare_vectors"),
        "table.element_visits": counts["element_visits"],
        "table.rows_live_end": _live_rows(service),
        "timestamp.compare_calls": calls("timestamp.compare"),
        # -- mvcc: version chains (multiversion workloads only)
        "mvcc.resolve_read_calls": calls("mvcc.resolve_read"),
        "mvcc.resolve_read_s": self_s("mvcc.resolve_read"),
        "mvcc.resolve_write_calls": calls("mvcc.resolve_write"),
        "mvcc.resolve_write_s": self_s("mvcc.resolve_write"),
        "mvcc.classify_reader_calls": calls("mvcc.classify_reader"),
        "mvcc.classify_reader_s": self_s("mvcc.classify_reader"),
        "mvcc.retract_s": self_s("mvcc.retract"),
        "mvcc.gc_calls": calls("mvcc.gc"),
        "mvcc.gc_s": self_s("mvcc.gc"),
        **_chain_gauges(service.scheduler if workload.multiversion else None),
        # -- storage: flat store + undo log
        "storage.read_calls": calls("storage.read"),
        "storage.write_calls": calls("storage.write"),
        "storage.rw_s": self_s("storage.read") + self_s("storage.write"),
        "storage.rollback_calls": calls("storage.rollback"),
        "storage.rollback_s": self_s("storage.rollback"),
        "storage.undo_ops": counts["undo_ops"],
        # -- router / shard
        "router.shard_of_item_calls": calls("router.shard_of_item"),
        "shard.occupancy_max": max(stages["shard_occupancy"]),
        # -- parallel: windowed plane (coordinator, then hosted engines)
        "parallel.run_window_calls": calls("parallel.run_window"),
        "parallel.run_window_s": self_s("parallel.run_window"),
        "parallel.engine_s": self_s("parallel.engine"),
        "parallel.windows": windows,
        "parallel.entries_per_window": _ratio(
            ipc.get("entries_shipped", 0), windows
        ),
        "parallel.sync_rounds": ipc.get("sync_rounds", 0),
        "parallel.rows_shipped": ipc.get("rows_shipped", 0),
        "parallel.messages": ipc.get("messages", 0),
        # -- transport / recovery / wal: the 2PC data plane
        "transport.send_calls": calls("transport.send"),
        "transport.send_s": self_s("transport.send"),
        "transport.recv_s": self_s("transport.recv"),
        "transport.encode_s": self_s("transport.encode"),
        "transport.decode_s": self_s("transport.decode"),
        "transport.bytes": tracer.bytes("transport.encode"),
        "recovery.node_s": self_s("recovery.node"),
        "recovery.rounds": ipc.get("rounds", 0),
        "recovery.prepares": ipc.get("prepares", 0),
        "recovery.window_aborts": ipc.get("window_aborts", 0),
        "wal.append_calls": calls("wal.append"),
        "wal.append_s": self_s("wal.append"),
    }
    wal_bytes = _directory_bytes(state_dir) if workload.durable else 0
    metrics["wal.bytes_written"] = wal_bytes
    metrics["wal.bytes_per_committed_op"] = _ratio(
        wal_bytes, counts["ops_executed"] - counts["ops_reexecuted"]
    )
    # -- the tracer itself
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced_wall_s
    metrics["trace.covered_share"] = tracer.covered_s() / traced.wall_s
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _live_rows(service: Any) -> int:
    """Timestamp-table rows alive when the pass ended.  The windowed
    plane keeps its tables inside the engines, out of public reach: 0."""
    if service.executor.parallel_plane is not None:
        return 0
    return len(service.scheduler.table.known_txns())


def _chain_gauges(scheduler: Any) -> dict[str, float]:
    if scheduler is None:
        return {
            "mvcc.versions_reclaimed": 0,
            "mvcc.chain_len_max_end": 0,
            "mvcc.mv_read_aborts": 0,
        }
    return {
        "mvcc.versions_reclaimed": scheduler.chain_versions_reclaimed,
        "mvcc.chain_len_max_end": max(
            (len(chain) for chain in scheduler.chains().values()), default=0
        ),
        "mvcc.mv_read_aborts": scheduler.mv_read_aborts,
    }


def _directory_bytes(path: str) -> int:
    """Bytes in the write-ahead logs: every log is truncated when a run
    begins, so the sizes are what this pass appended."""
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )
