"""The unified benchmark runner behind ``python -m repro bench``.

Executes a fixed family of seeded workload scenarios — one per protocol
and contention regime, mirroring the pytest benches under
``benchmarks/`` — through the :class:`~repro.engine.executor.
TransactionExecutor` and the metrics registry, and consolidates the
results into one machine-readable ``BENCH_repro.json``:

.. code-block:: json

    {
      "schema": "repro-bench/v3",
      "quick": true,
      "scenarios": {
        "mt3_uniform": {
          "throughput": 104512.3,
          "aborts": 12,
          "restarts": 12,
          "element_visits": 4821,
          "wall_ms": 3.1,
          "stages": {
            "admission": {"max_queue_depth": 40, "waits": 0, ...},
            "shards": [{"shard": 0, "ops": 512, ...}],
            "shard_occupancy": [0.52, 0.48]
          },
          ...
        }
      }
    }

Schema v2 added the per-stage ``stages`` block — admission queue
counters always, per-shard occupancy when the scenario runs the sharded
pipeline.  Schema v3 redefines ``throughput`` as *committed
transactions per second* (TPS — the standard measure of useful work for
a concurrency-control comparison; the old executed-ops rate rewarded
restart churn) and keeps the ops-based rate as ``ops_rate``.
Multiversion scenarios additionally report ``mv_read_aborts`` /
``mv_horizon_aborts``.  Consumers (``validate_payload``, the CI
perf-smoke job) accept the current schema only.

Every subsequent performance PR regenerates this file and diffs it
against the committed baseline, so "as fast as the hardware allows" has a
trajectory instead of anecdotes.  Scheduler construction is deferred to
call time (factories), and all randomness flows through the scenario
seeds, so runs are reproducible bit-for-bit apart from wall-clock fields.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

#: Version tag of the JSON schema below; bump on breaking changes.
SCHEMA = "repro-bench/v3"

#: Schemas :func:`validate_payload` accepts.
ACCEPTED_SCHEMAS = (SCHEMA,)

#: Keys every scenario result must carry (the regression contract).
REQUIRED_RESULT_KEYS = (
    "throughput",
    "aborts",
    "restarts",
    "element_visits",
    "wall_ms",
)


@dataclass(frozen=True)
class Scenario:
    """One reproducible benchmark scenario.

    ``factory`` builds a fresh scheduler — or a
    :class:`~repro.engine.pipeline.shard.ShardSet`, which bundles the
    scheduler with its shard accounting — per seed; ``spec_kwargs`` feed
    a :class:`~repro.model.generator.WorkloadSpec`.  ``quick_seeds`` is
    the seed count used under ``--quick`` (CI smoke), ``full_seeds``
    otherwise.  ``executor_kwargs`` are extra
    :class:`~repro.engine.pipeline.service.PipelineExecutor` arguments
    (retry policy names, batch sizes — primitives only, so scenario
    lookups stay picklable for the process-pool fan-out).
    """

    name: str
    description: str
    factory: Callable[[], Any]
    spec_kwargs: Mapping[str, Any] = field(default_factory=dict)
    rollback: str = "full"
    write_policy: str = "immediate"
    max_attempts: int = 8
    quick_seeds: int = 2
    full_seeds: int = 10
    #: The executor's witness is single-version DSR; multiversion
    #: schedulers guarantee MV-serializability instead, so they opt out.
    check_serializable: bool = True
    #: Extra PipelineExecutor arguments (admission/retry configuration;
    #: ``parallel``/``window`` here run the scenario through the windowed
    #: parallel plane).
    executor_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: When set, the workload is a Zipf open-loop stream instead of a
    #: seed-interleaved batch: the mapping holds
    #: :class:`~repro.workloads.zipf.ZipfSpec` kwargs, and the executor
    #: runs with Poisson ``arrivals`` (latency percentiles land in the
    #: admission stage snapshot).
    open_loop: Mapping[str, Any] | None = None
    #: Smaller spec overrides used under ``--quick`` (the 10^5-txn
    #: open-loop scenarios shrink to CI-smoke size with these).
    quick_spec_kwargs: Mapping[str, Any] | None = None
    #: Timed executions per cell; ``None`` uses :data:`TIMED_REPEATS`.
    #: The heavyweight open-loop scenarios run once, unwarmed — a 10^5
    #: transaction stream amortizes its own warm-up.
    timed_repeats: int | None = None
    warmup: bool = True


def _default_scenarios() -> dict[str, Scenario]:
    # Imports are local so ``repro.obs`` stays importable without pulling
    # the whole engine in (and to keep the package free of import cycles).
    from ..core.composite import MTkStarScheduler
    from ..core.mtk import MTkScheduler
    from ..core.multiversion import MVMTkScheduler
    from ..engine.interval import IntervalScheduler
    from ..engine.optimistic import OptimisticScheduler
    from ..engine.pipeline import ShardSet, ShardSpec
    from ..engine.to_scheduler import ConventionalTOScheduler
    from ..engine.two_pl_scheduler import StrictTwoPLScheduler

    uniform = dict(num_txns=8, ops_per_txn=4, num_items=16, write_ratio=0.4)
    hotspot = dict(
        num_txns=8, ops_per_txn=4, num_items=6, write_ratio=0.5, skew=1.5
    )
    scenarios = [
        Scenario(
            "mt1_uniform",
            "MT(1) — conventional TO equivalent, moderate contention",
            lambda: MTkScheduler(1),
            uniform,
        ),
        Scenario(
            "mt3_uniform",
            "MT(3) on the same uniform stream (bench_throughput)",
            lambda: MTkScheduler(3),
            uniform,
        ),
        Scenario(
            "mt3_hotspot",
            "MT(3) under skewed hot-item contention (III-D-5 regime)",
            lambda: MTkScheduler(3),
            hotspot,
        ),
        Scenario(
            "mt3_antistarvation",
            "MT(3) with the III-D-4 starvation remedy on the hotspot",
            lambda: MTkScheduler(3, anti_starvation=True),
            hotspot,
        ),
        Scenario(
            "mt3_partial_rollback",
            "MT(3) with VI-C 1 partial rollback (bench_rollback)",
            lambda: MTkScheduler(3, partial_rollback=True),
            hotspot,
            rollback="partial",
        ),
        Scenario(
            "mtstar3_uniform",
            "composite MT(3*) recognizing TO(1)|TO(2)|TO(3)",
            lambda: MTkStarScheduler(3),
            uniform,
        ),
        Scenario(
            "mvmt3_uniform",
            "multiversion MT(3): abort-free reads (III-D-6d)",
            lambda: MVMTkScheduler(3),
            uniform,
            check_serializable=False,
        ),
        Scenario(
            "two_pl_uniform",
            "strict two-phase locking baseline",
            lambda: StrictTwoPLScheduler(),
            uniform,
        ),
        Scenario(
            "to_uniform",
            "conventional scalar timestamp ordering baseline",
            lambda: ConventionalTOScheduler(),
            uniform,
        ),
        Scenario(
            "optimistic_uniform",
            "Kung-Robinson style backward validation baseline",
            lambda: OptimisticScheduler(),
            uniform,
            # Backward validation is only sound when writes land after
            # validation; immediate writes let a read-before-write
            # anti-dependency against an earlier committer slip through.
            write_policy="deferred",
        ),
        Scenario(
            "interval_hotspot",
            "Bayer-style timestamp intervals under contention (VI-A)",
            lambda: IntervalScheduler(),
            hotspot,
        ),
        Scenario(
            "mt3_shard2",
            "sharded pipeline: MT(3) semantics over 2 partitions (V-B)",
            lambda: ShardSet(ShardSpec(n_shards=2, k=3)),
            hotspot,
        ),
        Scenario(
            "mt3_shard4",
            "sharded pipeline: MT(3) semantics over 4 partitions (V-B)",
            lambda: ShardSet(ShardSpec(n_shards=4, k=3)),
            hotspot,
        ),
        Scenario(
            "mt3_backoff_batched",
            "MT(3) hotspot through the staged lane: capped backoff, "
            "batched admission, bounded queue",
            lambda: MTkScheduler(3),
            hotspot,
            executor_kwargs=dict(
                retry_policy="capped-backoff",
                batch_size=8,
                queue_capacity=24,
            ),
        ),
    ]
    # ------------------------------------------------------------------
    # Zipf open-loop scaling family: 10^5 transactions (quick: 2*10^3),
    # skew 1.1, Poisson arrivals at 0.3 ops/tick, anti-starvation on
    # (open-loop hot keys livelock without the III-D-4 remedy).  One
    # sequential reference plus the windowed plane at 0 (inline) and
    # 1/2/4 worker processes — the ops/s-vs-workers curve.  The 10^5
    # committed logs are too large for the per-run DSR witness; the
    # conformance fuzzer's parallel-equivalence rule covers correctness
    # at checkable sizes.
    zipf_full = dict(num_txns=100_000)
    zipf_quick = dict(num_txns=2_000)

    def _zipf_scenario(
        name: str, description: str, n_shards: int, **executor_kwargs: Any
    ) -> Scenario:
        return Scenario(
            name,
            description,
            lambda n=n_shards: ShardSet(
                ShardSpec(n_shards=n, k=3, anti_starvation=True)
            ),
            zipf_full,
            open_loop=zipf_full,
            quick_spec_kwargs=zipf_quick,
            max_attempts=10,
            quick_seeds=1,
            full_seeds=1,
            check_serializable=False,
            timed_repeats=1,
            warmup=False,
            executor_kwargs=executor_kwargs,
        )

    # ------------------------------------------------------------------
    # MVCC contention family: MVMT(3) vs MT(3) vs 2PL on the regimes the
    # multiversion protocol targets — read-mostly traffic over a hot
    # working set (III-D-6d).  All six run the Agrawal–Carey–Livny
    # resource model (``op_service_time``: every executed operation,
    # including work thrown away by a restart, charges 150µs of
    # simulated data access) with retry-until-done attempts, so the v3
    # TPS throughput measures useful work per unit of resource rather
    # than scheduler CPU.  MVMT must win throughput AND aborts with
    # ``mv_read_aborts == 0``; the frozen BENCH baseline records it.
    mv_hotspot = dict(
        num_txns=60, ops_per_txn=6, num_items=24, write_ratio=0.2, skew=0.8
    )
    mv_zipf = dict(
        num_txns=60, ops_per_txn=6, num_items=24, write_ratio=0.3, skew=1.1
    )
    service_model = dict(op_service_time=150e-6)

    def _mv_scenario(name: str, description: str, factory, spec) -> Scenario:
        return Scenario(
            name,
            description,
            factory,
            spec,
            max_attempts=100,
            check_serializable=False,
            executor_kwargs=service_model,
            timed_repeats=1,
            warmup=False,
        )

    scenarios += [
        _mv_scenario(
            "mvmt3_hotspot",
            "MVMT(3) on the read-mostly hotspot: abort-free reads, "
            "commit-aware visibility (III-D-6d)",
            lambda: MVMTkScheduler(
                3, anti_starvation=True, commit_aware=True
            ),
            mv_hotspot,
        ),
        _mv_scenario(
            "mt3_hotspot_svc",
            "MT(3) control for mvmt3_hotspot (same stream, same model)",
            lambda: MTkScheduler(3, anti_starvation=True),
            mv_hotspot,
        ),
        _mv_scenario(
            "two_pl_hotspot_svc",
            "strict 2PL control for mvmt3_hotspot (deadlock-abort "
            "livelock under the hot set)",
            lambda: StrictTwoPLScheduler(),
            mv_hotspot,
        ),
        _mv_scenario(
            "mvmt3_zipf",
            "MVMT(3) on the Zipf(1.1) hot-key stream (III-D-6d)",
            lambda: MVMTkScheduler(
                3, anti_starvation=True, commit_aware=True
            ),
            mv_zipf,
        ),
        _mv_scenario(
            "mt3_zipf_svc",
            "MT(3) control for mvmt3_zipf (same stream, same model)",
            lambda: MTkScheduler(3, anti_starvation=True),
            mv_zipf,
        ),
        _mv_scenario(
            "two_pl_zipf_svc",
            "strict 2PL control for mvmt3_zipf",
            lambda: StrictTwoPLScheduler(),
            mv_zipf,
        ),
    ]
    scenarios += [
        _zipf_scenario(
            "zipf_open_mt3",
            "Zipf(1.1) open-loop stream, sequential staged reference",
            1,
        ),
        _zipf_scenario(
            "zipf_shard4_inline",
            "Zipf(1.1) open-loop, windowed plane in-process (4 shards)",
            4,
            parallel=0,
            window=32,
        ),
        _zipf_scenario(
            "zipf_shard4_p1",
            "Zipf(1.1) open-loop, 4 shards on 1 worker process",
            4,
            parallel=1,
            window=32,
        ),
        _zipf_scenario(
            "zipf_shard4_p2",
            "Zipf(1.1) open-loop, 4 shards on 2 worker processes",
            4,
            parallel=2,
            window=32,
        ),
        _zipf_scenario(
            "zipf_shard4_p4",
            "Zipf(1.1) open-loop, 4 shards on 4 worker processes",
            4,
            parallel=4,
            window=32,
        ),
    ]
    return {scenario.name: scenario for scenario in scenarios}


#: Lazily built on first use (avoids engine imports at module load).
_SCENARIOS: dict[str, Scenario] | None = None


def scenarios() -> dict[str, Scenario]:
    global _SCENARIOS
    if _SCENARIOS is None:
        _SCENARIOS = _default_scenarios()
    return _SCENARIOS


def _element_visits(scheduler: Any) -> int:
    """Definition 6 comparison cost, wherever the scheduler keeps tables."""
    table = getattr(scheduler, "table", None)
    if table is not None and hasattr(table, "element_visits"):
        return table.element_visits
    tables = getattr(scheduler, "tables", None)
    if tables:
        return sum(t.element_visits for t in tables)
    return 0


#: Per-seed integer counters; summed across seeds into the scenario record.
_COUNT_KEYS = (
    "aborts",
    "restarts",
    "element_visits",
    "ops_executed",
    "undo_ops",
    "ignored_writes",
    "committed",
    "failed",
)

#: Hottest functions kept per scenario under ``--profile``.
PROFILE_TOP = 8


def run_seed(
    name: str,
    seed: int,
    profile: bool = False,
    quick: bool = False,
    overrides: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Execute one ``(scenario, seed)`` cell of a *registered* scenario.

    This is the unit of the process-pool fan-out: module-level (hence
    picklable), fully determined by its arguments (all randomness flows
    through *seed*), and independent of every other cell.
    """
    return _run_seed_for(
        scenarios()[name],
        seed,
        profile=profile,
        quick=quick,
        overrides=overrides,
    )


#: Timed executions per (scenario, seed) cell; the reported wall time is
#: their minimum (timeit practice — the minimum is the estimate least
#: contaminated by scheduler preemption and other machine noise).
TIMED_REPEATS = 3


def _run_seed_for(
    scenario: Scenario,
    seed: int,
    profile: bool = False,
    quick: bool = False,
    overrides: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """One scenario × seed execution; returns the per-seed counters.

    ``quick`` swaps in the scenario's ``quick_spec_kwargs`` (the
    open-loop scenarios shrink their streams for CI smoke).  *overrides*
    replaces ``parallel``/``window`` executor arguments, but only on
    scenarios that already run the windowed plane — the sequential
    scenarios are the plane's reference semantics and must not be
    silently rerouted.

    Tracing is disabled on both the scheduler and the executor — decisions
    do not depend on it, and the hot path must not pay for event dicts
    nobody reads.  An untimed warm-up run on throwaway state precedes
    the timed runs (each on fresh state) so bytecode specialization and
    allocator warm-up don't bill the measurement; ``wall_s`` is the
    minimum over the repeats.  Every run sees identical inputs and
    execution is deterministic per seed, so the counters are identical
    across repeats — they are taken from the last run.
    """
    import random

    from ..engine.pipeline import PipelineExecutor, ShardSet
    from ..model.generator import WorkloadSpec, generate_transactions

    spec_kwargs = dict(scenario.spec_kwargs)
    if quick and scenario.quick_spec_kwargs is not None:
        spec_kwargs = dict(scenario.quick_spec_kwargs)
    executor_kwargs = dict(scenario.executor_kwargs)
    if overrides and "parallel" in executor_kwargs:
        for key in ("parallel", "window", "transport"):
            if overrides.get(key) is not None:
                executor_kwargs[key] = overrides[key]

    arrivals: dict[int, int] | None = None
    if scenario.open_loop is not None:
        from ..workloads.zipf import ZipfSpec, generate_zipf_workload

        zipf = ZipfSpec(**spec_kwargs)
        transactions, arrivals = generate_zipf_workload(
            zipf, random.Random(seed)
        )
    else:
        spec = WorkloadSpec(**spec_kwargs)
        transactions = generate_transactions(spec, random.Random(seed))

    def _fresh() -> PipelineExecutor:
        built = scenario.factory()
        if isinstance(built, ShardSet):
            scheduler, shards = built.scheduler, built
        else:
            scheduler, shards = built, None
        executor = PipelineExecutor(
            scheduler,
            max_attempts=scenario.max_attempts,
            rollback=scenario.rollback,
            write_policy=scenario.write_policy,
            shards=shards,
            **executor_kwargs,
        )
        scheduler.events.disable()
        executor.events.disable()
        return executor

    if scenario.warmup:
        warm = _fresh()
        try:
            warm.execute(transactions, seed=seed, arrivals=arrivals)
        finally:
            warm.close()

    repeats = scenario.timed_repeats or TIMED_REPEATS
    wall_s = None
    profile_rows = None
    for attempt in range(repeats):
        executor = _fresh()
        scheduler = executor.scheduler
        profiler = None
        if profile and attempt == 0:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        try:
            start = time.perf_counter()
            report = executor.execute(
                transactions, seed=seed, arrivals=arrivals
            )
            elapsed = time.perf_counter() - start
            if profiler is not None:
                profiler.disable()
                profile_rows = _profile_rows(profiler)
            if wall_s is None or elapsed < wall_s:
                wall_s = elapsed
            stages = executor.stage_snapshot()
            plane = executor.parallel_plane
            visits = (
                plane.element_visits
                if plane is not None
                else _element_visits(scheduler)
            )
        finally:
            executor.close()
    if scenario.check_serializable and not report.is_serializable():
        raise AssertionError(  # pragma: no cover - Theorem 2 guard
            f"{scenario.name}: committed projection not serializable"
        )
    # Aborts are counted executor-side: the composite's global restart
    # resets the scheduler (and its "rejected" counter) mid-run.
    result: dict[str, Any] = {
        "wall_s": wall_s,
        "aborts": executor.stats.get("aborts", 0),
        "restarts": report.restarts,
        "element_visits": visits,
        "ops_executed": report.ops_executed,
        "undo_ops": report.undo_count,
        "ignored_writes": report.ignored_writes,
        "committed": len(report.committed),
        "failed": len(report.failed),
        "stages": stages,
    }
    if hasattr(scheduler, "mv_read_aborts"):
        # Multiversion invariant surface: read-induced aborts must stay
        # zero (abort-free reads); horizon aborts record the GC trade-off.
        result["mv_read_aborts"] = scheduler.mv_read_aborts
        result["mv_horizon_aborts"] = scheduler.mv_horizon_aborts
    if profile_rows is not None:
        result["profile"] = profile_rows
    return result


def _profile_rows(profiler: Any) -> list[dict[str, Any]]:
    """Flatten a cProfile run into mergeable per-function rows."""
    import pstats

    rows = []
    for (filename, line, func), (cc, ncalls, tottime, cumtime, _callers) in (
        pstats.Stats(profiler).stats.items()  # type: ignore[attr-defined]
    ):
        rows.append(
            {
                "function": f"{Path(filename).name}:{line}:{func}",
                "calls": ncalls,
                "tottime_ms": tottime * 1000.0,
                "cumtime_ms": cumtime * 1000.0,
            }
        )
    return rows


def _merge_profiles(
    per_seed: Sequence[Sequence[Mapping[str, Any]]]
) -> list[dict[str, Any]]:
    """Sum per-seed profile rows by function; keep the hottest by tottime."""
    merged: dict[str, dict[str, Any]] = {}
    for rows in per_seed:
        for row in rows:
            slot = merged.setdefault(
                row["function"],
                {
                    "function": row["function"],
                    "calls": 0,
                    "tottime_ms": 0.0,
                    "cumtime_ms": 0.0,
                },
            )
            slot["calls"] += row["calls"]
            slot["tottime_ms"] += row["tottime_ms"]
            slot["cumtime_ms"] += row["cumtime_ms"]
    hottest = sorted(
        merged.values(), key=lambda row: row["tottime_ms"], reverse=True
    )[:PROFILE_TOP]
    for row in hottest:
        row["tottime_ms"] = round(row["tottime_ms"], 3)
        row["cumtime_ms"] = round(row["cumtime_ms"], 3)
    return hottest


def _merge_stages(
    per_seed: Sequence[Mapping[str, Any]]
) -> dict[str, Any] | None:
    """Fold per-seed stage snapshots into one block: admission counters
    sum (depth takes the max — it is a high-water mark), shard counters
    sum element-wise, and occupancy is recomputed from the summed ops."""
    snapshots = [cell["stages"] for cell in per_seed if "stages" in cell]
    if not snapshots:
        return None
    admission: dict[str, Any] = {
        "policy": snapshots[0]["admission"]["policy"]
    }
    for key in (
        "admitted",
        "retries",
        "delayed_retries",
        "waits",
        "batches",
    ):
        admission[key] = sum(snap["admission"][key] for snap in snapshots)
    admission["max_queue_depth"] = max(
        snap["admission"]["max_queue_depth"] for snap in snapshots
    )
    if any(snap["admission"].get("open_loop") for snap in snapshots):
        # Open-loop latency: completions sum; percentiles cannot be
        # averaged across seeds, so report the worst seed (conservative).
        admission["open_loop"] = 1
        admission["completed"] = sum(
            snap["admission"].get("completed", 0) for snap in snapshots
        )
        for key in ("latency_p50", "latency_p99", "latency_max"):
            values = [
                snap["admission"][key]
                for snap in snapshots
                if key in snap["admission"]
            ]
            if values:
                admission[key] = max(values)
    merged: dict[str, Any] = {"admission": admission}
    parallel_snaps = [
        snap["parallel"] for snap in snapshots if "parallel" in snap
    ]
    if parallel_snaps:
        first = parallel_snaps[0]
        block: dict[str, Any] = {
            key: first[key]
            for key in (
                "workers",
                "window",
                "start_method",
                "transport",
                "assignments",
            )
            if key in first
        }
        block["ipc"] = {
            key: sum(snap["ipc"][key] for snap in parallel_snaps)
            for key in first["ipc"]
        }
        block["worker_occupancy"] = first.get("worker_occupancy")
        merged["parallel"] = block
    shard_snaps = [snap["shards"] for snap in snapshots if "shards" in snap]
    if shard_snaps:
        n_shards = len(shard_snaps[0])
        shards = []
        for index in range(n_shards):
            row: dict[str, Any] = {"shard": index}
            for key in (
                "ops",
                "reads",
                "writes",
                "accepted",
                "rejected",
                "ignored",
                "commits_homed",
                "items",
            ):
                row[key] = sum(snap[index][key] for snap in shard_snaps)
            shards.append(row)
        merged["shards"] = shards
        total_ops = sum(row["ops"] for row in shards)
        merged["shard_occupancy"] = [
            round(row["ops"] / total_ops, 4) if total_ops else 0.0
            for row in shards
        ]
    return merged


def _aggregate(
    scenario: Scenario, per_seed: Sequence[Mapping[str, Any]]
) -> dict[str, Any]:
    """Fold per-seed cells into one scenario record (seed order fixed by
    the caller, so the sums are reproducible regardless of worker order)."""
    totals = {key: 0 for key in _COUNT_KEYS}
    wall_s = 0.0
    for cell in per_seed:
        wall_s += cell["wall_s"]
        for key in _COUNT_KEYS:
            totals[key] += cell[key]
    result: dict[str, Any] = {
        "description": scenario.description,
        "seeds": len(per_seed),
        # v3: throughput is committed transactions per second (useful
        # work).  The executed-ops rate stays available as ops_rate.
        "throughput": round(totals["committed"] / wall_s, 1)
        if wall_s > 0
        else 0.0,
        "ops_rate": round(totals["ops_executed"] / wall_s, 1)
        if wall_s > 0
        else 0.0,
        "wall_ms": round(wall_s * 1000.0, 3),
        **totals,
    }
    for key in ("mv_read_aborts", "mv_horizon_aborts"):
        if any(key in cell for cell in per_seed):
            result[key] = sum(cell.get(key, 0) for cell in per_seed)
    stages = _merge_stages(per_seed)
    if stages is not None:
        result["stages"] = stages
    profiles = [cell["profile"] for cell in per_seed if "profile" in cell]
    if profiles:
        result["profile"] = _merge_profiles(profiles)
    return result


def run_scenario(
    scenario: Scenario,
    quick: bool = False,
    profile: bool = False,
) -> dict[str, Any]:
    """Execute one scenario across its seeds; returns the result record."""
    cells = [
        _run_seed_for(
            scenario,
            seed,
            profile=profile,
            quick=quick,
        )
        for seed in range(scenario.quick_seeds if quick else scenario.full_seeds)
    ]
    return _aggregate(scenario, cells)


def _run_cell(
    task: tuple[str, int, bool, bool, tuple]
) -> tuple[str, int, dict[str, Any]]:
    """Pool entry point: one ``(scenario, seed)`` cell, tagged for reorder."""
    name, seed, profile, quick, override_items = task
    return name, seed, run_seed(
        name,
        seed,
        profile=profile,
        quick=quick,
        overrides=dict(override_items),
    )


def run_bench(
    quick: bool = False,
    only: Sequence[str] | None = None,
    out: str | Path | None = "BENCH_repro.json",
    jobs: int = 1,
    profile: bool = False,
    parallel: int | None = None,
    window: int | None = None,
    transport: str | None = None,
) -> dict[str, Any]:
    """Run the scenario family and write the consolidated JSON.

    ``only`` filters scenario names; ``out=None`` skips writing.  Returns
    the payload either way.

    ``jobs > 1`` fans the independent ``scenarios × seeds`` cells out over
    a process pool.  Per-seed results are deterministic and aggregation
    happens in fixed (scenario, seed) order, so everything except the
    wall-clock-derived fields (``wall_ms``, ``throughput``) is identical
    to a ``jobs=1`` run.  ``profile=True`` attaches a per-scenario cProfile
    top-hotspot breakdown; the profiler only runs on the first timed repeat,
    so the minimum-of-repeats wall clock still comes from unprofiled runs.

    ``parallel``/``window`` override the worker count and window size of
    scenarios that run the windowed parallel plane (the sequential
    scenarios are never rerouted); ``transport`` reroutes those same
    scenarios onto the recoverable data plane (``"loopback"`` or
    ``"tcp"``) so the network/2PC overhead can be measured against the
    pipe baseline.  ``jobs`` is planned around them via
    :func:`~repro.engine.pipeline.parallel.plan_fanout`: capped at the
    machine's core count, and forced to 1 whenever scenario workers
    would multiply underneath the pool — two layers of process fan-out
    oversubscribe every core and produce garbage timings.
    """
    from ..engine.pipeline import plan_fanout

    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    table = scenarios()
    selected = list(only) if only else sorted(table)
    unknown = [name for name in selected if name not in table]
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {unknown}; available: {sorted(table)}"
        )
    overrides = {"parallel": parallel, "window": window, "transport": transport}
    worker_counts = [
        overrides["parallel"]
        if overrides["parallel"] is not None
        else int(table[name].executor_kwargs.get("parallel") or 0)
        for name in selected
        if "parallel" in table[name].executor_kwargs
    ]
    jobs = plan_fanout(jobs, max(worker_counts, default=0))
    tasks = [
        (name, seed, profile, quick, tuple(sorted(overrides.items())))
        for name in selected
        for seed in range(
            table[name].quick_seeds if quick else table[name].full_seeds
        )
    ]
    cells: dict[tuple[str, int], dict[str, Any]] = {}
    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            name, seed, cell = _run_cell(task)
            cells[(name, seed)] = cell
    else:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks))
        ) as pool:
            for name, seed, cell in pool.map(_run_cell, tasks):
                cells[(name, seed)] = cell
    results = {
        name: _aggregate(
            table[name],
            [
                cells[(name, seed)]
                for seed in range(
                    table[name].quick_seeds if quick else table[name].full_seeds
                )
            ],
        )
        for name in selected
    }
    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "quick": quick,
        "jobs": jobs,
        "python": platform.python_version(),
        "scenarios": results,
    }
    if transport is not None:
        payload["transport"] = transport
    if out is not None:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def compare_payloads(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    floor: float = 0.5,
) -> list[str]:
    """Throughput regression check of *current* against *baseline*.

    Returns one problem string per scenario present in both payloads whose
    throughput fell below ``floor`` × the baseline's.  Scenarios missing
    from either side are skipped (the baseline may predate a scenario).
    Used by the CI perf-smoke job.
    """
    problems: list[str] = []
    base_scenarios = baseline.get("scenarios", {})
    for name, result in current.get("scenarios", {}).items():
        base = base_scenarios.get(name)
        if base is None:
            continue
        threshold = floor * base.get("throughput", 0.0)
        if result.get("throughput", 0.0) < threshold:
            problems.append(
                f"{name}: throughput {result.get('throughput')} below "
                f"{floor}x baseline ({base.get('throughput')})"
            )
    return problems


def validate_payload(payload: Mapping[str, Any]) -> list[str]:
    """Schema check for a ``BENCH_repro.json`` payload; returns the list
    of problems (empty means valid).  Used by tests and CI smoke."""
    problems: list[str] = []
    if payload.get("schema") not in ACCEPTED_SCHEMAS:
        problems.append(f"schema not in {ACCEPTED_SCHEMAS!r}")
    scenario_map = payload.get("scenarios")
    if not isinstance(scenario_map, Mapping) or not scenario_map:
        return problems + ["scenarios missing or empty"]
    for name, result in scenario_map.items():
        for key in REQUIRED_RESULT_KEYS:
            if key not in result:
                problems.append(f"{name}: missing {key}")
                continue
            value = result[key]
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{name}: {key} not a non-negative number")
    return problems
