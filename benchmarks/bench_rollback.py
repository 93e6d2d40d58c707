"""E14 — Section VI-C: the two rollback schemes.

Measured claims:

1. **Partial rollback** preserves the work done before the failed
   operation: re-executed operations drop versus full restarts.
2. **Two-phase commit of writes** ("deferred") makes aborts free — no undo
   records are ever replayed — and a committed transaction never aborts.
"""

import random

from repro.analysis.report import render_table
from repro.core.mtk import MTkScheduler
from repro.engine.pipeline import PipelineExecutor
from repro.model.generator import WorkloadSpec, generate_transactions

from benchmarks._util import save_result

SPEC = WorkloadSpec(num_txns=8, ops_per_txn=4, num_items=8, write_ratio=0.5)
SEEDS = range(25)


def run_policy(rollback: str, write_policy: str):
    totals = {"reexecuted": 0, "undo": 0, "restarts": 0, "failed": 0}
    for seed in SEEDS:
        txns = generate_transactions(SPEC, random.Random(seed))
        scheduler = MTkScheduler(
            3,
            anti_starvation=(rollback == "full"),
            partial_rollback=(rollback == "partial"),
        )
        executor = PipelineExecutor(
            scheduler,
            max_attempts=8,
            rollback=rollback,
            write_policy=write_policy,
        )
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()
        totals["reexecuted"] += report.ops_reexecuted
        totals["undo"] += report.undo_count
        totals["restarts"] += report.restarts
        totals["failed"] += len(report.failed)
    return totals


def test_rollback_schemes(benchmark):
    full = benchmark(lambda: run_policy("full", "immediate"))
    partial = run_policy("partial", "immediate")
    deferred = run_policy("full", "deferred")

    # VI-C 1: partial rollback throws away strictly less work.
    assert partial["reexecuted"] < full["reexecuted"]
    # VI-C 2: deferred writes never need undo.
    assert deferred["undo"] == 0
    assert full["undo"] > 0

    rows = [
        ["full restart", full["restarts"], full["reexecuted"], full["undo"]],
        ["partial rollback (VI-C 1)", partial["restarts"],
         partial["reexecuted"], partial["undo"]],
        ["2PC writes (VI-C 2)", deferred["restarts"],
         deferred["reexecuted"], deferred["undo"]],
    ]
    table = render_table(
        ["policy", "restarts", "ops re-executed", "undo records replayed"],
        rows,
        title=f"Section VI-C rollback schemes over {len(list(SEEDS))} workloads",
    )
    save_result("rollback_schemes", table)
