"""E10 — Example 6 / Table IV: groups defined by read/write sets.

Transactions of type G1 read {x, z} and write {y, z}; type G2 reads
{y, w} and writes {x, w}.  The bench partitions a typed workload by shape
(Table IV), runs MT(2,2) over it, and verifies the group dependency between
G1 and G2 stays antisymmetric: once some G1 transaction precedes a G2
transaction, every later dependency pointing back is refused.
"""

import random

from repro.analysis.report import render_table
from repro.core.nested import NestedScheduler, groups_by_read_write_sets
from repro.engine.pipeline import PipelineExecutor
from repro.model.generator import interleave
from repro.workloads.nested_wl import TABLE_IV_TYPES, typed_transactions

from benchmarks._util import save_result


def run_typed_workload(seed: int = 0):
    rng = random.Random(seed)
    txns, _ = typed_transactions(TABLE_IV_TYPES, 5, rng)
    groups = groups_by_read_write_sets(txns)
    scheduler = NestedScheduler(2, 2, groups)
    executor = PipelineExecutor(scheduler, max_attempts=8)
    report = executor.execute(txns, seed=seed)
    return scheduler, report, groups, txns


def test_table4_typed_groups(benchmark):
    scheduler, report, groups, txns = benchmark(lambda: run_typed_workload(3))

    assert report.is_serializable()
    assert report.committed  # progress was made

    # Table IV: the partition follows read/write-set shape exactly.
    for txn in txns:
        expected_shape = TABLE_IV_TYPES[groups[txn.txn_id] - 1]
        assert txn.read_set == set(expected_shape.read_set)
        assert txn.write_set == set(expected_shape.write_set)

    # Antisymmetry of the group order: the final group vectors are
    # strictly ordered one way (or untouched), never cyclic.
    from repro.core.timestamp import Ordering, compare

    gs = scheduler.tables[1]
    ordering = compare(gs.vector(1), gs.vector(2)).ordering
    assert ordering in (Ordering.LESS, Ordering.GREATER, Ordering.EQUAL)

    shape_rows = [
        ["G1", "{x, z}", "{y, z}"],
        ["G2", "{y, w}", "{x, w}"],
    ]
    table = render_table(
        ["group", "read set", "write set"],
        shape_rows,
        title="Table IV: groups by read/write sets",
    )
    stats = (
        f"\ntyped workload: {len(txns)} transactions, "
        f"committed={sorted(report.committed)}, "
        f"restarts={report.restarts}, "
        f"group order G1 vs G2: {ordering.value}"
    )
    save_result("table4_example6", table + stats)
