#!/usr/bin/env python3
"""Nested transactions with MT(k1, k2): an order-processing pipeline.

Run:  python examples/nested_orders.py

An order-processing system with two transaction *types* (Section V-A,
Example 6): order entry (reads catalog + stock, writes stock + ledger) and
restocking (reads ledger + supplier, writes catalog + supplier).  The
types' read/write sets define the groups (Table IV); the two-level
protocol MT(2,2) encodes cross-type dependencies on the small group
vectors and intra-type dependencies on transaction vectors, keeping the
group order antisymmetric (order entry and restocking can never deadlock
each other's serialization).
"""

import random

from repro import NestedScheduler
from repro.core import render_snapshot
from repro.core.nested import groups_by_read_write_sets
from repro.engine import PipelineExecutor
from repro.model import interleave, two_step

ORDER_ENTRY = dict(reads=("catalog", "stock"), writes=("stock", "ledger"))
RESTOCK = dict(reads=("ledger", "supplier"), writes=("catalog", "supplier"))


def build_transactions(count: int, rng: random.Random):
    transactions = []
    for txn_id in range(1, count + 1):
        shape = ORDER_ENTRY if rng.random() < 0.6 else RESTOCK
        transactions.append(
            two_step(txn_id, shape["reads"], shape["writes"])
        )
    return transactions


def main() -> None:
    rng = random.Random(4)
    transactions = build_transactions(8, rng)
    groups = groups_by_read_write_sets(transactions)
    print("group assignment by read/write sets (Table IV rule):")
    for txn in transactions:
        print(
            f"  T{txn.txn_id}: reads {sorted(txn.read_set)}, "
            f"writes {sorted(txn.write_set)} -> G{groups[txn.txn_id]}"
        )

    scheduler = NestedScheduler(k1=2, k2=2, group_of=groups)
    executor = PipelineExecutor(scheduler, max_attempts=10)
    report = executor.execute(transactions, seed=4)

    print(f"\ncommitted: {sorted(report.committed)}")
    print(f"restarts:  {report.restarts}")
    print(f"serializable: {report.is_serializable()}")

    print("\ngroup timestamp vectors (GS):")
    for group, vector in scheduler.group_snapshot().items():
        print(f"  GS({group}) = {render_snapshot(vector)}")
    print(
        "\nencodings: "
        f"{scheduler.stats['group_level_encodings']} at group level, "
        f"{scheduler.stats['txn_level_encodings']} at transaction level"
    )
    assert report.is_serializable()


if __name__ == "__main__":
    main()
