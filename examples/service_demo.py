#!/usr/bin/env python3
"""The sharded transaction service end to end: sessions, shards, stages.

Run:  python examples/service_demo.py

An order-processing workload driven through the pipeline's client
surface: sessions record reads and writes, ``commit()`` submits the
program, and ``TransactionService.run()`` pushes everything through
admission → shard → schedule → storage.  The demo runs the same
workload three ways —

* one shard, plain admission (bit-identical to the legacy executor),
* four shards (DMT-style cross-shard ordering, Section V-B),
* four shards through the staged lane (capped backoff: a retry waits
  in simulated time before it re-enters the queue),

and prints each run's outcome plus the per-stage metrics: admission
queue depth and retries, per-shard occupancy, and the serializability
verdict on the committed projection.
"""

from __future__ import annotations

import random

from repro.engine.pipeline import TransactionService

NUM_CUSTOMERS = 6
NUM_PRODUCTS = 8
NUM_ORDERS = 18
SEED = 2026


def submit_orders(service: TransactionService, rng: random.Random) -> list[int]:
    """Each order reads a customer + a product's stock, then writes the
    stock and an order row; periodic reports scan several products."""
    txn_ids = []
    for order in range(NUM_ORDERS):
        with service.open() as session:
            txn_ids.append(session.txn_id)
            if order % 6 == 5:  # an inventory report
                for product in rng.sample(range(NUM_PRODUCTS), 4):
                    session.read(f"stock{product}")
                session.write("report")
                continue
            customer = rng.randrange(NUM_CUSTOMERS)
            product = rng.randrange(NUM_PRODUCTS)
            session.read(f"cust{customer}")
            session.read(f"stock{product}")
            session.write(f"stock{product}")
            session.write(f"order{order}")
    return txn_ids


def run_variant(name: str, service: TransactionService) -> bool:
    rng = random.Random(SEED)
    txn_ids = submit_orders(service, rng)
    report = service.run(seed=SEED)
    outcomes = [service.outcome(txn_id) for txn_id in txn_ids]
    stages = service.stage_snapshot()
    admission = stages["admission"]
    print(f"\n=== {name} ===")
    print(
        f"committed {outcomes.count('committed')}/{len(outcomes)} orders, "
        f"{report.restarts} restarts, serializable={report.is_serializable()}"
    )
    print(
        f"admission: policy={admission['policy']} "
        f"max_depth={admission['max_queue_depth']} "
        f"retries={admission['retries']} "
        f"delayed={admission['delayed_retries']}"
    )
    if "shard_occupancy" in stages:
        shares = ", ".join(f"{share:.0%}" for share in stages["shard_occupancy"])
        print(f"shard occupancy: [{shares}]")
    sample = sorted(service.database.snapshot())[:4]
    print(f"db items (first 4 of {len(service.database.snapshot())}): {sample}")
    return report.is_serializable()


def main() -> None:
    verdicts = [
        run_variant(
            "1 shard, plain admission (legacy-identical)",
            TransactionService(k=3, n_shards=1),
        ),
        run_variant(
            "4 shards, cross-shard DMT ordering",
            TransactionService(k=3, n_shards=4),
        ),
        run_variant(
            "4 shards, staged lane: capped backoff",
            TransactionService(
                k=3, n_shards=4, retry_policy="capped-backoff"
            ),
        ),
    ]
    if all(verdicts):
        print("\nevery variant committed a serializable projection")


if __name__ == "__main__":
    main()
