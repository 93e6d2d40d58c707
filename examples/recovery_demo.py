#!/usr/bin/env python3
"""Kill -9 a data node mid-run and watch the 2PC plane recover.

Run:  python examples/recovery_demo.py
      python examples/recovery_demo.py --transport tcp

The crash-recoverable data plane promotes every admission window into a
distributed transaction: the coordinator force-logs commit decisions in
its write-ahead log, data nodes force-log prepared window payloads in
theirs, and two-phase commit (with presumed abort) ties them together.
Any participant can die at any phase boundary and be restarted; the
recovered run's report is bit-identical to the fault-free run.

This demo executes the same banking-style workload three times:

1. fault-free, on the plain in-process windowed plane (the reference);
2. under a scripted :class:`FaultPlan` that kills node 0 right after
   its vote hits the wire and tears the coordinator's WAL append one
   window later (a lost commit decision → presumed abort → retry);
3. under a heavier plan that kills both nodes in the same window.

With ``--transport tcp`` the nodes are real OS processes behind
localhost sockets and the scripted crashes are real ``os._exit`` kills
followed by restarts that re-read the on-disk logs.
"""

from __future__ import annotations

import argparse
import random

from repro.check.oracle import SerializabilityOracle
from repro.engine.pipeline import Fault, FaultPlan, TransactionService

NUM_ACCOUNTS = 8
NUM_TRANSFERS = 24
SEED = 1986
N_SHARDS = 4
NODES = 2
WINDOW = 4


def submit_transfers(service: TransactionService, rng: random.Random) -> None:
    for _ in range(NUM_TRANSFERS):
        src, dst = rng.sample(range(NUM_ACCOUNTS), 2)
        with service.open() as session:
            session.read(f"acct{src}")
            session.read(f"acct{dst}")
            session.write(f"acct{src}")
            session.write(f"acct{dst}")


def run_once(transport: str | None, fault_plan: FaultPlan | None = None):
    hosts = {"parallel": 0}
    if transport is not None:
        hosts = {
            "parallel": NODES,
            "transport": transport,
            "fault_plan": fault_plan,
        }
    service = TransactionService(
        k=2, n_shards=N_SHARDS, window=WINDOW, **hosts
    )
    try:
        submit_transfers(service, random.Random(SEED))
        report = service.run(seed=SEED)
        ipc = service.stage_snapshot()["parallel"]["ipc"]
    finally:
        service.close()
    return report, ipc


def describe(label: str, report, ipc) -> tuple:
    summary = (
        tuple(sorted(report.committed)),
        tuple(sorted(report.failed)),
        report.restarts,
        report.ops_executed,
    )
    print(f"\n== {label} ==")
    print(
        f"  committed {len(report.committed)}/"
        f"{len(report.committed) + len(report.failed)} txns, "
        f"{report.restarts} restarts, {report.ops_executed} ops"
    )
    print(
        f"  2PC rounds {ipc.get('rounds', '-')}, "
        f"window aborts {ipc.get('window_aborts', '-')}, "
        f"node restarts {ipc.get('node_restarts', '-')}, "
        f"resolved windows {ipc.get('resolved_windows', '-')}"
    )
    dsr = SerializabilityOracle().is_dsr(report.committed_log)
    print(f"  committed projection DSR: {dsr}")
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--transport",
        choices=("loopback", "tcp"),
        default="loopback",
        help="loopback = in-process nodes (fast, deterministic wire "
        "codec); tcp = one OS process + localhost socket per node, "
        "crashes are real kills",
    )
    args = parser.parse_args()

    reference = describe(
        "fault-free reference (in-process plane)", *run_once(None)
    )

    plan = FaultPlan(
        [
            Fault("crash", 1, node=0, phase="post-vote"),
            Fault("torn-wal", 2),
        ]
    )
    print(f"\nscripted faults: {plan.faults()}")
    crashed = describe(
        f"post-vote kill + torn WAL ({args.transport})",
        *run_once(args.transport, plan),
    )

    # Window 12 is the first this workload ships to both nodes, so a
    # single window takes both participants down: one after voting,
    # one on receiving the decision.
    heavy = FaultPlan(
        [
            Fault("crash", 12, node=0, phase="post-vote"),
            Fault("crash", 12, node=1, phase="pre-commit"),
        ]
    )
    print(f"\nscripted faults: {heavy.faults()}")
    dual = describe(
        f"dual node kill ({args.transport})",
        *run_once(args.transport, heavy),
    )

    assert crashed == reference, "recovered run diverged from reference"
    assert dual == reference, "recovered run diverged from reference"
    print("\nall recovered runs bit-identical to the fault-free reference")


if __name__ == "__main__":
    main()
