"""The six benchmark workloads: what they are, their inputs, one pass.

Inputs are generated here from the seed — the program under test only
ever sees :class:`~repro.model.operations.Transaction` objects and
arrival ticks — and every service is built with the library's defaults
apart from the arguments a workload names, so a later change of a
default shows as a gain or a loss.  Stream lengths are frozen: they are
what makes a pass cost the same work on every commit (MT(k)'s per-item
histories grow with the run, so throughput depends on the length).
``README.md`` says why each workload exists and which layers it loads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from time import perf_counter
from typing import Any, Mapping, Sequence

from repro.engine.pipeline.sessions import TransactionService
from repro.model.operations import Operation, OpKind, Transaction

#: Closed loop: transactions in flight per round (III-D-6a's regime).
MPL = 8
#: Transactions of the untimed warm-up on throwaway state.
WARMUP_TXNS = 200

Program = tuple[tuple[OpKind, str], ...]


@dataclass(frozen=True)
class Workload:
    """One workload: a seeded stream plus a service configuration."""

    name: str
    why: str
    #: ``"open"``: Poisson arrivals on the simulated clock, one ``run()``
    #: over the stream.  ``"closed"``: one client, back-to-back rounds of
    #: :data:`MPL` transactions on one reused service.
    loop: str
    #: Workloads naming the same stream draw the same inputs (a shorter
    #: one gets a prefix of the longer one's).
    stream: str
    txns: int
    ops: int
    items: int
    write: float
    skew: float
    #: Open loop: mean operations arriving per simulated tick (one tick
    #: is one dispatched operation, so 1.0 is nominal capacity).
    load: float = 0.3
    service: Mapping[str, Any] = field(default_factory=dict)
    #: Needs a ``state_dir`` for write-ahead logs.
    durable: bool = False

    @property
    def multiversion(self) -> bool:
        return self.service.get("protocol") == "mvmt"


_ZIPF3 = dict(stream="zipf3", ops=3, items=4096, write=0.5, skew=1.1)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="closed_mpl8_hot",
        why="closed loop, 8 txns in flight over 6 hot items: tiny tables, "
        "so Definition-6 compares, the plain lane and per-run reset() "
        "do the work",
        loop="closed",
        stream="hot6",
        txns=8_000,
        ops=4,
        items=6,
        write=0.5,
        skew=1.5,
        # read_rule="none": with the default lines 9-10 fallback this
        # regime commits a non-serializable round about once in 7,000
        # (README, "Found while sizing"), which a benchmark cannot sit on.
        service=dict(k=3, max_attempts=10, read_rule="none"),
    ),
    Workload(
        name="open_zipf_mt3",
        why="open-loop Zipf(1.1) stream through MT(3) on one shard: table "
        "and history growth and the abort-restore path dominate",
        loop="open",
        txns=10_000,
        service=dict(k=3, anti_starvation=True),
        **_ZIPF3,
    ),
    Workload(
        name="open_zipf_shard4_inline",
        why="prefix of that stream over 4 in-process shards: window "
        "planning, row shipping and sync rounds, no codec and no WAL",
        loop="open",
        txns=3_000,
        service=dict(
            k=3, anti_starvation=True, n_shards=4, parallel=0, window=32
        ),
        **_ZIPF3,
    ),
    Workload(
        name="open_zipf_shard4_2pc",
        why="same stream and decisions as shard4_inline over loopback "
        "2PC, so the difference is wire codec + 2PC rounds + WAL",
        loop="open",
        txns=3_000,
        service=dict(
            k=3,
            anti_starvation=True,
            n_shards=4,
            parallel=0,
            window=32,
            transport="loopback",
        ),
        durable=True,
        **_ZIPF3,
    ),
    Workload(
        name="open_zipf_mvmt3_readmostly",
        why="read-mostly 6-op Zipf stream under MVMT(3): newest-first "
        "chain walks and park/cascade do the work; reads must not abort",
        loop="open",
        stream="zipf6",
        txns=1_600,
        ops=6,
        items=1024,
        write=0.2,
        skew=1.1,
        load=0.15,
        service=dict(
            k=3, protocol="mvmt", anti_starvation=True, max_attempts=100
        ),
    ),
    Workload(
        name="open_zipf_mvmt3_rw",
        why="prefix of the MT(3) stream under MVMT(3): the chain layer "
        "on installs, reader invalidation and retraction beside reads",
        loop="open",
        txns=3_000,
        service=dict(
            k=3, protocol="mvmt", anti_starvation=True, max_attempts=100
        ),
        **_ZIPF3,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """What one seed gives a workload.  Open loop: *transactions* and
    their *arrivals*; closed loop: *programs* the client draws from."""

    transactions: list[Transaction] = field(default_factory=list)
    arrivals: dict[int, int] = field(default_factory=dict)
    programs: list[Program] = field(default_factory=list)


def generate(workload: Workload, seed: int) -> Inputs:
    """The workload's inputs for *seed* (same seed, same inputs)."""
    rng = random.Random(f"{seed}/{workload.stream}")
    names = [f"x{index}" for index in range(workload.items)]
    weights = list(
        accumulate((rank + 1) ** -workload.skew for rank in range(workload.items))
    )
    inputs = Inputs()
    rate = workload.load / workload.ops  # transactions per tick
    clock = 0.0
    for txn_id in range(1, workload.txns + 1):
        # Arrival and program are drawn in turn so that a shorter stream
        # is a prefix of a longer one with the same name.
        clock += rng.expovariate(rate)
        chosen = rng.choices(names, cum_weights=weights, k=workload.ops)
        program = tuple(
            (
                OpKind.WRITE if rng.random() < workload.write else OpKind.READ,
                item,
            )
            for item in chosen
        )
        if workload.loop == "closed":
            inputs.programs.append(program)
        else:
            inputs.transactions.append(_transaction(txn_id, program))
            inputs.arrivals[txn_id] = int(clock)
    return inputs


def _transaction(txn_id: int, program: Program) -> Transaction:
    return Transaction(
        txn_id, tuple(Operation(kind, txn_id, item) for kind, item in program)
    )


# ----------------------------------------------------------------------
# Services
# ----------------------------------------------------------------------
def build_service(workload: Workload, state_dir: str | None) -> TransactionService:
    """The front door for *workload*, event tracing off (decisions do
    not depend on it, and the existing bench runs the same way)."""
    arguments = dict(workload.service)
    if workload.durable:
        arguments["state_dir"] = state_dir
    service = TransactionService(**arguments)
    service.scheduler.events.disable()
    service.executor.events.disable()
    return service


def warm_up(
    workload: Workload, inputs: Inputs, seed: int, state_dir: str | None
) -> None:
    """Untimed: the head of the inputs through a throwaway service, so
    that lazy set-up and bytecode specialization are paid before timing."""
    head = Inputs(
        transactions=inputs.transactions[:WARMUP_TXNS],
        arrivals=inputs.arrivals,
        programs=inputs.programs[:WARMUP_TXNS],
    )
    service = build_service(workload, state_dir)
    try:
        run_pass(workload, service, head, seed)
    finally:
        service.close()


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
#: Counters of ``service.executor.stats`` a pass adds up.
EXECUTOR_COUNTERS = (
    "aborts",
    "restarts",
    "ops_executed",
    "ops_reexecuted",
    "undo_ops",
    "failures",
    "commit_parks",
    "cascade_restarts",
    "dependency_cycle_restarts",
)
#: Admission counters a pass adds up (``max_queue_depth`` is a maximum).
ADMISSION_COUNTERS = ("retries", "delayed_retries", "waits")


@dataclass
class Pass:
    """One timed pass over a workload's inputs."""

    wall_s: float = 0.0
    #: Transactions the client submitted for the first time.
    attempted: int = 0
    committed: int = 0
    #: Transactions that never committed.
    failed: int = 0
    #: Exact counts; identical for every pass over the same inputs.
    counts: dict[str, int] = field(default_factory=dict)
    #: ``(submitted ids, report)`` per ``run()`` call, for verification.
    runs: list[tuple[list[int], Any]] = field(default_factory=list)

    @property
    def commit_txn_per_s(self) -> float:
        return self.committed / self.wall_s

    @property
    def wasted_op_share(self) -> float:
        return self.counts["ops_reexecuted"] / self.counts["ops_executed"]


_COUNT_KEYS = (
    *EXECUTOR_COUNTERS,
    *ADMISSION_COUNTERS,
    "max_queue_depth",
    "scheduled_ops",
    "accepted_ops",
    "element_visits",
    "runs",
    "latency_p50",
    "latency_p99",
)


def run_pass(
    workload: Workload, service: TransactionService, inputs: Inputs, seed: int
) -> Pass:
    """Drive *inputs* through *service* once and collect the outcome."""
    result = Pass(counts=dict.fromkeys(_COUNT_KEYS, 0))
    if workload.loop == "open":
        _run_open(service, inputs, seed, result)
    else:
        _run_closed(service, inputs, seed, result)
    result.counts["committed"] = result.committed
    result.counts["failed"] = result.failed
    return result


def _run_open(
    service: TransactionService, inputs: Inputs, seed: int, result: Pass
) -> None:
    """Open loop: the whole stream in one ``run()``; a transaction's
    latency is arrival → commit on the admission stage's simulated clock
    (the generator cannot run late: arrivals are ticks, not wall time)."""
    start = perf_counter()
    service.submit_programs(inputs.transactions)
    report = service.run(seed=seed, arrivals=inputs.arrivals)
    result.wall_s = perf_counter() - start
    result.attempted = len(inputs.transactions)
    result.committed = len(report.committed)
    result.failed = len(report.failed)
    admission = _record_run(service, inputs.transactions, report, result)
    result.counts["latency_p50"] = admission["latency_p50"]
    result.counts["latency_p99"] = admission["latency_p99"]


def _run_closed(
    service: TransactionService, inputs: Inputs, seed: int, result: Pass
) -> None:
    """Closed loop, one client: the next round is submitted when the
    previous ``run()`` returns.  A round holds :data:`MPL` transactions:
    those the service refused in the round before (they ran out of
    attempts), resubmitted, then fresh programs.  Once the programs are
    used up the refused ones drain one per round, where nothing can
    conflict, so every transaction commits.  A round's latency is the
    number of operations dispatched until it completed — the tick the
    open loop's clock counts."""
    programs = inputs.programs
    cursor = 0
    carried: list[Program] = []
    latencies: list[int] = []
    while cursor < len(programs) or carried:
        if cursor < len(programs):
            take = MPL - len(carried)
            batch = carried + programs[cursor : cursor + take]
            cursor += take
            held: list[Program] = []
        else:
            batch, held = carried[:1], carried[1:]
        transactions = [
            _transaction(index + 1, program)
            for index, program in enumerate(batch)
        ]
        start = perf_counter()
        service.submit_programs(transactions)
        report = service.run(seed=seed + len(latencies))
        result.wall_s += perf_counter() - start
        result.committed += len(report.committed)
        _record_run(service, transactions, report, result)
        latencies.append(
            report.ops_executed
            + report.ignored_writes
            + report.restarts
            + len(report.failed)
        )
        carried = [batch[txn_id - 1] for txn_id in sorted(report.failed)] + held
    result.attempted = len(programs)
    result.failed = result.attempted - result.committed
    latencies.sort()
    result.counts["latency_p50"] = percentile(latencies, 0.50)
    result.counts["latency_p99"] = percentile(latencies, 0.99)


def percentile(sorted_values: Sequence[int], share: float) -> int:
    """Nearest-rank percentile of pre-sorted values (the rule the
    admission stage applies to the open loop's latencies)."""
    rank = max(1, -(-len(sorted_values) * int(share * 1000) // 1000))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _record_run(
    service: TransactionService,
    transactions: Sequence[Transaction],
    report: Any,
    result: Pass,
) -> Mapping[str, Any]:
    """Keep one ``run()``'s report for verification and add its counters
    to the pass; returns the admission stage's snapshot."""
    result.runs.append(([txn.txn_id for txn in transactions], report))
    counts = result.counts
    counts["runs"] += 1
    counters = service.executor.stats
    for name in EXECUTOR_COUNTERS:
        counts[name] += counters[name]
    stages = service.stage_snapshot()
    admission = stages["admission"]
    for name in ADMISSION_COUNTERS:
        counts[name] += admission[name]
    counts["max_queue_depth"] = max(
        counts["max_queue_depth"], admission["max_queue_depth"]
    )
    for shard in stages["shards"]:
        counts["scheduled_ops"] += shard["ops"]
        counts["accepted_ops"] += shard["accepted"]
    plane = stages.get("parallel")
    counts["element_visits"] += (
        plane["element_visits"]
        if plane is not None
        else service.scheduler.table.element_visits
    )
    return admission
