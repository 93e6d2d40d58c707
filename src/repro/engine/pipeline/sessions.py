"""Session frontend: the client-facing surface of the pipeline.

The paper's model (and everything downstream — examples, benches, the
fuzzer) drives the engine with whole transaction *programs*, so a
"session" here is a program under construction: clients ``open()`` a
session, record reads and writes, and ``commit()`` to submit the program
to the service.  ``TransactionService.run()`` then pushes every
submitted program through the admission → shard → schedule → storage
pipeline and reports per-session outcomes.

This is deliberately a *deferred* execution surface, not an online one:
the protocols are recognizers over logs, and batching the programs lets
the service interleave them deterministically from a seed (or run an
explicit :class:`~repro.model.log.Log`), which the conformance fuzzer
and the determinism tests rely on.

Example::

    service = TransactionService(k=2, n_shards=2)
    with service.open() as t1:
        t1.read("x")
        t1.write("y")
    report = service.run(seed=42)
    assert service.outcome(t1.txn_id) == "committed"
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ...model.log import Log
from ...model.operations import Operation, OpKind, Transaction
from ...storage.backend import StorageBackend
from .admission import RetryPolicy
from .report import ExecutionReport
from .router import ShardRouter
from .service import PipelineExecutor
from .shard import ShardSet, ShardSpec


class SessionError(RuntimeError):
    """Misuse of the session lifecycle (operate after close, etc.)."""


class Session:
    """One transaction program under construction.

    Usable as a context manager: leaving the ``with`` block commits the
    program (submits it to the service), unless an exception is in
    flight or :meth:`abandon` was called.
    """

    def __init__(self, service: "TransactionService", txn_id: int) -> None:
        self._service = service
        self.txn_id = txn_id
        self._ops: list[Operation] = []
        self._closed = False

    # ------------------------------------------------------------------
    def read(self, item: str) -> "Session":
        self._record(OpKind.READ, item)
        return self

    def write(self, item: str) -> "Session":
        self._record(OpKind.WRITE, item)
        return self

    def _record(self, kind: OpKind, item: str) -> None:
        if self._closed:
            raise SessionError(
                f"session for T{self.txn_id} is closed; open a new one"
            )
        self._ops.append(Operation(kind, self.txn_id, item))

    # ------------------------------------------------------------------
    def commit(self) -> Transaction:
        """Seal the program and submit it to the service's next run."""
        if self._closed:
            raise SessionError(f"session for T{self.txn_id} already closed")
        if not self._ops:
            raise SessionError("empty transaction; record a read or write")
        self._closed = True
        txn = Transaction(self.txn_id, tuple(self._ops))
        self._service._submit(txn)
        return txn

    def abandon(self) -> None:
        """Discard the program without submitting it."""
        self._closed = True
        self._ops.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.abandon()
        elif not self._closed:
            self.commit()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{len(self._ops)} ops"
        return f"<Session T{self.txn_id} {state}>"


class TransactionService:
    """The pipeline's front door: sessions in, execution reports out.

    Owns the whole stack: a :class:`~repro.engine.pipeline.shard.
    ShardSet` (which builds the MT(k)/DMT(k) scheduler for ``n_shards``
    partitions), the admission configuration, and the
    :class:`~repro.engine.pipeline.service.PipelineExecutor` driving
    them.  ``n_shards=1`` is bit-identical to a bare
    ``PipelineExecutor(MTkScheduler(k))`` — the conformance fuzzer
    checks this on every case.
    """

    def __init__(
        self,
        k: int = 2,
        n_shards: int = 1,
        read_rule: str = "line9",
        protocol: str = "mtk",
        retain_locks: bool = False,
        sync_interval: int | None = None,
        router: ShardRouter | None = None,
        database: StorageBackend | None = None,
        max_attempts: int = 10,
        write_policy: str = "immediate",
        rollback: str = "full",
        retry_policy: RetryPolicy | str | None = None,
        queue_capacity: int | None = None,
        batch_size: int | None = None,
        shuffle_batches: bool = False,
        anti_starvation: bool = False,
        parallel: int | Any | None = None,
        window: int | None = None,
        transport: str = "inline",
        fault_plan: Any | None = None,
        state_dir: str | None = None,
    ) -> None:
        spec = ShardSpec(
            n_shards=n_shards,
            k=k,
            read_rule=read_rule,
            protocol=protocol,
            retain_locks=retain_locks,
            sync_interval=sync_interval,
            anti_starvation=anti_starvation,
            partial_rollback=rollback == "partial",
        )
        self.shards = ShardSet(spec, router=router)
        self.executor = PipelineExecutor(
            self.shards.scheduler,
            database=database,
            max_attempts=max_attempts,
            write_policy=write_policy,
            rollback=rollback,
            retry_policy=retry_policy,
            queue_capacity=queue_capacity,
            batch_size=batch_size,
            shuffle_batches=shuffle_batches,
            shards=self.shards,
            parallel=parallel,
            window=window,
            transport=transport,
            fault_plan=fault_plan,
            state_dir=state_dir,
        )
        self._next_txn = 1
        self._programs: dict[int, Transaction] = {}
        self.last_report: ExecutionReport | None = None

    # ------------------------------------------------------------------
    @property
    def scheduler(self):
        return self.shards.scheduler

    @property
    def database(self) -> StorageBackend:
        return self.executor.database

    @property
    def n_shards(self) -> int:
        return self.shards.n_shards

    # ------------------------------------------------------------------
    def open(self, txn_id: int | None = None) -> Session:
        """Start a new session.  Ids auto-increment when not given."""
        if txn_id is None:
            txn_id = self._next_txn
        if txn_id in self._programs:
            raise SessionError(f"T{txn_id} was already submitted this run")
        self._next_txn = max(self._next_txn, txn_id) + 1
        return Session(self, txn_id)

    def submit_program(self, txn: Transaction) -> None:
        """Submit a pre-built program (bypassing the session builder)."""
        self._submit(txn)

    def submit_programs(self, txns: Iterable[Transaction]) -> None:
        for txn in txns:
            self._submit(txn)

    def _submit(self, txn: Transaction) -> None:
        if txn.txn_id in self._programs:
            raise SessionError(f"T{txn.txn_id} was already submitted")
        self._programs[txn.txn_id] = txn
        self._next_txn = max(self._next_txn, txn.txn_id + 1)

    @property
    def pending(self) -> Sequence[Transaction]:
        """Programs submitted and awaiting the next :meth:`run`."""
        return tuple(self._programs.values())

    # ------------------------------------------------------------------
    def run(
        self,
        schedule: Log | None = None,
        seed: int = 0,
        arrivals: dict[int, int] | None = None,
    ) -> ExecutionReport:
        """Execute every submitted program through the pipeline.

        With no explicit *schedule*, programs are interleaved
        deterministically from *seed*; *arrivals* (a ``{txn_id:
        arrival_tick}`` map) switches the admission stage to open-loop
        mode instead.  The submitted set is consumed; sessions opened
        afterwards feed the next run.
        """
        transactions = tuple(self._programs.values())
        if not transactions:
            raise SessionError("nothing to run; no programs were submitted")
        self._programs.clear()
        report = self.executor.execute(
            transactions, schedule=schedule, seed=seed, arrivals=arrivals
        )
        self.last_report = report
        return report

    def close(self) -> None:
        """Release executor resources (the parallel plane's data nodes)."""
        self.executor.close()

    def __enter__(self) -> "TransactionService":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def reset(self) -> None:
        """Drop submitted-but-unrun programs and the last report."""
        self._programs.clear()
        self.last_report = None
        self._next_txn = 1

    # ------------------------------------------------------------------
    def outcome(self, txn_id: int) -> str:
        """``"committed"`` / ``"failed"`` / ``"unknown"`` for the last run."""
        report = self.last_report
        if report is None:
            return "unknown"
        if txn_id in report.committed:
            return "committed"
        if txn_id in report.failed:
            return "failed"
        return "unknown"

    def stage_snapshot(self) -> dict[str, Any]:
        """Per-stage metrics of the most recent run (see the executor)."""
        return self.executor.stage_snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TransactionService k={self.shards.spec.k} "
            f"shards={self.n_shards} pending={len(self._programs)}>"
        )
