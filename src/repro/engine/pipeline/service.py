"""The staged execution core: admission → shard → schedule → storage.

:class:`PipelineExecutor` is the one transaction executor: used directly,
and behind the :class:`~repro.engine.pipeline.sessions.TransactionService`
frontend.  One dispatched operation flows through four stages:

1. **admission** — the :class:`~repro.engine.pipeline.admission.
   AdmissionQueue` dispenses the next transaction id (batching, bounds
   and retry delays live there);
2. **shard** — when a :class:`~repro.engine.pipeline.shard.ShardSet` is
   attached, the operation is accounted to the shard owning its item
   (the scheduler itself is the shard set's cross-shard-ordered
   DMT(k)-semantics instance);
3. **schedule** — the concurrency controller accepts / ignores /
   rejects the operation (unchanged from the monolithic executor);
4. **storage** — accepted operations execute against any
   :class:`~repro.storage.backend.StorageBackend` with undo logging;
   rejections route through the :class:`~repro.engine.pipeline.
   admission.RetryPolicy` (full rollback, VI-C 1 partial rollback, or a
   policy/composite-forced global epoch restart).

Three lanes drive the same stage methods (``_handle_abort``,
``_full_rollback``, ``_try_commit`` / ``_release_parked``,
``_break_dependency_cycle``, ``_global_restart``):

* the **plain fast lane** — taken when the admission queue is plain
  (no batching, no capacity, zero-delay retries, i.e. the default
  configuration): the loop iterates the queue's backing list with a
  local pointer, exactly the monolithic executor's loop;
* the **staged lane** — every other sequential configuration: work is
  pulled through ``AdmissionQueue.pop()``, which meters batches, applies
  backpressure and matures delayed retries in simulated time;
* the **windowed lane** — the parallel plane: windows of operations are
  decided by per-shard engines (in-process, or on 2PC data nodes) and
  merged here in admission order.

The lanes differ in *where the scheduler lives*, and that is the only
seam: in-process (``_LocalScheduler``), or behind commands that ride the
next ``run_window`` with the read sources from the engines' replies
standing in for their read records (``_PlaneSchedulers``).  What a stage
method tells the scheduler (forget a transaction to restart it, forget
one that failed, commit one, reset the epoch) and asks it (commit
dependencies, dependents) goes through ``self._seam``, chosen once in
``__init__``: the abort path runs about once per executed operation
under contention, and a per-call ``if plane`` there measured −3 % end to
end.  One object rather than six bound attributes, because CPython 3.11
drops an instance's inline attribute values past 30 attributes and every
``self.x`` on the per-operation path then pays (≈ +1 % wall time; both
in EXPERIMENTS.md).  ``scheduler.aborted`` is read per call: ``reset()``
rebinds it.  Every scheduler speaks the lifecycle declared on
:class:`~repro.core.protocol.Scheduler` (restart, commit, validation,
commit dependencies), so the executor calls it without probing.

All randomness is an explicit ``random.Random(seed)`` threaded through
interleaving and admission — never module-level ``random`` — so a seed
fully determines the ``ExecutionReport`` (see the determinism tests).
"""

from __future__ import annotations

from random import Random
from time import perf_counter
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ...core.protocol import Decision, DecisionStatus, Scheduler
from ...model.log import Log
from ...model.operations import Operation, OpKind, Transaction
from ...obs.instrument import Instrumented
from ...storage.database import Database
from ...storage.wal import UndoLog
from .admission import AdmissionQueue, RetryPolicy, resolve_policy
from .report import ExecutionReport
from .shard import ShardSet

if TYPE_CHECKING:
    from .parallel import ParallelShardSet


class _TxnState:
    __slots__ = (
        "txn",
        "position",
        "attempt",
        "buffered_writes",
        "executed_this_attempt",
    )

    def __init__(self, txn: Transaction) -> None:
        self.txn = txn
        self.position = 0  # next program operation to issue
        self.attempt = 1
        self.buffered_writes: list[Operation] = []
        self.executed_this_attempt = 0


class _LocalScheduler:
    """The seam's sequential side: the scheduler is in-process.

    ``restart`` / ``cascade_restart`` / ``commit`` resolve on the
    scheduler per call: a tracer may patch its class after the executor
    exists."""

    def __init__(self, scheduler: Scheduler, shards: ShardSet | None) -> None:
        self._scheduler = scheduler
        self._shards = shards
        # Uncommitted version writers a transaction read from, and the
        # active readers of its versions: the multiversion scheduler's
        # records, nobody under a single-version one.
        self.commit_dependencies = scheduler.commit_dependencies
        self.dependents_of = scheduler.readers_of

    def forget(self, txn_id: int, retrying: bool) -> None:
        """A rolled-back transaction restarts, or failed for good."""
        scheduler = self._scheduler
        if txn_id not in scheduler.aborted:
            # Cascade / cycle victim: the scheduler never rejected it, so
            # no _abort retracted its chain entries and restart() would
            # balk — roll its scheduler state back directly (failed too:
            # a dead transaction must not stay an indexed accessor).
            scheduler.cascade_restart(txn_id)
        elif retrying:
            scheduler.restart(txn_id)
        # else rejected, then failed: stays marked aborted

    def commit(self, txn_id: int) -> None:
        if self._shards is not None:
            self._shards.record_commit(txn_id)
        self._scheduler.commit(txn_id)

    def reset(self) -> None:
        self._scheduler.reset()


class _PlaneSchedulers:
    """The seam's windowed side: the schedulers are the plane's engines,
    told things by commands riding the next ``run_window``; the read
    sources accumulated from their replies answer the two questions."""

    def __init__(self, executor: "PipelineExecutor") -> None:
        # The plane is read per call: tests swap it after construction.
        self._executor = executor
        self.commands: list[tuple] = []
        self.sources: dict[int, set[int]] = {}  # reader -> version writers
        self.committed: set[int] = set()

    def begin_run(self, committed: set[int]) -> list[tuple]:
        self.commands.clear()
        self.sources.clear()
        self.committed = committed
        return self.commands

    def forget(self, txn_id: int, retrying: bool) -> None:
        self.sources.pop(txn_id, None)
        self._executor.parallel_plane.note_drop(txn_id)
        self.commands.append(("restart" if retrying else "drop", txn_id))

    def commit(self, txn_id: int) -> None:
        self.sources.pop(txn_id, None)
        self._executor.parallel_plane.record_commit(txn_id)
        self.commands.append(("commit", txn_id))

    def reset(self) -> None:
        # Coordinator state goes now, not when the broadcast lands: the
        # next window is planned against the post-reset world.
        self.sources.clear()
        self._executor.parallel_plane.note_reset()
        self.commands.append(("reset",))

    def commit_dependencies(self, txn_id: int) -> set[int]:
        return self.sources.get(txn_id, frozenset()) - self.committed

    def dependents_of(self, txn_id: int) -> list[int]:
        return [
            reader
            for reader, sources in self.sources.items()
            if txn_id in sources
        ]


class PipelineExecutor(Instrumented):
    """Drives transactions through a scheduler and storage with retries.

    The paper's protocols are recognizers over logs; a real system also
    moves data and retries aborted transactions:

    * an **accepted** read/write executes against the database (reads
      return the stored value; writes store a value derived from the
      transaction id, so reads-from relationships are observable in the
      final state);
    * an **ignored** write (Thomas rule) is skipped;
    * a **rejected** operation aborts the issuing transaction: its writes
      are rolled back through the undo log and the whole transaction is
      re-queued (fresh attempt) until ``max_attempts`` is exhausted.

    Two Section VI-C options change the abort story:

    * ``rollback="partial"`` (VI-C 1, MT(k) schedulers only): when the
      scheduler reports the abort as *partial-rollback-safe* (no
      transaction ordered after the victim yet), the victim keeps its
      executed prefix and resumes from the failed operation — which now
      succeeds, because the vector was re-seeded past the blocker.
    * ``write_policy="deferred"`` (VI-C 2): writes are buffered privately
      and validated/applied only at the transaction's last operation
      ("two-phase commit for each write").  Aborts then cost no undo at
      all and a committed transaction can never abort.

    The remaining arguments configure batching, bounded queues,
    backoff/global-restart retry policies and sharded or windowed
    scheduling; their defaults are the plain fast lane.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        database: Any | None = None,
        max_attempts: int = 10,
        write_policy: str = "immediate",
        rollback: str = "full",
        retry_policy: RetryPolicy | str | None = None,
        queue_capacity: int | None = None,
        batch_size: int | None = None,
        shuffle_batches: bool = False,
        shards: ShardSet | None = None,
        parallel: int | ParallelShardSet | None = None,
        window: int | None = None,
        transport: str = "inline",
        fault_plan: Any | None = None,
        state_dir: str | None = None,
        op_service_time: float = 0.0,
    ) -> None:
        if write_policy not in ("immediate", "deferred"):
            raise ValueError("write_policy must be 'immediate' or 'deferred'")
        if rollback not in ("full", "partial"):
            raise ValueError("rollback must be 'full' or 'partial'")
        if shards is not None and shards.scheduler is not scheduler:
            raise ValueError("shards.scheduler must be the pipeline scheduler")
        if transport not in ("inline", "loopback", "tcp"):
            raise ValueError(
                "transport must be 'inline', 'loopback' or 'tcp'"
            )
        if transport == "inline":
            if isinstance(parallel, int) and parallel != 0:
                raise ValueError(
                    "the inline plane hosts every shard in-process: "
                    "parallel must be 0; data nodes need transport="
                    "'loopback' or 'tcp'"
                )
        elif parallel is None:
            raise ValueError(
                "transport selection requires parallel execution "
                "(pass parallel=<data nodes>)"
            )
        if fault_plan is not None and transport == "inline":
            raise ValueError(
                "fault injection requires the recoverable transports "
                "('loopback' or 'tcp')"
            )
        if op_service_time < 0:
            raise ValueError("op_service_time must be non-negative")
        self.scheduler = scheduler
        self.database = database if database is not None else Database()
        self.max_attempts = max_attempts
        #: Simulated data-access service time charged per executed
        #: operation (the Agrawal–Carey–Livny resource model: in a real
        #: system the data access, not the scheduler, dominates op cost,
        #: so restarted work burns real resources).  Zero — the default —
        #: charges nothing; benchmarks opt in to compare protocols on
        #: useful work per unit of simulated resource.
        self.op_service_time = float(op_service_time)
        self.write_policy = write_policy
        self.rollback = rollback
        self._retry_policy = resolve_policy(retry_policy)
        self._admission = AdmissionQueue(
            retry_policy=self._retry_policy,
            capacity=queue_capacity,
            batch_size=batch_size,
            shuffle_batches=shuffle_batches,
        )
        self._shards = shards
        # Hot-path flags: one attribute read instead of a string compare
        # per operation / per abort.
        self._deferred = write_policy == "deferred"
        self._partial = rollback == "partial"
        self.parallel_plane: ParallelShardSet | None = None
        self._parallel_owned = False
        self._window = 0
        if parallel is not None:
            if self._deferred:
                raise ValueError(
                    "parallel execution requires write_policy='immediate'"
                )
            if self._partial:
                raise ValueError("parallel execution requires rollback='full'")
            if shards is None:
                raise ValueError(
                    "parallel execution requires a ShardSet (its spec "
                    "configures the per-shard engines)"
                )
            from .parallel import DEFAULT_WINDOW, ParallelShardSet

            if isinstance(parallel, ParallelShardSet):
                plane = parallel
                if plane.spec.n_shards != shards.spec.n_shards:
                    raise ValueError(
                        "parallel plane and shard set disagree on shard count"
                    )
            elif transport == "inline":
                plane = ParallelShardSet(
                    shards.spec,
                    window=window if window is not None else DEFAULT_WINDOW,
                    router=shards.router,
                )
                self._parallel_owned = True
            else:
                from .recovery import RecoverableShardSet

                plane = RecoverableShardSet(
                    shards.spec,
                    workers=int(parallel),
                    window=window if window is not None else DEFAULT_WINDOW,
                    router=shards.router,
                    transport=transport,
                    fault_plan=fault_plan,
                    state_dir=state_dir,
                )
                self._parallel_owned = True
            self.parallel_plane = plane
            self._window = int(window) if window is not None else plane.window
            if self._window < 1:
                raise ValueError("window must be positive")
        self.init_observability(
            "executor",
            counters=(
                "ops_executed",
                "ops_reexecuted",
                "aborts",
                "restarts",
                "undo_ops",
                "ignored_writes",
                "commits",
                "failures",
                "global_restarts",
                "admission_waits",
                "retries_delayed",
                "commit_parks",
                "cascade_restarts",
                "dependency_cycle_restarts",
            ),
        )
        # Pre-bound Counter objects for the per-operation and abort hot
        # paths (reset() zeroes counters in place, so the bindings stay
        # live).
        self._c_ops_executed = self.metrics.counter("ops_executed")
        self._c_ignored_writes = self.metrics.counter("ignored_writes")
        self._c_aborts = self.metrics.counter("aborts")
        self._c_restarts = self.metrics.counter("restarts")
        self._c_undo_ops = self.metrics.counter("undo_ops")
        self._c_ops_reexecuted = self.metrics.counter("ops_reexecuted")
        # Commit-dependency state (finished transactions parked on the
        # uncommitted version writers they read); rebuilt per execute(),
        # declared here so helpers stay callable between runs.
        self._parked: dict[int, set[int]] = {}
        self._releasing = False
        self._states: dict[int, _TxnState] = {}
        # One attribute, not six bound verbs: see the module docstring.
        self._seam: _LocalScheduler | _PlaneSchedulers = (
            _LocalScheduler(scheduler, shards)
            if self.parallel_plane is None
            else _PlaneSchedulers(self)
        )

    # ------------------------------------------------------------------
    def execute(
        self,
        transactions: Sequence[Transaction],
        schedule: Log | None = None,
        seed: int = 0,
        arrivals: Mapping[int, int] | None = None,
    ) -> ExecutionReport:
        """Run *transactions* along *schedule* (or a seeded random
        interleaving), retrying aborted transactions per the policy.

        *arrivals* switches the admission stage to open-loop mode: a
        ``{txn_id: arrival_tick}`` map (simulated time) replaces the
        interleaved schedule — each transaction's operation entries
        mature at ``arrival + offset`` ticks and commit latency is
        tracked per transaction (see ``AdmissionQueue.snapshot()``).
        """
        rng = Random(seed)
        if arrivals is not None:
            if schedule is not None:
                raise ValueError("arrivals and schedule are mutually exclusive")
        elif schedule is None:
            from ...model.generator import interleave

            schedule = interleave(transactions, rng)
        self.reset_observability()
        self.scheduler.reset()
        shards = self._shards
        if shards is not None:
            shards.reset()
        self.scheduler.plan_transactions(transactions)
        undo = UndoLog(self.database)
        report = ExecutionReport()
        states = {t.txn_id: _TxnState(t) for t in transactions}
        self._states = states
        self._parked = {}
        self._releasing = False
        admission = self._admission
        if arrivals is not None:
            admission.begin_open_loop(
                [
                    (t.txn_id, t.num_operations, arrivals[t.txn_id])
                    for t in transactions
                ],
                rng=rng,
            )
        else:
            admission.begin([op.txn for op in schedule], rng=rng)
        with self.metrics.timer("execute"):
            if self.parallel_plane is not None:
                try:
                    self._run_windowed(admission, states, undo, report)
                except BaseException:
                    # Close-on-error: the plane's transport (and any TCP
                    # node processes) is in an unknown state after a
                    # mid-window failure — the recovery plane tears
                    # itself down on ParallelExecutionError, but
                    # coordinator-side failures (merge bugs,
                    # KeyboardInterrupt) would otherwise leak live
                    # children.
                    self.parallel_plane.close()
                    raise
            elif admission.is_plain:
                self._run_plain(admission, states, undo, report)
            else:
                self._run_staged(admission, states, undo, report)
        self.metrics.set_gauge("committed", len(report.committed))
        self.metrics.set_gauge("failed", len(report.failed))
        self.metrics.set_gauge("queue_depth_max", admission.max_depth)
        self.metrics.inc("admission_waits", admission.waits)
        self.metrics.inc("retries_delayed", admission.delayed_retries)
        return report

    # ------------------------------------------------------------------
    def _run_plain(
        self,
        admission: AdmissionQueue,
        states: dict[int, _TxnState],
        undo: UndoLog,
        report: ExecutionReport,
    ) -> None:
        """Fast lane: the monolithic executor's loop, verbatim, over the
        admission queue's backing list (plain queues only)."""
        queue = admission.backing_list()
        committed = report.committed
        failed = report.failed
        pointer = 0
        while True:
            while pointer < len(queue):
                txn_id = queue[pointer]
                pointer += 1
                state = states[txn_id]
                if txn_id in failed or txn_id in committed:
                    continue
                if state.position >= state.txn.num_operations:
                    continue
                op = state.txn.operations[state.position]
                before = len(queue)
                finished = self._step(state, op, undo, report, queue)
                if finished:
                    self._try_commit(state, undo, report, queue)
                if len(queue) != before:
                    # The queue only grows on (cold) retry paths; record
                    # the live depth there so stage metrics stay exact.
                    admission.note_depth(len(queue) - pointer)
            if not self._parked:
                break
            # The victim's cascade unparks the rest and the retries land
            # back on the queue.
            self._break_dependency_cycle(undo, report, queue)

    def _run_staged(
        self,
        admission: AdmissionQueue,
        states: dict[int, _TxnState],
        undo: UndoLog,
        report: ExecutionReport,
    ) -> None:
        """Staged lane: pull work through the admission queue (batching,
        backpressure, delayed retries in simulated time)."""
        committed = report.committed
        failed = report.failed
        while True:
            txn_id = admission.pop()
            if txn_id is None:
                if self._parked:
                    self._break_dependency_cycle(undo, report, admission)
                    continue
                break
            state = states[txn_id]
            if txn_id in failed or txn_id in committed:
                continue
            if state.position >= state.txn.num_operations:
                continue
            op = state.txn.operations[state.position]
            finished = self._step(state, op, undo, report, admission)
            if finished:
                self._try_commit(state, undo, report, admission)

    # ------------------------------------------------------------------
    # Windowed lane: the parallel shard execution plane
    # ------------------------------------------------------------------
    def _run_windowed(
        self,
        admission: AdmissionQueue,
        states: dict[int, _TxnState],
        undo: UndoLog,
        report: ExecutionReport,
    ) -> None:
        """Window-at-a-time execution over the parallel plane.

        Planning claims each entry's row ``txn`` plus the item's
        conflict rows (``plane.item_rows``) for the item's shard and cuts
        the window when an entry needs a row another shard already
        claimed (the cut entry
        carries over to open the next window).  Shard batches are
        decided remotely; this merge applies storage/undo/retry effects
        centrally, strictly in admission order, and queues the commands
        that keep every replica convergent."""
        from .parallel import CODE_IGNORE, CODE_REJECT, CODE_SKIP

        plane = self.parallel_plane
        assert plane is not None
        plane.begin_run()
        router = plane.router
        window_size = self._window
        committed = report.committed
        failed = report.failed
        seam = self._seam  # the plane side
        commands = seam.begin_run(committed)  # ride the next run_window
        carried: int | None = None  # entry cut by a cross-shard conflict
        while True:
            # ---- plan one window --------------------------------------
            entries: list[tuple[int, int, Operation, int]] = []
            batches: dict[int, list[tuple[int, int, int, str]]] = {}
            row_owner: dict[int, int] = {}
            planned: dict[int, int] = {}
            while len(entries) < window_size:
                if carried is not None:
                    txn_id, carried = carried, None
                else:
                    txn_id = admission.pop()
                    if txn_id is None:
                        break
                if txn_id in failed or txn_id in committed:
                    continue
                state = states[txn_id]
                position = planned.get(txn_id, state.position)
                if position >= state.txn.num_operations:
                    continue
                op = state.txn.operations[position]
                shard = router.shard_of_item(op.item)
                rows = plane.item_rows(op.item)
                conflict = row_owner.get(txn_id, shard) != shard
                if not conflict:
                    for row in rows:
                        if row_owner.get(row, shard) != shard:
                            conflict = True
                            break
                if conflict:
                    carried = txn_id
                    break
                row_owner[txn_id] = shard
                for row in rows:
                    row_owner[row] = shard
                planned[txn_id] = position + 1
                batches.setdefault(shard, []).append(
                    (len(entries), txn_id, 0 if op.kind.is_read else 1, op.item)
                )
                entries.append((txn_id, position, op, shard))
            if not entries:
                if self._parked:
                    # Admission drained but parked readers remain: a
                    # commit-dependency cycle.  The victim's retries
                    # re-enter admission, and a sync round delivers the
                    # restart commands before the next window is planned.
                    self._break_dependency_cycle(undo, report, admission)
                    plane.run_window({}, tuple(commands))
                    commands.clear()
                    continue
                # Run over; trailing commands (commits after the last
                # window) need no delivery — begin_run() resets engines.
                break
            # ---- ship -------------------------------------------------
            decisions = plane.run_window(batches, tuple(commands))
            commands.clear()
            # ---- merge, in admission order ----------------------------
            for seq, (txn_id, position, op, shard) in enumerate(entries):
                if commands and commands[-1][0] == "reset":
                    # Entries past a global restart were decided against
                    # a dead epoch; readmit them in order (the sequential
                    # lane's equivalent entries survive in its queue).
                    if txn_id not in committed and txn_id not in failed:
                        admission.extend([txn_id])
                    continue
                code = decisions[seq]
                state = states[txn_id]
                if code == CODE_SKIP or state.position != position:
                    # Rolled back (restarted or failed) while this window
                    # merged: a rollback rewinds to position 0, below
                    # every position planned after the transaction ran.
                    continue
                plane.record(shard, op, code)
                if code == CODE_REJECT:
                    self._handle_abort(state, undo, report, admission)
                    continue
                if code == CODE_IGNORE:
                    report.ignored_writes += 1
                    self._c_ignored_writes.inc()
                else:
                    if op.kind.is_read:
                        # mvmt: the reply's third decision column names
                        # the version writer this read consumed — a
                        # commit dependency when that writer is still
                        # in flight (_try_commit's recoverability gate).
                        source = plane.window_sources.get(seq)
                        if source and source != txn_id:
                            seam.sources.setdefault(txn_id, set()).add(
                                source
                            )
                    self._perform(op, undo, report)
                    state.executed_this_attempt += 1
                state.position += 1
                if state.position >= state.txn.num_operations:
                    self._try_commit(state, undo, report, admission)
            queued = {command[0] for command in commands}
            if (
                "commit" in queued
                and "reset" not in queued
                and plane.spec.protocol == "mvmt"
            ):
                # Chain GC rides the broadcast command stream whenever a
                # commit could have advanced a per-item watermark.  The
                # coordinator supplies the *global* in-flight set (plus
                # fresh row snapshots): an engine's local active set
                # misses transactions that never batched at its shard,
                # and collecting against it alone would reclaim versions
                # those readers still need ("snapshot too old").
                active = [
                    t
                    for t, s in states.items()
                    if t not in committed
                    and t not in failed
                    and s.position > 0
                ]
                commands.append(plane.gc_command(active))
            if "restart" in queued or "drop" in queued:
                # Sync round: a rollback happened while merging, and the
                # reject behind it rolled back index entries at the
                # rejecting engine; deliver the restart/drop commands now
                # so every replica rolls back (and reports the restored
                # conflict rows) before the next window is planned.
                plane.run_window({}, tuple(commands))
                commands.clear()

    # ------------------------------------------------------------------
    def _step(
        self,
        state: _TxnState,
        op: Operation,
        undo: UndoLog,
        report: ExecutionReport,
        queue: Any,
    ) -> bool:
        """Issue one operation; returns True when the program completed.

        *queue* is either the plain backing list (fast lane) or the
        admission queue itself (staged lane) — both support the
        ``extend`` surface the retry paths use.
        """
        if self._deferred and op.kind is OpKind.WRITE:
            state.buffered_writes.append(op)
            state.position += 1
            return state.position >= state.txn.num_operations

        decision = self.scheduler.process(op)
        shards = self._shards
        if shards is not None:
            shards.record(op, decision)
        if decision.status is DecisionStatus.REJECT:
            if self.scheduler.failed:
                # Algorithm 2 step 4 i): the composite scheduler has no
                # surviving subprotocol — abort ALL active transactions,
                # roll back, reinitialize, restart (epoch reset; committed
                # work is strictly in the past so cross-epoch serialization
                # order is trivially consistent).
                self._c_aborts.inc()
                self._global_restart(undo, report, queue)
            else:
                self._handle_abort(state, undo, report, queue)
            return False
        if decision.status is DecisionStatus.IGNORE:
            report.ignored_writes += 1
            self._c_ignored_writes.inc()
        else:
            self._perform(op, undo, report)
            state.executed_this_attempt += 1
        state.position += 1
        return state.position >= state.txn.num_operations

    def _perform(
        self, op: Operation, undo: UndoLog, report: ExecutionReport
    ) -> None:
        if self.op_service_time:
            # Busy-wait, not sleep: sub-millisecond sleeps are at the
            # mercy of the OS timer slack, and the charge must be paid
            # by this worker's wall clock to model an occupied resource.
            deadline = perf_counter() + self.op_service_time
            while perf_counter() < deadline:
                pass
        if op.kind.is_read:
            self.database.read(op.item)
        else:
            value = f"v{op.txn}:{op.item}"
            before = self.database.write(op.item, value)
            undo.record_write(op.txn, op.item, before, after=value)
        report.ops_executed += 1
        self._c_ops_executed.inc()
        report.committed_ops.append(op)

    def _try_commit(
        self,
        state: _TxnState,
        undo: UndoLog,
        report: ExecutionReport,
        queue: Any,
    ) -> None:
        txn_id = state.txn.txn_id
        # Recoverability gate: a multiversion read may have consumed an
        # *uncommitted* version (reads are abort-free by construction).
        # Committing now would be a dirty read the serial replay cannot
        # reproduce — park until every source commits; if a source rolls
        # back instead, the cascade restarts this transaction.
        deps = self._seam.commit_dependencies(txn_id)
        if deps:
            if deps & report.failed:
                # A source can never commit: the read is unrecoverable.
                self._handle_abort(state, undo, report, queue)
                return
            self._parked[txn_id] = deps
            self.metrics.inc("commit_parks")
            if self.events.enabled:
                self.events.emit("park", txn=txn_id, deps=sorted(deps))
            return
        # Deferred writes (VI-C 2): first run every buffered write through
        # the scheduler (no data moves yet), then validate, then apply — so
        # an abort at any stage costs no undo.
        decisions: list[Decision] = []
        shards = self._shards
        for op in state.buffered_writes:
            decision = self.scheduler.process(op)
            if shards is not None:
                shards.record(op, decision)
            if decision.status is DecisionStatus.REJECT:
                self._handle_abort(state, undo, report, queue)
                return
            decisions.append(decision)
        if not self.scheduler.validate_commit(txn_id):
            self._handle_abort(state, undo, report, queue)
            return
        for decision in decisions:
            if decision.status is DecisionStatus.IGNORE:
                report.ignored_writes += 1
                self._c_ignored_writes.inc()
            else:
                self._perform(decision.op, undo, report)
        state.buffered_writes.clear()
        undo.commit(txn_id)
        report.committed.add(txn_id)
        self.metrics.inc("commits")
        self._admission.note_commit(txn_id)
        if self.events.enabled:
            self.events.emit("commit", txn=txn_id, attempt=state.attempt)
        self._seam.commit(txn_id)
        self._release_parked(undo, report, queue)

    def _release_parked(
        self, undo: UndoLog, report: ExecutionReport, queue: Any
    ) -> None:
        """Commit parked transactions whose dependencies have drained.

        A release can itself commit (draining further dependencies) or
        abort (a buffered write finally rejected → rollback → cascade),
        so iterate to a fixpoint; the re-entrancy guard keeps the nested
        ``_try_commit`` calls from stacking release loops."""
        if self._releasing or not self._parked:
            return
        self._releasing = True
        dependencies = self._seam.commit_dependencies
        try:
            while True:
                ready = [
                    t for t in sorted(self._parked) if not dependencies(t)
                ]
                progressed = False
                for t in ready:
                    if t not in self._parked or dependencies(t):
                        continue  # a sibling release/abort intervened
                    del self._parked[t]
                    self._try_commit(self._states[t], undo, report, queue)
                    progressed = True
                if not progressed:
                    return
        finally:
            self._releasing = False

    def _handle_abort(
        self,
        state: _TxnState,
        undo: UndoLog,
        report: ExecutionReport,
        queue: Any,
    ) -> None:
        txn_id = state.txn.txn_id
        self._c_aborts.inc()
        # A partial restart spends the attempt budget too: otherwise two
        # transactions re-seeding past each other reissue their failed
        # operations forever.  Budget gone: full rollback, which fails.
        partial_ok = (
            self._partial
            and state.attempt < self.max_attempts
            and txn_id in self.scheduler.partial_ok
        )
        if partial_ok:
            # VI-C 1: effects preserved; resume at the failed operation.
            state.attempt += 1
            self.scheduler.restart(txn_id)
            report.restarts += 1
            self._c_restarts.inc()
            if self.events.enabled:
                self.events.emit("restart", txn=txn_id, partial=True)
            # The failed op is reissued, then the rest of the program.
            queue.extend(
                [txn_id] * (state.txn.num_operations - state.position)
            )
            return
        if self._retry_policy.global_restart:
            # Policy escalation: treat every full abort as the Algorithm 2
            # epoch reset (extracted from the composite-forced path).
            self._global_restart(undo, report, queue)
            return
        self._full_rollback(state, undo, report, queue)

    def _discard_attempt(
        self, state: _TxnState, undo: UndoLog, report: ExecutionReport
    ) -> None:
        """Undo the attempt's writes, take its operations off the
        committed-ops record and rewind the program to its start."""
        txn_id = state.txn.txn_id
        undone = undo.rollback(txn_id)
        report.undo_count += undone
        self._c_undo_ops.inc(undone)
        to_drop = state.executed_this_attempt
        report.ops_reexecuted += to_drop
        self._c_ops_reexecuted.inc(to_drop)
        # The attempt's operations all sit near the tail of the record:
        # walk backwards and delete in place, so each ``del`` shifts
        # only the short suffix behind it.
        ops = report.committed_ops
        index = len(ops) - 1
        while to_drop and index >= 0:
            if ops[index].txn == txn_id:
                del ops[index]
                to_drop -= 1
            index -= 1
        state.buffered_writes.clear()
        state.position = 0
        state.executed_this_attempt = 0

    def _retry_or_fail(
        self,
        state: _TxnState,
        report: ExecutionReport,
        queue: Any,
        count_attempt: bool = True,
    ) -> bool:
        """Readmit a discarded attempt through the retry policy (True),
        or fail the transaction once its attempt budget is spent."""
        txn_id = state.txn.txn_id
        if count_attempt:
            if state.attempt >= self.max_attempts:
                report.failed.add(txn_id)
                self.metrics.inc("failures")
                if self.events.enabled:
                    self.events.emit("fail", txn=txn_id, attempts=state.attempt)
                return False
            state.attempt += 1
        report.restarts += 1
        self._c_restarts.inc()
        if self.events.enabled:
            self.events.emit("restart", txn=txn_id, partial=False)
        count = state.txn.num_operations
        if queue is self._admission:
            queue.requeue(txn_id, count, state.attempt)
        else:  # fast lane: at the tail, legacy order
            queue.extend([txn_id] * count)
            self._admission.note_retry()
        return True

    def _full_rollback(
        self,
        state: _TxnState,
        undo: UndoLog,
        report: ExecutionReport,
        queue: Any,
        _wave: set[int] | None = None,
        count_attempt: bool = True,
    ) -> None:
        """Full rollback: undo writes, discard the attempt, retry or
        fail — then cascade to uncommitted readers of the retracted
        versions (their reads now dangle; a committed reader cannot
        exist, the commit-dependency gate held it back).  *_wave* is
        every transaction already rolled back by this cascade.

        Cascaded rollbacks don't charge the victim's attempt budget —
        the conflict evidence belongs to the *source*, whose own aborts
        stay attempt-counted (which bounds the storm): an innocent
        reader must not fail because a neighbour thrashed."""
        rolled = _wave if _wave is not None else set()
        txn_id = state.txn.txn_id
        if txn_id in rolled:
            return
        rolled.add(txn_id)
        self._discard_attempt(state, undo, report)
        self._parked.pop(txn_id, None)
        dependents = self._seam.dependents_of(txn_id)
        self.scheduler.prune_aborted(txn_id)
        retrying = self._retry_or_fail(state, report, queue, count_attempt)
        self._seam.forget(txn_id, retrying)
        for reader in sorted(dependents):
            if (
                reader in rolled
                or reader in report.committed
                or reader in report.failed
            ):
                continue
            reader_state = self._states.get(reader)
            if reader_state is None:
                continue
            self.metrics.inc("cascade_restarts")
            if self.events.enabled:
                self.events.emit("cascade", txn=reader, source=txn_id)
            self._full_rollback(
                reader_state, undo, report, queue, rolled,
                count_attempt=False,
            )

    def _break_dependency_cycle(
        self, undo: UndoLog, report: ExecutionReport, queue: Any
    ) -> None:
        """The work queue drained but parked transactions remain: every
        one of them waits on another parked reader (a commit-dependency
        cycle, reachable via cross-reads of uncommitted versions).
        Restart a deterministic victim — the lowest id — whose cascade
        unparks the rest."""
        victim = min(self._parked)
        self.metrics.inc("dependency_cycle_restarts")
        if self.events.enabled:
            self.events.emit("dependency_cycle", victim=victim)
        self._full_rollback(self._states[victim], undo, report, queue)

    def _global_restart(
        self, undo: UndoLog, report: ExecutionReport, queue: Any
    ) -> None:
        """Algorithm 2 step 4 i) epoch reset: reinitialize the scheduler
        and roll back every transaction that had started.  The caller
        has counted the rejected operation."""
        self._seam.reset()
        # Epoch reset flushes every chain: parked readers roll back with
        # everyone else below, so their dependency state goes with them.
        self._parked.clear()
        self.metrics.inc("global_restarts")
        if self.events.enabled:
            self.events.emit("global_restart")
        for state in self._states.values():
            txn_id = state.txn.txn_id
            if txn_id in report.committed or txn_id in report.failed:
                continue
            if state.position == 0 and state.executed_this_attempt == 0:
                continue  # had not started; nothing to roll back
            self._discard_attempt(state, undo, report)
            self.scheduler.prune_aborted(txn_id)
            self._retry_or_fail(state, report, queue)

    # ------------------------------------------------------------------
    # Stage introspection (bench v2, sessions frontend)
    # ------------------------------------------------------------------
    @property
    def shards(self) -> ShardSet | None:
        return self._shards

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._retry_policy

    def stage_snapshot(self) -> dict[str, Any]:
        """Per-stage metrics of the most recent run: the admission
        queue's counters and, when sharded, per-shard occupancy."""
        snapshot: dict[str, Any] = {"admission": self._admission.snapshot()}
        plane = self.parallel_plane
        if plane is not None:
            # Windowed lane: occupancy is accounted on the plane (the
            # attached ShardSet's scheduler never runs).
            snapshot["shards"] = plane.snapshot()
            snapshot["shard_occupancy"] = [
                round(share, 4) for share in plane.occupancy()
            ]
            snapshot["parallel"] = plane.stage_snapshot()
        elif self._shards is not None:
            snapshot["shards"] = self._shards.snapshot()
            snapshot["shard_occupancy"] = [
                round(share, 4) for share in self._shards.occupancy()
            ]
        return snapshot

    def close(self) -> None:
        """Release the parallel plane's data nodes (owned planes only; a
        plane passed in by the caller stays the caller's)."""
        plane = self.parallel_plane
        if plane is not None and self._parallel_owned:
            plane.close()
