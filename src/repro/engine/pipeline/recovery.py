"""Crash-recoverable data plane: 2PC windows over durable data nodes.

This promotes the windowed protocol into a fault-tolerant one.
The execution model is unchanged — the coordinator plans admission
windows with the row-conflict cut and ships one batched message per
node per window — but every window is now a **distributed transaction**
committed with two-phase commit, and both sides keep durable state
(:class:`~repro.storage.wal.DurableLog`) so any participant can be
killed and restarted mid-run:

1. ``PREPARE``: the coordinator ships ``("prepare", w, payload,
   decided)``; each node force-logs the frame it received as one line
   (redo record, plus the commit of its previous window *decided* when
   that is not null: one flush makes both durable), applies the payload
   tentatively, and replies with its **vote** — which *is* the
   decision/row/index reply of the windowed protocol, so voting costs
   no extra round trip.
2. Decision: if every involved node voted, the coordinator force-logs
   ``commit`` in its own WAL (the commit point) and owes each involved
   node the outcome until that node's next prepare carries it — no
   decide frame, no ack; any missing/late vote means **presumed
   abort** — no durable record is written, ``ABORT`` is sent eagerly
   to survivors (they roll back before the retry), and the window is
   retried under a fresh window id.
3. Recovery: a restarted node streams its log — committed windows are
   re-applied in order (redo), aborted ones skipped, and
   prepared-but-undecided windows are resolved by asking the
   coordinator, whose WAL is the single source of truth (decision
   record present ⇒ commit, absent ⇒ abort: the presumed-abort rule
   makes the torn-commit-record case safe).  A node that aborts a
   tentatively-applied window rebuilds its engines by replaying the
   committed prefix from its own log — state rolls back *exactly* to
   the fault-free prefix.  The log is the one copy of a committed
   payload: a node's memory holds only its undecided windows, at most
   one fault-free.

A node learns window outcomes in window order, and the commit record
is still written before any node can learn the outcome, so the
presumed-abort argument is the classic one.  A node that dies right
after voting is found at its next prepare, which is then presumed
aborted and retried.

Because aborted windows are retried deterministically (watermarks only
advance on commit, so a replanned attempt ships byte-identical
payloads) and engines are deterministic functions of their message
stream, a crashed-and-recovered run produces the *same* report as the
fault-free run — the ``recovery-equivalence`` fuzzer rule pins this,
and bit-identity trivially implies prefix consistency of the committed
projection.

Fault injection (:mod:`.faults`) is threaded through both transports
(:mod:`.transport`); with no faults the plane is bit-identical to the
in-process windowed plane, over either transport.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, Mapping, Sequence

from ...storage.wal import DurableLog
from .faults import PRE_COMMIT, PRE_PREPARE, POST_VOTE, FaultPlan, NodeCrash
from .parallel import (
    DEFAULT_WINDOW,
    ParallelExecutionError,
    ParallelShardSet,
    _WorkerHost,
)
from . import transport as wire
from .transport import LoopbackTransport, NodeFailure, TcpTransport

__all__ = [
    "DataNode",
    "NodeCrash",
    "RecoverableShardSet",
]


class DataNode:
    """One 2PC participant: hosts shard engines behind a durable log.

    The log is the frames the node accepted, one per line, each the
    exact bytes that arrived (:meth:`handle` takes a frame, not a
    message):

    ``["begin"]``
        a fresh run starts; everything before it is dead state.
    ``["prepare", w, payload, d]``
        window ``w``'s redo record — *payload* is the ``("run", ...)``
        message, applied tentatively right after the append — and, when
        ``d`` is not null, the commit of this node's previous window
        ``d``: one line, one flush, so the decision and the next
        prepared payload become durable together.
    ``["decide", w, verdict]``
        an outcome delivered on its own: an abort (eager, so the node
        rolls back before the retry's prepare arrives), or a decision
        resolved after a restart.

    Memory holds the undecided windows only: a payload (and its vote
    and applied mark) stays from ``prepare`` until its decision arrives
    and then goes; fault-free that is at most one window.  The log is
    the one copy of a committed payload.  Rebuilding the engines —
    restart, or rolling back a tentatively applied window — streams the
    log and applies each committed window as its decision is read
    (outcomes arrive in window order); undecided prepared windows are
    reported to the coordinator via ``undecided`` and resolved by pushed
    ``decide`` messages (commit ⇒ apply now)."""

    def __init__(
        self,
        node_id: int,
        shard_ids: Sequence[int],
        config: tuple,
        log_path: str,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.node_id = node_id
        self._shard_ids = tuple(shard_ids)
        self._config = tuple(config)
        self._plan = fault_plan if fault_plan is not None else FaultPlan()
        self._log = DurableLog(log_path)
        # Undecided windows only: payload, vote, and whether the
        # current engines have it applied.
        self._prepared: dict[int, tuple] = {}
        self._votes: dict[int, tuple] = {}
        self._applied: set[int] = set()
        # Built on the first frame: ``begin`` starts fresh without
        # reading the log, anything else recovers from it first.
        self._host: _WorkerHost | None = None

    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Restart entry point: redo, then truncate any torn tail."""
        self._votes.clear()
        self._rebuild()
        self._log.drop_torn_tail()

    def _rebuild(self) -> None:
        """Rebuild engines from scratch by streaming this node's log one
        frame at a time — both crash recovery and tentative-window
        rollback.  A committed window is applied when its decision is
        read, which is window order; only undecided payloads are held,
        and they come back unapplied."""
        host = _WorkerHost(self._shard_ids, self._config)
        pending: dict[int, tuple] = {}
        for frame in self._log.scan(wire.decode_payload):
            kind = frame[0]
            if kind == "prepare":
                _kind, window, payload, decided = frame
                if decided is not None:
                    host.handle(pending.pop(decided))
                pending[window] = payload
            elif kind == "decide":
                _kind, window, verdict = frame
                payload = pending.pop(window)
                if verdict == "commit":
                    host.handle(payload)
            else:  # "begin"
                host = _WorkerHost(self._shard_ids, self._config)
                pending.clear()
        self._host = host
        self._applied.clear()
        self._prepared = pending

    def undecided(self) -> list[int]:
        return sorted(self._prepared)

    # ------------------------------------------------------------------
    def handle(self, frame: bytes) -> tuple:
        """Answer one wire frame; the frames that change durable state
        are logged as received."""
        message = wire.decode_payload(frame)
        kind = message[0]
        if self._host is None and kind != "begin":
            self.recover()
        if kind == "prepare":
            _kind, window, payload, decided = message
            if decided is not None and self._plan.crash_at(
                self.node_id, decided, PRE_COMMIT
            ):
                raise NodeCrash(PRE_COMMIT, decided)
            if self._plan.crash_at(self.node_id, window, PRE_PREPARE):
                raise NodeCrash(PRE_PREPARE, window)
            if window in self._votes:
                # Duplicate delivery: idempotent re-vote, no re-apply.
                return ("vote", window, self._votes[window])
            self._log.append(frame)
            if decided is not None:
                self._decide(decided, "commit")
            self._prepared[window] = payload
            reply = self._host.handle(payload)
            self._applied.add(window)
            self._votes[window] = reply
            if self._plan.crash_at(self.node_id, window, POST_VOTE):
                raise NodeCrash(
                    POST_VOTE, window, reply=("vote", window, reply)
                )
            return ("vote", window, reply)
        if kind == "decide":
            _kind, window, verdict = message
            if self._plan.crash_at(self.node_id, window, PRE_COMMIT):
                raise NodeCrash(PRE_COMMIT, window)
            if window in self._prepared:
                self._log.append(frame)
                self._decide(window, verdict)
            # else no longer pending: a duplicate decision, idempotent.
            return ("ack", window)
        if kind == "undecided":
            return ("undecided-reply", tuple(self.undecided()))
        if kind == "begin":
            self._log.truncate()
            self._log.append(frame)
            self._prepared.clear()
            self._votes.clear()
            self._applied.clear()
            self._host = _WorkerHost(self._shard_ids, self._config)
            return ("ready",)
        raise ValueError(f"unknown message kind {kind!r}")

    def _decide(self, window: int, verdict: str) -> None:
        """Act on a logged outcome for a pending window."""
        payload = self._prepared.pop(window)
        # A duplicate prepare is on the wire back-to-back with the
        # original, before any vote is read — once the decision is
        # logged no copy can still arrive, so the vote is dead weight.
        self._votes.pop(window, None)
        if window in self._applied:
            self._applied.discard(window)
            if verdict == "abort":
                # Tentatively applied: roll back to committed prefix.
                self._rebuild()
        elif verdict == "commit":
            # Commit resolved after a restart: redo the payload now.
            self._host.handle(payload)

    def close(self) -> None:
        self._log.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class RecoverableShardSet(ParallelShardSet):
    """A :class:`ParallelShardSet` whose windows commit via 2PC over
    crash-recoverable data nodes.

    ``workers`` counts data nodes (``0`` meaning one); ``transport``
    selects the wire: ``"loopback"`` (in-process nodes, the reference
    and fuzzer mode) or ``"tcp"`` (one process + localhost socket per
    node).  With no faults injected either is bit-identical to the
    in-process plane.
    ``fault_plan`` scripts deterministic crashes and message faults;
    ``state_dir`` hosts the coordinator WAL and per-node logs (a
    private temp dir is created — and removed on close — when None).
    ``restart_order`` fixes the order simultaneously-dead nodes are
    revived in (``"sorted"`` | ``"reverse"``), which the crash matrix
    sweeps."""

    def __init__(
        self,
        spec,
        workers: int = 0,
        window: int = DEFAULT_WINDOW,
        *,
        transport: str = "loopback",
        fault_plan: FaultPlan | None = None,
        state_dir: str | None = None,
        max_window_attempts: int = 8,
        restart_order: str = "sorted",
    ) -> None:
        if transport not in ("loopback", "tcp"):
            raise ValueError(
                "transport must be 'loopback' or 'tcp', "
                f"got {transport!r}"
            )
        if restart_order not in ("sorted", "reverse"):
            raise ValueError("restart_order must be 'sorted' or 'reverse'")
        if max_window_attempts < 1:
            raise ValueError("max_window_attempts must be >= 1")
        if workers < 0:
            raise ValueError("workers (data nodes) must be >= 0")
        super().__init__(spec, window=window)
        self.workers = int(workers)
        self._assign(max(1, self.workers))
        self.transport_kind = transport
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan()
        )
        self.max_window_attempts = int(max_window_attempts)
        self.restart_order = restart_order
        self._owned_state_dir = state_dir is None
        self._state_dir = state_dir
        self._wal: DurableLog | None = None
        self._commit_seq = 0
        self._dead: set[int] = set()
        #: node -> its last committed window, until the vote on the
        #: prepare frame that carried the decision comes back.
        self._owed: dict[int, int] = {}

    @staticmethod
    def _fresh_ipc() -> dict[str, int]:
        ipc = ParallelShardSet._fresh_ipc()
        ipc.update(
            {
                "rounds": 0,
                "prepares": 0,
                "window_aborts": 0,
                "node_restarts": 0,
                "resolved_windows": 0,
            }
        )
        return ipc

    # ------------------------------------------------------------------
    @property
    def state_dir(self) -> str:
        if self._state_dir is None:
            self._state_dir = tempfile.mkdtemp(prefix="repro-recovery-")
        return self._state_dir

    def _build_transport(self) -> Any:
        state_dir = self.state_dir
        os.makedirs(state_dir, exist_ok=True)
        if self._wal is None:
            self._wal = DurableLog(
                os.path.join(state_dir, "coordinator.wal")
            )
        if self.transport_kind == "loopback":
            return LoopbackTransport(
                self._assignments, self._config, state_dir, self.fault_plan
            )
        return TcpTransport(
            self._assignments, self._config, state_dir, self.fault_plan
        )

    def begin_run(self) -> None:
        super().begin_run()
        self._commit_seq = 0
        self._dead = set()
        self._owed.clear()
        self._wal.truncate()
        self._wal.append({"type": "begin"})
        # Reset every node durably (their logs restart at "begin") —
        # the plane-level _pending_reset still rides the first window so
        # coordinator-visible behavior matches the base plane exactly.
        transport = self._transport
        for node_id in transport.nodes():
            try:
                transport.send(node_id, ("begin",))
                reply = transport.recv(node_id)
            except NodeFailure:
                # Died after its last vote of the previous run, which
                # nothing told it about: begin wipes that state anyway.
                transport.restart(node_id)
                self.ipc["node_restarts"] += 1
                transport.send(node_id, ("begin",))
                reply = transport.recv(node_id)
            if reply[0] != "ready":  # pragma: no cover - protocol bug
                raise ParallelExecutionError(
                    f"node {node_id} failed to begin: {reply!r}"
                )

    def close(self) -> None:
        super().close()
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        if self._owned_state_dir and self._state_dir is not None:
            shutil.rmtree(self._state_dir, ignore_errors=True)
            self._state_dir = None

    # ------------------------------------------------------------------
    # The 2PC window protocol
    # ------------------------------------------------------------------
    def run_window(
        self,
        batches: Mapping[int, Sequence[tuple[int, int, int, str]]],
        commands: Sequence[tuple] = (),
    ) -> dict[int, int]:
        if self._transport is None:
            raise RuntimeError("call begin_run() before run_window()")
        commands = self._absorb_commands(commands)
        involved = self._involved(batches, commands)
        if not involved:
            return {}
        attempts = 0
        while True:
            attempts += 1
            if attempts > self.max_window_attempts:
                self.close()
                raise ParallelExecutionError(
                    f"window failed to commit after {attempts - 1} "
                    "attempts; the fault plan outlasted the retry budget"
                )
            window = self._commit_seq
            self._commit_seq += 1
            self.ipc["rounds"] += 1
            # Watermarks fold only on commit, so every retry replans an
            # identical (byte-for-byte) set of payloads.
            per_worker, entries, rows, updates = self._plan_shipments(
                involved, batches
            )
            payloads = {
                node_id: ("run", commands, tuple(per_worker[node_id]))
                for node_id in sorted(per_worker)
            }
            votes = self._prepare_round(window, payloads)
            committed = votes is not None
            if committed and self.fault_plan.torn_wal(window):
                # Scripted coordinator crash mid-append of the commit
                # record: the decision never became durable.  Recover
                # exactly as a restarted coordinator would — from the
                # log alone — and presume abort.
                self._wal.append_torn({"type": "commit", "window": window})
                self._recover_coordinator()
                committed = False
            if committed:
                # The commit point.  Nodes learn it from their next
                # prepare frame: every node voted, so none is owed
                # anything older, and none is dead.
                self._wal.append({"type": "commit", "window": window})
                for node_id in payloads:
                    self._owed[node_id] = window
                self._apply_shipments(updates)
                decisions = self._merge_replies(votes)
                self._account_ipc(entries, rows, len(per_worker))
                return decisions
            self._wal.append({"type": "abort", "window": window})
            self.ipc["window_aborts"] += 1
            self._broadcast_abort(window, payloads)
            self._heal()

    def _prepare_round(
        self, window: int, payloads: Mapping[int, tuple]
    ) -> dict[int, tuple] | None:
        """PREPARE fan-out; returns all votes, or None if any node
        failed to vote (presumed abort).  Each frame also carries the
        node's owed commit, if any: a vote on it means the node logged
        the decision."""
        transport = self._transport
        owed = self._owed
        votes: dict[int, tuple] = {}
        failed = False
        for node_id in sorted(payloads):
            try:
                transport.send(
                    node_id,
                    ("prepare", window, payloads[node_id], owed.get(node_id)),
                )
            except NodeFailure:
                self._dead.add(node_id)
                failed = True
        self.ipc["prepares"] += len(payloads)
        for node_id in sorted(payloads):
            if node_id in self._dead:
                continue
            try:
                reply = transport.recv(node_id)
            except NodeFailure:
                self._dead.add(node_id)
                failed = True
                continue
            if reply[0] != "vote" or reply[1] != window:
                self.close()
                raise ParallelExecutionError(
                    f"node {node_id} answered {reply[0]!r} to a prepare "
                    f"for window {window}"
                )
            votes[node_id] = reply[2]
            owed.pop(node_id, None)
        return None if failed else votes

    def _broadcast_abort(
        self, window: int, payloads: Mapping[int, tuple]
    ) -> None:
        """Eager, best-effort abort delivery, so a node rolls back before
        the retry's prepare.  A node that misses it is marked dead and
        resolved at restart (absence of a commit record is the truth:
        presumed abort)."""
        transport = self._transport
        for node_id in sorted(payloads):
            if node_id in self._dead:
                continue
            try:
                transport.send(node_id, ("decide", window, "abort"))
                transport.recv(node_id)  # ("ack", window)
            except NodeFailure:
                self._dead.add(node_id)

    def _heal(self) -> None:
        """Restart every dead node (in ``restart_order``) and resolve
        its prepared-but-undecided windows from the coordinator WAL."""
        budget = self.max_window_attempts * max(1, len(self._assignments))
        while self._dead:
            order = sorted(
                self._dead, reverse=self.restart_order == "reverse"
            )
            node_id = order[0]
            self._dead.discard(node_id)
            self._transport.restart(
                node_id, fault_horizon=self._commit_seq
            )
            self.ipc["node_restarts"] += 1
            # Resolution decides every window the node holds.
            self._owed.pop(node_id, None)
            try:
                self._resolve(node_id)
            except NodeFailure:
                self._dead.add(node_id)
            budget -= 1
            if budget <= 0:  # pragma: no cover - runaway fault plan
                self.close()
                raise ParallelExecutionError(
                    "node restart loop did not converge"
                )

    def _resolve(self, node_id: int) -> None:
        """Decide a restarted node's prepared-but-undecided windows from
        the coordinator WAL, the single source of truth: a commit record
        means commit, its absence abort (presumed abort).  One replay
        per resolve, so the coordinator keeps no per-window state."""
        transport = self._transport
        transport.send(node_id, ("undecided",))
        reply = transport.recv(node_id)
        undecided = reply[1]
        if not undecided:
            return
        wanted = set(undecided)
        committed = {
            record["window"]
            for record in self._wal.replay()
            if record.get("type") == "commit" and record["window"] in wanted
        }
        for window in undecided:
            verdict = "commit" if window in committed else "abort"
            transport.send(node_id, ("decide", window, verdict))
            transport.recv(node_id)
            self.ipc["resolved_windows"] += 1

    def _recover_coordinator(self) -> None:
        """Restart the coordinator from its durable WAL alone: truncate
        the torn tail.  It keeps no decision state besides the log —
        :meth:`_resolve` reads verdicts from it."""
        self._wal.repair()

    # ------------------------------------------------------------------
    def stage_snapshot(self) -> dict[str, Any]:
        snapshot = super().stage_snapshot()
        snapshot["transport"] = self.transport_kind
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RecoverableShardSet n={self.spec.n_shards} "
            f"workers={self.workers} transport={self.transport_kind} "
            f"window={self.window}>"
        )
