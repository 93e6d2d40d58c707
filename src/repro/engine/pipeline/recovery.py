"""Crash-recoverable data plane: 2PC windows over durable data nodes.

This promotes the windowed protocol into a fault-tolerant one.
The execution model is unchanged — the coordinator plans admission
windows with the row-conflict cut and ships one batched message per
node per window — but every window is now a **distributed transaction**
committed with two-phase commit, and both sides keep durable state
(:class:`~repro.storage.wal.DurableLog`) so any participant can be
killed and restarted mid-run:

1. ``PREPARE``: the coordinator ships the window payload; each node
   force-logs the payload (redo record), applies it tentatively, and
   replies with its **vote** — which *is* the decision/row/index reply
   of the windowed protocol, so voting costs no extra round trip.
2. Decision: if every involved node voted, the coordinator force-logs
   ``commit`` in its own WAL (the commit point) and broadcasts
   ``COMMIT``; any missing/late vote means **presumed abort** — no
   durable record is written, ``ABORT`` is broadcast to survivors, and
   the window is retried under a fresh window id.
3. Recovery: a restarted node replays its log — committed windows are
   re-applied in order (redo), aborted ones skipped, and
   prepared-but-undecided windows are resolved by asking the
   coordinator, whose WAL is the single source of truth (decision
   record present ⇒ commit, absent ⇒ abort: the presumed-abort rule
   makes the torn-commit-record case safe).  A node that aborts a
   tentatively-applied window rebuilds its engines by replaying the
   committed prefix from its own log — state rolls back *exactly* to
   the fault-free prefix.  The log is the one copy of a committed
   payload: a node's memory holds only its undecided windows.

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
from .transport import LoopbackTransport, NodeFailure, TcpTransport, retuple

__all__ = [
    "DataNode",
    "NodeCrash",
    "RecoverableShardSet",
]


class DataNode:
    """One 2PC participant: hosts shard engines behind a durable log.

    Log record types (JSONL via :class:`DurableLog`):

    ``{"type": "begin"}``
        a fresh run starts; everything before it is dead state.
    ``{"type": "prepared", "window": w, "payload": ...}``
        the force-logged redo record — the exact ``("run", ...)``
        message, applied tentatively right after the append.
    ``{"type": "decision", "window": w, "verdict": "commit"|"abort"}``
        the coordinator's outcome, logged before acking.

    Memory holds the undecided windows only: a payload (and its vote
    and applied mark) stays from ``prepare`` to ``decide`` and then
    goes, so a node's state is O(windows in flight), not O(run).  The
    log is the one copy of a committed payload.  Rebuilding the
    engines — restart, or rolling back a tentatively applied window —
    replays the committed prefix from the log in window order;
    undecided prepared windows are reported to the coordinator via
    ``undecided`` and resolved by pushed ``decide`` messages (commit ⇒
    apply now)."""

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
        self._host: _WorkerHost | None = None
        self.recover()

    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Restart entry point: truncate any torn tail, then redo."""
        self._votes.clear()
        self._rebuild(self._log.repair())

    def _rebuild(self, records: Sequence[dict]) -> None:
        """Rebuild engines from scratch by replaying the committed
        prefix of ``records`` (this node's log) in window order — both
        crash recovery and tentative-window rollback.  The undecided
        windows come back as payloads, none of them applied."""
        prepared: dict[int, Any] = {}
        verdicts: dict[int, str] = {}
        for record in records:
            kind = record["type"]
            if kind == "begin":
                prepared.clear()
                verdicts.clear()
            elif kind == "prepared":
                prepared[record["window"]] = record["payload"]
            elif kind == "decision":
                verdicts[record["window"]] = record["verdict"]
        self._host = _WorkerHost(self._shard_ids, self._config)
        self._applied.clear()
        for window in sorted(prepared):
            if verdicts.get(window) == "commit":
                self._host.handle(retuple(prepared[window]))
        self._prepared = {
            window: retuple(payload)
            for window, payload in prepared.items()
            if window not in verdicts
        }

    def undecided(self) -> list[int]:
        return sorted(self._prepared)

    # ------------------------------------------------------------------
    def handle(self, message: tuple) -> tuple:
        kind = message[0]
        if kind == "prepare":
            _kind, window, payload = message
            if self._plan.crash_at(self.node_id, window, PRE_PREPARE):
                raise NodeCrash(PRE_PREPARE, window)
            if window in self._votes:
                # Duplicate delivery: idempotent re-vote, no re-apply.
                return ("vote", window, self._votes[window])
            self._log.append(
                {"type": "prepared", "window": window, "payload": payload}
            )
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
            payload = self._prepared.pop(window, None)
            if payload is None:
                # No longer pending: a duplicate decision, idempotent.
                return ("ack", window)
            self._log.append(
                {"type": "decision", "window": window, "verdict": verdict}
            )
            # A duplicate prepare is on the wire back-to-back with the
            # original, before any vote is read — once the decision is
            # logged no copy can still arrive, so the vote is dead weight.
            self._votes.pop(window, None)
            if window in self._applied:
                self._applied.discard(window)
                if verdict == "abort":
                    # Tentatively applied: roll back to committed prefix.
                    self._rebuild(self._log.replay())
            elif verdict == "commit":
                # Commit resolved after a restart: redo the payload now.
                self._host.handle(payload)
            return ("ack", window)
        if kind == "undecided":
            return ("undecided-reply", tuple(self.undecided()))
        if kind == "begin":
            self._log.truncate()
            self._log.append({"type": "begin"})
            self._prepared.clear()
            self._votes.clear()
            self._applied.clear()
            self._host = _WorkerHost(self._shard_ids, self._config)
            return ("ready",)
        raise ValueError(f"unknown message kind {kind!r}")

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
        **kwargs: Any,
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
        super().__init__(spec, window=window, **kwargs)
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
        self._committed_windows: set[int] = set()
        self._dead: set[int] = set()

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
        self._committed_windows = set()
        self._dead = set()
        self._wal.truncate()
        self._wal.append({"type": "begin"})
        # Reset every node durably (their logs restart at "begin") —
        # the plane-level _pending_reset still rides the first window so
        # coordinator-visible behavior matches the base plane exactly.
        for node_id in self._transport.nodes():
            self._transport.send(node_id, ("begin",))
            reply = self._transport.recv(node_id)
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
                self._wal.append({"type": "commit", "window": window})
                self._committed_windows.add(window)
                self._broadcast_decision(window, "commit", payloads)
                self._heal()
                self._apply_shipments(updates)
                decisions = self._merge_replies(votes)
                self._account_ipc(entries, rows, len(per_worker))
                return decisions
            self._wal.append({"type": "abort", "window": window})
            self.ipc["window_aborts"] += 1
            self._broadcast_decision(window, "abort", payloads)
            self._heal()

    def _prepare_round(
        self, window: int, payloads: Mapping[int, tuple]
    ) -> dict[int, tuple] | None:
        """PREPARE fan-out; returns all votes, or None if any node
        failed to vote (presumed abort)."""
        transport = self._transport
        votes: dict[int, tuple] = {}
        failed = False
        for node_id in sorted(payloads):
            try:
                transport.send(
                    node_id, ("prepare", window, payloads[node_id])
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
        return None if failed else votes

    def _broadcast_decision(
        self, window: int, verdict: str, payloads: Mapping[int, tuple]
    ) -> None:
        """Best-effort decision delivery.  A node that misses it is
        marked dead and resolved at restart — for commits the WAL record
        is the truth, for aborts absence is (presumed abort)."""
        transport = self._transport
        for node_id in sorted(payloads):
            if node_id in self._dead:
                continue
            try:
                transport.send(node_id, ("decide", window, verdict))
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
        transport = self._transport
        transport.send(node_id, ("undecided",))
        reply = transport.recv(node_id)
        for window in reply[1]:
            verdict = (
                "commit" if window in self._committed_windows else "abort"
            )
            transport.send(node_id, ("decide", window, verdict))
            transport.recv(node_id)
            self.ipc["resolved_windows"] += 1

    def _recover_coordinator(self) -> None:
        """Rebuild decision state from the durable WAL alone — exactly
        what a restarted coordinator would see (torn tail truncated)."""
        records = self._wal.repair()
        self._committed_windows = {
            record["window"]
            for record in records
            if record.get("type") == "commit"
        }

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
