"""Windowed shard execution plane: per-shard scheduler replicas.

The sharded pipeline simulates partitioned scheduling inside one
process: a single :class:`~repro.core.distributed.DMTkScheduler` walks a
logically shared timestamp table, paying simulated lock/fetch costs per
cross-shard touch.  This module makes the partition *real*: every shard
owns a private :class:`~repro.core.mtk.MTkScheduler` replica — with the
same DMT(k) ingredients that keep the cross-shard order total
(:class:`~repro.core.timestamp.SiteTaggedCounters` per shard, so k-th
column elements are globally unique ``(counter, shard)`` pairs, and the
distributed joining encoding that pulls a site's counter above/below
whatever foreign element it must order against) — and the coordinator
talks to the shards in *batched* messages, one per host per admission
window.  :class:`ParallelShardSet` hosts every engine on one in-process
:class:`_WorkerHost`; the crash-recoverable data plane
(:mod:`.recovery`) ships the same messages to data nodes over 2PC,
in-process (loopback) or over localhost TCP.

Execution model (window-at-a-time; the service drives it):

1. the coordinator drains an admission window and plans it with a
   **row-conflict cut**: each operation ``op(i, x)`` claims row ``i``
   plus the item's *conflict rows*, the rows a decision on ``x`` may
   compare or encode into (Definition 6 encoding writes into *both*
   vectors of a compared pair): ``{RT(x), WT(x)}`` under MT(k), every
   row ``x``'s version chain references under MVMT(k).  The window is
   cut the moment an entry claims a row another shard already claimed.
   Within one window every row therefore has a **single writing shard**
   (in particular a transaction's entries all land on one shard, since
   each claims row ``i``), which is what makes the merge deterministic
   and replica reconciliation trivial (the incoming snapshot always
   supersedes);
2. each shard's batch ships as one compact message of tuples/ints (no
   per-op objects), together with the replica rows the shard is
   missing; the host decides the whole batch locally and replies with
   ``(seq, decision_code)`` pairs, dirty-row snapshots, and the
   conflict rows of every item the batch touched;
3. the coordinator merges replies **in admission (seq) order**, applies
   storage effects centrally, routes rejects through the existing
   :class:`~repro.engine.pipeline.admission.RetryPolicy` machinery, and
   broadcasts ``restart``/``drop``/``commit``/``reset`` commands so all
   replicas converge before the next window is planned.

Message schema (all plain tuples; the 2PC wire codec ships them as
JSON arrays)::

    coordinator -> host:
      ("run", commands, shard_batches)
        commands      = (("restart", txn) | ("drop", txn)
                         | ("commit", txn) | ("reset",), ...)
        shard_batches = ((shard_id, rows, batch), ...)  # batched shards
        rows          = ((txn, snapshot), ...)      # replica refresh
        batch         = ((seq, txn, kind, item), ...)  # kind 0=R 1=W
    host -> coordinator (engines with news only: decisions, dirty
    rows/items, or stats changed since their last reply):
      ((shard_id, decisions, rows, index, stats), ...)
        decisions = ((seq, code), ...)   # 0 accept / 1 ignore
                                         # 2 reject / 3 skip
        rows      = ((txn, snapshot), ...)   # dirtied this message
        index     = ((item, *rows), ...)     # touched this message
        # rows: (rt, wt) under MT(k); under MVMT(k) every row the item's
        # chain references, T0 included while the chain retains it

A host applies one message in three strict passes — replica rows, then
commands (so an undo triggered by a remote reject repoints against
barrier-fresh rows), then batches.  The in-process plane and every data
node drive the *same* :class:`_WorkerHost` code, so their decision
streams are identical by construction; the conformance fuzzer's
``recovery-equivalence`` rule checks it anyway, on every case.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ...core.distributed import _JoiningEncoding
from ...core.mtk import MTkScheduler
from ...core.table import VIRTUAL_TXN
from ...core.timestamp import SiteTaggedCounters, TimestampVector
from ...model.operations import Operation, OpKind
from .router import ShardRouter
from .shard import Shard, ShardSpec

#: Wire decision codes (one int per operation in a batch reply).
CODE_ACCEPT = 0
CODE_IGNORE = 1
CODE_REJECT = 2
#: The operation was skipped because an earlier operation of the same
#: transaction was rejected in the same batch (the coordinator will
#: replan it after the restart).
CODE_SKIP = 3

_KINDS = (OpKind.READ, OpKind.WRITE)

#: Default admission-window width for windowed execution.  Message
#: amortization wants hundreds of operations per window.
DEFAULT_WINDOW = 256


class ParallelExecutionError(RuntimeError):
    """The data plane failed a window: a data node crashed, timed out
    or raised, or a window outlasted its retry budget."""

    def __init__(self, message: str, worker: int | None = None) -> None:
        super().__init__(message)
        self.worker = worker


# ----------------------------------------------------------------------
# Host side
# ----------------------------------------------------------------------
class ShardEngine:
    """One shard's scheduler replica.

    The scheduler is a plain MT(k) over the shard's private table, made
    cross-shard sound exactly the way DMT(k) sites are: its k-th vector
    column comes from :class:`SiteTaggedCounters` tagged with the shard
    id (elements are globally unique ``(counter, shard)`` pairs), and
    the joining encoding pulls the local counter above/below any foreign
    element it must order against (Section V-B).  Rows of transactions
    and remote most-recent accessors are replicated in lazily via
    :meth:`apply_rows`; everything the engine dirties is exported back
    in :meth:`collect_reply`.
    """

    def __init__(
        self,
        shard_id: int,
        k: int,
        read_rule: str,
        anti_starvation: bool = False,
        protocol: str = "mtk",
    ) -> None:
        self.shard_id = shard_id
        self.multiversion = protocol == "mvmt"
        shared = dict(
            counters=SiteTaggedCounters(shard_id),
            encoding=_JoiningEncoding(),
            anti_starvation=anti_starvation,
        )
        if self.multiversion:
            from ...core.multiversion import MVMTkScheduler

            # Items are routed to their owning shard, so an item's whole
            # version chain lives (and is decided) here — decentralized
            # visibility needs no chain shipping, only the vector rows
            # the item's reply-index entry names.
            self.scheduler: MTkScheduler = MVMTkScheduler(
                k, commit_aware=True, **shared
            )
        else:
            self.scheduler = MTkScheduler(
                k, read_rule=read_rule, **shared
            )
        # No accessor crosses _WorkerHost, so nothing can read this
        # trace; re-enable it together with a consumer (ROADMAP item 6).
        self.scheduler.events.disable()
        self._exported: dict[int, int] = {}
        #: rows a batch may have written, held by object: a committed row
        #: the batch stops referencing leaves the table mid-batch, and its
        #: last writes must still be exported.
        self._dirty_rows: dict[int, TimestampVector] = {}
        self._dirty_items: set[str] = set()
        self._mark_virtual()

    def _mark_virtual(self) -> None:
        # The virtual T0 row is born identical in every replica; record
        # its version so it is only exported if actually mutated.
        table = self.scheduler.table
        self._exported[VIRTUAL_TXN] = table.vector(VIRTUAL_TXN).version

    def reset(self) -> None:
        self.scheduler.reset()
        self._exported.clear()
        self._dirty_rows.clear()
        self._dirty_items.clear()
        self._mark_virtual()

    # ------------------------------------------------------------------
    def apply_rows(self, rows: Iterable[tuple[int, tuple]]) -> None:
        """Refresh replica rows from coordinator snapshots.

        Wholesale replace (flush, then set each defined element): the
        single-writing-shard window invariant means an incoming snapshot
        is always a superset of whatever this replica holds, and
        elements are write-once per flush epoch, so merge is never
        needed."""
        table = self.scheduler.table
        exported = self._exported
        for txn, values in rows:
            row = table.vector(txn)
            row.flush()
            for position, value in enumerate(values, start=1):
                if value is not None:
                    row.set(position, value)
            exported[txn] = row.version

    def apply_command(self, command: tuple) -> None:
        kind = command[0]
        if kind == "reset":
            self.reset()
            return
        scheduler = self.scheduler
        if kind == "gc":
            # Coordinator-driven chain collection: ships fresh row
            # snapshots plus the *global* in-flight set.  A transaction
            # that drew elements at another shard can be ordered below a
            # local watermark candidate without ever having batched here,
            # so engine-local active sets alone would over-collect (and
            # surface as "snapshot too old" horizon aborts).  Riding the
            # broadcast command stream keeps collection bit-identical
            # across node counts.
            if self.multiversion:
                _kind, rows, active_ids, top = command
                if rows:
                    self.apply_rows(rows)
                # Lamport join before collecting: future element draws
                # at this site must land above everything the retained
                # history keeps, or a fresh transaction drawing from a
                # lagging site counter materializes *below* the settled
                # watermark and takes a spurious "snapshot too old"
                # abort (site counters are only locally monotone).  The
                # coordinator computes *top* over every row it has ever
                # merged — committed watermark writers included, whose
                # rows this engine may never have seen.
                if top is not None:
                    scheduler.table.counters.ensure_above((top, 0))
                # grace=1 keeps one version below the watermark: most
                # horizon aborts come from a restarted reader pinned
                # adjacently (±1 encode) just below the newest settled
                # writer, and one spare version absorbs that case (~70%
                # fewer "snapshot too old" restarts for ~14% less
                # reclamation on the windowed mixes).
                scheduler.collect_chain_garbage(active_ids, grace=1)
            return
        txn = command[1]
        if kind == "commit":
            scheduler.commit(txn)
            return
        # "restart" / "drop": the coordinator resolved a reject for txn.
        if txn in scheduler.aborted:
            # This engine issued the reject: its index undo already ran
            # inside _abort; restart() flushes the row.  A dropped
            # (failed) transaction never comes back, so clearing its
            # aborted mark is harmless.
            scheduler.restart(txn)
        else:
            # Remote reject (or cascade victim): roll txn's local index
            # entries back and flush the local row; the items whose
            # conflict rows moved are reported in the reply.
            self._dirty_items.update(scheduler.forget_remote(txn))
        self._exported[txn] = scheduler.table.vector(txn).version

    # ------------------------------------------------------------------
    def run_batch(
        self, batch: Sequence[tuple[int, int, int, str]]
    ) -> tuple[tuple, ...]:
        """Decide one shard batch locally; returns ``(seq, code)`` pairs
        (mvmt accepted reads carry a third column: the version writer the
        read consumed, for coordinator-side commit-dependency gating)."""
        scheduler = self.scheduler
        table = scheduler.table
        vector = table.vector
        decisions: list[tuple] = []
        rejected: set[int] = set()
        dirty_rows = self._dirty_rows
        dirty_items = self._dirty_items
        touched_items = scheduler.touched_items
        pending_readers = scheduler.pending_readers
        chains = scheduler.chains() if self.multiversion else None
        for seq, txn, kind_code, item in batch:
            if txn in rejected:
                decisions.append((seq, CODE_SKIP))
                continue
            dirty_items.add(item)
            if chains is None:
                # The op's encodings may write into the pre-op pair
                # {TS(rt), TS(wt)} — and a write's into the item's
                # pending readers — besides TS(i): export whichever
                # actually changed (version-checked at collect, so
                # over-approximating is free).
                rt, wt = table.rt(item), table.wt(item)
                dirty_rows[rt] = vector(rt)
                dirty_rows[wt] = vector(wt)
                if kind_code and item in pending_readers:
                    for reader in pending_readers[item]:
                        dirty_rows[reader] = vector(reader)
            prior_touched = touched_items(txn)
            decision = scheduler.process(
                Operation(_KINDS[kind_code], txn, item)
            )
            if decision.performed:
                code = CODE_ACCEPT
                dirty_rows[txn] = vector(txn)
            elif decision.accepted:
                code = CODE_IGNORE
            else:
                code = CODE_REJECT
                rejected.add(txn)
                # _abort already rolled back txn's index entries for
                # everything it touched here; report those items' fresh
                # conflict rows.  The row itself is dirty too when
                # anti-starvation re-seeded it.
                dirty_rows[txn] = vector(txn)
                dirty_items.update(prior_touched)
            if chains is not None:
                # Multiversion pins may have written into any row the
                # item's chain references (reader pins on an
                # incomparable version, write-read PIN_BELOW moves, a
                # pin on the T0 base) — the rows its reply-index entry
                # claims.
                for owner in chains[item].referenced_txns():
                    dirty_rows[owner] = vector(owner)
            if chains is not None and kind_code == 0 and code == CODE_ACCEPT:
                # mvmt reads report which version writer they consumed as
                # a third column: the coordinator gates the reader's
                # commit on that writer committing (recoverability — a
                # read can consume an uncommitted version).  Plain MT(k)
                # keeps 2-tuples so its wire format — and the frozen
                # recovery corpus riding it — is byte-identical.
                source = scheduler.read_source(txn, item)
                decisions.append(
                    (seq, code, VIRTUAL_TXN if source is None else source)
                )
                continue
            decisions.append((seq, code))
        return tuple(decisions)

    def collect_reply(
        self,
    ) -> tuple[tuple, tuple, tuple]:
        """Drain dirty rows/items into a reply payload (sorted, so the
        message bytes are deterministic)."""
        scheduler = self.scheduler
        table = scheduler.table
        exported = self._exported
        rows: list[tuple[int, tuple]] = []
        dirty_rows = self._dirty_rows
        for txn in sorted(dirty_rows):
            row = dirty_rows[txn]
            if row.version != exported.get(txn, 0):
                rows.append((txn, row.snapshot()))
                exported[txn] = row.version
        if self.multiversion:
            # The conflict rows of a multiversion item are every row its
            # chain references: exactly what a local visibility decision
            # may compare or pin — the planner claims them and the
            # shipment planner replicates them.
            chains = scheduler.chains()
            index: tuple = tuple(
                (item, *sorted(chains[item].referenced_txns()))
                for item in sorted(self._dirty_items)
            )
        else:
            pending_readers = scheduler.pending_readers
            index = tuple(
                (
                    item,
                    table.rt(item),
                    table.wt(item),
                    *pending_readers.get(item, ()),
                )
                for item in sorted(self._dirty_items)
            )
        self._dirty_rows.clear()
        self._dirty_items.clear()
        stats: tuple = (table.element_visits,)
        if self.multiversion:
            stats += (
                (
                    scheduler.mv_read_aborts,
                    scheduler.mv_horizon_aborts,
                    scheduler.chain_versions_reclaimed,
                    scheduler.read_records_reclaimed,
                    max(
                        (len(c) for c in scheduler.chains().values()),
                        default=1,
                    ),
                ),
            )
        return tuple(rows), index, stats


class _WorkerHost:
    """Hosts a set of shard engines: all of them in-process, or one
    data node's share.

    The in-process plane and every data node drive this exact class —
    the same code on the same message stream, which is what makes them
    bit-identical."""

    def __init__(
        self, shard_ids: Sequence[int], config: tuple
    ) -> None:
        k, read_rule, anti_starvation, protocol = config
        self.engines = {
            shard_id: ShardEngine(
                shard_id, k, read_rule, anti_starvation, protocol=protocol
            )
            for shard_id in shard_ids
        }
        #: The stats each engine last replied with: the coordinator keeps
        #: the last ones it merged, so unchanged stats need not travel.
        self._reported: dict[int, tuple] = {}

    def handle(self, message: tuple) -> tuple:
        if message[0] != "run":
            raise ValueError(f"unknown message kind {message[0]!r}")
        _kind, commands, shard_batches = message
        engines = self.engines
        batches = {}
        # Pass 1: replica rows (before commands, so undo repoints
        # triggered by restart/drop run against barrier-fresh rows).
        for shard_id, rows, batch in shard_batches:
            if rows:
                engines[shard_id].apply_rows(rows)
            batches[shard_id] = batch
        # Pass 2: global commands, every hosted engine.
        reported = self._reported
        if commands:
            for engine in engines.values():
                for command in commands:
                    engine.apply_command(command)
            if ("reset",) in commands:
                reported.clear()
        # Pass 3: batches.  Only an engine with something to say
        # replies: decisions, dirty rows or items, or changed stats.
        replies = []
        for shard_id, engine in engines.items():
            batch = batches.get(shard_id)
            if batch is None and not commands:
                continue
            decisions = engine.run_batch(batch) if batch else ()
            rows_out, index, stats = engine.collect_reply()
            if decisions or rows_out or index or stats != reported.get(
                shard_id
            ):
                reported[shard_id] = stats
                replies.append((shard_id, decisions, rows_out, index, stats))
        return tuple(replies)


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class _InlineTransport:
    """Every engine in-process, behind direct calls: the reference
    execution the ``recovery-equivalence`` fuzzer rule compares the 2PC
    data plane against."""

    def __init__(
        self, assignments: Mapping[int, tuple[int, ...]], config: tuple
    ) -> None:
        self._hosts = {
            worker_id: _WorkerHost(shard_ids, config)
            for worker_id, shard_ids in assignments.items()
            if shard_ids
        }
        self._replies: dict[int, tuple] = {}

    def request(self, worker_id: int, message: tuple) -> None:
        self._replies[worker_id] = self._hosts[worker_id].handle(message)

    def collect(self, worker_id: int) -> tuple:
        return self._replies.pop(worker_id)

    def close(self) -> None:
        self._hosts.clear()
        self._replies.clear()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class ParallelShardSet:
    """The coordinator: shard engines behind a windowed batch protocol.

    Every engine lives on one in-process host (host ``0``); the
    recovery plane spreads them over data nodes, shard ``s`` on node
    ``s % nodes``.  Decision streams are identical for every node count
    because engines are independent and every host runs the same code.

    The coordinator keeps three pieces of state between windows: a
    **row store** (the latest exported snapshot of every row, versioned
    so each shard only receives rows it lacks), per-shard **watermarks**
    of what was already shipped, and the **item index** — the
    authoritative ``item -> conflict rows`` map rebuilt from host
    replies, which window planning claims and ships.
    """

    def __init__(self, spec: ShardSpec, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.spec = spec
        self.window = int(window)
        self.router = ShardRouter(spec.n_shards)
        self.shards = [Shard(index) for index in range(spec.n_shards)]
        self._config = (
            spec.k, spec.read_rule, spec.anti_starvation, spec.protocol,
        )
        self._assign(1)
        self._transport: Any | None = None
        self._closed = False
        self._pending_reset = False
        self._ran_before = False
        # txn -> (version, snapshot); shard -> txn -> shipped version.
        self._store: dict[int, tuple[int, tuple]] = {}
        self._have: dict[int, dict[int, int]] = {
            shard: {} for shard in range(spec.n_shards)
        }
        self._item_rows: dict[str, tuple[int, ...]] = {}
        self._engine_stats: dict[int, tuple] = {}
        # mvmt only: seq -> version writer the window's accepted reads
        # consumed (third decision column); refreshed per reply merge.
        self.window_sources: dict[int, int] = {}
        self.ipc = self._fresh_ipc()

    def _assign(self, hosts: int) -> None:
        """Place shard ``s`` on host ``s % hosts``."""
        n_shards = self.spec.n_shards
        self._assignments = {
            host: tuple(range(host, n_shards, hosts)) for host in range(hosts)
        }
        self._worker_of = {shard: shard % hosts for shard in range(n_shards)}

    @staticmethod
    def _fresh_ipc() -> dict[str, int]:
        return {
            "windows": 0,
            "messages": 0,
            "entries_shipped": 0,
            "rows_shipped": 0,
            "sync_rounds": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Reset coordinator state for a fresh run; engines are reset by
        a ``("reset",)`` command riding the next window message."""
        if self._closed:
            raise RuntimeError("parallel plane is closed")
        if self._transport is None:
            self._transport = self._build_transport()
        self._pending_reset = self._ran_before
        self._ran_before = True
        self._store.clear()
        for have in self._have.values():
            have.clear()
        self._item_rows.clear()
        self._engine_stats.clear()
        self.window_sources.clear()
        for shard in self.shards:
            shard.clear()
        self.ipc = self._fresh_ipc()

    def _build_transport(self) -> Any:
        """Transport factory; the recovery plane overrides this."""
        return _InlineTransport(self._assignments, self._config)

    def close(self) -> None:
        transport = self._transport
        self._transport = None
        self._closed = True
        if transport is not None:
            transport.close()

    def __enter__(self) -> "ParallelShardSet":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Planning surface
    # ------------------------------------------------------------------
    def item_rows(self, item: str) -> tuple[int, ...]:
        """The rows a decision on *item* may compare or encode into, as
        of the last reply: ``(RT, WT)`` plus the pending readers a write
        must still follow under MT(k), every row the
        item's version chain references under MVMT(k).  A fresh item's
        only such row is the virtual T0 (its ``RT``/``WT``, or the
        writer of its base version)."""
        return self._item_rows.get(item, (VIRTUAL_TXN,))

    def gc_command(self, active_ids: Iterable[int]) -> tuple:
        """Build a ``("gc", rows, active_ids)`` broadcast: fresh row
        snapshots for every in-flight transaction the coordinator holds,
        plus the global in-flight set itself.  Engines collect chain
        garbage against *that* active set instead of their local one — a
        transaction that only ever batched at another shard would
        otherwise be invisible to the local watermark and its snapshot
        reclaimed ("snapshot too old").

        Deliberately does NOT advance the ``_have`` shipped-row
        watermarks: the recovery plane replans aborted 2PC windows from
        those watermarks, and a gc broadcast must not make a replica
        look fresher than the next replan assumes.

        The fourth field is the highest element counter across every row
        the coordinator has merged (committed writers included): engines
        Lamport-join their site counter above it so post-GC element
        draws can never materialize below a settled watermark."""
        ids = tuple(sorted(set(active_ids)))
        store = self._store
        rows = tuple(
            (txn, store[txn][1]) for txn in ids if txn in store
        )
        top: int | None = None
        for _version, values in store.values():
            for element in values:
                if element is None:
                    continue
                counter = (
                    element[0] if isinstance(element, tuple) else element
                )
                if top is None or counter > top:
                    top = counter
        return ("gc", rows, ids, top)

    def note_drop(self, txn: int) -> None:
        """Invalidate a restarted/dropped transaction's stored row *now*
        (before the command is delivered): every replica flushes it on
        command application, and a replica that never saw the row treats
        it as fresh-undefined — the same state — so the snapshot must
        never be shipped again.

        With anti-starvation the post-abort row is *not* fresh — the
        rejecting engine re-seeded it past the blocker and exported that
        snapshot with the rejecting window's reply — so the store entry
        is kept and only the shipped watermarks are dropped: every
        replica (the rejector included, harmlessly) re-receives the
        seeded row the next time the transaction appears in its batch."""
        if not self.spec.anti_starvation:
            self._store.pop(txn, None)
        for have in self._have.values():
            have.pop(txn, None)

    def note_reset(self) -> None:
        """Invalidate everything ahead of a queued ``("reset",)`` so the
        next window is planned against the post-reset world."""
        self._store.clear()
        for have in self._have.values():
            have.clear()
        self._item_rows.clear()

    # ------------------------------------------------------------------
    # The windowed protocol
    # ------------------------------------------------------------------
    def run_window(
        self,
        batches: Mapping[int, Sequence[tuple[int, int, int, str]]],
        commands: Sequence[tuple] = (),
    ) -> dict[int, int]:
        """Ship one planned window (plus pending commands) and merge
        the replies; returns ``{seq: decision_code}``.

        With an empty *batches* this is a **sync round**: commands-only,
        used after any window that produced rejects so every replica's
        index rollbacks land before the next window is planned.
        """
        if self._transport is None:
            raise RuntimeError("call begin_run() before run_window()")
        commands = self._absorb_commands(commands)
        involved = self._involved(batches, commands)
        if not involved:
            return {}
        per_worker, entries, rows, updates = self._plan_shipments(
            involved, batches
        )
        self._apply_shipments(updates)
        transport = self._transport
        for worker_id in sorted(per_worker):
            transport.request(
                worker_id, ("run", commands, tuple(per_worker[worker_id]))
            )
        replies: dict[int, tuple] = {}
        for worker_id in sorted(per_worker):
            replies[worker_id] = transport.collect(worker_id)
        decisions = self._merge_replies(replies)
        self._account_ipc(entries, rows, len(per_worker))
        return decisions

    # -- window helpers (shared with the recovery plane) ---------------
    def _absorb_commands(self, commands: Sequence[tuple]) -> tuple:
        """Fold the pending reset in and apply coordinator-side command
        effects before row shipments are computed (a restarted row must
        not be shipped from a stale snapshot; note_drop/note_reset are
        idempotent when the service already applied them eagerly)."""
        commands = tuple(commands)
        if self._pending_reset:
            commands = (("reset",),) + commands
            self._pending_reset = False
        for command in commands:
            kind = command[0]
            if kind == "reset":
                self.note_reset()
            elif kind in ("restart", "drop"):
                self.note_drop(command[1])
        return commands

    def _involved(
        self, batches: Mapping[int, Sequence], commands: Sequence[tuple]
    ) -> set[int]:
        involved: set[int] = {
            shard for shard, batch in batches.items() if batch
        }
        if commands:
            involved.update(range(self.spec.n_shards))
        return involved

    def _plan_shipments(
        self, involved: set[int], batches: Mapping[int, Sequence]
    ) -> tuple[dict[int, list[tuple]], int, int, dict[int, dict[int, int]]]:
        """Plan one window's per-worker payloads without mutating any
        coordinator state.  Returns ``(per_worker, entries, rows,
        updates)`` where *updates* holds the watermark advances to fold
        in (immediately here; only on 2PC commit in the recovery
        plane, so an aborted attempt can replan identically)."""
        per_worker: dict[int, list[tuple]] = {}
        entries_shipped = 0
        rows_shipped = 0
        updates: dict[int, dict[int, int]] = {}
        for shard_id in sorted(involved):
            batch = tuple(batches.get(shard_id, ()))
            rows, shard_updates = self._plan_rows(shard_id, batch)
            entries_shipped += len(batch)
            rows_shipped += len(rows)
            updates[shard_id] = shard_updates
            shipment = per_worker.setdefault(self._worker_of[shard_id], [])
            # A shard without a batch has no rows to ship either: its
            # host still applies the commands to it, so it stays off
            # the wire.
            if batch:
                shipment.append((shard_id, rows, batch))
        return per_worker, entries_shipped, rows_shipped, updates

    def _apply_shipments(self, updates: dict[int, dict[int, int]]) -> None:
        for shard_id, shard_updates in updates.items():
            self._have[shard_id].update(shard_updates)

    def _merge_replies(self, replies: Mapping[int, tuple]) -> dict[int, int]:
        """Merge per-host replies into the coordinator state (row
        store, item index, engine stats) in deterministic order."""
        decisions: dict[int, int] = {}
        store = self._store
        self.window_sources.clear()
        for worker_id in sorted(replies):
            for shard_id, shard_decisions, rows, index, stats in replies[
                worker_id
            ]:
                for entry in shard_decisions:
                    seq, code = entry[0], entry[1]
                    decisions[seq] = code
                    if len(entry) > 2:  # mvmt read: version writer read
                        self.window_sources[seq] = entry[2]
                have = self._have[shard_id]
                for txn, values in rows:
                    entry = store.get(txn)
                    version = (entry[0] + 1) if entry is not None else 1
                    store[txn] = (version, values)
                    have[txn] = version
                for entry in index:
                    self._item_rows[entry[0]] = tuple(entry[1:])
                self._engine_stats[shard_id] = stats
        return decisions

    def _account_ipc(self, entries: int, rows: int, messages: int) -> None:
        ipc = self.ipc
        if entries:
            ipc["windows"] += 1
        else:
            ipc["sync_rounds"] += 1
        ipc["messages"] += messages
        ipc["entries_shipped"] += entries
        ipc["rows_shipped"] += rows

    def _plan_rows(
        self, shard_id: int, batch: Sequence[tuple[int, int, int, str]]
    ) -> tuple[tuple, dict[int, int]]:
        """Replica rows *shard_id* is missing for *batch* — the conflict
        row-set of every entry, minus what was already shipped at the
        stored version — plus the watermark updates shipping them
        implies.  Pure: mutates nothing."""
        if not batch:
            return (), {}
        need: set[int] = set()
        item_rows = self.item_rows
        for _seq, txn, _kind, item in batch:
            need.add(txn)
            need.update(item_rows(item))
        store = self._store
        have = self._have[shard_id]
        rows: list[tuple[int, tuple]] = []
        updates: dict[int, int] = {}
        for txn in sorted(need):
            entry = store.get(txn)
            if entry is None:
                continue
            version, values = entry
            if have.get(txn) != version:
                rows.append((txn, values))
                updates[txn] = version
        return tuple(rows), updates

    # ------------------------------------------------------------------
    # Occupancy accounting (coordinator-side, merge order)
    # ------------------------------------------------------------------
    def record(self, shard_id: int, op: Operation, code: int) -> None:
        shard = self.shards[shard_id]
        shard.ops += 1
        if op.kind.is_read:
            shard.reads += 1
        else:
            shard.writes += 1
        if code == CODE_ACCEPT:
            shard.accepted += 1
        elif code == CODE_REJECT:
            shard.rejected += 1
        else:
            shard.ignored += 1
        shard.items.add(op.item)

    def record_commit(self, txn_id: int) -> None:
        self.shards[self.router.shard_of_txn(txn_id)].commits_homed += 1

    # ------------------------------------------------------------------
    # Introspection (the service's stage snapshot)
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.spec.n_shards

    def occupancy(self) -> list[float]:
        total = sum(shard.ops for shard in self.shards)
        if total == 0:
            return [0.0] * len(self.shards)
        return [shard.ops / total for shard in self.shards]

    @property
    def element_visits(self) -> int:
        return sum(stats[0] for stats in self._engine_stats.values())

    def snapshot(self) -> list[dict[str, Any]]:
        return [shard.snapshot() for shard in self.shards]

    def mvcc_stats(self) -> dict[str, int] | None:
        """Aggregated multiversion gauges across engines (``None`` when
        no engine runs the mvmt protocol)."""
        reported = [
            stats[1]
            for stats in self._engine_stats.values()
            if len(stats) > 1
        ]
        if not reported:
            return None
        return {
            "mv_read_aborts": sum(s[0] for s in reported),
            "mv_horizon_aborts": sum(s[1] for s in reported),
            "chain_versions_reclaimed": sum(s[2] for s in reported),
            "read_records_reclaimed": sum(s[3] for s in reported),
            "max_chain_length": max(s[4] for s in reported),
        }

    def stage_snapshot(self) -> dict[str, Any]:
        snapshot = {
            "window": self.window,
            # str keys: the snapshot is JSON-dumped, and a round-trip
            # must be identity (json stringifies int keys).
            "assignments": {
                str(worker_id): list(shards)
                for worker_id, shards in self._assignments.items()
                if shards
            },
            "ipc": dict(self.ipc),
            "element_visits": self.element_visits,
        }
        mvcc = self.mvcc_stats()
        if mvcc is not None:
            snapshot["mvcc"] = mvcc
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ParallelShardSet n={self.spec.n_shards} "
            f"window={self.window}>"
        )
