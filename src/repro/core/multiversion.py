"""Multiversion MT(k) — implementation note III-D-6d made concrete.

The paper: "Reed [19] proposed a multiple version concurrency control
mechanism using single-valued timestamps.  The idea can be extended to
timestamp vectors."  This module is that extension — multiversion
timestamp ordering where the timestamps are MT(k)'s dynamically assigned
vectors:

* **Reads never abort.**  A read of ``x`` is resolved by the *pure*
  :class:`~repro.core.mvcc.VisibilityEngine` against the item's version
  chain: walking newest to oldest, skip writers already above the
  reader; the first writer below it (or pinned below it now, for an
  incomparable pair — a ``Set`` move that always succeeds) owns the
  version to read.  Either way the read is recorded against the version
  it saw.
* **Writes validate against recorded reads.**  A write by ``T_i`` must
  order after the newest writer, and must not slide a new version in
  between a recorded (version writer, reader) pair — a reader above
  ``T_i`` that read a version below ``T_i`` would retroactively have read
  the wrong version.  Readers not yet ordered against ``T_i`` are ordered
  *below* it on the spot (another dynamic-encoding move unavailable to
  scalar multiversion TO).  Only the reads accepted since the chain's
  tail was installed are classified: the tail's *validated prefix*
  already sits below the tail writer, hence — by transitivity — below
  ``T_i`` (``core/mvcc.py``; DESIGN.md §9 has the argument).

Every per-transaction question the executor asks is answered from what
the transaction owns, not from the chains' history: "retract my entries"
and "which version did my read see" from a per-transaction *chain
index* (the items where it holds a version or read record), "whom did I
read from" and "who read from me" from two *read indexes* (the sources
of each reader's live records, the readers sourced from each writer's
versions).  An abort or commit costs its own records.

The scheduler is now split per Bohm's prescription: the visibility
engine (``core/mvcc.py``) makes pure logical-ordering decisions and the
*installation* side here applies the returned pins through the MT(k)
``Set`` machinery and appends versions and read records.  The version
chain is the only per-item index: Algorithm 1's single-version
``RT``/``WT`` and the access histories behind their abort-time restore
stay empty, because no multiversion decision reads them.  The
split makes "reads are abort-free" structural — a read resolution either
names a version (plus at most one always-satisfiable pin) or trips the
defensively-counted ``mv_read_aborts`` path that the conformance fuzzer
pins at zero.

Serialization remains the topological order of the vectors; the executed
reads-from relation equals that of the serial replay in that order (the
``mvcc-equivalence`` fuzz rule and frozen ``mvmt_*`` corpus entries
assert view equivalence and bit-identity with the pre-split scheduler).

:class:`MultiversionMixin` carries the behaviour so it composes with
either base: :class:`MVMTkScheduler` (over plain MT(k), full constructor
surface — counters/encoding — so the parallel shard plane
can host it) and :class:`MVDMTkScheduler` (over DMT(k), where
decentralized visibility shrinks the per-operation lock set to the item
record and the issuing transaction: versions are resolved against the
local chain, with **no** cross-shard critical section on remote
reader/writer vectors).
"""

from __future__ import annotations

from typing import Any, Iterable

from ..model.operations import Operation
from .distributed import DMTkScheduler, ObjectId
from .mtk import MTkScheduler
from .mvcc import ReaderCheck, VersionChain, VisibilityEngine
from .protocol import Decision, DecisionStatus
from .table import VIRTUAL_TXN
from .timestamp import Ordering


class MultiversionMixin:
    """III-D-6d behaviour over any MT(k)-family base scheduler."""

    def __init__(
        self, *args: Any, commit_aware: bool = False, **kwargs: Any
    ) -> None:
        #: Live-execution policy switch.  With a commit oracle the read
        #: walk detours around unordered *uncommitted* writers (pinning
        #: the reader below them) so commit dependencies only arise when
        #: the serialization order forces them.  That is an executor
        #: policy, not part of the accepted-log class: ``accepts()``
        #: replays a log with no commit events at all, so the oracle
        #: would see every writer as uncommitted and shrink the class.
        #: The pipeline opts in; the checker matrix keeps the default.
        self.commit_aware = commit_aware
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        super().reset()
        #: per-item version chains (the T0 base version included) — the
        #: one representation shared with the storage layer.
        self._chains: dict[str, VersionChain] = {}
        #: per-transaction chain index: ``txn -> {item: source}`` over
        #: the items where *txn* installed a version or had a read
        #: accepted; *source* is the version writer its latest accepted
        #: read of the item saw (``None``: a write only).  An entry goes
        #: when *txn*'s chain entries are retracted, or with its row
        #: (:meth:`reclaim_committed`).
        self._chain_index: dict[int, dict[str, int | None]] = {}
        #: the read indexes behind :meth:`commit_dependencies` and
        #: :meth:`readers_of`, over *uncommitted* readers only — the
        #: only ones either question is acted on for:
        #: ``reader -> [source, ...]`` (one entry per live read record
        #: sourced from another transaction's version; ``T_0`` and
        #: own-version reads are left out) and its inverse ``writer ->
        #: {reader, ...}``.  A reader joins when a read is recorded and
        #: leaves when its records are retracted or it commits; chain GC
        #: only ever drops committed readers' records, so it cannot make
        #: them stale.  A writer's reader set outlives the writer's own
        #: retraction, because :meth:`readers_of` is asked *after*
        #: :meth:`_abort` retracted it.
        self._read_sources: dict[int, list[int]] = {}
        self._source_readers: dict[int, set[int]] = {}
        # Rebuilt every reset so the pure engine can never compare
        # against a stale table (the PR-1 ``reset()`` bug family: state
        # bound to a table the reset just threw away).  When the
        # ``commit_aware`` opt-in is set, the commit oracle makes the
        # read walk skip unordered uncommitted writers (reader pinned
        # below them) instead of dirty-reading, so commit dependencies
        # only arise when the serialization order already forces them.
        self.visibility = VisibilityEngine(
            self._ordering_of,
            self._is_committed if self.commit_aware else None,
        )
        #: defensive counter — abort-free reads by construction, so this
        #: staying zero is an invariant the fuzzer checks.
        self.mv_read_aborts = 0
        #: GC-horizon aborts ("snapshot too old"): a reader ordered
        #: strictly below a truncated chain's oldest retained version.
        #: Kept separate from mv_read_aborts — it is a documented GC
        #: trade-off, not a visibility bug: adjacency encodes can
        #: serialize a transaction into already-reclaimed history after
        #: collection ran.  The windowed plane ships the coordinator's
        #: global active set with every gc command and keeps a one-
        #: version grace margin to make this rare, not impossible.
        self.mv_horizon_aborts = 0
        self.chain_versions_reclaimed = 0
        self.read_records_reclaimed = 0

    def _ordering_of(self, a: int, b: int) -> Ordering:
        """The pure comparison oracle handed to the visibility engine —
        reads ``self.table`` at call time, never caches a table ref."""
        return self.table.compare_vectors(
            self.table.vector(a), self.table.vector(b)
        ).ordering

    def _is_committed(self, txn: int) -> bool:
        """The commit oracle handed to the visibility engine (live set
        lookup — windowed engines learn commits from the broadcast
        command stream, so every replica answers identically)."""
        return txn in self.committed

    def _chain(self, item: str) -> VersionChain:
        chain = self._chains.get(item)
        if chain is None:
            chain = self._chains[item] = VersionChain()
        return chain

    def _index_entry(self, txn: int) -> dict[str, int | None]:
        entry = self._chain_index.get(txn)
        if entry is None:
            entry = self._chain_index[txn] = {}
        return entry

    def _note_successor(self, j: int, i: int) -> None:
        """Record ``T_i`` ordered after ``T_j`` (the bookkeeping
        ``_set_less`` performs; needed when the order already held and no
        ``Set`` call was spent confirming it)."""
        if j == i or not self.partial_rollback or j in self.committed:
            return
        successors = self._successors.get(j)
        if successors is None:
            self._successors[j] = {i}
        else:
            successors.add(i)

    # ------------------------------------------------------------------
    # Scheduling: visibility decides, this layer installs
    # ------------------------------------------------------------------
    def _process_read(self, op: Operation) -> Decision:
        i, x = op.txn, op.item
        chain = self._chain(x)
        while True:
            resolution = self.visibility.resolve_read(chain, i, x)
            if resolution is None or not resolution.skip:
                break
            # Commit-aware detour: order the reader below the unordered
            # *uncommitted* writer and resolve again — the pin is
            # applied eagerly so the re-walk compares fresh vectors.
            # Each detour leaves that writer strictly above the reader
            # (the next walk passes it as GREATER), and an untruncated
            # chain floors at T0, so the loop terminates.
            writer, pin_item = resolution.pin
            if not self._set_less(i, writer, pin_item).ok:  # pragma: no cover
                self.mv_read_aborts += 1
                return self._abort(op, blocking=writer)
        if resolution is None:
            if chain.versions[0].writer != VIRTUAL_TXN:
                # GC truncated the chain and this reader is ordered
                # strictly below the oldest retained version — the
                # classic "snapshot too old" horizon abort.
                self.mv_horizon_aborts += 1
            else:
                # Nothing readable below T_i (possible only for vectors
                # driven below the virtual transaction) — genuine abort,
                # counted so the abort-free-reads invariant is checkable.
                self.mv_read_aborts += 1
            return self._abort(op, blocking=chain.newest)
        if resolution.pin is not None:
            writer, pin_item = resolution.pin
            if not self._set_less(writer, i, pin_item).ok:  # pragma: no cover
                self.mv_read_aborts += 1
                return self._abort(op, blocking=writer)
        elif resolution.fresh:
            self._note_successor(resolution.source, i)
        source = resolution.source
        chain.record_read(i, source)
        self._index_entry(i)[x] = source
        if source != VIRTUAL_TXN and source != i:
            sources = self._read_sources.get(i)
            if sources is None:
                self._read_sources[i] = [source]
            else:
                sources.append(source)
            readers = self._source_readers.get(source)
            if readers is None:
                self._source_readers[source] = {i}
            else:
                readers.add(i)
        reason = (
            ""
            if resolution.fresh
            else f"read-old-version:T{resolution.source}"
        )
        return Decision(DecisionStatus.ACCEPT, op, reason)

    def _process_write(self, op: Operation) -> Decision:
        i, x = op.txn, op.item
        chain = self._chain(x)
        placement = self.visibility.resolve_write(chain, i, x)
        if not placement.ok:
            return self._abort(op, blocking=placement.blocking)
        if placement.pin is not None:
            writer, pin_item = placement.pin
            if not self._set_less(writer, i, pin_item).ok:  # pragma: no cover
                return self._abort(op, blocking=writer)
        else:
            self._note_successor(placement.blocking, i)
        # The tail writer is now below T_i, and so is every reader in the
        # tail's validated prefix: only the reads accepted since the tail
        # was installed can constrain this write.
        reads = chain.reads
        classify = self.visibility.classify_reader
        validated = len(reads)
        for index in range(chain.versions[-1].validated, len(reads)):
            reader, source = reads[index]
            if reader == i:
                continue
            check = classify(reader, source, i)
            if check is ReaderCheck.INVALIDATED:
                return self._abort(op, blocking=reader)
            if check is ReaderCheck.PIN_BELOW:
                if not self._set_less(reader, i, x).ok:  # pragma: no cover
                    return self._abort(op, blocking=reader)
            elif check is ReaderCheck.SAFE:
                # A SAFE reader sits *above* T_i: it is not below the
                # next tail writer by transitivity, so the prefix must
                # stop short of the first such record.
                validated = min(validated, index)
        chain.install(i).validated = validated
        self._index_entry(i).setdefault(x, None)
        return Decision(DecisionStatus.ACCEPT, op)

    # ------------------------------------------------------------------
    def chains_of(self, txn: int) -> list[VersionChain]:
        """The chains where *txn* holds a version or read record (a
        superset, from the chain index; empty once it was retracted)."""
        chains = self._chains
        return [chains[item] for item in self._chain_index.get(txn, ())]

    def _forget_reads(self, reader: int) -> None:
        """Drop *reader* from both read indexes."""
        sources = self._read_sources.pop(reader, None)
        if not sources:
            return
        source_readers = self._source_readers
        for source in sources:
            readers = source_readers.get(source)
            if readers is not None:
                readers.discard(reader)
                if not readers:
                    del source_readers[source]

    def _retract_chains(self, txn: int) -> int:
        """Drop *txn*'s versions and read records from the chains it
        touched; returns the number of entries dropped.  A second call
        finds no index entry and costs nothing."""
        self._forget_reads(txn)
        entry = self._chain_index.pop(txn, None)
        if not entry:
            return 0
        chains = self._chains
        return sum(chains[item].retract(txn) for item in entry)

    def _abort(self, op: Operation, blocking: int) -> Decision:
        decision = super()._abort(op, blocking)
        if op.txn in self.partial_ok:
            # Partial rollback kept the chain entries but re-seeded the
            # vector they are ordered by; ``_successors`` only knows the
            # orders a ``Set`` call established, not the ones the counter
            # draws imply, so a validated prefix naming this transaction
            # (as reader or as version writer) may no longer hold.
            for chain in self.chains_of(op.txn):
                chain.reset_validated()
        return decision

    def _undo_indices(self, txn: int) -> None:
        """Aborting a transaction retracts its versions and recorded
        reads — a lingering aborted version would be served to future
        readers — and that is all: there is no ``RT``/``WT`` to restore.
        (Readers that already consumed an aborted version are the
        cascading-abort scenario: the executor tracks them as commit
        dependencies — see :meth:`commit_dependencies` — parking them at
        commit and cascade-restarting them here; ``write_policy=
        "deferred"`` rules the cascade out entirely, per VI-C 2.)"""
        self._retract_chains(txn)

    def touched_items(self, txn: int) -> Iterable[str]:
        """The items where *txn* holds a version or read record."""
        return self._chain_index.get(txn, ())

    def commit(self, txn: int) -> None:
        """A committed transaction has no commit dependencies left to
        wait on and is no cascade victim: it leaves the read indexes."""
        super().commit(txn)
        self._forget_reads(txn)

    def prune_aborted(self, txn: int) -> int:
        """Explicitly retract an aborted transaction's chain entries (the
        executor's restart/abort hook; idempotent with the automatic
        retraction in :meth:`_undo_indices`, and free after it)."""
        return self._retract_chains(txn)

    def cascade_restart(self, txn: int) -> None:
        """Roll back a transaction this scheduler never rejected (the
        executor's cascade: a version *txn* read was just retracted, or
        *txn* is the victim breaking a commit-dependency cycle).  Mirrors
        the reject path's bookkeeping — chain retraction via
        :meth:`_undo_indices`, then a vector flush so the fresh attempt
        starts clean — without marking *txn* aborted."""
        self._undo_indices(txn)
        self.table.vector(txn).flush()
        self._c_restarts.inc()
        if self.events.enabled:
            self.events.emit("cascade_restart", txn=txn)

    # ------------------------------------------------------------------
    # Garbage collection (III-D-6a/b extended to version chains)
    # ------------------------------------------------------------------
    def collect_chain_garbage(
        self, extra_active: Iterable[int] = (), grace: int = 0
    ) -> tuple[int, int]:
        """Reclaim chain versions and read records dead under the
        per-item watermark (the newest committed version with no
        non-committed transaction ordered strictly below it); see
        ``core/mvcc.py``.  Returns ``(versions_reclaimed,
        reads_reclaimed)``.

        *extra_active* widens the active set with transactions this
        table has not seen yet — the parallel plane's coordinator ships
        its global in-flight set, since a transaction that has drawn
        elements at another shard can be ordered below a local watermark
        candidate without having a local row."""
        # "Active" = could still issue an operation whose visibility walk
        # depends on its current vector: everything not committed, except
        # aborted transactions that were *not* anti-starvation-seeded —
        # their restart flushes the vector, so they re-enter as fresh
        # (all-undefined) readers that pin against the watermark instead
        # of walking past it.  Seeded aborts keep their re-seeded vector
        # and must keep blocking the watermark.
        active_set = {
            t
            for t in self.table.known_txns()
            if t != VIRTUAL_TXN
            and t not in self.committed
            and not (t in self.aborted and t not in self._seeded)
        }
        for t in extra_active:
            if t != VIRTUAL_TXN and t not in self.committed:
                active_set.add(t)
        active = sorted(active_set)

        def is_committed(txn: int) -> bool:
            return txn == VIRTUAL_TXN or txn in self.committed

        def settled(writer: int) -> bool:
            # A version can only be read *past* by a transaction ordered
            # strictly above its writer (the newest-first walk skips
            # GREATER writers); anything merely incomparable pins the
            # writer below itself and stops.  So the watermark needs no
            # active transaction strictly below it — not the (far
            # stronger, rarely attainable) "below every active".
            vec = self.table.vector(writer)
            for txn in active:
                if txn == writer:
                    continue
                ordering = self.table.compare_vectors(
                    vec, self.table.vector(txn)
                ).ordering
                if ordering is Ordering.GREATER:
                    return False
            return True

        def strictly_below(a: int, b: int) -> bool:
            return (
                self.table.compare_vectors(
                    self.table.vector(a), self.table.vector(b)
                ).ordering
                is Ordering.LESS
            )

        versions = reads = 0
        for chain in self._chains.values():
            got_versions, got_reads = chain.collect(
                is_committed, settled, strictly_below, grace=grace
            )
            versions += got_versions
            reads += got_reads
        self.chain_versions_reclaimed += versions
        self.read_records_reclaimed += reads
        return versions, reads

    def _reclaim_barrier(self) -> set[int]:
        """Rows the chains still reference must survive row reclamation
        — the only protection a multiversion row has, since ``RT``/``WT``
        and the access histories stay empty: reclaiming a chain writer's
        or reader's row would make later visibility walks compare against
        a recreated all-undefined vector."""
        barrier: set[int] = set()
        for chain in self._chains.values():
            barrier |= chain.referenced_txns()
        return barrier

    def reclaim_committed(self, include_aborted: bool = False) -> int:
        """Chain GC first (shrinking the reference barrier), then the
        base row reclamation — the III-D-6a/b hook, now also bounding the
        version chains by the active-transaction low-watermark."""
        self.collect_chain_garbage()
        reclaimed = super().reclaim_committed(include_aborted)
        if reclaimed:
            # A reclaimed row was outside the barrier — no chain names
            # the transaction any more, so its index entry is dead.
            known = set(self.table.known_txns())
            for txn in [t for t in self._chain_index if t not in known]:
                del self._chain_index[txn]
        return reclaimed

    # ------------------------------------------------------------------
    # Oracle surface
    # ------------------------------------------------------------------
    def reads_from(self) -> list[tuple[int, str, int]]:
        """The executed reads-from relation: (reader, item, version
        writer), with ``0`` standing for the initial version."""
        relation = []
        for item, chain in self._chains.items():
            for reader, source in chain.reads:
                relation.append((reader, item, source))
        return relation

    def version_chain(self, item: str) -> list[int]:
        """Writers of *item*'s versions, oldest first (T0 included)."""
        return self._chain(item).writers()

    def read_source(self, txn: int, item: str) -> int | None:
        """Which version (by writer id) the latest accepted read of *item*
        by *txn* saw — the hook the storage layer uses to serve the
        matching value from a shared chain.  ``None`` once the read was
        retracted (or before any was accepted)."""
        entry = self._chain_index.get(txn)
        return None if entry is None else entry.get(item)

    def chains(self) -> dict[str, VersionChain]:
        """Live chain objects (shared with a bound storage layer)."""
        return self._chains

    # ------------------------------------------------------------------
    # Recoverability surface (commit dependencies)
    # ------------------------------------------------------------------
    def commit_dependencies(self, txn: int) -> set[int]:
        """Uncommitted version writers *txn* has read from.

        Reads are abort-free by construction, which means a read can
        consume an *uncommitted* version — committing such a reader
        before its source commits is a dirty read the serial replay
        cannot reproduce (the source may still abort).  The executor
        therefore parks a finished transaction until this set drains:
        sources commit (park released) or roll back (reader cascades).

        Answered from *txn*'s own read index, in O(its reads)."""
        committed = self.committed
        return {
            source
            for source in self._read_sources.get(txn, ())
            if source not in committed
        }

    def readers_of(self, txn: int) -> set[int]:
        """Transactions holding a read record sourced from *txn*'s
        versions.  When *txn* rolls back, these readers consumed a
        version that no longer exists: the executor cascade-restarts the
        uncommitted ones (committed ones cannot exist — they were gated
        on *txn* committing first).

        Answered from *txn*'s reader index, in O(its readers): the
        uncommitted ones, the only ones a cascade can act on."""
        return set(self._source_readers.get(txn, ()))

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        self.metrics.set_gauge("mv_read_aborts", self.mv_read_aborts)
        self.metrics.set_gauge("mv_horizon_aborts", self.mv_horizon_aborts)
        self.metrics.set_gauge(
            "chain_versions_reclaimed", self.chain_versions_reclaimed
        )
        self.metrics.set_gauge(
            "read_records_reclaimed", self.read_records_reclaimed
        )
        self.metrics.set_gauge(
            "max_chain_length",
            max((len(c) for c in self._chains.values()), default=1),
        )
        return super().metrics_snapshot()


class MVMTkScheduler(MultiversionMixin, MTkScheduler):
    """Multiversion MT(k): vector-timestamped versions, abort-free reads.

    Accepts the full MT(k) constructor surface (site-tagged counters,
    encoding policies, anti-starvation) so the parallel shard plane can
    host it like any other engine; ``read_rule`` is forced to ``"none"``
    — the multiversion read path replaces the lines 9-10 fallback
    wholesale.
    """

    def __init__(self, k: int, trace: bool = False, **kwargs: Any) -> None:
        kwargs["read_rule"] = "none"
        super().__init__(k, trace=trace, **kwargs)
        self.name = f"MVMT({k})"


class MVDMTkScheduler(MultiversionMixin, DMTkScheduler):
    """Decentralized multiversion MT(k): DMT(k)'s sites and message
    accounting, but visibility is decided against the item's local chain
    — so an operation locks only the item record and the issuing
    transaction's vector.  The remote reader/writer vectors the
    single-version protocol must fetch-and-lock are not needed: there is
    no cross-shard critical section on visibility, which is the entire
    point of decentralizing MVCC.
    """

    def __init__(self, k: int, **kwargs: Any) -> None:
        kwargs["read_rule"] = "none"
        num_sites = kwargs.get("num_sites", 3)
        super().__init__(k, **kwargs)
        self.name = f"MVDMT({k})x{num_sites}"

    def _objects_for(self, op: Operation) -> list[ObjectId]:
        """Decentralized visibility needs only the item's chain (home of
        the item) and the issuing transaction's vector; pins on other
        vectors are encoded through the item's home site without locking
        the remote rows first (they are applied, not negotiated)."""
        objects: set[ObjectId] = {
            ("item", op.item),
            ("vec", op.txn),
        }
        return sorted(objects, key=lambda o: (o[0], str(o[1])))
