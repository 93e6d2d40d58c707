"""The protocol MT(k) — Algorithm 1 of Section III-A.

Scheduling one operation ``O`` of transaction ``T_i`` on item ``x``:

1. Pick ``j``: whichever of ``RT(x)`` / ``WT(x)`` holds the larger timestamp
   vector (lines 5-6).
2. **Read**: try ``Set(j, i)``.  On success record ``RT(x) := i`` and accept.
   On failure (``TS(j) > TS(i)``), the read may still be safe when the larger
   vector belongs to a *reader* — reads do not conflict — provided the most
   recent *writer* precedes ``T_i`` (lines 9-10).  Otherwise abort ``T_i``.
3. **Write**: try ``Set(j, i)``.  On success record ``WT(x) := i`` and
   accept; on failure abort (lines 12-14), unless the Thomas write rule is
   enabled and ``TS(RT(x)) < TS(i) < TS(WT(x))``, in which case the write is
   *ignored* (implementation note III-D-6c).

Options reproduce the paper's variants:

* ``read_rule`` — how the lines 9-10 read fallback behaves: ``"line9"``
  (Algorithm 1 as written: accept when ``TS(WT(x)) < TS(i)``), ``"relaxed"``
  (the note after Theorem 3: use ``Set(WT(x), i)`` instead, allowing higher
  concurrency at the price of invalidating Observations ii-iv), or
  ``"none"`` (lines 9-10 crossed out, the simplification Theorem 5's proof
  assumes — the composite MT(k*) runs its subprotocols this way).
* ``thomas_write_rule`` — ignore obsolete writes instead of aborting.
* ``anti_starvation`` — the Section III-D-4 remedy: just before aborting
  ``T_i`` because ``TS(i) < TS(j)``, flush ``TS(i)`` and seed
  ``TS(i, 1) := TS(j, 1) + 1`` so the restarted ``T_i`` is ordered after
  ``T_j`` and cannot starve against it again.
* ``encoding`` — plug in :class:`~repro.core.table.OptimizedEncoding` for
  the hot-item rules of Section III-D-5.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, Mapping

from ..model.operations import Operation, OpKind
from ..obs.instrument import Instrumented
from .protocol import Decision, DecisionStatus, Scheduler
from .table import EncodingPolicy, TimestampTable, VIRTUAL_TXN
from .timestamp import Counters, Ordering, TimestampVector, UNDEFINED, compare


class MTkScheduler(Instrumented, Scheduler):
    """The multidimensional timestamp scheduler MT(k)."""

    #: Valid values for ``read_rule``.
    READ_RULES = ("line9", "relaxed", "none")

    def __init__(
        self,
        k: int,
        read_rule: str = "line9",
        thomas_write_rule: bool = False,
        anti_starvation: bool = False,
        partial_rollback: bool = False,
        encoding: EncodingPolicy | None = None,
        counters: Counters | None = None,
        trace: bool = False,
    ) -> None:
        if k < 1:
            raise ValueError("vector size k must be at least 1")
        if read_rule not in self.READ_RULES:
            raise ValueError(f"read_rule must be one of {self.READ_RULES}")
        self.k = k
        self.read_rule = read_rule
        self.thomas_write_rule = thomas_write_rule
        self.anti_starvation = anti_starvation
        self.partial_rollback = partial_rollback
        self._encoding = encoding
        # Rebuild counters from their *initial* state on later resets.  A
        # bare ``type(counters)()`` would drop constructor arguments (a
        # DMT(k)-style SiteTaggedCounters needs its site), so keep a
        # pristine copy inside a zero-argument factory closure instead.
        if counters is not None:
            pristine = copy.copy(counters)
            self._counters_factory = lambda: copy.copy(pristine)
        else:
            self._counters_factory = Counters
        self._initial_counters = counters
        self.trace = trace
        self.name = f"MT({k})"
        self._first_reset = True
        self.init_observability(
            self.name, counters=("set_calls", "encodings", "restarts")
        )
        # Pre-bound Counter objects for the per-operation hot path (the
        # registry zeroes counters in place on reset, so these stay live).
        self._c_set_calls = self.metrics.counter("set_calls")
        self._c_encodings = self.metrics.counter("encodings")
        self._c_restarts = self.metrics.counter("restarts")
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        counters: Counters | None
        if self._first_reset and self._initial_counters is not None:
            counters = self._initial_counters
        else:
            counters = (
                self._counters_factory()
                if self._initial_counters is not None
                else None
            )
        self._first_reset = False
        self.table = TimestampTable(
            self.k, counters=counters, encoding=self._encoding
        )
        self.aborted: set[int] = set()
        self.committed: set[int] = set()
        #: access histories: every accepted reader / writer of each item,
        #: in acceptance order, cut at the settled prefix (:meth:`_cut`);
        #: each entry of a committed transaction counts on its row.
        self._readers: dict[str, list[int]] = {}
        self._writers: dict[str, list[int]] = {}
        #: items each *uncommitted* transaction's accesses indexed (what an
        #: abort must undo); popped at commit.
        self._touched: dict[int, set[str]] = {}
        #: readers of each item a write must still be ordered after besides
        #: ``RT(x)``: the ones an abort-time restore left unordered with (or
        #: above) the restored ``RT(x)`` — see :meth:`_restore_rt`.  Empty
        #: unless an abort left several unordered readers behind; read-only
        #: outside the scheduler.
        self.pending_readers: dict[str, list[int]] = {}
        #: transactions ordered *after* each uncommitted transaction
        #: (Set(j, i) hit) — kept under ``partial_rollback`` only, whose
        #: Section VI-C 1 check in :meth:`_abort` is its one reader.
        self._successors: dict[int, set[int]] = {}
        #: aborted transactions whose state was preserved for a partial
        #: rollback (effects kept, vector re-seeded) — see Section VI-C 1.
        self.partial_ok: set[int] = set()
        self._seeded: set[int] = set()
        self.reset_observability()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _process(self, op: Operation) -> Decision:
        if op.txn == VIRTUAL_TXN:
            raise ValueError("transaction id 0 is reserved for the virtual T0")
        if op.txn in self.aborted:
            raise ValueError(
                f"T{op.txn} is aborted; call restart() before reissuing"
            )
        if op.kind is OpKind.READ:
            return self._process_read(op)
        return self._process_write(op)

    def _process_read(self, op: Operation) -> Decision:
        i, x = op.txn, op.item
        j, outcome = self._order_after_latest(i, x)
        if outcome.ok:
            self.table.set_rt(x, i)
            self._record_access(op)
            return Decision(DecisionStatus.ACCEPT, op)
        # TS(j) > TS(i): the read may still be safe if the larger vector is a
        # reader's and the most recent writer precedes T_i (lines 9-10).
        if self.read_rule != "none" and j == self.table.rt(x):
            wt = self.table.wt(x)
            if wt == i:
                # The most recent writer is the reader itself: T_i reads its
                # own write, which conflicts with nobody.  Comparing
                # TS(WT(x)) with TS(i) would yield IDENTICAL, not LESS, so
                # without this case the safe read is wrongly rejected.
                self._record_access(op)
                return Decision(DecisionStatus.ACCEPT, op, "read-own-write")
            if self.read_rule == "relaxed":
                if self._set_less(wt, i, x).ok:
                    self._record_access(op)
                    return Decision(
                        DecisionStatus.ACCEPT, op, "read-below-latest-reader"
                    )
            else:
                ts_wt = self.table.vector(wt)
                ts_i = self.table.vector(i)
                if self.table.compare_vectors(ts_wt, ts_i).ordering is Ordering.LESS:
                    self._record_access(op)
                    return Decision(
                        DecisionStatus.ACCEPT, op, "read-below-latest-reader"
                    )
        return self._abort(op, blocking=j)

    def _process_write(self, op: Operation) -> Decision:
        i, x = op.txn, op.item
        j, outcome = self._order_after_latest(i, x)
        if outcome.ok:
            extra = self.pending_readers.get(x)
            if extra is not None:
                # RT(x) alone no longer bounds the item's readers (an
                # abort restored one of several unordered ones): the
                # write must follow every one of them.
                for reader in extra:
                    if not self._set_less(reader, i, x).ok:
                        return self._abort(op, blocking=reader)
                del self.pending_readers[x]
                for reader in extra:
                    self.table.release(reader)
            self.table.set_wt(x, i)
            self._record_access(op)
            return Decision(DecisionStatus.ACCEPT, op)
        if self.thomas_write_rule:
            # TS(RT(x)) < TS(i) < TS(WT(x)): nobody will ever read this
            # write — drop it instead of aborting (III-D-6c).  The pending
            # readers bound x's readers beside RT(x), so the write must be
            # above each of them too.
            table = self.table
            ts_i = table.vector(i)
            below_writer = (
                table.compare_vectors(ts_i, table.vector(table.wt(x))).ordering
                is Ordering.LESS
            )
            above_reader = all(
                table.compare_vectors(table.vector(reader), ts_i).ordering
                is Ordering.LESS
                for reader in (table.rt(x), *self.pending_readers.get(x, ()))
            )
            if below_writer and above_reader:
                return Decision(
                    DecisionStatus.IGNORE, op, "thomas-write-rule"
                )
        return self._abort(op, blocking=j)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _order_after_latest(self, i: int, item: str):
        """Fused lines 5-6 + ``Set(j, i)`` with the same accounting as
        :meth:`_set_less`; returns ``(j, outcome)``."""
        self._c_set_calls.inc()
        j, outcome = self.table.order_after_latest(item, i)
        if outcome.encoded:
            self._c_encodings.inc()
            if self.events.enabled:
                self.events.emit(
                    "encode",
                    txn=i,
                    item=item,
                    predecessor=j,
                    case=outcome.comparison.ordering.value,
                    position=outcome.comparison.position,
                )
        if (
            self.partial_rollback
            and outcome.ok
            and j != i
            and j not in self.committed
        ):
            successors = self._successors.get(j)
            if successors is None:
                self._successors[j] = {i}
            else:
                successors.add(i)
        return j, outcome

    def _set_less(self, j: int, i: int, item: str):
        self._c_set_calls.inc()
        outcome = self.table.set_less(j, i, item)
        if outcome.encoded:
            self._c_encodings.inc()
            if self.events.enabled:
                self.events.emit(
                    "encode",
                    txn=i,
                    item=item,
                    predecessor=j,
                    case=outcome.comparison.ordering.value,
                    position=outcome.comparison.position,
                )
        if (
            self.partial_rollback
            and outcome.ok
            and j != i
            and j not in self.committed
        ):
            successors = self._successors.get(j)
            if successors is None:
                self._successors[j] = {i}
            else:
                successors.add(i)
        return outcome

    def _record_access(self, op: Operation) -> None:
        # dict.get + explicit insert instead of setdefault: setdefault
        # allocates a fresh empty container on every call just to discard
        # it, and this runs once per accepted operation.
        history = (
            self._readers if op.kind is OpKind.READ else self._writers
        )
        entries = history.get(op.item)
        if entries is None:
            history[op.item] = [op.txn]
        else:
            entries.append(op.txn)
        touched = self._touched.get(op.txn)
        if touched is None:
            self._touched[op.txn] = {op.item}
        else:
            touched.add(op.item)

    def _abort(self, op: Operation, blocking: int) -> Decision:
        i = op.txn
        # Section VI-C 1: when nobody has been ordered after T_i yet, its
        # accepted effects can be preserved — re-seed the vector past the
        # blocker and let the executor resume from the failed operation.
        preserve = self.partial_rollback and not self._successors.get(i)
        if preserve or self.anti_starvation:
            self._reseed(i, blocking)
        self.aborted.add(i)
        if preserve:
            self.partial_ok.add(i)
            self._pend_preserved_reads(i)
        else:
            self._undo_indices(i)
        if self.events.enabled:
            self.events.emit(
                "abort",
                txn=i,
                item=op.item,
                blocking=blocking,
                partial=preserve,
                reseeded=i in self._seeded,
            )
        return Decision(
            DecisionStatus.REJECT,
            op,
            f"TS({blocking}) > TS({i})",
        )

    def _pend_preserved_reads(self, i: int) -> None:
        """Keep a preserved transaction's reads bounding their items.

        The re-seed moves ``TS(i)`` past the blocker, so a read of ``x``
        that ``RT(x)`` no longer names may now sit above ``RT(x)``, and
        a later write ordered after ``RT(x)`` alone could slip below
        ``T_i``: the next write of ``x`` must follow ``T_i`` too."""
        readers = self._readers
        table = self.table
        pending = self.pending_readers
        for item in self._touched.get(i, ()):
            if table.rt(item) == i or i not in readers.get(item, ()):
                continue
            extra = pending.get(item)
            if extra is None:
                pending[item] = [i]
            elif i in extra:
                continue
            else:
                extra.append(i)
            table.hold(i)

    def _reseed(self, i: int, blocking: int) -> None:
        """Flush ``TS(i)`` and seed element 1 past the blocker's (the
        starvation remedy of III-D-4, reused by partial rollback)."""
        ts_i = self.table.vector(i)
        seed = self.table.vector(blocking).get(1)
        ts_i.flush()
        if seed is not UNDEFINED and isinstance(seed, int):
            ts_i.set(1, seed + 1)
        self._seeded.add(i)

    def _undo_indices(self, txn: int) -> None:
        """Re-point ``RT``/``WT`` away from an aborted transaction.

        For every item the transaction touched, the new most-recent
        reader/writer is the surviving accessor with the *largest* vector
        (matching the paper's definition of the most recent read/write
        timestamp).  The scan that finds it first drops the history's
        settled prefix (:meth:`_cut`), so a restore costs the live tail
        of the history, not the run so far.
        """
        touched = self._touched.pop(txn, None)
        if not touched:
            return
        table = self.table
        pending = self.pending_readers
        for item in touched:
            readers = self._readers.get(item)
            if readers and txn in readers:
                readers[:] = [t for t in readers if t != txn]
            writers = self._writers.get(item)
            if writers and txn in writers:
                writers[:] = [t for t in writers if t != txn]
            extra = pending.get(item) if pending else None
            if extra and txn in extra:
                extra.remove(txn)
                if not extra:
                    del pending[item]
            if table.rt(item) == txn:
                self._restore_rt(item, readers or [])
            if table.wt(item) == txn:
                table.set_wt(item, self._maximal(writers or []))

    def _restore_rt(self, item: str, readers: list[int]) -> None:
        """Re-point ``RT(x)`` at a maximal surviving reader, and keep the
        readers that are not strictly below it in ``pending_readers[x]``.

        Algorithm 1 keeps one most recent reader and orders a write after
        it alone; that is enough while every accepted reader is below
        ``RT(x)``.  A read accepted by the lines 9-10 fallback never
        becomes ``RT(x)``, so once the holder aborts, the survivors can
        be mutually unordered and no single one of them bounds the rest.
        The next write of *item* is ordered after each of them
        (:meth:`_process_write`); abort-free runs never get here.
        """
        table = self.table
        best = self._maximal(readers)
        table.set_rt(item, best)
        for reader in self.pending_readers.pop(item, ()):
            table.release(reader)
        if len(readers) < 2:
            return  # no reader survives besides the best
        vector = table.vector
        compare_vectors = table.compare_vectors
        best_vector = vector(best)
        extra = [
            reader
            for reader in dict.fromkeys(readers)
            if reader != best
            and compare_vectors(vector(reader), best_vector).ordering
            is not Ordering.LESS
        ]
        if extra:
            self.pending_readers[item] = extra
            for reader in extra:
                table.hold(reader)

    def _maximal(self, history: list[int]) -> int:
        """The entry holding a maximal vector (``T_0`` if none), found by
        a left-to-right scan that replaces ``best`` only on ``LESS`` —
        after :meth:`_cut` collapsed *history*'s settled prefix, in
        place, to the best the scan would have reached at its end."""
        self._cut(history)
        if not history:
            return VIRTUAL_TXN
        table = self.table
        best = history[0]
        best_vector = table.vector(best)
        for index in range(1, len(history)):
            txn = history[index]
            if txn == best:
                continue
            txn_vector = table.vector(txn)
            ordering = table.compare_vectors(best_vector, txn_vector).ordering
            if ordering is Ordering.LESS:
                best, best_vector = txn, txn_vector
        return best

    def _cut(self, history: list[int]) -> None:
        """Collapse *history*'s settled prefix to its best entry, in
        place (III-D-6b); the entries cut no longer count on their rows.

        The settled prefix is the longest head in which every entry is
        committed and strictly ordered against the best before it (a
        repeat of the best counts as below it).  Those verdicts read only
        elements defined in both vectors, elements are write-once until a
        flush, only aborted or restarted rows are flushed and a committed
        entry is never retracted — so every later left-to-right scan
        reaches the end of the prefix with the same best, and the other
        entries in it are strictly below that best for good.  An
        unordered verdict (``EQUAL``/``SEMI``) or an uncommitted entry
        can still change, so either ends the prefix.  A scheduler that
        never hears :meth:`commit` cuts nothing.
        """
        committed = self.committed
        if not history or history[0] not in committed:
            return
        table = self.table
        while len(history) > 1 and history[1] in committed:
            best, txn = history[0], history[1]
            if txn != best:
                ordering = table.compare_vectors(
                    table.vector(best), table.vector(txn)
                ).ordering
                if ordering is Ordering.LESS:
                    del history[0]
                    table.release(best)
                    continue
                if ordering is not Ordering.GREATER:
                    return
            del history[1]
            table.release(txn)

    # ------------------------------------------------------------------
    # Lifecycle used by the executor
    # ------------------------------------------------------------------
    def restart(self, txn: int) -> None:
        """Allow an aborted transaction to retry (same identifier).

        With ``anti_starvation`` the vector was already re-seeded at abort
        time; otherwise it is flushed so the transaction starts fresh.
        """
        if txn not in self.aborted:
            raise ValueError(f"T{txn} is not aborted")
        self.aborted.discard(txn)
        self.partial_ok.discard(txn)
        if txn in self._seeded:
            self._seeded.discard(txn)
        else:
            self.table.vector(txn).flush()
        self._c_restarts.inc()
        if self.events.enabled:
            self.events.emit("restart", txn=txn)

    def commit(self, txn: int) -> None:
        """Mark a transaction finished and let go of what only its
        uncommitted self needed (III-D-6b): its touched-item set and
        successor set, the history entries its commit settles (the
        restore scan's own cut, :meth:`_cut`, over the items it touched),
        and — once no ``RT``/``WT`` slot, history entry or
        pending reader names it — its row.  Those references can only
        be in the items it touched, so they are counted here, once, and
        counted down from here on (``TimestampTable.retire``).  A
        transaction that indexed nothing (every MVMT(k) transaction: its
        rows are chain-referenced and stay under
        :meth:`reclaim_committed`) keeps its row."""
        committed = self.committed
        committed.add(txn)
        touched = self._touched.pop(txn, None)
        if self.partial_rollback:
            self._successors.pop(txn, None)
        if not touched:
            return
        readers, writers = self._readers, self._writers
        pending = self.pending_readers
        cut = self._cut
        # What still names the row once the cut is done: its history and
        # pending-reader entries here, its RT/WT slots in table.retire.
        refs = 0
        for item in touched:
            history = readers.get(item)
            if history:
                cut(history)
                refs += history.count(txn)
            history = writers.get(item)
            if history:
                cut(history)
                refs += history.count(txn)
            if item in pending:
                refs += pending[item].count(txn)
        self.table.retire(txn, refs, touched)

    def touched_items(self, txn: int) -> Iterable[str]:
        """The items whose per-item index entries uncommitted *txn*'s
        accesses moved (and an abort of *txn* would move again)."""
        return self._touched.get(txn, ())

    def forget_remote(self, txn: int) -> list[str]:
        """Roll back *txn*'s index entries and flush its row — the
        replica side of a reject another shard issued; returns the items
        whose index entries moved."""
        items = list(self.touched_items(txn))
        self._undo_indices(txn)
        self.table.vector(txn).flush()
        return items

    def reclaim_committed(self, include_aborted: bool = False) -> int:
        """Implementation note III-D-6b as an explicit sweep: free the
        timestamp-table rows of committed transactions nothing references
        any more.  Returns the number of rows freed during the call.

        Under MT(k) :meth:`commit` already frees such rows as their last
        reference goes, so the sweep finds only what the count never
        covered — rows of transactions that indexed nothing, and every
        MVMT(k) row (kept while a version chain names it,
        :meth:`_reclaim_barrier`) — plus what cutting every history
        (:meth:`_prune_histories`) releases: entries whose order settled
        after the commits that cut their items.  ``include_aborted`` also
        frees rows of aborted transactions the caller has abandoned (will
        never :meth:`restart`); their seeded anti-starvation vectors are
        lost with the row.  One pass over the live rows: O(rows + items).
        """
        table = self.table
        freed_before = table.rows_freed
        self._prune_histories()
        barrier = self._reclaim_barrier()
        committed, aborted = self.committed, self.aborted
        for txn in table.known_txns():
            if (
                txn == VIRTUAL_TXN
                or not (
                    txn in committed or (include_aborted and txn in aborted)
                )
                # A committed row's RT/WT slots, history entries and
                # pending readers are counted; an aborted transaction
                # keeps any only when it was preserved for a partial
                # rollback (otherwise its abort undid them).
                or table.is_held(txn)
                or txn in self.partial_ok
                or txn in barrier
            ):
                continue
            table.drop(txn)
            self._successors.pop(txn, None)
            self.aborted.discard(txn)
            self._seeded.discard(txn)
        return table.rows_freed - freed_before

    def _reclaim_barrier(self) -> set[int]:
        """Rows a protocol subclass still references outside the
        ``RT``/``WT`` indices and access histories (MVMT(k)'s version
        chains); :meth:`reclaim_committed` must not free them — the next
        :meth:`TimestampTable.vector` call would silently recreate an
        all-undefined row and corrupt later comparisons."""
        return set()

    def _prune_histories(self) -> None:
        """Cut every access history at its last settled accessor — the
        restore scan's own rule (:meth:`_cut`), so reclaiming at any
        cadence leaves every later decision as it would have been."""
        for history in (*self._readers.values(), *self._writers.values()):
            self._cut(history)

    @property
    def table_size(self) -> int:
        """Live timestamp-table rows (excluding the permanent T0 row)."""
        return len(self.table.known_txns()) - 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """Registry dump with the derived gauges refreshed first."""
        self.metrics.set_gauge("table_size", self.table_size)
        self.metrics.set_gauge("element_visits", self.table.element_visits)
        return super().metrics_snapshot()

    def table_snapshot(self) -> Mapping[int, tuple[Any, ...]] | None:
        if not self.trace:
            return None
        return self.table.snapshot()

    def serialization_order(self) -> list[int]:
        """A serial order consistent with the timestamp vectors.

        Builds the partial order given by pairwise Definition 6 comparisons
        of all known vectors and topologically sorts it (the paper's
        "topological sort of the corresponding timestamp vectors").
        """
        from ..model.dependency import DependencyGraph

        txns = [
            t
            for t in self.table.known_txns()
            if t != VIRTUAL_TXN and t not in self.aborted
        ]
        graph = DependencyGraph(txns)
        for a_pos, a in enumerate(txns):
            for b in txns[a_pos + 1 :]:
                ordering = compare(
                    self.table.vector(a), self.table.vector(b)
                ).ordering
                if ordering is Ordering.LESS:
                    graph.add_edge(a, b)
                elif ordering is Ordering.GREATER:
                    graph.add_edge(b, a)
        order = graph.topological_order()
        if order is None:  # pragma: no cover - Lemmas 1-2 forbid this
            raise RuntimeError("timestamp vectors form a cycle")
        return order
