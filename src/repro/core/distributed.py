"""The decentralized protocol DMT(k) (Section V-B).

Each site runs the MT(k) machinery; a transaction's timestamp vector lives
at a single *home* site, and every data item's ``RT``/``WT`` record lives at
the item's home site.  Scheduling an operation therefore touches up to four
distributed objects — the item record, the most recent reader's vector, the
most recent writer's vector, and the issuing transaction's vector — which
the local scheduler must lock, fetch, update, and release.

The simulation reproduces the section's three mechanisms:

1. **Globally unique k-th elements** — each site draws the k-th column from
   its own :class:`~repro.core.timestamp.SiteTaggedCounters`, producing
   ``(counter, site)`` pairs: the counter is the high-order part (fair) and
   the site number the low-order tie-break, exactly the paper's
   "concatenate the k-th element with the site number".  One refinement is
   required for unconditional correctness: before encoding "greater/less
   than an observed remote element" the local counter *joins* past that
   element (:meth:`SiteTaggedCounters.ensure_above`), the Lamport-clock
   behaviour the paper's real-clock suggestion approximates.  Periodic
   counter synchronization (``sync_interval``) reproduces the fairness
   mechanism of V-B 1b.
2. **Ordered locking on timestamp vectors** — the objects an operation
   needs are locked in a predefined linear order (sorted object ids), so no
   deadlock can form; at most four objects are ever held at once.
3. **Message accounting** — remote lock+fetch costs a request/grant pair,
   remote updates a combined writeback+unlock, remote clean objects a bare
   unlock; local objects are free.  The ``retain_locks`` optimization skips
   re-locking objects the site locked for its immediately preceding
   operation (the end-of-section optimization).

As a :class:`~repro.core.protocol.Scheduler`, DMT(k) answers the same
accept/reject questions as MT(k): with a single site its decisions are
bit-identical to MT(k)'s (a property test asserts this); with several
sites the accepted class can differ slightly in the k-th column order but
remains sound (every accepted log is DSR).
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..distributed.network import MsgKind, Network
from ..model.operations import Operation, stable_hash
from ..storage.locks import LockManager, LockMode, LockOutcome
from .mtk import MTkScheduler
from .protocol import Decision
from .table import NormalEncoding, TimestampTable, VIRTUAL_TXN
from .timestamp import (
    Counters,
    Element,
    SiteTaggedCounters,
    TimestampVector,
    UNDEFINED,
)

#: A lockable distributed object: ("item", x) or ("vec", txn).
ObjectId = tuple[str, object]


class _JoiningEncoding(NormalEncoding):
    """Normal encoding whose k-th-column counter joins past the observed
    counterpart element before drawing a fresh value (see module docs)."""

    def encode_semi(
        self,
        ts_j: TimestampVector,
        ts_i: TimestampVector,
        position: int,
        counters: Counters,
        item: str | None,
    ) -> None:
        if position == ts_i.k and isinstance(counters, SiteTaggedCounters):
            if ts_i.get(position) is UNDEFINED:
                counters.ensure_above(ts_j.get(position))
            else:
                counters.ensure_below(ts_i.get(position))
        super().encode_semi(ts_j, ts_i, position, counters, item)


class DMTkScheduler(MTkScheduler):
    """DMT(k): MT(k) with per-site counters, vector locks, and messages."""

    def __init__(
        self,
        k: int,
        num_sites: int = 3,
        latency: int = 1,
        site_of_txn: Callable[[int], int] | None = None,
        site_of_item: Callable[[str], int] | None = None,
        sync_interval: int | None = None,
        retain_locks: bool = False,
        clock_driven: bool = False,
        clock_skews: list[int] | None = None,
        read_rule: str = "line9",
        trace: bool = False,
        anti_starvation: bool = False,
    ) -> None:
        if num_sites < 1:
            raise ValueError("need at least one site")
        self.num_sites = num_sites
        self.latency = latency
        self.sync_interval = sync_interval
        self.retain_locks = retain_locks
        #: V-B 1b: "it is profitable that we let ucount equal the current
        #: value of a local real clock, and lcount be the negated value" —
        #: then one initial synchronization suffices.  ``clock_skews``
        #: gives each site's clock offset (defaults to zero = synchronized
        #: once, as the paper assumes).
        self.clock_driven = clock_driven
        self._clock_skews = clock_skews or [0] * num_sites
        if len(self._clock_skews) != num_sites:
            raise ValueError("need one clock skew per site")
        self._site_of_txn = site_of_txn or (lambda txn: txn % num_sites)
        self._site_of_item = site_of_item or (
            lambda item: stable_hash(item) % num_sites
        )
        super().__init__(
            k,
            read_rule=read_rule,
            trace=trace,
            anti_starvation=anti_starvation,
        )
        self.name = f"DMT({k})x{num_sites}"

    # ------------------------------------------------------------------
    def reset(self) -> None:
        super().reset()
        self.network = Network(self.num_sites, getattr(self, "latency", 1))
        self.site_counters = [
            SiteTaggedCounters(site) for site in range(self.num_sites)
        ]
        if getattr(self, "clock_driven", False):
            from ..distributed.clocks import SimClock

            self.site_clocks = [
                SimClock(skew=skew) for skew in self._clock_skews
            ]
        else:
            self.site_clocks = []
        self.locks = LockManager()
        self._ops_processed = 0
        #: per site: retained locks and whether the object is dirty (its
        #: value changed since the lock was taken and awaits write-back).
        self._retained: dict[int, dict[ObjectId, bool]] = {}
        self.max_locks_held = 0
        # The logical table is shared (the simulation is the bookkeeper of
        # *where* each row lives); swap in the joining encoding.
        self.table.encoding = _JoiningEncoding()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def site_of_txn(self, txn: int) -> int:
        return 0 if txn == VIRTUAL_TXN else self._site_of_txn(txn)

    def site_of_item(self, item: str) -> int:
        return self._site_of_item(item)

    def home_of(self, obj: ObjectId) -> int:
        kind, ident = obj
        if kind == "item":
            return self.site_of_item(ident)  # type: ignore[arg-type]
        return self.site_of_txn(ident)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Scheduling with distribution bookkeeping
    # ------------------------------------------------------------------
    def process(self, op: Operation) -> Decision:
        site = self.site_of_txn(op.txn)
        objects = self._objects_for(op)
        retained = self._retained.setdefault(site, {})

        # With lock retention, first shed locks this op no longer needs
        # (writing back any deferred updates).
        if self.retain_locks:
            for obj in [o for o in retained if o not in objects]:
                self._release(site, obj, retained.pop(obj))

        # Phase 1: lock + fetch, in the predefined linear order.
        for obj in objects:  # objects are pre-sorted
            if obj in retained:
                continue
            self._acquire(site, obj)
        held_now = len(set(retained) | set(objects))
        self.max_locks_held = max(self.max_locks_held, held_now)

        # Phase 2: decide locally with the issuing site's counters.  The
        # rows are held by object: a committed one the operation stops
        # referencing leaves the table during the decision.
        rows = {
            obj: self.table.vector(obj[1])
            for obj in objects
            if obj[0] == "vec"
        }
        before = {obj: row.snapshot() for obj, row in rows.items()}
        if self.site_clocks:
            # V-B 1b: counters track the local real clock; the Lamport
            # join in the encoding still guards against residual skew.
            for clock in self.site_clocks:
                clock.advance(1)
            now = self.site_clocks[site].now()
            self.site_counters[site].synchronize(lcount=-now, ucount=now)
        self.table.counters = self.site_counters[site]
        decision = super().process(op)

        # Phase 3: write back / release (or retain with a dirty flag).
        for obj in objects:
            dirty = retained.get(obj, False) or (
                obj[0] == "item" or rows[obj].snapshot() != before[obj]
            )
            if self.retain_locks:
                retained[obj] = dirty
            else:
                self._release(site, obj, dirty)

        # Periodic counter synchronization (fairness, V-B 1b).
        self._ops_processed += 1
        if self.sync_interval and self._ops_processed % self.sync_interval == 0:
            self.synchronize_counters()
        return decision

    def _acquire(self, site: int, obj: ObjectId) -> None:
        """Lock *obj* for *site*, evicting another site's retained lock (it
        gives the lock up on demand, flushing its deferred write-back)."""
        outcome = self.locks.acquire(
            obj, owner=("site", site), mode=LockMode.EXCLUSIVE
        )
        if outcome is LockOutcome.WAIT:
            for holder in list(self.locks.holders(obj)):
                _, other_site = holder
                other_retained = self._retained.get(other_site, {})
                if obj in other_retained:
                    self._release(other_site, obj, other_retained.pop(obj))
        home = self.home_of(obj)
        if home != site:
            self.network.send(site, home, MsgKind.LOCK_REQUEST, obj)
            self.network.send(home, site, MsgKind.LOCK_GRANT, obj)

    def _release(self, site: int, obj: ObjectId, dirty: bool) -> None:
        home = self.home_of(obj)
        if home != site:
            kind = MsgKind.WRITEBACK if dirty else MsgKind.UNLOCK
            self.network.send(site, home, kind, obj)
        self.locks.release(obj, owner=("site", site))

    def _objects_for(self, op: Operation) -> list[ObjectId]:
        """The distributed objects one operation touches, pre-sorted in the
        global lock order (kind, then identifier)."""
        x = op.item
        objects: set[ObjectId] = {
            ("item", x),
            ("vec", self.table.rt(x)),
            ("vec", self.table.wt(x)),
            ("vec", op.txn),
        }
        objects.update(
            ("vec", reader) for reader in self.pending_readers.get(x, ())
        )
        return sorted(objects, key=lambda o: (o[0], str(o[1])))

    def synchronize_counters(self) -> None:
        """Broadcast and adopt fleet-wide counter bounds (V-B 1b)."""
        ucount = max(c.ucount for c in self.site_counters)
        lcount = min(c.lcount for c in self.site_counters)
        for site, counters in enumerate(self.site_counters):
            counters.synchronize(lcount, ucount)
        self.network.broadcast(0, MsgKind.COUNTER_SYNC, (lcount, ucount))

    # ------------------------------------------------------------------
    @property
    def messages_per_op(self) -> float:
        if self._ops_processed == 0:
            return 0.0
        return self.network.messages_sent / self._ops_processed
