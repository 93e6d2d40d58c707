"""The timestamp table of Fig. 2 and the ``Set`` procedure of Algorithm 1.

The table keeps, per transaction, its timestamp vector, and per data item the
indices ``RT(x)`` / ``WT(x)`` of the most recent reader/writer.  Transaction
``0`` is the paper's virtual transaction ``T_0`` that "reads and writes every
item before any other transaction": it owns the constant vector
``<0, *, ..., *>`` and is the initial value of every ``RT(x)`` and ``WT(x)``.

``Set(j, i)`` — the heart of the protocol — compares ``TS(j)`` and ``TS(i)``
per Definition 6 and, when they are not yet ordered, *encodes* the dependency
``T_j -> T_i`` by assigning one element in each (or either) vector so that
``TS(j) < TS(i)``.  How the assignment is made at positions ``m < k`` is a
policy: :class:`NormalEncoding` follows Algorithm 1 verbatim;
:class:`OptimizedEncoding` implements the hot-item variant of Section
III-D-5 that pushes the encoding toward the right end of the vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .timestamp import (
    Comparison,
    Counters,
    Element,
    Ordering,
    TimestampVector,
    UNDEFINED,
    compare,
)

#: Transaction id of the virtual initial transaction.
VIRTUAL_TXN = 0

#: Transaction ids below this bound live in the dense slab; anything
#: larger (or negative) spills into a dict so pathological ids cannot
#: force a multi-megabyte slab allocation.
_SLAB_LIMIT = 1 << 16


class EncodingPolicy:
    """Strategy deciding *where* in two vectors a dependency is encoded.

    Invoked only for the mutating cases of ``Set`` (``=`` and ``?``); the
    comparing cases (``<``/``>``) never consult the policy.  Implementations
    must leave the vectors ordered ``TS(j) < TS(i)`` and may only assign
    previously undefined elements.
    """

    def encode_equal(
        self,
        ts_j: TimestampVector,
        ts_i: TimestampVector,
        position: int,
        counters: Counters,
        item: str | None,
    ) -> None:
        """Both elements at *position* are undefined (the ``=`` case)."""
        raise NotImplementedError

    def encode_semi(
        self,
        ts_j: TimestampVector,
        ts_i: TimestampVector,
        position: int,
        counters: Counters,
        item: str | None,
    ) -> None:
        """Exactly one element at *position* is undefined (the ``?`` case)."""
        raise NotImplementedError


class NormalEncoding(EncodingPolicy):
    """Algorithm 1's literal encoding rules.

    * ``=`` at ``m < k``: set ``TS(j, m) := 1`` and ``TS(i, m) := 2``.
    * ``=`` at ``m = k``: draw two consecutive upper-counter values so the
      k-th column stays globally distinct.
    * ``?`` at ``m < k``: give the undefined side a value adjacent to the
      defined side (``+1`` below ``TS(i)``, ``-1`` above ``TS(j)``).
    * ``?`` at ``m = k``: draw from ``ucount``/``lcount`` instead, keeping
      the k-th column distinct.
    """

    def encode_equal(
        self,
        ts_j: TimestampVector,
        ts_i: TimestampVector,
        position: int,
        counters: Counters,
        item: str | None,
    ) -> None:
        if position == ts_j.k:
            lower, upper = counters.fresh_upper_pair()
            ts_j.set(position, lower)
            ts_i.set(position, upper)
        else:
            ts_j.set(position, 1)
            ts_i.set(position, 2)

    def encode_semi(
        self,
        ts_j: TimestampVector,
        ts_i: TimestampVector,
        position: int,
        counters: Counters,
        item: str | None,
    ) -> None:
        if ts_i.get(position) is UNDEFINED:
            if position == ts_i.k:
                ts_i.set(position, counters.fresh_upper())
            else:
                ts_i.set(position, ts_j.get(position) + 1)
        else:
            if position == ts_j.k:
                ts_j.set(position, counters.fresh_lower())
            else:
                ts_j.set(position, ts_i.get(position) - 1)


class OptimizedEncoding(NormalEncoding):
    """Section III-D-5: encode hot-item dependencies near the right end.

    For a dependency caused by a *frequently accessed* item, instead of
    assigning the normal (leftmost deciding) position, copy the defined
    prefix of the longer vector into the shorter one and encode the order in
    the first position after that prefix.  Vectors that matched the old
    shared prefix keep matching, so fewer implicit total orders are created
    and more concurrency remains available (the paper's ``<1,3,1,*>`` /
    ``<1,3,2,*>`` example).

    Cold items use the inherited normal rules.  Heat is decided by
    ``is_hot``; :class:`AccessFrequencyTracker` provides a dynamic policy.
    """

    def __init__(self, is_hot: Callable[[str], bool]) -> None:
        self._is_hot = is_hot

    def encode_semi(
        self,
        ts_j: TimestampVector,
        ts_i: TimestampVector,
        position: int,
        counters: Counters,
        item: str | None,
    ) -> None:
        if item is None or not self._is_hot(item):
            super().encode_semi(ts_j, ts_i, position, counters, item)
            return
        if ts_i.get(position) is UNDEFINED:
            longer, shorter = ts_j, ts_i
        else:
            longer, shorter = ts_i, ts_j
        prefix_len = longer.defined_prefix_length()
        if prefix_len >= longer.k or prefix_len <= position:
            # No room to the right, or the longer vector's prefix does not
            # extend beyond the deciding position (copying would only pull
            # the shorter vector down to the longer one's first element,
            # *creating* orders against bystanders instead of avoiding
            # them) — fall back to the normal rule.
            super().encode_semi(ts_j, ts_i, position, counters, item)
            return
        # The shorter vector may hold *holes* — defined elements past the
        # deciding position (k-th-column counter draws land there before the
        # prefix fills in).  Vectors are write-once, so verify the whole
        # copy is legal before mutating anything: every already-defined
        # element inside the copy range must match the longer vector's, and
        # the landing position for the ``=`` rule must be free on both
        # sides.  Any conflict falls back to the normal rule untouched.
        landing = prefix_len + 1
        copyable = (
            shorter.get(landing) is UNDEFINED
            and longer.get(landing) is UNDEFINED
        )
        if copyable:
            for pos in range(position, prefix_len + 1):
                existing = shorter.get(pos)
                if existing is not UNDEFINED and existing != longer.get(pos):
                    copyable = False
                    break
        if not copyable:
            super().encode_semi(ts_j, ts_i, position, counters, item)
            return
        for pos in range(position, prefix_len + 1):
            if shorter.get(pos) is UNDEFINED:
                shorter.set(pos, longer.get(pos))
        # Both vectors now share a defined prefix of length prefix_len; the
        # ``=`` rule encodes the order in the first free position.
        self.encode_equal(ts_j, ts_i, landing, counters, item)


class AccessFrequencyTracker:
    """Dynamic hot-item detection by access counting (Section III-D-5 notes
    the access rate may be "dynamic data measured during the scheduling")."""

    def __init__(self, hot_fraction: float = 0.2, min_accesses: int = 4) -> None:
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        self._counts: dict[str, int] = {}
        self._hot_fraction = hot_fraction
        self._min_accesses = min_accesses

    def record(self, item: str) -> None:
        self._counts[item] = self._counts.get(item, 0) + 1

    def count(self, item: str) -> int:
        return self._counts.get(item, 0)

    def is_hot(self, item: str) -> bool:
        count = self._counts.get(item, 0)
        if count < self._min_accesses:
            return False
        total = sum(self._counts.values())
        return count >= self._hot_fraction * total


@dataclass(slots=True)
class SetOutcome:
    """What a ``Set(j, i)`` call did (for tracing and for the composite
    protocol, which needs to distinguish "already ordered" from "encoded
    now")."""

    ok: bool
    comparison: Comparison
    encoded: bool

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class TimestampTable:
    """Timestamp table of Fig. 2: vectors + ``RT``/``WT`` indices + counters.

    Rows are created lazily: the first time a transaction id is looked up it
    receives a fresh all-undefined vector (matching Algorithm 1's
    initialization of every ``TS(i)`` to ``<*, ..., *>``).

    Storage is a dense txn-id-indexed slab (transaction ids are small
    consecutive integers in every workload), with a dict spill for outliers;
    row lookup on the scheduling hot path is one list index.  Every
    Definition 6 decision is one :func:`~repro.core.timestamp.compare`
    scan of at most ``k`` elements.

    A committed transaction's row is :meth:`retire`-d with the number of
    references that still name it (implementation note III-D-6b): its
    ``RT``/``WT`` slots, kept from then on by :meth:`set_rt` /
    :meth:`set_wt`, plus what the scheduler holds
    (access-history entries, pending readers: :meth:`hold` /
    :meth:`release`).  It is dropped, in O(1), when the count reaches
    zero — nothing left can ask for it again.  Rows of uncommitted
    transactions are never dropped, so they are not counted.
    """

    def __init__(
        self,
        k: int,
        counters: Counters | None = None,
        encoding: EncodingPolicy | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("vector size k must be at least 1")
        self.k = k
        self.counters = counters if counters is not None else Counters()
        self.encoding = encoding if encoding is not None else NormalEncoding()
        virtual = TimestampVector(k)
        virtual.set(1, 0)
        self._slab: list[TimestampVector | None] = [virtual]
        self._spill: dict[int, TimestampVector] = {}
        self._rt: dict[str, int] = {}
        self._wt: dict[str, int] = {}
        #: references still naming each retired row (III-D-6b): a
        #: committed transaction's row once :meth:`retire` counted it;
        #: uncommitted rows are never dropped, so they are not counted.
        self._refs: dict[int, int] = {}
        #: rows dropped so far (by count or sweep)
        self.rows_freed = 0
        #: element-comparison cost counter: every Definition 6 comparison
        #: issued by :meth:`set_less` / :meth:`latest_accessor` /
        #: :meth:`order_after_latest` adds its deciding position m (<= k).
        #: This is the unit the O(nqk) analysis of Section III-D-3 counts.
        self.element_visits = 0

    # ------------------------------------------------------------------
    # Rows and item indices
    # ------------------------------------------------------------------
    def vector(self, txn: int) -> TimestampVector:
        """``TS(txn)``, creating a fresh all-undefined row on first use."""
        slab = self._slab
        if 0 <= txn < len(slab):
            row = slab[txn]
            if row is not None:
                return row
        return self._materialize(txn)

    def _materialize(self, txn: int) -> TimestampVector:
        if 0 <= txn < _SLAB_LIMIT:
            slab = self._slab
            if txn >= len(slab):
                slab.extend([None] * (txn + 1 - len(slab)))
            row = slab[txn]
            if row is None:
                row = slab[txn] = TimestampVector(self.k)
            return row
        row = self._spill.get(txn)
        if row is None:
            row = self._spill[txn] = TimestampVector(self.k)
        return row

    def known_txns(self) -> tuple[int, ...]:
        slab_ids = [
            txn for txn, row in enumerate(self._slab) if row is not None
        ]
        if not self._spill:
            return tuple(slab_ids)
        return tuple(sorted(slab_ids + list(self._spill)))

    def _rows(self) -> list[tuple[int, TimestampVector]]:
        """All live ``(txn, vector)`` rows in ascending txn order."""
        rows = [
            (txn, row)
            for txn, row in enumerate(self._slab)
            if row is not None
        ]
        if self._spill:
            rows = sorted(rows + list(self._spill.items()))
        return rows

    def drop(self, txn: int) -> None:
        """Drop *txn*'s row in O(1); the caller knows nothing names it."""
        slab = self._slab
        if 0 <= txn < len(slab):
            if slab[txn] is not None:
                slab[txn] = None
                self.rows_freed += 1
        elif self._spill.pop(txn, None) is not None:
            self.rows_freed += 1

    # ------------------------------------------------------------------
    # Reference counts of committed rows (III-D-6b)
    # ------------------------------------------------------------------
    def retire(self, txn: int, refs: int, items: Iterable[str]) -> None:
        """*txn* committed; the scheduler still holds *refs* references
        to its row, and its ``RT``/``WT`` slots are among *items* (the
        ones it touched).  Drop the row now if nothing names it, else
        count the references down from here."""
        if txn == VIRTUAL_TXN:
            raise ValueError("the virtual transaction's row is permanent")
        rt, wt = self._rt, self._wt
        for item in items:
            if rt.get(item) == txn:
                refs += 1
            if wt.get(item) == txn:
                refs += 1
        if refs:
            self._refs[txn] = refs
        else:
            self.drop(txn)

    def hold(self, txn: int) -> None:
        """One more reference to *txn*'s row (counted once it retired)."""
        refs = self._refs
        if txn in refs:
            refs[txn] += 1

    def release(self, txn: int) -> None:
        """One reference fewer to *txn*'s row; a retired row goes with
        its last one."""
        refs = self._refs
        count = refs.get(txn)
        if count is None:
            return
        if count > 1:
            refs[txn] = count - 1
        else:
            del refs[txn]
            self.drop(txn)

    def is_held(self, txn: int) -> bool:
        """Is *txn*'s row retired and still referenced?  (A retired row
        nothing references is gone.)"""
        return txn in self._refs

    def rt(self, item: str) -> int:
        """``RT(x)``: id of the most recent reader (initially ``T_0``)."""
        return self._rt.get(item, VIRTUAL_TXN)

    def wt(self, item: str) -> int:
        """``WT(x)``: id of the most recent writer (initially ``T_0``)."""
        return self._wt.get(item, VIRTUAL_TXN)

    def set_rt(self, item: str, txn: int) -> None:
        old = self._rt.get(item)
        if old != txn:
            self._rt[item] = txn
            # The slot moves from old to txn; only retired rows count it.
            refs = self._refs
            if txn in refs:
                refs[txn] += 1
            if old in refs:
                self.release(old)

    def set_wt(self, item: str, txn: int) -> None:
        old = self._wt.get(item)
        if old != txn:
            self._wt[item] = txn
            refs = self._refs
            if txn in refs:
                refs[txn] += 1
            if old in refs:
                self.release(old)

    def latest_accessor(self, item: str) -> int:
        """Lines 5-6 of Algorithm 1: the one of ``RT(x)``/``WT(x)`` holding
        the larger vector (``RT(x)`` when they are not strictly ordered)."""
        rt = self._rt.get(item, VIRTUAL_TXN)
        wt = self._wt.get(item, VIRTUAL_TXN)
        if rt == wt:
            # Same transaction on both indices (fresh item: T0/T0; or a
            # read-then-write by one transaction): the comparison could
            # only return "not less", i.e. RT(x) — skip it outright.
            return rt
        comparison = self._compare_counted(self.vector(rt), self.vector(wt))
        if comparison.ordering is Ordering.LESS:
            return wt
        return rt

    def order_after_latest(self, item: str, i: int) -> tuple[int, SetOutcome]:
        """Fused lines 5-6 + ``Set(j, i)``: pick the latest accessor ``j``
        of *item* and try to order it before ``T_i`` in one call.

        Semantically identical to ``set_less(latest_accessor(item), i,
        item)``; fusing saves a call layer and a row lookup per scheduled
        operation — this pair is the per-operation hot path of MT(k).
        """
        rt = self._rt.get(item, VIRTUAL_TXN)
        wt = self._wt.get(item, VIRTUAL_TXN)
        if rt == wt:
            j = rt
        else:
            comparison = self._compare_counted(self.vector(rt), self.vector(wt))
            j = wt if comparison.ordering is Ordering.LESS else rt
        return j, self.set_less(j, i, item)

    # ------------------------------------------------------------------
    # Definition 6 comparisons
    # ------------------------------------------------------------------
    def _compare_counted(
        self, left: TimestampVector, right: TimestampVector
    ) -> Comparison:
        """Definition 6, charging the deciding position to
        ``element_visits``."""
        comparison = compare(left, right)
        self.element_visits += comparison.position
        return comparison

    def compare_vectors(
        self, left: TimestampVector, right: TimestampVector
    ) -> Comparison:
        """Uncounted comparison for scheduler-side checks that sit outside
        the paper's O(nqk) cost accounting — the lines 9-10 read fallback,
        the Thomas write rule, abort-time index restoration."""
        return compare(left, right)

    # ------------------------------------------------------------------
    # The Set procedure
    # ------------------------------------------------------------------
    def set_less(self, j: int, i: int, item: str | None = None) -> SetOutcome:
        """``Set(j, i)``: try to establish/verify ``TS(j) < TS(i)``.

        Returns an outcome whose ``ok`` is Algorithm 1's boolean result:
        true when the order already holds or was encoded now; false when the
        opposite order ``TS(j) > TS(i)`` is already committed to the table.
        ``item`` is the data item whose access caused the dependency — only
        the optimized encoding policy looks at it.
        """
        if j == i:
            return SetOutcome(
                True, Comparison.of(Ordering.IDENTICAL, self.k), False
            )
        ts_j, ts_i = self.vector(j), self.vector(i)
        comparison = self._compare_counted(ts_j, ts_i)
        ordering = comparison.ordering
        if ordering is Ordering.LESS:
            return SetOutcome(True, comparison, False)
        if ordering is Ordering.GREATER:
            return SetOutcome(False, comparison, False)
        if ordering is Ordering.IDENTICAL:
            # Cannot happen between two live transactions (k-th column values
            # are globally distinct) but is trivially an inconsistent state.
            raise RuntimeError(
                f"vectors of T{j} and T{i} are identical: {ts_j}"
            )
        if ordering is Ordering.EQUAL:
            self.encoding.encode_equal(
                ts_j, ts_i, comparison.position, self.counters, item
            )
        else:  # Ordering.SEMI
            self.encoding.encode_semi(
                ts_j, ts_i, comparison.position, self.counters, item
            )
        return SetOutcome(True, comparison, True)

    # ------------------------------------------------------------------
    # Introspection / recording
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[int, tuple[Element, ...]]:
        """Current vectors as immutable tuples, keyed by transaction id."""
        return {txn: vec.snapshot() for txn, vec in self._rows()}

    def column(self, position: int) -> list[Element]:
        """All defined elements currently in 1-based column *position* (used
        by tests of the distinct-last-column invariant)."""
        return [
            vec.get(position)
            for _, vec in self._rows()
            if vec.get(position) is not UNDEFINED
        ]
