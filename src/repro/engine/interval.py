"""Dynamic timestamp-interval concurrency control (the Bayer et al. [1]
comparator of Section VI-A).

Each transaction starts with a large time interval; whenever a dependency
``T_j -> T_i`` is discovered, the two intervals are made disjoint in that
order by *shrinking*: a split point ``c`` strictly inside the overlap is
chosen, ``T_j`` keeps the part below ``c`` and ``T_i`` the part above.  A
dependency whose required order contradicts two already-disjoint intervals
aborts the transaction.

The paper's four criticisms are all reproducible knobs here:

1. intervals shrink from one end at a time and live on a *finite* grid
   (``resolution`` integer points — the word-pair representation), so
2. repeated splitting fragments them: when the overlap contains no interior
   grid point the dependency is unencodable and the transaction aborts even
   though the order was semantically fine — this is the fragmentation
   MT(k)'s vectors avoid;
3. the split-point policy is unspecified in [1]; we provide ``midpoint``
   (balanced) and ``edge`` (greedy, keeps one side large) policies;
4. an aborted transaction restarts with the same full initial interval, so
   the Section III-D-4 starvation pattern recurs.

Like MT(k), the scheduler tracks ``RT``/``WT`` per item to find the
dependencies (point 2 of VI-A notes [1] itself left discovery unspecified —
we give it the same discovery machinery MT(k) has, so the comparison
isolates the *encoding* difference).  A rejected transaction leaves the
indices: each item keeps its accessors in acceptance order, and ``RT`` /
``WT`` fall back to the latest surviving reader / writer.  Every access is
ordered after both ``RT`` and ``WT``, so an item's accessors form a chain
and intervals only shrink: ordering against the survivor keeps every
dependency the victim carried.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model.operations import Operation
from ..core.protocol import Decision, DecisionStatus, Scheduler
from ..obs.instrument import Instrumented

#: The virtual initial transaction; its interval is the single point 0.
VIRTUAL = 0
_NOBODY = (VIRTUAL, 0)


@dataclass
class Interval:
    """A half-open interval ``[lo, hi)`` of integer grid points."""

    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def disjoint_below(self, other: "Interval") -> bool:
        return self.hi <= other.lo

    def overlaps(self, other: "Interval") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi})"


class IntervalScheduler(Instrumented, Scheduler):
    """Timestamp-interval scheduler with a finite grid."""

    SPLIT_POLICIES = ("midpoint", "edge")

    def __init__(
        self, resolution: int = 2**20, split: str = "midpoint"
    ) -> None:
        if resolution < 4:
            raise ValueError("resolution too small to be interesting")
        if split not in self.SPLIT_POLICIES:
            raise ValueError(f"split must be one of {self.SPLIT_POLICIES}")
        self.resolution = resolution
        self.split = split
        self.name = f"INTERVAL({split})"
        self.init_observability(
            self.name,
            counters=("splits", "fragmentation_aborts", "order_aborts"),
        )
        self.reset()

    def reset(self) -> None:
        self._intervals: dict[int, Interval] = {VIRTUAL: Interval(0, 1)}
        # item -> (txn, acceptance seq) of the latest reader / writer
        self._rt: dict[str, tuple[int, int]] = {}
        self._wt: dict[str, tuple[int, int]] = {}
        # item -> (txn, seq, is_read) of every live accessor, in order
        self._accessors: dict[str, list[tuple[int, int, bool]]] = {}
        self._touched: dict[int, set[str]] = {}
        self._counter = 0
        self.aborted: set[int] = set()
        self.reset_observability()

    # ------------------------------------------------------------------
    def interval(self, txn: int) -> Interval:
        if txn not in self._intervals:
            # Restarted or new transactions get the full initial interval
            # (criticism 4: the fixed restart interval enables starvation).
            self._intervals[txn] = Interval(1, self.resolution)
        return self._intervals[txn]

    def _process(self, op: Operation) -> Decision:
        i, x = op.txn, op.item
        rt, rt_seq = self._rt.get(x, _NOBODY)
        wt, wt_seq = self._wt.get(x, _NOBODY)
        predecessors = [wt, rt] if wt_seq > rt_seq else [rt, wt]
        for j in predecessors:
            if j == i:
                continue
            reason = self._order(j, i)
            if reason is not None:
                self.aborted.add(i)
                self._retract(i)
                return Decision(DecisionStatus.REJECT, op, reason)
        self._counter += 1
        is_read = op.kind.is_read
        (self._rt if is_read else self._wt)[x] = (i, self._counter)
        self._accessors.setdefault(x, []).append((i, self._counter, is_read))
        self._touched.setdefault(i, set()).add(x)
        return Decision(DecisionStatus.ACCEPT, op)

    def _retract(self, txn: int) -> None:
        """Drop *txn*'s accesses; ``RT``/``WT`` fall back to survivors."""
        for x in self._touched.pop(txn, ()):
            accessors = [a for a in self._accessors[x] if a[0] != txn]
            self._accessors[x] = accessors
            for index, is_read in ((self._rt, True), (self._wt, False)):
                latest = next(
                    (a for a in reversed(accessors) if a[2] is is_read), None
                )
                if latest is None:
                    index.pop(x, None)
                else:
                    index[x] = latest[:2]

    # ------------------------------------------------------------------
    def _order(self, j: int, i: int) -> str | None:
        """Force interval(j) entirely before interval(i); returns an abort
        reason on failure, ``None`` on success."""
        a, b = self.interval(j), self.interval(i)
        if a.disjoint_below(b):
            return None
        if b.disjoint_below(a):
            self.metrics.inc("order_aborts")
            return f"intervals already ordered {b} < {a}"
        # Split point c: a keeps [a.lo, c), b keeps [c, b.hi).  c must
        # satisfy a.lo < c (a stays non-empty) and c < b.hi (b stays
        # non-empty); it must also lie at or above b.lo and at or below
        # a.hi so both intervals only shrink, never grow.
        low_bound = max(a.lo + 1, b.lo)
        high_bound = min(a.hi, b.hi - 1)
        if low_bound > high_bound:
            self.metrics.inc("fragmentation_aborts")
            return f"no split point left in {a} vs {b} (fragmentation)"
        if self.split == "midpoint":
            c = (low_bound + high_bound + 1) // 2
        else:  # edge: shave the minimum off the earlier interval
            c = low_bound
        self._intervals[j] = Interval(a.lo, c)
        self._intervals[i] = Interval(c, b.hi)
        self.metrics.inc("splits")
        return None

    def restart(self, txn: int) -> None:
        """Restart with the full initial interval, as in [1]."""
        self.aborted.discard(txn)
        self._intervals.pop(txn, None)
