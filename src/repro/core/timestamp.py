"""Timestamp vectors and their ordering (Section II, Definition 6).

A transaction's timestamp ``TS(i)`` is a vector of ``k`` elements, each
either *undefined* (the paper's ``*``, our ``None``) or a value drawn from a
logical clock.  Elements are ordinarily integers; the decentralized protocol
DMT(k) stores ``(counter, site)`` pairs in the k-th column, so any totally
ordered value type works as long as a single column never mixes types.

Definition 6 compares two vectors by scanning corresponding elements from
left to right until the first position ``m`` where the elements are unequal
or at least one is undefined:

* both defined, unequal            -> the element order decides (``<``/``>``);
* both undefined                   -> the vectors are *equal* (``=``) — an
  order between them can still be encoded at position ``m``;
* exactly one undefined            -> *semi-defined* (``?``) — an order can
  be encoded at ``m`` by giving the undefined side a value just below/above
  the defined one.

A scan that exhausts all ``k`` positions with defined, equal elements means
the vectors are *identical*; Algorithm 1 guarantees this never happens for
two distinct transactions (the k-th column uses globally distinct counter
values), but the comparison reports it faithfully.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Iterator, Sequence

#: A timestamp element: ``None`` is the paper's undefined ``*``.  Defined
#: values must be mutually comparable within a column (ints, or
#: ``(counter, site)`` tuples in DMT(k)'s k-th column).
Element = Any

UNDEFINED: Element = None


class Ordering(enum.Enum):
    """Outcome of a Definition 6 comparison."""

    LESS = "<"
    GREATER = ">"
    EQUAL = "="  # both elements at the deciding position are undefined
    SEMI = "?"  # exactly one element at the deciding position is undefined
    IDENTICAL = "=="  # all k positions defined and equal

    def reversed(self) -> "Ordering":
        if self is Ordering.LESS:
            return Ordering.GREATER
        if self is Ordering.GREATER:
            return Ordering.LESS
        return self


class Comparison:
    """Result of comparing two vectors: the ordering plus the deciding
    1-based position ``m`` (``m == k`` matters to the encoding rules).

    Prefer :meth:`of` over the constructor on hot paths: small positions
    (``m <= 16``, i.e. every practical vector size) resolve to shared
    interned instances, so comparing a million vector pairs allocates
    nothing.  Interned or not, instances are value-equal and hashable the
    same way.
    """

    __slots__ = ("ordering", "position")

    #: Positions up to this bound resolve to interned shared instances.
    INTERN_LIMIT = 16

    def __init__(self, ordering: Ordering, position: int) -> None:
        self.ordering = ordering
        self.position = position

    @classmethod
    def of(cls, ordering: Ordering, position: int) -> "Comparison":
        """Factory returning the interned instance for small positions."""
        if 1 <= position <= cls.INTERN_LIMIT:
            return _INTERNED[(ordering, position)]
        return cls(ordering, position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Comparison({self.ordering.value!r}, m={self.position})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and self.ordering is other.ordering
            and self.position == other.position
        )

    def __hash__(self) -> int:
        return hash((self.ordering, self.position))


#: The interned ``(ordering, position)`` pairs behind :meth:`Comparison.of`.
_INTERNED: dict[tuple[Ordering, int], Comparison] = {
    (ordering, position): Comparison(ordering, position)
    for ordering in Ordering
    for position in range(1, Comparison.INTERN_LIMIT + 1)
}

#: Position-indexed views of the interned instances (index 0 unused) —
#: ``compare()`` resolves its verdict with one list index instead of a
#: method call plus tuple hash.
_LESS_AT = [None] + [_INTERNED[(Ordering.LESS, p)] for p in range(1, 17)]
_GREATER_AT = [None] + [_INTERNED[(Ordering.GREATER, p)] for p in range(1, 17)]
_EQUAL_AT = [None] + [_INTERNED[(Ordering.EQUAL, p)] for p in range(1, 17)]
_SEMI_AT = [None] + [_INTERNED[(Ordering.SEMI, p)] for p in range(1, 17)]
_IDENTICAL_AT = [None] + [
    _INTERNED[(Ordering.IDENTICAL, p)] for p in range(1, 17)
]


class TimestampVector:
    """A mutable ``k``-element timestamp vector.

    Mutability is deliberate: Algorithm 1's ``Set`` procedure *encodes*
    dependencies by filling in elements of live vectors.  Use
    :meth:`snapshot` to capture an immutable copy (the trace/recording
    machinery behind Tables I-III does).
    """

    __slots__ = ("_elements", "_version", "_flushes", "_mask", "_prefix_hint")

    def __init__(self, k: int, elements: Iterable[Element] | None = None) -> None:
        if k < 1:
            raise ValueError("vector size k must be at least 1")
        if elements is None:
            self._elements: list[Element] = [UNDEFINED] * k
        else:
            self._elements = list(elements)
            if len(self._elements) != k:
                raise ValueError(
                    f"expected {k} elements, got {len(self._elements)}"
                )
        #: mutation counter: bumped by every set() and flush(), so any two
        #: observations with equal versions saw identical elements.
        self._version = 0
        #: flush epoch: bumped only by flush().  Between two observations
        #: with equal epochs no element was ever *un*-defined, so a decided
        #: ordering (<, >, identical) observed earlier still holds (fill-only
        #: monotonicity — the invariant Theorem 2's proof rests on).
        self._flushes = 0
        #: bitmask of defined 1-based positions (bit p-1 set iff position p
        #: is defined).  Within one flush epoch elements are write-once, so
        #: an unchanged masked prefix means unchanged element values — the
        #: O(1) staleness test the comparison cache uses.
        self._mask = 0
        for index, element in enumerate(self._elements):
            if element is not UNDEFINED:
                self._mask |= 1 << index
        self._prefix_hint = self._scan_prefix(0)

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """The vector dimension."""
        return len(self._elements)

    @property
    def version(self) -> int:
        """Mutation counter (bumped on every :meth:`set` and :meth:`flush`)."""
        return self._version

    @property
    def flush_count(self) -> int:
        """Flush epoch (bumped only by :meth:`flush`)."""
        return self._flushes

    def _scan_prefix(self, start: int) -> int:
        """Length of the defined prefix, scanning from 0-based *start*."""
        elements = self._elements
        count = start
        for index in range(start, len(elements)):
            if elements[index] is UNDEFINED:
                break
            count += 1
        return count

    def get(self, position: int) -> Element:
        """``TS(i, m)``: the element at 1-based *position*."""
        return self._elements[position - 1]

    def set(self, position: int, value: Element) -> None:
        """Assign the element at 1-based *position*.

        Overwriting a defined element is refused: Algorithm 1 only ever
        fills in undefined elements, and once an order has been encoded it
        must never change (the monotonicity that Theorem 2's proof rests
        on).  The starvation remedy resets a whole vector via :meth:`flush`
        instead.
        """
        if self._elements[position - 1] is not UNDEFINED:
            raise ValueError(
                f"element {position} already defined "
                f"({self._elements[position - 1]!r}); vectors are write-once"
            )
        if value is UNDEFINED:
            raise ValueError("cannot assign the undefined value")
        self._elements[position - 1] = value
        self._version += 1
        self._mask |= 1 << (position - 1)
        if position - 1 == self._prefix_hint:
            # The new element extends the defined prefix; it may also bridge
            # into "holes" (defined elements further right, e.g. a k-th
            # column counter draw), so keep scanning past them.
            self._prefix_hint = self._scan_prefix(position - 1)

    def flush(self) -> None:
        """Reset every element to undefined (starvation remedy, III-D-4)."""
        for index in range(len(self._elements)):
            self._elements[index] = UNDEFINED
        self._version += 1
        self._flushes += 1
        self._mask = 0
        self._prefix_hint = 0

    def defined_prefix_length(self) -> int:
        """Number of leading defined elements (used by the optimized
        encoding of Section III-D-5).  O(1): maintained incrementally by
        :meth:`set`/:meth:`flush` instead of re-scanning the prefix."""
        return self._prefix_hint

    def defined_count(self) -> int:
        """Total number of defined elements anywhere in the vector."""
        return sum(1 for element in self._elements if element is not UNDEFINED)

    def is_fresh(self) -> bool:
        """True iff no element has been assigned yet."""
        return all(element is UNDEFINED for element in self._elements)

    def snapshot(self) -> tuple[Element, ...]:
        """Immutable copy of the current elements."""
        return tuple(self._elements)

    def copy(self) -> "TimestampVector":
        """Independent clone carrying the same mutation/flush epochs.

        The epochs must survive the copy: the comparison cache's staleness
        test keys on ``flush_count``/``version``, so a clone restarting at
        epoch 0 could later masquerade as a never-flushed vector and
        validate a stale cached verdict if it were substituted for the
        original.
        """
        clone = TimestampVector(self.k, self._elements)
        clone._version = self._version
        clone._flushes = self._flushes
        return clone

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimestampVector):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:  # pragma: no cover - vectors rarely hashed
        return hash(self.snapshot())

    def __str__(self) -> str:
        rendered = ",".join(
            "*" if element is UNDEFINED else str(element)
            for element in self._elements
        )
        return f"<{rendered}>"

    __repr__ = __str__


def compare(left: TimestampVector, right: TimestampVector) -> Comparison:
    """Definition 6: compare two vectors of equal dimension.

    Returns the :class:`Comparison` holding the ordering and the deciding
    position ``m``.  ``IDENTICAL`` carries position ``k``.
    """
    left_elements = left._elements
    right_elements = right._elements
    if len(left_elements) != len(right_elements):
        raise ValueError(f"dimension mismatch: {left.k} vs {right.k}")
    position = 0
    try:
        for a, b in zip(left_elements, right_elements):
            position += 1
            if a is UNDEFINED:
                if b is UNDEFINED:
                    return _EQUAL_AT[position]
                return _SEMI_AT[position]
            if b is UNDEFINED:
                return _SEMI_AT[position]
            if a < b:
                return _LESS_AT[position]
            if a > b:
                return _GREATER_AT[position]
        return _IDENTICAL_AT[position]
    except IndexError:  # k > INTERN_LIMIT: fall back to fresh instances
        pass
    return _compare_wide(left_elements, right_elements)


def _compare_wide(
    left_elements: Sequence[Element], right_elements: Sequence[Element]
) -> Comparison:
    """The ``k > INTERN_LIMIT`` slow path of :func:`compare`."""
    position = 0
    for a, b in zip(left_elements, right_elements):
        position += 1
        if a is UNDEFINED:
            if b is UNDEFINED:
                return Comparison.of(Ordering.EQUAL, position)
            return Comparison.of(Ordering.SEMI, position)
        if b is UNDEFINED:
            return Comparison.of(Ordering.SEMI, position)
        if a < b:
            return Comparison.of(Ordering.LESS, position)
        if a > b:
            return Comparison.of(Ordering.GREATER, position)
    return Comparison.of(Ordering.IDENTICAL, position)


def is_less(left: TimestampVector, right: TimestampVector) -> bool:
    """``TS(i) < TS(j)`` per Definition 6 (strictly less; ``=``/``?``/
    identical all count as *not* less)."""
    return compare(left, right).ordering is Ordering.LESS


def is_greater(left: TimestampVector, right: TimestampVector) -> bool:
    """``TS(i) > TS(j)`` per Definition 6."""
    return compare(left, right).ordering is Ordering.GREATER


# FENCED RESIDUE — nothing in ``src/`` references this class.  The table
# decides Definition 6 with :func:`compare` alone: measured, a cache hit
# cost what a k=3 compare costs and a miss several times that
# (EXPERIMENTS.md, "ComparisonCache").  The class body, the ``_mask`` / ``_flushes`` vector
# fields it reads and its unit tests (``TestComparisonCache``,
# ``TestCopyPreservesEpochs``) stay byte-for-byte only because
# ``benchmarks/perf/trace.py`` — frozen outside benchmark PRs — resolves
# ``ComparisonCache.compare`` and the harness asserts every patch target
# exists.  The next benchmark PR drops the ``timestamp.compare`` row of
# ``trace.PATCHES`` and deletes all three together (ROADMAP item 3(d)).
class ComparisonCache:
    """Bounded memo for Definition 6 comparisons over live vector pairs.

    Keyed by ``(id(left), id(right))``; each entry pins strong references
    to both vectors, so an id cannot be recycled while its entry is alive
    (no false hits from ``id()`` reuse after garbage collection).

    Validity: a verdict decided at position ``m`` depends only on elements
    ``1..m`` of both vectors.  Each entry therefore records, per side, the
    flush epoch and the defined-positions mask restricted to ``1..m``; the
    entry is reusable iff both still match.  Equal flush epochs mean no
    element was un-defined since (elements are write-once within an epoch,
    so a defined element cannot have changed value), and an unchanged
    masked prefix means no element in ``1..m`` was newly defined — together
    the deciding evidence is bit-for-bit what the scan saw.  ``set()``
    calls beyond the deciding position never invalidate an entry; a
    ``flush()`` on either side invalidates every entry involving it.

    Eviction is FIFO once ``maxsize`` entries exist; ``hits``/``misses``
    make the effectiveness observable (the table exports them as gauges).
    """

    __slots__ = ("maxsize", "_entries", "hits", "misses")

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: dict[tuple[int, int], tuple] = {}
        self.hits = 0
        self.misses = 0

    def compare(self, left: TimestampVector, right: TimestampVector) -> Comparison:
        """Cached Definition 6 comparison."""
        key = (id(left), id(right))
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry[0] is left
            and entry[1] is right
            and entry[2] == left._flushes
            and entry[3] == right._flushes
        ):
            pmask = entry[4]
            if (
                left._mask & pmask == entry[5]
                and right._mask & pmask == entry[6]
            ):
                self.hits += 1
                return entry[7]
        self.misses += 1
        result = compare(left, right)
        entries = self._entries
        if key not in entries and len(entries) >= self.maxsize:
            entries.pop(next(iter(entries)))
        pmask = (1 << result.position) - 1
        entries[key] = (
            left,
            right,
            left._flushes,
            right._flushes,
            pmask,
            left._mask & pmask,
            right._mask & pmask,
            result,
        )
        return result

    def purge(self, vector: TimestampVector) -> int:
        """Drop every entry involving *vector*; returns the count dropped.

        Entries pin strong references to both vectors, so a reclaimed
        table row would otherwise stay alive — keyed by a dead ``id()`` —
        until FIFO eviction happens to rotate it out.  Called by
        :meth:`~repro.core.table.TimestampTable.reclaim`.
        """
        entries = self._entries
        dead = [
            key
            for key, entry in entries.items()
            if entry[0] is vector or entry[1] is vector
        ]
        for key in dead:
            del entries[key]
        return len(dead)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


def render_snapshot(elements: Sequence[Element]) -> str:
    """Render an element tuple the way the paper prints vectors: ``<1,*>``."""
    rendered = ",".join(
        "*" if element is UNDEFINED else str(element) for element in elements
    )
    return f"<{rendered}>"


class Counters:
    """The ``lcount``/``ucount`` pair for a k-th column (Algorithm 1).

    ``ucount`` hands out strictly increasing values, ``lcount`` strictly
    decreasing ones, so every value drawn from a :class:`Counters` instance
    is distinct and every *new* upper value exceeds all previously issued
    values (and symmetrically for lower values) — the property the ``Set``
    procedure relies on at position ``k``.

    ``lcount`` starts at ``-1``, not ``0``: the virtual transaction's
    vector is ``<0, *, ..., *>``, so at ``k = 1`` the k-th column already
    contains the value ``0`` before any counter is consulted.  A first
    lower draw of ``0`` would duplicate T0's element and violate the
    distinct-last-column invariant Algorithm 1's ``Set`` relies on (two
    identical vectors make ``Set`` unorderable).
    """

    __slots__ = ("_lcount", "_ucount")

    def __init__(self, lcount: int = -1, ucount: int = 1) -> None:
        self._lcount = lcount
        self._ucount = ucount

    @property
    def lcount(self) -> int:
        return self._lcount

    @property
    def ucount(self) -> int:
        return self._ucount

    def fresh_upper(self) -> Element:
        """Next value from the top (``ucount``; post-incremented)."""
        value = self._make(self._ucount)
        self._ucount += 1
        return value

    def fresh_upper_pair(self) -> tuple[Element, Element]:
        """Two consecutive upper values (the ``=`` case at position k)."""
        return self.fresh_upper(), self.fresh_upper()

    def fresh_lower(self) -> Element:
        """Next value from the bottom (``lcount``; post-decremented)."""
        value = self._make(self._lcount)
        self._lcount -= 1
        return value

    def _make(self, counter: int) -> Element:
        """Hook for subclasses to tag values (see DMT(k)'s site tags)."""
        return counter


class SiteTaggedCounters(Counters):
    """Counters producing globally unique ``(counter, site)`` pairs.

    Section V-B: in DMT(k) each site runs its own counters, so bare counter
    values may collide across sites.  Concatenating the site number as the
    low-order component keeps values distinct while staying fair (the
    counter stays the high-order component).
    """

    __slots__ = ("site",)

    def __init__(self, site: int, lcount: int = -1, ucount: int = 1) -> None:
        super().__init__(lcount=lcount, ucount=ucount)
        self.site = site

    def _make(self, counter: int) -> Element:
        return (counter, self.site)

    def synchronize(self, lcount: int, ucount: int) -> None:
        """Periodic counter synchronization across sites (Section V-B 1b):
        adopt the fleet-wide bounds if they are wider than the local ones."""
        self._lcount = min(self._lcount, lcount)
        self._ucount = max(self._ucount, ucount)

    def ensure_above(self, element: Element) -> None:
        """Make the next upper value compare above an observed k-th element
        (Lamport-style join).

        A site's local ``ucount`` is only monotone locally; when the
        protocol must encode "greater than this observed remote value" the
        counter first advances past it — otherwise the assignment could
        silently encode the wrong direction.  The paper's periodic
        synchronization makes this cheap in practice; the join makes it
        *correct* unconditionally.
        """
        counter = element[0] if isinstance(element, tuple) else int(element)
        self._ucount = max(self._ucount, counter + 1)

    def ensure_below(self, element: Element) -> None:
        """Make the next lower value compare below an observed element."""
        counter = element[0] if isinstance(element, tuple) else int(element)
        self._lcount = min(self._lcount, counter - 1)
