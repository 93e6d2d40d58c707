"""Version chains and the pure visibility engine behind MVMT(k).

The III-D-6d scheduler used to interleave three concerns in one method:
walking an ad-hoc writer list, *mutating* vectors mid-walk, and deciding
what to read.  Following Bohm's split of logical version ordering from
physical installation, this module separates them:

* :class:`VersionChain` — the one chain representation shared by the
  scheduler and :class:`~repro.storage.versioned.MultiversionStore`:
  versions oldest → newest (the virtual ``T_0`` owns the base version),
  each optionally carrying a value, plus the recorded ``(reader,
  source)`` pairs writes must validate against, how many of them each
  reader holds, and, per version, how many of those records are already
  known to sit below its writer (the *validated prefix*).
* :class:`VisibilityEngine` — **pure** decisions.  Given a comparison
  oracle over transaction ids it answers "which version does this vector
  see" (:meth:`resolve_read`, a gallop down the ordered chain), "may this
  write install"
  (:meth:`resolve_write`) and "how does this recorded read constrain the
  new version" (:meth:`classify_reader`) without touching any shared
  mutable state.  Every ordering the answer *requires* is returned as an
  explicit pin for the caller to apply.
* The installation side lives in the scheduler
  (:class:`~repro.core.multiversion.MultiversionMixin`): it applies pins
  through the MT(k) ``Set`` machinery and appends to chains — the only
  per-item index a multiversion scheduler keeps.

The payoff is the paper's promise made structural: a read can only ever
return a version (plus at most one always-satisfiable pin on an
incomparable writer), so **reads are abort-free by construction** —
write-write conflicts and write-read invalidations are the only abort
sources left, and both live in :meth:`resolve_write` /
:meth:`classify_reader` where the fuzzer can see them.

Garbage collection follows the III-D-6a/b storage-reclamation story: the
per-item *watermark* (:meth:`VersionChain.watermark_index`) is the newest
version whose writer is committed and *settled* — no non-committed
transaction is ordered strictly below it.  The newest-first read walk
only proceeds past a version whose writer is GREATER than the reader, so
a version strictly older than a settled watermark can never be served
again: an active reader merely incomparable to the watermark pins it
below itself and stops there, and a future (or restarted) transaction
draws its elements from monotone counters after the watermark committed,
so it can never land below it either.  Read records whose reader sits
strictly below the watermark writer can never constrain a future write
(transitivity through the watermark orders the reader below any
installer), so both are reclaimed.

The same transitivity bounds write validation.  ``ChainVersion.validated``
counts the leading read records whose reader is the version's writer or
is ordered strictly below it.  A new tail writer is first ordered above
the old tail, so by Lemmas 1-2 (Definition 6's ``<`` is a strict partial
order) those records are ``UNAFFECTED`` for it too and only the records
past the boundary need :meth:`VisibilityEngine.classify_reader`.  ``0``
means "assume nothing" and is always safe; every operation that drops
read records re-bases the boundaries (:meth:`VersionChain.retract`) or
zeroes them (:meth:`VersionChain.collect`,
:meth:`VersionChain.reset_validated`).

The same total order bounds the read walk.  Writers ascend strictly, so
if a writer is GREATER than the reader every newer writer is too: the
writers the newest-first walk skips form a *suffix* of the chain, and
:meth:`VisibilityEngine.resolve_read` finds its boundary by galloping
down from the tail and bisecting, in O(log depth) comparisons instead
of O(depth).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from .table import VIRTUAL_TXN
from .timestamp import Ordering

#: Sentinel for "no value recorded with this version" — the scheduler
#: tracks version *order*; values are the storage layer's concern.
NO_VALUE = object()


@dataclass
class ChainVersion:
    """One version of one item: its writer and (optionally) its value."""

    writer: int
    value: Any = NO_VALUE
    #: validated prefix: every record in ``chain.reads[:validated]`` has
    #: this writer as its reader or a reader ordered strictly below it.
    #: Bookkeeping, not identity — two versions are equal by writer/value.
    validated: int = field(default=0, compare=False, repr=False)

    def has_value(self) -> bool:
        return self.value is not NO_VALUE


class VersionChain:
    """One item's version history, oldest first, with recorded reads.

    Invariant (asserted by the hypothesis suite): the writers' timestamp
    vectors are *totally* ordered and ascend along the chain — installs
    only append, and an append requires the previous newest to be ordered
    below the new writer first.
    """

    __slots__ = ("versions", "reads", "reader_counts")

    def __init__(self) -> None:
        self.versions: list[ChainVersion] = [ChainVersion(VIRTUAL_TXN)]
        #: accepted reads in acceptance order: (reader, source writer).
        self.reads: list[tuple[int, int]] = []
        #: reader -> how many of ``reads`` it holds (readers with none
        #: are absent), so :meth:`retract` touches the reads only for a
        #: transaction that has some.
        self.reader_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def newest(self) -> int:
        return self.versions[-1].writer

    def writers(self) -> list[int]:
        """Version writers oldest → newest (``T_0`` included)."""
        return [version.writer for version in self.versions]

    def version_of(self, writer: int) -> ChainVersion | None:
        for version in reversed(self.versions):
            if version.writer == writer:
                return version
        return None

    def __len__(self) -> int:
        return len(self.versions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VersionChain {self.writers()} reads={len(self.reads)}>"

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, writer: int, value: Any = NO_VALUE) -> ChainVersion:
        """Append a version (a repeat write refreshes the newest in
        place — one version per writer, matching the paper's model).
        A fresh version starts with the always-safe validated prefix 0;
        an installer that validated the recorded reads sets it on the
        returned version."""
        last = self.versions[-1]
        if last.writer == writer:
            if value is not NO_VALUE:
                last.value = value
            return last
        version = ChainVersion(writer, value)
        self.versions.append(version)
        return version

    def record_read(self, reader: int, source: int) -> None:
        self.reads.append((reader, source))
        counts = self.reader_counts
        counts[reader] = counts.get(reader, 0) + 1

    def reset_validated(self) -> None:
        """Forget every validated prefix: the next write re-classifies
        all recorded reads.  For callers that moved a vector the chain
        references without retracting its entries."""
        for version in self.versions:
            version.validated = 0

    def retract(self, txn: int) -> int:
        """Remove an aborted transaction's version and read records.
        Returns the number of entries dropped.

        Writers are distinct (they strictly ascend), so there is at most
        one version to drop; the scan for it starts at the tail, where
        uncommitted writers sit.  The reads are touched only when
        ``reader_counts`` says *txn* holds some, and then only back from
        the tail to its earliest record — retracting a transaction twice
        reads no record the second time.

        A retracted tail falls back to its predecessor (boundary
        included — it travels with the version); dropped read records
        shift every later boundary down by the records lost below it."""
        removed = 0
        versions = self.versions
        for index in range(len(versions) - 1, -1, -1):
            if versions[index].writer == txn:
                del versions[index]
                if not versions:
                    # GC may have collected the T0 base; reinstate it so
                    # the chain always serves *something* (the initial
                    # version).
                    versions.append(ChainVersion(VIRTUAL_TXN))
                removed = 1
                break
        count = self.reader_counts.pop(txn, 0)
        if count:
            reads = self.reads
            dropped: list[int] = []
            index = len(reads)
            while len(dropped) < count:
                index -= 1
                if reads[index][0] == txn:
                    dropped.append(index)
            for index in dropped:  # descending: earlier indices stay put
                del reads[index]
            dropped.reverse()
            removed += count
            for version in versions:
                version.validated -= bisect_left(dropped, version.validated)
        return removed

    # ------------------------------------------------------------------
    # Garbage collection (III-D-6a/b extended to version chains)
    # ------------------------------------------------------------------
    def watermark_index(
        self,
        committed: Callable[[int], bool],
        settled: Callable[[int], bool],
    ) -> int:
        """Index of the newest version whose writer is committed (or the
        virtual ``T_0``) *and* settled — no non-committed transaction is
        ordered strictly below it — the low-watermark bounding the
        chain."""
        for index in range(len(self.versions) - 1, -1, -1):
            writer = self.versions[index].writer
            if writer == VIRTUAL_TXN:
                return index
            if committed(writer) and settled(writer):
                return index
        return 0

    def collect(
        self,
        committed: Callable[[int], bool],
        settled: Callable[[int], bool],
        strictly_below: Callable[[int, int], bool],
        grace: int = 0,
    ) -> tuple[int, int]:
        """Reclaim versions and read records dead under the watermark.

        Returns ``(versions_reclaimed, reads_reclaimed)``.  A version
        older than the watermark is unreachable: the newest-first walk
        only proceeds *past* a version GREATER than the reader, and no
        non-committed transaction sits below the settled watermark — a
        reader merely incomparable to it (or a fresh, all-undefined
        vector) pins against it rather than walking past.  A read record
        whose reader is committed and *strictly below the watermark
        writer* can never veto or pin a future write: the installer must
        order the newest version (≥ watermark) below itself first, so
        transitivity already orders the reader below the installer.

        *grace* keeps that many extra versions below the watermark.  The
        walk above is sound for vectors as they stand, but adjacency
        encodes (``encode_semi``'s ``±1`` rule) can still serialize a
        *future* transaction just above an old writer — fixing its
        snapshot point in the past — and its next read of a truncated
        chain takes a "snapshot too old" horizon abort.  A small grace
        margin absorbs the common pin-just-below-the-watermark case at a
        bounded chain-length cost; it cannot eliminate horizon aborts
        (no online rule can — the drift happens after collection).
        """
        index = self.watermark_index(committed, settled)
        if grace:
            index = max(0, index - grace)
        versions_reclaimed = 0
        if index > 0:
            del self.versions[:index]
            versions_reclaimed = index
        reads_reclaimed = 0
        if self.reads:
            watermark = self.versions[0].writer
            keep = []
            for reader, source in self.reads:
                if (
                    committed(reader)
                    and reader != watermark
                    and strictly_below(reader, watermark)
                ):
                    reads_reclaimed += 1
                else:
                    keep.append((reader, source))
            if reads_reclaimed:
                self.reads = keep
                counts: dict[int, int] = {}
                for reader, _ in keep:
                    counts[reader] = counts.get(reader, 0) + 1
                self.reader_counts = counts
                # Collection is rare; re-basing every boundary over the
                # reclaimed records buys nothing over one full rescan.
                self.reset_validated()
        return versions_reclaimed, reads_reclaimed

    def referenced_txns(self) -> set[int]:
        """Every transaction the chain still references (writers,
        readers and read sources) — the rows a decision on this item may
        compare or pin.  Their timestamp-table rows must not be
        reclaimed, or a later visibility walk would compare against a
        recreated all-undefined vector.  The virtual ``T_0`` is included
        while its base version or a read of it is retained: a pin on the
        base can write ``TS(0)``'s undefined elements."""
        referenced = {version.writer for version in self.versions}
        for reader, source in self.reads:
            referenced.add(reader)
            referenced.add(source)
        return referenced


# ----------------------------------------------------------------------
# Pure visibility decisions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReadResolution:
    """What a read must do: read ``source``'s version, after applying
    ``pin`` (order ``pin[0]`` below the reader, attributing the encode to
    item ``pin[1]``) if present.

    With ``skip`` set the resolution is instead a *detour directive*:
    ``source`` is an uncommitted, unordered writer the reader should be
    ordered **below** (the reverse of the usual pin), after which
    visibility must be re-resolved against the updated vectors — the
    commit-aware walk that keeps reads clean of commit dependencies."""

    source: int
    pin: tuple[int, str | None] | None
    fresh: bool  #: source is the chain's newest version
    skip: bool = False  #: pin reader below source, then resolve again


@dataclass(frozen=True)
class WriteResolution:
    """Whether the new version may take the chain's tail position."""

    ok: bool
    blocking: int  #: the newest writer (the conflict on failure)
    pin: tuple[int, str | None] | None


class ReaderCheck(Enum):
    """How one recorded read constrains an installing write."""

    UNAFFECTED = "unaffected"  #: reader below the writer: can't observe it
    SAFE = "safe"  #: reader above, but its source is above too
    INVALIDATED = "invalidated"  #: new version slides under the read: abort
    PIN_BELOW = "pin-below"  #: unordered reader: order it below the writer


class VisibilityEngine:
    """Pure function of (transaction vectors, chain) → visibility.

    ``ordering_of(a, b)`` must return the Definition 6
    :class:`~repro.core.timestamp.Ordering` of ``TS(a)`` vs ``TS(b)``
    *without* side effects; the engine itself never mutates anything —
    required orderings come back as explicit pins.  An item's chain
    lives on the shard that owns the item, so decentralized visibility
    needs no cross-shard critical section, only the
    (immutable-under-the-window) rows the claim set already ships.
    """

    __slots__ = ("_ordering_of", "_committed_of")

    def __init__(
        self,
        ordering_of: Callable[[int, int], Ordering],
        committed_of: Callable[[int], bool] | None = None,
    ) -> None:
        self._ordering_of = ordering_of
        #: optional commit oracle enabling the commit-aware read walk
        #: (skip directives); without it every unordered writer is read.
        self._committed_of = committed_of

    # ------------------------------------------------------------------
    def resolve_read(
        self, chain: VersionChain, reader: int, item: str | None = None
    ) -> ReadResolution | None:
        """The version ``reader`` must see — the newest version whose
        writer is not above it.

        Skipping writers already *above* the reader, the first writer
        below it — or not yet ordered against it, in which case a pin
        commits writer-before-reader (leaving the order open would let
        the serialization slide the writer in front of the reader later)
        — owns the version to read.  At most one pin, on an incomparable
        pair, which the ``Set`` move always satisfies: the read cannot
        abort.  ``None`` only for vectors driven below the virtual
        transaction (a genuine, defensively-counted abort).

        The skipped writers form a suffix of the ordered chain, so the
        boundary is found by probing the tail (the common read stops
        there after one comparison), then offsets 1, 3, 7, … below it,
        and bisecting the last gap.  The base ``T_0`` version is not
        part of the ordered run (``chain_is_ordered`` exempts it) and is
        probed only when every writer above it is skipped — where the
        newest-first walk would reach it too.
        """
        versions = chain.versions
        ordering_of = self._ordering_of
        greater = Ordering.GREATER

        def verdict(index: int) -> Ordering | None:
            # None: the reader's own version — a transaction always
            # sees its own write.
            writer = versions[index].writer
            return None if writer == reader else ordering_of(writer, reader)

        hi = len(versions) - 1  # the lowest index known to be skipped
        ordering = verdict(hi)
        if ordering is not greater:
            lo = hi
        else:
            lo = -1  # the highest index known to stop the walk
            floor = 1 if hi > 0 and versions[0].writer == VIRTUAL_TXN else 0
            gap = 1
            while hi > floor:
                index = max(floor, hi - gap)
                probe = verdict(index)
                if probe is not greater:
                    lo, ordering = index, probe
                    break
                hi = index
                gap *= 2
            if lo < 0 and floor:  # every writer above T_0 is skipped
                probe = verdict(0)
                if probe is not greater:
                    lo, ordering = 0, probe
            if lo < 0:
                return None
            while hi - lo > 1:
                index = (lo + hi) // 2
                probe = verdict(index)
                if probe is greater:
                    hi = index
                else:
                    lo, ordering = index, probe
        writer = versions[lo].writer
        fresh = writer == versions[-1].writer
        if ordering is None or ordering is Ordering.LESS:
            return ReadResolution(writer, None, fresh)
        # Incomparable (=/?).  An *uncommitted* writer here is a choice
        # point: reading it is a dirty read — the reader picks up a
        # commit dependency and cascades if the writer rolls back —
        # while ordering the reader *below* it costs one Set move and
        # keeps the read clean.  Take the clean order (a skip directive:
        # the caller pins, then resolves again) whenever the chain still
        # has its floor; on a GC-truncated chain the detour could walk
        # off the retained history, so the dirty read is the lesser evil
        # there (the executor's commit-dependency gate nets it).
        if (
            self._committed_of is not None
            and writer != VIRTUAL_TXN
            and not self._committed_of(writer)
            and versions[0].writer == VIRTUAL_TXN
        ):
            return ReadResolution(
                writer, (writer, item if fresh else None), fresh, skip=True
            )
        # Committed (or no commit oracle) — commit to writer-before-
        # reader.  The encode is attributed to the item only for the
        # newest version (the position the single-version MT(k) would
        # have contended on); deeper pins are pure ordering moves.
        return ReadResolution(writer, (writer, item if fresh else None), fresh)

    def resolve_write(
        self, chain: VersionChain, writer: int, item: str | None = None
    ) -> WriteResolution:
        """May ``writer`` install after the chain's newest version?

        The newest writer must be (or become, via pin) ordered below the
        new writer; an already-GREATER newest writer is a write-write
        conflict — one of MVMT's two abort sources.
        """
        newest = chain.versions[-1].writer
        if newest == writer:
            return WriteResolution(True, newest, None)
        ordering = self._ordering_of(newest, writer)
        if ordering is Ordering.GREATER:
            return WriteResolution(False, newest, None)
        if ordering is Ordering.LESS:
            return WriteResolution(True, newest, None)
        return WriteResolution(True, newest, (newest, item))

    def classify_reader(
        self, reader: int, source: int, writer: int
    ) -> ReaderCheck:
        """How the recorded read ``(reader, source)`` constrains a new
        version by ``writer`` — the write-read invalidation rule.

        A reader above the writer must have read a source above the
        writer too, else the new version retroactively slides in between
        the pair (MVMT's other abort source).  An unordered reader is
        pinned below the new version — another dynamic-encoding move
        unavailable to scalar multiversion TO.
        """
        ordering = self._ordering_of(reader, writer)
        if ordering is Ordering.LESS:
            return ReaderCheck.UNAFFECTED
        if ordering is Ordering.GREATER:
            if self._ordering_of(source, writer) is Ordering.GREATER:
                return ReaderCheck.SAFE
            return ReaderCheck.INVALIDATED
        return ReaderCheck.PIN_BELOW

    # ------------------------------------------------------------------
    def chain_is_ordered(self, chain: VersionChain) -> bool:
        """Invariant check (hypothesis suite): the chain's writers are
        totally ordered and ascending."""
        writers = chain.writers()
        for earlier, later in zip(writers, writers[1:]):
            if earlier == VIRTUAL_TXN:
                continue
            if self._ordering_of(earlier, later) is not Ordering.LESS:
                return False
        return True
