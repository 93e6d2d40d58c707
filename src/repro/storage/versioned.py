"""Multiversion storage keyed by timestamp vectors (Reed extension).

Implementation note III-D-6d: Reed's multiversion mechanism, built for
single-valued timestamps, "can be extended to timestamp vectors".  This
module is that extension, rebuilt on the one chain representation the
whole repo now shares (:class:`~repro.core.mvcc.VersionChain`): every
write installs a value on the item's chain under the writer's id; a
reader receives the latest version whose writer is ordered **before**
the reader per the Definition 6 order of the *live* vectors, defaulting
to the initial value written by the virtual ``T_0``.

Because the vectors are read live from the table at resolution time (the
``vector_of`` callback), version order reflects every encoding made
since the write — the old snapshot-tag-plus-``refresh()`` hack is gone;
keeping the version order consistent with the (monotonically refined)
serialization order now falls out of sharing the rows themselves.

A store can also be *bound* to a multiversion scheduler
(:meth:`bind_scheduler`), in which case the two share the same chain
objects — the scheduler orders versions and records read sources, the
store carries the values — and reads are served exactly from the version
the scheduler's ``read_source`` oracle pinned, making the paired
(decision, value) streams consistent by construction.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.mvcc import ChainVersion, NO_VALUE, VersionChain
from ..core.table import VIRTUAL_TXN
from ..core.timestamp import Ordering, TimestampVector, compare


class MultiversionStore:
    """Versioned item store ordered by timestamp vectors."""

    def __init__(
        self,
        k: int,
        vector_of: Callable[[int], TimestampVector],
        initial: dict[str, Any] | None = None,
        chains: dict[str, VersionChain] | None = None,
    ) -> None:
        self.k = k
        self._vector_of = vector_of
        self._initial: dict[str, Any] = dict(initial or {})
        #: per-item chains; possibly the scheduler's own objects.
        self._chains: dict[str, VersionChain] = (
            chains if chains is not None else {}
        )
        self._scheduler = None

    @classmethod
    def bound_to(
        cls, scheduler, initial: dict[str, Any] | None = None
    ) -> "MultiversionStore":
        """A store sharing a multiversion scheduler's chain objects."""
        store = cls(
            scheduler.k,
            scheduler.table.vector,
            initial=initial,
            chains=scheduler.chains(),
        )
        store._scheduler = scheduler
        return store

    def bind_scheduler(self, scheduler) -> None:
        """Adopt *scheduler*'s chains as the value carrier (one chain
        representation for ordering and storage)."""
        self._scheduler = scheduler
        self._chains = scheduler.chains()
        self._vector_of = scheduler.table.vector

    # ------------------------------------------------------------------
    def _chain(self, item: str) -> VersionChain:
        chain = self._chains.get(item)
        if chain is None:
            chain = self._chains[item] = VersionChain()
        return chain

    def write(self, item: str, txn: int, value: Any) -> ChainVersion:
        """Install the writer's value on the item's chain (a repeat write
        by the same transaction refreshes its version in place)."""
        return self._chain(item).install(txn, value)

    def read(self, item: str, txn: int, default: Any = 0) -> Any:
        """The latest version ordered before the reader's vector.

        Bound to a scheduler, the version is exactly the one the
        scheduler's latest accepted read pinned (``read_source``).
        Unbound, "latest" is the maximal version writer strictly less
        than the reader per the live vectors; ties (incomparable
        writers) fall back to chain order, matching the arrival order of
        accepted writes.  A transaction always sees its own version.
        """
        chain = self._chains.get(item)
        if self._scheduler is not None:
            source = self._scheduler.read_source(txn, item)
            if source is not None:
                if source == VIRTUAL_TXN:
                    return self._initial_value(item, chain, default)
                version = chain.version_of(source) if chain else None
                if version is not None and version.has_value():
                    return version.value
                return self._initial_value(item, chain, default)
        if chain is None:
            return self._initial.get(item, default)
        reader = self._vector_of(txn)
        best: ChainVersion | None = None
        for version in chain.versions:
            if version.writer == VIRTUAL_TXN or not version.has_value():
                continue
            if version.writer == txn:
                # A transaction always sees its own writes.
                best = version
                continue
            if (
                compare(self._vector_of(version.writer), reader).ordering
                is Ordering.LESS
            ):
                if best is None or self._newer(version, best):
                    best = version
        if best is None:
            return self._initial_value(item, chain, default)
        return best.value

    def _initial_value(
        self, item: str, chain: VersionChain | None, default: Any
    ) -> Any:
        if chain is not None and chain.versions[0].writer == VIRTUAL_TXN:
            base = chain.versions[0]
            if base.has_value():
                return base.value
        return self._initial.get(item, default)

    def _newer(self, a: ChainVersion, b: ChainVersion) -> bool:
        ordering = compare(
            self._vector_of(b.writer), self._vector_of(a.writer)
        ).ordering
        if ordering is Ordering.LESS:
            return True
        if ordering is Ordering.GREATER:
            return False
        # Incomparable: later-installed wins (chain order == accept order).
        return True

    # ------------------------------------------------------------------
    def prune_aborted(self, txn: int) -> int:
        """Drop an aborted transaction's versions (VI-C 2c: cheap
        pruning) — and its recorded reads when the chains are shared with
        a scheduler, whose chain index then names the chains to visit
        (a bound store carries values on versions the scheduler
        installed; none are left once the scheduler retracted *txn*
        itself).  Returns the number of versions removed."""
        removed = 0
        if self._scheduler is not None:
            chains = self._scheduler.chains_of(txn)
        else:
            chains = self._chains.values()
        for chain in chains:
            before = len(chain.versions)
            chain.retract(txn)
            removed += before - len(chain.versions)
        return removed

    def versions_of(self, item: str) -> list[ChainVersion]:
        """Value-carrying versions of *item* in chain order (the virtual
        base version excluded unless it was given an initial value)."""
        chain = self._chains.get(item)
        if chain is None:
            return []
        return [
            version
            for version in chain.versions
            if version.has_value() or version.writer != VIRTUAL_TXN
        ]

    def chain_of(self, item: str) -> VersionChain:
        """The underlying shared chain (creating it on first use)."""
        return self._chain(item)


# Backwards-compatible alias: the old dataclass name for one version.
Version = ChainVersion

__all__ = ["MultiversionStore", "Version", "VersionChain", "NO_VALUE"]
