"""Shard routing: a stable partition of items and transactions.

The router decides which shard owns each data item's ``RT``/``WT``
record and which shard is each transaction's *home* (where its
timestamp-vector row lives) — the same placement questions Section V-B
answers for DMT(k) sites.

Hashing is **process-stable** by construction: Python's builtin
``hash(str)`` is salted per interpreter (``PYTHONHASHSEED``), so a
router built on it would route items differently in every process and
a seed would no longer determine the report.  Items are placed by the
crc32 :func:`~repro.model.operations.stable_hash` that DMT(k) sites
use, a pure function of the item name.
"""

from __future__ import annotations

from typing import Callable

from ...model.operations import stable_hash


class ShardRouter:
    """Maps items and transactions onto ``n_shards`` partitions."""

    def __init__(
        self,
        n_shards: int,
        item_fn: Callable[[str], int] | None = None,
        txn_fn: Callable[[int], int] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self._item_fn = item_fn
        self._txn_fn = txn_fn
        self._item_cache: dict[str, int] = {}

    # ------------------------------------------------------------------
    def shard_of_item(self, item: str) -> int:
        """The shard owning *item*'s most-recent-accessor records."""
        shard = self._item_cache.get(item)
        if shard is None:
            if self._item_fn is not None:
                shard = self._item_fn(item) % self.n_shards
            else:
                shard = stable_hash(item) % self.n_shards
            self._item_cache[item] = shard
        return shard

    def shard_of_txn(self, txn: int) -> int:
        """The transaction's home shard (its vector row lives there)."""
        if self._txn_fn is not None:
            return self._txn_fn(txn) % self.n_shards
        return txn % self.n_shards

    def placement(self, items: list[str]) -> dict[int, list[str]]:
        """Debug/analysis helper: items grouped by owning shard."""
        groups: dict[int, list[str]] = {s: [] for s in range(self.n_shards)}
        for item in items:
            groups[self.shard_of_item(item)].append(item)
        return groups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardRouter n={self.n_shards}>"
