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

from ...model.operations import stable_hash


class ShardRouter:
    """Maps items and transactions onto ``n_shards`` partitions."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self._item_cache: dict[str, int] = {}

    # ------------------------------------------------------------------
    def shard_of_item(self, item: str) -> int:
        """The shard owning *item*'s most-recent-accessor records."""
        shard = self._item_cache.get(item)
        if shard is None:
            shard = self._item_cache[item] = stable_hash(item) % self.n_shards
        return shard

    def shard_of_txn(self, txn: int) -> int:
        """The transaction's home shard (its vector row lives there)."""
        return txn % self.n_shards

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardRouter n={self.n_shards}>"
