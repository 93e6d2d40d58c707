"""Decentralized multiversion MT(k): :class:`MultiversionMixin` over DMT(k).

Kept apart from :mod:`repro.core.multiversion` so that the one-shard
MVMT(k) lane never compiles DMT(k), its message network or its lock
manager; ``repro.core.multiversion.MVDMTkScheduler`` still names this
class (loaded on first access).
"""

from __future__ import annotations

from typing import Any

from ..model.operations import Operation
from .distributed import DMTkScheduler, ObjectId
from .multiversion import MultiversionMixin


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
